use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

use bytes::Bytes;
use crusader_time::Time;

use crate::fxhash::{FxBuildHasher, FxHasher};
use crate::{NodeId, Signature};

/// A claim that `signer` signed `message`, together with the signature.
///
/// Protocol messages advertise the claims they carry via
/// [`CarriesSignatures`]; the simulation engine uses them to track what the
/// adversary has learned and to gate what it may send.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SignedClaim {
    /// The node claimed to have produced the signature.
    pub signer: NodeId,
    /// The exact bytes signed.
    pub message: Bytes,
    /// The signature itself.
    pub signature: Signature,
}

impl SignedClaim {
    /// Convenience constructor.
    #[must_use]
    pub fn new(signer: NodeId, message: impl Into<Bytes>, signature: Signature) -> Self {
        SignedClaim {
            signer,
            message: message.into(),
            signature,
        }
    }
}

impl fmt::Debug for SignedClaim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SignedClaim({} over {} bytes, {:?})",
            self.signer,
            self.message.len(),
            self.signature
        )
    }
}

/// Implemented by protocol message types so the engine can see which
/// signatures a message carries.
///
/// A faulty node may only send a message whose honest-signed claims it has
/// *already received* — the paper's execution well-formedness condition.
///
/// Implementors write [`for_each_claim`](Self::for_each_claim), the
/// non-allocating visitor the engine's hot path uses; a type that does not
/// carries no signatures.
pub trait CarriesSignatures {
    /// Visits every signed claim embedded in this message, in order. The
    /// default visits none.
    fn for_each_claim(&self, _f: &mut dyn FnMut(SignedClaim)) {}

    /// The signed claims embedded in this message, collected from
    /// [`for_each_claim`](Self::for_each_claim) into a vector.
    fn claims(&self) -> Vec<SignedClaim> {
        let mut claims = Vec::new();
        self.for_each_claim(&mut |claim| claims.push(claim));
        claims
    }
}

impl CarriesSignatures for () {}

/// Error returned when the adversary tries to send a message containing an
/// honest signature it has not yet learned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnowledgeError {
    /// The claim the adversary did not know.
    pub claim: SignedClaim,
    /// The time at which the violating send was attempted.
    pub at: Time,
}

impl fmt::Display for KnowledgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "adversary used unlearned signature of {} at {}",
            self.claim.signer, self.at
        )
    }
}

impl std::error::Error for KnowledgeError {}

/// The pre-hashed form of a [`SignedClaim`] used as the tracker's map key.
///
/// Storing the full claim made every map probe re-hash the message bytes
/// and the signature through `SipHash`, and every insert clone them. The
/// compact key fingerprints both once (a word-at-a-time multiply-xor mix)
/// and keeps only `(signer, 2 × u64)` — `Copy`, integer-compared, cheaply
/// re-hashed.
///
/// Two *different* claims by the same signer collapse onto one key only if
/// both 64-bit fingerprints collide (~2⁻¹²⁸ per pair on these short
/// inputs). The tracker is a simulation artifact — its inputs come from
/// protocol code, not from an attacker hunting hash collisions — so this
/// is far below any probability the experiments can observe.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct ClaimKey {
    signer: NodeId,
    msg_fp: u64,
    sig_fp: u64,
}

impl ClaimKey {
    #[inline]
    fn of(claim: &SignedClaim) -> Self {
        ClaimKey {
            signer: claim.signer,
            msg_fp: fingerprint(0x6d73_675f_6670, &claim.message), // "msg_fp"
            sig_fp: match &claim.signature {
                Signature::Symbolic(tag) => fingerprint(0x7379_6d62, &tag.to_le_bytes()),
                Signature::Ed25519(bytes) => fingerprint(0x6564_3235, &bytes[..]),
            },
        }
    }
}

/// Salted 64-bit fingerprint, mixing 8 bytes per step (a byte-wise FNV
/// here would serialize one multiply per *byte* on the tracker hot path).
/// The trailing partial chunk and the length are folded in so neither
/// truncation nor zero-padding can alias two inputs trivially.
#[inline]
fn fingerprint(salt: u64, bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.mix(salt);
    std::hash::Hasher::write(&mut hasher, bytes);
    hasher.mix(bytes.len() as u64);
    std::hash::Hasher::finish(&hasher)
}

/// Tracks which honest signatures the adversary has learned, and when.
///
/// The model states: *"the adversary ... needs to obtain signatures of
/// honest nodes affecting a message it intends to send before it can
/// generate the message"*, where "obtain" means some faulty node received a
/// message containing the signature. This tracker is the executable form of
/// that rule:
///
/// * the engine calls [`KnowledgeTracker::learn`] whenever a message is
///   delivered to a faulty node;
/// * the engine calls [`KnowledgeTracker::authorize`] before accepting a
///   message injected by the adversary.
///
/// Claims signed by corrupted nodes are always authorized (the adversary
/// holds their secrets). Internally claims are stored as pre-hashed
/// compact keys (see `ClaimKey` in this module), so the
/// learn-on-every-faulty-delivery hot path neither clones claim bytes nor
/// re-hashes them on each probe.
///
/// # Sharded engines and deterministic reconciliation
///
/// The tracker's operations are order-sensitive only through the *times*
/// they carry: `learn` keeps the earliest time per claim, and
/// `knows`/`authorize` compare against a query time. Two disciplines keep
/// a parallel simulator deterministic:
///
/// * **Sequential reconcile (what `crusader_sim::shard` does):** keep one
///   tracker and touch it only from the phase that replays events in the
///   global `(at, seq)` order — learns and authorizations then interleave
///   exactly as in a single-lane run.
/// * **Lane-partitioned tracking:** give each lane its own tracker for
///   its deliveries and fold them together at a synchronization barrier
///   with [`merge`](Self::merge). Because `learn` is a pointwise
///   earliest-time minimum, the merge is associative and commutative —
///   the folded tracker is independent of lane order — but authorization
///   queries must still only happen *after* the barrier that merges every
///   learn with an earlier timestamp.
#[derive(Clone, Debug, Default)]
pub struct KnowledgeTracker {
    corrupted: BTreeSet<NodeId>,
    learned: HashMap<ClaimKey, Time, FxBuildHasher>,
}

impl KnowledgeTracker {
    /// Creates a tracker for an execution corrupting `corrupted`.
    #[must_use]
    pub fn new(corrupted: BTreeSet<NodeId>) -> Self {
        KnowledgeTracker {
            corrupted,
            learned: HashMap::default(),
        }
    }

    /// Records that the adversary saw `claim` at time `at` (keeps the
    /// earliest time if seen repeatedly).
    pub fn learn(&mut self, claim: SignedClaim, at: Time) {
        match self.learned.entry(ClaimKey::of(&claim)) {
            Entry::Occupied(mut e) => {
                if at < *e.get() {
                    e.insert(at);
                }
            }
            Entry::Vacant(e) => {
                e.insert(at);
            }
        }
    }

    /// Records every claim carried by `msg`.
    pub fn learn_all<M: CarriesSignatures>(&mut self, msg: &M, at: Time) {
        msg.for_each_claim(&mut |claim| self.learn(claim, at));
    }

    /// Returns `true` if the adversary knows `claim` at time `at`.
    #[must_use]
    pub fn knows(&self, claim: &SignedClaim, at: Time) -> bool {
        if self.corrupted.contains(&claim.signer) {
            return true;
        }
        self.learned
            .get(&ClaimKey::of(claim))
            .is_some_and(|t| *t <= at)
    }

    /// Checks that every claim carried by `msg` is known at `at`.
    ///
    /// # Errors
    ///
    /// Returns the first unknown claim as a [`KnowledgeError`].
    pub fn authorize<M: CarriesSignatures>(&self, msg: &M, at: Time) -> Result<(), KnowledgeError> {
        let mut unknown = None;
        msg.for_each_claim(&mut |claim| {
            if unknown.is_none() && !self.knows(&claim, at) {
                unknown = Some(claim);
            }
        });
        match unknown {
            Some(claim) => Err(KnowledgeError { claim, at }),
            None => Ok(()),
        }
    }

    /// Folds another tracker's learned claims into this one, keeping the
    /// earliest time per claim — the deterministic reconciliation
    /// primitive for lane-partitioned tracking (see the type docs).
    ///
    /// Forward-looking API: the sharded executor currently uses the
    /// sequential-reconcile discipline and does not call this; it exists
    /// (and is tested) so a future parallel reconcile can keep per-lane
    /// trackers without redesigning the type.
    ///
    /// Pointwise minimum over claim keys, so merging is associative and
    /// commutative: folding any permutation of lane trackers yields the
    /// same result.
    ///
    /// # Panics
    ///
    /// Panics if the trackers disagree on the corrupted set — they would
    /// then disagree on which claims need learning at all.
    pub fn merge(&mut self, other: &KnowledgeTracker) {
        assert_eq!(
            self.corrupted, other.corrupted,
            "merging trackers from different executions"
        );
        for (key, at) in &other.learned {
            match self.learned.entry(*key) {
                Entry::Occupied(mut e) => {
                    if at < e.get() {
                        e.insert(*at);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(*at);
                }
            }
        }
    }

    /// The earliest time the adversary learned `claim`, if ever.
    #[must_use]
    pub fn learned_at(&self, claim: &SignedClaim) -> Option<Time> {
        self.learned.get(&ClaimKey::of(claim)).copied()
    }

    /// Number of distinct claims learned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.learned.len()
    }

    /// Whether no claims have been learned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.learned.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyRing;

    fn claim(ring: &KeyRing, node: usize, msg: &'static [u8]) -> SignedClaim {
        let id = NodeId::new(node);
        SignedClaim::new(id, msg, ring.signer(id).sign(msg))
    }

    struct Msg(Vec<SignedClaim>);
    impl CarriesSignatures for Msg {
        fn for_each_claim(&self, f: &mut dyn FnMut(SignedClaim)) {
            self.0.iter().cloned().for_each(f);
        }
    }

    #[test]
    fn corrupted_signatures_always_known() {
        let ring = KeyRing::symbolic(3, 0);
        let tracker = KnowledgeTracker::new([NodeId::new(2)].into_iter().collect());
        let c = claim(&ring, 2, b"own");
        assert!(tracker.knows(&c, Time::ZERO));
    }

    #[test]
    fn honest_signature_unknown_until_learned() {
        let ring = KeyRing::symbolic(3, 0);
        let mut tracker = KnowledgeTracker::new([NodeId::new(2)].into_iter().collect());
        let c = claim(&ring, 0, b"pulse");
        assert!(!tracker.knows(&c, Time::from_secs(10.0)));
        tracker.learn(c.clone(), Time::from_secs(5.0));
        assert!(!tracker.knows(&c, Time::from_secs(4.9)));
        assert!(tracker.knows(&c, Time::from_secs(5.0)));
        assert!(tracker.knows(&c, Time::from_secs(9.0)));
        assert_eq!(tracker.learned_at(&c), Some(Time::from_secs(5.0)));
    }

    #[test]
    fn learn_keeps_earliest_time() {
        let ring = KeyRing::symbolic(3, 0);
        let mut tracker = KnowledgeTracker::new(BTreeSet::new());
        let c = claim(&ring, 0, b"m");
        tracker.learn(c.clone(), Time::from_secs(5.0));
        tracker.learn(c.clone(), Time::from_secs(7.0));
        assert_eq!(tracker.learned_at(&c), Some(Time::from_secs(5.0)));
        tracker.learn(c.clone(), Time::from_secs(3.0));
        assert_eq!(tracker.learned_at(&c), Some(Time::from_secs(3.0)));
    }

    #[test]
    fn authorize_rejects_unlearned() {
        let ring = KeyRing::symbolic(3, 0);
        let mut tracker = KnowledgeTracker::new([NodeId::new(2)].into_iter().collect());
        let honest = claim(&ring, 1, b"h");
        let own = claim(&ring, 2, b"o");
        let msg = Msg(vec![own.clone(), honest.clone()]);
        let err = tracker.authorize(&msg, Time::from_secs(1.0)).unwrap_err();
        assert_eq!(err.claim, honest);
        tracker.learn_all(&msg, Time::from_secs(0.5));
        assert!(tracker.authorize(&msg, Time::from_secs(1.0)).is_ok());
        assert_eq!(tracker.len(), 2);
        assert!(!tracker.is_empty());
    }

    #[test]
    fn empty_message_always_authorized() {
        let tracker = KnowledgeTracker::new(BTreeSet::new());
        assert!(tracker.authorize(&(), Time::ZERO).is_ok());
    }

    #[test]
    fn merge_keeps_earliest_time_and_commutes() {
        let ring = KeyRing::symbolic(3, 0);
        let shared = claim(&ring, 0, b"both");
        let only_a = claim(&ring, 1, b"a");
        let only_b = claim(&ring, 1, b"b");
        let mut a = KnowledgeTracker::new(BTreeSet::new());
        a.learn(shared.clone(), Time::from_secs(2.0));
        a.learn(only_a.clone(), Time::from_secs(1.0));
        let mut b = KnowledgeTracker::new(BTreeSet::new());
        b.learn(shared.clone(), Time::from_secs(3.0));
        b.learn(only_b.clone(), Time::from_secs(4.0));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for t in [&ab, &ba] {
            assert_eq!(t.len(), 3);
            assert_eq!(t.learned_at(&shared), Some(Time::from_secs(2.0)));
            assert_eq!(t.learned_at(&only_a), Some(Time::from_secs(1.0)));
            assert_eq!(t.learned_at(&only_b), Some(Time::from_secs(4.0)));
        }
    }

    #[test]
    #[should_panic(expected = "different executions")]
    fn merge_rejects_mismatched_corruption_sets() {
        let mut a = KnowledgeTracker::new(BTreeSet::new());
        let b = KnowledgeTracker::new([NodeId::new(1)].into_iter().collect());
        a.merge(&b);
    }
}
