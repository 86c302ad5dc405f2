//! Wire messages of the crusader pulse-synchronization protocol.

use std::cell::RefCell;
use std::collections::HashMap;

use bytes::Bytes;
use crusader_crypto::{CarriesSignatures, FxBuildHasher, NodeId, Signature, SignedClaim};

/// Domain-separation tag for pulse signatures (prevents cross-protocol
/// signature reuse).
pub const PULSE_DOMAIN: &[u8] = b"crusader/cps/pulse/v1";

/// The exact bytes a dealer signs for round `round`: the paper's `⟨r⟩_u`.
///
/// Encoding the round number means faulty nodes cannot replay "old"
/// signatures to disrupt a later instance (Figure 2's caption).
///
/// This always builds a fresh buffer; the verification/learning hot path
/// goes through [`pulse_sign_bytes_cached`] instead.
#[must_use]
pub fn pulse_sign_bytes(round: u64, dealer: NodeId) -> Bytes {
    Bytes::from(pulse_sign_bytes_array(round, dealer).to_vec())
}

/// Length of `⟨r⟩_u` sign bytes: the domain tag plus `round` (8 bytes)
/// plus the dealer index (2 bytes).
pub const PULSE_SIGN_BYTES_LEN: usize = PULSE_DOMAIN.len() + 10;

/// [`pulse_sign_bytes`] built on the stack — for one-shot consumers
/// (signature verification checks the bytes and forgets them), where the
/// thread-local memo's map probe and `Bytes` refcount traffic would cost
/// more than rebuilding 31 bytes in place.
#[must_use]
pub fn pulse_sign_bytes_array(round: u64, dealer: NodeId) -> [u8; PULSE_SIGN_BYTES_LEN] {
    let mut buf = [0u8; PULSE_SIGN_BYTES_LEN];
    let d = PULSE_DOMAIN.len();
    buf[..d].copy_from_slice(PULSE_DOMAIN);
    buf[d..d + 8].copy_from_slice(&round.to_le_bytes());
    #[allow(clippy::cast_possible_truncation)]
    buf[d + 8..].copy_from_slice(&(dealer.index() as u16).to_le_bytes());
    buf
}

thread_local! {
    static SIGN_BYTES_CACHE: RefCell<SignBytesCache> = RefCell::new(SignBytesCache {
        map: HashMap::default(),
        max_round: 0,
    });
}

/// Per-thread memo of `(round, dealer) → ⟨r⟩_u`.
///
/// Every delivered `Carry` needs these bytes (verification, knowledge
/// learning), and within one round all `n` nodes need the *same* `n`
/// values — without the memo that is an allocation per delivered message.
/// Entries older than the previous round are evicted whenever a new
/// maximum round appears, so the footprint is ~2 rounds × n dealers; a
/// hard cap guards pathological mixes of concurrent simulations.
struct SignBytesCache {
    map: HashMap<(u64, u16), Bytes, FxBuildHasher>,
    max_round: u64,
}

/// Cap before the cache is wholesale cleared (never approached by one
/// simulation: two rounds of even a 1000-node system stay below it).
const SIGN_BYTES_CACHE_CAP: usize = 8192;

/// [`pulse_sign_bytes`], memoized per `(round, dealer)`.
///
/// Returns a cheaply-cloned handle to the cached buffer ([`Bytes`] is
/// reference-counted). The values are pure functions of the arguments, so
/// caching is observation-free apart from speed.
#[must_use]
pub fn pulse_sign_bytes_cached(round: u64, dealer: NodeId) -> Bytes {
    let dealer_raw = dealer.index() as u16;
    SIGN_BYTES_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if round > cache.max_round {
            let keep_from = round.saturating_sub(1);
            cache.map.retain(|&(r, _), _| r >= keep_from);
            cache.max_round = round;
        }
        if cache.map.len() >= SIGN_BYTES_CACHE_CAP {
            cache.map.clear();
        }
        cache
            .map
            .entry((round, dealer_raw))
            .or_insert_with(|| pulse_sign_bytes(round, dealer))
            .clone()
    })
}

/// The single message type of CPS/TCB: a carried pulse signature `⟨r⟩_u`.
///
/// Whether a `Carry` acts as the dealer's broadcast or as an echo is
/// determined by the *channel*: a `Carry` received from `dealer` itself is
/// the direct message; from anyone else it is an echo. This mirrors
/// Figure 2, where both steps transmit the same signature `⟨r⟩_u`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Carry {
    /// Round (pulse) number `r ≥ 1`.
    pub round: u64,
    /// The dealer `u` whose signature is carried.
    pub dealer: NodeId,
    /// The dealer's signature on [`pulse_sign_bytes`]`(round, dealer)`.
    pub signature: Signature,
}

impl Carry {
    /// Verifies the carried signature against the PKI.
    #[must_use]
    pub fn verify(&self, verifier: &dyn crusader_crypto::Verifier) -> bool {
        verifier.verify(
            self.dealer,
            &pulse_sign_bytes_array(self.round, self.dealer),
            &self.signature,
        )
    }
}

impl CarriesSignatures for Carry {
    fn for_each_claim(&self, f: &mut dyn FnMut(SignedClaim)) {
        f(SignedClaim::new(
            self.dealer,
            pulse_sign_bytes_cached(self.round, self.dealer),
            self.signature.clone(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusader_crypto::KeyRing;

    #[test]
    fn sign_bytes_are_unique_per_round_and_dealer() {
        let a = pulse_sign_bytes(1, NodeId::new(0));
        let b = pulse_sign_bytes(2, NodeId::new(0));
        let c = pulse_sign_bytes(1, NodeId::new(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn carry_verifies_honest_signature() {
        let ring = KeyRing::symbolic(3, 1);
        let dealer = NodeId::new(1);
        let carry = Carry {
            round: 7,
            dealer,
            signature: ring.signer(dealer).sign(&pulse_sign_bytes(7, dealer)),
        };
        assert!(carry.verify(&*ring.verifier()));
    }

    #[test]
    fn carry_rejects_wrong_round_signature() {
        let ring = KeyRing::symbolic(3, 1);
        let dealer = NodeId::new(1);
        let carry = Carry {
            round: 8, // signature was for round 7
            dealer,
            signature: ring.signer(dealer).sign(&pulse_sign_bytes(7, dealer)),
        };
        assert!(!carry.verify(&*ring.verifier()));
    }

    #[test]
    fn claims_expose_the_dealer_signature() {
        let ring = KeyRing::symbolic(3, 1);
        let dealer = NodeId::new(2);
        let carry = Carry {
            round: 3,
            dealer,
            signature: ring.signer(dealer).sign(&pulse_sign_bytes(3, dealer)),
        };
        let claims = carry.claims();
        assert_eq!(claims.len(), 1);
        assert_eq!(claims[0].signer, dealer);
        assert_eq!(claims[0].message, pulse_sign_bytes(3, dealer));
    }
}
