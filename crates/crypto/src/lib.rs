//! Signature substrate for the `crusader` clock-synchronization library.
//!
//! The paper assumes a public-key infrastructure: every node `v` holds a
//! secret key and all nodes agree on everyone's public keys; signatures are
//! unforgeable. This crate provides that substrate twice over, behind one
//! interface:
//!
//! * [`SymbolicScheme`] — a Dolev–Yao-style *ideal* scheme for simulation.
//!   Signatures are unforgeable *structurally*: tags are keyed hashes whose
//!   keys live inside the scheme, and adversary code is only ever handed a
//!   [`Signer`] scoped to the corrupted nodes. Combined with the
//!   [`KnowledgeTracker`] (which implements the paper's execution
//!   well-formedness condition — a faulty node may only replay an honest
//!   signature it has already *received*), this is exactly the signature
//!   model under which the paper's results are stated.
//! * [`Ed25519Scheme`] — ed25519-typed signatures via the vendored
//!   `ed25519-dalek` stand-in (a keyed-hash MAC, not real Ed25519), used
//!   by the wall-clock runtime and available for apples-to-apples
//!   micro-benchmarks (experiment E10).
//!
//! # Example
//!
//! ```
//! use crusader_crypto::{KeyRing, NodeId};
//!
//! let ring = KeyRing::symbolic(4, 7);
//! let signer = ring.signer(NodeId::new(2));
//! let sig = signer.sign(b"pulse 3");
//! assert!(ring.verifier().verify(NodeId::new(2), b"pulse 3", &sig));
//! assert!(!ring.verifier().verify(NodeId::new(1), b"pulse 3", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ed25519;
mod fxhash;
mod identity;
mod knowledge;
mod ring;
mod symbolic;

pub use ed25519::Ed25519Scheme;
pub use fxhash::{FxBuildHasher, FxHasher};
pub use identity::NodeId;
pub use knowledge::{CarriesSignatures, KnowledgeError, KnowledgeTracker, SignedClaim};
pub use ring::{KeyRing, RestrictedSigner};
pub use symbolic::SymbolicScheme;

use std::fmt;
use std::sync::Arc;

/// A signature produced by one of the supported schemes.
///
/// Protocols treat signatures as opaque values; only [`Verifier::verify`]
/// gives them meaning.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Signature {
    /// A symbolic (ideal-model) signature: a 64-bit keyed tag.
    Symbolic(u64),
    /// An ed25519-typed signature (64 bytes, from the MAC stand-in).
    /// Shared, not owned: a signed message is cloned once per
    /// destination it is delivered to, and a
    /// clone bumps a count instead of allocating 64 bytes on one thread
    /// for another to free. Equality, hashing and `Debug` see the bytes.
    Ed25519(Arc<[u8; 64]>),
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signature::Symbolic(tag) => write!(f, "Sig(sym:{tag:016x})"),
            Signature::Ed25519(bytes) => {
                write!(f, "Sig(ed25519:{:02x}{:02x}..)", bytes[0], bytes[1])
            }
        }
    }
}

/// Signing capability for a single node.
///
/// Handing a component a `Signer` grants it exactly the ability to sign as
/// [`Signer::node`] — honest automatons receive their own, the adversary a
/// [`RestrictedSigner`] over the corrupted set.
pub trait Signer: Send + Sync {
    /// The identity this signer signs as.
    fn node(&self) -> NodeId;
    /// Signs `msg`.
    fn sign(&self, msg: &[u8]) -> Signature;
}

/// Signature verification against the established PKI.
pub trait Verifier: Send + Sync {
    /// Returns `true` iff `sig` is a valid signature by `signer` on `msg`.
    fn verify(&self, signer: NodeId, msg: &[u8], sig: &Signature) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_debug_is_nonempty() {
        let s = Signature::Symbolic(0xdead_beef);
        assert!(!format!("{s:?}").is_empty());
        let e = Signature::Ed25519(Arc::new([7u8; 64]));
        assert!(format!("{e:?}").contains("ed25519"));
    }

    #[test]
    fn an_ed25519_clone_shares_its_bytes_and_compares_by_them() {
        use std::hash::BuildHasher;

        let sig = Signature::Ed25519(Arc::new([7u8; 64]));
        let clone = sig.clone();
        let (Signature::Ed25519(a), Signature::Ed25519(b)) = (&sig, &clone) else {
            panic!("expected ed25519 signatures");
        };
        assert!(Arc::ptr_eq(a, b), "a clone allocated");
        // Equal bytes in storage of their own are the same signature.
        let apart = Signature::Ed25519(Arc::new([7u8; 64]));
        assert_eq!(sig, apart);
        let hash = |s: &Signature| FxBuildHasher::default().hash_one(s);
        assert_eq!(hash(&sig), hash(&apart));
        assert_ne!(sig, Signature::Ed25519(Arc::new([8u8; 64])));
    }
}
