use std::sync::Arc;

use ed25519_dalek::{Signer as _, SigningKey, VerifyingKey};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{NodeId, Signature};

/// An ed25519-shaped PKI: one signing key per node, all verifying keys
/// known to everyone (the paper's PKI assumption). It uses
/// `ed25519-dalek`'s type surface over the vendored keyed-hash MAC, which
/// is not real Ed25519 and not secure (`vendor/README.md`; making it real
/// is ROADMAP item 13).
///
/// Used by the wall-clock runtime and the crypto micro-benchmarks; the
/// simulator normally uses [`SymbolicScheme`](crate::SymbolicScheme), whose
/// behaviour under verification is identical (valid iff honestly produced
/// on exactly these bytes by exactly this node).
#[derive(Clone, Debug)]
pub struct Ed25519Scheme {
    signing: Vec<SigningKey>,
    verifying: Vec<VerifyingKey>,
}

impl Ed25519Scheme {
    /// Generates a PKI for `n` nodes from a deterministic seed.
    ///
    /// Deterministic generation keeps simulations and tests reproducible;
    /// for production deployments, load keys from an external source
    /// instead.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xed25_519e_d255_19ed);
        let signing: Vec<SigningKey> = (0..n)
            .map(|_| {
                let mut secret = [0u8; 32];
                rng.fill(&mut secret);
                SigningKey::from_bytes(&secret)
            })
            .collect();
        let verifying = signing.iter().map(SigningKey::verifying_key).collect();
        Ed25519Scheme { signing, verifying }
    }

    /// Number of nodes in the PKI.
    #[must_use]
    pub fn n(&self) -> usize {
        self.signing.len()
    }

    /// Signs `msg` as `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the PKI.
    #[must_use]
    pub fn sign(&self, node: NodeId, msg: &[u8]) -> Signature {
        let sig = self.signing[node.index()].sign(msg);
        Signature::Ed25519(Arc::new(sig.to_bytes()))
    }

    /// Verifies a signature.
    ///
    /// # Panics
    ///
    /// Panics if `signer` is outside the PKI.
    #[must_use]
    pub fn verify(&self, signer: NodeId, msg: &[u8], sig: &Signature) -> bool {
        match sig {
            Signature::Ed25519(bytes) => {
                let sig = ed25519_dalek::Signature::from_bytes(bytes);
                self.verifying[signer.index()]
                    .verify_strict(msg, &sig)
                    .is_ok()
            }
            Signature::Symbolic(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let s = Ed25519Scheme::new(3, 1);
        let sig = s.sign(NodeId::new(2), b"pulse 7");
        assert!(s.verify(NodeId::new(2), b"pulse 7", &sig));
    }

    #[test]
    fn wrong_signer_rejected() {
        let s = Ed25519Scheme::new(3, 1);
        let sig = s.sign(NodeId::new(2), b"pulse 7");
        assert!(!s.verify(NodeId::new(0), b"pulse 7", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let s = Ed25519Scheme::new(3, 1);
        let sig = s.sign(NodeId::new(2), b"pulse 7");
        assert!(!s.verify(NodeId::new(2), b"pulse 8", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let s = Ed25519Scheme::new(3, 1);
        let sig = s.sign(NodeId::new(2), b"pulse 7");
        let Signature::Ed25519(bytes) = sig else {
            panic!("expected ed25519 signature");
        };
        let mut bytes = *bytes;
        bytes[5] ^= 0xff;
        let tampered = Signature::Ed25519(Arc::new(bytes));
        assert!(!s.verify(NodeId::new(2), b"pulse 7", &tampered));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Ed25519Scheme::new(2, 9);
        let b = Ed25519Scheme::new(2, 9);
        assert_eq!(a.sign(NodeId::new(0), b"m"), b.sign(NodeId::new(0), b"m"));
    }

    #[test]
    fn symbolic_signature_never_verifies() {
        let s = Ed25519Scheme::new(2, 9);
        assert!(!s.verify(NodeId::new(0), b"m", &Signature::Symbolic(42)));
    }
}
