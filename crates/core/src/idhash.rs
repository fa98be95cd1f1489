//! Deterministic multiply-mix hashing for interned `u32` ids.
//!
//! The aggregation fold keys almost every map and set by a small dense id —
//! an interned pool index or an IPv4 address packed into a `u32`. The
//! default `SipHash` hasher is engineered to resist collision attacks from
//! adversarial keys, a property these ids cannot exploit: they come out of
//! our own interning pools and the simulator's address plan, not from
//! untrusted input. Paying ~20 ns of SipHash per map operation, once per
//! row for the client and again per credential, command and hash id,
//! dominates the whole streaming fold at paper scale.
//!
//! [`IdHasher`] replaces it with one 64-bit multiply and an xor-shift:
//!
//! * the odd-constant multiply is bijective on `u64`, so distinct ids can
//!   only collide through table masking, and the Weyl/golden-ratio constant
//!   spreads the *sequential* ids interning produces across the high bits;
//! * the final `h ^ (h >> 32)` folds those high bits back into the low
//!   bits hashbrown masks for the bucket index (the top 7 bits feed its
//!   control-byte tags either way).
//!
//! The hash is a pure function of the key — no per-map random seed — so
//! rebuilding the same map yields the same layout. Nothing downstream may
//! rely on that: every consumer of the aggregate maps already tolerates
//! `RandomState`'s per-run ordering (outputs sort or reduce commutatively),
//! which is exactly what makes this swap output-invariant.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// 2^64 / φ, forced odd — the classic Fibonacci-hashing multiplier.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One-shot multiply-mix hasher for `u32` (and other small integer) keys.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        // Rotate before combining so multi-word keys (tuples, byte slices)
        // don't cancel; for the single-u32 common case this is one rotate,
        // one xor, one multiply.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(GOLDEN);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the well-mixed high bits into the low bits the hash table
        // masks for its bucket index.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Zero-sized, seedless builder: every map built with it hashes alike.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct BuildIdHasher;

impl BuildHasher for BuildIdHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher::default()
    }
}

/// `HashMap` keyed by an interned `u32` id.
pub type IdMap<V> = HashMap<u32, V, BuildIdHasher>;

/// `HashSet` of interned `u32` ids.
pub type IdSet = HashSet<u32, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_one(n: u32) -> u64 {
        let mut h = BuildIdHasher.build_hasher();
        h.write_u32(n);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        for n in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert_eq!(hash_one(n), hash_one(n));
        }
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // Interned ids are sequential; the low 16 bits (bucket index at
        // realistic table sizes) must not collapse onto a few buckets.
        let mut buckets = HashSet::new();
        for n in 0u32..4096 {
            buckets.insert(hash_one(n) & 0xFFFF);
        }
        assert!(
            buckets.len() > 3500,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: IdMap<u64> = IdMap::default();
        let mut s: IdSet = IdSet::default();
        for n in 0u32..1000 {
            *m.entry(n % 97).or_default() += 1;
            s.insert(n % 53);
        }
        assert_eq!(m.len(), 97);
        assert_eq!(m[&0], 11);
        assert_eq!(s.len(), 53);
    }

    #[test]
    fn multi_word_writes_do_not_cancel() {
        let mut a = IdHasher::default();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = IdHasher::default();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }
}
