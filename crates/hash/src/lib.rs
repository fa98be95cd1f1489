//! From-scratch hashing primitives for the honeyfarm reproduction.
//!
//! The honeypot records a content hash for every file an intruder creates or
//! modifies (the paper's "hashes", Section 8). Cowrie uses SHA-256 for this, so
//! we implement SHA-256 (FIPS 180-4) here from scratch rather than pulling in a
//! crypto dependency. The crate also provides hex encoding/decoding and a tiny
//! FNV-1a hasher used for cheap deterministic derivation of simulation seeds.
//!
//! # Example
//! ```
//! use hf_hash::Sha256;
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod fnv;
pub mod hex;
pub mod sha256;

pub use fnv::{fnv1a_64, Fnv64};
pub use hex::{decode_hex, encode_hex, HexError};
pub use sha256::{Digest, Sha256};
