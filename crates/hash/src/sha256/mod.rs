//! SHA-256 per FIPS 180-4, implemented from scratch, with runtime-dispatched
//! backends.
//!
//! Supports both one-shot ([`Sha256::digest`]) and incremental
//! ([`Sha256::update`] / [`Sha256::finalize`]) hashing. The incremental path is
//! what the honeypot's artifact store uses while streaming simulated download
//! bodies; the one-shot path is used for short shell-generated files and for
//! every snapshot section and chunk checksum.
//!
//! # Backends
//!
//! Three implementations of the compression function coexist (DESIGN.md §14):
//!
//! - [`reference`] — the original straight-line scalar code, kept verbatim as
//!   the differential-testing oracle. Never dispatched to at runtime.
//! - [`scalar`] — a schedule-unrolled scalar core (rotationless round
//!   formulation, 16-word circular message schedule). The portable fallback.
//! - `shani` (x86-64 only) — the Intel SHA New Instructions path, selected at
//!   runtime via `is_x86_feature_detected!`.
//!
//! The CPU picks the backend: CPUID is read once per process (first hash)
//! and cached, and each [`Sha256`] keeps the core it was built with, so
//! `update` and `finalize` never consult the dispatcher. Nothing else
//! selects a core; [`backends`] builds the same hasher on an explicit core
//! so every core this CPU offers stays testable.
//!
//! # Throughput accounting
//!
//! Every finalized digest records `hash.bytes` (message bytes) and
//! `hash.blocks` (64-byte compression blocks, including padding) to hf-obs,
//! so run manifests can derive hash throughput (`hfarm metrics` prints it).

pub mod reference;
pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod shani;

use std::sync::OnceLock;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots of
/// the first 64 primes.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A finished 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lowercase hex rendering of the digest (64 chars).
    pub fn to_hex(&self) -> String {
        crate::hex::encode_hex(&self.0)
    }

    /// Parse a 64-char hex string into a digest.
    pub fn from_hex(s: &str) -> Result<Self, crate::hex::HexError> {
        let bytes = crate::hex::decode_hex(s)?;
        let arr: [u8; 32] = bytes
            .try_into()
            .map_err(|_| crate::hex::HexError::BadLength)?;
        Ok(Digest(arr))
    }

    /// A short 12-hex-char prefix, convenient for log lines and tables.
    pub fn short(&self) -> String {
        self.to_hex()[..12].to_string()
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Render the big-endian word state as a digest.
pub(crate) fn digest_from_state(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state.iter()) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Number of 64-byte compression blocks a `len`-byte message occupies once
/// padded (0x80 + zeros + 8-byte length).
pub(crate) fn padded_blocks(len: u64) -> u64 {
    len / 64 + if len % 64 >= 56 { 2 } else { 1 }
}

/// A selected compression backend: its name and multi-block compress entry
/// point.
struct Backend {
    name: &'static str,
    /// Compress `data` (length a multiple of 64) into `state`.
    compress: fn(&mut [u32; 8], &[u8]),
}

static SCALAR_BACKEND: Backend = Backend {
    name: "scalar-unrolled",
    compress: scalar::compress_blocks,
};

#[cfg(target_arch = "x86_64")]
static SHANI_BACKEND: Backend = Backend {
    name: "sha-ni",
    compress: shani::compress_blocks,
};

/// The core this CPU runs fastest, by CPUID; read once per process.
fn detected() -> &'static Backend {
    static CHOICE: OnceLock<&'static Backend> = OnceLock::new();
    CHOICE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            return &SHANI_BACKEND;
        }
        &SCALAR_BACKEND
    })
}

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    /// The compression core every block of this message goes through.
    backend: &'static Backend,
    state: [u32; 8],
    /// Bytes buffered, always < 64 after `update` returns.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher state on the core CPUID picked.
    pub fn new() -> Self {
        Sha256::on(detected())
    }

    /// Fresh hasher state on an explicit core.
    fn on(backend: &'static Backend) -> Self {
        Sha256 {
            backend,
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Name of the compression backend this process dispatches to
    /// (`"sha-ni"` or `"scalar-unrolled"`).
    pub fn backend_name() -> &'static str {
        detected().name
    }

    /// One-shot convenience: hash `data` in a single call.
    pub fn digest(data: &[u8]) -> Digest {
        Sha256::new().finalize_with(data)
    }

    /// Absorb `data` and finalize.
    fn finalize_with(mut self, data: &[u8]) -> Digest {
        self.update(data);
        self.finalize()
    }

    /// Hash a batch of independent messages, one digest per message.
    ///
    /// `bodies.map(Sha256::digest)`, appended to `out` in input order.
    pub fn digest_many<'a>(bodies: impl IntoIterator<Item = &'a [u8]>, out: &mut Vec<Digest>) {
        out.extend(bodies.into_iter().map(Sha256::digest));
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        let compress = self.backend.compress;
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Top up a partially filled block first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input, one backend call for the run.
        let whole = data.len() / 64 * 64;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Apply padding and produce the digest, consuming the state.
    pub fn finalize(mut self) -> Digest {
        let compress = self.backend.compress;
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length — one
        // or two final blocks depending on how much room the tail leaves.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let tail_blocks = if self.buf_len >= 56 { 2 } else { 1 };
        tail[tail_blocks * 64 - 8..tail_blocks * 64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..tail_blocks * 64]);
        hf_obs::counter!("hash.bytes", self.total_len);
        hf_obs::counter!("hash.blocks", padded_blocks(self.total_len));
        digest_from_state(&self.state)
    }
}

impl std::io::Write for Sha256 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Direct per-backend entry points for differential testing and benches.
///
/// Production code should use [`Sha256`], which picks its core by CPUID;
/// these build the same hasher on an explicit core, so every core this CPU
/// offers runs the one `update`/`finalize` driver under test.
pub mod backends {
    use super::{Digest, Sha256};

    /// A fresh hasher on the schedule-unrolled scalar core.
    pub fn scalar() -> Sha256 {
        Sha256::on(&super::SCALAR_BACKEND)
    }

    /// A fresh hasher on the SHA-NI core, or `None` when the CPU does not
    /// expose the SHA extensions.
    pub fn shani() -> Option<Sha256> {
        #[cfg(target_arch = "x86_64")]
        if super::shani::available() {
            return Some(Sha256::on(&super::SHANI_BACKEND));
        }
        None
    }

    /// Digest through the scalar core, ignoring dispatch.
    pub fn scalar_digest(data: &[u8]) -> Digest {
        scalar().finalize_with(data)
    }

    /// Digest through the SHA-NI core, or `None` when the CPU does not expose
    /// the SHA extensions.
    pub fn shani_digest(data: &[u8]) -> Option<Digest> {
        shani().map(|h| h.finalize_with(data))
    }

    /// Name of the backend the process would dispatch to.
    pub fn active() -> &'static str {
        super::Sha256::backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST / well-known test vectors.
    pub(super) const VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
    ];

    #[test]
    fn known_vectors_one_shot() {
        for (msg, want) in VECTORS {
            assert_eq!(Sha256::digest(msg).to_hex(), *want, "msg={msg:?}");
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let want = Sha256::digest(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split={split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise messages at and around the padding boundaries (55/56/63/64).
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xa5u8; len];
            let one = Sha256::digest(&data);
            let mut inc = Sha256::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(inc.finalize(), one, "len={len}");
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = Sha256::digest(b"roundtrip");
        let parsed = Digest::from_hex(&d.to_hex()).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(d.short().len(), 12);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Sanity: tiny perturbations change the digest.
        let a = Sha256::digest(b"campaign-1");
        let b = Sha256::digest(b"campaign-2");
        assert_ne!(a, b);
    }

    #[test]
    fn write_trait_feeds_hasher() {
        use std::io::Write;
        let mut h = Sha256::new();
        h.write_all(b"The quick brown fox jumps over the lazy dog")
            .unwrap();
        assert_eq!(
            h.finalize().to_hex(),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn digest_many_matches_per_message_digests() {
        let bodies: Vec<Vec<u8>> = (0..9usize)
            .map(|i| (0..i * 37 + 1).map(|j| (i * 131 + j) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = bodies.iter().map(|b| b.as_slice()).collect();
        let mut batched = Vec::new();
        Sha256::digest_many(refs.iter().copied(), &mut batched);
        let singles: Vec<Digest> = refs.iter().map(|b| Sha256::digest(b)).collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn padded_blocks_boundaries() {
        for (len, want) in [
            (0u64, 1u64),
            (1, 1),
            (55, 1),
            (56, 2),
            (63, 2),
            (64, 2),
            (119, 2),
            (120, 3),
            (128, 3),
        ] {
            assert_eq!(padded_blocks(len), want, "len={len}");
        }
    }
}
