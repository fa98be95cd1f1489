//! Intel SHA New Instructions (SHA-NI) backend, x86-64 only.
//!
//! Selected at runtime by the dispatcher in the parent module when
//! `is_x86_feature_detected!` reports the `sha` extension (plus `ssse3` /
//! `sse4.1` for the byte shuffles and blends the state permutation needs).
//!
//! Two entry points:
//!
//! - [`compress_blocks`] — single-stream: one `sha256rnds2` chain, state kept
//!   in two XMM registers (ABEF/CDGH lane order) across a whole run of blocks.
//! - [`digest_pair`] — two independent messages walked block-by-block in
//!   lockstep with their round instructions interleaved. `sha256rnds2` has a
//!   multi-cycle latency and a much shorter throughput slot, so a second
//!   independent dependency chain hides most of that latency; unequal message
//!   lengths are handled by synthesizing the final pad blocks on the fly
//!   (`padded_block_ptr`) and finishing the longer stream single-stream.
//!
//! The round structure follows the canonical SHA-NI flow (message quads
//! extended with `sha256msg1`/`sha256msg2`, four rounds per `rnds2` pair);
//! correctness is pinned by the NIST vectors and the differential suite
//! against [`super::reference`] in `crates/hash/tests/backends.rs`.

use core::arch::x86_64::*;

use super::{digest_from_state, padded_block_ptr, padded_blocks, Digest, H0, K};

/// Lane masks turning little-endian loaded message bytes into big-endian
/// 32-bit schedule words (`_mm_shuffle_epi8` control).
const BSWAP_LO: i64 = 0x0405_0607_0001_0203;
const BSWAP_HI: i64 = 0x0c0d_0e0f_0809_0a0b;

/// Runtime capability check for this backend.
pub(super) fn available() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Compress a run of whole 64-byte blocks into `state`.
///
/// Panics in debug builds if `data` is not block-aligned. Safe to call only
/// because a hasher reaches this core after `available()` returned true.
pub(super) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0, "whole blocks only");
    // SAFETY: this core is reached only after `available()` returned true,
    // either in `Sha256::new()`'s CPUID pick or in `backends::shani*`.
    unsafe { compress_blocks_ni(state, data) }
}

/// Hash two independent messages with interleaved compression rounds.
pub(super) fn digest_pair(a: &[u8], b: &[u8]) -> (Digest, Digest) {
    // SAFETY: this core is reached only after `available()` returned true,
    // either in `Sha256::new()`'s CPUID pick or in `backends::shani*`.
    unsafe { digest_pair_ni(a, b) }
}

/// Four rounds fed by an already-extended schedule quad in `$feed`.
macro_rules! quad {
    ($s0:ident, $s1:ident, $feed:expr, $ki:expr) => {{
        let k = _mm_loadu_si128(K.as_ptr().add($ki) as *const __m128i);
        let mut msg = _mm_add_epi32($feed, k);
        $s1 = _mm_sha256rnds2_epu32($s1, $s0, msg);
        msg = _mm_shuffle_epi32::<0x0E>(msg);
        $s0 = _mm_sha256rnds2_epu32($s0, $s1, msg);
    }};
}

/// Load + byte-swap message quad `$off` into `$m`, then run its four rounds.
macro_rules! quad_load {
    ($s0:ident, $s1:ident, $m:ident, $p:ident, $off:expr, $mask:ident, $ki:expr) => {{
        $m = _mm_shuffle_epi8(_mm_loadu_si128($p.add($off) as *const __m128i), $mask);
        quad!($s0, $s1, $m, $ki);
    }};
}

/// Four rounds from `$feed` plus schedule extension:
/// `$next = sha256msg2($next + alignr($feed, $prev, 4), $feed)` and (except
/// for the tail groups, which no later quad consumes)
/// `$prev = sha256msg1($prev, $feed)`.
macro_rules! quad_sched {
    ($s0:ident, $s1:ident, $feed:ident, $prev:ident, $next:ident, $ki:expr) => {{
        quad_sched!($s0, $s1, $feed, $prev, $next, $ki, tail);
        $prev = _mm_sha256msg1_epu32($prev, $feed);
    }};
    ($s0:ident, $s1:ident, $feed:ident, $prev:ident, $next:ident, $ki:expr, tail) => {{
        let k = _mm_loadu_si128(K.as_ptr().add($ki) as *const __m128i);
        let mut msg = _mm_add_epi32($feed, k);
        $s1 = _mm_sha256rnds2_epu32($s1, $s0, msg);
        let tmp = _mm_alignr_epi8::<4>($feed, $prev);
        $next = _mm_add_epi32($next, tmp);
        $next = _mm_sha256msg2_epu32($next, $feed);
        msg = _mm_shuffle_epi32::<0x0E>(msg);
        $s0 = _mm_sha256rnds2_epu32($s0, $s1, msg);
    }};
}

/// Load `[a, b, c, d, e, f, g, h]` words into the (ABEF, CDGH) register pair
/// the SHA instructions operate on.
#[inline(always)]
// SAFETY: callers are the `target_feature` fns below (so the CPU has `ssse3`
// and `sse4.1`); both unaligned 16-byte loads stay inside `state`.
unsafe fn load_state(state: &[u32; 8]) -> (__m128i, __m128i) {
    let mut tmp = _mm_loadu_si128(state.as_ptr() as *const __m128i);
    let mut efgh = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
    tmp = _mm_shuffle_epi32::<0xB1>(tmp); // CDAB
    efgh = _mm_shuffle_epi32::<0x1B>(efgh); // HGFE
    let abef = _mm_alignr_epi8::<8>(tmp, efgh);
    let cdgh = _mm_blend_epi16::<0xF0>(efgh, tmp);
    (abef, cdgh)
}

/// Inverse of [`load_state`].
#[inline(always)]
// SAFETY: as for `load_state`, with stores.
unsafe fn store_state(state: &mut [u32; 8], abef: __m128i, cdgh: __m128i) {
    let tmp = _mm_shuffle_epi32::<0x1B>(abef); // FEBA
    let rev = _mm_shuffle_epi32::<0xB1>(cdgh); // DCHG
    let abcd = _mm_blend_epi16::<0xF0>(tmp, rev);
    let efgh = _mm_alignr_epi8::<8>(rev, tmp);
    _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
    _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, efgh);
}

/// One 64-byte block, single stream. `p` must point at 64 readable bytes.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
// SAFETY: callers have checked `available()` and pass a `p` valid for 64
// bytes of reads (a whole message block, or `padded_block_ptr`'s scratch).
unsafe fn block1(s0: &mut __m128i, s1: &mut __m128i, p: *const u8, mask: __m128i) {
    let mut a0 = *s0;
    let mut a1 = *s1;
    let save0 = a0;
    let save1 = a1;
    let (mut m0, mut m1, mut m2, mut m3);
    quad_load!(a0, a1, m0, p, 0, mask, 0);
    quad_load!(a0, a1, m1, p, 16, mask, 4);
    m0 = _mm_sha256msg1_epu32(m0, m1);
    quad_load!(a0, a1, m2, p, 32, mask, 8);
    m1 = _mm_sha256msg1_epu32(m1, m2);
    m3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48) as *const __m128i), mask);
    quad_sched!(a0, a1, m3, m2, m0, 12);
    quad_sched!(a0, a1, m0, m3, m1, 16);
    quad_sched!(a0, a1, m1, m0, m2, 20);
    quad_sched!(a0, a1, m2, m1, m3, 24);
    quad_sched!(a0, a1, m3, m2, m0, 28);
    quad_sched!(a0, a1, m0, m3, m1, 32);
    quad_sched!(a0, a1, m1, m0, m2, 36);
    quad_sched!(a0, a1, m2, m1, m3, 40);
    quad_sched!(a0, a1, m3, m2, m0, 44);
    quad_sched!(a0, a1, m0, m3, m1, 48);
    quad_sched!(a0, a1, m1, m0, m2, 52, tail);
    quad_sched!(a0, a1, m2, m1, m3, 56, tail);
    quad!(a0, a1, m3, 60);
    *s0 = _mm_add_epi32(a0, save0);
    *s1 = _mm_add_epi32(a1, save1);
}

/// One 64-byte block for each of two independent streams, with the round
/// instructions of the two dependency chains interleaved quad-by-quad.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
#[allow(clippy::too_many_arguments)]
// SAFETY: as for `block1`; `pa` and `pb` are each valid for 64 bytes.
unsafe fn block2(
    s0a: &mut __m128i,
    s1a: &mut __m128i,
    s0b: &mut __m128i,
    s1b: &mut __m128i,
    pa: *const u8,
    pb: *const u8,
    mask: __m128i,
) {
    let mut a0 = *s0a;
    let mut a1 = *s1a;
    let mut b0 = *s0b;
    let mut b1 = *s1b;
    let save0a = a0;
    let save1a = a1;
    let save0b = b0;
    let save1b = b1;
    let (mut m0a, mut m1a, mut m2a, mut m3a);
    let (mut m0b, mut m1b, mut m2b, mut m3b);
    quad_load!(a0, a1, m0a, pa, 0, mask, 0);
    quad_load!(b0, b1, m0b, pb, 0, mask, 0);
    quad_load!(a0, a1, m1a, pa, 16, mask, 4);
    quad_load!(b0, b1, m1b, pb, 16, mask, 4);
    m0a = _mm_sha256msg1_epu32(m0a, m1a);
    m0b = _mm_sha256msg1_epu32(m0b, m1b);
    quad_load!(a0, a1, m2a, pa, 32, mask, 8);
    quad_load!(b0, b1, m2b, pb, 32, mask, 8);
    m1a = _mm_sha256msg1_epu32(m1a, m2a);
    m1b = _mm_sha256msg1_epu32(m1b, m2b);
    m3a = _mm_shuffle_epi8(_mm_loadu_si128(pa.add(48) as *const __m128i), mask);
    m3b = _mm_shuffle_epi8(_mm_loadu_si128(pb.add(48) as *const __m128i), mask);
    quad_sched!(a0, a1, m3a, m2a, m0a, 12);
    quad_sched!(b0, b1, m3b, m2b, m0b, 12);
    quad_sched!(a0, a1, m0a, m3a, m1a, 16);
    quad_sched!(b0, b1, m0b, m3b, m1b, 16);
    quad_sched!(a0, a1, m1a, m0a, m2a, 20);
    quad_sched!(b0, b1, m1b, m0b, m2b, 20);
    quad_sched!(a0, a1, m2a, m1a, m3a, 24);
    quad_sched!(b0, b1, m2b, m1b, m3b, 24);
    quad_sched!(a0, a1, m3a, m2a, m0a, 28);
    quad_sched!(b0, b1, m3b, m2b, m0b, 28);
    quad_sched!(a0, a1, m0a, m3a, m1a, 32);
    quad_sched!(b0, b1, m0b, m3b, m1b, 32);
    quad_sched!(a0, a1, m1a, m0a, m2a, 36);
    quad_sched!(b0, b1, m1b, m0b, m2b, 36);
    quad_sched!(a0, a1, m2a, m1a, m3a, 40);
    quad_sched!(b0, b1, m2b, m1b, m3b, 40);
    quad_sched!(a0, a1, m3a, m2a, m0a, 44);
    quad_sched!(b0, b1, m3b, m2b, m0b, 44);
    quad_sched!(a0, a1, m0a, m3a, m1a, 48);
    quad_sched!(b0, b1, m0b, m3b, m1b, 48);
    quad_sched!(a0, a1, m1a, m0a, m2a, 52, tail);
    quad_sched!(b0, b1, m1b, m0b, m2b, 52, tail);
    quad_sched!(a0, a1, m2a, m1a, m3a, 56, tail);
    quad_sched!(b0, b1, m2b, m1b, m3b, 56, tail);
    quad!(a0, a1, m3a, 60);
    quad!(b0, b1, m3b, 60);
    *s0a = _mm_add_epi32(a0, save0a);
    *s1a = _mm_add_epi32(a1, save1a);
    *s0b = _mm_add_epi32(b0, save0b);
    *s1b = _mm_add_epi32(b1, save1b);
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
// SAFETY: the caller has checked `available()`; `chunks_exact(64)` hands
// `block1` only whole blocks.
unsafe fn compress_blocks_ni(state: &mut [u32; 8], data: &[u8]) {
    let mask = _mm_set_epi64x(BSWAP_HI, BSWAP_LO);
    let (mut s0, mut s1) = load_state(state);
    for block in data.chunks_exact(64) {
        block1(&mut s0, &mut s1, block.as_ptr(), mask);
    }
    store_state(state, s0, s1);
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
// SAFETY: the caller has checked `available()`; `padded_block_ptr` points
// into the message or at the 64-byte `ta`/`tb` scratch.
unsafe fn digest_pair_ni(a: &[u8], b: &[u8]) -> (Digest, Digest) {
    let mask = _mm_set_epi64x(BSWAP_HI, BSWAP_LO);
    let (mut s0a, mut s1a) = load_state(&H0);
    let (mut s0b, mut s1b) = load_state(&H0);
    let na = padded_blocks(a.len() as u64);
    let nb = padded_blocks(b.len() as u64);
    let common = na.min(nb);
    let mut ta = [0u8; 64];
    let mut tb = [0u8; 64];
    for i in 0..common {
        let pa = padded_block_ptr(a, i, na, &mut ta);
        let pb = padded_block_ptr(b, i, nb, &mut tb);
        block2(&mut s0a, &mut s1a, &mut s0b, &mut s1b, pa, pb, mask);
    }
    // The longer message finishes single-stream.
    for i in common..na {
        let pa = padded_block_ptr(a, i, na, &mut ta);
        block1(&mut s0a, &mut s1a, pa, mask);
    }
    for i in common..nb {
        let pb = padded_block_ptr(b, i, nb, &mut tb);
        block1(&mut s0b, &mut s1b, pb, mask);
    }
    let mut wa = [0u32; 8];
    let mut wb = [0u32; 8];
    store_state(&mut wa, s0a, s1a);
    store_state(&mut wb, s0b, s1b);
    (digest_from_state(&wa), digest_from_state(&wb))
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::*;

    #[test]
    fn shani_matches_reference_across_lengths() {
        if !available() {
            eprintln!("sha-ni unavailable; skipping");
            return;
        }
        for len in [
            0usize, 1, 3, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 1000,
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let want = reference::Sha256::digest(&data);
            let got = super::super::backends::shani_digest(&data).expect("available");
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn digest_pair_matches_reference_for_unequal_lengths() {
        if !available() {
            eprintln!("sha-ni unavailable; skipping");
            return;
        }
        let lens = [0usize, 1, 55, 56, 63, 64, 65, 119, 128, 300, 601];
        for &la in &lens {
            for &lb in &lens {
                let a: Vec<u8> = (0..la).map(|i| (i * 17 + 3) as u8).collect();
                let b: Vec<u8> = (0..lb).map(|i| (i * 29 + 11) as u8).collect();
                let (da, db) = digest_pair(&a, &b);
                assert_eq!(da, reference::Sha256::digest(&a), "la={la} lb={lb}");
                assert_eq!(db, reference::Sha256::digest(&b), "la={la} lb={lb}");
            }
        }
    }
}
