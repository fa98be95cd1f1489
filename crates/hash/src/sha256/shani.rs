//! Intel SHA New Instructions (SHA-NI) backend, x86-64 only.
//!
//! Selected at runtime by the dispatcher in the parent module when
//! `is_x86_feature_detected!` reports the `sha` extension (plus `ssse3` /
//! `sse4.1` for the byte shuffles and blends the state permutation needs).
//!
//! One entry point, [`compress_blocks`]: a single `sha256rnds2` chain, state
//! kept in two XMM registers (ABEF/CDGH lane order) across a whole run of
//! blocks.
//!
//! The round structure follows the canonical SHA-NI flow (message quads
//! extended with `sha256msg1`/`sha256msg2`, four rounds per `rnds2` pair);
//! correctness is pinned by the NIST vectors and the differential suite
//! against [`super::reference`] in `crates/hash/tests/backends.rs`.

use core::arch::x86_64::*;

use super::K;

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

/// Message bytes `$off..$off + 16` of `$block` as four big-endian words; the
/// slice index keeps the unaligned load inside the block.
macro_rules! load_quad {
    ($block:ident, $off:expr, $mask:ident) => {
        _mm_shuffle_epi8(
            _mm_loadu_si128($block[$off..$off + 16].as_ptr() as *const __m128i),
            $mask,
        )
    };
}

/// Load + byte-swap message quad `$off` into `$m`, then run its four rounds.
macro_rules! quad_load {
    ($s0:ident, $s1:ident, $m:ident, $block:ident, $off:expr, $mask:ident, $ki:expr) => {{
        $m = load_quad!($block, $off, $mask);
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

/// Compress one 64-byte block.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
// SAFETY: callers have checked `available()`.
unsafe fn block1(s0: &mut __m128i, s1: &mut __m128i, block: &[u8; 64], mask: __m128i) {
    let mut a0 = *s0;
    let mut a1 = *s1;
    let save0 = a0;
    let save1 = a1;
    let (mut m0, mut m1, mut m2, mut m3);
    quad_load!(a0, a1, m0, block, 0, mask, 0);
    quad_load!(a0, a1, m1, block, 16, mask, 4);
    m0 = _mm_sha256msg1_epu32(m0, m1);
    quad_load!(a0, a1, m2, block, 32, mask, 8);
    m1 = _mm_sha256msg1_epu32(m1, m2);
    m3 = load_quad!(block, 48, mask);
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

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
// SAFETY: the caller has checked `available()`.
unsafe fn compress_blocks_ni(state: &mut [u32; 8], data: &[u8]) {
    let mask = _mm_set_epi64x(BSWAP_HI, BSWAP_LO);
    let (mut s0, mut s1) = load_state(state);
    for block in data.as_chunks::<64>().0 {
        block1(&mut s0, &mut s1, block, mask);
    }
    store_state(state, s0, s1);
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
}
