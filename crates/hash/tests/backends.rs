//! Differential and vector conformance for every SHA-256 backend.
//!
//! The crate ships three compression cores — the spec-shaped reference
//! hasher, the schedule-unrolled scalar core the dispatcher falls back to,
//! and the SHA-NI core — and every byte the pipeline persists goes through
//! whichever one dispatch picks.
//! This suite pins them to each other and to digests computed by an
//! independent implementation (Python's `hashlib`), so a backend bug can't
//! hide behind the backend it is compared against.
//!
//! The SHA-NI core is exercised only where the CPU exposes the extension.
//! The scalar core runs everywhere: the proptests drive the one
//! `update`/`finalize` driver on every core the CPU offers.

use hf_hash::sha256::{backends, reference};
use hf_hash::{Digest, Sha256};
use proptest::prelude::*;

/// Deterministic pattern independent of any hasher: byte `i` of message
/// `n` is `(n*167 + i*13) mod 256` — the same formula the vector
/// generator used.
fn pattern(n: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((n * 167 + i * 13) % 256) as u8).collect()
}

/// Digests of `pattern(n, len)` computed by Python's `hashlib.sha256`,
/// not by any code in this repository.
const HASHLIB_VECTORS: &[(usize, usize, &str)] = &[
    (
        0,
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        1,
        1,
        "2dbf9365a0b09d85bbd6176d8b2332aa5ae97bef652712473bc69165e74b22ed",
    ),
    (
        2,
        2,
        "993251b995a20bee0f4259217a37fef1f089a30b4e7067ea94dbb4eab3cc5cda",
    ),
    (
        3,
        3,
        "989f61bd650ef1867d1419a33454ab177132f9761a74679f74c89311b121e37b",
    ),
    (
        4,
        31,
        "f75a79816ea33aa4eebf87de2b4cb0cf2a8c7c4cf6b1239a8a887fcb9ac50170",
    ),
    (
        5,
        32,
        "6bea466a9cffd59ecf5431384bb5c85d87bc644493485f33f4613f914c5450a4",
    ),
    (
        6,
        33,
        "86fd445571b291e0ec7aaa6584c9bf5fdb6d4a64d2daaba7162374f8b35ff58c",
    ),
    (
        7,
        54,
        "16d7e5b212c472c0faf4b12e85468e9024b5edf7f60a9ee588729af329d92815",
    ),
    (
        8,
        55,
        "5daaa8e1b4ab1557136cd34aa1160c51c47285a0f3d38d0039cd0e41098106a3",
    ),
    (
        9,
        56,
        "29b75d235feb4803fed2233b92f768ca48087bcdad51f04a70f480316d565b87",
    ),
    (
        10,
        57,
        "09de7cbc15e594c51b9d3b2ca9a4e00dd0d9ca8461046effffb23925926e79ce",
    ),
    (
        11,
        63,
        "08df11887c61485e6caee546eae72ab83cfc7585a734ac65c99bd9742e6a8963",
    ),
    (
        12,
        64,
        "2b4842464de2a064d4ecee22c96ec3f617673bcbb749bd8a41014082f86560a0",
    ),
    (
        13,
        65,
        "59de77ac3d27bcbec9b39124e185f966d32a5f3b29d60a95e8411d9c47ab1e54",
    ),
    (
        14,
        100,
        "9ad042e2882cb6f05a123eebceb3deb64593f00974d9e2d950fce53a29d14dc2",
    ),
    (
        15,
        119,
        "329017ab7aebae7e9a6c08bb4a2fd9de64e0dd19f772765be43a2ee4759f7da9",
    ),
    (
        16,
        120,
        "750e3b300dad24c8870a55581fc566c7d78fa21d900daa58407a0267fd485616",
    ),
    (
        17,
        121,
        "915075709a398ca36c76f04873489f894d13485ee1b618ec6ddb2c50848b31ea",
    ),
    (
        18,
        127,
        "9d1449679c011c0c35952400c8c8d86ff340410be0a20301c9c4d3cd0fb7b1d3",
    ),
    (
        19,
        128,
        "316731fd7f087566f68cb9879dfa27f0dc74a49b7a9b8a7cdf06dfaacc5f97b7",
    ),
    (
        20,
        129,
        "20259290fb3fc61bcb7125b165753436a2086d255ba868cf32588e9e900280ca",
    ),
    (
        21,
        255,
        "95a5b83429c55f337dfa57664f0064e18069048ff2347e398822de418c4c7c7b",
    ),
    (
        22,
        256,
        "4c985d42345028507cff7f3d370d8581b3af746057c96d8983b095c3ea52b624",
    ),
    (
        23,
        1000,
        "7bb2fa7ff0db797646f30a289a3774ea64034902ab739bad37e4d9af29509239",
    ),
    (
        24,
        4096,
        "87a15591e9563dbd1baa78f1740553cfe5cbfcdf52c7d7706f332d0ddd3b0f6c",
    ),
];

/// The NIST FIPS 180-4 / CAVP short-message classics, as a second
/// independently published source.
const NIST_VECTORS: &[(&[u8], &str)] = &[
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
];

/// Every digest entry point the crate exposes, applied to one message.
/// SHA-NI entries are `None` off SHA-NI hardware.
fn all_backends(data: &[u8]) -> Vec<(&'static str, Option<Digest>)> {
    vec![
        ("dispatch", Some(Sha256::digest(data))),
        ("reference", Some(reference::Sha256::digest(data))),
        ("scalar", Some(backends::scalar_digest(data))),
        ("sha-ni", backends::shani_digest(data)),
    ]
}

#[test]
fn hashlib_vectors_pin_every_backend() {
    for &(n, len, want) in HASHLIB_VECTORS {
        let data = pattern(n, len);
        for (name, got) in all_backends(&data) {
            if let Some(d) = got {
                assert_eq!(d.to_hex(), want, "backend={name} len={len}");
            }
        }
    }
}

#[test]
fn nist_vectors_pin_every_backend() {
    for &(msg, want) in NIST_VECTORS {
        for (name, got) in all_backends(msg) {
            if let Some(d) = got {
                assert_eq!(d.to_hex(), want, "backend={name} msg={msg:?}");
            }
        }
    }
}

#[test]
fn padding_edge_lengths_agree_across_backends() {
    // 55 is the longest single-block message, 56 forces the two-block
    // padding, 63/64/65 straddle the block boundary; repeat the pattern at
    // the second block boundary too.
    for len in [
        54usize, 55, 56, 57, 63, 64, 65, 118, 119, 120, 127, 128, 129,
    ] {
        let data = pattern(len, len);
        let want = reference::Sha256::digest(&data);
        for (name, got) in all_backends(&data) {
            if let Some(d) = got {
                assert_eq!(d, want, "backend={name} len={len}");
            }
        }
    }
}

#[test]
fn digest_many_preserves_order_for_every_parity() {
    for count in 0usize..=7 {
        let bodies: Vec<Vec<u8>> = (0..count).map(|i| pattern(i, i * 53 + 2)).collect();
        let mut batched = Vec::new();
        Sha256::digest_many(bodies.iter().map(|b| b.as_slice()), &mut batched);
        let singles: Vec<Digest> = bodies.iter().map(|b| Sha256::digest(b)).collect();
        assert_eq!(batched, singles, "count={count}");
    }
}

#[test]
fn digest_many_appends_after_existing_output() {
    let sentinel = Sha256::digest(b"sentinel");
    let mut out = vec![sentinel];
    Sha256::digest_many([b"a".as_slice(), b"b".as_slice()], &mut out);
    assert_eq!(out.len(), 3);
    assert_eq!(out[0], sentinel);
    assert_eq!(out[1], Sha256::digest(b"a"));
    assert_eq!(out[2], Sha256::digest(b"b"));
}

/// A fresh hasher on every core this CPU offers: scalar always, SHA-NI
/// when present. Each runs the same `update`/`finalize` driver.
fn cores() -> Vec<(&'static str, Sha256)> {
    let mut cores = vec![("scalar", backends::scalar())];
    cores.extend(backends::shani().map(|h| ("sha-ni", h)));
    cores
}

proptest! {
    /// Arbitrary messages: every core agrees with the reference hasher.
    #[test]
    fn backends_agree_on_arbitrary_messages(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let want = reference::Sha256::digest(&data);
        prop_assert_eq!(Sha256::digest(&data), want);
        for (name, mut h) in cores() {
            h.update(&data);
            prop_assert_eq!((name, h.finalize()), (name, want));
        }
    }

    /// Arbitrary split points: streaming updates on every core match the
    /// reference digest.
    #[test]
    fn streaming_matches_one_shot_at_arbitrary_splits(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(any::<u16>(), 0..4),
    ) {
        let mut splits: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
        splits.sort_unstable();
        let want = reference::Sha256::digest(&data);
        for (name, mut h) in cores() {
            let mut prev = 0;
            for &s in &splits {
                h.update(&data[prev..s]);
                prev = s;
            }
            h.update(&data[prev..]);
            prop_assert_eq!((name, h.finalize()), (name, want));
        }
    }

    /// Arbitrary batches: `digest_many` equals the per-message map.
    #[test]
    fn digest_many_matches_singles_on_arbitrary_batches(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..9),
    ) {
        let mut batched = Vec::new();
        Sha256::digest_many(bodies.iter().map(|b| b.as_slice()), &mut batched);
        let singles: Vec<Digest> = bodies.iter().map(|b| Sha256::digest(b)).collect();
        prop_assert_eq!(batched, singles);
    }
}
