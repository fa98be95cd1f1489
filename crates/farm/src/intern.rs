//! Interning pools: strings, digests, and small id-lists.
//!
//! A 400-million-session dataset cannot store credential strings and command
//! lists per row. But honeypot traffic is massively repetitive — a campaign
//! replays the same password and the same command script from thousands of
//! clients — so pooling turns per-session variable-size data into fixed-size
//! u32 handles (DESIGN.md §4, "interned ids vs string keys").

use std::collections::HashMap;

use hf_hash::Digest;

/// Sentinel id meaning "no value".
pub const NONE_ID: u32 = u32::MAX;

/// Hard capacity limit on every pool: 2³¹ entries.
///
/// Store rows pack interned ids as `id << 1 | flag` in a `u32`
/// (`store.rs`), so an id must fit in 31 bits — one entry past the limit
/// silently shifts into the flag bit and corrupts every packed list that
/// references it. `NONE_ID` is additionally reserved as a sentinel, which
/// the limit also keeps unreachable. The pools `debug_assert!` at the
/// boundary; the snapshot writer refuses to persist an overflowing pool
/// with a typed [`crate::snapshot::SnapshotError::PoolOverflow`].
pub const MAX_POOL_LEN: usize = 1 << 31;

/// Deduplicating string pool.
#[derive(Debug, Default, Clone)]
pub struct StringPool {
    by_str: HashMap<String, u32>,
    items: Vec<String>,
}

impl StringPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning its id.
    ///
    /// Pools are capped at [`MAX_POOL_LEN`] distinct entries; beyond that,
    /// packed `id << 1 | flag` handles would corrupt their flag bit.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_str.get(s) {
            return id;
        }
        debug_assert!(
            self.items.len() < MAX_POOL_LEN,
            "StringPool overflow: id {} would not fit in 31 bits",
            self.items.len()
        );
        let id = self.items.len() as u32;
        self.items.push(s.to_string());
        self.by_str.insert(s.to_string(), id);
        id
    }

    /// Resolve an id. Panics when `id` was never issued; loaders validating
    /// untrusted ids should use [`StringPool::try_get`].
    pub fn get(&self, id: u32) -> &str {
        &self.items[id as usize]
    }

    /// Resolve an id, returning `None` when it is out of range.
    pub fn try_get(&self, id: u32) -> Option<&str> {
        self.items.get(id as usize).map(String::as_str)
    }

    /// Find without inserting.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.by_str.get(s).copied()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate `(id, string)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }
}

/// Deduplicating digest pool (SHA-256 values).
#[derive(Debug, Default, Clone)]
pub struct DigestPool {
    by_digest: HashMap<Digest, u32>,
    items: Vec<Digest>,
}

impl DigestPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a digest (capped at [`MAX_POOL_LEN`] entries, like every pool).
    pub fn intern(&mut self, d: Digest) -> u32 {
        if let Some(&id) = self.by_digest.get(&d) {
            return id;
        }
        debug_assert!(
            self.items.len() < MAX_POOL_LEN,
            "DigestPool overflow: id {} would not fit in 31 bits",
            self.items.len()
        );
        let id = self.items.len() as u32;
        self.items.push(d);
        self.by_digest.insert(d, id);
        id
    }

    /// Resolve an id. Panics when `id` was never issued; loaders validating
    /// untrusted ids should use [`DigestPool::try_get`].
    pub fn get(&self, id: u32) -> Digest {
        self.items[id as usize]
    }

    /// Resolve an id, returning `None` when it is out of range.
    pub fn try_get(&self, id: u32) -> Option<Digest> {
        self.items.get(id as usize).copied()
    }

    /// Find without inserting.
    pub fn lookup(&self, d: &Digest) -> Option<u32> {
        self.by_digest.get(d).copied()
    }

    /// Number of distinct digests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate `(id, digest)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Digest)> + '_ {
        self.items.iter().enumerate().map(|(i, d)| (i as u32, *d))
    }
}

/// Deduplicating pool of u32 lists, stored flattened (arena + ranges).
/// The empty list is always id [`ListPool::EMPTY`], and never hashed.
///
/// A pool decoded from a snapshot (`ListPool::from_parts`) starts without
/// its lookup index: readers only resolve ids, so the index is built on the
/// first [`ListPool::intern`] instead.
#[derive(Debug, Clone)]
pub struct ListPool {
    /// Every non-empty list, or nothing until the first `intern` after
    /// `from_parts` (complete exactly when it holds `ranges.len() - 1`).
    by_list: HashMap<Vec<u32>, u32>,
    /// Flattened contents.
    arena: Vec<u32>,
    /// (offset, len) per list id.
    ranges: Vec<(u32, u32)>,
}

impl Default for ListPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ListPool {
    /// Empty pool with the empty list pre-interned as id 0.
    pub fn new() -> Self {
        ListPool {
            by_list: HashMap::new(),
            arena: Vec::new(),
            ranges: vec![(0, 0)],
        }
    }

    /// A pool over decoded lists: `ranges[0]` is the empty list and every
    /// range lies inside `arena`. The lists must be distinct; the snapshot
    /// loader rejects a file that repeats one before it hands the pool out.
    pub(crate) fn from_parts(arena: Vec<u32>, ranges: Vec<(u32, u32)>) -> Self {
        debug_assert_eq!(ranges.first(), Some(&(0, 0)));
        ListPool {
            by_list: HashMap::new(),
            arena,
            ranges,
        }
    }

    /// Id of the empty list.
    pub const EMPTY: u32 = 0;

    /// Intern a list (capped at [`MAX_POOL_LEN`] distinct lists). The empty
    /// list — most sessions' URI, file-hash and download lists — returns
    /// [`ListPool::EMPTY`] without a hash lookup.
    pub fn intern(&mut self, list: &[u32]) -> u32 {
        if list.is_empty() {
            return Self::EMPTY;
        }
        if self.by_list.len() + 1 != self.ranges.len() {
            self.by_list = (1..self.ranges.len() as u32)
                .map(|id| (self.get(id).to_vec(), id))
                .collect();
        }
        if let Some(&id) = self.by_list.get(list) {
            return id;
        }
        debug_assert!(
            self.ranges.len() < MAX_POOL_LEN,
            "ListPool overflow: id {} would not fit in 31 bits",
            self.ranges.len()
        );
        let id = self.ranges.len() as u32;
        let offset = self.arena.len() as u32;
        self.arena.extend_from_slice(list);
        self.ranges.push((offset, list.len() as u32));
        self.by_list.insert(list.to_vec(), id);
        id
    }

    /// Resolve an id to its slice. Panics when `id` was never issued;
    /// loaders validating untrusted ids should use [`ListPool::try_get`].
    pub fn get(&self, id: u32) -> &[u32] {
        let (off, len) = self.ranges[id as usize];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Resolve an id, returning `None` when it is out of range.
    pub fn try_get(&self, id: u32) -> Option<&[u32]> {
        let &(off, len) = self.ranges.get(id as usize)?;
        Some(&self.arena[off as usize..(off + len) as usize])
    }

    /// Iterate lists in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0..self.ranges.len() as u32).map(move |id| (id, self.get(id)))
    }

    /// Number of distinct lists.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Is the pool empty (it never is after `new`)?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_hash::Sha256;

    #[test]
    fn string_pool_dedups() {
        let mut p = StringPool::new();
        let a = p.intern("root");
        let b = p.intern("1234");
        let a2 = p.intern("root");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(p.get(a), "root");
        assert_eq!(p.len(), 2);
        assert_eq!(p.lookup("1234"), Some(b));
        assert_eq!(p.lookup("nope"), None);
    }

    #[test]
    fn digest_pool_dedups() {
        let mut p = DigestPool::new();
        let d1 = Sha256::digest(b"a");
        let d2 = Sha256::digest(b"b");
        let i1 = p.intern(d1);
        let i2 = p.intern(d2);
        assert_eq!(p.intern(d1), i1);
        assert_ne!(i1, i2);
        assert_eq!(p.get(i2), d2);
    }

    #[test]
    fn list_pool_roundtrip() {
        let mut p = ListPool::new();
        assert_eq!(p.get(ListPool::EMPTY), &[] as &[u32]);
        let a = p.intern(&[1, 2, 3]);
        let b = p.intern(&[1, 2]);
        let a2 = p.intern(&[1, 2, 3]);
        assert_eq!(a, a2);
        assert_eq!(p.get(a), &[1, 2, 3]);
        assert_eq!(p.get(b), &[1, 2]);
        assert_eq!(p.len(), 3); // empty + two lists
    }

    #[test]
    fn default_list_pool_reserves_id_0_for_the_empty_list() {
        let mut p = ListPool::default();
        assert_eq!(p.intern(&[7]), 1);
        assert_eq!(p.intern(&[]), ListPool::EMPTY);
        assert_eq!(p.get(ListPool::EMPTY), &[] as &[u32]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn list_pool_distinguishes_order() {
        let mut p = ListPool::new();
        let a = p.intern(&[1, 2]);
        let b = p.intern(&[2, 1]);
        assert_ne!(a, b);
    }

    #[test]
    fn try_get_rejects_out_of_range_ids() {
        let mut s = StringPool::new();
        let id = s.intern("root");
        assert_eq!(s.try_get(id), Some("root"));
        assert_eq!(s.try_get(id + 1), None);
        assert_eq!(s.try_get(NONE_ID), None);

        let mut d = DigestPool::new();
        let h = Sha256::digest(b"a");
        let id = d.intern(h);
        assert_eq!(d.try_get(id), Some(h));
        assert_eq!(d.try_get(id + 1), None);

        let mut l = ListPool::new();
        let id = l.intern(&[7, 8]);
        assert_eq!(l.try_get(id), Some(&[7u32, 8][..]));
        assert_eq!(l.try_get(id + 1), None);
    }

    #[test]
    fn list_pool_iter_in_id_order() {
        let mut p = ListPool::new();
        p.intern(&[1]);
        p.intern(&[2, 3]);
        let all: Vec<(u32, Vec<u32>)> = p.iter().map(|(i, l)| (i, l.to_vec())).collect();
        assert_eq!(all, vec![(0, vec![]), (1, vec![1]), (2, vec![2, 3])]);
    }
}
