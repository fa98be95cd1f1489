//! Hash tag database — the local substitute for VirusTotal/ClamAV lookups.
//!
//! The paper cross-checks observed hashes against malware databases and gets
//! labels (mirai / trojan / miner / malicious / suspicious / unknown) for the
//! popular ones. In the reproduction, labels come from the campaign that
//! produced each hash: the simulator records the association as sessions
//! execute. The tail's "unknown" label plays the role of the paper's
//! <2%-coverage reality: almost everything in the long tail is unlabeled.

use std::collections::HashMap;

use hf_hash::Digest;

/// One tagged hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagEntry {
    /// Threat label ("mirai", "trojan", …).
    pub tag: String,
    /// Name of the campaign that produced the hash ("H1", "tail-00042", …).
    pub campaign: String,
}

/// Hash → tag database.
#[derive(Debug, Clone, Default)]
pub struct TagDb {
    map: HashMap<Digest, TagEntry>,
}

impl TagDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a hash's tag (first association wins, like first submission to
    /// a malware DB).
    pub fn record(&mut self, hash: Digest, tag: &str, campaign: &str) {
        self.map.entry(hash).or_insert_with(|| TagEntry {
            tag: tag.to_string(),
            campaign: campaign.to_string(),
        });
    }

    /// Absorb another database, keeping existing entries on conflict.
    ///
    /// Combined with first-wins [`TagDb::record`], merging per-batch
    /// databases in plan order reproduces exactly the database a serial run
    /// records: an entry present in several batches keeps the earliest
    /// batch's association, which is the earliest plan's. Within one merge
    /// the iteration order of `other` is irrelevant — each hash occurs at
    /// most once per batch.
    pub fn merge(&mut self, other: TagDb) {
        if self.map.is_empty() {
            self.map = other.map;
            return;
        }
        for (hash, entry) in other.map {
            self.map.entry(hash).or_insert(entry);
        }
    }

    /// Look up a hash's tag label.
    pub fn tag(&self, hash: &Digest) -> Option<&str> {
        self.map.get(hash).map(|e| e.tag.as_str())
    }

    /// Look up the producing campaign.
    pub fn campaign(&self, hash: &Digest) -> Option<&str> {
        self.map.get(hash).map(|e| e.campaign.as_str())
    }

    /// Number of tagged hashes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Digest, &TagEntry)> {
        self.map.iter()
    }

    /// Entries sorted by digest — the canonical order the hfstore snapshot
    /// writer uses, so that identical databases serialize byte-identically
    /// regardless of `HashMap` iteration order.
    pub fn entries_sorted(&self) -> Vec<(&Digest, &TagEntry)> {
        let mut v: Vec<(&Digest, &TagEntry)> = self.map.iter().collect();
        v.sort_by_key(|(d, _)| *d);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_hash::Sha256;

    #[test]
    fn first_association_wins() {
        let mut db = TagDb::new();
        let h = Sha256::digest(b"x");
        db.record(h, "mirai", "H4");
        db.record(h, "trojan", "H1");
        assert_eq!(db.tag(&h), Some("mirai"));
        assert_eq!(db.campaign(&h), Some("H4"));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn missing_hash_is_none() {
        let db = TagDb::new();
        assert_eq!(db.tag(&Sha256::digest(b"nope")), None);
    }
}
