//! Artifact store: metadata about every distinct file content the honeypot
//! has seen, keyed by SHA-256.
//!
//! The real farm stores the files themselves; the analyses only ever use the
//! hash, first-seen time, and occurrence counts, so that is what we keep.

use std::collections::HashMap;

use hf_hash::Digest;
use hf_simclock::SimInstant;

/// Metadata for one distinct artifact (unique content hash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Size in bytes.
    pub size: usize,
    /// First time this hash was observed.
    pub first_seen: SimInstant,
    /// Last time this hash was observed.
    pub last_seen: SimInstant,
    /// Number of observations.
    pub occurrences: u64,
}

/// Store of artifacts by hash.
#[derive(Debug, Clone, Default)]
pub struct ArtifactStore {
    items: HashMap<Digest, ArtifactMeta>,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation of the content with this hash and size.
    /// Returns `true` if the hash is new.
    pub fn observe_hash(&mut self, hash: Digest, size: usize, at: SimInstant) -> bool {
        match self.items.get_mut(&hash) {
            Some(meta) => {
                meta.occurrences += 1;
                meta.last_seen = meta.last_seen.max(at);
                false
            }
            None => {
                self.items.insert(
                    hash,
                    ArtifactMeta {
                        size,
                        first_seen: at,
                        last_seen: at,
                        occurrences: 1,
                    },
                );
                true
            }
        }
    }

    /// Look up an artifact.
    pub fn get(&self, hash: &Digest) -> Option<&ArtifactMeta> {
        self.items.get(hash)
    }

    /// Number of distinct artifacts.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate (hash, meta) pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Digest, &ArtifactMeta)> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_hash::Sha256;

    #[test]
    fn observe_counts_and_first_seen() {
        let mut s = ArtifactStore::new();
        let h = Sha256::digest(b"mal");
        assert!(s.observe_hash(h, 3, SimInstant(100)));
        assert!(!s.observe_hash(h, 3, SimInstant(500)));
        assert!(!s.observe_hash(h, 3, SimInstant(300)));
        let m = s.get(&h).unwrap();
        assert_eq!(m.occurrences, 3);
        assert_eq!(m.first_seen, SimInstant(100));
        assert_eq!(m.last_seen, SimInstant(500));
    }

    #[test]
    fn observe_hash_only() {
        let mut s = ArtifactStore::new();
        let h = Sha256::digest(b"x");
        assert!(s.observe_hash(h, 123, SimInstant(7)));
        assert!(!s.observe_hash(h, 123, SimInstant(9)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&h).unwrap().size, 123);
    }
}
