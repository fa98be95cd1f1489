//! Tables 1–6.

use std::io;

use hf_farm::{Dataset, TagDb};

use crate::aggregates::{bit_count, Aggregates};
use crate::classify::Category;
use crate::report::render::{pct, write_header, Tsv};

// ---------------------------------------------------------------------------
// Table 1 — session categories × protocol
// ---------------------------------------------------------------------------

/// One category row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The category.
    pub category: Category,
    /// Sessions in this category.
    pub sessions: u64,
    /// Share of all sessions.
    pub share: f64,
    /// SSH share *within* the category (second row of the paper's table).
    pub ssh_within: f64,
    /// Telnet share within the category.
    pub telnet_within: f64,
}

/// Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Five category rows in paper order.
    pub rows: Vec<Table1Row>,
    /// Overall SSH share (the paper's 75.83%).
    pub ssh_total: f64,
    /// Overall Telnet share.
    pub telnet_total: f64,
}

/// Build Table 1.
pub fn table1(agg: &Aggregates) -> Table1 {
    let total: u64 = agg.cat_totals.iter().sum();
    let ssh: u64 = agg.cat_ssh.iter().sum();
    let rows = Category::ALL
        .iter()
        .map(|&c| {
            let i = c.index();
            let sessions = agg.cat_totals[i];
            let ssh_in = if sessions == 0 {
                0.0
            } else {
                agg.cat_ssh[i] as f64 / sessions as f64
            };
            Table1Row {
                category: c,
                sessions,
                share: if total == 0 {
                    0.0
                } else {
                    sessions as f64 / total as f64
                },
                ssh_within: ssh_in,
                telnet_within: 1.0 - ssh_in,
            }
        })
        .collect();
    Table1 {
        rows,
        ssh_total: if total == 0 {
            0.0
        } else {
            ssh as f64 / total as f64
        },
        telnet_total: if total == 0 {
            0.0
        } else {
            1.0 - ssh as f64 / total as f64
        },
    }
}

impl Tsv for Table1 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(
            w,
            &[
                "category",
                "sessions",
                "share",
                "ssh_within",
                "telnet_within",
            ],
        )?;
        for r in &self.rows {
            writeln!(
                w,
                "{}\t{}\t{:.2}%\t{:.2}%\t{:.2}%",
                r.category.label(),
                r.sessions,
                r.share * 100.0,
                r.ssh_within * 100.0,
                r.telnet_within * 100.0
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<10} {:>12} {:>8} {:>8} {:>8}",
            "category", "sessions", "share", "ssh", "telnet"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>12} {:>8} {:>8} {:>8}",
                r.category.label(),
                r.sessions,
                pct(r.share),
                pct(r.ssh_within),
                pct(r.telnet_within)
            )?;
        }
        writeln!(
            f,
            "total ssh {} / telnet {}",
            pct(self.ssh_total),
            pct(self.telnet_total)
        )
    }
}

// ---------------------------------------------------------------------------
// Table 2 — top successful passwords
// ---------------------------------------------------------------------------

/// Table 2: most used successful passwords.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// (password, successful logins), descending.
    pub rows: Vec<(String, u64)>,
}

/// Build Table 2 (top 10, like the paper).
pub fn table2(dataset: &Dataset, agg: &Aggregates) -> Table2 {
    let mut rows: Vec<(String, u64)> = agg
        .password_counts
        .iter()
        .map(|(&cred_id, &count)| {
            let key = dataset.sessions.creds.get(cred_id);
            let pass = key.split_once('\0').map(|(_, p)| p).unwrap_or(key);
            (pass.to_string(), count)
        })
        .collect();
    // Same password can appear under several cred entries — merge.
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 += a.1;
            true
        } else {
            false
        }
    });
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(10);
    Table2 { rows }
}

impl Tsv for Table2 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["password", "count"])?;
        for (p, c) in &self.rows {
            writeln!(w, "{p}\t{c}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (p, c) in &self.rows {
            writeln!(f, "{p:<20} {c:>10}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Table 3 — top command lines
// ---------------------------------------------------------------------------

/// Table 3: most popular commands (split at `;` and `|`, as in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// (command, occurrences), descending.
    pub rows: Vec<(String, u64)>,
}

/// Build Table 3 (top 20).
pub fn table3(dataset: &Dataset, agg: &Aggregates) -> Table3 {
    let mut rows: Vec<(String, u64)> = agg
        .command_counts
        .iter()
        .map(|(&cmd_id, &count)| (dataset.sessions.commands.get(cmd_id).to_string(), count))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(20);
    Table3 { rows }
}

impl Tsv for Table3 {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(w, &["command", "count"])?;
        for (cmd, c) in &self.rows {
            writeln!(w, "{cmd}\t{c}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Table3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (s, c) in &self.rows {
            writeln!(f, "{c:>10}  {s}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tables 4–6 — top hashes
// ---------------------------------------------------------------------------

/// Sort key for the hash tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashSortKey {
    /// Table 4.
    Sessions,
    /// Table 5.
    Clients,
    /// Table 6.
    Days,
}

/// One hash row (Tables 4–6 schema).
#[derive(Debug, Clone, PartialEq)]
pub struct HashRow {
    /// Shortened hex hash (12 chars), as the paper anonymizes to H-ids.
    pub hash: String,
    /// Campaign name assigned by the tag database ("H1", "tail-…").
    pub campaign: String,
    /// Sessions involving the hash.
    pub sessions: u64,
    /// Unique client IPs.
    pub clients: u64,
    /// Active days.
    pub days: u32,
    /// Threat tag.
    pub tag: String,
    /// Honeypots that observed it.
    pub honeypots: u32,
}

/// A hash table (4, 5, or 6).
#[derive(Debug, Clone, PartialEq)]
pub struct HashTable {
    /// Sort key used.
    pub key: HashSortKey,
    /// Rows, descending by the key.
    pub rows: Vec<HashRow>,
}

/// Build a hash table.
pub fn hash_table(
    dataset: &Dataset,
    agg: &Aggregates,
    tags: &TagDb,
    key: HashSortKey,
    n: usize,
) -> HashTable {
    let mut rows: Vec<HashRow> = agg
        .hashes
        .iter()
        .enumerate()
        .filter(|(_, h)| h.sessions > 0)
        .map(|(hid, h)| {
            let digest = dataset.sessions.digests.get(hid as u32);
            HashRow {
                hash: digest.short(),
                campaign: tags.campaign(&digest).unwrap_or("?").to_string(),
                sessions: h.sessions,
                clients: h.clients.len() as u64,
                days: h.days,
                tag: tags.tag(&digest).unwrap_or("unknown").to_string(),
                honeypots: bit_count(&h.honeypots),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        match key {
            HashSortKey::Sessions => b.sessions.cmp(&a.sessions),
            HashSortKey::Clients => b.clients.cmp(&a.clients),
            HashSortKey::Days => b.days.cmp(&a.days),
        }
        .then(b.sessions.cmp(&a.sessions))
        .then(a.hash.cmp(&b.hash))
    });
    rows.truncate(n);
    HashTable { key, rows }
}

impl Tsv for HashTable {
    fn write_tsv(&self, w: &mut dyn io::Write) -> io::Result<()> {
        write_header(
            w,
            &[
                "hash",
                "campaign",
                "sessions",
                "clients",
                "days",
                "tag",
                "honeypots",
            ],
        )?;
        for r in &self.rows {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                r.hash, r.campaign, r.sessions, r.clients, r.days, r.tag, r.honeypots
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for HashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<14} {:<12} {:>10} {:>8} {:>6} {:<10} {:>9}",
            "hash", "campaign", "sessions", "clients", "days", "tag", "honeypots"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:<12} {:>10} {:>8} {:>6} {:<10} {:>9}",
                r.hash, r.campaign, r.sessions, r.clients, r.days, r.tag, r.honeypots
            )?;
        }
        Ok(())
    }
}
