//! An independent reference for the paper's definitions.
//!
//! [`Measures::of`] recomputes, from nothing but a slice of
//! [`SessionRecord`]s, every quantity the paper's tables and figures read,
//! and [`federation`] recomputes Section 9's pooling of several farms. The
//! code is deliberately naive: owned strings and digests, `BTreeMap`s and
//! `BTreeSet`s, one pass over the records per quantity, and every definition
//! written out from the paper's text (DESIGN §1) and the cluster schema
//! (DESIGN §15). It calls no analysis code — no classifier, no day helper,
//! no freshness window, no figure builder, no fold, no interning — so a
//! definition bug in the fold cannot also be a bug here.
//!
//! Besides the record fields and std it reads the deployment plan (each
//! honeypot's country), `World::locate` (each client's country and AS) and
//! the country catalogue (continents). The cluster features' command heads
//! come from the shell's owned reference lexer
//! ([`hf_shell::lexer::reference::split_statements`]): what counts as a
//! command name is the shell grammar's question, not the paper's, and that
//! lexer has its own differential suite.
//!
//! [`crate::oracle::diff_reference`] compares these measures with
//! [`crate::oracle::project`]ed fold output.

use std::collections::{BTreeMap, BTreeSet};

use hf_farm::FarmPlan;
use hf_geo::{country, Ip4, World};
use hf_hash::Digest;
use hf_honeypot::{EndReason, SessionRecord};
use hf_proto::Protocol;
use hf_shell::lexer::reference::split_statements;

/// The five leaves of Fig. 5, in the paper's order.
pub const LEAVES: [&str; 5] = ["NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD+URI"];

/// Fig. 7's duration axis ends here; longer sessions land in the last bin.
const DURATION_CAP_SECS: u32 = 600;

/// Everything the reference computes from one set of records. Day ×
/// honeypot matrices are day-major: cell `day * n_honeypots + honeypot`.
#[derive(Debug, Clone, PartialEq)]
pub struct Measures {
    /// Days covered: the last session's day + 1 (1 when there is none).
    pub n_days: u32,
    /// Honeypots in the deployment.
    pub n_honeypots: usize,
    /// Sessions.
    pub sessions: u64,
    /// Table 1: sessions per leaf.
    pub leaf_sessions: [u64; 5],
    /// Table 1: SSH sessions per leaf.
    pub leaf_ssh: [u64; 5],
    /// Table 1: sessions per leaf ended by the client, a timeout, the
    /// auth-attempt cap.
    pub leaf_end_reasons: [[u64; 3]; 5],
    /// Sessions that created or modified at least one, at least two, and
    /// more than ten files.
    pub file_sessions: [u64; 3],
    /// Sessions per day.
    pub day_sessions: Vec<u64>,
    /// Sessions per leaf and day.
    pub day_leaf_sessions: [Vec<u64>; 5],
    /// Sessions per day and honeypot: Figs 3/4.
    pub day_hp_sessions: Vec<u32>,
    /// Sessions per leaf, day and honeypot: Figs 8/9.
    pub day_hp_leaf_sessions: [Vec<u32>; 5],
    /// Distinct clients per day with a session of each leaf, then overall
    /// (Fig. 11).
    pub day_clients: Vec<[u32; 6]>,
    /// Per day, clients counted by the set of {NO_CRED, FAIL_LOG, CMD or
    /// CMD+URI} they showed that day, as a bitmask (Fig. 15).
    pub day_combos: Vec<[u32; 8]>,
    /// Per day, overall then per leaf, clients counted by the set of
    /// relations (1 same country, 2 same continent, 4 other continent)
    /// between them and the honeypots they reached that day (Fig. 16).
    pub day_regions: Vec<[[u32; 8]; 6]>,
    /// Sessions per leaf and duration in seconds, capped: Fig. 7.
    pub durations: [Vec<u64>; 5],
    /// Sessions per honeypot.
    pub hp_sessions: Vec<u64>,
    /// Distinct clients per honeypot.
    pub hp_clients: Vec<BTreeSet<Ip4>>,
    /// Distinct clients per honeypot and leaf.
    pub hp_leaf_clients: Vec<[BTreeSet<Ip4>; 5]>,
    /// Distinct hashes per honeypot (Figs 18/19).
    pub hp_hashes: Vec<BTreeSet<Digest>>,
    /// Hashes each honeypot saw first.
    pub hp_first_hashes: Vec<u32>,
    /// The top 5 % of honeypots by sessions, busiest first.
    pub top5: Vec<u16>,
    /// The (p5, q25, median, q75, p95) band per figure and day; the
    /// figures are `fig3`, `fig4`, `fig8.<leaf>` and `fig9.<leaf>`.
    pub bands: BTreeMap<(String, u32), [f64; 5]>,
    /// Per-client state (Figs 12/13/21).
    pub clients: BTreeMap<Ip4, ClientMeasures>,
    /// Per-hash state (Figs 17–20).
    pub hashes: BTreeMap<Digest, HashMeasures>,
    /// Accepted logins per (username, password): Table 2.
    pub passwords: BTreeMap<(String, String), u64>,
    /// Command lines run, per line: Table 3.
    pub commands: BTreeMap<String, u64>,
    /// Sessions per SSH client version string.
    pub ssh_versions: BTreeMap<String, u64>,
    /// Distinct client AS numbers.
    pub asns: BTreeSet<u32>,
    /// Fig. 17, one entry per day with a hash sighting: (day, distinct
    /// hashes, never seen before, not seen in the last 30 days, not seen in
    /// the last 7 days).
    pub freshness: Vec<[u32; 5]>,
    /// Fig. 18's concentration: the hash-richest honeypot's share of all
    /// distinct hashes.
    pub f18_share: f64,
    /// Section 9's discovery timeline.
    pub birth: Birth,
    /// Section 9's federation, when the caller computed one
    /// ([`federation`]); [`Measures::of`] leaves it empty.
    pub federation: Option<Federation>,
    /// The 24 cluster features per client, in `FEATURE_NAMES` order.
    pub features: BTreeMap<Ip4, [f64; 24]>,
}

/// One client's state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClientMeasures {
    /// Honeypots contacted.
    pub honeypots: BTreeSet<u16>,
    /// Honeypots contacted per leaf.
    pub leaf_honeypots: [BTreeSet<u16>; 5],
    /// Distinct active days.
    pub days: u32,
    /// Distinct active days per leaf.
    pub leaf_days: [u32; 5],
    /// Leaves the client ever appeared in.
    pub leaves: BTreeSet<usize>,
    /// Sessions.
    pub sessions: u64,
    /// Distinct hashes its sessions produced.
    pub hashes: BTreeSet<Digest>,
    /// Country, when the address resolves.
    pub country: Option<u16>,
}

/// One hash's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HashMeasures {
    /// Sessions that carried it.
    pub sessions: u64,
    /// Distinct clients that produced it.
    pub clients: BTreeSet<Ip4>,
    /// Distinct days it was seen on.
    pub days: u32,
    /// Day of its first sighting.
    pub first_day: u32,
    /// Honeypot of its first sighting.
    pub first_honeypot: u16,
    /// Honeypots that saw it.
    pub honeypots: BTreeSet<u16>,
}

/// Section 9's discovery timeline: sessions per week by behaviour class.
#[derive(Debug, Clone, PartialEq)]
pub struct Birth {
    /// Per week: scanning, scouting and intrusion sessions.
    pub weeks: Vec<[u64; 3]>,
    /// First week whose scouting is at least 1.5 × week 0's.
    pub scouting_rampup_week: Option<u32>,
    /// First week whose scanning is at least 1.5 × week 0's.
    pub scanning_rampup_week: Option<u32>,
    /// The last complete 4-week month's sessions over the busiest month's.
    pub final_month_vs_peak: f64,
}

/// Section 9's federation of several farms' file-hash sightings.
#[derive(Debug, Clone, PartialEq)]
pub struct Federation {
    /// Distinct file hashes per farm.
    pub per_farm: Vec<usize>,
    /// Distinct file hashes over all farms.
    pub union: usize,
    /// File hashes every farm saw.
    pub intersection: usize,
    /// The union over the best single farm.
    pub coverage_gain: f64,
    /// Over hashes two or more farms saw: the mean of (mean first-sighting
    /// day − earliest first-sighting day).
    pub mean_detection_lead_days: f64,
    /// Hashes some farm saw at least 7 days after the earliest farm did.
    pub week_early_warnings: usize,
}

/// Day index of a session: whole days since the epoch of its start.
fn day(r: &SessionRecord) -> u32 {
    (r.start.0 / 86_400) as u32
}

/// Fig. 5's flow diagram: credentials offered? a login accepted? commands
/// run? a URI referenced? The first "no" names the leaf.
fn leaf(r: &SessionRecord) -> usize {
    if r.logins.is_empty() {
        0
    } else if !r.logins.iter().any(|l| l.accepted) {
        1
    } else if r.commands.is_empty() {
        2
    } else if r.uris.is_empty() {
        3
    } else {
        4
    }
}

/// Every distinct hash a session produced: its files and its downloads.
fn session_hashes(r: &SessionRecord) -> BTreeSet<Digest> {
    r.file_hashes
        .iter()
        .chain(&r.download_hashes)
        .copied()
        .collect()
}

/// Where a client sits relative to a honeypot: 0 same country, 1 same
/// continent, 2 another continent, `None` when the client does not resolve.
fn relation(world: &World, plan: &FarmPlan, r: &SessionRecord) -> Option<usize> {
    let client = world.locate(r.client_ip)?.country;
    let honeypot = plan.nodes[r.honeypot as usize].country;
    Some(if client == honeypot {
        0
    } else if country::get(client).continent == country::get(honeypot).continent {
        1
    } else {
        2
    })
}

/// Linear-interpolation percentile of sorted values at rank `p · (n − 1)`.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// `ln(1 + n) / ln(1 + cap)`, clamped to the unit interval (DESIGN §15).
fn log_unit(n: usize, cap: f64) -> f64 {
    hf_cluster::unit01((1.0 + n as f64).ln() / (1.0 + cap).ln())
}

impl Measures {
    /// Compute every measure over `records`, taken in collection order.
    /// `world` resolves client addresses and `plan` is the deployment.
    pub fn of(records: &[SessionRecord], world: &World, plan: &FarmPlan) -> Measures {
        let n_honeypots = plan.nodes.len();
        let n_days = records.iter().map(|r| day(r) + 1).max().unwrap_or(1);
        let (days, cells) = (n_days as usize, n_days as usize * n_honeypots);
        let hashes = hash_measures(records);
        let mut m = Measures {
            n_days,
            n_honeypots,
            sessions: records.len() as u64,
            leaf_sessions: [0; 5],
            leaf_ssh: [0; 5],
            leaf_end_reasons: [[0; 3]; 5],
            file_sessions: [0; 3],
            day_sessions: vec![0; days],
            day_leaf_sessions: std::array::from_fn(|_| vec![0; days]),
            day_hp_sessions: vec![0; cells],
            day_hp_leaf_sessions: std::array::from_fn(|_| vec![0; cells]),
            day_clients: vec![[0; 6]; days],
            day_combos: vec![[0; 8]; days],
            day_regions: vec![[[0; 8]; 6]; days],
            durations: std::array::from_fn(|_| vec![0; DURATION_CAP_SECS as usize + 1]),
            hp_sessions: vec![0; n_honeypots],
            hp_clients: vec![BTreeSet::new(); n_honeypots],
            hp_leaf_clients: vec![Default::default(); n_honeypots],
            hp_hashes: vec![BTreeSet::new(); n_honeypots],
            hp_first_hashes: vec![0; n_honeypots],
            top5: Vec::new(),
            bands: BTreeMap::new(),
            clients: BTreeMap::new(),
            hashes: BTreeMap::new(),
            passwords: BTreeMap::new(),
            commands: BTreeMap::new(),
            ssh_versions: BTreeMap::new(),
            asns: records
                .iter()
                .filter_map(|r| world.locate(r.client_ip))
                .map(|info| info.asn.0)
                .collect(),
            freshness: freshness(records),
            f18_share: 0.0,
            birth: birth(records, n_days),
            federation: None,
            features: features(records, world, plan),
        };

        // Table 1, Fig. 7 and the per-day and per-honeypot volumes.
        for r in records {
            let (l, d, hp) = (leaf(r), day(r) as usize, r.honeypot as usize);
            m.leaf_sessions[l] += 1;
            m.leaf_ssh[l] += (r.protocol == Protocol::Ssh) as u64;
            let reason = match r.ended_by {
                EndReason::ClientClose => 0,
                EndReason::Timeout => 1,
                EndReason::AuthLimit => 2,
            };
            m.leaf_end_reasons[l][reason] += 1;
            let files = r.file_hashes.len();
            for (i, enough) in [files >= 1, files >= 2, files > 10].into_iter().enumerate() {
                m.file_sessions[i] += enough as u64;
            }
            m.durations[l][r.duration_secs.min(DURATION_CAP_SECS) as usize] += 1;
            m.day_sessions[d] += 1;
            m.day_leaf_sessions[l][d] += 1;
            m.day_hp_sessions[d * n_honeypots + hp] += 1;
            m.day_hp_leaf_sessions[l][d * n_honeypots + hp] += 1;
            m.hp_sessions[hp] += 1;
            m.hp_clients[hp].insert(r.client_ip);
            m.hp_leaf_clients[hp][l].insert(r.client_ip);
            m.hp_hashes[hp].extend(session_hashes(r));
        }
        m.top5 = top5(&m.hp_sessions);
        m.bands = bands(&m, &m.top5);

        // Figs 18/19: first sightings and the hash-richest honeypot.
        for h in hashes.values() {
            m.hp_first_hashes[h.first_honeypot as usize] += 1;
        }
        let richest = m.hp_hashes.iter().map(BTreeSet::len).max().unwrap_or(0);
        m.f18_share = richest as f64 / hashes.len().max(1) as f64;
        m.hashes = hashes;

        // Per day, each client's leaves and regions that day.
        let mut per_day: BTreeMap<u32, BTreeMap<Ip4, Vec<&SessionRecord>>> = BTreeMap::new();
        for r in records {
            let clients = per_day.entry(day(r)).or_default();
            clients.entry(r.client_ip).or_default().push(r);
        }
        for (d, clients) in &per_day {
            let d = *d as usize;
            for sessions in clients.values() {
                let leaves: BTreeSet<usize> = sessions.iter().map(|r| leaf(r)).collect();
                for &l in &leaves {
                    m.day_clients[d][l] += 1;
                }
                m.day_clients[d][5] += 1;
                let combo = (leaves.contains(&0) as usize)
                    | (leaves.contains(&1) as usize) << 1
                    | ((leaves.contains(&3) || leaves.contains(&4)) as usize) << 2;
                if combo != 0 {
                    m.day_combos[d][combo] += 1;
                }
                let mut masks = [0usize; 6];
                for r in sessions {
                    if let Some(rel) = relation(world, plan, r) {
                        masks[0] |= 1 << rel;
                        masks[1 + leaf(r)] |= 1 << rel;
                    }
                }
                for (slot, mask) in masks.into_iter().enumerate() {
                    if mask != 0 {
                        m.day_regions[d][slot][mask] += 1;
                    }
                }
            }
        }

        // Per client (Figs 12/13/21).
        let mut client_days: BTreeMap<Ip4, [BTreeSet<u32>; 6]> = BTreeMap::new();
        for r in records {
            let c = m.clients.entry(r.client_ip).or_default();
            c.honeypots.insert(r.honeypot);
            c.leaf_honeypots[leaf(r)].insert(r.honeypot);
            c.leaves.insert(leaf(r));
            c.sessions += 1;
            c.hashes.extend(session_hashes(r));
            c.country = world.locate(r.client_ip).map(|info| info.country.0);
            let days = client_days.entry(r.client_ip).or_default();
            days[leaf(r)].insert(day(r));
            days[5].insert(day(r));
        }
        for (ip, days) in client_days {
            let c = m.clients.get_mut(&ip).expect("every client has a session");
            c.days = days[5].len() as u32;
            c.leaf_days = std::array::from_fn(|l| days[l].len() as u32);
        }

        // Tables 2 and 3, and the SSH client versions.
        for r in records {
            for l in r.logins.iter().filter(|l| l.accepted) {
                let key = (l.creds.username.to_string(), l.creds.password.to_string());
                *m.passwords.entry(key).or_insert(0) += 1;
            }
            for c in &r.commands {
                *m.commands.entry(c.input.clone()).or_insert(0) += 1;
            }
            if let Some(v) = &r.ssh_client_version {
                *m.ssh_versions.entry(v.clone()).or_insert(0) += 1;
            }
        }
        m
    }
}

/// Per hash: its sessions, clients, days and honeypots, and its first
/// sighting — the session that carried it with the earliest start, the
/// first collected of those that started in the same second.
fn hash_measures(records: &[SessionRecord]) -> BTreeMap<Digest, HashMeasures> {
    let mut carriers: BTreeMap<Digest, Vec<&SessionRecord>> = BTreeMap::new();
    for r in records {
        for h in session_hashes(r) {
            carriers.entry(h).or_default().push(r);
        }
    }
    carriers
        .into_iter()
        .map(|(h, carriers)| {
            let first = carriers
                .iter()
                .min_by_key(|r| r.start)
                .expect("a hash has a carrier");
            let hm = HashMeasures {
                sessions: carriers.len() as u64,
                clients: carriers.iter().map(|r| r.client_ip).collect(),
                days: carriers
                    .iter()
                    .map(|r| day(r))
                    .collect::<BTreeSet<_>>()
                    .len() as u32,
                first_day: day(first),
                first_honeypot: first.honeypot,
                honeypots: carriers.iter().map(|r| r.honeypot).collect(),
            };
            (h, hm)
        })
        .collect()
}

/// Fig. 17: for each day with a sighting, its distinct hashes and how many
/// had not been seen on any earlier day, nor in the 30 or 7 days before it
/// (a sighting on day `d` counts as recent on day `t` when `t − d < n`).
fn freshness(records: &[SessionRecord]) -> Vec<[u32; 5]> {
    let mut seen: BTreeMap<u32, BTreeSet<Digest>> = BTreeMap::new();
    for r in records {
        seen.entry(day(r)).or_default().extend(session_hashes(r));
    }
    let mut out = Vec::new();
    for (&t, hashes) in &seen {
        let seen_within = |h: &Digest, window: u32| {
            seen.range(..t)
                .any(|(&d, earlier)| t - d < window && earlier.contains(h))
        };
        let count = |window: u32| hashes.iter().filter(|h| !seen_within(h, window)).count() as u32;
        if !hashes.is_empty() {
            out.push([t, hashes.len() as u32, count(u32::MAX), count(30), count(7)]);
        }
    }
    out
}

/// The top 5 % of honeypots by sessions (⌈0.05·n⌉ of them, at least one),
/// busiest first, the lower index first among equals.
fn top5(hp_sessions: &[u64]) -> Vec<u16> {
    let mut order: Vec<u16> = (0..hp_sessions.len() as u16).collect();
    order.sort_by_key(|&hp| (std::cmp::Reverse(hp_sessions[hp as usize]), hp));
    order.truncate(hp_sessions.len().div_ceil(20).max(1));
    order
}

/// Figs 3/4/8/9: per day, the percentile band of the chosen honeypots'
/// session counts (zero for a honeypot with no session that day).
fn bands(m: &Measures, top5: &[u16]) -> BTreeMap<(String, u32), [f64; 5]> {
    let all: Vec<u16> = (0..m.n_honeypots as u16).collect();
    let mut out = BTreeMap::new();
    let mut series = |fig: String, matrix: &[u32], chosen: &[u16]| {
        for d in 0..m.n_days {
            let row = &matrix[d as usize * m.n_honeypots..];
            let mut v: Vec<u64> = chosen.iter().map(|&hp| row[hp as usize] as u64).collect();
            v.sort_unstable();
            let band = [0.05, 0.25, 0.5, 0.75, 0.95].map(|p| percentile(&v, p));
            out.insert((fig.clone(), d), band);
        }
    };
    series("fig3".to_string(), &m.day_hp_sessions, top5);
    series("fig4".to_string(), &m.day_hp_sessions, &all);
    for (l, name) in LEAVES.iter().enumerate() {
        series(format!("fig8.{name}"), &m.day_hp_leaf_sessions[l], &all);
        series(format!("fig9.{name}"), &m.day_hp_leaf_sessions[l], top5);
    }
    out
}

/// Section 9: weekly sessions by behaviour class — scanning (NO_CRED),
/// scouting (FAIL_LOG), intrusion (the three logged-in leaves) — when each
/// of the first two ramps up, and whether activity drops off at the end.
fn birth(records: &[SessionRecord], n_days: u32) -> Birth {
    let mut weeks = vec![[0u64; 3]; n_days.div_ceil(7) as usize];
    for r in records {
        weeks[(day(r) / 7) as usize][leaf(r).min(2)] += 1;
    }
    let rampup = |class: usize| {
        let base = weeks.first()?[class] as f64;
        (0..weeks.len() as u32).find(|&w| weeks[w as usize][class] as f64 >= 1.5 * base)
    };
    let months: Vec<u64> = weeks.chunks(4).map(|m| m.iter().flatten().sum()).collect();
    let peak = months.iter().copied().max().unwrap_or(0);
    let last_complete = if weeks.len() % 4 == 0 || months.len() < 2 {
        months.last().copied().unwrap_or(0)
    } else {
        months[months.len() - 2]
    };
    Birth {
        scouting_rampup_week: rampup(1),
        scanning_rampup_week: rampup(0),
        final_month_vs_peak: if peak == 0 {
            0.0
        } else {
            last_complete as f64 / peak as f64
        },
        weeks,
    }
}

/// Section 9's federation: each farm's first-sighting day per file hash,
/// pooled.
pub fn federation(farms: &[&[SessionRecord]]) -> Federation {
    let firsts: Vec<BTreeMap<Digest, u32>> = farms
        .iter()
        .map(|records| {
            let mut first = BTreeMap::new();
            for r in *records {
                for &h in &r.file_hashes {
                    let d = first.entry(h).or_insert(day(r));
                    *d = (*d).min(day(r));
                }
            }
            first
        })
        .collect();
    let per_farm: Vec<usize> = firsts.iter().map(BTreeMap::len).collect();
    let union: BTreeSet<Digest> = firsts.iter().flat_map(|f| f.keys().copied()).collect();
    let mut leads = Vec::new();
    let mut week_early_warnings = 0;
    for h in &union {
        let days: Vec<u32> = firsts.iter().filter_map(|f| f.get(h).copied()).collect();
        if days.len() < 2 {
            continue;
        }
        let earliest = *days.iter().min().expect("two days");
        let mean = days.iter().map(|&d| d as f64).sum::<f64>() / days.len() as f64;
        leads.push(mean - earliest as f64);
        week_early_warnings += days.iter().any(|&d| d - earliest >= 7) as usize;
    }
    let best = per_farm.iter().copied().max().unwrap_or(0);
    Federation {
        intersection: union
            .iter()
            .filter(|h| firsts.iter().all(|f| f.contains_key(h)))
            .count(),
        coverage_gain: if best == 0 {
            0.0
        } else {
            union.len() as f64 / best as f64
        },
        mean_detection_lead_days: if leads.is_empty() {
            0.0
        } else {
            leads.iter().sum::<f64>() / leads.len() as f64
        },
        week_early_warnings,
        union: union.len(),
        per_farm,
    }
}

/// The 24 cluster features of DESIGN §15, per client. Counts are integers
/// gathered here; only the final scaling is floating point: counts through
/// `ln(1 + n) / ln(1 + cap)`, rates and mixes as fractions, every cell
/// clamped to the unit interval with non-finite values mapped to 0.
fn features(records: &[SessionRecord], world: &World, plan: &FarmPlan) -> BTreeMap<Ip4, [f64; 24]> {
    let mut by_client: BTreeMap<Ip4, Vec<&SessionRecord>> = BTreeMap::new();
    for r in records {
        by_client.entry(r.client_ip).or_default().push(r);
    }
    let unit = hf_cluster::unit01;
    by_client
        .into_iter()
        .map(|(ip, sessions)| {
            let n = sessions.len() as f64;
            let count = |f: &dyn Fn(&SessionRecord) -> bool| {
                sessions.iter().filter(|r| f(r)).count() as f64
            };
            let first = sessions.iter().map(|r| r.start.0).min().expect("a session");
            let last = sessions.iter().map(|r| r.start.0).max().expect("a session");
            let gap = if sessions.len() > 1 {
                (last - first) as f64 / (n - 1.0)
            } else {
                0.0
            };
            let days: BTreeSet<u32> = sessions.iter().map(|r| day(r)).collect();
            let honeypots: BTreeSet<u16> = sessions.iter().map(|r| r.honeypot).collect();
            let duration: u64 = sessions.iter().map(|r| r.duration_secs as u64).sum();
            let attempts = sessions.iter().map(|r| r.logins.len()).sum::<usize>() as f64;
            let accepted = sessions
                .iter()
                .flat_map(|r| &r.logins)
                .filter(|l| l.accepted)
                .count() as f64;
            let creds: BTreeSet<(&str, &str)> = sessions
                .iter()
                .flat_map(|r| &r.logins)
                .map(|l| (&*l.creds.username, &*l.creds.password))
                .collect();
            let n_commands = sessions.iter().map(|r| r.commands.len()).sum::<usize>() as f64;
            let lines: BTreeSet<&str> = sessions
                .iter()
                .flat_map(|r| &r.commands)
                .map(|c| c.input.as_str())
                .collect();
            let mut heads = BTreeSet::new();
            let mut bigrams = BTreeSet::new();
            for r in &sessions {
                let session_heads: Vec<String> = r
                    .commands
                    .iter()
                    .flat_map(|c| split_statements(&c.input))
                    .flat_map(|stmt| stmt.pipeline)
                    .filter_map(|cmd| cmd.argv.into_iter().next())
                    .collect();
                for pair in session_heads.windows(2) {
                    bigrams.insert((pair[0].clone(), pair[1].clone()));
                }
                heads.extend(session_heads);
            }
            let idents: BTreeSet<&str> = sessions
                .iter()
                .filter_map(|r| r.ssh_client_version.as_deref())
                .collect();
            let files: BTreeSet<Digest> = sessions
                .iter()
                .flat_map(|r| r.file_hashes.iter().copied())
                .collect();
            let mut geo = [0.0; 4];
            for r in &sessions {
                geo[relation(world, plan, r).unwrap_or(3)] += 1.0;
            }
            let mut row = [0.0; 24];
            let cells = [
                log_unit(sessions.len(), 1_000_000.0),
                unit(honeypots.len() as f64 / plan.nodes.len() as f64),
                log_unit(days.len(), 486.0),
                unit(duration as f64 / n / 600.0),
                unit((1.0 + gap).ln() / (1.0f64 + 486.0 * 86_400.0).ln()),
                unit(attempts / n / 32.0),
                unit(creds.len() as f64 / attempts),
                unit(accepted / attempts),
                unit(n_commands / n / 64.0),
                log_unit(lines.len(), 4096.0),
                log_unit(heads.len(), 512.0),
                log_unit(bigrams.len(), 4096.0),
                unit(count(&|r| r.protocol == Protocol::Ssh) / n),
                log_unit(idents.len(), 64.0),
                unit(count(&|r| !r.uris.is_empty()) / n),
                log_unit(files.len(), 512.0),
            ];
            row[..16].copy_from_slice(&cells);
            for l in 0..5 {
                row[16 + l] = unit(count(&|r| leaf(r) == l) / n);
            }
            for g in 0..3 {
                row[21 + g] = unit(geo[g] / n);
            }
            (ip, row)
        })
        .collect()
}
