//! Traffic sources: scanning, scouting, no-command logins, file-less recon,
//! and the campaign planner.
//!
//! Each source turns a daily session budget (from its [`DailyCurve`]) into
//! [`SessionPlan`]s. Client churn is managed per source so daily-unique-IP
//! curves (Fig. 11), total client populations (Section 7.1), and multi-role
//! overlaps (Fig. 15) come out right.

use hf_farm::FarmPlan;
use hf_geo::{country, CountryMix, World};
use hf_hash::Fnv64;
use hf_proto::Protocol;
use hf_simclock::{Date, StudyWindow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::campaigns::{CampaignCatalog, TargetSet};
use crate::clients::{ClientPool, ClientRef, SpreadDist};
use crate::curves::DailyCurve;
use crate::plan::{Behavior, SessionPlan};
use crate::weights::{Dimension, HoneypotWeights};

/// Clients shared across sources so the same IP appears in several activity
/// categories (the paper's 40% multi-role finding).
#[derive(Debug, Default)]
pub struct SharedPools {
    /// Clients the scanner source has used.
    pub scanner_clients: Vec<ClientRef>,
    /// Clients the bruteforce source has used ("compromised" hosts).
    pub bruteforce_clients: Vec<ClientRef>,
}

/// Context handed to sources when planning a day.
pub struct PlanCtx<'a> {
    /// The synthetic Internet (IP allocation / geolocation).
    pub world: &'a World,
    /// Farm deployment (node countries, for locality-biased targeting).
    pub plan: &'a FarmPlan,
    /// The client pool.
    pub pool: &'a mut ClientPool,
    /// Cross-source client sharing.
    pub shared: &'a mut SharedPools,
}

impl PlanCtx<'_> {
    fn n_honeypots(&self) -> u16 {
        self.plan.len() as u16
    }
}

/// Common churn-managed client roster.
///
/// Clients join with a heavy-tailed lifetime — most last a single day, a
/// minority stick around for weeks — which is what produces the paper's
/// Fig. 13 shape (>50% of IPs active one day; a small stable core active
/// almost daily).
#[derive(Debug, Default)]
struct Roster {
    /// (client, expiry day): removed once `day >= expiry`.
    active: Vec<(ClientRef, u32)>,
    persistent: Vec<ClientRef>,
}

/// Sample a client lifetime in days (heavy-tailed).
fn sample_lifetime(rng: &mut SmallRng) -> u32 {
    match rng.gen_range(0..100) {
        0..=61 => 1,
        62..=84 => rng.gen_range(2..=5),
        85..=95 => rng.gen_range(6..=30),
        _ => rng.gen_range(31..=120),
    }
}

/// Spread distribution for a given lifetime: long-lived clients sweep wider
/// (the paper: "clients that interact more with the honeypots are likely to
/// contact more of them", Section 7.5).
fn spread_for_lifetime(lifetime: u32, base: SpreadDist) -> SpreadDist {
    if lifetime >= 6 {
        SpreadDist {
            single: 50,
            few: 470,
            many: 450,
            most: 30,
        }
    } else {
        base
    }
}

impl Roster {
    /// Expire members and top back up to `target` with fresh clients. The
    /// alloc closure receives the sampled lifetime so it can couple target
    /// spread to longevity.
    fn refresh(
        &mut self,
        day: u32,
        target: usize,
        rng: &mut SmallRng,
        alloc: impl FnMut(&mut SmallRng, u32) -> ClientRef,
    ) {
        self.refresh_min_lifetime(day, target, 1, rng, alloc);
    }

    /// `refresh` with a lifetime floor — stable populations like the
    /// datacenter NO_CMD prefix keep the same addresses for months.
    fn refresh_min_lifetime(
        &mut self,
        day: u32,
        target: usize,
        min_lifetime: u32,
        rng: &mut SmallRng,
        mut alloc: impl FnMut(&mut SmallRng, u32) -> ClientRef,
    ) {
        self.active.retain(|&(_, expiry)| expiry > day);
        while self.active.len() < target {
            let lifetime = sample_lifetime(rng).max(min_lifetime);
            let c = alloc(rng, lifetime);
            self.active.push((c, day + lifetime));
        }
        if self.active.len() > target * 2 {
            self.active.truncate(target);
        }
    }

    /// Pick a session actor: persistent clients get a small constant share.
    fn pick(&self, rng: &mut SmallRng) -> ClientRef {
        if !self.persistent.is_empty() && rng.gen_ratio(1, 50) {
            self.persistent[rng.gen_range(0..self.persistent.len())]
        } else if !self.active.is_empty() {
            self.active[rng.gen_range(0..self.active.len())].0
        } else {
            self.persistent[rng.gen_range(0..self.persistent.len())]
        }
    }
}

fn day_of(window: &StudyWindow, y: i32, m: u8, d: u8) -> u32 {
    window.day_index(Date::new(y, m, d)).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Scanner (NO_CRED)
// ---------------------------------------------------------------------------

/// Port scanners: connect, never log in. Telnet-dominated (78% — Table 1).
pub struct ScannerSource {
    curve: DailyCurve,
    norm: f64,
    total_sessions: u64,
    weights: HoneypotWeights,
    roster: Roster,
    mix: CountryMix,
    /// Daily active clients at curve level 1.0.
    clients_at_level1: usize,
    persistent_target: usize,
}

impl ScannerSource {
    /// Build from the ecosystem budget.
    pub fn new(seed: u64, total_sessions: u64, window: &StudyWindow, n_honeypots: u16) -> Self {
        let days = window.num_days();
        // Scanning ramps up ~2 months in (Fig. 11) and keeps a steady base;
        // variance grows toward the end of 2022 (Section 6 summary).
        let curve = DailyCurve::ramp(days, 0.45, 1.0, 55, 75, seed ^ 0xa1)
            .with_spike_on(window, Date::new(2022, 9, 5), 1, 2.0)
            .with_jitter(0.18);
        let norm = curve.total();
        ScannerSource {
            curve,
            norm,
            total_sessions,
            weights: HoneypotWeights::paper_shape(n_honeypots as usize, Dimension::Clients, 0),
            roster: Roster::default(),
            mix: CountryMix::scanning(),
            clients_at_level1: 0, // set on first day from volume
            persistent_target: 120,
        }
    }

    /// Emit this day's session plans.
    pub fn plan_day(
        &mut self,
        day: u32,
        ctx: &mut PlanCtx<'_>,
        rng: &mut SmallRng,
        out: &mut Vec<SessionPlan>,
    ) {
        let n = self.curve.sessions_on(day, self.total_sessions, self.norm);
        if n == 0 {
            return;
        }
        // ~15 sessions per client per day (Section 7.2 scale).
        if self.clients_at_level1 == 0 {
            self.clients_at_level1 =
                ((self.total_sessions as f64 / self.curve.days() as f64) / 15.0).ceil() as usize;
        }
        if self.roster.persistent.is_empty() {
            // The >100 IPs active nearly every day (Fig. 13).
            let nper = self.persistent_target;
            let n_honeypots = ctx.n_honeypots();
            for _ in 0..nper {
                let c = ctx.pool.alloc(
                    ctx.world,
                    &self.mix,
                    // Persistent scanners sweep widely.
                    SpreadDist {
                        single: 0,
                        few: 100,
                        many: 500,
                        most: 400,
                    },
                    n_honeypots,
                    rng,
                );
                self.roster.persistent.push(c);
                ctx.shared.scanner_clients.push(c);
            }
        }
        let target = ((self.clients_at_level1 as f64) * self.curve.level(day)).ceil() as usize;
        let n_honeypots = ctx.n_honeypots();
        let (world, mix, shared) = (ctx.world, &self.mix, &mut ctx.shared.scanner_clients);
        let pool = &mut *ctx.pool;
        self.roster
            .refresh(day, target.max(1), rng, |rng, lifetime| {
                let dist = spread_for_lifetime(lifetime, SpreadDist::paper_overall());
                let c = pool.alloc(world, mix, dist, n_honeypots, rng);
                shared.push(c);
                c
            });
        // Persistent scanners sweep every single day (the paper's >100 IPs
        // active on >90% of days) — one guaranteed session each, so the
        // fixed-size core never swamps the volume ramp at reduced scale.
        let n_persistent_sessions = self.roster.persistent.len() as u64;
        for &cref in self.roster.persistent.iter() {
            let client = ctx.pool.get(cref);
            let honeypot = client.pick_target(&self.weights, rng);
            out.push(SessionPlan {
                day,
                start_secs: rng.gen_range(0..86_400),
                honeypot,
                protocol: if rng.gen_range(0..10_000) < 7_818 {
                    Protocol::Telnet
                } else {
                    Protocol::Ssh
                },
                client: cref,
                behavior: Behavior::Scan {
                    linger_secs: rng.gen_range(0..8) as u16,
                },
                seed: rng.gen(),
            });
        }
        for _ in 0..n.saturating_sub(n_persistent_sessions) {
            let cref = self.roster.pick(rng);
            let client = ctx.pool.get(cref);
            let honeypot = client.pick_target(&self.weights, rng);
            // Telnet 78.18% of NO_CRED (Table 1).
            let protocol = if rng.gen_range(0..10_000) < 7_818 {
                Protocol::Telnet
            } else {
                Protocol::Ssh
            };
            // Durations: mostly instant client close, a few pre-auth timeouts.
            let linger = match rng.gen_range(0..100) {
                0..=84 => rng.gen_range(0..8) as u16,
                85..=94 => rng.gen_range(8..59) as u16,
                _ => 61, // hits the 60 s pre-auth timeout
            };
            out.push(SessionPlan {
                day,
                start_secs: rng.gen_range(0..86_400),
                honeypot,
                protocol,
                client: cref,
                behavior: Behavior::Scan {
                    linger_secs: linger,
                },
                seed: rng.gen(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Bruteforce (FAIL_LOG)
// ---------------------------------------------------------------------------

/// Brute-forcers: failed logins, overwhelmingly SSH (99.24%).
pub struct BruteforceSource {
    curve: DailyCurve,
    norm: f64,
    total_sessions: u64,
    weights: HoneypotWeights,
    roster: Roster,
    mix: CountryMix,
    clients_at_level1: usize,
    /// Spike days concentrate most volume on these honeypots.
    spike_days: Vec<u32>,
    spike_honeypots: Vec<u16>,
}

impl BruteforceSource {
    /// Build from the ecosystem budget.
    pub fn new(seed: u64, total_sessions: u64, window: &StudyWindow, n_honeypots: u16) -> Self {
        let days = window.num_days();
        let sep5 = day_of(window, 2022, 9, 5);
        let nov5 = day_of(window, 2022, 11, 5);
        let spring = day_of(window, 2022, 3, 15);
        // Scouting ramps up after ~1 month; big dated spikes (Figs. 3, 8b).
        let curve = DailyCurve::ramp(days, 0.5, 1.0, 30, 45, seed ^ 0xb2)
            .with_spike_on(window, Date::new(2022, 9, 5), 1, 8.0)
            .with_spike_on(window, Date::new(2022, 11, 5), 1, 4.0)
            .with_spike_on(window, Date::new(2022, 3, 15), 45, 1.5)
            .with_jitter(0.15);
        let norm = curve.total();
        let mut srng = SmallRng::seed_from_u64(seed ^ 0x0001_9a9e);
        let spike_honeypots: Vec<u16> = (0..3).map(|_| srng.gen_range(0..n_honeypots)).collect();
        BruteforceSource {
            curve,
            norm,
            total_sessions,
            weights: HoneypotWeights::paper_shape(n_honeypots as usize, Dimension::Sessions, 0),
            roster: Roster::default(),
            mix: CountryMix::scouting(),
            clients_at_level1: 0,
            spike_days: vec![sep5, nov5, spring],
            spike_honeypots,
        }
    }

    /// Emit this day's session plans.
    pub fn plan_day(
        &mut self,
        day: u32,
        ctx: &mut PlanCtx<'_>,
        rng: &mut SmallRng,
        out: &mut Vec<SessionPlan>,
    ) {
        let n = self.curve.sessions_on(day, self.total_sessions, self.norm);
        if n == 0 {
            return;
        }
        if self.clients_at_level1 == 0 {
            // ~50 sessions/client/day: brute-forcers hammer.
            self.clients_at_level1 =
                ((self.total_sessions as f64 / self.curve.days() as f64) / 50.0).ceil() as usize;
        }
        let target =
            ((self.clients_at_level1 as f64) * self.curve.level(day).min(2.0)).ceil() as usize;
        {
            let (world, mix, shared, scanners, n_honeypots) = (
                ctx.world,
                &self.mix,
                &mut ctx.shared.bruteforce_clients,
                &ctx.shared.scanner_clients,
                ctx.plan.len() as u16,
            );
            let pool = &mut *ctx.pool;
            self.roster
                .refresh(day, target.max(1), rng, |rng, lifetime| {
                    // Most brute-forcers are multi-role IPs that also scan (Fig. 15).
                    let c = if !scanners.is_empty() && rng.gen_ratio(80, 100) {
                        scanners[rng.gen_range(0..scanners.len())]
                    } else {
                        let dist = spread_for_lifetime(lifetime, SpreadDist::paper_scouting());
                        pool.alloc(world, mix, dist, n_honeypots, rng)
                    };
                    shared.push(c);
                    c
                });
        }
        let is_spike = self.spike_days.contains(&day);
        for _ in 0..n {
            let cref = self.roster.pick(rng);
            let client = ctx.pool.get(cref);
            // Spike volume concentrates on 3 honeypots (Fig. 9 observation).
            let honeypot = if is_spike && rng.gen_ratio(7, 10) {
                self.spike_honeypots[rng.gen_range(0..self.spike_honeypots.len())]
            } else {
                client.pick_target(&self.weights, rng)
            };
            let protocol = if rng.gen_range(0..10_000) < 76 {
                Protocol::Telnet
            } else {
                Protocol::Ssh
            };
            let attempts = match rng.gen_range(0..10) {
                0..=4 => 1u8,
                5..=7 => 2,
                _ => 3,
            };
            out.push(SessionPlan {
                day,
                start_secs: rng.gen_range(0..86_400),
                honeypot,
                protocol,
                client: cref,
                behavior: Behavior::Scout { attempts },
                seed: rng.gen(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// No-command logins (NO_CMD)
// ---------------------------------------------------------------------------

/// Clients that log in successfully and then do nothing. Dominated by one
/// Russian-datacenter prefix active at the start and end of the window.
pub struct NoCmdSource {
    baseline_curve: DailyCurve,
    prefix_curve: DailyCurve,
    baseline_norm: f64,
    prefix_norm: f64,
    baseline_total: u64,
    prefix_total: u64,
    weights: HoneypotWeights,
    baseline_roster: Roster,
    prefix_roster: Roster,
    mix: CountryMix,
    prefix_asn: Option<hf_geo::Asn>,
    clients_at_level1: usize,
}

impl NoCmdSource {
    /// Build from the ecosystem budget.
    pub fn new(seed: u64, total_sessions: u64, window: &StudyWindow, n_honeypots: u16) -> Self {
        let days = window.num_days();
        let end_start = days.saturating_sub(106); // ~mid-Dec 2022 onward
                                                  // The datacenter prefix: strong at the start (first ~90 days) and the
                                                  // end (last ~106 days) of the window — Fig. 6's >20% NO_CMD share.
        let prefix_curve = DailyCurve::flat(days, seed ^ 0xc3)
            .set_range(90, end_start, 0.0)
            .set_range(0, 90, 0.8)
            .set_range(end_start, days, 1.0)
            .with_jitter(0.2);
        let baseline_curve = DailyCurve::flat(days, seed ^ 0xc4).with_jitter(0.25);
        let prefix_total = (total_sessions as f64 * 0.8) as u64;
        let baseline_total = total_sessions - prefix_total;
        let prefix_norm = prefix_curve.total();
        let baseline_norm = baseline_curve.total();
        NoCmdSource {
            baseline_curve,
            prefix_curve,
            baseline_norm,
            prefix_norm,
            baseline_total,
            prefix_total,
            // Shares the Sessions-dimension hot set (same permutation for a
            // given farm) so per-honeypot popularity compounds instead of
            // flattening across sources — Fig. 2's >30x spread.
            weights: HoneypotWeights::paper_shape(n_honeypots as usize, Dimension::Sessions, 0),
            baseline_roster: Roster::default(),
            prefix_roster: Roster::default(),
            mix: CountryMix::no_cmd(),
            prefix_asn: None,
            clients_at_level1: 0,
        }
    }

    /// Emit this day's session plans.
    pub fn plan_day(
        &mut self,
        day: u32,
        ctx: &mut PlanCtx<'_>,
        rng: &mut SmallRng,
        out: &mut Vec<SessionPlan>,
    ) {
        let n_base = self
            .baseline_curve
            .sessions_on(day, self.baseline_total, self.baseline_norm);
        let n_prefix = self
            .prefix_curve
            .sessions_on(day, self.prefix_total, self.prefix_norm);
        if self.clients_at_level1 == 0 {
            self.clients_at_level1 =
                ((self.baseline_total as f64 / self.baseline_curve.days() as f64) / 25.0).ceil()
                    as usize;
        }
        // Resolve the Russian datacenter AS once.
        if self.prefix_asn.is_none() {
            let ru = country::by_code("RU").expect("RU in catalog");
            let mut candidates = ctx.world.ases_in(ru);
            candidates.sort();
            self.prefix_asn = candidates.first().copied();
        }
        let n_honeypots = ctx.n_honeypots();

        // Baseline churn.
        {
            let (world, mix) = (ctx.world, &self.mix);
            let pool = &mut *ctx.pool;
            let scanners = &ctx.shared.scanner_clients;
            self.baseline_roster.refresh(
                day,
                ((self.clients_at_level1 as f64) * self.baseline_curve.level(day)).ceil() as usize,
                rng,
                |rng, lifetime| {
                    if !scanners.is_empty() && rng.gen_ratio(70, 100) {
                        scanners[rng.gen_range(0..scanners.len())]
                    } else {
                        let dist = spread_for_lifetime(lifetime, SpreadDist::paper_overall());
                        pool.alloc(world, mix, dist, n_honeypots, rng)
                    }
                },
            );
        }
        // Prefix churn: big dense population from one AS; wide spread.
        if n_prefix > 0 {
            let asn = self.prefix_asn;
            let world = ctx.world;
            let pool = &mut *ctx.pool;
            let target = (n_prefix / 12).clamp(1, 400_000) as usize;
            self.prefix_roster.refresh_min_lifetime(
                day,
                target,
                90,
                rng,
                |rng, _lifetime| match asn {
                    Some(a) => pool.alloc_in_as(
                        world,
                        a,
                        SpreadDist {
                            single: 100,
                            few: 300,
                            many: 450,
                            most: 150,
                        },
                        n_honeypots,
                        rng,
                    ),
                    None => pool.alloc(
                        world,
                        &CountryMix::no_cmd(),
                        SpreadDist::paper_overall(),
                        n_honeypots,
                        rng,
                    ),
                },
            );
        }
        for (count, roster) in [
            (n_base, &self.baseline_roster),
            (n_prefix, &self.prefix_roster),
        ] {
            if roster.active.is_empty() && roster.persistent.is_empty() {
                continue;
            }
            for _ in 0..count {
                let cref = roster.pick(rng);
                let client = ctx.pool.get(cref);
                let honeypot = client.pick_target(&self.weights, rng);
                let protocol = if rng.gen_range(0..10_000) < 170 {
                    Protocol::Telnet
                } else {
                    Protocol::Ssh
                };
                out.push(SessionPlan {
                    day,
                    start_secs: rng.gen_range(0..86_400),
                    honeypot,
                    protocol,
                    client: cref,
                    // >90% of NO_CMD sessions end in the idle timeout (Fig. 7).
                    behavior: Behavior::LoginIdle {
                        idle_to_timeout: rng.gen_range(0..100) < 92,
                    },
                    seed: rng.gen(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// File-less recon (CMD without file events)
// ---------------------------------------------------------------------------

/// Logged-in sessions that run sysinfo commands but never write files — two
/// thirds of command activity (Section 8.1).
pub struct ReconSource {
    curve: DailyCurve,
    norm: f64,
    total_sessions: u64,
    weights: HoneypotWeights,
    roster: Roster,
    mix: CountryMix,
    clients_at_level1: usize,
}

impl ReconSource {
    /// Build from the ecosystem budget.
    pub fn new(seed: u64, total_sessions: u64, window: &StudyWindow, n_honeypots: u16) -> Self {
        let days = window.num_days();
        let jul22 = day_of(window, 2022, 7, 15);
        let jan23 = day_of(window, 2023, 1, 1);
        // Fig. 9(c): intense until July 2022, drop, rise again in 2023 Q1.
        let curve = DailyCurve::ramp(days, 0.7, 1.2, 55, 70, seed ^ 0xd5)
            .set_range(jul22, jan23, 0.45)
            .with_spike_on(window, Date::new(2023, 1, 5), 80, 2.2)
            .with_jitter(0.2);
        let norm = curve.total();
        ReconSource {
            curve,
            norm,
            total_sessions,
            weights: HoneypotWeights::paper_shape(n_honeypots as usize, Dimension::Sessions, 0),
            roster: Roster::default(),
            mix: CountryMix::command(),
            clients_at_level1: 0,
        }
    }

    /// Emit this day's session plans.
    pub fn plan_day(
        &mut self,
        day: u32,
        ctx: &mut PlanCtx<'_>,
        rng: &mut SmallRng,
        out: &mut Vec<SessionPlan>,
    ) {
        let n = self.curve.sessions_on(day, self.total_sessions, self.norm);
        if n == 0 {
            return;
        }
        if self.clients_at_level1 == 0 {
            self.clients_at_level1 =
                ((self.total_sessions as f64 / self.curve.days() as f64) / 11.0).ceil() as usize;
        }
        let target = ((self.clients_at_level1 as f64) * self.curve.level(day)).ceil() as usize;
        {
            let (world, mix, bruteforce, scanners, n_honeypots) = (
                ctx.world,
                &self.mix,
                &ctx.shared.bruteforce_clients,
                &ctx.shared.scanner_clients,
                ctx.plan.len() as u16,
            );
            let pool = &mut *ctx.pool;
            self.roster
                .refresh(day, target.max(1), rng, |rng, lifetime| {
                    // Most intruders reuse brute-force IPs; some reuse scanners.
                    let x = rng.gen_range(0..100);
                    if x < 40 && !bruteforce.is_empty() {
                        bruteforce[rng.gen_range(0..bruteforce.len())]
                    } else if x < 85 && !scanners.is_empty() {
                        scanners[rng.gen_range(0..scanners.len())]
                    } else {
                        let dist = spread_for_lifetime(lifetime, SpreadDist::paper_overall());
                        pool.alloc(world, mix, dist, n_honeypots, rng)
                    }
                });
        }
        for _ in 0..n {
            let cref = self.roster.pick(rng);
            let client = ctx.pool.get(cref);
            let honeypot = client.pick_target(&self.weights, rng);
            let protocol = if rng.gen_range(0..10_000) < 450 {
                Protocol::Telnet
            } else {
                Protocol::Ssh
            };
            out.push(SessionPlan {
                day,
                start_secs: rng.gen_range(0..86_400),
                honeypot,
                protocol,
                client: cref,
                behavior: Behavior::Recon {
                    variant: rng.gen_range(0..64),
                },
                seed: rng.gen(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign planner
// ---------------------------------------------------------------------------

/// Per-campaign runtime state.
struct CampaignState {
    roster: Vec<ClientRef>,
    targets: Vec<u16>,
}

/// Plans the catalog's campaigns.
pub struct CampaignPlanner {
    states: Vec<Option<CampaignState>>,
    /// Campaign ids indexed by active day (precomputed for O(active) days).
    by_day: Vec<Vec<u32>>,
}

impl CampaignPlanner {
    /// Precompute the day → campaign index.
    pub fn new(catalog: &CampaignCatalog, window_days: u32) -> Self {
        let mut by_day = vec![Vec::new(); window_days as usize];
        for spec in catalog.specs() {
            for &d in &spec.active_days {
                if (d as usize) < by_day.len() {
                    by_day[d as usize].push(spec.id.0);
                }
            }
        }
        CampaignPlanner {
            states: (0..catalog.len()).map(|_| None).collect(),
            by_day,
        }
    }

    /// Emit all campaign sessions for a day.
    pub fn plan_day(
        &mut self,
        day: u32,
        catalog: &CampaignCatalog,
        ctx: &mut PlanCtx<'_>,
        rng: &mut SmallRng,
        out: &mut Vec<SessionPlan>,
    ) {
        let Some(ids) = self.by_day.get(day as usize) else {
            return;
        };
        for &cid in ids.clone().iter() {
            let spec = catalog.get(crate::campaigns::CampaignId(cid));
            let n = spec.sessions_on(day);
            if n == 0 {
                continue;
            }
            let n_honeypots = ctx.n_honeypots();
            // Lazily build roster + target cache.
            if self.states[cid as usize].is_none() {
                let mut roster = Vec::with_capacity(spec.n_clients as usize);
                // Reuse is gated by target-set size: small (tail) campaigns
                // recycle multi-role IPs freely, but broad botnet campaigns
                // recruit fresh nodes — otherwise reused single-spread
                // scanners would be dragged across hundreds of honeypots and
                // the Fig. 12 "40% contact exactly one" bucket would drain.
                let subset_size = match spec.targets {
                    TargetSet::Subset { size, .. }
                    | TargetSet::LocalSubset { size, .. }
                    | TargetSet::HashWeightedSubset { size, .. } => size,
                };
                let reuse = if subset_size <= 10 {
                    spec.reuse_bruteforce_permille
                } else {
                    150
                };
                for _ in 0..spec.n_clients {
                    // Reused clients split between the brute-force pool and
                    // the (much larger) scanner pool, maximizing distinct
                    // multi-role IPs (Fig. 15).
                    let x = rng.gen_range(0..1000);
                    let c = if x < reuse / 2 && !ctx.shared.bruteforce_clients.is_empty() {
                        let b = &ctx.shared.bruteforce_clients;
                        b[rng.gen_range(0..b.len())]
                    } else if x < reuse && !ctx.shared.scanner_clients.is_empty() {
                        let sc = &ctx.shared.scanner_clients;
                        sc[rng.gen_range(0..sc.len())]
                    } else {
                        ctx.pool.alloc(
                            ctx.world,
                            &spec.origin,
                            SpreadDist::paper_overall(),
                            n_honeypots,
                            rng,
                        )
                    };
                    roster.push(c);
                }
                self.states[cid as usize] = Some(CampaignState {
                    roster,
                    targets: spec.target_nodes(n_honeypots),
                });
            }
            let state = self.states[cid as usize].as_ref().unwrap();
            // Position of this day in the campaign's life, for the rolling
            // client window (clients are active on consecutive days).
            let day_idx = spec.active_days.binary_search(&day).unwrap_or(0);
            let n_days = spec.active_days.len();
            let len = state.roster.len().max(1);
            let window = (3 * len / n_days.max(1)).clamp(1, len);
            let base = day_idx * len / n_days.max(1);
            for _ in 0..n {
                let offset = rng.gen_range(0..window);
                let cref = state.roster[(base + offset) % len];
                let client = ctx.pool.get(cref);
                // Locality bias for URI campaigns (Fig. 16b): prefer a target
                // honeypot on the client's continent when one exists.
                // Otherwise a client's sessions stay within its own stable
                // slice of the campaign subset (bounded by its spread), so a
                // botnet with thousands of nodes covers the whole subset
                // collectively while each member contacts few honeypots —
                // the coexistence of Fig. 12's 40%-single bucket with
                // Table 4's "221-honeypot" campaigns.
                let honeypot = match spec.targets {
                    TargetSet::LocalSubset { .. } if rng.gen_range(0..100) < 45 => {
                        let cont = hf_geo::country::continent(client.country);
                        let local: Vec<u16> = state
                            .targets
                            .iter()
                            .copied()
                            .filter(|&h| {
                                hf_geo::country::continent(ctx.plan.node(h).country) == cont
                            })
                            .collect();
                        if local.is_empty() {
                            state.targets[rng.gen_range(0..state.targets.len())]
                        } else {
                            local[rng.gen_range(0..local.len())]
                        }
                    }
                    _ => {
                        // Few-client campaigns (H2's 3 IPs on 202 honeypots)
                        // need each member to sweep widely; botnets with
                        // thousands of members let each stay narrow.
                        let min_k = (2 * state.targets.len()).div_ceil(state.roster.len().max(1));
                        let k = (client.spread as usize)
                            .max(min_k)
                            .clamp(1, state.targets.len());
                        let j = rng.gen_range(0..k) as u64;
                        let slot = Fnv64::new()
                            .mix_u64(client.seed)
                            .mix(b"campaign-slice")
                            .mix_u64(j)
                            .finish() as usize
                            % state.targets.len();
                        state.targets[slot]
                    }
                };
                let protocol = if rng.gen_range(0..1000) < spec.telnet_permille {
                    Protocol::Telnet
                } else {
                    Protocol::Ssh
                };
                out.push(SessionPlan {
                    day,
                    start_secs: rng.gen_range(0..86_400),
                    honeypot,
                    protocol,
                    client: cref,
                    behavior: Behavior::Script { campaign: spec.id },
                    seed: rng.gen(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use hf_geo::WorldConfig;

    fn fixtures() -> (World, FarmPlan) {
        (World::build(3, &WorldConfig::tiny()), FarmPlan::paper())
    }

    fn ctx<'a>(
        world: &'a World,
        plan: &'a FarmPlan,
        pool: &'a mut ClientPool,
        shared: &'a mut SharedPools,
    ) -> PlanCtx<'a> {
        PlanCtx {
            world,
            plan,
            pool,
            shared,
        }
    }

    #[test]
    fn scanner_emits_no_cred_plans() {
        let (world, plan) = fixtures();
        let mut pool = ClientPool::new();
        let mut shared = SharedPools::default();
        let window = StudyWindow::first_days(30);
        let mut src = ScannerSource::new(1, 30_000, &window, 221);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        let mut c = ctx(&world, &plan, &mut pool, &mut shared);
        src.plan_day(5, &mut c, &mut rng, &mut out);
        assert!(!out.is_empty());
        assert!(out
            .iter()
            .all(|p| matches!(p.behavior, Behavior::Scan { .. })));
        // Telnet-dominated.
        let telnet = out
            .iter()
            .filter(|p| p.protocol == Protocol::Telnet)
            .count();
        assert!(telnet * 10 > out.len() * 7, "{telnet}/{}", out.len());
        assert!(!shared.scanner_clients.is_empty());
    }

    #[test]
    fn bruteforce_is_ssh_and_fails() {
        let (world, plan) = fixtures();
        let mut pool = ClientPool::new();
        let mut shared = SharedPools::default();
        let window = StudyWindow::first_days(60);
        let mut src = BruteforceSource::new(2, 60_000, &window, 221);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        let mut c = ctx(&world, &plan, &mut pool, &mut shared);
        src.plan_day(40, &mut c, &mut rng, &mut out);
        assert!(!out.is_empty());
        let ssh = out.iter().filter(|p| p.protocol == Protocol::Ssh).count();
        assert!(ssh * 100 > out.len() * 95);
        assert!(out
            .iter()
            .all(|p| matches!(p.behavior, Behavior::Scout { attempts: 1..=3 })));
    }

    #[test]
    fn bruteforce_ramps_up_after_a_month() {
        let (world, plan) = fixtures();
        let mut pool = ClientPool::new();
        let mut shared = SharedPools::default();
        let window = StudyWindow::paper();
        let mut src = BruteforceSource::new(2, 1_000_000, &window, 221);
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut early, mut late) = (Vec::new(), Vec::new());
        let mut c = ctx(&world, &plan, &mut pool, &mut shared);
        src.plan_day(10, &mut c, &mut rng, &mut early);
        src.plan_day(100, &mut c, &mut rng, &mut late);
        assert!(late.len() as f64 > early.len() as f64 * 1.5);
    }

    #[test]
    fn nocmd_prefix_windows() {
        let (world, plan) = fixtures();
        let mut pool = ClientPool::new();
        let mut shared = SharedPools::default();
        let window = StudyWindow::paper();
        let mut src = NoCmdSource::new(4, 500_000, &window, 221);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut c = ctx(&world, &plan, &mut pool, &mut shared);
        let (mut start, mut middle, mut end) = (Vec::new(), Vec::new(), Vec::new());
        src.plan_day(20, &mut c, &mut rng, &mut start);
        src.plan_day(250, &mut c, &mut rng, &mut middle);
        src.plan_day(450, &mut c, &mut rng, &mut end);
        assert!(
            start.len() > middle.len() * 3,
            "{} vs {}",
            start.len(),
            middle.len()
        );
        assert!(end.len() > middle.len() * 3);
        assert!(start
            .iter()
            .all(|p| matches!(p.behavior, Behavior::LoginIdle { .. })));
    }

    #[test]
    fn campaign_planner_respects_catalog() {
        let (world, plan) = fixtures();
        let mut pool = ClientPool::new();
        let mut shared = SharedPools::default();
        let window = StudyWindow::paper();
        let catalog = CampaignCatalog::build(7, &Scale::tiny(), &window);
        let mut planner = CampaignPlanner::new(&catalog, window.num_days());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = Vec::new();
        let mut c = ctx(&world, &plan, &mut pool, &mut shared);
        // H1 is active nearly every day; day 100 must include it.
        planner.plan_day(100, &catalog, &mut c, &mut rng, &mut out);
        let h1 = catalog.by_name("H1").unwrap().id;
        assert!(out
            .iter()
            .any(|p| p.behavior == Behavior::Script { campaign: h1 }));
        // All campaign targets are valid honeypot ids.
        assert!(out.iter().all(|p| (p.honeypot as usize) < plan.len()));
    }

    #[test]
    fn campaign_planner_day_totals_match_specs() {
        let (world, plan) = fixtures();
        let mut pool = ClientPool::new();
        let mut shared = SharedPools::default();
        let window = StudyWindow::paper();
        let catalog = CampaignCatalog::build(8, &Scale::tiny(), &window);
        let mut planner = CampaignPlanner::new(&catalog, window.num_days());
        let mut rng = SmallRng::seed_from_u64(6);
        let mut out = Vec::new();
        let mut c = ctx(&world, &plan, &mut pool, &mut shared);
        planner.plan_day(100, &catalog, &mut c, &mut rng, &mut out);
        let mut per_campaign: std::collections::HashMap<u32, u64> = Default::default();
        for p in &out {
            if let Behavior::Script { campaign } = p.behavior {
                *per_campaign.entry(campaign.0).or_default() += 1;
            }
        }
        for (cid, count) in per_campaign {
            let spec = catalog.get(crate::campaigns::CampaignId(cid));
            assert_eq!(count, spec.sessions_on(100), "campaign {}", spec.name);
        }
    }

    #[test]
    fn mirai77_campaign_targets_subset_only() {
        let (world, plan) = fixtures();
        let mut pool = ClientPool::new();
        let mut shared = SharedPools::default();
        let window = StudyWindow::paper();
        let catalog = CampaignCatalog::build(9, &Scale::tiny(), &window);
        let mut planner = CampaignPlanner::new(&catalog, window.num_days());
        let mut rng = SmallRng::seed_from_u64(7);
        let h24 = catalog.by_name("H24").unwrap();
        let allowed: std::collections::BTreeSet<u16> = h24.target_nodes(221).into_iter().collect();
        let mut out = Vec::new();
        let mut c = ctx(&world, &plan, &mut pool, &mut shared);
        // Sessions are spread sparsely across active days at tiny scale;
        // plan exactly the days that carry them.
        for &d in h24.active_days.iter().filter(|&&d| h24.sessions_on(d) > 0) {
            planner.plan_day(d, &catalog, &mut c, &mut rng, &mut out);
        }
        let h24_plans: Vec<&SessionPlan> = out
            .iter()
            .filter(|p| p.behavior == Behavior::Script { campaign: h24.id })
            .collect();
        assert!(!h24_plans.is_empty());
        assert!(h24_plans.iter().all(|p| allowed.contains(&p.honeypot)));
    }
}
