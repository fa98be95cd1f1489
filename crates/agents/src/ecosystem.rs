//! Ecosystem assembly: one seed → the whole synthetic Internet's attacker
//! population, calibrated to the paper's published aggregates.

use hf_farm::FarmPlan;
use hf_geo::{World, WorldConfig};
use hf_hash::Fnv64;
use hf_simclock::StudyWindow;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::campaigns::CampaignCatalog;
use crate::clients::{Client, ClientPool, ClientRef};
use crate::credentials::CredentialModel;
use crate::plan::SessionPlan;
use crate::scale::{checked_u32, checked_u64, Scale};
use crate::sources::{
    BruteforceSource, CampaignPlanner, NoCmdSource, PlanCtx, ReconSource, ScannerSource,
    SharedPools,
};

/// Paper volume constants (scale 1.0).
mod paper {
    /// Total sessions over the window ("more than 402 million").
    pub const TOTAL_SESSIONS: f64 = 402_000_000.0;
    /// Category fractions (Table 1).
    pub const FRAC_NO_CRED: f64 = 0.277;
    pub const FRAC_FAIL_LOG: f64 = 0.42;
    pub const FRAC_NO_CMD: f64 = 0.116;
    /// CMD recon (file-less) share: CMD total 18% minus what the campaign
    /// catalog provides (H1 ≈ 6.4%, headliners ≈ 0.2%, tail ≈ 0.4%).
    pub const FRAC_RECON: f64 = 0.18 - 0.0704;
}

/// Configuration of a full ecosystem.
#[derive(Debug, Clone)]
pub struct EcosystemConfig {
    /// Root seed: everything derives from it.
    pub seed: u64,
    /// Volume scale.
    pub scale: Scale,
    /// Observation window.
    pub window: StudyWindow,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            seed: 0x0e0e_fa20,
            scale: Scale::default_bench(),
            window: StudyWindow::paper(),
        }
    }
}

/// The assembled ecosystem.
pub struct Ecosystem {
    /// Configuration used to build it.
    pub config: EcosystemConfig,
    /// The synthetic Internet.
    pub world: World,
    /// The farm deployment.
    pub plan: FarmPlan,
    /// The campaign catalog.
    pub catalog: CampaignCatalog,
    /// The credential model (Table 2 calibrated).
    pub creds: CredentialModel,
    pool: ClientPool,
    shared: SharedPools,
    scanner: ScannerSource,
    bruteforce: BruteforceSource,
    nocmd: NoCmdSource,
    recon: ReconSource,
    campaigns: CampaignPlanner,
}

impl Ecosystem {
    /// Build everything from a config.
    pub fn new(config: EcosystemConfig) -> Self {
        let seed = config.seed;
        let scale = config.scale;
        let window = config.window;
        // AS breadth scales sub-linearly, like hash diversity.
        let world_cfg = WorldConfig {
            client_as_count: Self::client_as_count(&scale),
            ..WorldConfig::default()
        };
        let world = World::build(
            Fnv64::new().mix_u64(seed).mix(b"world").finish(),
            &world_cfg,
        );
        let plan = FarmPlan::paper();
        let n_honeypots = plan.len() as u16;
        let catalog = CampaignCatalog::build(
            Fnv64::new().mix_u64(seed).mix(b"catalog").finish(),
            &scale,
            &window,
        );
        let total = Self::session_budget_f64(&scale, &window);
        let scanner = ScannerSource::new(
            Fnv64::new().mix_u64(seed).mix(b"scan").finish(),
            checked_u64(total * paper::FRAC_NO_CRED, "NO_CRED budget"),
            &window,
            n_honeypots,
        );
        let bruteforce = BruteforceSource::new(
            Fnv64::new().mix_u64(seed).mix(b"brute").finish(),
            checked_u64(total * paper::FRAC_FAIL_LOG, "FAIL_LOG budget"),
            &window,
            n_honeypots,
        );
        let nocmd = NoCmdSource::new(
            Fnv64::new().mix_u64(seed).mix(b"nocmd").finish(),
            checked_u64(total * paper::FRAC_NO_CMD, "NO_CMD budget"),
            &window,
            n_honeypots,
        );
        let recon = ReconSource::new(
            Fnv64::new().mix_u64(seed).mix(b"recon").finish(),
            checked_u64(total * paper::FRAC_RECON, "CMD recon budget"),
            &window,
            n_honeypots,
        );
        let campaigns = CampaignPlanner::new(&catalog, window.num_days());
        Ecosystem {
            config,
            world,
            plan,
            catalog,
            creds: CredentialModel::new(),
            pool: ClientPool::new(),
            shared: SharedPools::default(),
            scanner,
            bruteforce,
            nocmd,
            recon,
            campaigns,
        }
    }

    /// Sub-linear AS breadth for the synthetic Internet (paper: 17,700 client
    /// ASes at full scale; small runs keep at least 300 so geography stays
    /// plausible). Checked: an absurd hash scale panics instead of silently
    /// saturating `u32`.
    pub fn client_as_count(scale: &Scale) -> u32 {
        checked_u32((17_700.0 * scale.hashes).ceil(), "client AS count").max(300)
    }

    /// Session budget for a scale and window, before the per-source category
    /// split. Truncated windows (tests) get a proportional share of the
    /// volume. Kept as `f64` so the category fractions below multiply the
    /// exact proportional value; the checked truncation happens per source.
    fn session_budget_f64(scale: &Scale, window: &StudyWindow) -> f64 {
        let window_frac = window.num_days() as f64 / StudyWindow::paper().num_days() as f64;
        scale.count(paper::TOTAL_SESSIONS) as f64 * window_frac
    }

    /// `Self::session_budget_f64` as a checked integer count — the total
    /// the traffic sources are sized from.
    pub fn session_budget(scale: &Scale, window: &StudyWindow) -> u64 {
        checked_u64(Self::session_budget_f64(scale, window), "session budget")
    }

    /// Expected session total for the configured scale and window — the
    /// budget the traffic sources were sized from. Actual counts drift a
    /// little (per-day rounding, diurnal shaping), so treat this as a
    /// capacity hint, not an exact count.
    pub fn estimated_sessions(&self) -> usize {
        usize::try_from(Self::session_budget(
            &self.config.scale,
            &self.config.window,
        ))
        .expect("session budget overflows usize")
    }

    /// Plan all sessions for one day.
    ///
    /// The returned vector is in a *total* deterministic order — sorted by
    /// `(start_secs, honeypot, client, seed)`, a key that is unique per plan
    /// in practice — not merely chronological. Downstream consumers rely on
    /// this: `hf-sim` executes the vector in batches and ingests them in
    /// order, which is only reproducible because the order here is already
    /// fully determined.
    pub fn plan_day(&mut self, day: u32) -> Vec<SessionPlan> {
        let mut out = Vec::new();
        let seed = self.config.seed;
        let mut ctx = PlanCtx {
            world: &self.world,
            plan: &self.plan,
            pool: &mut self.pool,
            shared: &mut self.shared,
        };
        let rng_for = |tag: &[u8]| {
            SmallRng::seed_from_u64(
                Fnv64::new()
                    .mix_u64(seed)
                    .mix(tag)
                    .mix_u64(day as u64)
                    .finish(),
            )
        };
        self.scanner
            .plan_day(day, &mut ctx, &mut rng_for(b"scan"), &mut out);
        self.bruteforce
            .plan_day(day, &mut ctx, &mut rng_for(b"brute"), &mut out);
        self.nocmd
            .plan_day(day, &mut ctx, &mut rng_for(b"nocmd"), &mut out);
        self.recon
            .plan_day(day, &mut ctx, &mut rng_for(b"recon"), &mut out);
        self.campaigns.plan_day(
            day,
            &self.catalog,
            &mut ctx,
            &mut rng_for(b"campaign"),
            &mut out,
        );
        // Total deterministic order (see the doc comment above): ties on
        // start time are broken by honeypot, client, and per-plan seed.
        out.sort_by_key(|p| (p.start_secs, p.honeypot, p.client.0, p.seed));
        out
    }

    /// Look up a planned client.
    pub fn client(&self, r: ClientRef) -> &Client {
        self.pool.get(r)
    }

    /// Number of distinct clients allocated so far.
    pub fn n_clients(&self) -> usize {
        self.pool.len()
    }

    /// Read access to the client pool (the simulator resolves plan clients
    /// through this).
    pub fn pool_ref(&self) -> &ClientPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Behavior;

    fn tiny_ecosystem() -> Ecosystem {
        Ecosystem::new(EcosystemConfig {
            seed: 42,
            scale: Scale::tiny(),
            window: StudyWindow::first_days(40),
        })
    }

    #[test]
    fn plan_day_is_deterministic() {
        let mut a = tiny_ecosystem();
        let mut b = tiny_ecosystem();
        let pa = a.plan_day(10);
        let pb = b.plan_day(10);
        assert_eq!(pa.len(), pb.len());
        assert_eq!(pa, pb);
    }

    #[test]
    fn plans_are_sorted_and_valid() {
        let mut eco = tiny_ecosystem();
        let plans = eco.plan_day(5);
        assert!(!plans.is_empty());
        assert!(plans.windows(2).all(|w| w[0].start_secs <= w[1].start_secs));
        for p in &plans {
            assert!((p.honeypot as usize) < eco.plan.len());
            assert!((p.client.0 as usize) < eco.n_clients());
        }
    }

    #[test]
    fn category_mix_roughly_matches_table1() {
        let mut eco = tiny_ecosystem();
        let mut counts = [0usize; 4]; // scan, scout, login-idle, cmd-ish
        for day in 0..40 {
            for p in eco.plan_day(day) {
                match p.behavior {
                    Behavior::Scan { .. } => counts[0] += 1,
                    Behavior::Scout { .. } => counts[1] += 1,
                    Behavior::LoginIdle { .. } => counts[2] += 1,
                    Behavior::Script { .. } | Behavior::Recon { .. } => counts[3] += 1,
                }
            }
        }
        let total: usize = counts.iter().sum();
        let frac = |c: usize| c as f64 / total as f64;
        // Early-window (40 days) fractions skew: scanning hasn't ramped yet
        // and the no-cmd prefix is in its strong phase. Just check sanity:
        assert!(frac(counts[1]) > 0.25, "FAIL_LOG {}", frac(counts[1]));
        assert!(frac(counts[0]) > 0.10, "NO_CRED {}", frac(counts[0]));
        assert!(frac(counts[3]) > 0.08, "CMD-ish {}", frac(counts[3]));
    }

    #[test]
    fn estimated_sessions_tracks_planned_volume() {
        let mut eco = tiny_ecosystem();
        let est = eco.estimated_sessions();
        assert!(est > 0);
        let planned: usize = (0..40).map(|d| eco.plan_day(d).len()).sum();
        // The estimate is a sizing hint; it should land within a factor of
        // two of what the sources actually emit.
        assert!(
            planned / 2 <= est && est <= planned * 2,
            "estimate {est} vs planned {planned}"
        );
    }

    #[test]
    fn sizing_math_is_exact_across_scales() {
        // `Scale::of` rejects >1.0, so build the 10× scale directly; these
        // helpers are pure sizing math and never allocate a 4-billion-session
        // world.
        for volume in [0.001, 1.0, 10.0] {
            let scale = Scale {
                volume,
                hashes: volume.sqrt(),
            };
            let asn = Ecosystem::client_as_count(&scale);
            let expected = (17_700.0 * scale.hashes).ceil() as u32;
            assert_eq!(asn, expected.max(300), "AS count at volume {volume}");
            let total = Ecosystem::session_budget(&scale, &StudyWindow::paper());
            assert_eq!(
                total,
                (402_000_000.0f64 * volume).round() as u64,
                "session budget at volume {volume}"
            );
            // A truncated window gets a proportional share.
            let short = Ecosystem::session_budget(&scale, &StudyWindow::first_days(243));
            assert!(
                short <= total / 2 + 1,
                "half window over-budgeted: {short} vs {total}"
            );
        }
        // 10× the paper is ~4.02 B sessions: past u32, comfortably in u64 —
        // the old unchecked `as` casts were one word-size slip away from
        // silently wrapping this.
        let ten = Scale {
            volume: 10.0,
            hashes: 10.0f64.sqrt(),
        };
        assert_eq!(
            Ecosystem::session_budget(&ten, &StudyWindow::paper()),
            4_020_000_000
        );
    }

    #[test]
    #[should_panic(expected = "client AS count")]
    fn non_finite_scale_panics_instead_of_saturating() {
        Ecosystem::client_as_count(&Scale {
            volume: 1.0,
            hashes: f64::INFINITY,
        });
    }

    #[test]
    fn client_population_grows_with_days() {
        let mut eco = tiny_ecosystem();
        eco.plan_day(0);
        let after_one = eco.n_clients();
        for d in 1..10 {
            eco.plan_day(d);
        }
        assert!(eco.n_clients() > after_one);
    }

    #[test]
    fn multi_role_clients_exist() {
        let mut eco = tiny_ecosystem();
        let mut roles: std::collections::HashMap<u32, std::collections::BTreeSet<u8>> =
            Default::default();
        for day in 0..30 {
            for p in eco.plan_day(day) {
                let role = match p.behavior {
                    Behavior::Scan { .. } => 0u8,
                    Behavior::Scout { .. } => 1,
                    Behavior::LoginIdle { .. } => 2,
                    Behavior::Script { .. } | Behavior::Recon { .. } => 3,
                };
                roles.entry(p.client.0).or_default().insert(role);
            }
        }
        let multi = roles.values().filter(|s| s.len() > 1).count();
        // The paper's ~40% multi-role share needs the full window and scale
        // (asserted in the integration suite); a tiny 30-day slice just has
        // to exhibit the mechanism.
        assert!(
            multi as f64 / roles.len() as f64 > 0.005,
            "multi-role fraction {}",
            multi as f64 / roles.len() as f64
        );
    }
}
