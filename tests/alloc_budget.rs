//! Allocation-budget tests for the session hot path.
//!
//! The shell pipeline (lexer → interpreter → builtins → VFS) keeps all of
//! its per-line scratch in reusable arenas ([`hf_shell::SessionScratch`]):
//! after a warmup pass has grown every buffer to workload capacity,
//! re-running the same workload must allocate **nothing**. This binary
//! installs the testkit's counting global allocator and pins that contract,
//! plus a coarser per-session allocation budget for the full honeypot
//! driver path the simulator runs.
//!
//! Counters are per-thread, so the harness running other test binaries in
//! parallel doesn't perturb the windows.

use honeyfarm::agents::{Ecosystem, EcosystemConfig, Scale};
use honeyfarm::shell::{LineBuf, NullFetcher, ShellSession, SystemProfile};
use honeyfarm::sim::exec::{build_configs, execute_plan_full, ExecCtx, PreparedScripts};
use honeyfarm::simclock::StudyWindow;
use honeyfarm::testkit::alloc::{allocated_bytes, allocation_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A command-line workload covering the lexer, pipelines, quoting,
/// redirect-free builtins, and VFS reads — everything on the per-line hot
/// path that must run out of arena scratch. No downloads and no filesystem
/// writes: those legitimately allocate (artifact bodies, new VFS nodes).
const WORKLOAD: &[&str] = &[
    "echo hello world",
    "uname -a; id",
    "echo 'single quoted  spaces' \"double quoted\"",
    "cat /etc/passwd | grep root",
    "cat /proc/cpuinfo | head -4",
    "cd /tmp",
    "ls",
    "cd /",
    "busybox echo probe",
    "nohup uname -m",
    "unknowncmd --flag",
    "sh -c \"echo nested; uname\"",
];

/// Parse into a reused [`LineBuf`], then run the simulator's executor.
fn run_workload(sh: &mut ShellSession, buf: &mut LineBuf) {
    for line in WORKLOAD {
        buf.parse(line);
        sh.execute_parsed_quiet(buf);
    }
}

/// After one warmup pass (which sizes the arenas) and an event drain (which
/// clears them keeping capacity), the same workload re-run through the same
/// session performs zero heap allocations.
#[test]
fn steady_state_shell_pipeline_allocates_nothing() {
    let mut sh = ShellSession::new(SystemProfile::default(), Box::new(NullFetcher));
    let mut buf = LineBuf::new();
    // Warmup: grows the line buffers, event arena, and path scratch.
    run_workload(&mut sh, &mut buf);
    let _ = sh.take_events(); // clears the arena, keeps capacity

    let before = allocation_count();
    run_workload(&mut sh, &mut buf);
    let delta = allocation_count() - before;
    assert_eq!(
        delta,
        0,
        "steady-state lexer/interp/builtins path must not allocate \
         (got {delta} allocations for {} lines)",
        WORKLOAD.len()
    );

    // Drain outside the window: materializing owned SessionEvents builds
    // the session record and is allowed to allocate.
    let events = sh.take_events();
    assert!(!events.commands.is_empty());
}

/// Constructing a collector sized for the full paper scale must not eagerly
/// reserve the whole estimated session count — 402 M rows × 48 bytes is a
/// ~19 GB upfront reservation that made scale-1.0 runs die on startup. The
/// eager hint is capped ([`honeyfarm::farm::SessionStore::EAGER_ROW_RESERVE_CAP`])
/// and the store grows geometrically as rows actually arrive.
#[test]
fn full_scale_collector_construction_stays_under_64mb() {
    use honeyfarm::farm::{Collector, FarmPlan};
    use honeyfarm::geo::{World, WorldConfig};

    let world = World::build(1, &WorldConfig::tiny());
    let plan = FarmPlan::paper();
    let estimated = Ecosystem::session_budget(&Scale::full(), &StudyWindow::paper()) as usize;
    assert!(
        estimated >= 400_000_000,
        "paper-scale estimate: {estimated}"
    );

    let before = allocated_bytes();
    let collector = Collector::with_capacity(&world, plan, estimated);
    let delta = allocated_bytes() - before;
    assert!(
        delta < 64 * 1024 * 1024,
        "scale-1.0 collector construction allocated {delta} bytes (≥ 64 MB)"
    );
    drop(collector);
}

/// The full simulator driver path (honeypot state machine + prepared
/// scripts + record materialization) stays within a pinned per-session
/// allocation budget once warm. Records and tag strings legitimately
/// allocate; the budget is what this fixture measures (11.9 per session)
/// plus 2, so a per-session copy of the node's config (nine allocations:
/// six profile strings and the auth policy) fails it, as do per-line
/// parsing or per-session VFS seeding coming back.
#[test]
fn full_driver_stays_within_per_session_budget() {
    const BUDGET_PER_SESSION: u64 = 14;

    let mut eco = Ecosystem::new(EcosystemConfig {
        seed: 0x5ca1e,
        scale: Scale::tiny(),
        window: StudyWindow::first_days(4),
    });
    let configs = build_configs(&eco.plan);
    let plans = eco.plan_day(0);
    let ctx = ExecCtx {
        plan: &eco.plan,
        configs: &configs,
        catalog: &eco.catalog,
        creds: &eco.creds,
        pool: eco.pool_ref(),
    };
    let mut prepared = PreparedScripts::new();
    prepared.prepare_day(&ctx, &plans);
    let mut tags = honeyfarm::farm::TagDb::new();

    // Warmup pass: fills the scratch pool, VFS seed cache, and tag DB.
    let mut records = Vec::with_capacity(plans.len());
    for plan in &plans {
        records.push(execute_plan_full(&ctx, plan, &mut tags, &prepared).unwrap());
    }
    records.clear();

    let before = allocation_count();
    for plan in &plans {
        records.push(execute_plan_full(&ctx, plan, &mut tags, &prepared).unwrap());
    }
    let delta = allocation_count() - before;
    let per_session = delta as f64 / plans.len() as f64;
    assert!(
        per_session <= BUDGET_PER_SESSION as f64,
        "full-driver path exceeded the allocation budget: {per_session:.1} \
         allocations/session over {} sessions (budget {BUDGET_PER_SESSION})",
        plans.len()
    );
}

/// A chunked snapshot whose rows section spans many chunks, for the
/// streaming-codec budgets below. Many chunks select the overlapped arm
/// that production runs; the counting allocator is per-thread, so the
/// budgets count the calling thread's side of the pipeline.
fn chunked_snapshot(rows_per_chunk: u32) -> Vec<u8> {
    let cfg = honeyfarm::sim::SimConfig::test(6);
    let out = honeyfarm::sim::Simulation::run(cfg.clone());
    let snap = out.to_snapshot(&cfg);
    let mut bytes = Vec::new();
    snap.write_to_chunked(&mut bytes, rows_per_chunk)
        .expect("encode snapshot");
    bytes
}

/// Steady-state chunk decode allocates nothing: after the first chunk has
/// grown the reader's scratch (row buffer, raw-chunk buffer — the manifest
/// is pre-reserved at open), every further chunk `fold_chunks` reads,
/// verifies, decodes and validates reuses it. This is the zero-copy codec
/// contract: fixed-offset field views over one reused byte buffer, no
/// per-row or per-field allocation. The count runs from inside the fold
/// closure, on the overlapped arm, from the end of the first chunk to the
/// end of the last: decoding, validating, waiting for the prefetch thread
/// and handing its buffer back allocate nothing on the calling thread.
#[test]
fn steady_state_chunk_reads_allocate_nothing() {
    let bytes = chunked_snapshot(64);
    let reader = honeyfarm::farm::SnapshotReader::open(&bytes[..]).expect("open snapshot");
    let (mut chunks, mut first, mut last) = (0u32, 0u64, 0u64);
    reader
        .fold_chunks(|_, _, _| {
            chunks += 1;
            last = allocation_count();
            if chunks == 1 {
                first = last;
            }
            Ok(())
        })
        .expect("stream snapshot");
    let delta = last - first;
    assert!(chunks > 10, "want a many-chunk stream, got {chunks}");
    assert_eq!(
        delta, 0,
        "steady-state chunk reads must not allocate \
         (got {delta} allocations over {chunks} chunks)"
    );
}

/// The writer's per-chunk hot loop (encode into a reused buffer, digest,
/// frame, write) reuses its scratch: re-encoding a snapshot allocates far
/// fewer times than it writes chunks, i.e. nothing on the per-chunk path.
/// The fixed budget covers the per-call setup — section staging buffers,
/// the manifest, the encode scratch growing once each, the encode thread.
#[test]
fn chunked_writer_allocations_do_not_scale_with_chunks() {
    const ROWS_PER_CHUNK: u32 = 64;
    let bytes = chunked_snapshot(ROWS_PER_CHUNK);
    let snap = honeyfarm::farm::Snapshot::read_from(&mut &bytes[..]).expect("reload");
    let n_chunks = (snap.sessions.rows().len() as u32).div_ceil(ROWS_PER_CHUNK);
    assert!(n_chunks > 10, "want a many-chunk snapshot, got {n_chunks}");

    // Warmup writes grow nothing persistent (the writer's scratch is
    // per-call), but they do populate pool/obs lazies outside the window.
    let mut out = Vec::with_capacity(bytes.len() + 1024);
    snap.write_to_chunked(&mut out, ROWS_PER_CHUNK)
        .expect("warmup write");

    out.clear();
    let before = allocation_count();
    snap.write_to_chunked(&mut out, ROWS_PER_CHUNK)
        .expect("steady write");
    let delta = allocation_count() - before;
    assert!(
        delta < n_chunks as u64,
        "writer allocations scale with chunk count: {delta} allocations \
         for {n_chunks} chunks — the per-chunk loop must reuse its scratch"
    );
}
