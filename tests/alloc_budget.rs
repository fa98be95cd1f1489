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

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;

use honeyfarm::agents::{Behavior, Ecosystem, EcosystemConfig, Scale};
use honeyfarm::honeypot::record::RecordSpares;
use honeyfarm::honeypot::{HoneypotConfig, SessionRecord};
use honeyfarm::shell::{LineBuf, NullFetcher, ShellSession, SystemProfile};
use honeyfarm::sim::exec::{build_configs, execute_plan_reusing, ExecCtx, PreparedScripts};
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
/// scripts + record materialization), as the day loop runs it: the previous
/// batch's records are taken apart into spares, and the next batch's
/// records are built from them. Once warm it stays within a pinned
/// per-session allocation budget. What is left is per-session payload
/// (campaign fetchers, copied-on-write directories and the files a script
/// writes, a few strings longer than the spares keep) and tag strings; the
/// budget is what this fixture measures (1.83 per session; 11.88 when
/// every record was built fresh) rounded up, so fresh credential strings,
/// a per-session copy of the node's filesystem or config, per-line parsing
/// or records that stop reusing their buffers fail it.
#[test]
fn full_driver_stays_within_per_session_budget() {
    const BUDGET_PER_SESSION: f64 = 2.0;

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
    let mut spares = RecordSpares::default();
    let mut records: Vec<SessionRecord> = Vec::with_capacity(plans.len());

    // One batch as the day loop produces it, counting allocations per
    // behaviour.
    let mut batch = |by_behavior: &mut BTreeMap<&'static str, (u64, u64)>| {
        for record in records.drain(..) {
            spares.reclaim(record);
        }
        for plan in &plans {
            let before = allocation_count();
            let record = execute_plan_reusing(&ctx, plan, &mut tags, &prepared, &mut spares);
            let entry = by_behavior
                .entry(behavior_name(&plan.behavior))
                .or_default();
            entry.0 += 1;
            entry.1 += allocation_count() - before;
            records.push(record.unwrap());
        }
    };
    // Warmup passes: fill the scratch pool, the spares and the tag DB, and
    // grow each spare string to the longest text it is handed.
    for _ in 0..3 {
        batch(&mut BTreeMap::new());
    }

    let mut by_behavior = BTreeMap::new();
    let before = allocation_count();
    batch(&mut by_behavior);
    let delta = allocation_count() - before;
    let per_session = delta as f64 / plans.len() as f64;
    for (name, (sessions, allocs)) in &by_behavior {
        eprintln!(
            "{name:<10} {sessions:>5} sessions {:>6.2} allocations/session",
            *allocs as f64 / *sessions as f64
        );
    }
    assert!(
        per_session <= BUDGET_PER_SESSION,
        "full-driver path exceeded the allocation budget: {per_session:.2} \
         allocations/session over {} sessions (budget {BUDGET_PER_SESSION})",
        plans.len()
    );
}

fn behavior_name(b: &Behavior) -> &'static str {
    match b {
        Behavior::Scan { .. } => "scan",
        Behavior::Scout { .. } => "scout",
        Behavior::LoginIdle { .. } => "login_idle",
        Behavior::Recon { .. } => "recon",
        Behavior::Script { .. } => "script",
    }
}

/// Starting a shell on a node's seeded image (and dropping it) allocates
/// nothing once the thread's scratch pool is warm: the filesystem view is
/// one reference count, and the working directory and event arena come
/// from the pool.
#[test]
fn starting_a_shell_on_a_node_image_allocates_nothing() {
    let config = HoneypotConfig::paper(SystemProfile::for_node(3));
    let start = || {
        let sh = ShellSession::on_image(
            Arc::clone(&config.profile),
            config.image(),
            Box::new(NullFetcher),
        );
        assert_eq!(sh.cwd(), "/root");
        drop(sh);
    };
    start(); // warms this thread's scratch pool
    let before = allocation_count();
    for _ in 0..100 {
        start();
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "starting 100 shells on a node image made {delta} allocations"
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

/// Holds back the first read made off its owner's thread — `fold_chunks`'s
/// prefetch — so the caller blocks on chunk 1 before the budget window
/// opens. A thread's first blocking wait on a std channel allocates its
/// waiter context, and the first wait on each channel grows that channel's
/// waiter list; later waits allocate nothing.
struct PrefetchStartsLate<R> {
    inner: R,
    owner: std::thread::ThreadId,
    held: bool,
}

impl<R: std::io::Read> std::io::Read for PrefetchStartsLate<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.held && std::thread::current().id() != self.owner {
            self.held = true;
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        self.inner.read(buf)
    }
}

impl<R: std::io::Seek> std::io::Seek for PrefetchStartsLate<R> {
    fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Steady-state chunk reads allocate nothing: after the first chunks have
/// grown the reader's two buffers (payload and decoded rows), every
/// further chunk `fold_chunks` reads, verifies, decodes and validates
/// reuses them, with no per-row or per-field allocation. The count runs
/// from inside the fold closure, on the overlapped arm, from the end of
/// the first chunk to the end of the last: validating, waiting for the
/// prefetch thread (which reads and decodes) and handing its buffer back
/// allocate nothing on the calling thread, once it has blocked on the
/// chunk channel before the window opens.
#[test]
fn steady_state_chunk_reads_allocate_nothing() {
    let bytes = chunked_snapshot(64);
    let reader = honeyfarm::farm::SnapshotReader::open(PrefetchStartsLate {
        inner: Cursor::new(&bytes[..]),
        owner: std::thread::current().id(),
        held: false,
    })
    .expect("open snapshot");
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

/// The writer's per-chunk loop (encode into a reused buffer, digest,
/// write) reuses its scratch: re-encoding a snapshot allocates far fewer
/// times than it writes chunks, i.e. nothing on the per-chunk path. The
/// fixed budget covers the per-call setup — the section staging buffer and
/// the encode scratch, each growing a few times.
#[test]
fn chunked_writer_allocations_do_not_scale_with_chunks() {
    const ROWS_PER_CHUNK: u32 = 64;
    let bytes = chunked_snapshot(ROWS_PER_CHUNK);
    let snap = honeyfarm::farm::Snapshot::read_from(&mut Cursor::new(&bytes)).expect("reload");
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
