//! The four workloads and the closed loop that measures each.
//!
//! Every workload runs from one process, one operation at a time; only
//! the campaign spreads its simulations over [`CAMPAIGN_WORKERS`] threads.
//! An untraced run (`trace == false`) measures the end-to-end metrics;
//! a traced run measures the per-layer split from outside, by timing
//! calls into the library crates' public functions, and reports what the
//! tracing itself cost against untraced operations interleaved with it.

use crate::catalog::{self, Samples, Sheet};
use crate::replica::{check_matches, run_replica, ReplicaRun};
use crate::{alloc, refkernel, stats};
use lumina_core::analyzers::conformance::{self, ConformanceOpts, ConformanceStream};
use lumina_core::analyzers::{cnp, gbn_fsm, retrans_perf};
use lumina_core::config::TestConfig;
use lumina_core::fuzz::mutate::{EventMutator, Mutator};
use lumina_core::fuzz::{fuzz, score, FuzzOutcome, FuzzParams};
use lumina_core::{ingest_reader, run_test, IngestParams, TestResults};
use lumina_dumper::{recover_frame, RecoveryStats, StreamOpts, StreamingReconstructor};
use lumina_sim::pcap::PcapReader;
use lumina_sim::SimRng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["fig11", "fanout", "campaign", "ingest"];

/// Set-up is repeated this many times per run and reported as the median.
pub const SETUP_REPEATS: usize = 3;

/// Worker threads of the campaign workload.
pub const CAMPAIGN_WORKERS: usize = 2;

/// The paper's headline scenario (Figure 11): 36 read QPs on CX4 Lx, 12
/// injected drops, Go-back-N read recovery wedging the RX pipeline.
const FIG11_YAML: &str = include_str!("../../configs/fig11_noisy_neighbor.yaml");

/// 512 write QPs on CX5 with no injected events: the requester's per-QP
/// transmit scan dominates, the dimension neither fig11 nor the campaign
/// reaches.
const FANOUT_YAML: &str = r#"
requester: { nic-type: cx5 }
responder: { nic-type: cx5 }
traffic:
  num-connections: 512
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 8192
network:
  horizon-ms: 120000
"#;

/// The 4-QP write base of the fuzz-throughput bench: short runs, so
/// per-test fixed costs dominate the campaign.
const CAMPAIGN_BASE_YAML: &str = r#"
requester: { nic-type: cx4 }
responder: { nic-type: cx4 }
traffic:
  num-connections: 4
  rdma-verb: write
  num-msgs-per-qp: 6
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 5, type: drop, iter: 1}
"#;

/// The live run whose capture the ingest workload grades: 8 write QPs ×
/// 40 × 256 KB on CX6 Dx, more packets than one reconstruction chunk
/// holds, with injected drops and an ECN mark answered by the DCQCN
/// notification point.
const INGEST_LIVE_YAML: &str = r#"
requester: { nic-type: cx6, dcqcn-np-enable: true }
responder: { nic-type: cx6, dcqcn-np-enable: true }
traffic:
  num-connections: 8
  rdma-verb: write
  num-msgs-per-qp: 40
  mtu: 1024
  message-size: 262144
  data-pkt-events:
    - {qpn: 1, psn: 100, type: drop, iter: 1}
    - {qpn: 4, psn: 5000, type: drop, iter: 1}
    - {qpn: 6, psn: 300, type: ecn, iter: 1}
network:
  horizon-ms: 120000
"#;

/// Campaign size: candidates per campaign, one campaign per operation.
const CAMPAIGN_ITERATIONS: usize = 32;

/// Salt separating the fuzz seed from the network seed.
const FUZZ_SEED_SALT: u64 = 0x6675_7a7a_5eed_0001;

/// The benchmark's command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Every seed a workload uses derives from this.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Report the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    /// Operations run and checked.
    pub attempted: u64,
    /// Operations that failed: an error, a panic, or a failed check.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// The workload's output digest: a simulator-only speed-up must leave
    /// it unchanged.
    pub digest: String,
    /// The reported metrics.
    pub sheet: Sheet,
    /// Human-readable findings printed to stderr.
    pub notes: Vec<String>,
}

impl Report {
    /// True when every operation passed its output check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Run `args.workload` and collect its report.
pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        alloc::enable();
    }
    let mut ctx = Ctx::default();
    let deadline = Duration::from_secs_f64(args.seconds);
    let values = match args.workload.as_str() {
        "fig11" => sim_workload(&mut ctx, FIG11_YAML, args.seed, deadline, args.trace)?,
        "fanout" => sim_workload(&mut ctx, FANOUT_YAML, args.seed, deadline, args.trace)?,
        "campaign" => campaign_workload(&mut ctx, args.seed, deadline, args.trace)?,
        "ingest" => ingest_workload(&mut ctx, args.seed, deadline, args.trace)?,
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    };
    if ctx.attempted == 0 {
        return Err("no operation ran within the time budget".into());
    }
    let sheet = if args.trace {
        Sheet::build(
            catalog::PER_LAYER,
            catalog::unexercised(&args.workload),
            &values,
        )?
    } else {
        Sheet::build(catalog::END_TO_END, &[], &values)?
    };
    Ok(Report {
        attempted: ctx.attempted,
        failed: ctx.failed,
        first_failure: ctx.first_failure,
        digest: format!("{:016x}", ctx.digest.unwrap_or(0)),
        sheet,
        notes: ctx.notes,
    })
}

/// Per-run bookkeeping shared by the workloads.
#[derive(Default)]
struct Ctx {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    digest: Option<u64>,
    notes: Vec<String>,
}

impl Ctx {
    /// Count one checked operation.
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Check `digest` against the run's reference, adopting it if first.
    fn digest_matches(&mut self, digest: u64) -> Result<(), String> {
        match self.digest {
            None => {
                self.digest = Some(digest);
                Ok(())
            }
            Some(d) if d == digest => Ok(()),
            Some(d) => Err(format!("digest {digest:016x} differs from {d:016x}")),
        }
    }
}

fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .map_or_else(|| "panic".to_string(), |m| format!("panic: {m}"))),
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Parse a preset and reseed it from the benchmark's seed.
pub fn load(yaml: &str, seed: u64) -> Result<TestConfig, String> {
    let mut cfg = TestConfig::from_yaml(yaml).map_err(|e| e.to_string())?;
    cfg.network.seed = seed;
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// One `run_test`, checked: it must complete its traffic, pass the
/// integrity check, and serialize its report. Returns the report digest.
fn checked_test(cfg: &TestConfig) -> Result<(TestResults, u64), String> {
    catch(|| {
        let res = run_test(cfg).map_err(|e| e.to_string())?;
        if !res.traffic_completed() {
            return Err("traffic did not complete".into());
        }
        if !res.integrity.passed() {
            return Err("integrity check failed".into());
        }
        let report = res.report_json().map_err(|e| e.to_string())?;
        Ok((res, fnv1a(report.to_string().as_bytes())))
    })
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

/// Operations repeated after the timed loop to measure the peak heap.
const HEAP_PROBES: usize = 3;

/// Peak heap in use while `op` runs, in MB: the most bytes allocated and
/// not yet freed at once, above the level when `op` starts, as counted by
/// the benchmark's allocator; the median over [`HEAP_PROBES`] runs.
///
/// Resident memory is not used: after `malloc_trim` and a reset of the
/// high-water mark, the peak RSS of one ingest pass still read 25.5 MB on
/// some seeds and 34.3 MB on others for the same 6.1 MB capture and the
/// same reconstruction footprint, depending only on where earlier
/// allocations left the allocator's pages.
fn peak_heap_mb(mut op: impl FnMut()) -> f64 {
    alloc::enable();
    let mut peaks = Vec::with_capacity(HEAP_PROBES);
    for _ in 0..HEAP_PROBES {
        alloc::reset_peak();
        op();
        peaks.push(alloc::peak_bytes() as f64 / 1e6);
    }
    stats::median(&peaks)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall times of one kind of operation, each taken next to one run of
/// the reference kernel, with the megabytes each operation processed.
struct Timings {
    threads: usize,
    raw_s: Vec<f64>,
    norm_s: Vec<f64>,
    mb: Vec<f64>,
}

impl Timings {
    /// Timings of operations that keep `threads` threads busy.
    fn new(threads: usize) -> Timings {
        Timings {
            threads,
            raw_s: Vec::new(),
            norm_s: Vec::new(),
            mb: Vec::new(),
        }
    }

    fn record(&mut self, wall_s: f64, mb: f64) {
        let kernel_ms = refkernel::measure_ms(self.threads);
        self.raw_s.push(wall_s);
        self.norm_s.push(refkernel::normalize(wall_s, kernel_ms));
        self.mb.push(mb);
    }
}

/// End-to-end figures from the set-up repetitions and the measured loop,
/// at reference host speed (see [`refkernel`]); the raw wall medians go
/// to the notes.
fn end_to_end(
    ctx: &mut Ctx,
    setup: &Timings,
    ops: &Timings,
    peak_mb: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let rates: Vec<f64> = ops
        .norm_s
        .iter()
        .zip(&ops.mb)
        .map(|(s, mb)| mb / s)
        .collect();
    let raw_rates: Vec<f64> = ops
        .raw_s
        .iter()
        .zip(&ops.mb)
        .map(|(s, mb)| mb / s)
        .collect();
    ctx.notes.push(format!(
        "raw wall: setup {:.4} s, op {:.3} ms, {:.2} MB/s over {} operations; \
         process peak RSS {:.1} MB",
        stats::median(&setup.raw_s),
        stats::median(&ops.raw_s) * 1e3,
        stats::median(&raw_rates),
        ops.raw_s.len(),
        peak_rss_mb()?
    ));
    let mut v = BTreeMap::new();
    v.insert("setup_s", stats::median(&setup.norm_s));
    v.insert("op_ms.p50", stats::median(&ops.norm_s) * 1e3);
    v.insert("mb_per_s", stats::median(&rates));
    v.insert("peak_heap_mb", peak_mb);
    v.insert(
        "ok_frac",
        (ctx.attempted - ctx.failed) as f64 / ctx.attempted as f64,
    );
    Ok(v)
}

// ---------------------------------------------------------------- fig11, fanout

fn sim_workload(
    ctx: &mut Ctx,
    yaml: &str,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut setup = Timings::new(1);
    let mut cfg = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let c = load(yaml, seed)?;
        let (_, digest) = checked_test(&c)?;
        setup.record(t.elapsed().as_secs_f64(), 0.0);
        ctx.digest_matches(digest)?;
        cfg = Some(c);
    }
    let cfg = cfg.expect("SETUP_REPEATS > 0");

    let start = Instant::now();
    if !trace {
        let mut ops = Timings::new(1);
        while start.elapsed() < budget {
            let t = Instant::now();
            let out = checked_test(&cfg);
            let dt = t.elapsed().as_secs_f64();
            let outcome = out.and_then(|(res, digest)| {
                ops.record(dt, res.engine_stats.frame_bytes_delivered as f64 / 1e6);
                ctx.digest_matches(digest)
            });
            ctx.check(outcome);
        }
        let peak = peak_heap_mb(|| {
            let outcome = checked_test(&cfg).and_then(|(_, digest)| ctx.digest_matches(digest));
            ctx.check(outcome);
        });
        return end_to_end(ctx, &setup, &ops, peak);
    }

    let mut s = Samples::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while start.elapsed() < budget {
        let t = Instant::now();
        let c = load(yaml, seed);
        s.push("core.config_us", t.elapsed().as_secs_f64() * 1e6);
        let outcome = c.and_then(|c| {
            let t = Instant::now();
            let (res, digest) = checked_test(&c)?;
            untraced.push(ms(t.elapsed()));
            ctx.digest_matches(digest)?;
            let rep = trace_test_layers(&c, &res, &mut s)?;
            traced.push(ms(rep.total()));
            Ok(())
        });
        ctx.check(outcome);
    }
    finish_trace_samples(ctx, &mut s, &untraced, &traced);
    Ok(s.medians())
}

/// Trace one test's layers: the timed replica (with telemetry, checked
/// against `res`), the same replica with no telemetry sink, and the
/// analyzers over `res`'s trace. Returns the traced replica run.
fn trace_test_layers(
    cfg: &TestConfig,
    res: &TestResults,
    s: &mut Samples,
) -> Result<ReplicaRun, String> {
    let rep = catch(|| run_replica(cfg, true).map_err(|e| e.to_string()))?;
    check_matches(&rep, res).map_err(|e| format!("replica mismatch: {e}"))?;
    let bare = catch(|| run_replica(cfg, false).map_err(|e| e.to_string()))?;
    if bare.engine_stats != rep.engine_stats {
        return Err(format!(
            "telemetry changed the run: {:?} with, {:?} without",
            rep.engine_stats, bare.engine_stats
        ));
    }

    let es = rep.engine_stats;
    let events = es.events.max(1) as f64;
    let pkts = es.frames_delivered.max(1) as f64;
    s.push("sim.events", es.events as f64);
    s.push("sim.frames_delivered", es.frames_delivered as f64);
    s.push("sim.timers_fired", es.timers_fired as f64);
    s.push("sim.run_ms", ms(rep.run));
    let dispatch_ns = rep.dispatch().ns as f64;
    s.push(
        "sim.self_ns_per_event",
        (rep.run.as_nanos() as f64 - dispatch_ns) / events,
    );
    s.push("rnic.requester.calls", rep.requester.calls as f64);
    s.push("rnic.requester.ns_per_call", rep.requester.ns_per_call());
    s.push("rnic.responder.calls", rep.responder.calls as f64);
    s.push("rnic.responder.ns_per_call", rep.responder.ns_per_call());
    s.push("switch.calls", rep.switch.calls as f64);
    s.push("switch.ns_per_call", rep.switch.ns_per_call());
    s.push("dumper.calls", rep.dumpers.calls as f64);
    s.push("dumper.ns_per_call", rep.dumpers.ns_per_call());
    s.push("dumper.rx_discards", rep.dumper_rx_discards as f64);

    let fs = res.frame_stats;
    s.push(
        "packet.frames_allocated_per_pkt",
        fs.frames_allocated as f64 / pkts,
    );
    s.push("packet.bytes_copied_per_pkt", fs.bytes_copied as f64 / pkts);
    s.push("packet.peak_live_frames", fs.peak_live_frames as f64);
    s.push("alloc.count_per_event", rep.alloc_count as f64 / events);
    s.push("alloc.bytes_per_event", rep.alloc_bytes as f64 / events);

    let tel = &res.telemetry;
    s.push(
        "telemetry.journal_records_per_event",
        (tel.journal_len() as u64 + tel.journal_dropped()) as f64 / events,
    );
    s.push("telemetry.cost_ms", ms(rep.run) - ms(bare.run));

    s.push("core.build_ms", ms(rep.build));
    s.push("core.collect_ms", ms(rep.collect));
    s.push("core.integrity_ms", ms(rep.integrity));
    let trace = res.trace.as_ref().ok_or("run produced no trace")?;
    time_analyzers(trace, &res.conns, &ConformanceOpts::from_results(res), s);
    Ok(rep)
}

/// Time the four trace analyzers over `trace`; returns the conformance
/// report.
fn time_analyzers(
    trace: &lumina_dumper::Trace,
    conns: &[lumina_core::ConnMeta],
    opts: &ConformanceOpts,
    s: &mut Samples,
) -> conformance::ConformanceReport {
    let t = Instant::now();
    let report = std::hint::black_box(conformance::analyze(trace, conns, opts));
    s.push("core.conformance_ms", ms(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(gbn_fsm::analyze(trace, conns));
    s.push("core.gbn_ms", ms(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(retrans_perf::analyze(trace, conns));
    s.push("core.retrans_ms", ms(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(cnp::analyze(trace));
    s.push("core.cnp_ms", ms(t.elapsed()));
    report
}

/// Close a traced run: the tracing overhead, and whether the allocation
/// counts repeated exactly.
fn finish_trace_samples(ctx: &mut Ctx, s: &mut Samples, untraced: &[f64], traced: &[f64]) {
    let base = stats::median(untraced);
    if base > 0.0 {
        s.push("trace.overhead_frac", stats::median(traced) / base - 1.0);
    }
    let counts = s.get("alloc.count_per_event").to_vec();
    if !counts.is_empty() {
        let spread = stats::iqr_frac(&counts);
        s.push("alloc.count_iqr_frac", spread);
        let exact = counts.windows(2).all(|w| w[0] == w[1]);
        ctx.notes.push(if exact {
            format!("alloc counts repeat exactly over {} runs", counts.len())
        } else {
            format!(
                "alloc counts vary over {} runs: interquartile range {:.3e} of the median",
                counts.len(),
                spread
            )
        });
    }
}

// ---------------------------------------------------------------- campaign

type Fingerprint = (Vec<u64>, usize, Vec<u64>);

fn fingerprint(out: &FuzzOutcome) -> Fingerprint {
    (
        out.history.iter().map(|s| s.to_bits()).collect(),
        out.rejected,
        out.final_pool.iter().map(|s| s.score.to_bits()).collect(),
    )
}

fn fingerprint_digest(fp: &Fingerprint) -> u64 {
    let mut bytes = Vec::new();
    for x in &fp.0 {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    bytes.extend_from_slice(&(fp.1 as u64).to_le_bytes());
    for x in &fp.2 {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// A `Mutator` decorator timing every `mutate` call.
struct TimedMutator<M> {
    inner: M,
    calls: u64,
    ns: u64,
}

impl<M: Mutator> Mutator for TimedMutator<M> {
    fn initial(&mut self, base: &TestConfig, rng: &mut SimRng) -> TestConfig {
        self.inner.initial(base, rng)
    }

    fn mutate(&mut self, parent: &TestConfig, rng: &mut SimRng) -> TestConfig {
        let t = Instant::now();
        let child = self.inner.mutate(parent, rng);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        child
    }
}

/// What one campaign produced, beyond its outcome.
struct CampaignRun {
    wall: Duration,
    outcome: FuzzOutcome,
    frame_bytes: u64,
    events: u64,
    scored: u64,
    score_ns: u64,
    mutate_calls: u64,
    mutate_ns: u64,
}

/// The campaign: batch 8 over [`CAMPAIGN_WORKERS`] workers, as the
/// fuzz-throughput bench runs it.
fn campaign_params(fuzz_seed: u64) -> FuzzParams {
    FuzzParams {
        pool_size: 4,
        iterations: CAMPAIGN_ITERATIONS,
        batch_size: 8,
        workers: CAMPAIGN_WORKERS,
        anomaly_threshold: 5.0,
        seed: fuzz_seed,
        ..Default::default()
    }
}

/// Event mutations only: the traffic shape stays the 4-QP base, so every
/// seed's campaign runs tests of the same size and per-test fixed costs
/// keep the same share. Shape mutations make the work per campaign swing
/// by a third from one seed to the next.
fn mutator() -> EventMutator {
    EventMutator {
        events_only: true,
        ..EventMutator::default()
    }
}

/// One campaign. With `timed`, the mutator and the scorer run through
/// timing wrappers (traced runs); without, the scorer only sums what each
/// run simulated.
fn campaign(base: &TestConfig, fuzz_seed: u64, timed: bool) -> Result<CampaignRun, String> {
    catch(|| {
        let mut plain = mutator();
        let mut wrapped = TimedMutator {
            inner: mutator(),
            calls: 0,
            ns: 0,
        };
        let m: &mut dyn Mutator = if timed { &mut wrapped } else { &mut plain };
        let (frame_bytes, events, scored, score_ns) = (
            Cell::new(0u64),
            Cell::new(0u64),
            Cell::new(0u64),
            Cell::new(0u64),
        );
        let scorer = |cfg: &TestConfig, res: &TestResults| {
            let t = timed.then(Instant::now);
            let out = score::default_score(cfg, res);
            if let Some(t) = t {
                score_ns.set(score_ns.get() + t.elapsed().as_nanos() as u64);
            }
            scored.set(scored.get() + 1);
            frame_bytes.set(frame_bytes.get() + res.engine_stats.frame_bytes_delivered);
            events.set(events.get() + res.engine_stats.events);
            out
        };
        let t = Instant::now();
        let outcome = fuzz(base, m, scorer, &campaign_params(fuzz_seed));
        let wall = t.elapsed();
        if outcome.history.is_empty() {
            return Err("campaign scored no candidate".into());
        }
        Ok(CampaignRun {
            wall,
            outcome,
            frame_bytes: frame_bytes.get(),
            events: events.get(),
            scored: scored.get(),
            score_ns: score_ns.get(),
            mutate_calls: wrapped.calls,
            mutate_ns: wrapped.ns,
        })
    })
}

fn campaign_workload(
    ctx: &mut Ctx,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let fuzz_seed = splitmix64(seed ^ FUZZ_SEED_SALT);
    let mut setup = Timings::new(CAMPAIGN_WORKERS);
    let mut base = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let b = load(CAMPAIGN_BASE_YAML, seed)?;
        let warm = campaign(&b, fuzz_seed, false)?;
        setup.record(t.elapsed().as_secs_f64(), 0.0);
        ctx.digest_matches(fingerprint_digest(&fingerprint(&warm.outcome)))?;
        base = Some(b);
    }
    let base = base.expect("SETUP_REPEATS > 0");

    let start = Instant::now();
    let checked_campaign = |ctx: &mut Ctx, timed: bool| -> Option<CampaignRun> {
        let run = campaign(&base, fuzz_seed, timed).and_then(|r| {
            ctx.digest_matches(fingerprint_digest(&fingerprint(&r.outcome)))?;
            Ok(r)
        });
        match run {
            Ok(r) => {
                ctx.check(Ok(()));
                Some(r)
            }
            Err(e) => {
                ctx.check(Err(e));
                None
            }
        }
    };
    if !trace {
        let (mut ops, mut runs_per_s) = (Timings::new(CAMPAIGN_WORKERS), Vec::new());
        while start.elapsed() < budget {
            if let Some(r) = checked_campaign(ctx, false) {
                let secs = r.wall.as_secs_f64();
                ops.record(secs, r.frame_bytes as f64 / 1e6);
                runs_per_s.push(r.outcome.history.len() as f64 / secs);
            }
        }
        ctx.notes.push(format!(
            "campaign_runs_per_s (raw wall, median) {:.2}",
            stats::median(&runs_per_s)
        ));
        let peak = peak_heap_mb(|| {
            checked_campaign(ctx, false);
        });
        return end_to_end(ctx, &setup, &ops, peak);
    }

    // Traced: the campaign through its timing wrappers, interleaved with
    // the base configuration's per-test layer split.
    let mut s = Samples::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while start.elapsed() < budget {
        if let Some(r) = checked_campaign(ctx, true) {
            traced.push(ms(r.wall));
            let runs = r.scored.max(1) as f64;
            s.push(
                "fuzz.mutate_us",
                r.mutate_ns as f64 / r.mutate_calls.max(1) as f64 / 1e3,
            );
            s.push("fuzz.score_us", r.score_ns as f64 / runs / 1e3);
            s.push("fuzz.events_per_run", r.events as f64 / runs);
            s.push(
                "fuzz.rejected_frac",
                r.outcome.rejected as f64 / CAMPAIGN_ITERATIONS as f64,
            );
            let profile = r.outcome.telemetry.with_profile(|p| p.to_json());
            let busy_ns: f64 = profile["workers"].as_object().map_or(0.0, |w| {
                w.values().filter_map(|v| v["wall_ns"].as_f64()).sum()
            });
            let campaign_ns = profile["campaign"]["wall_ns"].as_f64().unwrap_or(0.0);
            if campaign_ns > 0.0 {
                s.push(
                    "fuzz.worker_busy_frac",
                    busy_ns / (CAMPAIGN_WORKERS as f64 * campaign_ns),
                );
            }
        }
        // The same campaign without the wrappers, for the overhead.
        if let Some(r) = checked_campaign(ctx, false) {
            untraced.push(ms(r.wall));
        }

        let t = Instant::now();
        let c = load(CAMPAIGN_BASE_YAML, seed);
        s.push("core.config_us", t.elapsed().as_secs_f64() * 1e6);
        let outcome = c.and_then(|c| {
            let (res, _) = checked_test(&c)?;
            trace_test_layers(&c, &res, &mut s).map(|_| ())
        });
        ctx.check(outcome);
    }
    finish_trace_samples(ctx, &mut s, &untraced, &traced);
    Ok(s.medians())
}

// ---------------------------------------------------------------- ingest

/// The capture the ingest workload grades, with what a correct pass over
/// it must report.
struct Capture {
    pcap: Vec<u8>,
    packets: u64,
    violations: usize,
    context: TestConfig,
}

/// The capture and the live run that made it. The live run is kept only by
/// traced runs, for its analyzers: holding its trace would swamp the
/// grading pass's own peak memory.
fn make_capture(seed: u64) -> Result<(Capture, TestResults), String> {
    let cfg = load(INGEST_LIVE_YAML, seed)?;
    let (live, _) = checked_test(&cfg)?;
    let trace = live.trace.as_ref().ok_or("live run produced no trace")?;
    let packets = trace.len() as u64;
    if packets <= StreamOpts::default().chunk_entries as u64 {
        return Err(format!(
            "capture of {packets} packets fits one reconstruction chunk"
        ));
    }
    let opts = ConformanceOpts::from_results(&live);
    let violations = conformance::analyze(trace, &live.conns, &opts)
        .violations
        .len();
    let mut pcap = Vec::new();
    trace.write_pcap(&mut pcap).map_err(|e| e.to_string())?;
    Ok((
        Capture {
            pcap,
            packets,
            violations,
            context: cfg,
        },
        live,
    ))
}

fn ingest_params(cap: &Capture) -> IngestParams {
    IngestParams {
        context: Some(cap.context.clone()),
        ..IngestParams::default()
    }
}

/// One `ingest_reader` pass, checked against the live run.
fn checked_ingest(cap: &Capture) -> Result<lumina_core::IngestOutcome, String> {
    catch(|| {
        let out = ingest_reader(&cap.pcap[..], "capture", &ingest_params(cap))
            .map_err(|e| e.to_string())?;
        if out.records != cap.packets {
            return Err(format!(
                "{} records, capture has {}",
                out.records, cap.packets
            ));
        }
        if !out.pristine() {
            return Err("capture did not re-ingest pristine".into());
        }
        if out.conformance.violations.len() != cap.violations {
            return Err(format!(
                "{} violations offline, {} live",
                out.conformance.violations.len(),
                cap.violations
            ));
        }
        Ok(out)
    })
}

fn ingest_digest(out: &lumina_core::IngestOutcome) -> Result<u64, String> {
    let report = out.report_json().map_err(|e| e.to_string())?;
    Ok(fnv1a(report.to_string().as_bytes()))
}

fn ingest_workload(
    ctx: &mut Ctx,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut setup = Timings::new(1);
    let mut capture = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous repetition's capture and live run first.
        drop(capture.take());
        let t = Instant::now();
        let (cap, live) = make_capture(seed)?;
        let warm = checked_ingest(&cap)?;
        setup.record(t.elapsed().as_secs_f64(), 0.0);
        ctx.digest_matches(ingest_digest(&warm)?)?;
        capture = Some((cap, trace.then_some(live)));
    }
    let (cap, live) = capture.expect("SETUP_REPEATS > 0");
    let mb = cap.pcap.len() as f64 / 1e6;

    let start = Instant::now();
    if !trace {
        let mut ops = Timings::new(1);
        while start.elapsed() < budget {
            let t = Instant::now();
            let out = checked_ingest(&cap);
            let dt = t.elapsed().as_secs_f64();
            let outcome = out.and_then(|o| {
                ops.record(dt, mb);
                ctx.digest_matches(ingest_digest(&o)?)
            });
            ctx.check(outcome);
        }
        let peak = peak_heap_mb(|| {
            let outcome = checked_ingest(&cap).and_then(|o| ctx.digest_matches(ingest_digest(&o)?));
            ctx.check(outcome);
        });
        return end_to_end(ctx, &setup, &ops, peak);
    }

    let mut s = Samples::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while start.elapsed() < budget {
        let t = Instant::now();
        let out = checked_ingest(&cap);
        let dt = ms(t.elapsed());
        let outcome = out.and_then(|o| {
            untraced.push(dt);
            let t = Instant::now();
            let staged = catch(|| staged_ingest(&cap, &mut s))?;
            traced.push(ms(t.elapsed()));
            if staged != (o.records, o.stream.chunks, o.conformance.clone()) {
                return Err("staged ingest differs from ingest_reader".into());
            }
            Ok(())
        });
        ctx.check(outcome);

        let t = Instant::now();
        let c = load(INGEST_LIVE_YAML, seed);
        s.push("core.config_us", t.elapsed().as_secs_f64() * 1e6);
        let outcome = c.and_then(|_| {
            let live = live.as_ref().ok_or("traced run lost its live run")?;
            let trace = live.trace.as_ref().ok_or("live run produced no trace")?;
            let opts = ConformanceOpts::from_results(live);
            let report = time_analyzers(trace, &live.conns, &opts, &mut s);
            if report.violations.len() != cap.violations {
                return Err("live conformance verdict changed".into());
            }
            Ok(())
        });
        ctx.check(outcome);
    }
    finish_trace_samples(ctx, &mut s, &untraced, &traced);
    Ok(s.medians())
}

/// The `ingest_reader` pipeline, rebuilt from its public stages and timed
/// at each stage boundary. Returns what must match `ingest_reader`:
/// records read, chunks sealed, and the conformance verdict.
fn staged_ingest(
    cap: &Capture,
    s: &mut Samples,
) -> Result<(u64, u64, conformance::ConformanceReport), String> {
    let params = ingest_params(cap);
    let opts = ConformanceOpts {
        np_enabled_requester: cap.context.requester.dcqcn_np_enable,
        np_enabled_responder: cap.context.responder.dcqcn_np_enable,
        mtu: cap.context.traffic.mtu,
        ..ConformanceOpts::default()
    };
    let mut pcap = PcapReader::new(&cap.pcap[..]).map_err(|e| format!("{e:?}"))?;
    let mut oracle = ConformanceStream::discovering(&opts);
    let mut recon = StreamingReconstructor::new(StreamOpts {
        chunk_entries: params.chunk_entries,
        max_resident_bytes: params.max_resident_bytes,
    });
    let mut recovery = RecoveryStats::default();
    let mut degraded = false;
    let (mut parse_ns, mut recover_ns, mut recon_ns, mut oracle_ns) = (0u64, 0u64, 0u64, 0u64);
    loop {
        let t0 = Instant::now();
        let Some(rec) = pcap.next_record() else {
            parse_ns += t0.elapsed().as_nanos() as u64;
            break;
        };
        let rec = rec.map_err(|e| format!("malformed record: {e:?}"))?;
        let t1 = Instant::now();
        parse_ns += (t1 - t0).as_nanos() as u64;
        let p = recover_frame(&rec.data, rec.orig_len, rec.ts, &mut recovery);
        let t2 = Instant::now();
        recover_ns += (t2 - t1).as_nanos() as u64;
        if let Some(p) = p {
            let chunk = recon.push(&p);
            let t3 = Instant::now();
            recon_ns += (t3 - t2).as_nanos() as u64;
            if let Some(chunk) = chunk {
                if recon.damaged() && !degraded {
                    degraded = true;
                    oracle.set_degraded();
                }
                oracle.observe_trace(&chunk);
                oracle_ns += t3.elapsed().as_nanos() as u64;
            }
        }
    }
    let records = pcap.records();
    let t = Instant::now();
    let (tail, summary) = recon.finish();
    recon_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    if let Some(chunk) = tail {
        let damaged = summary.bad_captures > 0
            || summary.duplicates > 0
            || summary.missing > 0
            || summary.late > 0;
        if damaged && !degraded {
            degraded = true;
            oracle.set_degraded();
        }
        oracle.observe_trace(&chunk);
    }
    if !summary.is_complete() && !degraded {
        oracle.set_degraded();
    }
    let report = oracle.finish();
    oracle_ns += t.elapsed().as_nanos() as u64;

    let n = records.max(1) as f64;
    s.push("ingest.parse_ns_per_record", parse_ns as f64 / n);
    s.push("ingest.recover_ns_per_record", recover_ns as f64 / n);
    s.push("ingest.reconstruct_ns_per_record", recon_ns as f64 / n);
    s.push("ingest.oracle_ns_per_record", oracle_ns as f64 / n);
    s.push("ingest.chunks", summary.chunks as f64);
    s.push(
        "ingest.peak_resident_bytes",
        summary.peak_resident_bytes as f64,
    );
    Ok((records, summary.chunks, report))
}
