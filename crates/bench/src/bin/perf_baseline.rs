//! Perf baseline for the observability layer and the discrete-event
//! core. `--bench overhead` (the default) times every probe on the
//! four-flow Figure-1 sweep — `probes_off`, `metrics`, then the flight
//! recorder (`tracing`), streaming privacy observatory (`privacy`),
//! engine self-profiler (`profiled`), windowed determinism digest
//! (`audited`) and counting-allocator observatory (`mem`), each composed
//! over the metrics probe — and ledgers allocs per delivered packet
//! across the seven buffer/victim configs plus 100/1k/10k scale points,
//! all into one `BENCH_overhead.json`. `--bench scale` sweeps random
//! geometric convergecast fields at ~100/1k/10k nodes and writes
//! `BENCH_core.json` (events/sec, peak future-event-set size, wall
//! seconds per mode).
//!
//! ```text
//! cargo run --release -p tempriv-bench --bin perf_baseline
//! cargo run --release -p tempriv-bench --bin perf_baseline -- \
//!     --packets 100 --points 2,20 --repeats 2 --out BENCH_overhead.json
//! cargo run --release -p tempriv-bench --bin perf_baseline -- \
//!     --bench scale --nodes 100,1000,10000 --baseline results/BENCH_core.json
//! ```
//!
//! Each mode runs the identical deterministic sweep (same seeds, same
//! event sequence — the probe layer observes and never samples), so the
//! wall-clock deltas isolate instrumentation cost. Per point the minimum
//! over `--repeats` runs is reported, and each overhead ratio is the
//! median of same-repeat ratios (see `tempriv_bench::harness`). The
//! overhead gates are not applied here: `tempriv report --bench` holds
//! the one gate table. For `--bench scale`, `--baseline`
//! points at a previous `BENCH_core.json`; its `probes_off` events/sec
//! are embedded per point and a speedup ratio computed, which is how
//! before/after comparisons of core data-structure work are recorded.

use std::path::PathBuf;
use std::process::ExitCode;

use serde::{Deserialize, Serialize};
use tempriv_bench::harness::{min_of, time_interleaved, ModeTiming, OverheadSummary};
use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::delay::DelayPlan;
use tempriv_core::sim_driver::NetworkSimulation;
use tempriv_core::telemetry::privacy_probe_for;
use tempriv_net::convergecast::Convergecast;
use tempriv_net::geometric::GeometricDeployment;
use tempriv_net::ids::NodeId;
use tempriv_net::routing::RoutingTree;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::rng::RngFactory;
use tempriv_telemetry::{
    memprof, DigestProbe, FlightRecorder, MemScopeTimer, PhaseProfiler, RecordingProbe,
};

/// The `mem` mode and the allocation ledger count through the real
/// allocator; the other modes leave the gate off and pay one relaxed
/// load per allocation.
#[global_allocator]
static ALLOC: tempriv_telemetry::CountingAlloc = tempriv_telemetry::CountingAlloc;

/// Which benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BenchKind {
    /// Every probe's cost on the Figure-1 sweep plus the allocation
    /// ledger (`BENCH_overhead.json`).
    Overhead,
    /// Discrete-event core throughput on geometric fields (`BENCH_core.json`).
    Scale,
}

/// Every timed mode, in run and report order: the two baselines, then
/// the five probes, each composed over the metrics probe. The two gated
/// probes run right after the `metrics` run they are divided by, so the
/// flight ring's 12 MB of writes, the observatory and the profiler never
/// run between a gated probe and its baseline.
const MODES: [&str; 7] = [
    "probes_off",
    "metrics",
    "audited",
    "mem",
    "tracing",
    "privacy",
    "profiled",
];

/// One buffer/victim config's steady-state allocation ledger.
#[derive(Debug, Serialize)]
struct MemConfigLedger {
    /// Config label, e.g. `rcad_shortest_remaining`.
    config: String,
    /// Heap allocations in one steady-state (post-warm-up) run.
    allocs: u64,
    /// Bytes requested in that run.
    alloc_bytes: u64,
    /// Packets delivered in that run.
    delivered: u64,
    /// `allocs / delivered` — the zero-alloc-data-plane ratchet figure.
    allocs_per_delivered: f64,
    /// Peak live heap bytes during that run (peak rebased beforehand).
    peak_live_bytes: u64,
}

/// One geometric scale point's allocation ledger.
#[derive(Debug, Serialize)]
struct MemScalePoint {
    /// Node count of the geometric field.
    nodes: usize,
    /// Heap allocations in one steady-state run.
    allocs: u64,
    /// Packets delivered in that run.
    delivered: u64,
    /// `allocs / delivered`.
    allocs_per_delivered: f64,
    /// Peak live heap bytes during that run.
    peak_live_bytes: u64,
}

/// The `BENCH_overhead.json` payload. The timing half times all seven
/// modes interleaved over one Figure-1 sweep, so the shared `probes_off`
/// and `metrics` baselines are measured once for every probe; the ledger
/// half commits allocs-per-delivered baselines per buffer/victim config
/// and per scale point.
#[derive(Debug, Serialize)]
struct OverheadReport {
    /// What was benchmarked.
    bench: String,
    /// Inter-arrival times of the timing sweep points.
    points: Vec<f64>,
    /// Packets per source per point.
    packets_per_source: u32,
    /// Timing repetitions per point (minimum kept).
    repeats: u32,
    /// Per-mode timings, in [`MODES`] order.
    modes: Vec<ModeTiming>,
    /// Paired ratio `metrics / probes_off`.
    metrics_over_probes_off: f64,
    /// One row per probe (every mode after the two baselines).
    probes: Vec<OverheadSummary>,
    /// Headline: paper-config (RCAD shortest-remaining) steady-state
    /// allocs per delivered packet.
    allocs_per_delivered: f64,
    /// Headline: max peak live heap bytes across the configs.
    peak_live_bytes: u64,
    /// Per-config ledgers across the seven buffer/victim configs.
    configs: Vec<MemConfigLedger>,
    /// Ledgers at the geometric scale points (default 100/1k/10k).
    scale_points: Vec<MemScalePoint>,
}

/// One instrumentation mode's timing at one scale point.
#[derive(Debug, Serialize, Deserialize)]
struct ScaleModeTiming {
    /// Mode name: `probes_off`, `metrics` or `sharded`.
    mode: String,
    /// Best-of-repeats wall seconds for one full run.
    secs: f64,
    /// Engine events delivered per wall second (`events / secs`).
    events_per_sec: f64,
    /// Every repeat's wall seconds, in run order (the spread behind
    /// `secs`). Empty in reports recorded before it was kept.
    #[serde(default)]
    repeat_secs: Vec<f64>,
}

/// One scale point: a sampled geometric field of `nodes` nodes.
#[derive(Debug, Serialize, Deserialize)]
struct ScalePoint {
    /// Node count of the geometric field (sink included).
    nodes: usize,
    /// Number of source flows (every 10th node).
    sources: usize,
    /// Packets each source creates.
    packets_per_source: u32,
    /// Engine events delivered in one run (mode-invariant).
    events: u64,
    /// Peak future-event-set size over the run (mode-invariant).
    peak_fes: u64,
    /// Per-mode timings: probes_off, metrics.
    modes: Vec<ScaleModeTiming>,
    /// `probes_off` events/sec of the `--baseline` run at this node
    /// count, when one was given.
    #[serde(default)]
    baseline_events_per_sec: Option<f64>,
    /// `events_per_sec / baseline_events_per_sec` for `probes_off`.
    #[serde(default)]
    speedup: Option<f64>,
    /// Per-shard event counts of the balanced-cut sharded run, when
    /// `--shards` was given (empty for serial-only runs). Sums to that
    /// run's own event total; the exact-cut cross-check separately
    /// asserts bit-equality with the serial engine.
    #[serde(default)]
    shard_events: Vec<u64>,
}

/// The `BENCH_core.json` payload.
#[derive(Debug, Serialize, Deserialize)]
struct ScaleReport {
    /// What was benchmarked.
    bench: String,
    /// Topology/workload seed.
    seed: u64,
    /// Total packet budget per point (split across sources).
    budget: u64,
    /// Timing repetitions per point (minimum kept).
    repeats: u32,
    /// Logical CPUs of the machine that ran it (`available_parallelism`;
    /// 0 in reports recorded before it was kept).
    #[serde(default)]
    nproc: usize,
    /// One entry per `--nodes` value.
    points: Vec<ScalePoint>,
    /// `probes_off` speedup vs `--baseline` on the largest point.
    #[serde(default)]
    headline_speedup: Option<f64>,
}

/// Builds the scale-point simulation: a connected unit-disk field at
/// constant density (side = √n, range 2 ⇒ mean degree ≈ 4π), sink
/// pinned at the corner, every 10th node a source, paper-default RCAD
/// buffering so the cancel-heavy preemption path is exercised.
fn scale_sim(n_nodes: usize, budget: u64, seed: u64) -> (NetworkSimulation, usize, u32) {
    let side = (n_nodes as f64).sqrt().max(3.0);
    // Constant density keeps 100/1k/10k byte-identical to the committed
    // baselines; past 100k the random-geometric connectivity threshold
    // (πr² vs ln n) catches up with range 2, so the million-node point
    // widens the radio range slightly to stay connected.
    let range = if n_nodes > 100_000 { 2.5 } else { 2.0 };
    let deploy = GeometricDeployment::new(side, side, n_nodes, range);
    let mut rng = RngFactory::new(seed).stream(0x5CA1E);
    let topo = deploy
        .sample_connected(&mut rng, 64)
        .expect("constant-density field should connect within 64 attempts");
    let routing = RoutingTree::shortest_path(&topo, NodeId(0)).expect("connected topology routes");
    // Every 10th node sources traffic up to 10k nodes (the committed
    // points); larger fields keep ~1000 sources so the packet budget
    // stays meaningful per flow.
    let stride = if n_nodes > 10_000 { n_nodes / 1000 } else { 10 };
    let sources: Vec<NodeId> = (1..n_nodes)
        .step_by(stride)
        .map(|i| NodeId(i as u32))
        .collect();
    let n_sources = sources.len();
    let packets = u32::try_from((budget / n_sources as u64).clamp(20, 5000)).expect("clamped");
    let sim = NetworkSimulation::builder(routing, sources)
        .traffic(TrafficModel::periodic(2.0))
        .packets_per_source(packets)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(seed)
        .build()
        .expect("scale config is valid");
    (sim, n_sources, packets)
}

/// Runs the scale sweep and assembles the `BENCH_core.json` report.
fn run_scale(
    node_counts: &[usize],
    budget: u64,
    seed: u64,
    repeats: u32,
    shards: u32,
    workers: usize,
    baseline: Option<&ScaleReport>,
) -> ScaleReport {
    let mut points = Vec::with_capacity(node_counts.len());
    for &n in node_counts {
        let (sim, n_sources, packets) = scale_sim(n, budget, seed);
        let n_buf_nodes = sim.routing().len();
        // Warm-up run; also pins the mode-invariant event statistics.
        let outcome = sim.run();
        let (events, peak_fes) = (outcome.events, outcome.peak_fes);
        // Sharded cross-checks. The exact (trunk-edge) cut must
        // reproduce the serial run bit-for-bit: same event count, same
        // outcome digest. The balanced (load-carved) cut — the one the
        // timed `sharded` mode below runs, since a corner-sink geometric
        // field is one giant subtree the exact cut cannot split — must
        // conserve the packet population; its per-shard event counts are
        // what the report's shard table shows.
        let shard_events: Vec<u64> = if shards > 1 {
            let exact = sim.run_sharded(shards, workers);
            assert_eq!(
                exact.events, events,
                "exact sharded run must deliver the serial event count at n={n}"
            );
            assert_eq!(
                exact.digest(),
                outcome.digest(),
                "exact sharded run must reproduce the serial outcome digest at n={n}"
            );
            let balanced = sim.run_sharded_balanced(shards, workers);
            let created: u64 = balanced.flows.iter().map(|f| f.created).sum();
            assert_eq!(
                balanced.total_delivered() + balanced.total_drops() + balanced.total_stranded(),
                created,
                "balanced sharded run must conserve the packet population at n={n}"
            );
            balanced.shards.iter().map(|s| s.events).collect()
        } else {
            Vec::new()
        };
        std::hint::black_box(outcome);
        let mut serial = || {
            let out = sim.run();
            assert_eq!(out.events, events, "scale runs must be deterministic");
            std::hint::black_box(out);
        };
        let mut metrics = || {
            let mut probe = RecordingProbe::new(n_buf_nodes);
            std::hint::black_box(sim.run_probed(&mut probe));
            std::hint::black_box(&probe);
        };
        let mut sharded_mode = || {
            std::hint::black_box(sim.run_sharded_balanced(shards, workers));
        };
        let mut modes_run: Vec<&mut dyn FnMut()> = vec![&mut serial, &mut metrics];
        let mut mode_names = vec!["probes_off", "metrics"];
        if shards > 1 {
            modes_run.push(&mut sharded_mode);
            mode_names.push("sharded");
        }
        let modes: Vec<ScaleModeTiming> = mode_names
            .iter()
            .zip(time_interleaved(repeats, &mut modes_run))
            .map(|(name, repeat_secs)| {
                let secs = min_of(&repeat_secs);
                ScaleModeTiming {
                    mode: (*name).to_string(),
                    secs,
                    events_per_sec: events as f64 / secs,
                    repeat_secs,
                }
            })
            .collect();
        let baseline_events_per_sec = baseline.and_then(|b| {
            b.points
                .iter()
                .find(|p| p.nodes == n)
                .and_then(|p| p.modes.iter().find(|m| m.mode == "probes_off"))
                .map(|m| m.events_per_sec)
        });
        let speedup = baseline_events_per_sec.map(|b| modes[0].events_per_sec / b);
        eprintln!(
            "[perf] scale n={n}: {events} events, peak FES {peak_fes}, \
             {:.0} ev/s probes_off{}",
            modes[0].events_per_sec,
            speedup.map_or(String::new(), |s| format!(", {s:.2}x vs baseline")),
        );
        points.push(ScalePoint {
            nodes: n,
            sources: n_sources,
            packets_per_source: packets,
            events,
            peak_fes,
            modes,
            baseline_events_per_sec,
            speedup,
            shard_events,
        });
    }
    let headline_speedup = points
        .iter()
        .max_by_key(|p| p.nodes)
        .and_then(|p| p.speedup);
    ScaleReport {
        bench: "geometric_convergecast_scale".to_string(),
        seed,
        budget,
        repeats,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        points,
        headline_speedup,
    }
}

fn figure1_sim(inv_lambda: f64, packets: u32) -> NetworkSimulation {
    figure1_sim_with(inv_lambda, packets, BufferPolicy::paper_rcad())
}

fn figure1_sim_with(inv_lambda: f64, packets: u32, buffer: BufferPolicy) -> NetworkSimulation {
    let layout = Convergecast::paper_figure1();
    NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::periodic(inv_lambda))
        .packets_per_source(packets)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(buffer)
        .seed(2007)
        .build()
        .expect("paper Figure-1 config is valid")
}

/// The seven buffer/victim configurations the memory ledger pins:
/// every buffering discipline in the repo, with RCAD expanded across
/// all four victim policies.
fn mem_configs() -> [(&'static str, BufferPolicy); 7] {
    [
        ("unlimited", BufferPolicy::Unlimited),
        ("drop_tail", BufferPolicy::DropTail { capacity: 10 }),
        (
            "threshold_mix",
            BufferPolicy::ThresholdMix { threshold: 10 },
        ),
        (
            "rcad_shortest_remaining",
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::ShortestRemaining,
            },
        ),
        (
            "rcad_longest_remaining",
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::LongestRemaining,
            },
        ),
        (
            "rcad_random",
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::Random,
            },
        ),
        (
            "rcad_oldest",
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::Oldest,
            },
        ),
    ]
}

/// Steady-state allocation ledger for one simulation: a warm-up run
/// absorbs one-time lazy setup, then a measured run counts this
/// thread's allocations and the rebased peak-live high-water mark.
/// Requires counting to be enabled.
fn measure_mem(sim: &NetworkSimulation) -> (u64, u64, u64, f64, u64) {
    std::hint::black_box(sim.run());
    memprof::reset_peak();
    let base = memprof::thread_snapshot();
    let outcome = sim.run();
    let delta = memprof::thread_snapshot().since(base);
    let peak = memprof::snapshot().peak_live_bytes;
    let delivered = outcome.total_delivered();
    std::hint::black_box(outcome);
    #[allow(clippy::cast_precision_loss)]
    let per_delivered = if delivered > 0 {
        delta.allocs as f64 / delivered as f64
    } else {
        0.0
    };
    (delta.allocs, delta.bytes, delivered, per_delivered, peak)
}

/// Ledgers the seven buffer/victim configs on the Figure-1 layout.
fn mem_config_ledgers(inv_lambda: f64, packets: u32) -> Vec<MemConfigLedger> {
    mem_configs()
        .into_iter()
        .map(|(label, buffer)| {
            let sim = figure1_sim_with(inv_lambda, packets, buffer);
            let (allocs, alloc_bytes, delivered, allocs_per_delivered, peak_live_bytes) =
                measure_mem(&sim);
            eprintln!(
                "[perf] mem {label}: {allocs} allocs / {delivered} delivered \
                 = {allocs_per_delivered:.2}, peak live {peak_live_bytes} B"
            );
            MemConfigLedger {
                config: label.to_string(),
                allocs,
                alloc_bytes,
                delivered,
                allocs_per_delivered,
                peak_live_bytes,
            }
        })
        .collect()
}

/// Ledgers the geometric scale points (default 100/1k/10k nodes).
fn mem_scale_ledgers(node_counts: &[usize], budget: u64, seed: u64) -> Vec<MemScalePoint> {
    node_counts
        .iter()
        .map(|&nodes| {
            let (sim, _, _) = scale_sim(nodes, budget, seed);
            let (allocs, _, delivered, allocs_per_delivered, peak_live_bytes) = measure_mem(&sim);
            eprintln!(
                "[perf] mem scale n={nodes}: {allocs} allocs / {delivered} delivered \
                 = {allocs_per_delivered:.2}, peak live {peak_live_bytes} B"
            );
            MemScalePoint {
                nodes,
                allocs,
                delivered,
                allocs_per_delivered,
                peak_live_bytes,
            }
        })
        .collect()
}

/// Times all seven [`MODES`] over the sweep, interleaved in one
/// [`time_interleaved`] loop per point: within each repeat the modes run
/// back-to-back in [`MODES`] order, so ambient machine load skews them
/// equally rather than biasing whichever mode happened to run during a
/// busy stretch. Every probe is composed over the metrics probe exactly
/// as the runtime collector composes it.
fn time_modes(points: &[f64], packets: u32, repeats: u32) -> Vec<ModeTiming> {
    let mut secs: Vec<Vec<Vec<f64>>> = vec![Vec::with_capacity(points.len()); MODES.len()];
    // The ring is allocated once and reset between runs, as a long-lived
    // flight recorder would be: the steady-state cost is the per-event
    // record, not the one-time arena allocation.
    let mut flight = FlightRecorder::new();
    for &inv_lambda in points {
        let sim = figure1_sim(inv_lambda, packets);
        let nodes = sim.routing().len();
        // One closure per entry of `MODES`, in the same order.
        let mut runs: [&mut dyn FnMut(); MODES.len()] = [
            &mut || {
                std::hint::black_box(sim.run());
            },
            &mut || {
                let mut probe = RecordingProbe::new(nodes);
                std::hint::black_box(sim.run_probed(&mut probe));
                std::hint::black_box(&probe);
            },
            &mut || {
                let mut pair = (
                    RecordingProbe::new(nodes),
                    DigestProbe::with_default_window(),
                );
                std::hint::black_box(sim.run_probed(&mut pair));
                std::hint::black_box(pair.1.finish());
            },
            &mut || {
                // The full memory observatory: counting gate open for
                // the run, phase-attributed scope timer on the driver's
                // switch hooks. The gate closes again so the other six
                // modes time the counting-off path.
                memprof::set_enabled(true);
                let mut probe = RecordingProbe::new(nodes);
                let mut timer = MemScopeTimer::new();
                std::hint::black_box(sim.run_profiled(&mut probe, &mut timer));
                std::hint::black_box(timer.finish());
                memprof::set_enabled(false);
            },
            &mut || {
                flight.reset();
                let mut pair = (RecordingProbe::new(nodes), &mut flight);
                std::hint::black_box(sim.run_probed(&mut pair));
                std::hint::black_box(&pair);
            },
            &mut || {
                let mut pair = (RecordingProbe::new(nodes), privacy_probe_for(&sim, 100));
                std::hint::black_box(sim.run_probed(&mut pair));
                std::hint::black_box(&pair);
            },
            &mut || {
                let mut probe = RecordingProbe::new(nodes);
                let mut timer = PhaseProfiler::new();
                std::hint::black_box(sim.run_profiled(&mut probe, &mut timer));
                std::hint::black_box(timer.finish());
            },
        ];
        let samples = time_interleaved(repeats, &mut runs);
        for (mode, s) in secs.iter_mut().zip(samples) {
            mode.push(s);
        }
    }
    MODES
        .iter()
        .zip(secs)
        .map(|(name, repeat_secs)| ModeTiming::new(name, repeat_secs))
        .collect()
}

/// Assembles the overhead report: one [`OverheadSummary`] row per probe
/// against the two baselines.
fn overhead_report(
    args: &Args,
    modes: Vec<ModeTiming>,
    configs: Vec<MemConfigLedger>,
    scale_points: Vec<MemScalePoint>,
) -> OverheadReport {
    let (probes_off, metrics) = (&modes[0], &modes[1]);
    let probes = modes[2..]
        .iter()
        .map(|probe| OverheadSummary::from_modes(probes_off, metrics, probe))
        .collect();
    let allocs_per_delivered = configs
        .iter()
        .find(|c| c.config == "rcad_shortest_remaining")
        .map_or(0.0, |c| c.allocs_per_delivered);
    let peak_live_bytes = configs.iter().map(|c| c.peak_live_bytes).max().unwrap_or(0);
    OverheadReport {
        bench: "figure1_sweep_probe_overhead".to_string(),
        points: args.points.clone(),
        packets_per_source: args.packets,
        repeats: args.repeats,
        metrics_over_probes_off: metrics.paired_ratio(probes_off),
        modes,
        probes,
        allocs_per_delivered,
        peak_live_bytes,
        configs,
        scale_points,
    }
}

/// Structural checks on an overhead report, run before it is written so
/// a malformed report fails the run rather than reaching the gate table
/// (the gate bounds themselves live in `tempriv report --bench`): mode
/// order, finite positive ratios, a seven-config ledger with nonzero
/// counts whose headline is the paper config's figure, and a counted
/// first scale point.
fn check_overhead(report: &OverheadReport) -> Result<(), String> {
    let order: Vec<&str> = report.modes.iter().map(|m| m.mode.as_str()).collect();
    if order != MODES {
        return Err(format!("mode order {order:?}, expected {MODES:?}"));
    }
    let mut ratios = vec![(
        "metrics_over_probes_off".to_string(),
        report.metrics_over_probes_off,
    )];
    for p in &report.probes {
        ratios.push((format!("{}_over_probes_off", p.probe), p.over_probes_off));
        ratios.push((format!("{}_over_metrics", p.probe), p.over_metrics));
    }
    if let Some((name, ratio)) = ratios.iter().find(|(_, r)| !(r.is_finite() && *r > 0.0)) {
        return Err(format!("{name} = {ratio} is not a finite positive ratio"));
    }
    if report.configs.len() != mem_configs().len() {
        return Err(format!(
            "ledger has {} configs, expected {}",
            report.configs.len(),
            mem_configs().len()
        ));
    }
    if let Some(c) = report
        .configs
        .iter()
        .find(|c| c.delivered == 0 || c.allocs == 0 || c.peak_live_bytes == 0)
    {
        return Err(format!("ledger config {} counted nothing: {c:?}", c.config));
    }
    let paper = report
        .configs
        .iter()
        .find(|c| c.config == "rcad_shortest_remaining")
        .ok_or("ledger lacks rcad_shortest_remaining")?;
    if report.allocs_per_delivered.to_bits() != paper.allocs_per_delivered.to_bits() {
        return Err(format!(
            "headline allocs_per_delivered {} differs from rcad_shortest_remaining's {}",
            report.allocs_per_delivered, paper.allocs_per_delivered
        ));
    }
    if report.scale_points.first().is_none_or(|p| p.allocs == 0) {
        return Err("first scale point counted no allocations".into());
    }
    Ok(())
}

/// Parsed command line.
struct Args {
    kind: BenchKind,
    points: Vec<f64>,
    packets: u32,
    repeats: u32,
    out: PathBuf,
    /// Node counts of the geometric fields (the scale sweep, or the
    /// overhead report's ledger scale points).
    nodes: Vec<usize>,
    /// Total packet budget per geometric point.
    budget: u64,
    /// Geometric topology/workload seed.
    seed: u64,
    /// `--bench scale` only: previous `BENCH_core.json` to compare against.
    baseline: Option<PathBuf>,
    /// `--bench scale` only: shard count for the sharded cross-check
    /// mode (1 = serial only).
    shards: u32,
    /// `--bench scale` only: worker threads for the sharded mode.
    workers: usize,
}

/// Parses the command line (program name already stripped).
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = BenchKind::Overhead;
    let mut points: Vec<f64> = vec![2.0, 8.0, 14.0, 20.0];
    let mut packets: u32 = 1000;
    let mut repeats: u32 = 5;
    let mut out: Option<PathBuf> = None;
    let mut nodes: Vec<usize> = vec![100, 1000, 10_000];
    let mut budget: u64 = 40_000;
    let mut seed: u64 = 4242;
    let mut baseline: Option<PathBuf> = None;
    let mut shards: u32 = 1;
    let mut workers: usize = 1;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--bench" => {
                kind = match value.as_str() {
                    "overhead" => BenchKind::Overhead,
                    "scale" => BenchKind::Scale,
                    other => return Err(format!("bad --bench `{other}`; overhead or scale")),
                };
            }
            "--points" => {
                points = value
                    .split(',')
                    .map(|p| p.trim().parse().map_err(|_| format!("bad point `{p}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--packets" => {
                packets = value
                    .parse()
                    .map_err(|_| format!("bad --packets `{value}`"))?;
            }
            "--repeats" => {
                repeats = value
                    .parse()
                    .map_err(|_| format!("bad --repeats `{value}`"))?;
            }
            "--nodes" => {
                nodes = value
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse()
                            .map_err(|_| format!("bad node count `{p}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--budget" => {
                budget = value
                    .parse()
                    .map_err(|_| format!("bad --budget `{value}`"))?;
            }
            "--seed" => {
                seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?;
            }
            "--baseline" => baseline = Some(PathBuf::from(value)),
            "--shards" => {
                shards = value
                    .parse()
                    .map_err(|_| format!("bad --shards `{value}`"))?;
            }
            "--workers" => {
                workers = value
                    .parse()
                    .map_err(|_| format!("bad --workers `{value}`"))?;
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    if points.is_empty() || repeats == 0 {
        return Err("--points and --repeats must be non-empty/positive".into());
    }
    if nodes.is_empty() || nodes.iter().any(|&n| n < 2) || budget == 0 {
        return Err("--nodes needs counts >= 2 and --budget must be positive".into());
    }
    if shards == 0 || workers == 0 {
        return Err("--shards and --workers must be positive".into());
    }
    let out = out.unwrap_or_else(|| {
        PathBuf::from(std::env::var("TEMPRIV_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
            .join(match kind {
                BenchKind::Overhead => "BENCH_overhead.json",
                BenchKind::Scale => "BENCH_core.json",
            })
    });
    Ok(Args {
        kind,
        points,
        packets,
        repeats,
        out,
        nodes,
        budget,
        seed,
        baseline,
        shards,
        workers,
    })
}

/// Serializes `report` and writes it to `out`, creating parent dirs.
fn write_report<T: Serialize>(report: &T, out: &PathBuf) -> Result<(), String> {
    let json =
        serde_json::to_string_pretty(report).map_err(|e| format!("serialize report: {e}"))?;
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(out, json).map_err(|e| format!("cannot write {}: {e}", out.display()))
}

fn run_scale_main(args: &Args) -> Result<(), String> {
    let baseline = match &args.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
            Some(
                serde_json::from_str::<ScaleReport>(&text)
                    .map_err(|e| format!("bad baseline {}: {e}", path.display()))?,
            )
        }
        None => None,
    };
    let report = run_scale(
        &args.nodes,
        args.budget,
        args.seed,
        args.repeats,
        args.shards,
        args.workers,
        baseline.as_ref(),
    );
    write_report(&report, &args.out)?;
    let largest = report.points.last().expect("at least one point");
    println!(
        "scale bench: {:.0} events/sec probes_off at {} nodes (peak FES {}){} [written {}]",
        largest.modes[0].events_per_sec,
        largest.nodes,
        largest.peak_fes,
        report
            .headline_speedup
            .map_or(String::new(), |s| format!(", {s:.2}x vs baseline")),
        args.out.display()
    );
    Ok(())
}

fn run_overhead_main(args: &Args) -> Result<(), String> {
    // Warm caches so the first timed mode pays no cold-start penalty.
    std::hint::black_box(figure1_sim(args.points[0], args.packets.min(100)).run());
    let modes = time_modes(&args.points, args.packets, args.repeats);
    // Ledger half: counting stays on for the steady-state allocation
    // baselines (the timing half closed the gate after its mem mode).
    memprof::set_enabled(true);
    let configs = mem_config_ledgers(8.0, args.packets);
    let scale_points = mem_scale_ledgers(&args.nodes, args.budget, args.seed);
    let report = overhead_report(args, modes, configs, scale_points);
    check_overhead(&report)?;
    write_report(&report, &args.out)?;
    for p in &report.probes {
        println!(
            "{:<9} overhead: {:+6.2}% vs metrics, {:+6.2}% vs probes-off",
            p.probe,
            p.overhead_pct,
            (p.over_probes_off - 1.0) * 100.0
        );
    }
    println!(
        "metrics probe: {:+.2}% vs probes-off [written {}]",
        (report.metrics_over_probes_off - 1.0) * 100.0,
        args.out.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.kind {
        BenchKind::Overhead => run_overhead_main(&args),
        BenchKind::Scale => run_scale_main(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        parse_args(&tokens.iter().map(|t| (*t).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bench_accepts_overhead_and_scale_only() {
        assert_eq!(parse(&[]).unwrap().kind, BenchKind::Overhead);
        assert_eq!(parse(&["--bench", "scale"]).unwrap().kind, BenchKind::Scale);
        let err = parse(&["--bench", "trace"])
            .err()
            .expect("legacy mode rejected");
        assert!(err.contains("trace"), "{err}");
        assert!(err.contains("overhead") && err.contains("scale"), "{err}");
    }

    #[test]
    fn check_overhead_rejects_an_uncounted_ledger_config() {
        let args = parse(&["--out", "unused.json"]).unwrap();
        let modes = MODES
            .iter()
            .map(|m| ModeTiming::new(m, vec![vec![1.0]]))
            .collect();
        let configs = mem_configs()
            .iter()
            .map(|(label, _)| MemConfigLedger {
                config: (*label).to_string(),
                allocs: 5,
                alloc_bytes: 64,
                delivered: 10,
                allocs_per_delivered: 0.5,
                peak_live_bytes: 4096,
            })
            .collect();
        let scale = vec![MemScalePoint {
            nodes: 100,
            allocs: 5,
            delivered: 10,
            allocs_per_delivered: 0.5,
            peak_live_bytes: 4096,
        }];
        let ok = overhead_report(&args, modes, configs, scale);
        check_overhead(&ok).expect("well-formed report passes");
        assert_eq!(ok.probes.len(), MODES.len() - 2);

        let mut broken = ok;
        broken.configs[0].allocs = 0;
        let err = check_overhead(&broken).unwrap_err();
        assert!(err.contains("unlimited"), "{err}");
    }
}
