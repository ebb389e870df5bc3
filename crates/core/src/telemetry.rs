//! Instrumented runs: per-job telemetry collection, queueing-theory
//! cross-checks, and sweep-level aggregation.
//!
//! This module is the bridge between the generic probes in
//! [`tempriv_telemetry`] and this crate's experiment sweeps. A sweep job
//! that runs through a [`JobTelemetryCollector`] records, per scenario it
//! simulates, the full [`SimTelemetry`] (occupancy series, preemption and
//! drop counts, latency) plus a [`TheoryReport`] comparing the measured
//! queue behaviour against what the paper's queueing model predicts:
//!
//! - **Mean occupancy.** Every delaying node is an M/G/∞ server under
//!   unlimited buffers, so by Little's law its time-weighted mean
//!   occupancy is `ρ = λ/μ` regardless of the arrival process. With a
//!   `k`-slot buffer the M/M/k/k mean `ρ·(1 − B(ρ, k))` is used instead.
//! - **Occupancy distribution.** For Poisson arrivals, exponential
//!   delays, and unlimited buffers the stationary occupancy is exactly
//!   Poisson(ρ) (§4 of the paper); the check is an L1 distance on PMFs.
//! - **Loss / preemption fraction.** A `k`-slot DropTail buffer under
//!   Poisson arrivals drops the Erlang-B fraction `B(ρ, k)`. RCAD with a
//!   *random* victim follows the same occupancy chain (a preemption is
//!   an arrival paired with a forced departure of a uniformly chosen
//!   packet, which leaves the remaining residuals i.i.d. exponential by
//!   memorylessness), so its preemption fraction obeys the same formula.
//!   RCAD's other victim policies bias which residual leaves — e.g.
//!   ShortestRemaining evicts the packet that would have departed
//!   soonest, leaving the *larger* order statistics behind — so their
//!   occupancy chains have no Erlang closed form and get no finite-buffer
//!   checks (measured preemption runs well above `B(ρ, k)`).
//!
//! Collection is strictly opt-in: when the [`Runtime`] has no
//! [`TelemetrySink`], the collector runs plain [`NetworkSimulation::run`]
//! and the simulation output is byte-identical to an uninstrumented run.

use serde::{Deserialize, Serialize};
use tempriv_net::ids::{FlowId, NodeId};
use tempriv_net::traffic::TrafficModel;
use tempriv_queueing::erlang::erlang_b;
use tempriv_runtime::{Blob, Runtime, TelemetrySink};
use tempriv_sim::profile::{Phase, PhaseTimer};
use tempriv_telemetry::{
    memprof, BtqParams, DigestProbe, FlightLog, FlightRecorder, FlowAoi, FlowPrivacyConfig,
    MemBreakdown, MemScopeTimer, MemSnapshot, MetricsRegistry, PhaseBreakdown, PhaseProfiler,
    PrivacyProbe, PrivacySeries, RecordingProbe, RunDigest, SimTelemetry, SpanRecord, SpanSet,
    TelemetrySnapshot, TheoryCheck, TheoryReport, TheoryTolerance, TraceCtx,
};

use crate::buffer::BufferPolicy;
use crate::delay::DelayStrategy;
use crate::metrics::SimOutcome;
use crate::sim_driver::{NetworkSimulation, Workload};

/// The expected steady-state load at one node, derived from the
/// simulation's configuration (not from its output).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeLoadModel {
    /// Aggregate packet arrival rate `λ` at the node (flows through it ×
    /// per-source rate).
    pub lambda: f64,
    /// Service rate `μ = 1 / mean delay`.
    pub mu: f64,
    /// Offered load `ρ = λ/μ`.
    pub rho: f64,
    /// Arrivals are Poisson (source traffic model is Poisson).
    pub poisson_arrivals: bool,
    /// Holding times are exponential (delay strategy is exponential).
    pub exponential_delay: bool,
}

/// Per-node expected loads for `sim`, indexed by node. `None` for nodes
/// the model cannot predict: the sink, pass-through (no-delay) nodes,
/// nodes no flow crosses, threshold-mix nodes (which ignore the delay
/// plan), and any run driven by explicit schedules instead of a traffic
/// model.
#[must_use]
pub fn expected_loads(sim: &NetworkSimulation) -> Vec<Option<NodeLoadModel>> {
    let n = sim.routing().len();
    let mut loads = vec![None; n];
    let Workload::Model(model) = sim.workload() else {
        return loads;
    };
    if matches!(sim.buffer_policy(), BufferPolicy::ThresholdMix { .. }) {
        return loads;
    }
    let rate = model.mean_rate();
    if rate <= 0.0 {
        return loads;
    }
    // Flows through each node: every source's path, sink excluded (the
    // sink consumes packets and never delays them).
    let mut flows_through = vec![0u32; n];
    for &src in sim.sources() {
        let mut path = sim.routing().path(src);
        path.pop();
        for hop in path {
            flows_through[hop.index()] += 1;
        }
    }
    let poisson_arrivals = matches!(model, TrafficModel::Poisson { .. });
    for (i, load) in loads.iter_mut().enumerate() {
        let flows = flows_through[i];
        if flows == 0 {
            continue;
        }
        #[allow(clippy::cast_possible_truncation)]
        let strategy = sim.delay_plan().for_node(NodeId(i as u32));
        if strategy.is_none() {
            continue;
        }
        let mean = strategy.mean();
        if mean <= 0.0 {
            continue;
        }
        let lambda = f64::from(flows) * rate;
        let mu = 1.0 / mean;
        *load = Some(NodeLoadModel {
            lambda,
            mu,
            rho: lambda / mu,
            poisson_arrivals,
            exponential_delay: matches!(strategy, DelayStrategy::Exponential { .. }),
        });
    }
    loads
}

/// Builds the theory cross-check report for one instrumented run:
/// measured telemetry versus the per-node [`expected_loads`] of `sim`.
///
/// Checks are only emitted where the model applies (see the module docs
/// for the exact conditions); a run with no predictable nodes yields an
/// empty — vacuously passing — report.
#[must_use]
pub fn theory_report(
    sim: &NetworkSimulation,
    telemetry: &SimTelemetry,
    tol: &TheoryTolerance,
) -> TheoryReport {
    let mut report = TheoryReport::new();
    // Which station model the buffer policy admits: `None` boxes the
    // infinite-server model, `Some((k, event))` the Erlang M/M/k/k loss
    // model. Policies with no closed form (RCAD with a biased victim)
    // get no node checks at all.
    let finite: Option<Option<(usize, &str)>> = match sim.buffer_policy() {
        BufferPolicy::Unlimited => Some(None),
        BufferPolicy::DropTail { capacity } => Some(Some((capacity, "drop"))),
        BufferPolicy::Rcad {
            capacity,
            victim: crate::buffer::VictimPolicy::Random,
        } => Some(Some((capacity, "preemption"))),
        BufferPolicy::Rcad { .. } | BufferPolicy::ThresholdMix { .. } => None,
    };
    let Some(finite) = finite else {
        return report;
    };
    for (i, load) in expected_loads(sim).iter().enumerate() {
        let Some(load) = load else { continue };
        let Some(node) = telemetry.nodes.get(i) else {
            continue;
        };
        // A node the model expects traffic at but that saw none: the run
        // was too short to measure anything meaningful there.
        if node.arrivals == 0 {
            continue;
        }
        match finite {
            None => {
                // Infinite-server station: Little's law gives mean
                // occupancy ρ = λ/μ for *any* arrival process.
                report.push(TheoryCheck::mean_occupancy(
                    format!("node{i}_mean_occupancy"),
                    load.rho,
                    node.mean_occupancy,
                    tol,
                ));
                // The full Poisson(ρ) occupancy distribution needs the
                // M/M/∞ assumptions.
                if load.poisson_arrivals && load.exponential_delay {
                    report.push(TheoryCheck::poisson_occupancy_pmf(
                        format!("node{i}_occupancy_pmf"),
                        load.rho,
                        &node.occupancy_pmf,
                        tol,
                    ));
                }
            }
            // Erlang's loss model needs Poisson arrivals; a finite
            // buffer under other traffic has no closed form here.
            Some((capacity, event)) if load.poisson_arrivals => {
                #[allow(clippy::cast_possible_truncation)]
                let k = capacity as u32;
                report.push(TheoryCheck::mean_occupancy(
                    format!("node{i}_mean_occupancy"),
                    load.rho * (1.0 - erlang_b(load.rho, k)),
                    node.mean_occupancy,
                    tol,
                ));
                let measured = if event == "drop" {
                    node.drop_fraction()
                } else {
                    node.preemption_fraction()
                };
                report.push(TheoryCheck::erlang_loss(
                    format!("node{i}_{event}_fraction"),
                    load.rho,
                    k,
                    measured,
                    tol,
                ));
            }
            Some(_) => {}
        }
    }
    report
}

/// Exp(μ) cross-checks of the empirical per-hop residence distribution
/// (reconstructed from a flight recording) against the delay plan — the
/// §4 tandem-network assumption made testable.
///
/// Checks are only emitted where the recorded residences *are* the
/// sampled delays: under `Unlimited` and `DropTail` buffers every
/// enqueued packet sits for exactly its sampled delay, so a node with an
/// exponential strategy must show Exp(μ) residences. RCAD eviction
/// biases which sampled delays survive (ShortestRemaining removes the
/// small order statistics), and threshold mixes ignore the delay plan,
/// so neither gets a check. Nodes with fewer than 200 completed
/// residences are skipped: the expected sampling L1 alone (~2/√n over
/// these bins) would swamp the tolerance.
#[must_use]
pub fn residence_checks(
    sim: &NetworkSimulation,
    log: &FlightLog,
    tol: &TheoryTolerance,
) -> Vec<TheoryCheck> {
    const MIN_SAMPLES: usize = 200;
    let mut checks = Vec::new();
    if !matches!(
        sim.buffer_policy(),
        BufferPolicy::Unlimited | BufferPolicy::DropTail { .. }
    ) {
        return checks;
    }
    for (node, samples) in log.residence_by_node() {
        if samples.len() < MIN_SAMPLES {
            continue;
        }
        #[allow(clippy::cast_possible_truncation)]
        let strategy = sim.delay_plan().for_node(NodeId(node as u32));
        let DelayStrategy::Exponential { mean } = strategy else {
            continue;
        };
        checks.push(TheoryCheck::exponential_residence(
            format!("node{node}_residence_exp"),
            mean,
            &samples,
            tol,
        ));
    }
    checks
}

/// Builds the streaming privacy probe matching `sim`'s configuration,
/// with the default histogram resolution. `interval` is the number of
/// deliveries between journaled snapshots. See
/// [`privacy_flow_configs`] for how the per-flow envelopes are derived.
#[must_use]
pub fn privacy_probe_for(sim: &NetworkSimulation, interval: u64) -> PrivacyProbe {
    PrivacyProbe::new(privacy_flow_configs(sim), interval)
}

/// Per-flow privacy configuration matching `sim`: one
/// [`FlowPrivacyConfig`] per flow, with the baseline adversary's
/// constant offset `h·τ + E[path delay]` taken from
/// [`NetworkSimulation::adversary_knowledge`] and the eq. 4 envelope
/// parameters `(μ, λ)` filled in when the workload advertises a rate and
/// the delay plan a positive mean (trace-driven schedules get MI-only
/// tracking).
#[must_use]
pub fn privacy_flow_configs(sim: &NetworkSimulation) -> Vec<FlowPrivacyConfig> {
    let knowledge = sim.adversary_knowledge();
    let lambda = match sim.workload() {
        Workload::Model(model) if model.mean_rate() > 0.0 => Some(model.mean_rate()),
        Workload::Model(_) | Workload::Schedules(_) => None,
    };
    (0..knowledge.num_flows())
        .map(|flow| {
            #[allow(clippy::cast_possible_truncation)]
            let flow_id = FlowId(flow as u32);
            let hops = f64::from(knowledge.hops(flow_id));
            let path_mean = knowledge.path_delay_mean(flow_id);
            let btq = match (lambda, path_mean > 0.0 && hops > 0.0) {
                // The adversary's advertised per-hop mean delay: the
                // path average, exactly what its estimator uses.
                (Some(lambda), true) => Some(BtqParams {
                    mu: hops / path_mean,
                    lambda,
                }),
                _ => None,
            };
            FlowPrivacyConfig {
                adversary_offset: hops * knowledge.tau + path_mean,
                btq,
            }
        })
        .collect()
}

/// One instrumented scenario within a job (a sweep point may simulate
/// several — e.g. Figure 2 runs no-delay, unlimited, and RCAD per point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTelemetry {
    /// Scenario label within the job (e.g. `"rcad"`).
    pub label: String,
    /// The recorded simulation telemetry.
    pub sim: SimTelemetry,
    /// Queueing-theory cross-checks for this scenario.
    pub theory: TheoryReport,
    /// Per-flow Age-of-Information summary, derived from the flight
    /// recording's creation→arrival spans. Empty when flight recording
    /// was off (and in blobs written before AoI existed).
    #[serde(default)]
    pub aoi: Vec<FlowAoi>,
}

/// Everything one job attaches to its manifest record when telemetry is
/// on: per-scenario telemetry plus wall-time spans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobTelemetry {
    /// One entry per simulated scenario, in execution order.
    pub scenarios: Vec<ScenarioTelemetry>,
    /// Wall-clock time per scenario (profiling metadata; excluded from
    /// all deterministic outputs).
    pub spans: SpanSet,
}

impl JobTelemetry {
    /// Total theory checks across all scenarios.
    #[must_use]
    pub fn theory_checks(&self) -> usize {
        self.scenarios.iter().map(|s| s.theory.checks.len()).sum()
    }

    /// Theory checks that exceeded their tolerance.
    #[must_use]
    pub fn theory_flagged(&self) -> usize {
        self.scenarios
            .iter()
            .flat_map(|s| &s.theory.checks)
            .filter(|c| !c.passed)
            .count()
    }
}

/// One traced scenario within a job: the label plus its frozen flight
/// recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTrace {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// The frozen flight recording.
    pub log: FlightLog,
}

/// Everything one job attaches as its manifest *trace* blob when flight
/// recording is on: one [`FlightLog`] per simulated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobTrace {
    /// One entry per traced scenario, in execution order.
    pub scenarios: Vec<ScenarioTrace>,
}

/// One scenario's streaming privacy series within a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPrivacy {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// The frozen privacy convergence series.
    pub series: PrivacySeries,
}

/// Everything one job attaches as its manifest *privacy* blob when the
/// streaming privacy observatory is on: one [`PrivacySeries`] per
/// simulated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobPrivacy {
    /// One entry per observed scenario, in execution order.
    pub scenarios: Vec<ScenarioPrivacy>,
}

/// One scenario's engine phase breakdown within a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioProfile {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// Wall-time attribution across the engine's kernel phases.
    pub profile: PhaseBreakdown,
}

/// Everything one job attaches as its manifest *spans* blob when
/// cross-layer span tracing is on: wall-clock spans carrying the
/// request's trace id down to each simulated scenario, plus one engine
/// phase breakdown per scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobSpans {
    /// The job span followed by one span per scenario, all sharing the
    /// run's trace id. Timestamps are microseconds since the owning
    /// sink's epoch.
    pub spans: Vec<SpanRecord>,
    /// One phase breakdown per profiled scenario, in execution order.
    pub profiles: Vec<ScenarioProfile>,
}

/// One scenario's determinism-audit digest within a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioAudit {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// The windowed checkpoint digests and run root for this scenario.
    pub digest: RunDigest,
}

/// Everything one job attaches as its manifest *audit* blob when the
/// determinism audit is on: one [`RunDigest`] per simulated scenario
/// plus a job-level root folding the scenario roots together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobAudit {
    /// One entry per audited scenario, in execution order.
    pub scenarios: Vec<ScenarioAudit>,
    /// Digest over every `label:root` pair in order — one line to
    /// compare when asking "did this job replay identically?".
    pub root: String,
}

impl JobAudit {
    /// The job root implied by the current scenario list: the content
    /// digest of each scenario's `label:root` line, in order.
    #[must_use]
    pub fn compute_root(&self) -> String {
        let mut lines = String::new();
        for scenario in &self.scenarios {
            lines.push_str(&scenario.label);
            lines.push(':');
            lines.push_str(&scenario.digest.root);
            lines.push('\n');
        }
        tempriv_telemetry::audit::digest::content_digest(lines.as_bytes())
    }
}

/// One scenario's allocation ledger within a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMem {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// Per-slot allocation attribution for this scenario's run window
    /// (kernel phases plus the pipeline layers).
    pub ledger: MemBreakdown,
    /// Heap allocations made on the driver thread during the run.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Packets the scenario delivered (the ratio's denominator).
    pub delivered: u64,
    /// Allocations per delivered packet (0 when nothing was delivered)
    /// — the figure the zero-alloc data-plane work drives to zero.
    pub allocs_per_delivered: f64,
}

/// Everything one job attaches as its manifest *mem* blob when memory
/// profiling is on: one [`ScenarioMem`] per simulated scenario plus
/// process-wide allocator gauges sampled when the job finished.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobMem {
    /// One entry per profiled scenario, in execution order.
    pub scenarios: Vec<ScenarioMem>,
    /// Process-wide allocator counters when the job finished (shared
    /// across workers; per-scenario numbers above are thread-exact).
    #[serde(default)]
    pub process: Option<MemSnapshot>,
    /// Peak resident set size in bytes (`/proc/self/status` `VmHWM`),
    /// `None` off-Linux.
    #[serde(default)]
    pub peak_rss_bytes: Option<u64>,
}

/// The collector's phase timer: the wall-clock profiler and the
/// allocation-scope timer, each optional. It tracks the current phase
/// itself and returns that as the previous phase, so the engine's
/// `switch(prev)` restores stay exact whichever halves are on (the
/// phase-restore rule on [`PhaseTimer`]).
#[derive(Debug)]
struct CollectorTimer {
    profiler: Option<PhaseProfiler>,
    mem: Option<MemScopeTimer>,
    current: Phase,
}

impl PhaseTimer for CollectorTimer {
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        if let Some(profiler) = &mut self.profiler {
            profiler.switch(phase);
        }
        if let Some(mem) = &mut self.mem {
            mem.switch(phase);
        }
        std::mem::replace(&mut self.current, phase)
    }
}

/// Runs a job's simulations, recording telemetry when the runtime has a
/// [`TelemetrySink`] and running the plain, probe-free path otherwise.
///
/// Construct one per job with [`JobTelemetryCollector::for_job`], route
/// every `sim.run()` through [`JobTelemetryCollector::run`], and call
/// [`JobTelemetryCollector::finish`] before returning the row. When the
/// sink is absent this is a zero-cost pass-through: the simulation runs
/// with [`NullProbe`](tempriv_telemetry::NullProbe) exactly as an
/// uninstrumented build would.
#[derive(Debug)]
pub struct JobTelemetryCollector<'a> {
    sink: Option<(&'a TelemetrySink, usize)>,
    trace_capacity: usize,
    privacy_interval: usize,
    span_batch: usize,
    digest_window: usize,
    mem_profile: bool,
    epoch: std::time::Instant,
    job_ctx: TraceCtx,
    /// Parent span id for the job span: the serve/CLI root span when the
    /// sink carries one, 0 (trace root) otherwise.
    job_parent: u64,
    job_started: std::time::Instant,
    tolerance: TheoryTolerance,
    sim_shards: u32,
    job: JobTelemetry,
    trace: JobTrace,
    privacy: JobPrivacy,
    spans: JobSpans,
    audit: JobAudit,
    mem: JobMem,
}

impl<'a> JobTelemetryCollector<'a> {
    /// A collector for job `index` of a run on `runtime`. Collection is
    /// active only when the runtime carries a telemetry sink; flight
    /// recording additionally requires the sink's
    /// [`trace_capacity`](TelemetrySink::trace_capacity) to be non-zero,
    /// and the streaming privacy observatory its
    /// [`privacy_interval`](TelemetrySink::privacy_interval).
    #[must_use]
    pub fn for_job(runtime: &'a Runtime, index: usize) -> Self {
        let sink = runtime.telemetry_sink();
        // The job's trace context is a deterministic child of the run's
        // root context: the serve layer mints a root per HTTP request and
        // plants it on the sink; standalone runs fall back to a fixed
        // root so exported traces still carry consistent ids.
        let root = sink.and_then(TelemetrySink::root_ctx).map_or_else(
            || TraceCtx::root(0, "run"),
            |(trace_id, span_id)| TraceCtx { trace_id, span_id },
        );
        let job_parent = sink
            .and_then(TelemetrySink::root_ctx)
            .map_or(0, |(_, span_id)| span_id);
        JobTelemetryCollector {
            sink: sink.map(|sink| (sink, index)),
            trace_capacity: sink.map_or(0, TelemetrySink::trace_capacity),
            privacy_interval: sink.map_or(0, TelemetrySink::privacy_interval),
            span_batch: sink.map_or(0, TelemetrySink::span_batch),
            digest_window: sink.map_or(0, TelemetrySink::digest_window),
            mem_profile: sink.is_some_and(TelemetrySink::mem_profile),
            epoch: sink.map_or_else(std::time::Instant::now, TelemetrySink::epoch),
            job_ctx: root.child(index as u64),
            job_parent,
            job_started: std::time::Instant::now(),
            tolerance: TheoryTolerance::default(),
            sim_shards: runtime.sim_shards(),
            job: JobTelemetry::default(),
            trace: JobTrace::default(),
            privacy: JobPrivacy::default(),
            spans: JobSpans::default(),
            audit: JobAudit::default(),
            mem: JobMem::default(),
        }
    }

    /// Whether telemetry is being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Runs `sim`, probed iff collection is active. The returned
    /// [`SimOutcome`] is identical either way: probes observe the event
    /// loop, they never consume randomness or reorder events.
    pub fn run(&mut self, sim: &NetworkSimulation, label: &str) -> SimOutcome {
        if self.sink.is_none() {
            // The sharded engine supports only probe-free runs (per-event
            // probes observe the serial event order), so the runtime's
            // shard knob applies exactly when no telemetry is collected.
            if self.sim_shards > 1 {
                return sim.run_sharded(self.sim_shards, 1);
            }
            return sim.run();
        }
        let started = std::time::Instant::now();
        let mut probe = RecordingProbe::new(sim.routing().len());
        let flight =
            (self.trace_capacity > 0).then(|| FlightRecorder::with_capacity(self.trace_capacity));
        let privacy = (self.privacy_interval > 0)
            .then(|| privacy_probe_for(sim, self.privacy_interval as u64));
        let digest = (self.digest_window > 0).then(|| DigestProbe::new(self.digest_window));
        let profiler = (self.span_batch > 0)
            .then(|| PhaseProfiler::with_batch(u32::try_from(self.span_batch).unwrap_or(u32::MAX)));
        // The allocation-scope timer rides the same phase-switch hooks
        // as the profiler; it must be constructed *after* the probes so
        // their setup allocations stay outside its baseline.
        let mem = self.mem_profile.then(|| {
            memprof::set_enabled(true);
            MemScopeTimer::new()
        });
        // One monomorphized stack: a disabled half is a `None` probe
        // whose hooks are skipped. Runs with neither timer half keep
        // the engine's zero-cost no-op timer.
        let mut stack = (((&mut probe, digest), flight), privacy);
        let mut timer = (profiler.is_some() || mem.is_some()).then_some(CollectorTimer {
            profiler,
            mem,
            current: Phase::EngineLoop,
        });
        let outcome = if let Some(timer) = &mut timer {
            sim.run_profiled(&mut stack, timer)
        } else {
            sim.run_probed(&mut stack)
        };
        let (((_, digest), flight), privacy) = stack;
        let (profiler, mem_timer) = timer.map_or((None, None), |t| (t.profiler, t.mem));
        let flight_log = flight.map(|f| f.finish(outcome.end_time));
        let privacy_series = privacy.map(|p| p.finish(outcome.end_time));
        let telemetry = probe.finish(outcome.end_time);
        let mut theory = theory_report(sim, &telemetry, &self.tolerance);
        if let Some(log) = &flight_log {
            for check in residence_checks(sim, log, &self.tolerance) {
                theory.push(check);
            }
        }
        self.job
            .spans
            .record(label, started.elapsed().as_secs_f64());
        if let Some(profiler) = profiler {
            // Scenario children hang off the job span; index 0 is
            // reserved for the job itself, so scenarios start at 1.
            let scenario_ctx = self.job_ctx.child(self.spans.profiles.len() as u64 + 1);
            #[allow(clippy::cast_possible_truncation)]
            let start_us = started.saturating_duration_since(self.epoch).as_micros() as u64;
            #[allow(clippy::cast_possible_truncation)]
            let dur_us = started.elapsed().as_micros() as u64;
            self.spans.spans.push(SpanRecord {
                trace_id: scenario_ctx.trace_id,
                span_id: scenario_ctx.span_id,
                parent_id: self.job_ctx.span_id,
                name: label.to_string(),
                layer: "scenario".to_string(),
                start_us,
                dur_us,
            });
            self.spans.profiles.push(ScenarioProfile {
                label: label.to_string(),
                profile: profiler.finish(),
            });
        }
        let aoi = flight_log
            .as_ref()
            .map(FlightLog::aoi_by_flow)
            .unwrap_or_default();
        self.job.scenarios.push(ScenarioTelemetry {
            label: label.to_string(),
            sim: telemetry,
            theory,
            aoi,
        });
        if let Some(log) = flight_log {
            self.trace.scenarios.push(ScenarioTrace {
                label: label.to_string(),
                log,
            });
        }
        if let Some(series) = privacy_series {
            self.privacy.scenarios.push(ScenarioPrivacy {
                label: label.to_string(),
                series,
            });
        }
        if let Some(digest) = digest {
            self.audit.scenarios.push(ScenarioAudit {
                label: label.to_string(),
                digest: digest.finish(),
            });
        }
        if let Some(timer) = mem_timer {
            let delivered = outcome.total_delivered();
            self.mem.scenarios.push(ScenarioMem {
                label: label.to_string(),
                ledger: timer.finish(),
                allocs: outcome.allocs,
                alloc_bytes: outcome.alloc_bytes,
                delivered,
                // Stored as 0.0 (not inf) when nothing was delivered so
                // the blob stays JSON-serializable.
                allocs_per_delivered: if delivered > 0 {
                    #[allow(clippy::cast_precision_loss)]
                    {
                        outcome.allocs as f64 / delivered as f64
                    }
                } else {
                    0.0
                },
            });
        }
        outcome
    }

    /// Serializes the collected telemetry (and, when flight recording or
    /// the privacy observatory was on, those blobs too) and attaches them
    /// to the job's sink slots. No-op when collection is inactive.
    pub fn finish(mut self) {
        let Some((sink, index)) = self.sink else {
            return;
        };
        attach_json(sink, Blob::Telemetry, index, &self.job);
        if !self.trace.scenarios.is_empty() {
            attach_json(sink, Blob::Trace, index, &self.trace);
        }
        if !self.privacy.scenarios.is_empty() {
            attach_json(sink, Blob::Privacy, index, &self.privacy);
        }
        if !self.audit.scenarios.is_empty() {
            self.audit.root = self.audit.compute_root();
            attach_json(sink, Blob::Audit, index, &self.audit);
        }
        if !self.mem.scenarios.is_empty() {
            self.mem.process = Some(memprof::snapshot());
            self.mem.peak_rss_bytes = memprof::peak_rss_bytes();
            attach_json(sink, Blob::Mem, index, &self.mem);
        }
        if self.span_batch > 0 {
            #[allow(clippy::cast_possible_truncation)]
            let start_us = self
                .job_started
                .saturating_duration_since(self.epoch)
                .as_micros() as u64;
            #[allow(clippy::cast_possible_truncation)]
            let dur_us = self.job_started.elapsed().as_micros() as u64;
            // The job span leads the blob so readers see parents
            // before children.
            self.spans.spans.insert(
                0,
                SpanRecord {
                    trace_id: self.job_ctx.trace_id,
                    span_id: self.job_ctx.span_id,
                    parent_id: self.job_parent,
                    name: format!("job {index}"),
                    layer: "job".to_string(),
                    start_us,
                    dur_us,
                },
            );
            attach_json(sink, Blob::Spans, index, &self.spans);
        }
    }
}

/// Serializes one job blob and attaches it to the sink's `blob` slot.
fn attach_json<T: Serialize>(sink: &TelemetrySink, blob: Blob, index: usize, value: &T) {
    let json = serde_json::to_string(value)
        .unwrap_or_else(|e| panic!("job {} blob serializes: {e}", blob.name()));
    sink.attach(blob, index, json);
}

/// Sweep-level telemetry: every job's [`JobTelemetry`] plus aggregate
/// counters, per-node gauges, and the flagged theory checks — what
/// `tempriv sweep --telemetry` writes and `tempriv report` renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryExport {
    /// Experiment kind the telemetry came from (e.g. `"fig2"`).
    pub experiment: String,
    /// Jobs in the run.
    pub jobs: usize,
    /// Jobs that attached telemetry (cache-served jobs attach none).
    pub instrumented_jobs: usize,
    /// Scenarios recorded across all instrumented jobs.
    pub scenarios: usize,
    /// Theory checks evaluated across all scenarios.
    pub theory_checks: usize,
    /// Theory checks that exceeded tolerance.
    pub theory_flagged: usize,
    /// The failing checks themselves, in job order.
    pub flagged: Vec<TheoryCheck>,
    /// Aggregated metrics registry snapshot (canonical JSON +
    /// Prometheus-exportable).
    pub metrics: TelemetrySnapshot,
    /// Raw per-job telemetry, indexed by job (None = not instrumented).
    pub job_telemetry: Vec<Option<JobTelemetry>>,
    /// Raw per-job streaming-privacy series, indexed by job (None = the
    /// job ran without the privacy observatory). Absent in exports
    /// written before the observatory existed.
    #[serde(default)]
    pub job_privacy: Vec<Option<JobPrivacy>>,
    /// Raw per-job memory ledgers, indexed by job (None = the job ran
    /// without the allocation observatory). Absent in exports written
    /// before memory profiling existed.
    #[serde(default)]
    pub job_mem: Vec<Option<JobMem>>,
}

/// Parses the first `jobs` entries of one family's per-job blobs (a
/// short slice pads with `None`), naming the job and family of the
/// first blob that fails to parse.
fn parse_blobs<T: Deserialize>(
    blob: Blob,
    blobs: &[Option<String>],
    jobs: usize,
) -> Result<Vec<Option<T>>, String> {
    (0..jobs)
        .map(|i| {
            blobs
                .get(i)
                .and_then(Option::as_deref)
                .map(|json| {
                    serde_json::from_str(json)
                        .map_err(|e| format!("job {i}: bad {} blob: {e}", blob.name()))
                })
                .transpose()
        })
        .collect()
}

impl TelemetryExport {
    /// Aggregates per-job telemetry blobs (as journaled in a manifest or
    /// drained from a [`TelemetrySink`]) into one export.
    /// `privacy_blobs` carries the parallel privacy-series blobs and
    /// `mem_blobs` the parallel allocation-ledger blobs; pass `&[]` for
    /// either when the run had no such observatory.
    ///
    /// # Errors
    ///
    /// Returns a message naming the job whose blob fails to parse.
    pub fn collect(
        experiment: &str,
        blobs: &[Option<String>],
        privacy_blobs: &[Option<String>],
        mem_blobs: &[Option<String>],
    ) -> Result<Self, String> {
        let job_telemetry: Vec<Option<JobTelemetry>> =
            parse_blobs(Blob::Telemetry, blobs, blobs.len())?;
        let job_privacy: Vec<Option<JobPrivacy>> =
            parse_blobs(Blob::Privacy, privacy_blobs, blobs.len())?;
        let job_mem: Vec<Option<JobMem>> = parse_blobs(Blob::Mem, mem_blobs, blobs.len())?;

        let mut registry = MetricsRegistry::new();
        let deliveries = registry.counter(
            "tempriv_deliveries_total",
            "Packets delivered to the sink across instrumented scenarios",
        );
        let preemptions = registry.counter(
            "tempriv_preemptions_total",
            "RCAD victim preemptions across instrumented scenarios",
        );
        let drops = registry.counter(
            "tempriv_drops_total",
            "DropTail rejections across instrumented scenarios",
        );
        let flushes = registry.counter(
            "tempriv_flushes_total",
            "Threshold-mix batch flushes across instrumented scenarios",
        );
        let evicted = registry.counter(
            "tempriv_trace_evicted_total",
            "Probe trace records evicted by the bounded ring buffer",
        );
        let checks_total = registry.counter(
            "tempriv_theory_checks_total",
            "Queueing-theory cross-checks evaluated",
        );
        let flagged_total = registry.counter(
            "tempriv_theory_flagged_total",
            "Queueing-theory cross-checks outside tolerance",
        );
        let engine_events = registry.counter(
            "tempriv_engine_events_total",
            "Discrete events executed by the simulation engine across instrumented scenarios",
        );
        let queue_compactions = registry.counter(
            "tempriv_engine_queue_compactions_total",
            "Tombstone compaction sweeps run by the future-event queue across instrumented scenarios",
        );
        let latency_hist = registry.histogram(
            "tempriv_scenario_mean_latency",
            "Mean end-to-end delivery latency per instrumented scenario (time units)",
            0.0,
            1000.0,
            20,
        );

        // Per-node aggregates across every instrumented scenario: the
        // occupancy gauge averages scenario means, peak and high-water
        // take the max.
        let n_nodes = job_telemetry
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .map(|s| s.sim.nodes.len())
            .max()
            .unwrap_or(0);
        let mut occ_sum = vec![0.0f64; n_nodes];
        let mut occ_count = vec![0u64; n_nodes];
        let mut peak = vec![0u64; n_nodes];
        let mut high_water = vec![0u64; n_nodes];

        let mut instrumented_jobs = 0;
        let mut scenarios = 0;
        let mut theory_checks = 0;
        let mut theory_flagged = 0;
        let mut flagged = Vec::new();
        let mut engine_events_total = 0u64;
        let mut engine_wall_secs = 0.0f64;
        let mut peak_fes = 0u64;
        let mut queue_footprint = 0u64;
        for job in job_telemetry.iter().flatten() {
            instrumented_jobs += 1;
            scenarios += job.scenarios.len();
            theory_checks += job.theory_checks();
            theory_flagged += job.theory_flagged();
            engine_wall_secs += job.spans.total_seconds();
            for scenario in &job.scenarios {
                registry.inc(deliveries, scenario.sim.deliveries);
                registry.inc(preemptions, scenario.sim.total_preemptions());
                registry.inc(drops, scenario.sim.total_drops());
                registry.inc(flushes, scenario.sim.total_flushes());
                registry.inc(evicted, scenario.sim.trace_evicted);
                registry.inc(engine_events, scenario.sim.engine_events);
                registry.inc(queue_compactions, scenario.sim.queue_compactions);
                engine_events_total += scenario.sim.engine_events;
                peak_fes = peak_fes.max(scenario.sim.peak_fes);
                queue_footprint = queue_footprint.max(scenario.sim.queue_footprint);
                if scenario.sim.deliveries > 0 {
                    registry.observe(latency_hist, scenario.sim.mean_latency);
                }
                for node in &scenario.sim.nodes {
                    let i = node.node;
                    occ_sum[i] += node.mean_occupancy;
                    occ_count[i] += 1;
                    peak[i] = peak[i].max(node.peak_occupancy);
                    high_water[i] = high_water[i].max(node.high_water);
                }
                flagged.extend(scenario.theory.checks.iter().filter(|c| !c.passed).cloned());
            }
        }
        registry.inc(checks_total, theory_checks as u64);
        registry.inc(flagged_total, theory_flagged as u64);

        // Engine throughput gauges: events/sec over the jobs' recorded
        // wall-time spans, peak future-event-set size as a high-water
        // mark. Pre-overhaul blobs default both fields to zero and get
        // no gauges, so old manifests render unchanged.
        if engine_events_total > 0 {
            if engine_wall_secs > 0.0 {
                let g = registry.gauge(
                    "tempriv_engine_events_per_sec",
                    "Engine event throughput: events executed over recorded scenario wall time",
                );
                #[allow(clippy::cast_precision_loss)]
                registry.set(g, engine_events_total as f64 / engine_wall_secs);
            }
            let g = registry.gauge(
                "tempriv_engine_peak_fes",
                "Peak future-event-set size across instrumented scenarios",
            );
            #[allow(clippy::cast_precision_loss)]
            registry.set(g, peak_fes as f64);
        }
        // Queue-memory introspection: pre-audit blobs default the
        // footprint to zero and get no gauge, so old manifests render
        // unchanged.
        if queue_footprint > 0 {
            let g = registry.gauge(
                "tempriv_engine_queue_footprint_bytes",
                "Event-queue heap footprint in bytes, max across instrumented scenarios",
            );
            #[allow(clippy::cast_precision_loss)]
            registry.set(g, queue_footprint as f64);
        }
        for i in 0..n_nodes {
            if occ_count[i] == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let mean = occ_sum[i] / occ_count[i] as f64;
            let g = registry.gauge(
                format!("tempriv_node_occupancy_mean{{node=\"{i}\"}}"),
                "Time-weighted mean buffer occupancy, averaged over instrumented scenarios",
            );
            registry.set(g, mean);
            let g = registry.gauge(
                format!("tempriv_node_occupancy_peak{{node=\"{i}\"}}"),
                "Peak instantaneous buffer occupancy across instrumented scenarios",
            );
            #[allow(clippy::cast_precision_loss)]
            registry.set(g, peak[i] as f64);
            let g = registry.gauge(
                format!("tempriv_node_high_water{{node=\"{i}\"}}"),
                "Buffer high-water mark across instrumented scenarios",
            );
            #[allow(clippy::cast_precision_loss)]
            registry.set(g, high_water[i] as f64);
        }

        // Per-flow privacy aggregates across every observed scenario:
        // the MI / margin / adversary-MSE gauges average scenario-final
        // summaries, mirroring the occupancy-mean convention above.
        let n_flows = job_privacy
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .flat_map(|s| &s.series.summary)
            .map(|f| f.flow + 1)
            .max()
            .unwrap_or(0);
        let mut mi_sum = vec![0.0f64; n_flows];
        let mut mi_count = vec![0u64; n_flows];
        let mut margin_sum = vec![0.0f64; n_flows];
        let mut margin_count = vec![0u64; n_flows];
        let mut mse_sum = vec![0.0f64; n_flows];
        let mut mse_count = vec![0u64; n_flows];
        for flow in job_privacy
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .flat_map(|s| &s.series.summary)
        {
            mi_sum[flow.flow] += flow.mi_nats;
            mi_count[flow.flow] += 1;
            if let Some(margin) = flow.margin_nats {
                margin_sum[flow.flow] += margin;
                margin_count[flow.flow] += 1;
            }
            if let Some(mse) = flow.mse {
                mse_sum[flow.flow] += mse;
                mse_count[flow.flow] += 1;
            }
        }
        for i in 0..n_flows {
            #[allow(clippy::cast_precision_loss)]
            if mi_count[i] > 0 {
                let g = registry.gauge(
                    format!("tempriv_privacy_mi_nats{{flow=\"{i}\"}}"),
                    "Empirical streaming I(X;Z) in nats, averaged over observed scenarios",
                );
                registry.set(g, mi_sum[i] / mi_count[i] as f64);
            }
            #[allow(clippy::cast_precision_loss)]
            if margin_count[i] > 0 {
                let g = registry.gauge(
                    format!("tempriv_privacy_margin_nats{{flow=\"{i}\"}}"),
                    "Analytic BTQ bound minus empirical MI (nats), averaged over observed scenarios",
                );
                registry.set(g, margin_sum[i] / margin_count[i] as f64);
            }
            #[allow(clippy::cast_precision_loss)]
            if mse_count[i] > 0 {
                let g = registry.gauge(
                    format!("tempriv_privacy_adversary_mse{{flow=\"{i}\"}}"),
                    "Baseline adversary mean squared error, averaged over observed scenarios",
                );
                registry.set(g, mse_sum[i] / mse_count[i] as f64);
            }
        }

        // Per-flow Age-of-Information gauges from the flight recorder's
        // creation→arrival spans: mean AoI averages over traced
        // scenarios, peak AoI takes the max (it is a worst case).
        let n_aoi_flows = job_telemetry
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .flat_map(|s| &s.aoi)
            .map(|a| a.flow + 1)
            .max()
            .unwrap_or(0);
        let mut aoi_mean_sum = vec![0.0f64; n_aoi_flows];
        let mut aoi_count = vec![0u64; n_aoi_flows];
        let mut aoi_peak = vec![0.0f64; n_aoi_flows];
        for aoi in job_telemetry
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .flat_map(|s| &s.aoi)
        {
            aoi_mean_sum[aoi.flow] += aoi.mean;
            aoi_count[aoi.flow] += 1;
            aoi_peak[aoi.flow] = aoi_peak[aoi.flow].max(aoi.peak);
        }
        for i in 0..n_aoi_flows {
            if aoi_count[i] == 0 {
                continue;
            }
            let g = registry.gauge(
                format!("tempriv_aoi_mean{{flow=\"{i}\"}}"),
                "Time-averaged Age of Information at the sink (time units), averaged over traced scenarios",
            );
            #[allow(clippy::cast_precision_loss)]
            registry.set(g, aoi_mean_sum[i] / aoi_count[i] as f64);
            let g = registry.gauge(
                format!("tempriv_aoi_peak{{flow=\"{i}\"}}"),
                "Peak Age of Information at the sink (time units), max across traced scenarios",
            );
            registry.set(g, aoi_peak[i]);
        }

        // Allocation-observatory aggregates: totals sum over scenario
        // ledgers, the allocs-per-delivered gauge ratios the sums, and
        // the peak gauges take the max (they are worst cases). Runs
        // without memory profiling attach no mem blobs and get none of
        // these, so old manifests render unchanged.
        let mut mem_allocs = 0u64;
        let mut mem_bytes = 0u64;
        let mut mem_delivered = 0u64;
        let mut mem_peak_live = 0u64;
        let mut mem_peak_rss = 0u64;
        for job in job_mem.iter().flatten() {
            for scenario in &job.scenarios {
                mem_allocs += scenario.allocs;
                mem_bytes += scenario.alloc_bytes;
                mem_delivered += scenario.delivered;
            }
            if let Some(process) = &job.process {
                mem_peak_live = mem_peak_live.max(process.peak_live_bytes);
            }
            if let Some(rss) = job.peak_rss_bytes {
                mem_peak_rss = mem_peak_rss.max(rss);
            }
        }
        if mem_allocs > 0 {
            let c = registry.counter(
                "tempriv_allocs_total",
                "Heap allocations inside instrumented simulation runs",
            );
            registry.inc(c, mem_allocs);
            let c = registry.counter(
                "tempriv_alloc_bytes_total",
                "Heap bytes requested inside instrumented simulation runs",
            );
            registry.inc(c, mem_bytes);
            if mem_delivered > 0 {
                let g = registry.gauge(
                    "tempriv_allocs_per_delivered",
                    "Heap allocations per delivered packet across instrumented scenarios",
                );
                #[allow(clippy::cast_precision_loss)]
                registry.set(g, mem_allocs as f64 / mem_delivered as f64);
            }
        }
        if mem_peak_live > 0 {
            let g = registry.gauge(
                "tempriv_mem_peak_live_bytes",
                "Peak live heap bytes observed by the counting allocator",
            );
            #[allow(clippy::cast_precision_loss)]
            registry.set(g, mem_peak_live as f64);
        }
        if mem_peak_rss > 0 {
            let g = registry.gauge(
                "tempriv_mem_peak_rss_bytes",
                "Peak resident set size (VmHWM) of the sweep process",
            );
            #[allow(clippy::cast_precision_loss)]
            registry.set(g, mem_peak_rss as f64);
        }

        Ok(TelemetryExport {
            experiment: experiment.to_string(),
            jobs: blobs.len(),
            instrumented_jobs,
            scenarios,
            theory_checks,
            theory_flagged,
            flagged,
            metrics: registry.snapshot(),
            job_telemetry,
            job_privacy,
            job_mem,
        })
    }

    /// Canonical JSON of the export — what `--telemetry PATH` writes.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    #[must_use]
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).expect("telemetry export serializes")
    }

    /// Human-readable summary for the console.
    #[must_use]
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry: experiment={} jobs={} instrumented={} scenarios={}\n",
            self.experiment, self.jobs, self.instrumented_jobs, self.scenarios
        ));
        out.push_str(&format!(
            "theory checks: {} evaluated, {} flagged\n",
            self.theory_checks, self.theory_flagged
        ));
        for check in &self.flagged {
            out.push_str(&format!(
                "  FLAGGED {}: predicted {:.4}, measured {:.4}, deviation {:.4} > tol {:.4}\n",
                check.name, check.predicted, check.measured, check.deviation, check.tolerance
            ));
        }
        // Engine introspection counters surface in the text summary too:
        // queue compactions and flight-ring evictions are the "did the
        // engine shed state" signals an operator scans for first.
        for counter in &self.metrics.counters {
            if matches!(
                counter.name.as_str(),
                "tempriv_engine_queue_compactions_total" | "tempriv_trace_evicted_total"
            ) {
                out.push_str(&format!("  {} = {}\n", counter.name, counter.value));
            }
        }
        for gauge in &self.metrics.gauges {
            out.push_str(&format!("  {} = {:.4}\n", gauge.name, gauge.value));
        }
        if let Some(mem) = self.memory_text() {
            out.push_str(&mem);
        }
        out
    }

    /// Memory section of the report: merged phase-attributed allocation
    /// ledger plus the steady-state allocs-per-delivered figure. `None`
    /// when no job carried a mem blob (the common, unprofiled case).
    #[must_use]
    pub fn memory_text(&self) -> Option<String> {
        let scenarios: Vec<&ScenarioMem> = self
            .job_mem
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .collect();
        if scenarios.is_empty() {
            return None;
        }
        let mut ledger = MemBreakdown::empty();
        let mut allocs = 0u64;
        let mut delivered = 0u64;
        for s in &scenarios {
            ledger.merge(&s.ledger);
            allocs += s.allocs;
            delivered += s.delivered;
        }
        let mut out = String::new();
        out.push_str(&format!(
            "memory: {} profiled scenario(s), {} alloc(s) in-run\n",
            scenarios.len(),
            allocs
        ));
        if delivered > 0 {
            #[allow(clippy::cast_precision_loss)]
            out.push_str(&format!(
                "  allocs per delivered packet = {:.3}\n",
                allocs as f64 / delivered as f64
            ));
        }
        for line in ledger.table().lines() {
            out.push_str(&format!("  {line}\n"));
        }
        if let Some(job) = self.job_mem.iter().flatten().next() {
            if let Some(process) = &job.process {
                out.push_str(&format!(
                    "  process: live={} peak_live={} allocs={}\n",
                    process.live_bytes, process.peak_live_bytes, process.allocs
                ));
            }
            if let Some(rss) = job.peak_rss_bytes {
                out.push_str(&format!("  peak RSS (VmHWM) = {rss} bytes\n"));
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::VictimPolicy;
    use crate::delay::DelayPlan;
    use tempriv_net::convergecast::Convergecast;

    fn paper_sim(buffer: BufferPolicy, traffic: TrafficModel) -> NetworkSimulation {
        let layout = Convergecast::paper_figure1();
        NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(traffic)
            .packets_per_source(50)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(buffer)
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn expected_loads_follow_route_fan_in() {
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let loads = expected_loads(&sim);
        // Every load present is λ = flows·rate, μ = 1/30.
        let present: Vec<&NodeLoadModel> = loads.iter().flatten().collect();
        assert!(!present.is_empty());
        for load in &present {
            assert!((load.mu - 1.0 / 30.0).abs() < 1e-12);
            assert!(load.poisson_arrivals);
            assert!(load.exponential_delay);
        }
        // Fan-in: some node carries more than one flow, so the max λ
        // exceeds the single-flow λ.
        let max_lambda = present.iter().map(|l| l.lambda).fold(0.0, f64::max);
        assert!(max_lambda > 0.5 + 1e-12);
        // The sink never delays: its slot is None.
        let sink = sim.routing().sink();
        assert!(loads[sink.index()].is_none());
    }

    #[test]
    fn schedules_and_mixes_have_no_model() {
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .schedules(vec![
                vec![tempriv_sim::time::SimTime::from_units(1.0)];
                layout.sources().len()
            ])
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(7)
            .build()
            .unwrap();
        assert!(expected_loads(&sim).iter().all(Option::is_none));

        let mix = paper_sim(
            BufferPolicy::ThresholdMix { threshold: 4 },
            TrafficModel::poisson(0.5),
        );
        assert!(expected_loads(&mix).iter().all(Option::is_none));
    }

    #[test]
    fn collector_is_pass_through_without_a_sink() {
        let runtime = Runtime::new(tempriv_runtime::WorkerPool::with_workers(1));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        assert!(!collector.enabled());
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::periodic(2.0));
        let probed = collector.run(&sim, "rcad");
        collector.finish();
        assert_eq!(probed, sim.run());
    }

    #[test]
    fn collector_attaches_one_blob_per_job() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.reset(2);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 1);
        assert!(collector.enabled());
        let _ = collector.run(&sim, "unlimited");
        collector.finish();
        assert_eq!(sink.get(Blob::Telemetry, 0), None);
        let blob = sink
            .get(Blob::Telemetry, 1)
            .expect("job 1 attached telemetry");
        let job: JobTelemetry = serde_json::from_str(&blob).unwrap();
        assert_eq!(job.scenarios.len(), 1);
        assert_eq!(job.scenarios[0].label, "unlimited");
        assert!(job.scenarios[0].sim.deliveries > 0);
        assert!(job.theory_checks() > 0);
    }

    #[test]
    fn export_aggregates_and_exposes_node_gauges() {
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let mut probe = RecordingProbe::new(sim.routing().len());
        let outcome = sim.run_probed(&mut probe);
        let telemetry = probe.finish(outcome.end_time);
        let theory = theory_report(&sim, &telemetry, &TheoryTolerance::default());
        let mut spans = SpanSet::new();
        spans.record("rcad", 0.25);
        let job = JobTelemetry {
            scenarios: vec![ScenarioTelemetry {
                label: "rcad".to_string(),
                sim: telemetry,
                theory,
                aoi: Vec::new(),
            }],
            spans,
        };
        let blob = serde_json::to_string(&job).unwrap();
        let export = TelemetryExport::collect("fig2", &[Some(blob), None], &[], &[]).unwrap();
        assert_eq!(export.jobs, 2);
        assert_eq!(export.instrumented_jobs, 1);
        assert_eq!(export.scenarios, 1);
        assert!(export.theory_checks > 0);
        assert!(export
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_node_occupancy_mean{node=")));
        // Engine totals surface as a counter plus throughput gauges.
        let events = export
            .metrics
            .counters
            .iter()
            .find(|c| c.name == "tempriv_engine_events_total")
            .expect("engine event counter");
        assert!(events.value > 0);
        let eps = export
            .metrics
            .gauges
            .iter()
            .find(|g| g.name == "tempriv_engine_events_per_sec")
            .expect("events/sec gauge");
        assert!((eps.value - events.value as f64 / 0.25).abs() < 1e-6);
        let fes = export
            .metrics
            .gauges
            .iter()
            .find(|g| g.name == "tempriv_engine_peak_fes")
            .expect("peak FES gauge");
        assert!(fes.value > 0.0);
        // Round-trips through canonical JSON.
        let back: TelemetryExport = serde_json::from_str(&export.to_canonical_json()).unwrap();
        assert_eq!(back, export);
        // The summary renders without panicking and names the experiment.
        assert!(export.summary_text().contains("experiment=fig2"));
    }

    #[test]
    fn collector_traces_when_capacity_is_set() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set_trace_capacity(1 << 16);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::poisson(0.5))
            .packets_per_source(300)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(7)
            .build()
            .unwrap();
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let outcome = collector.run(&sim, "unlimited");
        collector.finish();
        // Tracing observes without perturbing the outcome.
        assert_eq!(outcome, sim.run());
        let blob = sink.get(Blob::Trace, 0).expect("trace attached");
        let trace: JobTrace = serde_json::from_str(&blob).unwrap();
        assert_eq!(trace.scenarios.len(), 1);
        let log = &trace.scenarios[0].log;
        assert!(!log.events.is_empty());
        assert_eq!(log.capacity, 1 << 16);
        // Delivered lineages reconstruct with a full span.
        let delivered = log.lineages().iter().filter(|l| l.span().is_some()).count();
        assert!(delivered > 0);
        // The Exp(mu) residence checks rode into the theory report and
        // pass on an unlimited-buffer exponential run.
        let telemetry_blob = sink.get(Blob::Telemetry, 0).unwrap();
        let job: JobTelemetry = serde_json::from_str(&telemetry_blob).unwrap();
        let residence: Vec<&TheoryCheck> = job.scenarios[0]
            .theory
            .checks
            .iter()
            .filter(|c| c.name.ends_with("_residence_exp"))
            .collect();
        assert!(!residence.is_empty());
        assert!(
            residence.iter().all(|c| c.passed),
            "residence checks flagged: {residence:?}"
        );
    }

    #[test]
    fn residence_checks_skip_rcad_and_sparse_nodes() {
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let mut flight = FlightRecorder::new();
        let _ = sim.run_probed(&mut flight);
        let log = flight.finish(tempriv_sim::time::SimTime::from_units(1.0));
        assert!(
            residence_checks(&sim, &log, &TheoryTolerance::default()).is_empty(),
            "RCAD eviction biases survivors: no Exp check applies"
        );
    }

    #[test]
    fn bad_blob_is_a_named_error() {
        let err = TelemetryExport::collect("fig2", &[Some("not json".to_string())], &[], &[])
            .unwrap_err();
        assert!(err.contains("job 0"));
        let err = TelemetryExport::collect("fig2", &[None], &[Some("not json".to_string())], &[])
            .unwrap_err();
        assert!(err.contains("bad privacy blob"));
    }

    #[test]
    fn rcad_preemption_fraction_checks_against_erlang() {
        let sim = paper_sim(
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::Random,
            },
            TrafficModel::poisson(0.5),
        );
        let mut probe = RecordingProbe::new(sim.routing().len());
        let outcome = sim.run_probed(&mut probe);
        let telemetry = probe.finish(outcome.end_time);
        let report = theory_report(&sim, &telemetry, &TheoryTolerance::default());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name.ends_with("_preemption_fraction")));
        assert!(
            !report
                .checks
                .iter()
                .any(|c| c.name.ends_with("_occupancy_pmf")),
            "pmf check requires unlimited buffers"
        );

        // A biased victim policy breaks the memoryless occupancy chain:
        // no Erlang prediction is emitted for it.
        let biased = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let mut probe = RecordingProbe::new(biased.routing().len());
        let outcome = biased.run_probed(&mut probe);
        let telemetry = probe.finish(outcome.end_time);
        let report = theory_report(&biased, &telemetry, &TheoryTolerance::default());
        assert!(report.checks.is_empty());
    }

    #[test]
    fn privacy_probe_is_invisible_to_the_simulation() {
        // The observatory only observes: the outcome must be
        // byte-identical and the RNG draw count unchanged.
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let plain = sim.run();
        let mut probe = privacy_probe_for(&sim, 10);
        let probed = sim.run_probed(&mut probe);
        assert_eq!(probed.rng_draws, plain.rng_draws);
        assert_eq!(probed, plain);
        assert_eq!(
            serde_json::to_string(&probed).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "probed outcome serializes byte-identically"
        );
        assert!(probe.deliveries() > 0, "the probe did observe deliveries");
    }

    #[test]
    fn collector_attaches_privacy_blob_when_interval_is_set() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set_privacy_interval(25);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let outcome = collector.run(&sim, "unlimited");
        collector.finish();
        // The observatory observes without perturbing the outcome.
        assert_eq!(outcome, sim.run());
        let blob = sink.get(Blob::Privacy, 0).expect("privacy blob attached");
        let privacy: JobPrivacy = serde_json::from_str(&blob).unwrap();
        assert_eq!(privacy.scenarios.len(), 1);
        assert_eq!(privacy.scenarios[0].label, "unlimited");
        let series = &privacy.scenarios[0].series;
        assert!(!series.points.is_empty());
        assert!(series.deliveries > 0);
        assert!(!series.summary.is_empty());
        // The blob aggregates into per-flow gauges through collect().
        let export = TelemetryExport::collect(
            "fig2",
            &[Some(
                serde_json::to_string(&JobTelemetry::default()).unwrap(),
            )],
            &[Some(blob)],
            &[],
        )
        .unwrap();
        assert!(export
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_privacy_mi_nats{flow=")));
        let back: TelemetryExport = serde_json::from_str(&export.to_canonical_json()).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn collector_attaches_spans_and_profiles_when_batch_is_set() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set_span_batch(16);
        sink.set_root_ctx(0xdead_beef, 0x1234_5678);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let outcome = collector.run(&sim, "rcad");
        collector.finish();
        // The profiler observes without perturbing the outcome or the
        // RNG draw count.
        let plain = sim.run();
        assert_eq!(outcome, plain);
        assert_eq!(outcome.rng_draws, plain.rng_draws);
        assert_eq!(
            serde_json::to_string(&outcome).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "profiled outcome serializes byte-identically"
        );
        let blob = sink.get(Blob::Spans, 0).expect("spans attached");
        let spans: JobSpans = serde_json::from_str(&blob).unwrap();
        // Job span first, then one scenario span, all on one trace.
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[0].layer, "job");
        assert_eq!(spans.spans[1].layer, "scenario");
        assert_eq!(spans.spans[1].name, "rcad");
        assert!(spans.spans.iter().all(|s| s.trace_id != 0));
        assert_eq!(spans.spans[0].trace_id, spans.spans[1].trace_id);
        assert_eq!(spans.spans[1].parent_id, spans.spans[0].span_id);
        assert_eq!(
            spans.spans[0].parent_id, 0x1234_5678,
            "serve root is the parent"
        );
        // One phase breakdown whose phases sum to its total.
        assert_eq!(spans.profiles.len(), 1);
        let profile = &spans.profiles[0].profile;
        assert_eq!(profile.batch, 16);
        let sum: f64 = profile.phases.iter().map(|p| p.secs).sum();
        assert!((sum - profile.total_secs).abs() < 1e-9);
        assert!(profile
            .phases
            .iter()
            .any(|p| p.phase == "victim_select" && p.count > 0));
    }

    #[test]
    fn job_ctx_is_deterministic_per_index() {
        // Two collectors for the same job index derive the same trace
        // context; different indices diverge.
        let runtime = Runtime::new(tempriv_runtime::WorkerPool::with_workers(1));
        let a = JobTelemetryCollector::for_job(&runtime, 3);
        let b = JobTelemetryCollector::for_job(&runtime, 3);
        let c = JobTelemetryCollector::for_job(&runtime, 4);
        assert_eq!(a.job_ctx, b.job_ctx);
        assert_ne!(a.job_ctx.span_id, c.job_ctx.span_id);
        assert_eq!(a.job_ctx.trace_id, c.job_ctx.trace_id);
    }

    #[test]
    fn aoi_rides_the_flight_recording_into_gauges() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set_trace_capacity(1 << 16);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let _ = collector.run(&sim, "unlimited");
        collector.finish();
        let blob = sink.get(Blob::Telemetry, 0).unwrap();
        let job: JobTelemetry = serde_json::from_str(&blob).unwrap();
        let aoi = &job.scenarios[0].aoi;
        assert!(!aoi.is_empty(), "flight recording yields AoI per flow");
        for flow in aoi {
            assert!(flow.deliveries > 0);
            assert!(flow.mean > 0.0);
            assert!(flow.peak >= flow.mean);
        }
        // The blob aggregates into per-flow AoI gauges through collect().
        let export = TelemetryExport::collect("fig2", &[Some(blob)], &[], &[]).unwrap();
        assert!(export
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_aoi_mean{flow=")));
        assert!(export
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_aoi_peak{flow=")));
    }

    #[test]
    fn digest_probe_is_invisible_to_the_simulation() {
        // The audit probe only observes: outcome byte-identical, RNG
        // draw count unchanged — auditing can never perturb what it
        // attests.
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let plain = sim.run();
        let mut digest = DigestProbe::new(256);
        let probed = sim.run_probed(&mut digest);
        assert_eq!(probed.rng_draws, plain.rng_draws);
        assert_eq!(probed, plain);
        assert_eq!(
            serde_json::to_string(&probed).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "audited outcome serializes byte-identically"
        );
        assert!(digest.events() > 0, "the probe did observe events");
    }

    #[test]
    fn collector_timer_restores_the_mem_phase_without_a_profiler() {
        // The engine brackets nested regions as `prev = switch(X); ...;
        // switch(prev)`. With the profiler off and the mem ledger on, the
        // collector's timer must still report the phase it was in.
        let mut timer = CollectorTimer {
            profiler: None,
            mem: Some(MemScopeTimer::new()),
            current: Phase::EngineLoop,
        };
        timer.switch(Phase::Release);
        let prev = timer.switch(Phase::QueuePush);
        timer.switch(prev);
        let mem = timer.mem.as_mut().unwrap();
        assert_eq!(
            mem.switch(Phase::Release),
            Phase::Release,
            "mem ledger back in Release"
        );
        let _ = timer.mem.take().unwrap().finish();

        // A pair whose first half cannot record (what `(None, Some(mem))`
        // would be) reports EngineLoop and misroutes the restore.
        let mut naive = (tempriv_sim::profile::NoopPhaseTimer, MemScopeTimer::new());
        naive.switch(Phase::Release);
        let prev = naive.switch(Phase::QueuePush);
        naive.switch(prev);
        assert_eq!(naive.1.switch(Phase::Release), Phase::EngineLoop);
        let _ = naive.1.finish();
    }

    #[test]
    fn every_knob_combination_attaches_exactly_its_blobs() {
        use std::sync::Arc;
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let plain = sim.run();
        let mut audit_root: Option<String> = None;
        let mut privacy_series: Option<PrivacySeries> = None;
        for mask in 0u32..32 {
            let on = |bit: u32| mask & (1 << bit) != 0;
            let (flight, privacy, spans, audit, mem) = (on(0), on(1), on(2), on(3), on(4));
            let sink = Arc::new(TelemetrySink::new());
            sink.set_trace_capacity(if flight { 1 << 12 } else { 0 });
            sink.set_privacy_interval(if privacy { 25 } else { 0 });
            sink.set_span_batch(if spans { 16 } else { 0 });
            sink.set_digest_window(if audit { 256 } else { 0 });
            sink.set_mem_profile(mem);
            sink.reset(1);
            let runtime = Runtime::builder()
                .workers(1)
                .telemetry_sink(sink.clone())
                .build()
                .unwrap();
            let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
            let outcome = collector.run(&sim, "rcad");
            collector.finish();
            assert_eq!(outcome, plain, "mask {mask:05b}");
            assert_eq!(outcome.rng_draws, plain.rng_draws, "mask {mask:05b}");
            let expected = [true, flight, privacy, spans, audit, mem];
            for blob in Blob::ALL {
                assert_eq!(
                    sink.get(blob, 0).is_some(),
                    expected[blob.index()],
                    "mask {mask:05b}: {blob:?}"
                );
            }
            if let Some(json) = sink.get(Blob::Audit, 0) {
                let job: JobAudit = serde_json::from_str(&json).unwrap();
                let root = audit_root.get_or_insert_with(|| job.root.clone());
                assert_eq!(&job.root, root, "mask {mask:05b}: audit root");
            }
            if let Some(json) = sink.get(Blob::Privacy, 0) {
                let job: JobPrivacy = serde_json::from_str(&json).unwrap();
                let series = &job.scenarios[0].series;
                let first = privacy_series.get_or_insert_with(|| series.clone());
                assert_eq!(series, first, "mask {mask:05b}: privacy series");
            }
        }
        assert!(audit_root.is_some() && privacy_series.is_some());
    }

    #[test]
    fn run_digest_is_invariant_to_probe_stacking() {
        // The digest must describe the *simulation*, not the
        // instrumentation: a full metrics+trace+privacy stack on top of
        // the digest probe yields the same windows and root as the
        // digest probe alone.
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let mut alone = DigestProbe::new(256);
        let solo_outcome = sim.run_probed(&mut alone);

        let mut stacked = DigestProbe::new(256);
        let mut metrics = RecordingProbe::new(sim.routing().len());
        let mut flight = FlightRecorder::with_capacity(1 << 16);
        let mut privacy = privacy_probe_for(&sim, 25);
        let stacked_outcome =
            sim.run_probed(&mut (((&mut metrics, &mut stacked), &mut flight), &mut privacy));

        assert_eq!(stacked_outcome, solo_outcome);
        let solo = alone.finish();
        let full = stacked.finish();
        assert_eq!(solo.root, full.root);
        assert_eq!(solo.checkpoints, full.checkpoints);
        assert_eq!(solo, full);
    }

    #[test]
    fn collector_attaches_audit_blob_when_window_is_set() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set_digest_window(256);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::periodic(2.0));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let outcome = collector.run(&sim, "rcad");
        collector.finish();
        assert_eq!(outcome, sim.run(), "auditing does not perturb the run");
        let blob = sink.get(Blob::Audit, 0).expect("audit blob attached");
        let audit: JobAudit = serde_json::from_str(&blob).unwrap();
        assert_eq!(audit.scenarios.len(), 1);
        assert_eq!(audit.scenarios[0].label, "rcad");
        assert_eq!(audit.root, audit.compute_root());
        assert_eq!(audit.root.len(), 16);
        // The scenario digest matches a direct probe of the same run.
        let mut direct = DigestProbe::new(256);
        let _ = sim.run_probed(&mut direct);
        assert_eq!(audit.scenarios[0].digest, direct.finish());
    }

    #[test]
    fn streaming_mi_converges_to_batch_below_the_btq_bound() {
        use tempriv_infotheory::estimators::mi_from_samples_nats;
        use tempriv_net::ids::FlowId;
        // Figure-1 topology at 1000 packets/source: the streaming
        // estimator must land within 15% of the batch estimator run over
        // the same samples, and stay below the eq. 4 mean bound.
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::poisson(0.5))
            .packets_per_source(1000)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(7)
            .build()
            .unwrap();
        let mut probe = privacy_probe_for(&sim, 100);
        let outcome = sim.run_probed(&mut probe);
        let flows = probe.num_flows();
        assert!(flows > 0);
        let mut compared = 0;
        for flow in 0..flows {
            let mi = probe.flow_mi(flow);
            if mi.count() < 200 {
                continue;
            }
            let streaming = mi.mi_nats();
            #[allow(clippy::cast_possible_truncation)]
            let (xs, zs) = outcome.creation_arrival_pairs(FlowId(flow as u32));
            let bins = mi.effective_x_bins().max(mi.effective_z_bins()).max(2);
            let batch = mi_from_samples_nats(&xs, &zs, bins).unwrap();
            assert!(
                (streaming - batch).abs() <= 0.15 * batch.max(0.2),
                "flow {flow}: streaming {streaming:.4} vs batch {batch:.4} (bins {bins})"
            );
            compared += 1;
        }
        assert!(compared > 0, "at least one flow had enough samples");
        let series = probe.finish(outcome.end_time);
        let mut bounded = 0;
        for summary in &series.summary {
            let Some(bound) = summary.btq_mean_bound_nats else {
                continue;
            };
            assert!(
                summary.mi_nats < bound,
                "flow {}: empirical MI {:.4} exceeds eq. 4 mean bound {:.4}",
                summary.flow,
                summary.mi_nats,
                bound
            );
            assert!(summary.margin_nats.unwrap() > 0.0);
            bounded += 1;
        }
        assert!(bounded > 0, "at least one flow carried a BTQ envelope");
    }
}
