//! `fig1_sweep`: the paper's Figure-2 sweep on the Figure-1 layout.
//!
//! One operation is a whole `fig2_sweep_with` — 1/λ ∈ {2, 4, …, 20},
//! no-delay, unlimited and RCAD per point — on a fresh `Runtime` with
//! `nproc` workers, a cold in-memory cache, and the telemetry stack of
//! `tempriv sweep --telemetry --privacy-interval N --digest-window W`,
//! followed by `TelemetryExport::collect`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::config::{ExperimentConfig, LayoutSpec};
use tempriv_core::delay::DelayPlan;
use tempriv_core::experiment::{fig2_sweep_with, SweepParams};
use tempriv_core::telemetry::{privacy_probe_for, JobTelemetryCollector, TelemetryExport};
use tempriv_core::{evaluate_adversary, BaselineAdversary, SimOutcome};
use tempriv_net::ids::FlowId;
use tempriv_net::traffic::TrafficModel;
use tempriv_runtime::{content_digest, JobStatus, RunObserver, Runtime, TelemetrySink};
use tempriv_sim::profile::Phase;
use tempriv_telemetry::{DigestProbe, PhaseBreakdown, PhaseProfiler, RecordingProbe};

use crate::report::{Body, Outcome};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{Config, Workload};

/// Packets per source per scenario.
const PACKETS: u32 = 200;
/// `--privacy-interval`: deliveries between privacy snapshots.
const PRIVACY_INTERVAL: usize = 500;
/// `--digest-window`: events per determinism-digest checkpoint.
const DIGEST_WINDOW: usize = 4096;

/// The workload.
pub struct Fig1Sweep;

/// Sweep parameters, the configs built at set-up, and the first rows.
pub struct State {
    params: SweepParams,
    configs: Vec<(&'static str, ExperimentConfig)>,
    rows: Option<String>,
    /// Sweeps whose rows differ from the first sweep's.
    mismatched: usize,
    job_walls: Vec<Vec<f64>>,
    op_walls: Vec<f64>,
    export_bytes: usize,
}

fn params(cfg: &Config) -> SweepParams {
    let (points, packets) = if cfg.tiny { (3, 30) } else { (10, PACKETS) };
    SweepParams {
        inv_lambdas: (1..=points).map(|i| 2.0 * f64::from(i)).collect(),
        packets_per_source: packets,
        delay_mean: 30.0,
        capacity: 10,
        report_flow: FlowId(0),
        seed: 2007 ^ cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

/// The three scenario configs per point, as `fig2_sweep_with` builds
/// them.
fn scenario_configs(p: &SweepParams) -> Vec<(&'static str, ExperimentConfig)> {
    let mut out = Vec::new();
    for &inv_lambda in &p.inv_lambdas {
        let rcad = ExperimentConfig {
            layout: LayoutSpec::PaperFigure1,
            traffic: TrafficModel::periodic(inv_lambda),
            packets_per_source: p.packets_per_source,
            delay: DelayPlan::shared_exponential(p.delay_mean),
            buffer: BufferPolicy::Rcad {
                capacity: p.capacity,
                victim: VictimPolicy::ShortestRemaining,
            },
            link_delay: 1.0,
            link_loss: 0.0,
            link_jitter: 0.0,
            seed: p.seed ^ inv_lambda.to_bits(),
        };
        let mut no_delay = rcad.clone();
        no_delay.delay = DelayPlan::no_delay();
        no_delay.buffer = BufferPolicy::Unlimited;
        let mut unlimited = rcad.clone();
        unlimited.buffer = BufferPolicy::Unlimited;
        out.push(("no_delay", no_delay));
        out.push(("unlimited", unlimited));
        out.push(("rcad", rcad));
    }
    out
}

fn telemetry_sink() -> Arc<TelemetrySink> {
    let sink = Arc::new(TelemetrySink::new());
    sink.set_privacy_interval(PRIVACY_INTERVAL);
    sink.set_digest_window(DIGEST_WINDOW);
    sink
}

/// Records each job's finish instant and wall on the pool threads.
#[derive(Default)]
struct JobClock(Mutex<Vec<(Instant, Duration)>>);

impl RunObserver for JobClock {
    fn job_finished(&self, _index: usize, _status: JobStatus, wall: Duration) {
        self.0
            .lock()
            .expect("job clock poisoned by a panic")
            .push((Instant::now(), wall));
    }
}

impl Workload for Fig1Sweep {
    type State = State;

    fn setup_repeats(&self, _cfg: &Config) -> usize {
        101
    }

    fn setup(&self, cfg: &Config, tr: &Tracer) -> State {
        let params = params(cfg);
        let configs = scenario_configs(&params);
        for (_, c) in &configs {
            let sim = tr.span("core.build", || {
                c.build().expect("Figure-1 configs are valid")
            });
            std::hint::black_box(sim);
        }
        let runtime = tr.span("runtime.build", || {
            Runtime::builder()
                .workers(cfg.nproc)
                .telemetry_sink(telemetry_sink())
                .build()
                .expect("in-memory runtime builds")
        });
        drop(runtime);
        State {
            params,
            configs,
            rows: None,
            mismatched: 0,
            job_walls: Vec::new(),
            op_walls: Vec::new(),
            export_bytes: 0,
        }
    }

    fn body(&self, st: &mut State, cfg: &Config, tr: &Tracer, seconds: f64) -> Body {
        let mut body = Body::default();
        let started = Instant::now();
        while body.attempted == 0 || started.elapsed().as_secs_f64() < seconds {
            tr.next_op();
            let t = Instant::now();
            let cpu = crate::cpu::process_cpu_s();
            let clock = Arc::new(JobClock::default());
            let (rows, export, parent) = tr.span("bench.op", || {
                let sink = telemetry_sink();
                let mut builder = Runtime::builder()
                    .workers(cfg.nproc)
                    .telemetry_sink(Arc::clone(&sink));
                if tr.on() {
                    builder =
                        builder.observer(Arc::clone(&clock) as Arc<dyn RunObserver + Send + Sync>);
                }
                let runtime = builder.build().expect("in-memory runtime builds");
                let (rows, parent) = tr.span("runtime.fig2_sweep", || {
                    (fig2_sweep_with(&st.params, &runtime), tr.current())
                });
                let export = tr.span("telemetry.export", || {
                    let export = TelemetryExport::collect(
                        "fig2",
                        &sink.take_all(),
                        &sink.take_all_privacy(),
                        &sink.take_all_mem(),
                    )
                    .expect("fresh telemetry blobs parse");
                    let json = export.to_canonical_json();
                    (export, json)
                });
                (rows, export, parent)
            });
            let wall = t.elapsed();
            let cpu_ms = (crate::cpu::process_cpu_s() - cpu) * 1e3;
            body.attempted += 1;
            let rows = serde_json::to_string(&rows).expect("rows serialize");
            let events: u64 = export
                .0
                .job_telemetry
                .iter()
                .flatten()
                .flat_map(|job| &job.scenarios)
                .map(|s| s.sim.engine_events)
                .sum();
            if export.0.instrumented_jobs != st.params.inv_lambdas.len()
                || export.1.is_empty()
                || events == 0
            {
                body.failed += 1;
                continue;
            }
            if st.rows.as_ref().is_some_and(|first| *first != rows) {
                st.mismatched += 1;
            }
            st.rows.get_or_insert(rows);
            body.events += events;
            body.op_ms.push(wall.as_secs_f64() * 1e3);
            body.rates.push(events as f64 / wall.as_secs_f64());
            body.cpu_ms.push(cpu_ms);
            if tr.on() {
                st.export_bytes = export.1.len();
                st.op_walls.push(wall.as_secs_f64());
                let jobs =
                    std::mem::take(&mut *clock.0.lock().expect("job clock poisoned by a panic"));
                let op = tr.op();
                for (end, job_wall) in &jobs {
                    let end_s = tr.offset(*end);
                    tr.record_parallel(
                        "runtime.job",
                        op,
                        end_s - job_wall.as_secs_f64(),
                        end_s,
                        parent,
                    );
                }
                st.job_walls
                    .push(jobs.iter().map(|(_, w)| w.as_secs_f64()).collect());
            }
        }
        // Time spent inside operations: the glue between them (checks,
        // serialisation) is the benchmark's own.
        body.wall_s = body.op_ms.iter().sum::<f64>() / 1e3;
        body
    }

    fn finish(&self, st: State, cfg: &Config, tr: &Tracer, out: &mut Outcome) {
        let Some(rows) = st.rows.clone() else {
            out.check("at least one sweep completed", false);
            return;
        };
        let serial_rows = tr.span("bench.check", || {
            let serial = Runtime::builder()
                .workers(1)
                .build()
                .expect("in-memory runtime builds");
            serde_json::to_string(&fig2_sweep_with(&st.params, &serial)).expect("rows serialize")
        });
        out.check(
            format!(
                "rows of every {}-worker sweep equal a 1-worker fig2_sweep_with",
                cfg.nproc
            ),
            serial_rows == rows,
        );
        out.check(
            format!(
                "rows identical across sweeps, traced or not ({} differ)",
                st.mismatched
            ),
            st.mismatched == 0,
        );
        out.digest = Some(content_digest(rows.as_bytes()));
        if tr.on() {
            layer_pass(&st, cfg, tr, out);
        }
    }
}

/// Times each call of one sweep's worth of scenarios: config build,
/// probes-off run, profiled run under the body's probe stack, collector
/// run, adversary evaluation.
fn layer_pass(st: &State, cfg: &Config, tr: &Tracer, out: &mut Outcome) {
    tr.set_op(usize::MAX);
    let sink = telemetry_sink();
    let runtime = Runtime::builder()
        .workers(1)
        .telemetry_sink(Arc::clone(&sink))
        .build()
        .expect("in-memory runtime builds");
    let mut phases: Option<PhaseBreakdown> = None;
    let (mut events, mut peak_fes, mut draws) = (0u64, 0u64, 0u64);
    let mut same = true;
    tr.span("bench.layer_pass", || {
        for (label, c) in &st.configs {
            let sim = tr.span("core.build", || {
                c.build().expect("Figure-1 configs are valid")
            });
            let plain: SimOutcome = tr.span("core.run", || sim.run());
            let mut prof = PhaseProfiler::new();
            let mut probe = (
                (
                    RecordingProbe::new(sim.routing().len()),
                    DigestProbe::new(DIGEST_WINDOW),
                ),
                privacy_probe_for(&sim, PRIVACY_INTERVAL as u64),
            );
            let profiled = tr.span("sim.run_profiled", || {
                sim.run_profiled(&mut probe, &mut prof)
            });
            let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
            let collected = tr.span("telemetry.collector_run", || collector.run(&sim, label));
            let knowledge = sim.adversary_knowledge();
            let report = tr.span("core.adversary", || {
                evaluate_adversary(&plain, &BaselineAdversary, &knowledge)
            });
            std::hint::black_box(report);
            same &= plain == profiled && plain == collected;
            same &= plain.rng_draws == profiled.rng_draws && plain.rng_draws == collected.rng_draws;
            events += plain.events;
            peak_fes = peak_fes.max(plain.peak_fes);
            draws += plain.rng_draws;
            let b = prof.finish();
            match &mut phases {
                Some(acc) => acc.merge(&b),
                None => phases = Some(b),
            }
        }
    });
    out.check(
        "probes-off, profiled and collector runs give identical outcomes",
        same,
    );
    let spans = |name| tr.per_op_secs(name);
    let run_s = spans("core.run");
    let collector_s = spans("telemetry.collector_run");
    out.layer("core.build_s", spans("core.build"));
    out.layer("core.run_s", run_s);
    out.layer("telemetry.collector_run_s", collector_s);
    out.layer("telemetry.probe_overhead", collector_s / run_s - 1.0);
    out.layer("core.adversary_s", spans("core.adversary"));
    out.layer("sim.events", events as f64);
    out.layer("sim.peak_fes", peak_fes as f64);
    out.layer("core.rng_draws", draws as f64);
    if let Some(p) = phases {
        set_phases(out, &p);
    }
    out.layer("telemetry.export_s", spans("telemetry.export"));
    out.layer("telemetry.export_bytes", st.export_bytes as f64);
    let jobs: Vec<f64> = st.job_walls.iter().flatten().copied().collect();
    if let Some(s) = Summary::of(&jobs) {
        out.layer("runtime.job_s_p50", s.median);
        out.layer(
            "runtime.job_s_max",
            jobs.iter().copied().fold(0.0, f64::max),
        );
    }
    let busy: f64 = jobs.iter().sum();
    let walls: f64 = st.op_walls.iter().sum();
    let workers = cfg.nproc as f64;
    if walls > 0.0 {
        out.layer("runtime.idle_frac", 1.0 - busy / (workers * walls));
    }
}

/// Engine phase seconds into the per-layer table.
pub fn set_phases(out: &mut Outcome, p: &PhaseBreakdown) {
    for (phase, name) in [
        (Phase::EngineLoop, "sim.phase.engine_loop_s"),
        (Phase::Create, "sim.phase.create_s"),
        (Phase::Arrive, "sim.phase.arrive_s"),
        (Phase::Release, "sim.phase.release_s"),
        (Phase::QueuePush, "sim.phase.queue_push_s"),
        (Phase::VictimSelect, "sim.phase.victim_select_s"),
        (Phase::Probe, "sim.phase.probe_s"),
    ] {
        out.layer(name, p.secs_for(phase.name()));
    }
}
