//! `geo_field`: a ~100k-node constant-density geometric field, built
//! the way `perf_baseline --bench scale` builds it — corner sink, ~1000
//! sources, periodic 1/λ = 2, paper RCAD — run serially with probes
//! off. The traced pass also runs it through the balanced-cut sharded
//! engine, `run_sharded_balanced(nproc, nproc)`, whose wall time swings
//! too widely on a shared host to be timed as a workload of its own.

use std::time::Instant;

use tempriv_core::buffer::BufferPolicy;
use tempriv_core::delay::DelayPlan;
use tempriv_core::sharded::ShardPlan;
use tempriv_core::sim_driver::NetworkSimulation;
use tempriv_core::SimOutcome;
use tempriv_net::geometric::GeometricDeployment;
use tempriv_net::ids::NodeId;
use tempriv_net::routing::RoutingTree;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::rng::RngFactory;
use tempriv_telemetry::{memprof, NullProbe, PhaseProfiler};

use crate::report::{Body, Outcome};
use crate::trace::Tracer;
use crate::{Config, Workload};

/// Field size (nodes, sink included).
const NODES: usize = 100_000;
/// Radio range. `perf_baseline` widens 2.0 to 2.5 past 100k nodes to
/// stay connected; at 100k nodes and 2.0 a seed needs 1 to 11 samples
/// before one connects, which would make `setup_s` a property of the
/// seed. At 2.5 nearly every seed connects on the first sample.
const RANGE: f64 = 2.5;
/// Packets each source sends: enough for every source's packets to
/// cross the field together, few enough for several runs per window.
const PACKETS_PER_SOURCE: u32 = 8;

/// The workload.
pub struct Geo;

/// The built simulation and the first run's outcome.
pub struct State {
    sim: NetworkSimulation,
    first: Option<SimOutcome>,
    /// Runs whose digest or event count differ from the first run's.
    mismatched: usize,
    /// Runs that lost or invented packets.
    unconserved: usize,
}

/// Samples the field, routes it to the corner sink and builds the
/// simulation, one span per layer call.
fn build_field(cfg: &Config, tr: &Tracer) -> NetworkSimulation {
    let n = if cfg.tiny { 2_000 } else { NODES };
    let side = (n as f64).sqrt();
    let deploy = GeometricDeployment::new(side, side, n, RANGE);
    let mut rng = RngFactory::new(cfg.seed).stream(0x5CA1E);
    let topo = tr.span("net.sample", || {
        deploy
            .sample_connected(&mut rng, 64)
            .expect("constant-density field connects within 64 attempts")
    });
    let routing = tr.span("net.route", || {
        RoutingTree::shortest_path(&topo, NodeId(0)).expect("connected topology routes")
    });
    let stride = (n / 1000).max(10);
    let sources: Vec<NodeId> = (1..n).step_by(stride).map(|i| NodeId(i as u32)).collect();
    tr.span("core.build", || {
        NetworkSimulation::builder(routing, sources)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(PACKETS_PER_SOURCE)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::paper_rcad())
            .seed(cfg.seed)
            .build()
            .expect("field config is valid")
    })
}

fn conserved(o: &SimOutcome) -> bool {
    let created: u64 = o.flows.iter().map(|f| f.created).sum();
    o.total_delivered() + o.total_drops() + o.total_stranded() == created
}

fn shards(cfg: &Config) -> u32 {
    u32::try_from(cfg.nproc).expect("core count fits u32")
}

impl Workload for Geo {
    type State = State;

    fn setup_repeats(&self, _cfg: &Config) -> usize {
        3
    }

    fn setup(&self, cfg: &Config, tr: &Tracer) -> State {
        State {
            sim: build_field(cfg, tr),
            first: None,
            mismatched: 0,
            unconserved: 0,
        }
    }

    fn body(&self, st: &mut State, _cfg: &Config, tr: &Tracer, seconds: f64) -> Body {
        let mut body = Body::default();
        let started = Instant::now();
        while body.attempted == 0 || started.elapsed().as_secs_f64() < seconds {
            tr.next_op();
            let t = Instant::now();
            let cpu = crate::cpu::process_cpu_s();
            let out = tr.span("bench.op", || tr.span("core.run", || st.sim.run()));
            let wall = t.elapsed().as_secs_f64();
            body.cpu_ms.push((crate::cpu::process_cpu_s() - cpu) * 1e3);
            body.attempted += 1;
            let differs = st
                .first
                .as_ref()
                .is_some_and(|first| first.digest() != out.digest() || first.events != out.events);
            st.mismatched += usize::from(differs);
            st.unconserved += usize::from(!conserved(&out));
            body.events += out.events;
            body.op_ms.push(wall * 1e3);
            body.rates.push(out.events as f64 / wall);
            st.first.get_or_insert(out);
        }
        // Time spent inside operations: the glue between them (checks,
        // serialisation) is the benchmark's own.
        body.wall_s = body.op_ms.iter().sum::<f64>() / 1e3;
        body
    }

    fn finish(&self, st: State, cfg: &Config, tr: &Tracer, out: &mut Outcome) {
        let Some(first) = &st.first else {
            out.check("at least one run completed", false);
            return;
        };
        out.check(
            format!(
                "serial digest and event count identical across repeats ({} differ)",
                st.mismatched
            ),
            st.mismatched == 0,
        );
        out.check(
            format!(
                "created = delivered + dropped + stranded on every run ({} not)",
                st.unconserved
            ),
            st.unconserved == 0,
        );
        out.digest = Some(format!("{:016x}", first.digest()));
        out.notes.push(format!(
            "field: {} nodes, {} sources, {} events per run",
            st.sim.routing().len(),
            st.sim.sources().len(),
            first.events
        ));
        if !tr.on() {
            return;
        }
        tr.set_op(usize::MAX);
        out.layer("net.sample_s", tr.per_op_secs("net.sample"));
        out.layer("net.route_s", tr.per_op_secs("net.route"));
        out.layer("core.build_s", tr.per_op_secs("core.build"));
        out.layer("core.run_s", tr.per_op_secs("core.run"));
        out.layer("sim.events", first.events as f64);
        out.layer("sim.peak_fes", first.peak_fes as f64);
        out.layer("core.rng_draws", first.rng_draws as f64);
        let shards = shards(cfg);
        let exact = tr.span("bench.check", || st.sim.run_sharded(shards, cfg.nproc));
        out.check(
            format!(
                "serial digest equals the exact-cut run_sharded({shards}, {}) digest",
                cfg.nproc
            ),
            exact.digest() == first.digest(),
        );
        let mut prof = PhaseProfiler::new();
        let profiled = tr.span("sim.run_profiled", || {
            st.sim.run_profiled(&mut NullProbe, &mut prof)
        });
        out.check("profiled run equals the probes-off run", profiled == *first);
        crate::fig1::set_phases(out, &prof.finish());
        // Allocation counting, gate open for this one run only.
        let counted = tr.span("core.run_counted", || {
            memprof::set_enabled(true);
            memprof::reset_peak();
            let base = memprof::snapshot().live_bytes;
            let o = st.sim.run();
            let peak = memprof::snapshot().peak_live_bytes.saturating_sub(base);
            memprof::set_enabled(false);
            (o, peak)
        });
        out.layer(
            "core.allocs_per_delivered",
            counted.0.allocs_per_delivered(),
        );
        out.layer("core.live_peak_mb", counted.1 as f64 / (1u64 << 20) as f64);
        sharded_pass(&st.sim, cfg, tr, out);
    }
}

/// The balanced-cut sharded engine on the same field: the plan, one
/// `run_sharded_balanced(nproc, nproc)`, and its worker-count invariance.
fn sharded_pass(sim: &NetworkSimulation, cfg: &Config, tr: &Tracer, out: &mut Outcome) {
    let shards = shards(cfg);
    let plan = tr.span("core.plan", || {
        ShardPlan::cut_balanced(sim.routing(), sim.sources(), shards)
    });
    std::hint::black_box(plan);
    let balanced = tr.span("core.sharded_run", || {
        sim.run_sharded_balanced(shards, cfg.nproc)
    });
    let single = tr.span("bench.check", || sim.run_sharded_balanced(shards, 1));
    out.check(
        "balanced sharded run: created = delivered + dropped + stranded",
        conserved(&balanced),
    );
    out.check(
        format!(
            "balanced {shards}-shard results identical for workers 1 and {}",
            cfg.nproc
        ),
        single == balanced
            && single.digest() == balanced.digest()
            && single.shards == balanced.shards,
    );
    out.layer("core.plan_s", tr.per_op_secs("core.plan"));
    out.layer("core.sharded_run_s", tr.per_op_secs("core.sharded_run"));
    let events: Vec<f64> = balanced.shards.iter().map(|s| s.events as f64).collect();
    let mean = events.iter().sum::<f64>() / events.len().max(1) as f64;
    let max = events.iter().copied().fold(0.0, f64::max);
    out.layer("core.shard_imbalance", max / mean);
    let handoffs: u64 = balanced.shards.iter().map(|s| s.handoffs_out).sum();
    out.layer(
        "core.handoffs_per_event",
        handoffs as f64 / balanced.events as f64,
    );
}
