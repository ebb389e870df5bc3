//! Cross-worker-count determinism for the sharded parallel engine.
//!
//! The conservative time-window runner must be a pure performance knob:
//! for a fixed shard cut, the worker count can never change the
//! simulation. This suite runs every buffer/victim configuration on a
//! four-subtree star convergecast (so the cut is non-trivial and real
//! cross-shard handoffs flow) under workers ∈ {1, 2, 4, 8} and demands
//! byte-identical outcome digests plus equal RNG draw counts.
//!
//! For every configuration that draws no global-stream randomness
//! mid-run (deterministic victims over lossless links — all the paper's
//! configurations), the sharded digest must also equal the serial
//! engine's digest. `rcad_random` victims draw from shard-indexed
//! substreams, so it is deterministic across worker counts but keyed by
//! the shard count; its serial comparison is intentionally skipped.

use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::delay::DelayPlan;
use tempriv_core::sim_driver::NetworkSimulation;
use tempriv_net::convergecast::Convergecast;
use tempriv_net::ids::NodeId;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::rng::RngFactory;
use tempriv_telemetry::RecordingProbe;

const SHARDS: u32 = 4;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Four disjoint chains into the sink: four sink-subtrees, so the
/// four-way cut yields one subtree per shard and every delivery crosses
/// a shard boundary.
fn star_sim(buffer: BufferPolicy) -> NetworkSimulation {
    let layout = Convergecast::builder()
        .trunk_hops(0)
        .flows([15, 22, 9, 11])
        .build()
        .expect("star layout is valid");
    NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::periodic(2.0))
        .packets_per_source(150)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(buffer)
        .seed(2007)
        .build()
        .expect("star config is valid")
}

fn all_configs() -> [(&'static str, BufferPolicy, bool); 7] {
    let rcad = |victim| BufferPolicy::Rcad {
        capacity: 10,
        victim,
    };
    // (label, policy, serial digest must match too)
    [
        ("unlimited", BufferPolicy::Unlimited, true),
        ("drop_tail", BufferPolicy::DropTail { capacity: 10 }, true),
        (
            "threshold_mix",
            BufferPolicy::ThresholdMix { threshold: 10 },
            true,
        ),
        (
            "rcad_shortest_remaining",
            rcad(VictimPolicy::ShortestRemaining),
            true,
        ),
        (
            "rcad_longest_remaining",
            rcad(VictimPolicy::LongestRemaining),
            true,
        ),
        ("rcad_random", rcad(VictimPolicy::Random), false),
        ("rcad_oldest", rcad(VictimPolicy::Oldest), true),
    ]
}

#[test]
fn worker_count_is_invisible_for_every_config() {
    for (label, buffer, matches_serial) in all_configs() {
        let sim = star_sim(buffer);
        let serial = sim.run();
        let reference = sim.run_sharded(SHARDS, WORKERS[0]);
        assert!(
            reference.shards.iter().map(|s| s.handoffs_out).sum::<u64>() > 0,
            "{label}: the star cut must produce cross-shard handoffs"
        );
        if matches_serial {
            assert_eq!(
                serial.digest(),
                reference.digest(),
                "{label}: sharded run must reproduce the serial digest"
            );
            assert_eq!(
                serial.rng_draws, reference.rng_draws,
                "{label}: sharded run must reproduce the serial draw count"
            );
        } else {
            // Shard-substream victims pick different victims than the
            // serial stream (different preemption cascades, so even
            // event totals may differ) — but conservation must hold in
            // both engines over the same created population.
            let created =
                |o: &tempriv_core::SimOutcome| o.flows.iter().map(|f| f.created).sum::<u64>();
            assert_eq!(
                created(&serial),
                created(&reference),
                "{label}: created totals"
            );
            for (name, o) in [("serial", &serial), ("sharded", &reference)] {
                assert_eq!(
                    o.total_delivered() + o.total_drops() + o.total_stranded(),
                    created(o),
                    "{label}/{name}: delivered + dropped + stranded = created"
                );
            }
        }
        for workers in &WORKERS[1..] {
            let run = sim.run_sharded(SHARDS, *workers);
            assert_eq!(
                reference.digest(),
                run.digest(),
                "{label}: digest changed between 1 and {workers} workers"
            );
            assert_eq!(
                reference.rng_draws, run.rng_draws,
                "{label}: RNG draw count changed between 1 and {workers} workers"
            );
            assert_eq!(
                reference, run,
                "{label}: full outcome changed between 1 and {workers} workers"
            );
        }
    }
}

#[test]
fn shard_stats_account_for_every_event_and_node() {
    let sim = star_sim(BufferPolicy::paper_rcad());
    let out = sim.run_sharded(SHARDS, 2);
    assert_eq!(out.shards.len(), SHARDS as usize);
    let shard_events: u64 = out.shards.iter().map(|s| s.events).sum();
    assert_eq!(shard_events, out.events, "per-shard events sum to total");
    let shard_nodes: u64 = out.shards.iter().map(|s| s.nodes).sum();
    assert_eq!(
        shard_nodes,
        out.nodes.len() as u64,
        "every node has a home shard"
    );
    assert_eq!(
        out.peak_fes,
        out.shards.iter().map(|s| s.peak_fes).sum::<u64>(),
        "peak FES aggregates across shards"
    );
}

/// A routing tree over `n` nodes whose external ids are a seeded
/// shuffle of the construction order: logical node 0 is the sink, nodes
/// 1..=4 hang off it, and every later node `k` joins the subtree of
/// `k mod 4` under one of that subtree's two latest nodes. Four
/// sink-subtrees give the exact cut real handoffs, and routes run tens
/// of hops deep. Returns the tree and one source per 15 logical nodes.
fn shuffled_tree(n: usize, seed: u64) -> (tempriv_net::routing::RoutingTree, Vec<NodeId>) {
    let mut rng = RngFactory::new(seed).stream(0);
    let mut label: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.sample_index(i + 1));
    }
    let mut parents = vec![None; n];
    for k in 1..n {
        let parent = if k <= 4 {
            0
        } else {
            k - 4 * (1 + rng.sample_index(2.min((k - 1) / 4)))
        };
        parents[label[k] as usize] = Some(NodeId(label[parent]));
    }
    let routing = tempriv_net::routing::RoutingTree::from_parents(NodeId(label[0]), parents)
        .expect("parents form a tree");
    let sources = (5..n).step_by(15).map(|k| NodeId(label[k])).collect();
    (routing, sources)
}

/// The driver numbers nodes internally in DFS order; nothing observable
/// may carry that numbering. On a shuffled-id tree, node reports come
/// back in external id order with counts that match the routes, probe
/// hooks see external ids, and the serial and sharded engines agree.
#[test]
fn internal_node_numbering_is_invisible() {
    for (n, seed) in [(200, 11), (317, 12), (400, 13)] {
        let (routing, sources) = shuffled_tree(n, seed);
        let sim = NetworkSimulation::builder(routing.clone(), sources.clone())
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(40)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(seed)
            .build()
            .expect("shuffled config is valid");
        let mut probe = RecordingProbe::new(n);
        let out = sim.run_probed(&mut probe);
        assert_eq!(out, sim.run(), "n={n}: the probe must not perturb the run");

        // Every packet crosses its whole route: each node before the
        // sink transmits it once, each node after the source receives
        // it once.
        let mut tx = vec![0u64; n];
        let mut rx = vec![0u64; n];
        for (flow, &src) in out.flows.iter().zip(&sources) {
            let path = routing.path(src);
            for hop in path.windows(2) {
                tx[hop[0].index()] += flow.created;
                rx[hop[1].index()] += flow.created;
            }
        }
        let telemetry = probe.finish(out.end_time);
        for (i, report) in out.nodes.iter().enumerate() {
            assert_eq!(report.node, NodeId(i as u32), "n={n}: reports by id");
            assert_eq!(report.transmissions, tx[i], "n={n}: node {i} tx");
            assert_eq!(report.receptions, rx[i], "n={n}: node {i} rx");
            assert_eq!(
                telemetry.nodes[i].high_water, report.peak_occupancy,
                "n={n}: node {i} probe high-water"
            );
        }
        assert!(out.nodes.iter().any(|r| r.peak_occupancy > 1));

        let digest = out.digest();
        assert_eq!(digest, sim.run_sharded(1, 1).digest(), "n={n}: 1 shard");
        let cut = sim.run_sharded(4, 2);
        assert!(cut.shards.iter().any(|s| s.handoffs_out > 0));
        assert_eq!(digest, cut.digest(), "n={n}: exact 4-shard cut");
    }
}
