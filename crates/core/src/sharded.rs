//! Sharded conservative-parallel execution of the network simulation.
//!
//! A convergecast tree cuts into connected pieces along its edges; a
//! packet crossing a cut edge is handed to the next node's shard.
//! [`ShardPlan::cut`] cuts only the trunk edges into the sink, which
//! keeps sharded runs bit-exact against the serial engine;
//! [`ShardPlan::cut_balanced`] additionally carves subtrees by transit
//! load so even a single giant sink-subtree (a corner-sink geometric
//! field) spreads across shards — see [`ShardPlan`] for the exact
//! contracts. Either plan is a pure function of the routing tree, the
//! source list, and the shard count — no RNG, no tie-breaks on memory
//! addresses — so a given topology always shards identically.
//!
//! Each shard owns a private [`Engine`], [`PacketStore`], and RNG
//! streams, and advances through conservative time windows: with link
//! delay τ, every cross-shard influence generated in `[W, W + τ)`
//! arrives at `W + τ` or later, so shards can process the window
//! independently and exchange `Handoff`s at the barrier. Handoffs are
//! merged in ascending source-shard order, which fixes the event-queue
//! insertion order — the run is **byte-identical for every worker
//! count**, because worker threads only change *when* a shard executes
//! its window, never *what* it computes.
//!
//! Global RNG streams cannot survive partitioning (their draw order was
//! the serial event order), so sharded runs index the victim, link, and
//! reading streams by shard; the serial engine is the one-shard special
//! case drawing from index 0. Packet ids and creation instants are
//! preassigned by a presampling pass over the per-flow traffic streams,
//! sorted by `(time, flow)` — the same order the serial engine assigns
//! them. One shard therefore reproduces a serial run exactly, and
//! multiple shards reproduce it whenever no shared global stream is
//! actually drawn from (lossless links and deterministic victim
//! policies, which covers every configuration in the paper).
//!
//! [`PacketStore`]: crate::store::PacketStore

use std::sync::mpsc;

use tempriv_net::ids::{FlowId, NodeId, PacketId};
use tempriv_net::routing::RoutingTree;
use tempriv_sim::engine::Engine;
use tempriv_sim::profile::{NoopPhaseTimer, Phase, PhaseTimer};
use tempriv_sim::rng::RngFactory;
use tempriv_sim::time::{SimDuration, SimTime};
use tempriv_telemetry::NullProbe;

use crate::metrics::{FlowOutcome, ShardStats, SimOutcome, TruthRecord};
use crate::sim_driver::{streams, Driver, Ev, NetworkSimulation, NodeOrder, Workload};

/// A partition of the routing tree's nodes into shards, built by one of
/// two strategies with different contracts:
///
/// * [`ShardPlan::cut`] cuts **only trunk edges** (the edges into the
///   sink). Handoffs then target the sink alone — a memoryless node
///   where same-instant arrival order cannot influence any buffer state
///   — so a sharded run reproduces the serial engine **bit-exactly**
///   (for every configuration that draws no shared global stream).
/// * [`ShardPlan::cut_balanced`] additionally carves subtrees wherever
///   their accumulated transit load reaches a grain of about a quarter
///   shard, then packs pieces onto shards by greedy LPT on load. This
///   balances trees the trunk cut cannot touch — a corner-sink
///   geometric field or the Figure-1 shared trunk is one giant
///   sink-subtree — at the price of bit-exactness: handoffs can land on
///   interior buffering nodes, where RCAD preemption cascades (constant
///   τ) make same-instant arrival ties structural, and the barrier
///   merge cannot replicate the serial engine's insertion order for
///   them. Worker-count invariance and packet conservation still hold
///   unconditionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shard_of: Vec<u32>,
    shards: u32,
}

impl ShardPlan {
    /// Cuts `routing` into `shards` partitions at trunk edges only.
    ///
    /// Deterministic: sink-subtrees are assigned in `(size desc, root
    /// id asc)` order to the least-loaded shard (ties to the lowest
    /// shard index). The sink always lives in shard 0. Shard counts
    /// above the number of sink-subtrees leave the excess shards empty,
    /// and a single-subtree layout collapses onto shard 0.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn cut(routing: &RoutingTree, shards: u32) -> ShardPlan {
        assert!(shards > 0, "a shard plan needs at least one shard");
        let n = routing.len();
        let sink = routing.sink().index();
        // trunk[i] = the root of i's sink-subtree (the last node on i's
        // path before the sink), memoized by path compression.
        let mut trunk: Vec<u32> = vec![u32::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        for start in 0..n {
            if start == sink || trunk[start] != u32::MAX {
                continue;
            }
            debug_assert!(stack.is_empty());
            let mut cur = start;
            let root = loop {
                if trunk[cur] != u32::MAX {
                    break trunk[cur];
                }
                let next = routing
                    .next_hop(NodeId(cur as u32))
                    .expect("non-sink nodes have a next hop")
                    .index();
                if next == sink {
                    break cur as u32;
                }
                stack.push(cur);
                cur = next;
            };
            trunk[cur] = root;
            while let Some(node) = stack.pop() {
                trunk[node] = root;
            }
        }
        let mut subtree_size: Vec<u64> = vec![0; n];
        for i in 0..n {
            if i != sink {
                subtree_size[trunk[i] as usize] += 1;
            }
        }
        let mut roots: Vec<u32> = (0..n as u32)
            .filter(|&i| i as usize != sink && trunk[i as usize] == i)
            .collect();
        roots.sort_unstable_by(|&a, &b| {
            subtree_size[b as usize]
                .cmp(&subtree_size[a as usize])
                .then_with(|| a.cmp(&b))
        });
        let mut load: Vec<u64> = vec![0; shards as usize];
        let mut root_shard: Vec<u32> = vec![0; n];
        for &root in &roots {
            let lightest = (0..shards)
                .min_by_key(|&s| load[s as usize])
                .expect("at least one shard");
            load[lightest as usize] += subtree_size[root as usize];
            root_shard[root as usize] = lightest;
        }
        let shard_of: Vec<u32> = (0..n)
            .map(|i| {
                if i == sink {
                    0
                } else {
                    root_shard[trunk[i] as usize]
                }
            })
            .collect();
        ShardPlan { shard_of, shards }
    }

    /// Cuts `routing` into `shards` partitions, balancing the transit
    /// load induced by `sources` (each source adds one unit of load to
    /// every node on its path to the sink). Unlike [`ShardPlan::cut`]
    /// it carves inside sink-subtrees, so handoffs can target interior
    /// buffering nodes and the sharded run is statistically — not
    /// bit- — identical to the serial engine (see the type docs).
    ///
    /// Deterministic: loads, carve order (children before parents, in
    /// node-index order), and piece assignment (`(load desc, root id
    /// asc)` to the least-loaded shard, ties to the lowest index) are
    /// all pure functions of the tree and the source list. The sink
    /// always lives in shard 0; layouts with less total load than the
    /// shard count may leave trailing shards empty.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn cut_balanced(routing: &RoutingTree, sources: &[NodeId], shards: u32) -> ShardPlan {
        assert!(shards > 0, "a shard plan needs at least one shard");
        let n = routing.len();
        let sink = routing.sink().index();
        if shards == 1 || n <= 1 {
            return ShardPlan {
                shard_of: vec![0; n],
                shards,
            };
        }
        let parent = |i: usize| {
            routing
                .next_hop(NodeId(i as u32))
                .expect("non-sink nodes have a next hop")
                .index()
        };
        // load[u] = flows whose route transits u — the node's share of
        // the run's forwarding events.
        let mut load: Vec<u64> = vec![0; n];
        for s in sources {
            let mut cur = s.index();
            while cur != sink {
                load[cur] += 1;
                cur = parent(cur);
            }
        }
        // Reverse-BFS order visits children before parents.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            if i != sink {
                children[parent(i)].push(i as u32);
            }
        }
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.push(sink as u32);
        let mut head = 0;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            order.extend_from_slice(&children[u]);
        }
        // Carve bottom-up: close a piece at every trunk edge (so
        // sink-subtrees never merge through the sink) and wherever the
        // accumulated load reaches the grain. Fine grains cost extra
        // handoffs but let LPT balance to within a fraction of a shard.
        let total: u64 = load.iter().sum();
        let grain = (total / (u64::from(shards) * 4)).max(1);
        let mut acc = load.clone();
        let mut piece_root: Vec<bool> = vec![false; n];
        for &u in order.iter().rev() {
            let u = u as usize;
            if u == sink {
                continue;
            }
            let p = parent(u);
            if p == sink || acc[u] >= grain {
                piece_root[u] = true;
            } else {
                acc[p] += acc[u];
            }
        }
        // piece_of[i] = the nearest piece root at or above i, memoized
        // by path compression. Every non-sink path crosses a trunk edge,
        // so only the sink itself maps to the sink "piece".
        let mut piece_of: Vec<u32> = vec![u32::MAX; n];
        piece_of[sink] = sink as u32;
        let mut stack: Vec<usize> = Vec::new();
        for start in 0..n {
            if piece_of[start] != u32::MAX {
                continue;
            }
            debug_assert!(stack.is_empty());
            let mut cur = start;
            let root = loop {
                if piece_of[cur] != u32::MAX {
                    break piece_of[cur];
                }
                if piece_root[cur] {
                    break cur as u32;
                }
                stack.push(cur);
                cur = parent(cur);
            };
            piece_of[cur] = root;
            while let Some(node) = stack.pop() {
                piece_of[node] = root;
            }
        }
        let mut piece_load: Vec<u64> = vec![0; n];
        for i in 0..n {
            if i != sink {
                piece_load[piece_of[i] as usize] += load[i];
            }
        }
        let mut roots: Vec<u32> = (0..n as u32).filter(|&i| piece_root[i as usize]).collect();
        roots.sort_unstable_by(|&a, &b| {
            piece_load[b as usize]
                .cmp(&piece_load[a as usize])
                .then_with(|| a.cmp(&b))
        });
        // Shard 0 starts with the sink's own load — one terminal event
        // per packet of every flow — before LPT hands out the pieces.
        let mut shard_load: Vec<u64> = vec![0; shards as usize];
        shard_load[0] = sources.len() as u64;
        let mut root_shard: Vec<u32> = vec![0; n];
        for &root in &roots {
            let lightest = (0..shards)
                .min_by_key(|&s| shard_load[s as usize])
                .expect("at least one shard");
            shard_load[lightest as usize] += piece_load[root as usize];
            root_shard[root as usize] = lightest;
        }
        let shard_of: Vec<u32> = (0..n)
            .map(|i| {
                if i == sink {
                    0
                } else {
                    root_shard[piece_of[i] as usize]
                }
            })
            .collect();
        ShardPlan { shard_of, shards }
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Shard index per node.
    #[must_use]
    pub fn shard_of(&self) -> &[u32] {
        &self.shard_of
    }

    /// Number of nodes assigned to `shard`.
    #[must_use]
    pub fn nodes_in(&self, shard: u32) -> u64 {
        self.shard_of.iter().filter(|&&s| s == shard).count() as u64
    }
}

/// A packet crossing a shard boundary: everything the receiving shard
/// needs to re-materialize it in its own store. The sealed reading does
/// not ride along — it is unobservable past the creating node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Handoff {
    /// Arrival instant at `node` (emission time + link delay).
    pub(crate) at: SimTime,
    /// The receiving node (in the destination shard).
    pub(crate) node: NodeId,
    pub(crate) pid: PacketId,
    pub(crate) flow: FlowId,
    pub(crate) origin: NodeId,
    pub(crate) hop_count: u32,
    pub(crate) created_at: SimTime,
}

/// Replays one flow's presampled creation schedule: `(instant, packet
/// id)` pairs in time order. Empty for flows homed on other shards.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowCursor {
    times: Vec<SimTime>,
    pids: Vec<PacketId>,
    next: usize,
}

impl FlowCursor {
    /// The first creation, if the flow creates anything.
    pub(crate) fn first(&self) -> Option<(SimTime, PacketId)> {
        self.times.first().map(|&t| (t, self.pids[0]))
    }

    /// The creation the cursor currently points at.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is exhausted (more creations fired than were
    /// presampled — a scheduling bug).
    pub(crate) fn current(&self) -> (SimTime, PacketId) {
        (self.times[self.next], self.pids[self.next])
    }

    /// Advances past the current creation; returns the next one, if any.
    pub(crate) fn advance(&mut self) -> Option<(SimTime, PacketId)> {
        self.next += 1;
        if self.next < self.times.len() {
            Some((self.times[self.next], self.pids[self.next]))
        } else {
            None
        }
    }
}

/// Presamples every flow's creation schedule and assigns packet ids in
/// `(time, flow)` order — the order the serial engine assigns them.
/// Returns the global truth log, one cursor per flow, and the RNG draws
/// the presampling consumed (the same draws the serial engine spends
/// sampling interarrivals lazily).
fn presample(sim: &NetworkSimulation) -> (Vec<TruthRecord>, Vec<FlowCursor>, u64) {
    let n_flows = sim.sources.len();
    let factory = RngFactory::new(sim.seed);
    let mut draws = 0u64;
    let per_flow_times: Vec<Vec<SimTime>> = match &sim.workload {
        Workload::Model(traffic) => (0..n_flows)
            .map(|i| {
                let mut rng = factory.substream(streams::TRAFFIC, i as u64);
                let mut sampler = traffic.sampler();
                let mut at = SimTime::ZERO;
                let times = (0..sim.packets_per_source)
                    .map(|_| {
                        at += sampler.next_interarrival(&mut rng);
                        at
                    })
                    .collect();
                draws += rng.draws();
                times
            })
            .collect(),
        Workload::Schedules(schedules) => schedules.clone(),
    };
    let mut order: Vec<(SimTime, u32, u32)> = Vec::new();
    for (flow, times) in per_flow_times.iter().enumerate() {
        for (k, &at) in times.iter().enumerate() {
            order.push((at, flow as u32, k as u32));
        }
    }
    order.sort_unstable();
    let mut truth = Vec::with_capacity(order.len());
    let mut pids: Vec<Vec<PacketId>> = vec![Vec::new(); n_flows];
    for (i, &(at, flow, _)) in order.iter().enumerate() {
        let pid = PacketId(i as u64);
        truth.push(TruthRecord {
            packet: pid,
            flow: FlowId(flow),
            created_at: at,
        });
        pids[flow as usize].push(pid);
    }
    let cursors = per_flow_times
        .into_iter()
        .zip(pids)
        .map(|(times, pids)| FlowCursor {
            times,
            pids,
            next: 0,
        })
        .collect();
    (truth, cursors, draws)
}

/// One shard's private execution state.
struct Shard<'a> {
    idx: u32,
    engine: Engine<Ev>,
    driver: Driver<'a, NullProbe, NoopPhaseTimer>,
}

impl Shard<'_> {
    /// Runs this shard's events strictly before `end`.
    fn run_window(&mut self, end: SimTime) {
        let Shard { engine, driver, .. } = self;
        engine.run_before(end, |sched, ev| driver.handle(sched, ev));
    }
}

/// Coordinator → worker message for one window round.
enum Cmd {
    /// Run everything strictly before `end`, after scheduling `handoffs`
    /// (already in deterministic source-shard order).
    Window {
        end: SimTime,
        handoffs: Vec<Handoff>,
    },
    /// Drain complete: return the shard states.
    Halt,
}

/// Worker → coordinator reply after one window round.
struct Resp {
    worker: usize,
    /// Emitted handoffs, tagged per source shard (in this worker's shard
    /// order; the coordinator re-sorts globally by source shard).
    outboxes: Vec<(u32, Vec<Handoff>)>,
    /// Earliest pending event across this worker's shards, post-window.
    next: Option<SimTime>,
}

/// Which [`ShardPlan`] strategy a sharded run partitions with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutStrategy {
    /// Trunk edges only — bit-exact against the serial engine.
    #[default]
    Exact,
    /// Transit-load carving — balanced shards, statistical equivalence.
    Balanced,
}

pub(crate) fn run_sharded<T: PhaseTimer>(
    sim: &NetworkSimulation,
    shards: u32,
    workers: usize,
    strategy: CutStrategy,
    timer: &mut T,
) -> SimOutcome {
    assert!(shards > 0, "run_sharded needs at least one shard");
    let lookahead = sim.link.delay();
    assert!(
        lookahead > SimDuration::ZERO,
        "sharded runs need a positive link delay as conservative lookahead"
    );
    // Allocation gauge parity with the serial path. Threaded runs only
    // see the coordinator's allocations; the single-threaded runner (the
    // one the mem benches use) sees everything.
    let mem_base = tempriv_telemetry::memprof::thread_snapshot();
    let plan = match strategy {
        CutStrategy::Exact => ShardPlan::cut(&sim.routing, shards),
        CutStrategy::Balanced => ShardPlan::cut_balanced(&sim.routing, &sim.sources, shards),
    };
    let n_shards = shards as usize;
    let (truth, mut cursors, presample_draws) = presample(sim);
    // Every shard's driver shares one internal node numbering; the
    // drivers test the shard of a next hop by internal id.
    let order = NodeOrder::dfs(&sim.routing);
    let shard_of: Vec<u32> = (0..sim.routing.len() as u32)
        .map(|i| plan.shard_of()[order.external(i).index()])
        .collect();

    let factory = RngFactory::new(sim.seed);
    let n_flows = sim.sources.len();
    let mut probes: Vec<NullProbe> = (0..n_shards).map(|_| NullProbe).collect();
    let mut noop_timers: Vec<NoopPhaseTimer> = (0..n_shards).map(|_| NoopPhaseTimer).collect();

    // Home every flow's cursor on its source's shard; foreign flows get
    // an empty cursor so indexing by flow stays direct.
    let mut shard_cursors: Vec<Vec<FlowCursor>> =
        vec![vec![FlowCursor::default(); n_flows]; n_shards];
    for i in (0..n_flows).rev() {
        let home = plan.shard_of()[sim.sources[i].index()] as usize;
        shard_cursors[home][i] = std::mem::take(&mut cursors[i]);
    }

    let mut states: Vec<Shard<'_>> = probes
        .iter_mut()
        .zip(noop_timers.iter_mut())
        .zip(shard_cursors)
        .enumerate()
        .map(|(idx, ((probe, noop), preassigned))| {
            let mut driver = Driver::new(sim, &order, probe, noop);
            driver.my_shard = idx as u32;
            driver.shard_of = Some(&shard_of);
            driver.victim_rng = factory.substream(streams::VICTIM, idx as u64);
            driver.link_rng = factory.substream(streams::LINK, idx as u64);
            driver.reading_rng = factory.substream(streams::READING, idx as u64);
            driver.preassigned = preassigned;
            let mut engine = Engine::new();
            for (flow, cursor) in driver.preassigned.iter().enumerate() {
                if let Some((at, _)) = cursor.first() {
                    engine
                        .schedule_at(
                            at,
                            Ev::Create {
                                flow: FlowId(flow as u32),
                            },
                        )
                        .expect("creation schedules start at t >= 0");
                }
            }
            Shard {
                idx: idx as u32,
                engine,
                driver,
            }
        })
        .collect();

    let workers = workers.clamp(1, n_shards);
    if workers == 1 {
        run_windows_inline(&mut states, &plan, lookahead, timer);
    } else {
        states = run_windows_threaded(states, &plan, lookahead, workers, timer);
    }

    let mem = tempriv_telemetry::memprof::thread_snapshot().since(mem_base);
    assemble(sim, &plan, truth, presample_draws, states, mem)
}

/// The no-thread runner: shards execute their windows sequentially on
/// the calling thread. Byte-identical to the threaded runner.
fn run_windows_inline<T: PhaseTimer>(
    states: &mut [Shard<'_>],
    plan: &ShardPlan,
    lookahead: SimDuration,
    timer: &mut T,
) {
    let mut scratch: Vec<Handoff> = Vec::new();
    loop {
        timer.switch(Phase::BarrierWait);
        let window = states.iter_mut().filter_map(|s| s.engine.next_time()).min();
        let Some(window) = window else {
            timer.switch(Phase::EngineLoop);
            return;
        };
        let end = window + lookahead;
        timer.switch(Phase::EngineLoop);
        for shard in states.iter_mut() {
            shard.run_window(end);
        }
        timer.switch(Phase::BarrierWait);
        for src in 0..states.len() {
            scratch.append(&mut states[src].driver.outbox);
            for h in scratch.drain(..) {
                let dst = plan.shard_of()[h.node.index()] as usize;
                let Shard { engine, driver, .. } = &mut states[dst];
                driver.accept(engine, &h);
            }
        }
        timer.switch(Phase::EngineLoop);
    }
}

/// The threaded runner: shards are dealt round-robin onto `workers`
/// scoped threads; the calling thread coordinates windows and merges
/// handoffs in source-shard order, so the schedule every engine sees is
/// independent of the worker count.
fn run_windows_threaded<'a, T: PhaseTimer>(
    states: Vec<Shard<'a>>,
    plan: &ShardPlan,
    lookahead: SimDuration,
    workers: usize,
    timer: &mut T,
) -> Vec<Shard<'a>> {
    let mut groups: Vec<Vec<Shard<'a>>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, shard) in states.into_iter().enumerate() {
        groups[i % workers].push(shard);
    }
    // Which worker owns each shard, for routing handoffs.
    let mut worker_of_shard: Vec<usize> = vec![0; plan.shards() as usize];
    for (w, group) in groups.iter().enumerate() {
        for shard in group {
            worker_of_shard[shard.idx as usize] = w;
        }
    }
    let mut next_times: Vec<Option<SimTime>> = groups
        .iter_mut()
        .map(|g| g.iter_mut().filter_map(|s| s.engine.next_time()).min())
        .collect();

    let mut returned = std::thread::scope(|scope| {
        let (resp_tx, resp_rx) = mpsc::channel::<Resp>();
        let mut cmd_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (w, mut group) in groups.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            cmd_txs.push(cmd_tx);
            let resp_tx = resp_tx.clone();
            let shard_of = plan.shard_of();
            handles.push(scope.spawn(move || {
                for cmd in cmd_rx {
                    match cmd {
                        Cmd::Window { end, handoffs } => {
                            for h in &handoffs {
                                let dst = shard_of[h.node.index()];
                                let shard = group
                                    .iter_mut()
                                    .find(|s| s.idx == dst)
                                    .expect("handoffs route to an owned shard");
                                shard.driver.accept(&mut shard.engine, h);
                            }
                            for shard in group.iter_mut() {
                                shard.run_window(end);
                            }
                            let outboxes = group
                                .iter_mut()
                                .map(|s| (s.idx, std::mem::take(&mut s.driver.outbox)))
                                .collect();
                            let next = group.iter_mut().filter_map(|s| s.engine.next_time()).min();
                            resp_tx
                                .send(Resp {
                                    worker: w,
                                    outboxes,
                                    next,
                                })
                                .expect("coordinator outlives workers");
                        }
                        Cmd::Halt => break,
                    }
                }
                group
            }));
        }
        drop(resp_tx);

        // Handoffs awaiting delivery, kept sorted by source shard.
        let mut pending: Vec<Handoff> = Vec::new();
        loop {
            let window = next_times
                .iter()
                .flatten()
                .copied()
                .chain(pending.iter().map(|h| h.at))
                .min();
            let Some(window) = window else { break };
            let end = window + lookahead;
            let mut per_worker: Vec<Vec<Handoff>> = (0..workers).map(|_| Vec::new()).collect();
            for h in pending.drain(..) {
                let dst = plan.shard_of()[h.node.index()] as usize;
                per_worker[worker_of_shard[dst]].push(h);
            }
            for (w, tx) in cmd_txs.iter().enumerate() {
                tx.send(Cmd::Window {
                    end,
                    handoffs: std::mem::take(&mut per_worker[w]),
                })
                .expect("workers outlive the coordinator loop");
            }
            timer.switch(Phase::BarrierWait);
            let mut outboxes: Vec<(u32, Vec<Handoff>)> = Vec::new();
            for _ in 0..workers {
                let resp = resp_rx.recv().expect("every worker answers the window");
                next_times[resp.worker] = resp.next;
                outboxes.extend(resp.outboxes);
            }
            // Merge in source-shard order: this is what makes the event
            // insertion order — and therefore the run — worker-count
            // independent.
            outboxes.sort_by_key(|&(src, _)| src);
            for (_, batch) in outboxes {
                pending.extend(batch);
            }
            timer.switch(Phase::EngineLoop);
        }
        for tx in &cmd_txs {
            tx.send(Cmd::Halt).expect("workers still listening");
        }
        let mut returned: Vec<Shard<'a>> = Vec::new();
        for handle in handles {
            returned.extend(handle.join().expect("worker threads do not panic"));
        }
        returned
    });
    returned.sort_by_key(|s| s.idx);
    returned
}

/// Stitches per-shard state into the one [`SimOutcome`] a serial run
/// would have produced (plus per-shard stats).
fn assemble(
    sim: &NetworkSimulation,
    plan: &ShardPlan,
    truth: Vec<TruthRecord>,
    presample_draws: u64,
    mut states: Vec<Shard<'_>>,
    mem: tempriv_telemetry::memprof::ThreadMemSnapshot,
) -> SimOutcome {
    let n_nodes = sim.routing.len();
    let n_flows = sim.sources.len();
    let shard_of = plan.shard_of();
    let sink_shard = shard_of[sim.routing.sink().index()] as usize;
    let end_time = states
        .iter()
        .map(|s| s.engine.now())
        .max()
        .unwrap_or(SimTime::ZERO);
    let events: u64 = states.iter().map(|s| s.engine.delivered()).sum();
    let peak_fes: u64 = states.iter().map(|s| s.engine.peak_pending() as u64).sum();
    let rng_draws = presample_draws + states.iter().map(|s| s.driver.rng_draws()).sum::<u64>();
    let link_losses = states.iter().map(|s| s.driver.link_losses).sum();
    let shard_stats = states
        .iter()
        .map(|s| ShardStats {
            shard: s.idx,
            nodes: plan.nodes_in(s.idx),
            events: s.engine.delivered(),
            handoffs_out: s.driver.handoffs_out,
            peak_fes: s.engine.peak_pending() as u64,
        })
        .collect();
    let flows = (0..n_flows)
        .map(|i| {
            let home = shard_of[sim.sources[i].index()] as usize;
            let sink = &states[sink_shard].driver;
            FlowOutcome {
                flow: FlowId(i as u32),
                source: sim.sources[i],
                hops: sim.routing.hops(sim.sources[i]).expect("validated"),
                created: u64::from(states[home].driver.seq[i]),
                delivered: sink.delivered[i],
                latency: sink.latency[i],
                latency_histogram: sink.latency_hist[i].clone(),
            }
        })
        .collect();
    let nodes = (0..n_nodes)
        .map(|i| {
            states[shard_of[i] as usize]
                .driver
                .node_report(NodeId(i as u32), end_time)
        })
        .collect();
    let observations = crate::sim_driver::canonicalize(std::mem::take(
        &mut states[sink_shard].driver.observations,
    ));
    SimOutcome {
        end_time,
        flows,
        observations,
        truth,
        nodes,
        link_losses,
        rng_draws,
        events,
        peak_fes,
        allocs: mem.allocs,
        alloc_bytes: mem.bytes,
        shards: shard_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferPolicy, VictimPolicy};
    use crate::delay::DelayPlan;
    use tempriv_net::convergecast::Convergecast;
    use tempriv_net::traffic::TrafficModel;
    use tempriv_telemetry::PhaseProfiler;

    fn figure1(policy: BufferPolicy) -> NetworkSimulation {
        let layout = Convergecast::paper_figure1();
        sim_for(layout, policy)
    }

    /// Four disjoint chains into the sink: four sink-subtrees, so a
    /// multi-shard cut produces genuine cross-shard handoffs.
    fn star(policy: BufferPolicy) -> NetworkSimulation {
        let layout = Convergecast::builder()
            .trunk_hops(0)
            .flows([15, 22, 9, 11])
            .build()
            .unwrap();
        sim_for(layout, policy)
    }

    fn sim_for(layout: Convergecast, policy: BufferPolicy) -> NetworkSimulation {
        NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(200)
            .buffer_policy(policy)
            .seed(2007)
            .build()
            .unwrap()
    }

    #[test]
    fn plan_covers_every_node_and_is_deterministic() {
        let layout = Convergecast::paper_figure1();
        let routing = layout.routing();
        let plan = ShardPlan::cut(routing, 3);
        assert_eq!(plan.shard_of().len(), routing.len());
        assert_eq!(plan.shard_of()[routing.sink().index()], 0);
        assert!(plan.shard_of().iter().all(|&s| s < 3));
        assert_eq!(plan, ShardPlan::cut(routing, 3));
        // Every node's next hop is in the same shard unless it is the
        // sink: the exact plan cuts only trunk edges.
        for i in 0..routing.len() {
            let node = NodeId(i as u32);
            if let Some(next) = routing.next_hop(node) {
                if next != routing.sink() {
                    assert_eq!(
                        plan.shard_of()[i],
                        plan.shard_of()[next.index()],
                        "edge {node}->{next} must not be cut"
                    );
                }
            }
        }
        let total: u64 = (0..3).map(|s| plan.nodes_in(s)).sum();
        assert_eq!(total, routing.len() as u64);
    }

    #[test]
    fn load_carving_balances_a_single_giant_subtree() {
        // A long chain with one source at the tip is the degenerate
        // trunk-cut case (a single sink-subtree). Transit-load carving
        // must split it into pieces with roughly equal transit totals.
        let layout = Convergecast::builder()
            .trunk_hops(0)
            .flows([120])
            .build()
            .unwrap();
        let routing = layout.routing();
        let sources = layout.sources();
        let trunk_only = ShardPlan::cut(routing, 4);
        assert_eq!(trunk_only.nodes_in(0), routing.len() as u64);
        let plan = ShardPlan::cut_balanced(routing, sources, 4);
        assert_eq!(plan, ShardPlan::cut_balanced(routing, sources, 4));
        // Transit load per shard: the single source at the chain tip
        // loads every chain node once.
        let sink = routing.sink().index();
        let mut shard_load = [0u64; 4];
        for i in 0..routing.len() {
            if i != sink {
                shard_load[plan.shard_of()[i] as usize] += 1;
            }
        }
        let max = *shard_load.iter().max().unwrap();
        let min = *shard_load.iter().min().unwrap();
        assert!(min > 0, "every shard carries load: {shard_load:?}");
        assert!(
            max <= 2 * min.max(1),
            "loads stay within 2x of each other: {shard_load:?}"
        );
    }

    #[test]
    fn one_shard_reproduces_the_serial_run_exactly() {
        let sim = figure1(BufferPolicy::paper_rcad());
        let serial = sim.run();
        let sharded = sim.run_sharded(1, 1);
        assert_eq!(serial, sharded);
        assert_eq!(serial.digest(), sharded.digest());
        assert_eq!(sharded.shards.len(), 1);
        assert_eq!(sharded.shards[0].events, sharded.events);
        assert_eq!(sharded.shards[0].handoffs_out, 0);
    }

    #[test]
    fn single_subtree_layouts_collapse_onto_one_shard() {
        // Figure 1 shares one trunk into the sink, so under the exact
        // cut every node lands on shard 0 and a multi-shard run
        // degenerates to serial with zero handoffs.
        let sim = figure1(BufferPolicy::paper_rcad());
        let serial = sim.run();
        let sharded = sim.run_sharded(4, 2);
        assert_eq!(serial.digest(), sharded.digest());
        assert_eq!(serial.events, sharded.events);
        assert!(sharded.shards.iter().all(|s| s.handoffs_out == 0));
        assert_eq!(sharded.shards[0].events, sharded.events);
    }

    #[test]
    fn balanced_cut_spreads_a_shared_trunk_and_stays_worker_invariant() {
        // The balanced cut carves the Figure-1 trunk across shards:
        // real handoffs flow, every worker count reproduces the same
        // outcome bit-for-bit, and the packet population is conserved.
        // (Serial bit-equality is intentionally NOT asserted — interior
        // handoffs resolve same-instant ties by insertion order.)
        let sim = figure1(BufferPolicy::paper_rcad());
        let serial = sim.run();
        let reference = sim.run_sharded_balanced(4, 1);
        assert!(reference.shards.iter().any(|s| s.handoffs_out > 0));
        assert!(reference.shards.iter().filter(|s| s.events > 0).count() > 1);
        let created: u64 = serial.flows.iter().map(|f| f.created).sum();
        for out in [&serial, &reference] {
            assert_eq!(
                out.total_delivered() + out.total_drops() + out.total_stranded(),
                created,
                "delivered + dropped + stranded = created"
            );
        }
        assert_eq!(serial.events, reference.events);
        assert_eq!(serial.rng_draws, reference.rng_draws);
        for workers in [2, 4] {
            let run = sim.run_sharded_balanced(4, workers);
            assert_eq!(reference, run, "workers={workers}");
            assert_eq!(reference.digest(), run.digest(), "workers={workers}");
        }
    }

    #[test]
    fn multi_shard_reproduces_serial_digests_for_paper_configs() {
        for policy in [
            BufferPolicy::Unlimited,
            BufferPolicy::paper_rcad(),
            BufferPolicy::ThresholdMix { threshold: 8 },
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::Oldest,
            },
        ] {
            let sim = star(policy);
            let serial = sim.run();
            let sharded = sim.run_sharded(4, 1);
            assert_eq!(
                serial.digest(),
                sharded.digest(),
                "policy {policy:?} must digest identically"
            );
            assert_eq!(serial.events, sharded.events, "policy {policy:?}");
            assert_eq!(serial.rng_draws, sharded.rng_draws, "policy {policy:?}");
            assert_eq!(serial.observations, sharded.observations);
            assert_eq!(serial.truth, sharded.truth);
            assert_eq!(serial.nodes, sharded.nodes);
            assert!(sharded.shards.iter().any(|s| s.handoffs_out > 0));
        }
    }

    #[test]
    fn worker_count_never_changes_the_outcome() {
        let sim = star(BufferPolicy::paper_rcad());
        let one = sim.run_sharded(4, 1);
        for workers in [2, 3, 4, 8] {
            let many = sim.run_sharded(4, workers);
            assert_eq!(one, many, "workers={workers}");
            assert_eq!(one.shards, many.shards, "workers={workers}");
        }
    }

    #[test]
    fn no_delay_plans_shard_too() {
        let sim = {
            let layout = Convergecast::paper_figure1();
            NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
                .traffic(TrafficModel::periodic(2.0))
                .packets_per_source(100)
                .delay_plan(DelayPlan::no_delay())
                .buffer_policy(BufferPolicy::Unlimited)
                .build()
                .unwrap()
        };
        let serial = sim.run();
        let sharded = sim.run_sharded(3, 2);
        assert_eq!(serial.digest(), sharded.digest());
        assert_eq!(serial.events, sharded.events);
    }

    #[test]
    fn profiled_sharded_runs_attribute_barrier_wait() {
        let sim = figure1(BufferPolicy::paper_rcad());
        let plain = sim.run_sharded(2, 1);
        let mut profiler = PhaseProfiler::with_batch(8);
        let profiled = sim.run_sharded_profiled(2, 1, &mut profiler);
        assert_eq!(plain, profiled, "the timer must not perturb the run");
        let breakdown = profiler.finish();
        let barrier = breakdown
            .phases
            .iter()
            .find(|p| p.phase == "barrier_wait")
            .expect("barrier_wait phase is reported");
        assert!(barrier.count > 0, "the barrier phase must have fired");
    }
}
