//! The event-driven network simulation (paper §5).
//!
//! Wires the substrates together: sources create packets on a traffic
//! schedule; every packet is buffered for a random delay at each node on
//! its route (source and forwarders — the sink does not delay), crosses
//! each link in τ time units, and is observed by the adversary tap when it
//! reaches the sink. Finite buffers apply their [`BufferPolicy`]: drops
//! for drop-tail, victim preemption for RCAD.
//!
//! Runs are deterministic: a given [`NetworkSimulation`] and seed always
//! produce the identical [`SimOutcome`].

use tempriv_net::ids::{FlowId, NodeId, PacketId};
use tempriv_net::link::LinkModel;
use tempriv_net::routing::RoutingTree;
use tempriv_net::traffic::{TrafficModel, TrafficSampler};
use tempriv_sim::engine::{Engine, Scheduler};
use tempriv_sim::profile::{NoopPhaseTimer, Phase, PhaseTimer};
use tempriv_sim::rng::{RngFactory, SimRng};
use tempriv_sim::stats::{pmf_mean, Histogram, OnlineStats, StateDwell};
use tempriv_sim::time::SimTime;
use tempriv_telemetry::{NullProbe, PacketEvent, PacketEventKind, SimProbe};

use crate::adversary::{AdversaryKnowledge, Observation};
use crate::buffer::BufferPolicy;
use crate::delay::{DelayPlan, DelayStrategy};
use crate::metrics::{FlowOutcome, NodeReport, SimOutcome, TruthRecord};
use crate::store::{PacketStore, StoreBuffer};

/// RNG stream namespaces (one per stochastic component class).
///
/// `DELAY` and `TRAFFIC` substreams are indexed per node / per flow;
/// `VICTIM`, `LINK`, and `READING` are indexed per *shard* — the serial
/// engine is the one-shard special case drawing from substream index 0,
/// so serial digests are unchanged by the sharded runner's existence.
pub(crate) mod streams {
    pub const DELAY: u64 = 1;
    pub const TRAFFIC: u64 = 2;
    pub const VICTIM: u64 = 3;
    pub const LINK: u64 = 4;
    pub const READING: u64 = 5;
}

/// How sources create packets: a stochastic model shared by every flow,
/// or explicit per-flow creation schedules (trace-driven workloads, e.g.
/// detections produced by [`tempriv_net::mobility`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Every flow samples inter-arrival gaps from the same model and
    /// creates `packets_per_source` packets.
    Model(TrafficModel),
    /// Flow `i` creates one packet at each instant of `schedules[i]`
    /// (`packets_per_source` is ignored).
    Schedules(Vec<Vec<SimTime>>),
}

/// A fully specified simulation: topology, workload, and privacy
/// mechanism. Construct it, then call [`NetworkSimulation::run`].
///
/// # Examples
///
/// ```
/// use tempriv_core::buffer::BufferPolicy;
/// use tempriv_core::delay::DelayPlan;
/// use tempriv_core::sim_driver::NetworkSimulation;
/// use tempriv_net::convergecast::Convergecast;
/// use tempriv_net::traffic::{TrafficModel, TrafficSampler};
///
/// let layout = Convergecast::paper_figure1();
/// let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
///     .traffic(TrafficModel::periodic(2.0))
///     .packets_per_source(50)
///     .delay_plan(DelayPlan::shared_exponential(30.0))
///     .buffer_policy(BufferPolicy::paper_rcad())
///     .seed(1)
///     .build()
///     .unwrap();
/// let outcome = sim.run();
/// assert_eq!(outcome.total_delivered(), 200); // RCAD never drops
/// ```
#[derive(Debug, Clone)]
pub struct NetworkSimulation {
    pub(crate) routing: RoutingTree,
    pub(crate) sources: Vec<NodeId>,
    pub(crate) workload: Workload,
    pub(crate) packets_per_source: u32,
    pub(crate) delay_plan: DelayPlan,
    pub(crate) buffer_policy: BufferPolicy,
    pub(crate) link: LinkModel,
    pub(crate) seed: u64,
    pub(crate) latency_range: (f64, f64),
}

/// Builder for [`NetworkSimulation`].
#[derive(Debug, Clone)]
pub struct NetworkSimulationBuilder {
    routing: RoutingTree,
    sources: Vec<NodeId>,
    workload: Workload,
    packets_per_source: u32,
    delay_plan: DelayPlan,
    buffer_policy: BufferPolicy,
    link: LinkModel,
    seed: u64,
    latency_range: (f64, f64),
}

impl NetworkSimulationBuilder {
    /// Sets the per-source traffic model (default: periodic, interval 2 —
    /// the paper's fastest rate).
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficModel) -> Self {
        self.workload = Workload::Model(traffic);
        self
    }

    /// Replaces the stochastic workload with explicit per-flow creation
    /// schedules (one `Vec<SimTime>` per flow, in flow order).
    #[must_use]
    pub fn schedules(mut self, schedules: Vec<Vec<SimTime>>) -> Self {
        self.workload = Workload::Schedules(schedules);
        self
    }

    /// Sets how many packets each source creates (default 1000, as in the
    /// paper).
    #[must_use]
    pub fn packets_per_source(mut self, n: u32) -> Self {
        self.packets_per_source = n;
        self
    }

    /// Sets the delay plan (default: shared exponential, mean 30).
    #[must_use]
    pub fn delay_plan(mut self, plan: DelayPlan) -> Self {
        self.delay_plan = plan;
        self
    }

    /// Sets the buffer policy (default: RCAD with 10 slots).
    #[must_use]
    pub fn buffer_policy(mut self, policy: BufferPolicy) -> Self {
        self.buffer_policy = policy;
        self
    }

    /// Sets the link model (default: lossless, τ = 1).
    #[must_use]
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Sets the master RNG seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency-histogram range (default `[0, 2000)` time units;
    /// out-of-range latencies land in overflow and still count toward
    /// the mean, only quantiles saturate).
    ///
    /// # Panics
    ///
    /// Panics (at build) if `lo >= hi`.
    #[must_use]
    pub fn latency_range(mut self, lo: f64, hi: f64) -> Self {
        self.latency_range = (lo, hi);
        self
    }

    /// Validates and builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if a source is unknown or is the sink, no
    /// sources were given, the buffer policy is invalid, or the packet
    /// budget is zero.
    pub fn build(self) -> Result<NetworkSimulation, BuildError> {
        if self.sources.is_empty() {
            return Err(BuildError::NoSources);
        }
        for (i, &src) in self.sources.iter().enumerate() {
            if src.index() >= self.routing.len() {
                return Err(BuildError::UnknownSource {
                    flow: FlowId(i as u32),
                    source: src,
                });
            }
            if src == self.routing.sink() {
                return Err(BuildError::SourceIsSink { source: src });
            }
        }
        if let Err(reason) = self.buffer_policy.validate() {
            return Err(BuildError::InvalidBuffer { reason });
        }
        match &self.workload {
            Workload::Model(_) => {
                if self.packets_per_source == 0 {
                    return Err(BuildError::NoPackets);
                }
            }
            Workload::Schedules(schedules) => {
                if schedules.len() != self.sources.len() {
                    return Err(BuildError::ScheduleMismatch {
                        flows: self.sources.len(),
                        schedules: schedules.len(),
                    });
                }
                if schedules.iter().all(Vec::is_empty) {
                    return Err(BuildError::NoPackets);
                }
            }
        }
        let range_valid = self.latency_range.0.is_finite()
            && self.latency_range.1.is_finite()
            && self.latency_range.0 < self.latency_range.1;
        if !range_valid {
            return Err(BuildError::InvalidBuffer {
                reason: format!(
                    "latency histogram range [{}, {}) is empty",
                    self.latency_range.0, self.latency_range.1
                ),
            });
        }
        Ok(NetworkSimulation {
            routing: self.routing,
            sources: self.sources,
            workload: self.workload,
            packets_per_source: self.packets_per_source,
            delay_plan: self.delay_plan,
            buffer_policy: self.buffer_policy,
            link: self.link,
            seed: self.seed,
            latency_range: self.latency_range,
        })
    }
}

/// Errors from [`NetworkSimulationBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// No traffic sources were configured.
    NoSources,
    /// A source node is not part of the routing tree.
    UnknownSource {
        /// The flow whose source is unknown.
        flow: FlowId,
        /// The offending node id.
        source: NodeId,
    },
    /// A source coincides with the sink.
    SourceIsSink {
        /// The offending node id.
        source: NodeId,
    },
    /// The buffer policy failed validation.
    InvalidBuffer {
        /// Why.
        reason: String,
    },
    /// `packets_per_source` was zero (or every schedule was empty).
    NoPackets,
    /// Explicit schedules did not line up with the flow list.
    ScheduleMismatch {
        /// Number of flows configured.
        flows: usize,
        /// Number of schedules provided.
        schedules: usize,
    },
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::NoSources => write!(f, "at least one source is required"),
            BuildError::UnknownSource { flow, source } => {
                write!(f, "flow {flow} source {source} is not in the routing tree")
            }
            BuildError::SourceIsSink { source } => {
                write!(f, "source {source} is the sink")
            }
            BuildError::InvalidBuffer { reason } => write!(f, "invalid buffer policy: {reason}"),
            BuildError::NoPackets => write!(f, "packets_per_source must be positive"),
            BuildError::ScheduleMismatch { flows, schedules } => write!(
                f,
                "got {schedules} creation schedule(s) for {flows} flow(s)"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Engine events. `node` is an internal index ([`NodeOrder`]), never an
/// external [`NodeId`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A source creates its next packet.
    Create { flow: FlowId },
    /// A packet finishes crossing a link into `node`. The payload is a
    /// [`PacketStore`] slot — 4 bytes through the queue instead of a
    /// by-value packet.
    Arrive { node: u32, slot: u32 },
    /// A buffered packet's delay timer fires at `node`.
    Release { node: u32, slot: u32 },
}

/// The driver's internal node numbering: the DFS preorder of the routing
/// tree from the sink, children visited in ascending [`NodeId`] order.
///
/// Every per-node `Vec` of a [`Driver`] is indexed by this internal id.
/// A packet's route then walks a node's ancestors, which preorder keeps
/// near each other in memory, instead of jumping across a field numbered
/// in random spatial order (the geometric sampler's). External ids stay
/// wherever they can be observed: packet origins, probe arguments, the
/// `DELAY` substream index, `NodeReport`s, shard plans, and handoffs.
#[derive(Debug)]
pub(crate) struct NodeOrder {
    /// Internal id → external id.
    ext: Vec<NodeId>,
    /// External id → internal id.
    int: Vec<u32>,
    /// Internal id → the internal id of its next hop (the sink maps to
    /// itself).
    next: Vec<u32>,
}

impl NodeOrder {
    /// Numbers `routing`'s nodes in DFS preorder from the sink, walking a
    /// CSR child list (one offsets array, one flat children array).
    pub(crate) fn dfs(routing: &RoutingTree) -> NodeOrder {
        let n = routing.len();
        let parent = |e: usize| routing.next_hop(NodeId(e as u32)).map(NodeId::index);
        // Children of `p` are `children[offsets[p]..offsets[p + 1]]`,
        // in ascending id order.
        let mut offsets = vec![0u32; n + 1];
        for e in 0..n {
            if let Some(p) = parent(e) {
                offsets[p + 1] += 1;
            }
        }
        for p in 0..n {
            offsets[p + 1] += offsets[p];
        }
        // `int` doubles as the fill cursor until the preorder is known.
        let mut int: Vec<u32> = offsets[..n].to_vec();
        let mut children = vec![0u32; offsets[n] as usize];
        for e in 0..n {
            if let Some(p) = parent(e) {
                children[int[p] as usize] = e as u32;
                int[p] += 1;
            }
        }
        let mut ext: Vec<NodeId> = Vec::with_capacity(n);
        let mut stack = vec![routing.sink().0];
        while let Some(u) = stack.pop() {
            ext.push(NodeId(u));
            let u = u as usize;
            let kids = &children[offsets[u] as usize..offsets[u + 1] as usize];
            stack.extend(kids.iter().rev());
        }
        debug_assert_eq!(ext.len(), n, "every node reaches the sink");
        for (i, e) in ext.iter().enumerate() {
            int[e.index()] = i as u32;
        }
        let next = ext
            .iter()
            .enumerate()
            .map(|(i, &e)| routing.next_hop(e).map_or(i as u32, |p| int[p.index()]))
            .collect();
        NodeOrder { ext, int, next }
    }

    /// The internal id of external node `node`.
    #[inline]
    pub(crate) fn internal(&self, node: NodeId) -> u32 {
        self.int[node.index()]
    }

    /// The external id of internal node `i`.
    #[inline]
    pub(crate) fn external(&self, i: u32) -> NodeId {
        self.ext[i as usize]
    }
}

impl NetworkSimulation {
    /// Starts a builder for the given routing tree and per-flow sources.
    #[must_use]
    pub fn builder(routing: RoutingTree, sources: Vec<NodeId>) -> NetworkSimulationBuilder {
        NetworkSimulationBuilder {
            routing,
            sources,
            workload: Workload::Model(TrafficModel::periodic(2.0)),
            packets_per_source: 1000,
            delay_plan: DelayPlan::shared_exponential(30.0),
            buffer_policy: BufferPolicy::paper_rcad(),
            link: LinkModel::paper_default(),
            seed: 0,
            latency_range: (0.0, 2_000.0),
        }
    }

    /// The routing tree.
    #[must_use]
    pub const fn routing(&self) -> &RoutingTree {
        &self.routing
    }

    /// Source node per flow.
    #[must_use]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The configured delay plan.
    #[must_use]
    pub const fn delay_plan(&self) -> &DelayPlan {
        &self.delay_plan
    }

    /// The configured buffer policy.
    #[must_use]
    pub const fn buffer_policy(&self) -> BufferPolicy {
        self.buffer_policy
    }

    /// What a deployment-aware adversary knows about this network
    /// (Kerckhoff's principle, §2): hop counts, τ, the advertised delay
    /// mean, and buffer sizes. For per-node delay plans the advertised
    /// mean is the average over each flow's path, matching an adversary
    /// that integrates the advertised per-node distributions.
    #[must_use]
    pub fn adversary_knowledge(&self) -> AdversaryKnowledge {
        let flow_hops: Vec<u32> = self
            .sources
            .iter()
            .map(|&s| self.routing.hops(s).expect("validated source"))
            .collect();
        // Mean per-hop delay as the adversary computes it: path average.
        let delay_mean = match &self.delay_plan {
            DelayPlan::Shared(s) => s.mean(),
            DelayPlan::PerNode { .. } => {
                let mut total = 0.0;
                let mut hops = 0u32;
                for &src in &self.sources {
                    let path = self.routing.path(src);
                    // Delaying nodes: all but the sink.
                    for &node in &path[..path.len() - 1] {
                        total += self.delay_plan.for_node(node).mean();
                        hops += 1;
                    }
                }
                if hops == 0 {
                    0.0
                } else {
                    total / f64::from(hops)
                }
            }
        };
        let flow_paths: Vec<Vec<NodeId>> = self
            .sources
            .iter()
            .map(|&src| {
                let mut path = self.routing.path(src);
                path.pop(); // the sink does not delay
                path
            })
            .collect();
        let path_delay_means: Vec<f64> = flow_paths
            .iter()
            .map(|path| self.delay_plan.path_mean_delay(path.iter()))
            .collect();
        AdversaryKnowledge {
            tau: self.link.mean_delay(),
            delay_mean,
            buffer_slots: self.buffer_policy.capacity(),
            flow_hops,
            converging_flows: (0..self.sources.len() as u32).map(FlowId).collect(),
            flow_paths,
            path_delay_means,
        }
    }

    /// The configured workload.
    #[must_use]
    pub const fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Runs the simulation to completion (all packets created and either
    /// delivered, dropped, or lost) and returns the outcome.
    #[must_use]
    pub fn run(&self) -> SimOutcome {
        self.run_probed(&mut NullProbe)
    }

    /// Runs the simulation on the sharded conservative-parallel engine
    /// and returns the outcome.
    ///
    /// The convergecast tree is cut into `shards` partitions at trunk
    /// edges ([`crate::sharded::ShardPlan`]); each shard simulates its
    /// subtrees on a private event queue and store, exchanging packets at
    /// conservative time-window barriers (lookahead = the link delay τ).
    /// `workers` is the number of OS threads driving the shards; the
    /// outcome is byte-identical for every worker count, including 1
    /// (which runs the shards inline with no threads at all).
    ///
    /// Shard-indexed RNG streams make `shards` itself part of the random
    /// configuration: `run_sharded(1, _)` reproduces [`run`] exactly, and
    /// higher shard counts reproduce it whenever no stochastic component
    /// draws from a shared global stream (lossless links, deterministic
    /// victim policies — e.g. the paper's configurations).
    ///
    /// # Panics
    ///
    /// Panics if the link's constant delay is zero (no conservative
    /// lookahead exists) or `shards == 0`.
    ///
    /// [`run`]: NetworkSimulation::run
    #[must_use]
    pub fn run_sharded(&self, shards: u32, workers: usize) -> SimOutcome {
        crate::sharded::run_sharded(
            self,
            shards,
            workers,
            crate::sharded::CutStrategy::Exact,
            &mut NoopPhaseTimer,
        )
    }

    /// [`run_sharded`](NetworkSimulation::run_sharded) with the
    /// load-balanced cut ([`crate::sharded::ShardPlan::cut_balanced`]):
    /// subtrees are carved by transit load, so a single giant
    /// sink-subtree (a corner-sink geometric field, the Figure-1 shared
    /// trunk) spreads across every shard instead of collapsing onto one.
    ///
    /// The price is bit-exactness against [`run`]: handoffs can target
    /// interior buffering nodes, where same-instant arrival ties resolve
    /// by queue insertion order the barrier merge cannot replicate.
    /// Worker-count invariance and packet conservation still hold
    /// unconditionally; use this mode for throughput at scale, the exact
    /// cut when cross-checking digests against the serial engine.
    ///
    /// # Panics
    ///
    /// Panics if the link's constant delay is zero or `shards == 0`.
    ///
    /// [`run`]: NetworkSimulation::run
    #[must_use]
    pub fn run_sharded_balanced(&self, shards: u32, workers: usize) -> SimOutcome {
        crate::sharded::run_sharded(
            self,
            shards,
            workers,
            crate::sharded::CutStrategy::Balanced,
            &mut NoopPhaseTimer,
        )
    }

    /// [`run_sharded`](NetworkSimulation::run_sharded) with a coordinator
    /// phase timer attached: wall-time at the window barrier (waiting for
    /// shards and merging handoffs) is attributed to
    /// [`Phase::BarrierWait`], shard execution to [`Phase::EngineLoop`].
    /// Per-event phases inside shards are not attributed — shard drivers
    /// run with [`NoopPhaseTimer`], so the timer never perturbs the run.
    #[must_use]
    pub fn run_sharded_profiled<T: PhaseTimer>(
        &self,
        shards: u32,
        workers: usize,
        timer: &mut T,
    ) -> SimOutcome {
        crate::sharded::run_sharded(
            self,
            shards,
            workers,
            crate::sharded::CutStrategy::Exact,
            timer,
        )
    }

    /// Runs the simulation with a telemetry probe attached.
    ///
    /// The probe observes event boundaries (occupancy transitions,
    /// preemptions, drops, flushes, deliveries) but cannot perturb the
    /// run: probes receive no access to the scheduler or RNGs, so
    /// `run_probed` produces exactly the [`SimOutcome`] that
    /// [`NetworkSimulation::run`] does. The method is generic so the
    /// [`NullProbe`] path monomorphizes to straight-line code with no
    /// probe overhead.
    #[must_use]
    pub fn run_probed<P: SimProbe>(&self, probe: &mut P) -> SimOutcome {
        self.run_profiled(probe, &mut NoopPhaseTimer)
    }

    /// Runs the simulation with a telemetry probe *and* a phase timer.
    ///
    /// The timer is the engine self-profiler hook: the driver calls
    /// [`PhaseTimer::switch`] at phase boundaries (event dispatch per
    /// event kind, future-event scheduling, RCAD victim selection, probe
    /// clusters) and the timer attributes wall-time between switches to
    /// phases. Like probes, timers observe and never act: they see no
    /// scheduler and no RNGs, so the [`SimOutcome`] is byte-identical
    /// with any timer attached. [`NoopPhaseTimer`] monomorphizes every
    /// switch to nothing, keeping the `run`/`run_probed` hot path free
    /// of profiling overhead.
    #[must_use]
    pub fn run_profiled<P: SimProbe, T: PhaseTimer>(
        &self,
        probe: &mut P,
        timer: &mut T,
    ) -> SimOutcome {
        let n_nodes = self.routing.len();
        let n_flows = self.sources.len();
        // Allocation gauge: everything the driver thread allocates
        // between here and outcome assembly is this run's footprint.
        // Reads zero unless a counting allocator is installed + enabled.
        let mem_base = tempriv_telemetry::memprof::thread_snapshot();

        let order = NodeOrder::dfs(&self.routing);
        let mut driver = Driver::new(self, &order, probe, timer);
        driver
            .truth
            .reserve(n_flows * self.packets_per_source as usize);

        let mut engine: Engine<Ev> = Engine::new();
        match &self.workload {
            Workload::Model(_) => {
                for i in 0..self.sources.len() {
                    let flow = FlowId(i as u32);
                    let first = SimTime::ZERO
                        + driver.traffic_samplers[i].next_interarrival(&mut driver.traffic_rngs[i]);
                    engine
                        .schedule_at(first, Ev::Create { flow })
                        .expect("initial schedule at t >= 0");
                }
            }
            Workload::Schedules(schedules) => {
                for (i, schedule) in schedules.iter().enumerate() {
                    let flow = FlowId(i as u32);
                    for &at in schedule {
                        engine
                            .schedule_at(at, Ev::Create { flow })
                            .expect("initial schedule at t >= 0");
                    }
                }
            }
        }
        engine.run(|sched, ev| driver.handle(sched, ev));
        let end_time = engine.now();
        let events = engine.delivered();
        let peak_fes = engine.peak_pending() as u64;
        let queue_footprint = engine.queue_footprint() as u64;
        let queue_compactions = engine.queue_compactions();

        for (e, &i) in order.int.iter().enumerate() {
            let high_water = driver.buffers[i as usize].high_water() as u64;
            driver.probe.on_high_water(e, high_water);
        }
        driver.probe.on_engine_stats(events, peak_fes);
        driver
            .probe
            .on_queue_stats(queue_footprint, queue_compactions);
        driver.probe.on_run_end(end_time);

        let rng_draws = driver.rng_draws();

        let mem = tempriv_telemetry::memprof::thread_snapshot().since(mem_base);

        let nodes = (0..n_nodes)
            .map(|e| driver.node_report(NodeId(e as u32), end_time))
            .collect();

        SimOutcome {
            end_time,
            flows: (0..n_flows)
                .map(|i| FlowOutcome {
                    flow: FlowId(i as u32),
                    source: self.sources[i],
                    hops: self.routing.hops(self.sources[i]).expect("validated"),
                    created: u64::from(driver.seq[i]),
                    delivered: driver.delivered[i],
                    latency: driver.latency[i],
                    latency_histogram: driver.latency_hist[i].clone(),
                })
                .collect(),
            observations: canonicalize(driver.observations),
            truth: driver.truth,
            nodes,
            link_losses: driver.link_losses,
            rng_draws,
            events,
            peak_fes,
            allocs: mem.allocs,
            alloc_bytes: mem.bytes,
            shards: Vec::new(),
        }
    }
}

/// Orders sink observations canonically: by arrival instant, then flow,
/// then packet id. Arrivals on the same quantized tick have no
/// physically observable order (RCAD preemption cascades make such ties
/// common), so both the serial and the sharded runner normalize tie
/// order the same way and their observation logs — and therefore
/// outcome digests — stay comparable.
pub(crate) fn canonicalize(mut observations: Vec<Observation>) -> Vec<Observation> {
    observations.sort_unstable_by_key(|o| (o.arrival, o.flow.0, o.packet.0));
    observations
}

/// Per-run simulation state. Every per-node `Vec` is indexed by the
/// internal id of [`NodeOrder`].
pub(crate) struct Driver<'a, P: SimProbe, T: PhaseTimer> {
    pub(crate) sim: &'a NetworkSimulation,
    pub(crate) order: &'a NodeOrder,
    pub(crate) probe: &'a mut P,
    pub(crate) timer: &'a mut T,
    /// Cached per-run invariants, hoisted out of the per-event path.
    pub(crate) sink: u32,
    pub(crate) capacity: Option<usize>,
    pub(crate) strategies: Vec<DelayStrategy>,
    /// Reused flush buffer so threshold-mix batches allocate once per run.
    pub(crate) mix_scratch: Vec<u32>,
    /// The struct-of-arrays data plane every in-flight packet lives in.
    pub(crate) store: PacketStore,
    pub(crate) buffers: Vec<StoreBuffer>,
    pub(crate) occupancy: Vec<StateDwell>,
    pub(crate) preemptions: Vec<u64>,
    pub(crate) drops: Vec<u64>,
    pub(crate) flushes: Vec<u64>,
    pub(crate) tx_count: Vec<u64>,
    pub(crate) rx_count: Vec<u64>,
    pub(crate) link_losses: u64,
    pub(crate) next_packet_id: u64,
    pub(crate) seq: Vec<u32>,
    pub(crate) truth: Vec<TruthRecord>,
    pub(crate) observations: Vec<Observation>,
    pub(crate) latency: Vec<OnlineStats>,
    pub(crate) latency_hist: Vec<Histogram>,
    pub(crate) delivered: Vec<u64>,
    pub(crate) delay_rngs: Vec<SimRng>,
    pub(crate) traffic_rngs: Vec<SimRng>,
    pub(crate) traffic_samplers: Vec<TrafficSampler>,
    pub(crate) victim_rng: SimRng,
    pub(crate) link_rng: SimRng,
    pub(crate) reading_rng: SimRng,
    /// Sharded mode only: packet ids and creation instants preassigned by
    /// the global presampling pass, one cursor per flow. Empty in serial
    /// runs — `on_create` then assigns ids in event order and samples the
    /// traffic model lazily, exactly as before the sharded runner existed.
    pub(crate) preassigned: Vec<crate::sharded::FlowCursor>,
    /// Sharded mode only: the shard each node belongs to, by internal
    /// id. `None` keeps every forward local (serial).
    pub(crate) shard_of: Option<&'a [u32]>,
    pub(crate) my_shard: u32,
    /// Cross-shard arrivals emitted this window, in emission order.
    pub(crate) outbox: Vec<crate::sharded::Handoff>,
    /// Lifetime count of cross-shard handoffs this shard emitted.
    pub(crate) handoffs_out: u64,
}

impl<'a, P: SimProbe, T: PhaseTimer> Driver<'a, P, T> {
    /// Serial driver state for one simulation run. The sharded runner
    /// builds one per shard and then re-points the shard-indexed RNG
    /// streams and creation cursors before seeding its engine.
    pub(crate) fn new(
        sim: &'a NetworkSimulation,
        order: &'a NodeOrder,
        probe: &'a mut P,
        timer: &'a mut T,
    ) -> Self {
        let n_nodes = sim.routing.len();
        let n_flows = sim.sources.len();
        let factory = RngFactory::new(sim.seed);
        Driver {
            sim,
            order,
            probe,
            timer,
            sink: order.internal(sim.routing.sink()),
            capacity: sim.buffer_policy.capacity(),
            strategies: order
                .ext
                .iter()
                .map(|&e| sim.delay_plan.for_node(e))
                .collect(),
            mix_scratch: Vec::new(),
            store: PacketStore::new(),
            buffers: vec![StoreBuffer::new(); n_nodes],
            occupancy: (0..n_nodes)
                .map(|_| StateDwell::new(SimTime::ZERO, 0))
                .collect(),
            preemptions: vec![0; n_nodes],
            drops: vec![0; n_nodes],
            flushes: vec![0; n_nodes],
            tx_count: vec![0; n_nodes],
            rx_count: vec![0; n_nodes],
            link_losses: 0,
            next_packet_id: 0,
            seq: vec![0; n_flows],
            truth: Vec::new(),
            observations: Vec::new(),
            latency: vec![OnlineStats::new(); n_flows],
            latency_hist: (0..n_flows)
                .map(|_| Histogram::new(sim.latency_range.0, sim.latency_range.1, 400))
                .collect(),
            delivered: vec![0; n_flows],
            delay_rngs: order
                .ext
                .iter()
                .map(|e| factory.substream(streams::DELAY, u64::from(e.0)))
                .collect(),
            traffic_rngs: (0..n_flows)
                .map(|i| factory.substream(streams::TRAFFIC, i as u64))
                .collect(),
            traffic_samplers: match &sim.workload {
                Workload::Model(traffic) => vec![traffic.sampler(); n_flows],
                Workload::Schedules(_) => Vec::new(),
            },
            victim_rng: factory.substream(streams::VICTIM, 0),
            link_rng: factory.substream(streams::LINK, 0),
            reading_rng: factory.substream(streams::READING, 0),
            preassigned: Vec::new(),
            shard_of: None,
            my_shard: 0,
            outbox: Vec::new(),
            handoffs_out: 0,
        }
    }

    /// Total RNG draws across every stream this driver owns.
    pub(crate) fn rng_draws(&self) -> u64 {
        self.delay_rngs.iter().map(SimRng::draws).sum::<u64>()
            + self.traffic_rngs.iter().map(SimRng::draws).sum::<u64>()
            + self.victim_rng.draws()
            + self.link_rng.draws()
            + self.reading_rng.draws()
    }

    /// Accepts a cross-shard handoff: materializes the packet in this
    /// shard's store and schedules its arrival. Called between windows,
    /// never while the engine is running.
    pub(crate) fn accept(&mut self, engine: &mut Engine<Ev>, h: &crate::sharded::Handoff) {
        // The reading rides only for privacy sealing at creation; it is
        // unobservable downstream, so handoffs do not ship it.
        let slot = self.store.alloc(h.pid, h.flow, h.origin, h.created_at, 0.0);
        self.store.set_hop_count(slot, h.hop_count);
        let node = self.order.internal(h.node);
        self.rx_count[node as usize] += 1;
        engine
            .schedule_at(h.at, Ev::Arrive { node, slot })
            .expect("handoffs arrive at or after the window barrier");
    }

    /// The run-end report for external node `node`, its occupancy PMF
    /// built once for both the PMF and the mean.
    pub(crate) fn node_report(&self, node: NodeId, end_time: SimTime) -> NodeReport {
        let i = self.order.internal(node) as usize;
        let occupancy_pmf = self.occupancy[i].pmf(end_time);
        NodeReport {
            node,
            mean_occupancy: pmf_mean(&occupancy_pmf),
            peak_occupancy: occupancy_pmf.iter().map(|&(k, _)| k).max().unwrap_or(0),
            occupancy_pmf,
            preemptions: self.preemptions[i],
            drops: self.drops[i],
            flushes: self.flushes[i],
            stranded: self.buffers[i].len() as u64,
            transmissions: self.tx_count[i],
            receptions: self.rx_count[i],
        }
    }

    #[inline]
    pub(crate) fn handle(&mut self, sched: &mut Scheduler<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Create { flow } => {
                self.timer.switch(Phase::Create);
                self.on_create(sched, flow);
            }
            Ev::Arrive { node, slot } => {
                self.timer.switch(Phase::Arrive);
                self.process_at(sched, node, slot);
            }
            Ev::Release { node, slot } => {
                self.timer.switch(Phase::Release);
                self.on_release(sched, node, slot);
            }
        }
        // Time between here and the next dispatch is the engine's own
        // pop/peek/heap work.
        self.timer.switch(Phase::EngineLoop);
    }

    fn on_create(&mut self, sched: &mut Scheduler<'_, Ev>, flow: FlowId) {
        let i = flow.index();
        let source = self.sim.sources[i];
        self.seq[i] += 1;
        let id = if self.preassigned.is_empty() {
            // Serial: ids follow global event order; the next creation is
            // sampled lazily from the flow's traffic stream. Truth is
            // recorded as it happens.
            let id = PacketId(self.next_packet_id);
            self.next_packet_id += 1;
            id
        } else {
            // Sharded: the presampling pass fixed every creation instant
            // and packet id up front (and recorded truth globally); the
            // cursor replays them and schedules the flow's next creation.
            let cursor = &mut self.preassigned[i];
            let (at, id) = cursor.current();
            debug_assert_eq!(at, sched.now(), "cursor must replay the schedule");
            if let Some((next_at, _)) = cursor.advance() {
                let prev = self.timer.switch(Phase::QueuePush);
                sched
                    .schedule_at(next_at, Ev::Create { flow })
                    .expect("creation schedules are time-ordered");
                self.timer.switch(prev);
            }
            id
        };
        let reading = self.reading_rng.sample_uniform(0.0, 100.0);
        let slot = self.store.alloc(id, flow, source, sched.now(), reading);
        if self.preassigned.is_empty() {
            self.truth.push(TruthRecord {
                packet: id,
                flow,
                created_at: sched.now(),
            });
        }
        let prev = self.timer.switch(Phase::Probe);
        self.probe.on_packet(
            sched.now(),
            self.packet_event(PacketEventKind::Created, slot, source.index()),
        );
        self.timer.switch(prev);
        if self.preassigned.is_empty()
            && matches!(self.sim.workload, Workload::Model(_))
            && self.seq[i] < self.sim.packets_per_source
        {
            let gap = self.traffic_samplers[i].next_interarrival(&mut self.traffic_rngs[i]);
            let prev = self.timer.switch(Phase::QueuePush);
            sched.schedule_in(gap, Ev::Create { flow });
            self.timer.switch(prev);
        }
        self.process_at(sched, self.order.internal(source), slot);
    }

    /// A packet is now present at internal node `node`: deliver,
    /// forward, or buffer.
    ///
    /// Each path does its state work first and then reports to the probe
    /// in one [`Phase::Probe`] section, in the same hook order as the
    /// work happened (arrival, then drop or preemption, then enqueue and
    /// occupancy). Probes see only the hooks' arguments, never the state
    /// in between, so reporting after the work changes nothing they
    /// observe, and one section per path keeps a hop to 12 phase
    /// switches.
    #[inline]
    fn process_at(&mut self, sched: &mut Scheduler<'_, Ev>, node: u32, slot: u32) {
        if node == self.sink {
            self.deliver(sched.now(), slot);
            return;
        }
        let n = node as usize;
        let now = sched.now();
        // The probes' view of the node: its external id.
        let ext = self.order.external(node).index();
        // Threshold mixes batch instead of delaying: the delay plan is
        // ignored at mix nodes.
        if let BufferPolicy::ThresholdMix { threshold } = self.sim.buffer_policy {
            self.store.park(slot, now, SimTime::MAX, None);
            self.buffers[n].insert(&self.store, slot);
            let depth = self.buffers[n].len() as u64;
            self.occupancy[n].transition(now, depth);
            let flush = self.buffers[n].len() >= threshold;
            let prev = self.timer.switch(Phase::Probe);
            self.probe.on_arrival(ext, now);
            self.probe
                .on_packet(now, self.packet_event(PacketEventKind::Enqueued, slot, ext));
            self.probe.on_occupancy(ext, now, depth);
            if flush {
                self.probe.on_flush(ext, now, depth);
            }
            self.timer.switch(prev);
            if flush {
                self.flushes[n] += 1;
                let mut scratch = std::mem::take(&mut self.mix_scratch);
                self.buffers[n].drain_slots_into(&mut scratch);
                for batched in scratch.drain(..) {
                    self.forward(sched, node, ext, batched);
                }
                self.mix_scratch = scratch;
                self.occupancy[n].transition(now, 0);
                let prev = self.timer.switch(Phase::Probe);
                self.probe.on_occupancy(ext, now, 0);
                self.timer.switch(prev);
            }
            return;
        }
        let strategy = self.strategies[n];
        if strategy.is_none() {
            self.forward(sched, node, ext, slot);
            return;
        }
        let delay = strategy.sample(&mut self.delay_rngs[n]);
        // Full buffer? Apply the policy before inserting. The arrival is
        // reported together with the drop or preemption it caused.
        let full = self
            .capacity
            .is_some_and(|cap| self.buffers[n].len() >= cap);
        if full {
            match self.sim.buffer_policy {
                BufferPolicy::DropTail { .. } => {
                    self.drops[n] += 1;
                    let prev = self.timer.switch(Phase::Probe);
                    self.probe.on_arrival(ext, now);
                    self.probe.on_drop(ext, now);
                    self.probe
                        .on_packet(now, self.packet_event(PacketEventKind::Dropped, slot, ext));
                    self.timer.switch(prev);
                    self.store.release(slot);
                    return;
                }
                BufferPolicy::Rcad { victim, .. } => {
                    let prev = self.timer.switch(Phase::VictimSelect);
                    let victim_id = self.buffers[n]
                        .select_victim(&self.store, victim, &mut self.victim_rng)
                        .expect("full buffer has a victim");
                    let victim_slot = self.buffers[n]
                        .remove(victim_id)
                        .expect("victim is buffered");
                    let timer = self
                        .store
                        .timer(victim_slot)
                        .expect("timed entries outside mixes");
                    let cancelled = sched.cancel(timer);
                    debug_assert!(cancelled, "victim timer must be pending");
                    self.timer.switch(prev);
                    self.preemptions[n] += 1;
                    let depth = self.buffers[n].len() as u64;
                    self.occupancy[n].transition(now, depth);
                    let prev = self.timer.switch(Phase::Probe);
                    self.probe.on_arrival(ext, now);
                    self.probe.on_preemption(ext, now);
                    self.probe.on_packet(
                        now,
                        PacketEvent::Preempted {
                            packet: victim_id.0,
                            flow: self.store.flow(victim_slot).index(),
                            node: ext,
                            victim_policy: victim.name(),
                        },
                    );
                    self.probe.on_occupancy(ext, now, depth);
                    // "Transmit it immediately rather than drop packets."
                    self.probe.on_packet(
                        now,
                        self.packet_event(PacketEventKind::Departed, victim_slot, ext),
                    );
                    self.timer.switch(prev);
                    self.transmit(sched, node, victim_slot);
                }
                _ => unreachable!("mix and unlimited never hit the full-buffer path"),
            }
        }
        let release_at = now + delay;
        let prev = self.timer.switch(Phase::QueuePush);
        let timer = sched.schedule_in(delay, Ev::Release { node, slot });
        self.timer.switch(prev);
        self.store.park(slot, now, release_at, Some(timer));
        self.buffers[n].insert(&self.store, slot);
        let depth = self.buffers[n].len() as u64;
        self.occupancy[n].transition(now, depth);
        let prev = self.timer.switch(Phase::Probe);
        if !full {
            self.probe.on_arrival(ext, now);
        }
        self.probe
            .on_packet(now, self.packet_event(PacketEventKind::Enqueued, slot, ext));
        self.probe.on_occupancy(ext, now, depth);
        self.timer.switch(prev);
    }

    #[inline]
    fn on_release(&mut self, sched: &mut Scheduler<'_, Ev>, node: u32, slot: u32) {
        let n = node as usize;
        let now = sched.now();
        let pid = self.store.pid(slot);
        let removed = self.buffers[n]
            .remove(pid)
            .expect("release timers fire only for buffered packets");
        debug_assert_eq!(removed, slot, "buffer entry must map back to its slot");
        let depth = self.buffers[n].len() as u64;
        self.occupancy[n].transition(now, depth);
        let ext = self.order.external(node).index();
        let prev = self.timer.switch(Phase::Probe);
        self.probe.on_occupancy(ext, now, depth);
        self.probe
            .on_packet(now, self.packet_event(PacketEventKind::Departed, slot, ext));
        self.timer.switch(prev);
        self.transmit(sched, node, slot);
    }

    /// The lifecycle event `kind` of the packet in `slot` at external
    /// node `ext`. Not for [`PacketEventKind::Preempted`], which also
    /// names the victim policy.
    #[inline]
    fn packet_event(&self, kind: PacketEventKind, slot: u32, ext: usize) -> PacketEvent {
        let packet = self.store.pid(slot).0;
        let flow = self.store.flow(slot).index();
        let node = ext;
        match kind {
            PacketEventKind::Created => PacketEvent::Created { packet, flow, node },
            PacketEventKind::Enqueued => PacketEvent::Enqueued { packet, flow, node },
            PacketEventKind::Departed => PacketEvent::Departed { packet, flow, node },
            PacketEventKind::Dropped => PacketEvent::Dropped { packet, flow, node },
            PacketEventKind::ArrivedAtSink => PacketEvent::ArrivedAtSink { packet, flow, node },
            PacketEventKind::Preempted => unreachable!("preemptions carry their victim policy"),
        }
    }

    /// Reports the departure of `slot` from internal node `node`
    /// (external id `ext`) and transmits it.
    #[inline]
    fn forward(&mut self, sched: &mut Scheduler<'_, Ev>, node: u32, ext: usize, slot: u32) {
        let now = sched.now();
        let prev = self.timer.switch(Phase::Probe);
        self.probe
            .on_packet(now, self.packet_event(PacketEventKind::Departed, slot, ext));
        self.timer.switch(prev);
        self.transmit(sched, node, slot);
    }

    /// Sends `slot` from internal node `node` toward its next hop: over
    /// the link to the next hop's arrival, across a shard boundary, or
    /// lost. The departure is already reported.
    #[inline]
    fn transmit(&mut self, sched: &mut Scheduler<'_, Ev>, node: u32, slot: u32) {
        self.store.record_hop(slot);
        debug_assert_ne!(node, self.sink, "non-sink nodes have a next hop");
        let next = self.order.next[node as usize];
        self.tx_count[node as usize] += 1;
        match self.sim.link.transmit(&mut self.link_rng) {
            Some(delay) => {
                if let Some(shard_of) = self.shard_of {
                    if shard_of[next as usize] != self.my_shard {
                        // Crossing a shard boundary: ship the packet's
                        // columns; the receiving shard re-materializes it
                        // and counts the reception.
                        self.handoffs_out += 1;
                        self.outbox.push(crate::sharded::Handoff {
                            at: sched.now() + delay,
                            node: self.order.external(next),
                            pid: self.store.pid(slot),
                            flow: self.store.flow(slot),
                            origin: self.store.origin(slot),
                            hop_count: self.store.hop_count(slot),
                            created_at: self.store.created_at(slot),
                        });
                        self.store.release(slot);
                        return;
                    }
                }
                self.rx_count[next as usize] += 1;
                let prev = self.timer.switch(Phase::QueuePush);
                sched.schedule_in(delay, Ev::Arrive { node: next, slot });
                self.timer.switch(prev);
            }
            None => {
                self.link_losses += 1;
                self.store.release(slot);
            }
        }
    }

    #[inline]
    fn deliver(&mut self, now: SimTime, slot: u32) {
        let flow = self.store.flow(slot);
        let pid = self.store.pid(slot);
        let created = self.store.created_at(slot);
        let latency = (now - created).as_units();
        self.latency[flow.index()].record(latency);
        self.latency_hist[flow.index()].record(latency);
        self.delivered[flow.index()] += 1;
        let prev = self.timer.switch(Phase::Probe);
        self.probe.on_delivery(flow.index(), now, latency);
        self.probe.on_packet(
            now,
            self.packet_event(
                PacketEventKind::ArrivedAtSink,
                slot,
                self.sim.routing.sink().index(),
            ),
        );
        self.timer.switch(prev);
        self.observations.push(Observation {
            arrival: now,
            origin: self.store.origin(slot),
            hop_count: self.store.hop_count(slot),
            flow,
            packet: pid,
        });
        self.store.release(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::VictimPolicy;
    use tempriv_net::convergecast::Convergecast;
    use tempriv_net::topology::Topology;

    fn line_sim(hops: u32) -> NetworkSimulationBuilder {
        let topo = Topology::line(hops as usize + 1);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        NetworkSimulation::builder(routing, vec![NodeId(hops)])
    }

    #[test]
    fn delay_draws_follow_external_node_ids() {
        // A route whose ids are out of order, next to a side branch
        // (0 <- 5 <- 8 <- 9) that DFS visits first: the internal ids of
        // the route's nodes are neither their external ids nor a
        // permutation of them. Each node's one delay must still come
        // from the DELAY substream of its external id.
        let route = [6u32, 3, 4, 1, 7, 2, 10, 0];
        let side = [(5, 0), (8, 5), (9, 8)];
        let mut parents = vec![None; 11];
        for (child, parent) in route.windows(2).map(|h| (h[0], h[1])).chain(side) {
            parents[child as usize] = Some(NodeId(parent));
        }
        let routing = RoutingTree::from_parents(NodeId(0), parents).unwrap();
        let sim = NetworkSimulation::builder(routing, vec![NodeId(6)])
            .packets_per_source(1)
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(9)
            .build()
            .unwrap();
        let out = sim.run();
        let factory = RngFactory::new(9);
        let tau = sim.link.delay();
        let expected =
            route[..route.len() - 1]
                .iter()
                .fold(out.truth[0].created_at, |at, &node| {
                    let mut rng = factory.substream(streams::DELAY, u64::from(node));
                    at + sim.delay_plan().for_node(NodeId(node)).sample(&mut rng) + tau
                });
        assert_eq!(out.observations[0].arrival, expected);
    }

    #[test]
    fn no_delay_latency_is_exactly_hops_tau() {
        let sim = line_sim(15)
            .delay_plan(DelayPlan::no_delay())
            .buffer_policy(BufferPolicy::Unlimited)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(100)
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.total_delivered(), 100);
        let lat = &out.flows[0].latency;
        assert!((lat.mean() - 15.0).abs() < 1e-9, "latency {}", lat.mean());
        assert!(lat.population_variance() < 1e-12);
        assert_eq!(out.total_preemptions(), 0);
    }

    #[test]
    fn unlimited_buffer_latency_matches_h_tau_plus_delay() {
        let sim = line_sim(15)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(2000)
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.total_delivered(), 2000);
        // Expected: 15 * (1 + 30) = 465, sd of mean ~ sqrt(15*900/2000) ~ 2.6.
        let mean = out.flows[0].latency.mean();
        assert!((mean - 465.0).abs() < 10.0, "latency {mean}");
        assert_eq!(out.total_preemptions(), 0);
        assert_eq!(out.total_drops(), 0);
    }

    #[test]
    fn hop_count_in_observations_matches_route() {
        let sim = line_sim(7).packets_per_source(10).build().unwrap();
        let out = sim.run();
        for obs in &out.observations {
            assert_eq!(obs.hop_count, 7);
            assert_eq!(obs.origin, NodeId(7));
        }
    }

    #[test]
    fn rcad_never_drops() {
        let sim = line_sim(10)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(500)
            .buffer_policy(BufferPolicy::Rcad {
                capacity: 5,
                victim: VictimPolicy::ShortestRemaining,
            })
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.total_delivered(), 500);
        assert!(out.total_preemptions() > 0, "rho = 15 >> 5 must preempt");
        assert_eq!(out.total_drops(), 0);
    }

    #[test]
    fn drop_tail_loses_packets_at_saturation() {
        let sim = line_sim(10)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(500)
            .buffer_policy(BufferPolicy::DropTail { capacity: 5 })
            .build()
            .unwrap();
        let out = sim.run();
        assert!(out.total_drops() > 0);
        assert!(out.total_delivered() < 500);
        assert_eq!(
            out.total_delivered() + out.total_drops(),
            500,
            "every packet is delivered or dropped"
        );
    }

    #[test]
    fn rcad_caps_occupancy_at_capacity() {
        let sim = line_sim(5)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(300)
            .buffer_policy(BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::ShortestRemaining,
            })
            .build()
            .unwrap();
        let out = sim.run();
        for node in &out.nodes {
            assert!(
                node.peak_occupancy <= 10,
                "node {} peak {}",
                node.node,
                node.peak_occupancy
            );
        }
    }

    #[test]
    fn rcad_reduces_latency_under_saturation() {
        let base = line_sim(15)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(1000);
        let unlimited = base
            .clone()
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap()
            .run();
        let rcad = base
            .buffer_policy(BufferPolicy::paper_rcad())
            .build()
            .unwrap()
            .run();
        let lu = unlimited.flows[0].latency.mean();
        let lr = rcad.flows[0].latency.mean();
        assert!(
            lr < 0.8 * lu,
            "RCAD latency {lr} should sit well below unlimited {lu}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let layout = Convergecast::paper_figure1();
            NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
                .traffic(TrafficModel::periodic(4.0))
                .packets_per_source(200)
                .seed(42)
                .build()
                .unwrap()
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a, b);
    }

    #[test]
    fn profiler_is_invisible_to_the_simulation() {
        // The phase timer must not perturb the run: identical outcome,
        // identical RNG draw counts, yet a non-trivial phase breakdown.
        let build = || {
            let layout = Convergecast::paper_figure1();
            NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
                .traffic(TrafficModel::periodic(2.0))
                .packets_per_source(150)
                .seed(7)
                .build()
                .unwrap()
        };
        let plain = build().run();
        let mut profiler = tempriv_telemetry::PhaseProfiler::with_batch(8);
        let profiled = build().run_profiled(&mut NullProbe, &mut profiler);
        assert_eq!(plain, profiled);
        assert_eq!(plain.rng_draws, profiled.rng_draws);
        let breakdown = profiler.finish();
        assert!(breakdown.total_secs >= 0.0);
        let dispatched: u64 = breakdown
            .phases
            .iter()
            .filter(|p| p.phase != "engine_loop")
            .map(|p| p.count)
            .sum();
        assert!(dispatched > 0, "switch sites must have fired");
    }

    #[test]
    fn different_seeds_differ() {
        let layout = Convergecast::paper_figure1();
        let mk = |seed| {
            NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
                .packets_per_source(100)
                .seed(seed)
                .build()
                .unwrap()
                .run()
        };
        assert_ne!(mk(1).observations, mk(2).observations);
    }

    #[test]
    fn figure1_all_flows_deliver_everything_under_rcad() {
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(300)
            .build()
            .unwrap();
        let out = sim.run();
        for f in &out.flows {
            assert_eq!(f.delivered, 300, "flow {}", f.flow);
            assert_eq!(f.delivery_ratio(), 1.0);
        }
        // Trunk nodes (ids 1..=8) carry 4x traffic: they must preempt.
        let trunk_preempt: u64 = (1..=8).map(|i| out.nodes[i].preemptions).sum();
        assert!(trunk_preempt > 0);
    }

    #[test]
    fn lossy_links_lose_packets() {
        let sim = line_sim(5)
            .link(LinkModel::paper_default().with_loss(0.05))
            .packets_per_source(500)
            .build()
            .unwrap();
        let out = sim.run();
        assert!(out.link_losses > 0);
        assert_eq!(out.total_delivered() + out.link_losses, 500);
    }

    #[test]
    fn adversary_knowledge_reflects_configuration() {
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .build()
            .unwrap();
        let k = sim.adversary_knowledge();
        assert_eq!(k.flow_hops, vec![15, 22, 9, 11]);
        assert_eq!(k.tau, 1.0);
        assert_eq!(k.delay_mean, 30.0);
        assert_eq!(k.buffer_slots, Some(10));
        assert_eq!(k.converging_flows.len(), 4);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let topo = Topology::line(3);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        assert!(matches!(
            NetworkSimulation::builder(routing.clone(), vec![]).build(),
            Err(BuildError::NoSources)
        ));
        assert!(matches!(
            NetworkSimulation::builder(routing.clone(), vec![NodeId(0)]).build(),
            Err(BuildError::SourceIsSink { .. })
        ));
        assert!(matches!(
            NetworkSimulation::builder(routing.clone(), vec![NodeId(9)]).build(),
            Err(BuildError::UnknownSource { .. })
        ));
        assert!(matches!(
            NetworkSimulation::builder(routing.clone(), vec![NodeId(2)])
                .packets_per_source(0)
                .build(),
            Err(BuildError::NoPackets)
        ));
        assert!(matches!(
            NetworkSimulation::builder(routing, vec![NodeId(2)])
                .buffer_policy(BufferPolicy::DropTail { capacity: 0 })
                .build(),
            Err(BuildError::InvalidBuffer { .. })
        ));
    }

    #[test]
    fn explicit_schedules_drive_creation_times() {
        let topo = Topology::line(4);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        let schedule = vec![
            SimTime::from_units(5.0),
            SimTime::from_units(9.0),
            SimTime::from_units(50.0),
        ];
        let sim = NetworkSimulation::builder(routing, vec![NodeId(3)])
            .schedules(vec![schedule.clone()])
            .delay_plan(DelayPlan::no_delay())
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.flows[0].created, 3);
        assert_eq!(out.total_delivered(), 3);
        let created: Vec<SimTime> = out.truth.iter().map(|t| t.created_at).collect();
        assert_eq!(created, schedule);
        // With no delay, arrivals follow creations by exactly h*tau = 3.
        for obs in &out.observations {
            let truth = out.creation_time(obs.packet);
            assert_eq!(
                obs.arrival - truth,
                tempriv_sim::time::SimDuration::from_units(3.0)
            );
        }
    }

    #[test]
    fn schedule_mismatch_rejected() {
        let topo = Topology::line(3);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        let err = NetworkSimulation::builder(routing.clone(), vec![NodeId(2)])
            .schedules(vec![])
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::ScheduleMismatch { .. }));
        let err = NetworkSimulation::builder(routing, vec![NodeId(2)])
            .schedules(vec![vec![]])
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::NoPackets));
    }

    #[test]
    fn threshold_mix_batches_and_strands() {
        let sim = line_sim(3)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(100)
            .buffer_policy(BufferPolicy::ThresholdMix { threshold: 8 })
            .build()
            .unwrap();
        let out = sim.run();
        // 100 packets in batches of 8: 12 full batches per node; the
        // remaining 4 strand at the first mix node.
        assert!(out.total_flushes() > 0);
        assert_eq!(
            out.total_delivered() + out.total_stranded(),
            100,
            "mix conservation"
        );
        assert!(out.total_stranded() > 0 && out.total_stranded() < 8);
        assert_eq!(out.total_preemptions(), 0);
        assert_eq!(out.total_drops(), 0);
        // Peak occupancy equals the threshold at flush instants.
        assert!(out.nodes.iter().any(|n| n.peak_occupancy == 8));
        assert!(out.nodes.iter().all(|n| n.peak_occupancy <= 8));
    }

    #[test]
    fn threshold_one_mix_is_immediate_forwarding() {
        let sim = line_sim(5)
            .traffic(TrafficModel::periodic(3.0))
            .packets_per_source(50)
            .buffer_policy(BufferPolicy::ThresholdMix { threshold: 1 })
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.total_delivered(), 50);
        assert_eq!(out.total_stranded(), 0);
        // Latency is exactly h*tau: every batch flushes instantly.
        assert!((out.flows[0].latency.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mix_batch_members_arrive_together() {
        let sim = line_sim(1)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(40)
            .buffer_policy(BufferPolicy::ThresholdMix { threshold: 5 })
            .build()
            .unwrap();
        let out = sim.run();
        // Arrivals come in bursts of 5 sharing one arrival instant.
        let mut by_time: std::collections::BTreeMap<_, usize> = Default::default();
        for obs in &out.observations {
            *by_time.entry(obs.arrival).or_default() += 1;
        }
        assert!(by_time.values().all(|&c| c == 5), "{by_time:?}");
    }

    #[test]
    fn energy_accounting_counts_every_hop() {
        use tempriv_net::energy::EnergyModel;
        let sim = line_sim(5)
            .traffic(TrafficModel::periodic(4.0))
            .packets_per_source(100)
            .delay_plan(DelayPlan::shared_exponential(10.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap();
        let out = sim.run();
        // 100 packets x 5 hops: 500 transmissions; the sink receives 100
        // of the 500 receptions.
        let tx: u64 = out.nodes.iter().map(|n| n.transmissions).sum();
        let rx: u64 = out.nodes.iter().map(|n| n.receptions).sum();
        assert_eq!(tx, 500);
        assert_eq!(rx, 500);
        assert_eq!(out.nodes[0].receptions, 100); // the sink
        assert_eq!(out.nodes[0].transmissions, 0);
        let model = EnergyModel::mica2();
        let expected = 500.0 * (model.tx_cost + model.rx_cost);
        assert!((out.total_energy(&model) - expected).abs() < 1e-9);
        assert!((out.energy_per_delivered(&model) - expected / 100.0).abs() < 1e-9);
    }

    #[test]
    fn delays_cost_no_extra_energy_but_drops_waste_it() {
        use tempriv_net::energy::EnergyModel;
        let model = EnergyModel::mica2();
        let base = line_sim(10)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(300);
        let no_delay = base
            .clone()
            .delay_plan(DelayPlan::no_delay())
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap()
            .run();
        let rcad = base
            .clone()
            .buffer_policy(BufferPolicy::paper_rcad())
            .build()
            .unwrap()
            .run();
        let droptail = base
            .buffer_policy(BufferPolicy::DropTail { capacity: 10 })
            .build()
            .unwrap()
            .run();
        // RCAD delivers everything with exactly the no-delay energy.
        assert_eq!(no_delay.total_energy(&model), rcad.total_energy(&model));
        assert_eq!(
            no_delay.energy_per_delivered(&model),
            rcad.energy_per_delivered(&model)
        );
        // Drop-tail wastes the upstream transmissions of dropped packets.
        assert!(droptail.total_drops() > 0);
        assert!(
            droptail.energy_per_delivered(&model) > rcad.energy_per_delivered(&model),
            "droptail {} vs rcad {}",
            droptail.energy_per_delivered(&model),
            rcad.energy_per_delivered(&model)
        );
    }

    #[test]
    fn latency_percentiles_are_consistent() {
        let sim = line_sim(15)
            .traffic(TrafficModel::periodic(4.0))
            .packets_per_source(2000)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap();
        let out = sim.run();
        let flow = &out.flows[0];
        let p50 = flow.latency_p50().unwrap();
        let p95 = flow.latency_p95().unwrap();
        // Erlang(15) latency: median below mean, p95 well above.
        assert!(
            p50 < flow.latency.mean(),
            "p50 {p50} vs mean {}",
            flow.latency.mean()
        );
        assert!(p95 > flow.latency.mean());
        assert!(p50 >= 15.0, "nothing beats h*tau");
        // Analytic p95 of 15 * (tau + Exp(30)) is ~672; allow slack for
        // histogram resolution.
        assert!((p95 - 672.0).abs() < 40.0, "p95 {p95}");
    }

    #[test]
    fn custom_latency_range_applies() {
        let sim = line_sim(3)
            .packets_per_source(50)
            .delay_plan(DelayPlan::no_delay())
            .buffer_policy(BufferPolicy::Unlimited)
            .latency_range(0.0, 10.0)
            .build()
            .unwrap();
        let out = sim.run();
        // All latencies are exactly 3: well inside the custom range.
        assert_eq!(out.flows[0].latency_histogram.overflow(), 0);
        assert!((out.flows[0].latency_p50().unwrap() - 3.0).abs() < 0.1);
        // Degenerate range is rejected.
        let err = line_sim(3).latency_range(5.0, 5.0).build().unwrap_err();
        assert!(matches!(err, BuildError::InvalidBuffer { .. }));
    }

    #[test]
    fn observations_arrive_in_time_order() {
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .packets_per_source(200)
            .build()
            .unwrap();
        let out = sim.run();
        for w in out.observations.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }
}
