//! Zero-allocation struct-of-arrays packet data plane.
//!
//! The simulation driver used to carry 80-byte [`Packet`] values inside
//! events and park them in per-node `BTreeMap`s, paying one or more heap
//! allocations per hop. [`PacketStore`] replaces that with a slab: every
//! in-flight packet is a dense `u32` slot into parallel column `Vec`s
//! (flow, origin, hop count, creation time, buffer timestamps), and a
//! free list recycles slots so the steady-state path allocates nothing.
//! Events and cross-shard handoffs ship plain slot indices.
//!
//! [`StoreBuffer`] is the companion per-node buffer: a `PacketId`-sorted
//! `Vec` of `(id, slot)` entries and nothing else. Victim selection scans
//! those entries against the store's columns, replicating the exact
//! selection and tie-break semantics of [`crate::buffer::NodeBuffer`]'s
//! BTreeSet indexes (which remain as the reference model for the property
//! tests) — same victims, same RNG draw counts, byte-identical outcomes.
//! A sorted victim index would cost two binary searches and two memmoves
//! on every hop to serve a lookup that happens only when a buffer is
//! full; the O(k) scan runs only then, and `insert` is already O(k).
//!
//! [`Packet`]: tempriv_net::packet::Packet

use std::cmp::Reverse;

use tempriv_net::ids::{FlowId, NodeId, PacketId};
use tempriv_sim::queue::EventId;
use tempriv_sim::rng::SimRng;
use tempriv_sim::time::SimTime;

use crate::buffer::VictimPolicy;

/// Slab of in-flight packet state in struct-of-arrays layout.
///
/// Slots are dense `u32` indices; freed slots are recycled in LIFO
/// order, so a steady-state simulation touches the same few cache lines
/// forever and the columns never grow past the peak in-flight count.
#[derive(Debug, Default, Clone)]
pub struct PacketStore {
    pid: Vec<PacketId>,
    flow: Vec<FlowId>,
    origin: Vec<NodeId>,
    hop_count: Vec<u32>,
    created_at: Vec<SimTime>,
    reading: Vec<f64>,
    buffered_at: Vec<SimTime>,
    release_at: Vec<SimTime>,
    timer: Vec<Option<EventId>>,
    free: Vec<u32>,
}

impl PacketStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        PacketStore::default()
    }

    /// An empty store with column capacity for `cap` concurrent packets.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        PacketStore {
            pid: Vec::with_capacity(cap),
            flow: Vec::with_capacity(cap),
            origin: Vec::with_capacity(cap),
            hop_count: Vec::with_capacity(cap),
            created_at: Vec::with_capacity(cap),
            reading: Vec::with_capacity(cap),
            buffered_at: Vec::with_capacity(cap),
            release_at: Vec::with_capacity(cap),
            timer: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    /// Admits a fresh packet, reusing a freed slot when one exists.
    pub fn alloc(
        &mut self,
        pid: PacketId,
        flow: FlowId,
        origin: NodeId,
        created_at: SimTime,
        reading: f64,
    ) -> u32 {
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.pid[i] = pid;
            self.flow[i] = flow;
            self.origin[i] = origin;
            self.hop_count[i] = 0;
            self.created_at[i] = created_at;
            self.reading[i] = reading;
            self.buffered_at[i] = SimTime::ZERO;
            self.release_at[i] = SimTime::ZERO;
            self.timer[i] = None;
            slot
        } else {
            let slot = u32::try_from(self.pid.len()).expect("more than u32::MAX live packets");
            self.pid.push(pid);
            self.flow.push(flow);
            self.origin.push(origin);
            self.hop_count.push(0);
            self.created_at.push(created_at);
            self.reading.push(reading);
            self.buffered_at.push(SimTime::ZERO);
            self.release_at.push(SimTime::ZERO);
            self.timer.push(None);
            slot
        }
    }

    /// Returns `slot` to the free list (delivered, dropped, or lost).
    pub fn release(&mut self, slot: u32) {
        debug_assert!(!self.free.contains(&slot), "slot {slot} released twice");
        self.free.push(slot);
    }

    /// The packet's simulation-unique id.
    #[must_use]
    #[inline]
    pub fn pid(&self, slot: u32) -> PacketId {
        self.pid[slot as usize]
    }

    /// The packet's flow.
    #[must_use]
    #[inline]
    pub fn flow(&self, slot: u32) -> FlowId {
        self.flow[slot as usize]
    }

    /// The packet's origin node.
    #[must_use]
    #[inline]
    pub fn origin(&self, slot: u32) -> NodeId {
        self.origin[slot as usize]
    }

    /// Hops recorded so far.
    #[must_use]
    #[inline]
    pub fn hop_count(&self, slot: u32) -> u32 {
        self.hop_count[slot as usize]
    }

    /// Overwrites the hop count (cross-shard handoff restore).
    #[inline]
    pub fn set_hop_count(&mut self, slot: u32, hops: u32) {
        self.hop_count[slot as usize] = hops;
    }

    /// The packet's creation instant.
    #[must_use]
    #[inline]
    pub fn created_at(&self, slot: u32) -> SimTime {
        self.created_at[slot as usize]
    }

    /// The sealed sensor reading.
    #[must_use]
    #[inline]
    pub fn reading(&self, slot: u32) -> f64 {
        self.reading[slot as usize]
    }

    /// Records a forwarding hop.
    #[inline]
    pub fn record_hop(&mut self, slot: u32) {
        self.hop_count[slot as usize] += 1;
    }

    /// When the packet entered its current buffer.
    #[must_use]
    #[inline]
    pub fn buffered_at(&self, slot: u32) -> SimTime {
        self.buffered_at[slot as usize]
    }

    /// When the packet's current buffer will release it.
    #[must_use]
    #[inline]
    pub fn release_at(&self, slot: u32) -> SimTime {
        self.release_at[slot as usize]
    }

    /// The pending release timer, if any.
    #[must_use]
    #[inline]
    pub fn timer(&self, slot: u32) -> Option<EventId> {
        self.timer[slot as usize]
    }

    /// Stamps the buffering state when a packet is parked at a node.
    #[inline]
    pub fn park(
        &mut self,
        slot: u32,
        buffered_at: SimTime,
        release_at: SimTime,
        timer: Option<EventId>,
    ) {
        let i = slot as usize;
        self.buffered_at[i] = buffered_at;
        self.release_at[i] = release_at;
        self.timer[i] = timer;
    }

    /// Slots currently live (allocated and not freed).
    #[must_use]
    pub fn live(&self) -> usize {
        self.pid.len() - self.free.len()
    }

    /// Column length — the in-flight high-water mark.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.pid.len()
    }
}

/// Per-node buffer over [`PacketStore`] slots.
///
/// Entries are kept sorted by `PacketId` in a plain `Vec` (binary-search
/// insert; occupancies are tens, not thousands). Cleared capacity is
/// retained, so after warm-up the buffer never allocates again.
#[derive(Debug, Clone, Default)]
pub struct StoreBuffer {
    entries: Vec<(PacketId, u32)>,
    high_water: usize,
}

impl StoreBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        StoreBuffer::default()
    }

    /// Buffered packet count.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Peak occupancy ever seen.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Inserts a parked packet. Victim selection reads the slot's
    /// buffering state from the store (see [`PacketStore::park`]).
    ///
    /// # Panics
    ///
    /// Panics if the packet id is already buffered here.
    pub fn insert(&mut self, store: &PacketStore, slot: u32) {
        let pid = store.pid(slot);
        match self.entries.binary_search_by(|e| e.0.cmp(&pid)) {
            Ok(_) => panic!("packet {pid:?} already buffered"),
            Err(pos) => self.entries.insert(pos, (pid, slot)),
        }
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Removes a buffered packet by id, returning its slot.
    #[must_use]
    pub fn remove(&mut self, pid: PacketId) -> Option<u32> {
        let pos = self.entries.binary_search_by(|e| e.0.cmp(&pid)).ok()?;
        Some(self.entries.remove(pos).1)
    }

    /// Picks the packet `policy` sacrifices, identically (selection and
    /// RNG draws) to `NodeBuffer::select_victim`, by one scan of the
    /// id-sorted entries: shortest-remaining is the minimal
    /// `(release, id)`; longest-remaining the maximal release with the
    /// smallest id among ties; oldest the minimal `(buffered, id)`;
    /// random one uniform index draw into the entries.
    pub fn select_victim(
        &self,
        store: &PacketStore,
        policy: VictimPolicy,
        rng: &mut SimRng,
    ) -> Option<PacketId> {
        if self.entries.is_empty() {
            return None;
        }
        match policy {
            VictimPolicy::ShortestRemaining => self.first_min(|slot| store.release_at(slot)),
            VictimPolicy::LongestRemaining => {
                self.first_min(|slot| Reverse(store.release_at(slot)))
            }
            VictimPolicy::Oldest => self.first_min(|slot| store.buffered_at(slot)),
            VictimPolicy::Random => Some(self.entries[rng.sample_index(self.entries.len())].0),
        }
    }

    /// The entry minimizing `key`. Entries ascend by id and `min_by_key`
    /// keeps the first of equal minima, so ties go to the smallest id.
    #[inline]
    fn first_min<K: Ord>(&self, key: impl Fn(u32) -> K) -> Option<PacketId> {
        self.entries
            .iter()
            .min_by_key(|&&(_, slot)| key(slot))
            .map(|&(pid, _)| pid)
    }

    /// Drains every buffered slot into `out` in ascending packet-id
    /// order (the mix flush order), clearing the buffer but keeping its
    /// capacity.
    pub fn drain_slots_into(&mut self, out: &mut Vec<u32>) {
        out.extend(self.entries.iter().map(|&(_, slot)| slot));
        self.entries.clear();
    }

    /// Buffered `(id, slot)` entries in ascending id order.
    #[must_use]
    pub fn entries(&self) -> &[(PacketId, u32)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempriv_sim::rng::RngFactory;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn store_with(packets: &[(u64, f64)]) -> (PacketStore, Vec<u32>) {
        let mut store = PacketStore::new();
        let slots = packets
            .iter()
            .map(|&(pid, release)| {
                let slot = store.alloc(PacketId(pid), FlowId(0), NodeId(1), t(0.0), 0.0);
                store.park(slot, t(0.0), t(release), None);
                slot
            })
            .collect();
        (store, slots)
    }

    #[test]
    fn slots_recycle_through_the_free_list() {
        let mut store = PacketStore::new();
        let a = store.alloc(PacketId(0), FlowId(0), NodeId(1), t(0.0), 1.0);
        let b = store.alloc(PacketId(1), FlowId(0), NodeId(2), t(1.0), 2.0);
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.live(), 2);
        store.release(a);
        let c = store.alloc(PacketId(2), FlowId(1), NodeId(3), t(2.0), 3.0);
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(store.pid(c), PacketId(2));
        assert_eq!(store.hop_count(c), 0, "recycled slot state is reset");
        assert_eq!(store.capacity(), 2);
    }

    #[test]
    fn victim_selection_matches_policy_semantics() {
        // Two packets share the max release; the smaller id must win
        // the longest-remaining tie-break, as the BTreeSet range scan
        // had it.
        let (store, slots) = store_with(&[(5, 9.0), (2, 9.0), (7, 3.0)]);
        let mut rng = RngFactory::new(1).stream(0);

        let mut buf = StoreBuffer::new();
        for &s in &slots {
            buf.insert(&store, s);
        }
        assert_eq!(
            buf.select_victim(&store, VictimPolicy::ShortestRemaining, &mut rng),
            Some(PacketId(7))
        );

        let mut buf = StoreBuffer::new();
        for &s in &slots {
            buf.insert(&store, s);
        }
        assert_eq!(
            buf.select_victim(&store, VictimPolicy::LongestRemaining, &mut rng),
            Some(PacketId(2))
        );
        assert_eq!(rng.draws(), 0, "deterministic policies never draw");

        let mut buf = StoreBuffer::new();
        for &s in &slots {
            buf.insert(&store, s);
        }
        let picked = buf
            .select_victim(&store, VictimPolicy::Random, &mut rng)
            .expect("non-empty");
        assert_eq!(rng.draws(), 1, "random victims cost exactly one draw");
        assert!([PacketId(2), PacketId(5), PacketId(7)].contains(&picked));
    }

    #[test]
    fn drain_is_in_packet_id_order_and_capacity_is_kept() {
        let (store, slots) = store_with(&[(9, 1.0), (3, 2.0), (6, 3.0)]);
        let mut buf = StoreBuffer::new();
        for &s in &slots {
            buf.insert(&store, s);
        }
        assert_eq!(buf.high_water(), 3);
        let mut out = Vec::new();
        buf.drain_slots_into(&mut out);
        let ids: Vec<u64> = out.iter().map(|&s| store.pid(s).0).collect();
        assert_eq!(ids, vec![3, 6, 9]);
        assert!(buf.is_empty());
        assert!(buf.entries.capacity() >= 3, "capacity survives the drain");
    }

    #[test]
    fn remove_keeps_the_index_in_sync() {
        let (store, slots) = store_with(&[(1, 5.0), (2, 4.0), (3, 6.0)]);
        let mut buf = StoreBuffer::new();
        for &s in &slots {
            buf.insert(&store, s);
        }
        let mut rng = RngFactory::new(2).stream(0);
        assert_eq!(
            buf.remove(PacketId(2)).map(|s| store.pid(s)),
            Some(PacketId(2))
        );
        assert_eq!(
            buf.select_victim(&store, VictimPolicy::ShortestRemaining, &mut rng),
            Some(PacketId(1))
        );
        assert!(buf.remove(PacketId(42)).is_none());
    }
}
