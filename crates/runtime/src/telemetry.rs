//! Per-job telemetry collection for instrumented runs.
//!
//! The runtime stays generic over what jobs compute, so telemetry flows
//! through it as opaque JSON blobs: a job that instruments its work
//! attaches one blob to its slot in the [`TelemetrySink`], and the
//! runner journals the blob into that job's manifest record. Cache-served
//! jobs do no work, so they attach nothing — telemetry describes what
//! actually ran, never what a previous run measured.
//!
//! The sink never participates in cache keys or result digests, so
//! enabling telemetry cannot change experiment outputs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A per-job telemetry blob family. Each family has one slot per job in
/// the [`TelemetrySink`] and one same-named field in every manifest
/// [`JobRecord`](crate::JobRecord).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Blob {
    /// Aggregate simulation telemetry plus theory cross-checks.
    Telemetry,
    /// Flight-recorder packet lifecycles.
    Trace,
    /// Streaming privacy-observatory series.
    Privacy,
    /// Cross-layer spans and engine phase profiles.
    Spans,
    /// Determinism-audit digests.
    Audit,
    /// Phase-attributed allocation ledgers.
    Mem,
}

impl Blob {
    /// Number of blob families.
    pub const COUNT: usize = 6;

    /// Every family, in manifest field order.
    pub const ALL: [Blob; Blob::COUNT] = [
        Blob::Telemetry,
        Blob::Trace,
        Blob::Privacy,
        Blob::Spans,
        Blob::Audit,
        Blob::Mem,
    ];

    /// Dense index of this family (`0..COUNT`).
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The family's manifest field name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Blob::Telemetry => "telemetry",
            Blob::Trace => "trace",
            Blob::Privacy => "privacy",
            Blob::Spans => "spans",
            Blob::Audit => "audit",
            Blob::Mem => "mem",
        }
    }
}

/// A slot-per-job mailbox for telemetry blobs, shared between the
/// runtime and job closures.
///
/// Thread-safe: jobs run on pool workers, each writing only its own
/// slots. Every [`Blob`] family keeps one slot per job behind a single
/// lock. Five knobs tell jobs which families to collect:
/// [`trace_capacity`](TelemetrySink::trace_capacity) (flight-recorder
/// ring size, 0 = tracing off),
/// [`privacy_interval`](TelemetrySink::privacy_interval) (deliveries
/// between privacy snapshots, 0 = observatory off),
/// [`span_batch`](TelemetrySink::span_batch) (phase-switch batch,
/// 0 = span tracing off), [`digest_window`](TelemetrySink::digest_window)
/// (events per audit checkpoint, 0 = audit off), and
/// [`mem_profile`](TelemetrySink::mem_profile) (allocation ledgers, off
/// by default). The telemetry family itself is always collected.
///
/// For span tracing the sink also carries a root trace context — two
/// raw ids set by the layer that minted the trace (e.g. the HTTP
/// server) — and an epoch instant fixed at construction, which job
/// spans use as their time zero. Both survive [`TelemetrySink::reset`]
/// so per-run reslotting cannot race a caller that configured the trace
/// before submitting work.
#[derive(Debug)]
pub struct TelemetrySink {
    slots: Mutex<[Vec<Option<String>>; Blob::COUNT]>,
    trace_capacity: AtomicUsize,
    privacy_interval: AtomicUsize,
    span_batch: AtomicUsize,
    digest_window: AtomicUsize,
    mem_profile: AtomicUsize,
    root_trace_id: AtomicU64,
    root_span_id: AtomicU64,
    epoch: Instant,
}

impl Default for TelemetrySink {
    fn default() -> Self {
        TelemetrySink::new()
    }
}

impl TelemetrySink {
    /// An empty sink; [`TelemetrySink::reset`] sizes it per run.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySink {
            slots: Mutex::new(Default::default()),
            trace_capacity: AtomicUsize::new(0),
            privacy_interval: AtomicUsize::new(0),
            span_batch: AtomicUsize::new(0),
            digest_window: AtomicUsize::new(0),
            mem_profile: AtomicUsize::new(0),
            root_trace_id: AtomicU64::new(0),
            root_span_id: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Clears every family and resizes it to `jobs` empty slots. Called
    /// by the runtime at the start of each run.
    pub fn reset(&self, jobs: usize) {
        let mut slots = self.slots.lock().expect("telemetry sink lock");
        for family in slots.iter_mut() {
            family.clear();
            family.resize(jobs, None);
        }
    }

    /// Attaches job `index`'s `blob` (JSON). Silently ignored if the
    /// sink was not sized for `index` — a job can always attach without
    /// caring whether telemetry collection is active this run.
    pub fn attach(&self, blob: Blob, index: usize, json: impl Into<String>) {
        let mut slots = self.slots.lock().expect("telemetry sink lock");
        if let Some(slot) = slots[blob.index()].get_mut(index) {
            *slot = Some(json.into());
        }
    }

    /// A copy of job `index`'s `blob`, if one was attached.
    #[must_use]
    pub fn get(&self, blob: Blob, index: usize) -> Option<String> {
        let slots = self.slots.lock().expect("telemetry sink lock");
        slots[blob.index()].get(index).and_then(Clone::clone)
    }

    /// Every job's `blob` in job order (one entry per slot), draining
    /// that family.
    #[must_use]
    pub fn take(&self, blob: Blob) -> Vec<Option<String>> {
        let mut slots = self.slots.lock().expect("telemetry sink lock");
        std::mem::take(&mut slots[blob.index()])
    }

    /// `take(Blob::Telemetry)`; kept because the `perfbench` harness
    /// calls it by name.
    #[must_use]
    pub fn take_all(&self) -> Vec<Option<String>> {
        self.take(Blob::Telemetry)
    }

    /// `take(Blob::Privacy)`; kept because the `perfbench` harness
    /// calls it by name.
    #[must_use]
    pub fn take_all_privacy(&self) -> Vec<Option<String>> {
        self.take(Blob::Privacy)
    }

    /// `take(Blob::Mem)`; kept because the `perfbench` harness calls it
    /// by name.
    #[must_use]
    pub fn take_all_mem(&self) -> Vec<Option<String>> {
        self.take(Blob::Mem)
    }

    /// Sets the flight-recorder ring capacity jobs should trace with.
    /// Zero (the default) disables tracing.
    pub fn set_trace_capacity(&self, capacity: usize) {
        self.trace_capacity.store(capacity, Ordering::Relaxed);
    }

    /// The flight-recorder ring capacity for this run (0 = tracing off).
    #[must_use]
    pub fn trace_capacity(&self) -> usize {
        self.trace_capacity.load(Ordering::Relaxed)
    }

    /// Sets the delivery interval between streaming-privacy snapshots.
    /// Zero (the default) disables the privacy observatory.
    pub fn set_privacy_interval(&self, interval: usize) {
        self.privacy_interval.store(interval, Ordering::Relaxed);
    }

    /// The privacy snapshot interval for this run (0 = observatory off).
    #[must_use]
    pub fn privacy_interval(&self) -> usize {
        self.privacy_interval.load(Ordering::Relaxed)
    }

    /// Sets the phase-switch batch span-tracing jobs should profile
    /// with. Zero (the default) disables span tracing and profiling.
    pub fn set_span_batch(&self, batch: usize) {
        self.span_batch.store(batch, Ordering::Relaxed);
    }

    /// The phase-switch batch for this run (0 = span tracing off).
    #[must_use]
    pub fn span_batch(&self) -> usize {
        self.span_batch.load(Ordering::Relaxed)
    }

    /// Sets the root trace context (raw trace id + root span id) for
    /// this sink's spans. Survives [`TelemetrySink::reset`]; a zero
    /// trace id means "no root context".
    pub fn set_root_ctx(&self, trace_id: u64, span_id: u64) {
        self.root_trace_id.store(trace_id, Ordering::Relaxed);
        self.root_span_id.store(span_id, Ordering::Relaxed);
    }

    /// The root `(trace id, span id)` pair, if one was set.
    #[must_use]
    pub fn root_ctx(&self) -> Option<(u64, u64)> {
        let trace_id = self.root_trace_id.load(Ordering::Relaxed);
        if trace_id == 0 {
            return None;
        }
        Some((trace_id, self.root_span_id.load(Ordering::Relaxed)))
    }

    /// The instant job spans measure from (fixed at construction, so
    /// every job attached to this sink shares one time zero).
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the checkpoint window (events per digest window) audit-probe
    /// jobs should digest with. Zero (the default) disables auditing.
    pub fn set_digest_window(&self, window: usize) {
        self.digest_window.store(window, Ordering::Relaxed);
    }

    /// The audit checkpoint window for this run (0 = auditing off).
    #[must_use]
    pub fn digest_window(&self) -> usize {
        self.digest_window.load(Ordering::Relaxed)
    }

    /// Turns per-job allocation-ledger collection on or off for this
    /// run. Off (the default) means jobs neither enable the counting
    /// allocator nor attach mem blobs.
    pub fn set_mem_profile(&self, on: bool) {
        self.mem_profile.store(usize::from(on), Ordering::Relaxed);
    }

    /// Whether jobs should collect allocation ledgers this run.
    #[must_use]
    pub fn mem_profile(&self) -> bool {
        self.mem_profile.load(Ordering::Relaxed) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_names_are_distinct_and_indexed() {
        for (i, blob) in Blob::ALL.iter().enumerate() {
            assert_eq!(blob.index(), i);
        }
        let mut names: Vec<_> = Blob::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Blob::COUNT);
    }

    #[test]
    fn every_family_attaches_and_takes_in_job_order() {
        for blob in Blob::ALL {
            let sink = TelemetrySink::new();
            sink.reset(3);
            sink.attach(blob, 2, "{\"c\":1}");
            sink.attach(blob, 0, "{\"a\":1}");
            sink.attach(blob, 7, "{}"); // out of range: ignored
            assert_eq!(sink.get(blob, 0).as_deref(), Some("{\"a\":1}"));
            assert_eq!(sink.get(blob, 1), None);
            assert_eq!(sink.get(blob, 7), None);
            for other in Blob::ALL.into_iter().filter(|&b| b != blob) {
                assert_eq!(sink.get(other, 0), None, "{blob:?} leaked into {other:?}");
            }
            let all = sink.take(blob);
            assert_eq!(all.len(), 3, "{blob:?}");
            assert_eq!(all[0].as_deref(), Some("{\"a\":1}"));
            assert_eq!(all[1], None);
            assert_eq!(all[2].as_deref(), Some("{\"c\":1}"));
            assert!(sink.take(blob).is_empty(), "take drains {blob:?}");
            assert_eq!(
                sink.take(Blob::ALL[(blob.index() + 1) % Blob::COUNT]).len(),
                3
            );
        }
    }

    #[test]
    fn take_all_forwards_keep_their_families() {
        let sink = TelemetrySink::new();
        sink.reset(1);
        sink.attach(Blob::Telemetry, 0, "t");
        sink.attach(Blob::Privacy, 0, "p");
        sink.attach(Blob::Mem, 0, "m");
        assert_eq!(sink.take_all(), vec![Some("t".to_string())]);
        assert_eq!(sink.take_all_privacy(), vec![Some("p".to_string())]);
        assert_eq!(sink.take_all_mem(), vec![Some("m".to_string())]);
    }

    #[test]
    fn reset_clears_previous_run() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        for blob in Blob::ALL {
            sink.attach(blob, 0, "old");
        }
        sink.reset(2);
        for blob in Blob::ALL {
            assert_eq!(sink.get(blob, 0), None, "reset clears {blob:?}");
        }
    }

    #[test]
    fn trace_capacity_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.trace_capacity(), 0);
        sink.set_trace_capacity(4096);
        assert_eq!(sink.trace_capacity(), 4096);
    }

    #[test]
    fn privacy_interval_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.privacy_interval(), 0);
        sink.set_privacy_interval(100);
        assert_eq!(sink.privacy_interval(), 100);
    }

    #[test]
    fn span_batch_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.span_batch(), 0);
        sink.set_span_batch(64);
        assert_eq!(sink.span_batch(), 64);
    }

    #[test]
    fn digest_window_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.digest_window(), 0);
        sink.set_digest_window(4096);
        assert_eq!(sink.digest_window(), 4096);
    }

    #[test]
    fn mem_profile_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert!(!sink.mem_profile());
        sink.set_mem_profile(true);
        assert!(sink.mem_profile());
        sink.set_mem_profile(false);
        assert!(!sink.mem_profile());
    }

    #[test]
    fn root_ctx_survives_reset() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.root_ctx(), None);
        sink.set_root_ctx(0xabc, 0xdef);
        sink.reset(3);
        assert_eq!(sink.root_ctx(), Some((0xabc, 0xdef)));
        let early = sink.epoch();
        assert!(sink.epoch() == early, "epoch is fixed at construction");
    }
}
