//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code around calls into each
//! crate's public functions; the crates themselves are not instrumented.
//! A span's name is `layer.call`, so a layer's self time is the summed
//! duration of its spans minus the part their children cover. Spans from
//! other threads (runtime jobs, serve clients) are recorded as
//! `parallel`: they overlap each other, so their layer is credited with
//! the union they cover, and the accounting still sums to the traced
//! wall.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Operation (or set-up repeat) the span belongs to.
    pub op: usize,
    /// Start, seconds since the recorder's epoch.
    pub start: f64,
    /// End, seconds since the recorder's epoch.
    pub end: f64,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
    /// Recorded on a pool worker thread, overlapping its siblings.
    pub parallel: bool,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: the name up to the first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans; disabled recorders cost one branch per span.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Open serial spans of the thread driving the benchmark; worker
    /// threads only call [`Tracer::record_parallel`].
    open: Mutex<Vec<usize>>,
    op: AtomicUsize,
    next: AtomicUsize,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open: Mutex::new(Vec::new()),
            op: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with operation index `op`.
    pub fn set_op(&self, op: usize) {
        self.op.store(op, Ordering::Relaxed);
    }

    /// Starts the next operation: subsequent spans carry a fresh index.
    pub fn next_op(&self) {
        self.next.fetch_add(1, Ordering::Relaxed);
        self.op
            .store(self.next.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The operation index spans are currently tagged with.
    #[must_use]
    pub fn op(&self) -> usize {
        self.op.load(Ordering::Relaxed)
    }

    /// Seconds since the recorder's epoch.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name` (nested under the innermost
    /// open span of this thread).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.open_spans().last().copied();
        let start = self.now();
        let index = {
            let mut spans = self.spans.lock().expect("span lock poisoned by a panic");
            spans.push(Span {
                name,
                op: self.op.load(Ordering::Relaxed),
                start,
                end: start,
                parent,
                parallel: false,
            });
            spans.len() - 1
        };
        self.open_spans().push(index);
        let out = f();
        self.open_spans().pop();
        let end = self.now();
        self.spans.lock().expect("span lock poisoned by a panic")[index].end = end;
        out
    }

    /// The innermost open span on the recording thread.
    #[must_use]
    pub fn current(&self) -> Option<usize> {
        self.open_spans().last().copied()
    }

    /// Records a finished span from another thread under `parent`.
    pub fn record_parallel(
        &self,
        name: &'static str,
        op: usize,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) {
        if !self.on {
            return;
        }
        self.spans
            .lock()
            .expect("span lock poisoned by a panic")
            .push(Span {
                name,
                op,
                start,
                end,
                parent,
                parallel: true,
            });
    }

    /// Seconds from the recorder's epoch to `t`.
    #[must_use]
    pub fn offset(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// [`per_op_secs`] over the spans recorded so far.
    #[must_use]
    pub fn per_op_secs(&self, name: &str) -> f64 {
        per_op_secs(
            &self.spans.lock().expect("span lock poisoned by a panic"),
            name,
        )
    }

    fn open_spans(&self) -> std::sync::MutexGuard<'_, Vec<usize>> {
        self.open.lock().expect("span stack poisoned by a panic")
    }

    /// Freezes the recording.
    #[must_use]
    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span lock poisoned by a panic")
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (lo, hi) in intervals {
        match current {
            Some((clo, chi)) if lo <= chi => current = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                current = Some((lo, hi));
            }
            None => current = Some((lo, hi)),
        }
    }
    total + current.map_or(0.0, |(lo, hi)| hi - lo)
}

/// Self seconds per layer plus the part of `wall` no top-level serial
/// span covers; the layer sums and the uncovered part add up to `wall`.
///
/// A serial span's self time is its duration minus the union of all its
/// children. Parallel children (pool jobs, client threads) overlap each
/// other, so their layer is credited with the part of the parent their
/// union covers beyond the serial children, not with their summed
/// durations.
#[must_use]
pub fn layer_accounting(spans: &[Span], wall: f64) -> (BTreeMap<&'static str, f64>, f64) {
    let mut serial: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    let mut parallel: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    let mut parallel_layer: Vec<Option<&'static str>> = vec![None; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        if s.parallel {
            let parent = &spans[p];
            parallel[p].push((s.start.max(parent.start), s.end.min(parent.end)));
            parallel_layer[p] = Some(s.layer());
        } else {
            serial[p].push((s.start, s.end));
        }
    }
    let mut layers = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| !s.parallel) {
        let by_serial = union_len(serial[i].clone());
        let mut all = std::mem::take(&mut serial[i]);
        all.append(&mut parallel[i]);
        let by_all = union_len(all);
        *layers.entry(s.layer()).or_insert(0.0) += s.secs() - by_all;
        if let Some(layer) = parallel_layer[i] {
            *layers.entry(layer).or_insert(0.0) += by_all - by_serial;
        }
    }
    let top: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent.is_none() && !s.parallel)
        .map(|s| (s.start, s.end))
        .collect();
    (layers, wall - union_len(top))
}

/// Median over operations of the summed duration of spans named `name`
/// in each operation; 0 when no such span was recorded.
#[must_use]
pub fn per_op_secs(spans: &[Span], name: &str) -> f64 {
    let mut per_op: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per_op.entry(s.op).or_insert(0.0) += s.secs();
    }
    let values: Vec<f64> = per_op.into_values().collect();
    crate::stats::Summary::of(&values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_uncovered_add_up_to_the_wall() {
        let t = Tracer::new(true);
        t.span("bench.outer", || {
            t.span("net.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let outer = &t.spans.lock().unwrap()[0].clone();
        // Two overlapping worker spans inside the outer span.
        let mid = (outer.start + outer.end) / 2.0;
        t.record_parallel("serve.client", 0, outer.start, mid, Some(0));
        t.record_parallel("serve.client", 1, outer.start, mid, Some(0));
        let spans = t.finish();
        let wall = spans[0].end + 0.5;
        let (layers, uncovered) = layer_accounting(&spans, wall);
        let covered: f64 = layers.values().sum();
        assert!((covered + uncovered - wall).abs() < 1e-9);
        assert!((uncovered - (0.5 + spans[0].start)).abs() < 1e-9);
        // The worker layer is credited once for the overlapping pair.
        assert!(layers["serve"] <= mid - spans[0].start + 1e-9);
        assert!(layers["serve"] >= 0.0 && layers["net"] > 0.0);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (4.0, 5.0)]), 4.0);
        assert_eq!(union_len(Vec::new()), 0.0);
    }
}
