//! Job specs and their execution.
//!
//! A job is one sweep of a named experiment on the paper's Figure-1
//! topology. Clients POST a [`JobSpec`] (partial fields fill in from the
//! smoke defaults), the server canonicalizes it, derives a
//! content-addressed key, and either answers from the shared result
//! cache (warm) or queues the sweep (cold). [`execute`] runs a cold job
//! on a single-worker [`Runtime`] — the serve layer owns concurrency, so
//! the inner sweep must not fan out on its own — and returns the rows as
//! canonical JSON, which is what gets cached and served byte-for-byte.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tempriv_core::experiment::{
    adversary_panel_sweep_with, delay_ablation_sweep_with, fig2_sweep_with, fig3_sweep_with,
    mix_comparison_sweep_with, victim_ablation_sweep_with, SweepParams,
};
use tempriv_core::telemetry::JobAudit;
use tempriv_net::FlowId;
use tempriv_runtime::{content_digest, Blob, Runtime, TelemetrySink};
use tempriv_telemetry::DEFAULT_DIGEST_WINDOW;

/// Experiment names [`execute`] understands.
pub const EXPERIMENTS: &[&str] = &["fig2", "fig3", "adversary", "victim", "delay", "mix"];

/// A sweep submission. Every numeric field is optional in the wire form;
/// zero/empty means "use the smoke default", so a minimal request body is
/// just `{"experiment":"fig2"}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Which sweep to run (one of [`EXPERIMENTS`]).
    pub experiment: String,
    /// Inter-arrival times `1/λ` to sweep (empty = smoke default).
    #[serde(default)]
    pub inv_lambdas: Vec<f64>,
    /// Packets per source per run (0 = smoke default).
    #[serde(default)]
    pub packets_per_source: u32,
    /// Mean artificial delay per hop `1/μ` (0 = smoke default).
    #[serde(default)]
    pub delay_mean: f64,
    /// Buffer slots for limited-buffer scenarios (0 = smoke default).
    #[serde(default)]
    pub capacity: usize,
    /// Master seed (0 = smoke default).
    #[serde(default)]
    pub seed: u64,
    /// Streaming-privacy snapshot interval in events; 0 disables the
    /// observatory (and the job's SSE stream ends immediately).
    #[serde(default)]
    pub privacy_interval: usize,
    /// Enables cross-layer span tracing and the engine self-profiler:
    /// the job records wall-clock spans carrying the request's trace id
    /// plus per-scenario phase breakdowns, exposed at
    /// `GET /v1/jobs/:id/trace`. Part of the canonical spec, so traced
    /// and untraced submissions cache independently.
    #[serde(default)]
    pub trace: bool,
    /// Engine shards per simulation (0 = default 1 = serial). Sharded
    /// jobs run the partitioned parallel engine and cannot attach
    /// per-event instrumentation, so `shards > 1` rejects specs that
    /// also request privacy streaming or tracing. Part of the canonical
    /// spec: sharded and serial submissions cache independently.
    #[serde(default)]
    pub shards: u32,
}

impl JobSpec {
    /// Parses and canonicalizes a request body.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown experiment, or
    /// out-of-range parameters.
    pub fn from_body(body: &[u8]) -> Result<JobSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let spec: JobSpec =
            serde_json::from_str(text).map_err(|e| format!("malformed job spec: {e}"))?;
        spec.canonicalize()
    }

    /// Fills defaulted fields and validates, producing the canonical form
    /// whose JSON is stable for cache keying.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown experiment or invalid parameters.
    pub fn canonicalize(mut self) -> Result<JobSpec, String> {
        if !EXPERIMENTS.contains(&self.experiment.as_str()) {
            return Err(format!(
                "unknown experiment {:?} (expected one of {})",
                self.experiment,
                EXPERIMENTS.join(", ")
            ));
        }
        let smoke = SweepParams::smoke();
        if self.inv_lambdas.is_empty() {
            self.inv_lambdas = smoke.inv_lambdas.clone();
        }
        if self.inv_lambdas.iter().any(|x| !x.is_finite() || *x <= 0.0) {
            return Err("inv_lambdas must be positive and finite".to_string());
        }
        if self.inv_lambdas.len() > 64 {
            return Err("at most 64 sweep points per job".to_string());
        }
        if self.packets_per_source == 0 {
            self.packets_per_source = smoke.packets_per_source;
        }
        if self.packets_per_source > 100_000 {
            return Err("packets_per_source too large (max 100000)".to_string());
        }
        if self.delay_mean == 0.0 {
            self.delay_mean = smoke.delay_mean;
        }
        if !self.delay_mean.is_finite() || self.delay_mean < 0.0 {
            return Err("delay_mean must be non-negative and finite".to_string());
        }
        if self.capacity == 0 {
            self.capacity = smoke.capacity;
        }
        if self.seed == 0 {
            self.seed = smoke.seed;
        }
        if self.shards == 0 {
            self.shards = 1;
        }
        if self.shards > 64 {
            return Err("at most 64 engine shards per simulation".to_string());
        }
        if self.shards > 1 && (self.privacy_interval > 0 || self.trace) {
            return Err("sharded jobs cannot attach per-event instrumentation: \
                 drop privacy_interval/trace or set shards to 1"
                .to_string());
        }
        Ok(self)
    }

    /// Canonical JSON of the spec (call on a canonicalized spec).
    #[must_use]
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }

    /// The content-addressed key a result of this spec is cached under.
    #[must_use]
    pub fn key(&self) -> String {
        content_digest(format!("serve|{}", self.canonical_json()).as_bytes())
    }

    /// Number of sweep points (= runtime jobs = SSE privacy slots).
    #[must_use]
    pub fn points(&self) -> usize {
        self.inv_lambdas.len()
    }

    /// The core sweep parameters this spec describes.
    #[must_use]
    pub fn sweep_params(&self) -> SweepParams {
        SweepParams {
            inv_lambdas: self.inv_lambdas.clone(),
            packets_per_source: self.packets_per_source,
            delay_mean: self.delay_mean,
            capacity: self.capacity,
            report_flow: FlowId(0),
            seed: self.seed,
        }
    }
}

/// Runs a canonical spec to completion and returns the result rows as
/// canonical JSON. When `sink` is given, the runtime streams per-point
/// privacy blobs into it as the sweep progresses (the SSE endpoint polls
/// the same sink); the sink's privacy interval is set from the spec.
///
/// # Errors
///
/// Returns a message when the runtime cannot be built.
pub fn execute(spec: &JobSpec, sink: Option<Arc<TelemetrySink>>) -> Result<String, String> {
    let mut builder = Runtime::builder().workers(1).sim_shards(spec.shards.max(1));
    if spec.shards > 1 {
        // Canonicalization already rejected instrumented sharded specs;
        // dropping the sink here routes every simulation through the
        // probe-free sharded path.
        let runtime = builder.build()?;
        return execute_rows(spec, &runtime);
    }
    if let Some(sink) = &sink {
        // Every instrumented serve job carries the determinism audit:
        // the digest probe is cheap, observes only, and lets the digest
        // endpoint attest any cold run.
        sink.set_digest_window(DEFAULT_DIGEST_WINDOW);
        sink.set_privacy_interval(spec.privacy_interval);
        if spec.trace {
            sink.set_span_batch(tempriv_telemetry::DEFAULT_PHASE_BATCH as usize);
            // Tracing implies a flight recording so the exported timeline
            // carries packet residences alongside the spans.
            if sink.trace_capacity() == 0 {
                sink.set_trace_capacity(1 << 14);
            }
        }
        builder = builder.telemetry_sink(Arc::clone(sink));
    }
    let runtime = builder.build()?;
    execute_rows(spec, &runtime)
}

/// Runs the spec's sweep on `runtime` and serializes the result rows.
fn execute_rows(spec: &JobSpec, runtime: &Runtime) -> Result<String, String> {
    let params = spec.sweep_params();
    let rows_json = match spec.experiment.as_str() {
        "fig2" => serde_json::to_string(&fig2_sweep_with(&params, runtime)),
        "fig3" => serde_json::to_string(&fig3_sweep_with(&params, runtime)),
        "adversary" => serde_json::to_string(&adversary_panel_sweep_with(&params, runtime)),
        "victim" => serde_json::to_string(&victim_ablation_sweep_with(&params, runtime)),
        "delay" => serde_json::to_string(&delay_ablation_sweep_with(&params, runtime)),
        "mix" => serde_json::to_string(&mix_comparison_sweep_with(&params, runtime)),
        other => return Err(format!("unknown experiment {other:?}")),
    };
    rows_json.map_err(|e| format!("result serialization failed: {e}"))
}

/// The digest summary served at `GET /v1/jobs/:id/digest`: one
/// [`JobAudit`] per sweep point plus a job-level root folding the point
/// roots. The serialized summary is cached next to the result rows, so a
/// warm hit replays the exact bytes — and therefore the exact root — the
/// cold run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobDigest {
    /// One audit record per sweep point, in point order.
    pub points: Vec<JobAudit>,
    /// Digest over the per-point roots, in order.
    pub root: String,
}

/// The cache key a spec's digest summary lives under (parallel to the
/// result rows cached under [`JobSpec::key`]).
#[must_use]
pub fn digest_key(key: &str) -> String {
    format!("audit|{key}")
}

/// Folds the per-point audit blobs a cold run attached to `sink` into
/// the serialized [`JobDigest`]. `None` when any point is missing its
/// blob (the run was not audited).
#[must_use]
pub fn collect_digest(sink: &TelemetrySink, points: usize) -> Option<String> {
    let mut audits = Vec::with_capacity(points);
    for point in 0..points {
        let blob = sink.get(Blob::Audit, point)?;
        audits.push(serde_json::from_str::<JobAudit>(&blob).ok()?);
    }
    let mut lines = String::new();
    for audit in &audits {
        lines.push_str(&audit.root);
        lines.push('\n');
    }
    let digest = JobDigest {
        points: audits,
        root: content_digest(lines.as_bytes()),
    };
    Some(serde_json::to_string(&digest).expect("digest summary serializes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> JobSpec {
        JobSpec {
            experiment: "fig2".to_string(),
            inv_lambdas: vec![4.0],
            packets_per_source: 40,
            delay_mean: 8.0,
            capacity: 4,
            seed: 7,
            privacy_interval: 0,
            trace: false,
            shards: 1,
        }
        .canonicalize()
        .unwrap()
    }

    #[test]
    fn minimal_body_fills_smoke_defaults() {
        let spec = JobSpec::from_body(b"{\"experiment\":\"fig3\"}").unwrap();
        let smoke = SweepParams::smoke();
        assert_eq!(spec.inv_lambdas, smoke.inv_lambdas);
        assert_eq!(spec.packets_per_source, smoke.packets_per_source);
        assert_eq!(spec.delay_mean, smoke.delay_mean);
        assert_eq!(spec.capacity, smoke.capacity);
        assert_eq!(spec.seed, smoke.seed);
        assert_eq!(spec.privacy_interval, 0);
    }

    #[test]
    fn unknown_experiment_and_bad_params_are_rejected() {
        assert!(JobSpec::from_body(b"{\"experiment\":\"fig9\"}")
            .unwrap_err()
            .contains("unknown experiment"));
        assert!(JobSpec::from_body(b"not json").is_err());
        assert!(
            JobSpec::from_body(b"{\"experiment\":\"fig2\",\"inv_lambdas\":[-1.0]}")
                .unwrap_err()
                .contains("positive")
        );
    }

    #[test]
    fn key_is_stable_and_spec_sensitive() {
        let a = tiny_spec();
        let b = tiny_spec();
        assert_eq!(a.key(), b.key());
        let mut c = tiny_spec();
        c.seed = 8;
        assert_ne!(a.key(), c.key());
        let mut d = tiny_spec();
        d.experiment = "fig3".to_string();
        assert_ne!(a.key(), d.key());
    }

    #[test]
    fn execute_is_deterministic_byte_for_byte() {
        let spec = tiny_spec();
        let first = execute(&spec, None).unwrap();
        let second = execute(&spec, None).unwrap();
        assert_eq!(first, second, "same spec must produce identical bytes");
        assert!(first.starts_with('['), "rows serialize as a JSON array");
    }

    #[test]
    fn trace_flag_changes_the_cache_key() {
        let plain = tiny_spec();
        let mut traced = tiny_spec();
        traced.trace = true;
        assert_ne!(plain.key(), traced.key());
        // Wire form without the field still parses (defaults to off).
        let spec = JobSpec::from_body(b"{\"experiment\":\"fig2\"}").unwrap();
        assert!(!spec.trace);
    }

    #[test]
    fn shards_knob_is_validated_and_cache_keyed() {
        let serial = tiny_spec();
        let mut sharded = tiny_spec();
        sharded.shards = 4;
        let sharded = sharded.canonicalize().unwrap();
        assert_ne!(serial.key(), sharded.key());
        // Wire form without the field still parses (defaults to serial).
        let spec = JobSpec::from_body(b"{\"experiment\":\"fig2\"}").unwrap();
        assert_eq!(spec.shards, 1);
        // Sharded jobs cannot attach per-event instrumentation.
        let mut bad = tiny_spec();
        bad.shards = 2;
        bad.privacy_interval = 50;
        assert!(bad
            .canonicalize()
            .unwrap_err()
            .contains("per-event instrumentation"));
        let err = JobSpec::from_body(b"{\"experiment\":\"fig2\",\"shards\":65}").unwrap_err();
        assert!(err.contains("at most 64"));
    }

    #[test]
    fn sharded_execution_reproduces_serial_rows() {
        let serial = tiny_spec();
        let mut spec = tiny_spec();
        spec.shards = 4;
        let spec = spec.canonicalize().unwrap();
        // The fig2 sweep draws nothing from the shared global streams,
        // so the partitioned engine reproduces the serial rows exactly.
        assert_eq!(
            execute(&spec, None).unwrap(),
            execute(&serial, None).unwrap()
        );
    }

    #[test]
    fn execute_attaches_spans_when_traced() {
        use tempriv_core::telemetry::JobSpans;
        let mut raw = tiny_spec();
        raw.trace = true;
        let spec = raw.canonicalize().unwrap();
        let sink = Arc::new(TelemetrySink::new());
        sink.set_root_ctx(0xabcd, 0xef01);
        execute(&spec, Some(Arc::clone(&sink))).unwrap();
        let blobs = sink.take(Blob::Spans);
        assert_eq!(blobs.len(), spec.points());
        let spans: JobSpans = serde_json::from_str(blobs[0].as_deref().unwrap()).unwrap();
        assert!(!spans.spans.is_empty());
        assert!(!spans.profiles.is_empty());
        // Every span hangs off the request's root trace id.
        let trace_id = spans.spans[0].trace_id;
        assert!(spans.spans.iter().all(|s| s.trace_id == trace_id));
        // Tracing implies flight recording.
        assert!(sink.get(Blob::Trace, 0).is_some());
    }

    #[test]
    fn execute_streams_privacy_blobs_when_asked() {
        let mut raw = tiny_spec();
        raw.privacy_interval = 50;
        let spec = raw.canonicalize().unwrap();
        let sink = Arc::new(TelemetrySink::new());
        execute(&spec, Some(Arc::clone(&sink))).unwrap();
        let blobs = sink.take(Blob::Privacy);
        assert_eq!(blobs.len(), spec.points());
        assert!(blobs[0].as_deref().is_some_and(|b| b.contains("series")));
    }
}
