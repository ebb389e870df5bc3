//! Result assembly: the human-readable run record and metric tables,
//! then the final JSON line with the metrics `BENCHMARK.json` names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Summary;
use crate::trace::{layer_accounting, Span};
use crate::Config;

/// End-to-end metrics of the JSON line (`--trace 0`): defined for every
/// workload, never zero, and measured on the process CPU clock where they
/// are timings (see [`crate::cpu`]); the per-op time is scaled to the
/// host-speed reference (see [`crate::speed`]). An op is one sweep
/// (`fig1_sweep`), one field run (`geo_field`) or one accepted submission
/// (`serve_mixed`). Wall-clock figures print as text beside them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("norm_cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the JSON line (`--trace 1`). A metric whose call
/// the workload never makes reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("net.sample_s", "s"),
    ("net.route_s", "s"),
    ("core.build_s", "s"),
    ("core.run_s", "s"),
    ("sim.phase.engine_loop_s", "s"),
    ("sim.phase.create_s", "s"),
    ("sim.phase.arrive_s", "s"),
    ("sim.phase.release_s", "s"),
    ("sim.phase.queue_push_s", "s"),
    ("sim.phase.victim_select_s", "s"),
    ("sim.phase.probe_s", "s"),
    ("sim.events", "count"),
    ("sim.peak_fes", "count"),
    ("core.rng_draws", "count"),
    ("core.allocs_per_delivered", "count"),
    ("core.live_peak_mb", "MB"),
    ("core.plan_s", "s"),
    ("core.sharded_run_s", "s"),
    ("core.shard_imbalance", "ratio"),
    ("core.handoffs_per_event", "ratio"),
    ("telemetry.collector_run_s", "s"),
    ("telemetry.probe_overhead", "ratio"),
    ("telemetry.export_s", "s"),
    ("telemetry.export_bytes", "bytes"),
    ("core.adversary_s", "s"),
    ("runtime.job_s_p50", "s"),
    ("runtime.job_s_max", "s"),
    ("runtime.idle_frac", "ratio"),
    ("serve.warm_submit_ms_p50", "ms"),
    ("serve.warm_submit_ms_p99", "ms"),
    ("serve.cold_submit_ms_p50", "ms"),
    ("serve.polls_per_cold", "count"),
    ("serve.result_ms_p50", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.job_wall_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.rejected_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// What one timed body produced.
#[derive(Debug, Default)]
pub struct Body {
    /// Wall milliseconds of each completed operation.
    pub op_ms: Vec<f64>,
    /// Operations attempted (completed or failed).
    pub attempted: u64,
    /// Operations that failed (failed jobs, transport errors).
    pub failed: u64,
    /// Wall seconds of the whole body.
    pub wall_s: f64,
    /// Engine events the body's simulations delivered (0 = not counted).
    pub events: u64,
    /// Wall throughput samples: events per second of each run
    /// (simulation workloads) or accepted submissions per second over each
    /// block of completions (`serve_mixed`).
    pub rates: Vec<f64>,
    /// Process CPU milliseconds per op: of each run (simulation
    /// workloads) or per submission over each block of completions
    /// (`serve_mixed`).
    pub cpu_ms: Vec<f64>,
    /// Submit-to-done milliseconds of cold serve jobs.
    pub cold_ms: Vec<f64>,
    /// Operations are serve submissions (prints the `serve_*` metrics).
    pub serve: bool,
}

impl Body {
    /// Folds another chunk of the same body into this one.
    pub fn merge(&mut self, other: Body) {
        self.op_ms.extend(other.op_ms);
        self.cold_ms.extend(other.cold_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.events += other.events;
        self.rates.extend(other.rates);
        self.cpu_ms.extend(other.cpu_ms);
        self.serve |= other.serve;
    }
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// CPU seconds of each set-up repeat in this process.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each set-up repeat in this process.
    pub setup_wall_s: Vec<f64>,
    /// Median set-up CPU seconds of each set-up probe process and of this
    /// one; `setup_s` is their median.
    pub setup_medians: Vec<f64>,
    /// High-water RSS in MB where the workload fixes the reading point
    /// (`serve_mixed`); otherwise the process's at the end of the run.
    pub rss_mb: Option<f64>,
    /// Process CPU ms per op scaled to the reference's nominal speed
    /// (untraced runs).
    pub norm_cpu_ms: Vec<f64>,
    /// Host-speed reference measurements around each untraced chunk, ms.
    pub reference_ms: Vec<f64>,
    /// The measured body (the traced chunks in a traced run).
    pub body: Body,
    /// The untraced chunks of a traced run.
    pub untraced: Option<Body>,
    /// Output checks: description and whether it passed.
    pub checks: Vec<(String, bool)>,
    /// Per-layer values by name; `None` prints as unresolved.
    pub layer: BTreeMap<&'static str, Option<f64>>,
    /// Outcome digest compared against `perfbench/digests.txt`.
    pub digest: Option<String>,
    /// Informational lines for the run record.
    pub notes: Vec<String>,
    /// Wall seconds of the whole run.
    pub wall_s: f64,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, Some(value));
    }
}

/// Digests recorded for the default seeds: `workload seed digest` lines.
const DIGESTS: &str = include_str!("../digests.txt");

/// The recorded digest of `workload` at `seed`, if any.
fn recorded_digest(workload: &str, seed: u64) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse() == Ok(seed)).then_some(d)
    })
}

/// The process's high-water RSS (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    tempriv_telemetry::memprof::peak_rss_bytes()
        .map_or(f64::NAN, |b| b as f64 / (1u64 << 20) as f64)
}

/// JSON number (or `null` for an unresolved or non-finite value).
fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:?}"),
        _ => "null".to_string(),
    }
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

fn line_summary(name: &str, unit: &str, samples: &[f64]) -> String {
    match Summary::of(samples) {
        Some(s) => format!("{name:<26} {}", s.render(unit)),
        None => format!("{name:<26} unresolved (no samples)"),
    }
}

/// Prints the run record, the metric tables and checks, then the final
/// JSON line. Returns whether every check and operation succeeded.
pub fn print(cfg: &Config, out: &mut Outcome) -> bool {
    if !cfg.tiny {
        match (&out.digest, recorded_digest(&cfg.workload, cfg.seed)) {
            (Some(got), Some(want)) => out.check(
                format!("outcome digest {got} equals the recorded {want}"),
                got == want,
            ),
            (Some(got), None) => out.notes.push(format!(
                "outcome digest {got} (no recorded digest for this seed)"
            )),
            (None, _) => {}
        }
    }
    let mut text = String::new();
    let _ = writeln!(text, "# run record");
    for (k, v) in crate::machine::record() {
        let _ = writeln!(text, "{k:<14} {v}");
    }
    let _ = writeln!(
        text,
        "{:<14} {} seed={} seconds={} trace={} tiny={}",
        "run",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.tiny
    );
    let _ = writeln!(
        text,
        "{:<14} {} set-ups, {} ops in {:.3}s, run wall {:.3}s; medians with quartiles, never best-of-N",
        "repeats",
        out.setup_s.len(),
        out.body.op_ms.len(),
        out.body.wall_s,
        out.wall_s
    );
    for note in &out.notes {
        let _ = writeln!(text, "note           {note}");
    }

    let body = &out.body;
    let failed_checks = out.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let untraced_attempted = out.untraced.as_ref().map_or(0, |b| b.attempted);
    let untraced_failed = out.untraced.as_ref().map_or(0, |b| b.failed);
    let attempted = body.attempted + untraced_attempted + out.checks.len() as u64;
    let failed = body.failed + untraced_failed + failed_checks;
    let setup = median(&out.setup_medians);
    let throughput = median(&body.rates);
    let rss = out.rss_mb.unwrap_or_else(peak_rss_mb);

    let _ = writeln!(
        text,
        "# end-to-end ({})",
        if cfg.trace {
            "traced chunks"
        } else {
            "untraced"
        }
    );
    let _ = writeln!(text, "{}", line_summary("setup_s", "s", &out.setup_medians));
    let _ = writeln!(
        text,
        "{}",
        line_summary("setup_s.this_process", "s", &out.setup_s)
    );
    if !body.serve {
        let _ = writeln!(
            text,
            "{}",
            line_summary("events_per_sec", "1/s", &body.rates)
        );
        let _ = writeln!(
            text,
            "{:<26} {} events in {:.3} s of runs",
            "events", body.events, body.wall_s
        );
    }
    let _ = writeln!(text, "{:<26} {rss:.1} MB", "peak_rss_mb");
    let _ = writeln!(
        text,
        "{:<26} {:.6} ({failed} of {attempted})",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    let n = body.op_ms.len();
    let serve_extra = [
        ("serve_rps", "1/s", Some(throughput), body.rates.len()),
        (
            "serve_p50_ms",
            "ms",
            Summary::of(&body.op_ms).map(|s| s.median),
            n,
        ),
        (
            "serve_p99_ms",
            "ms",
            Summary::percentile(&body.op_ms, 99.0),
            n,
        ),
        (
            "serve_cold_p50_ms",
            "ms",
            Summary::of(&body.cold_ms).map(|s| s.median),
            body.cold_ms.len(),
        ),
    ];
    for (name, unit, value, n) in serve_extra.iter().filter(|_| body.serve) {
        match value {
            Some(v) => {
                let _ = writeln!(text, "{name:<26} {v:.4} {unit} (n={n})");
            }
            None => {
                let _ = writeln!(text, "{name:<26} unresolved (n={n})");
            }
        }
    }
    let _ = writeln!(text, "{}", line_summary("op_ms", "ms", &body.op_ms));
    let _ = writeln!(
        text,
        "{}",
        line_summary("cpu_ms_per_op", "ms", &body.cpu_ms)
    );
    if !cfg.trace {
        let _ = writeln!(
            text,
            "{}",
            line_summary("reference_ms", "ms", &out.reference_ms)
        );
        let _ = writeln!(
            text,
            "{}",
            line_summary("norm_cpu_ms_per_op", "ms", &out.norm_cpu_ms)
        );
    }

    let mut metrics: Vec<(&str, &str, Option<f64>)> = Vec::new();
    if cfg.trace {
        let traced_wall = out.wall_s;
        let (layers, uncovered) = layer_accounting(&out.spans, traced_wall);
        let overhead = out
            .untraced
            .as_ref()
            .map(|u| median(&body.cpu_ms) / median(&u.cpu_ms) - 1.0);
        out.layer("trace.wall_s", traced_wall);
        out.layer("trace.uncovered_s", uncovered);
        out.layer.insert("trace.overhead_frac", overhead);
        let _ = writeln!(text, "# layer self time (span minus serial children)");
        for (layer, secs) in &layers {
            let _ = writeln!(text, "{:<26} {secs:.6}s", format!("self.{layer}"));
        }
        let covered: f64 = layers.values().sum();
        let _ = writeln!(
            text,
            "{:<26} {covered:.6}s + uncovered {uncovered:.6}s = {:.6}s of traced wall {traced_wall:.6}s",
            "accounting",
            covered + uncovered
        );
        if let Some(o) = overhead {
            let _ = writeln!(
                text,
                "{:<26} {o:+.4} (traced vs untraced CPU ms per op, medians)",
                "tracing overhead"
            );
        }
        let _ = writeln!(text, "# per-layer");
        for (name, unit) in PER_LAYER {
            let v = out.layer.get(name).copied().unwrap_or(Some(0.0));
            match v {
                Some(x) => {
                    let _ = writeln!(text, "{name:<26} {x:.6} {unit}");
                }
                None => {
                    let _ = writeln!(text, "{name:<26} unresolved");
                }
            }
            metrics.push((name, unit, v));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => setup,
                "norm_cpu_ms_per_op" => median(&out.norm_cpu_ms),
                _ => rss,
            };
            metrics.push((name, unit, Some(v)));
        }
    }
    let _ = writeln!(text, "# checks");
    for (what, ok) in &out.checks {
        let _ = writeln!(text, "{} {what}", if *ok { "PASS" } else { "FAIL" });
    }
    let correct = failed == 0;
    let body_json: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    print!("{text}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body_json.join(", ")
    );
    correct
}
