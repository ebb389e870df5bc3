//! CLI subcommand implementations.
//!
//! Each command takes parsed [`Args`] and a writer, returning an error
//! string on failure — keeping everything unit-testable without spawning
//! processes.

use std::io::Write;
use std::sync::Arc;

use tempriv_core::config::ExperimentConfig;
use tempriv_core::experiment::{
    adversary_panel_sweep_with, delay_ablation_sweep_with, fig2_sweep_with, fig3_sweep_with,
    mix_comparison_sweep_with, victim_ablation_sweep_with, SweepParams,
};
use tempriv_core::replication::{replicate, ReplicatedMetric};
use tempriv_core::report::PrivacyAssessment;
use tempriv_core::telemetry::{privacy_flow_configs, JobMem, JobSpans, JobTrace, TelemetryExport};
use tempriv_core::SimOutcome;
use tempriv_infotheory::bounds::{btq_packet_bound_nats, btq_stream_bound_nats};
use tempriv_infotheory::DEFAULT_STREAMING_BINS;
use tempriv_queueing::erlang::{erlang_b, min_servers_for_loss, service_rate_for_loss};
use tempriv_queueing::mm_inf::MmInf;
use tempriv_runtime::{Blob, ManifestReader, ResultCache, Runtime, StderrReporter, TelemetrySink};
use tempriv_telemetry::{
    chrome_span_events, memprof, wrap_chrome_events, DigestProbe, FlightRecorder,
    FlowPrivacySummary, LineageOutcome, MemBreakdown, PhaseBreakdown, PrivacyProbe, SimProbe,
    SpanRecord, TraceCtx, DEFAULT_DIGEST_WINDOW, DEFAULT_FLIGHT_CAPACITY, DEFAULT_PHASE_BATCH,
};

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
tempriv — temporal privacy toolkit (ICDCS 2007 reproduction)

USAGE:
    tempriv <command> [args]

COMMANDS:
    run <config.json>        run one experiment config; print a summary
        [--out outcome.json] dump the full outcome as JSON
        [--seed N]           override the config's seed
    init-config <path>       write the paper-default config template
    assess <config.json>     replicate a config across seeds; print
        [--replications N]   mean +/- 95% CI per flow (default N = 5)
    sweep                    experiment sweep on the paper layout
        [--experiment E]     fig2 (default, table), or JSON-rows sweeps:
                             fig3, adversary-panel, victim-ablation,
                             delay-ablation, mix-comparison
        [--points 2,4,...]   inter-arrival times (default: 2..20)
        [--packets N]        packets per source (default 1000)
        [--seed N]
        [--workers N]        worker threads (default: all cores)
        [--cache-dir DIR]    persist results; warm reruns skip done work
        [--manifest PATH]    journal the run as JSONL (enables resume)
        [--telemetry PATH]   instrument the run; write the aggregated
                             telemetry export (occupancy, preemptions,
                             drops, theory cross-checks) as JSON
        [--trace-capacity N] also flight-record packet lifecycles into
                             a ring of N events per job (needs
                             --telemetry; blobs journal to --manifest)
        [--privacy-interval N]  also stream per-flow I(X;Z) estimates,
                             snapshotting every N deliveries (needs
                             --telemetry; blobs journal to --manifest)
        [--digest-window N]  also fold every scenario into windowed
                             determinism digests (needs --telemetry;
                             audit blobs journal to --manifest)
        [--mem-profile]      also count heap allocations per engine
                             phase via the counting allocator (needs
                             --telemetry; ledgers journal to --manifest)
        [--quiet]            suppress stderr progress
    resume <run.jsonl>       finish an interrupted sweep from its manifest
        [--workers N] [--telemetry PATH] [--trace-capacity N]
        [--privacy-interval N] [--digest-window N] [--quiet]
    report <run.jsonl|dir>   aggregate per-job telemetry from a manifest,
                             or from every *.jsonl manifest in a directory
        [--format F]         text (default), json, or prometheus
        [--bench DIR]        instead summarize the BENCH_*.json benchmark
                             reports in DIR: headline metric, per-probe
                             overhead, gate PASS/FAIL/MISSING
        [--trajectory FILE]  with --bench: core events/sec delta against
                             an earlier BENCH_core.json
    trace [config.json]      flight-record one run (paper default config
                             when omitted) and dump packet lifecycles
        [--seed N] [--packets N]  override the config
        [--capacity N]       ring-buffer capacity (default 262144)
        [--flow F] [--node N] [--packet P]  keep matching events only
        [--format F]         text (default), jsonl, or chrome
                             (chrome loads in chrome://tracing / Perfetto)
        [--out PATH]         write the dump to a file instead of stdout
        [--expect-root HEX]  also digest the run and check its root;
                             with [--fail-on-divergence] a mismatch
                             exits with code 2
        [--digest-window N]  checkpoint window for --expect-root
    profile                  run a sweep under the engine self-profiler;
                             print the per-phase wall-time table
        [--experiment E]     sweep to profile (default fig2)
        [--points 2,4,...]   inter-arrival times (default: smoke points)
        [--packets N] [--seed N]
        [--batch N]          switches per clock read (default 64)
        [--json]             print the merged breakdown as JSON
                             (text mode adds the per-phase allocation
                             ledger and the process peak RSS)
        [--out PATH]         also write the merged Chrome trace (spans +
                             phase bands + packet residences; loads in
                             chrome://tracing / Perfetto)
    watch [run.jsonl]        live streaming-privacy view: tail a manifest
                             journaled with --privacy-interval, or (with
                             no argument) run the paper default config
                             in-process and watch per-flow MI converge
        [--poll-ms N]        manifest poll interval (default 250)
        [--once]             render the current state once and exit
        [--seed N] [--packets N]  one-shot run overrides
        [--interval N]       deliveries between snapshots (default 100)
        [--bins N]           streaming histogram resolution (default 32)
        [--out PATH]         write the final privacy series JSON
    serve                    run the simulation-as-a-service HTTP server
        [--addr A]           listen address (default 127.0.0.1:7077)
        [--workers N]        job worker threads (default 2)
        [--cache-dir DIR]    persist results; warm submissions answer
                             from the cache without re-simulating
        [--manifest PATH]    journal submissions as JSONL; a restarted
                             server resumes its queue exactly
        [--max-queue N]      bound on queued+running jobs (default 64)
        [--tenant-quota N]   per-tenant bound (default 16); overflow
                             returns 429 + Retry-After
    bench serve              load-drive the serve API; report latency
                             percentiles, throughput, and hit-rate
        [--submissions N]    total submissions (default 2000)
        [--concurrency N]    client threads (default 16)
        [--tenants N] [--distinct N] [--packets N] [--experiment E]
        [--addr A]           target an external server (default:
                             spawn one in-process)
        [--server-workers N] in-process server workers (default 4)
        [--out PATH]         write the JSON report (BENCH_serve.json)
    cache stats --cache-dir DIR    count cached results
    cache clear --cache-dir DIR    delete cached results
    calc erlang  --rho R --slots K          Erlang loss E(R, K)
    calc servers --rho R --alpha A          min slots for target loss
    calc mu      --lambda L --slots K --alpha A   rate-controlled mu
    calc mminf   --lambda L --mu M          M/M/inf occupancy stats
    calc btq     --lambda L --mu M [--j J] [--n N]  leakage bounds (nats)
    audit run [config.json]  digest one run: fold the packet event stream
                             into windowed checkpoints + a run root
        [--seed N] [--packets N]  override the config
        [--window N]         events per checkpoint (default 4096)
        [--out digest.json]  write the digest (stdout JSON otherwise)
    audit diff <a.json> <b.json>   compare two digests; name the first
                             divergent window
    audit bisect [config.json]     run two variants, then re-run the
                             first divergent window with full capture to
                             pinpoint the exact first divergent event
        (--against other.json | --against-seed M)
        [--seed N] [--packets N] [--window N]
    audit ledger (--check | --update)  verify or extend the committed
                             determinism ledger (results/LEDGER.json)
        [--ledger PATH] [--label L]
    help                     show this text

Exit codes: 0 success / 1 error / 2 divergence. `audit diff`, `audit
bisect`, `audit ledger --check`, and `trace --expect-root` report
divergences on stdout and exit 0 unless --fail-on-divergence is given,
which maps any detected divergence to exit code 2.
";

/// A command failure plus the process exit code it maps to: ordinary
/// errors exit 1, detected determinism divergences (under
/// `--fail-on-divergence`) exit 2, so scripts can tell "the runs
/// differ" from "the tool broke".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An ordinary failure (bad arguments, I/O, invalid config): exit 1.
    Error(String),
    /// A detected divergence escalated by `--fail-on-divergence`: exit 2.
    Divergence(String),
}

impl CliError {
    /// The human-readable message.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            CliError::Error(msg) | CliError::Divergence(msg) => msg,
        }
    }

    /// The process exit code this failure maps to.
    #[must_use]
    pub const fn exit_code(&self) -> u8 {
        match self {
            CliError::Error(_) => 1,
            CliError::Divergence(_) => 2,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Error(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Error(msg.to_string())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns a [`CliError`] carrying a human-readable message on any
/// failure (unknown command, bad arguments, I/O, invalid config) and
/// the exit code it maps to (1 for errors, 2 for divergences detected
/// under `--fail-on-divergence`).
pub fn dispatch<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    match args.positional(0) {
        None | Some("help") => {
            write!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        Some("run") => cmd_run(args, out).map_err(CliError::Error),
        Some("assess") => cmd_assess(args, out).map_err(CliError::Error),
        Some("init-config") => cmd_init_config(args, out).map_err(CliError::Error),
        Some("sweep") => cmd_sweep(args, out).map_err(CliError::Error),
        Some("resume") => cmd_resume(args, out).map_err(CliError::Error),
        Some("report") => cmd_report(args, out).map_err(CliError::Error),
        Some("trace") => cmd_trace(args, out),
        Some("profile") => cmd_profile(args, out).map_err(CliError::Error),
        Some("watch") => cmd_watch(args, out).map_err(CliError::Error),
        Some("cache") => cmd_cache(args, out).map_err(CliError::Error),
        Some("serve") => crate::serve_cmd::cmd_serve(args, out).map_err(CliError::Error),
        Some("bench") => crate::serve_cmd::cmd_bench(args, out).map_err(CliError::Error),
        Some("calc") => cmd_calc(args, out).map_err(CliError::Error),
        Some("audit") => crate::audit_cmd::cmd_audit(args, out),
        Some(other) => Err(format!("unknown command `{other}`; try `tempriv help`").into()),
    }
}

pub(crate) fn io_err(e: std::io::Error) -> String {
    format!("I/O error: {e}")
}

fn cmd_run<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args
        .positional(1)
        .ok_or("usage: tempriv run <config.json> [--out outcome.json] [--seed N]")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut cfg: ExperimentConfig =
        serde_json::from_str(&raw).map_err(|e| format!("invalid config {path}: {e}"))?;
    if let Some(seed) = args.option("seed") {
        cfg.seed = seed
            .parse()
            .map_err(|_| format!("invalid --seed `{seed}`"))?;
    }
    let sim = cfg.build().map_err(|e| e.to_string())?;
    let shards: u32 = args.option_as("shards", 1)?;
    let workers: usize = args.option_as("workers", 1)?;
    if shards == 0 || workers == 0 {
        return Err("--shards and --workers must be positive".into());
    }
    let started = std::time::Instant::now();
    let outcome = if shards > 1 {
        sim.run_sharded(shards, workers)
    } else {
        sim.run()
    };
    let wall = started.elapsed().as_secs_f64();

    writeln!(out, "experiment: {path} (seed {})", cfg.seed).map_err(io_err)?;
    writeln!(
        out,
        "delivered {}/{} packets; {} preemptions, {} drops, {} link losses",
        outcome.total_delivered(),
        outcome.flows.iter().map(|f| f.created).sum::<u64>(),
        outcome.total_preemptions(),
        outcome.total_drops(),
        outcome.link_losses,
    )
    .map_err(io_err)?;
    let report = PrivacyAssessment::assess(&sim, &outcome);
    writeln!(
        out,
        "\n{:<6} {:>5} {:>10} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "flow", "hops", "latency", "p95", "baseline", "adaptive", "route-aware", "oracle"
    )
    .map_err(io_err)?;
    for f in &report.flows {
        writeln!(
            out,
            "{:<6} {:>5} {:>10.1} {:>9.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            f.flow.to_string(),
            f.hops,
            f.mean_latency,
            f.latency_p95.unwrap_or(f64::NAN),
            f.baseline_mse,
            f.adaptive_mse,
            f.route_aware_mse,
            f.oracle_mse,
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "\nradio energy per delivered packet: {:.1}",
        report.energy_per_delivered
    )
    .map_err(io_err)?;
    if !outcome.shards.is_empty() {
        write!(out, "{}", shard_table(&outcome, wall)).map_err(io_err)?;
    }
    if let Some(dump) = args.option("out") {
        let json = serde_json::to_string_pretty(&outcome)
            .map_err(|e| format!("serialize outcome: {e}"))?;
        std::fs::write(dump, json).map_err(|e| format!("cannot write {dump}: {e}"))?;
        writeln!(out, "\n[outcome written to {dump}]").map_err(io_err)?;
    }
    Ok(())
}

/// Renders the per-shard events/sec table of a sharded outcome:
/// partition size, events handled (with the shard's share of the
/// total), cross-shard handoffs shipped, peak future-event-set size,
/// and events per wall second attributed to the shard.
fn shard_table(outcome: &SimOutcome, wall_secs: f64) -> String {
    use std::fmt::Write as _;
    let total = outcome.events.max(1);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\n{:<6} {:>9} {:>12} {:>7} {:>10} {:>9} {:>12}",
        "shard", "nodes", "events", "share", "handoffs", "peak FES", "events/sec"
    );
    for st in &outcome.shards {
        let rate = if wall_secs > 0.0 {
            st.events as f64 / wall_secs
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "{:<6} {:>9} {:>12} {:>6.1}% {:>10} {:>9} {:>12.0}",
            st.shard,
            st.nodes,
            st.events,
            100.0 * st.events as f64 / total as f64,
            st.handoffs_out,
            st.peak_fes,
            rate,
        );
    }
    let _ = writeln!(
        s,
        "total  {:>9} {:>12} {:>6.0}% {:>10} {:>9} {:>12.0}",
        outcome.nodes.len(),
        outcome.events,
        100.0,
        outcome.shards.iter().map(|s| s.handoffs_out).sum::<u64>(),
        outcome.peak_fes,
        if wall_secs > 0.0 {
            outcome.events as f64 / wall_secs
        } else {
            0.0
        },
    );
    s
}

fn cmd_assess<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args
        .positional(1)
        .ok_or("usage: tempriv assess <config.json> [--replications N]")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cfg: ExperimentConfig =
        serde_json::from_str(&raw).map_err(|e| format!("invalid config {path}: {e}"))?;
    let replications: u32 = args.option_as("replications", 5)?;
    if replications == 0 {
        return Err("--replications must be positive".into());
    }
    // Validate once up front so workers cannot panic on a bad config.
    cfg.build().map_err(|e| e.to_string())?;
    let assessments = replicate(cfg.seed, replications, |seed| {
        let mut cfg = cfg.clone();
        cfg.seed = seed;
        let sim = cfg.build().expect("validated config");
        let outcome = sim.run();
        PrivacyAssessment::assess(&sim, &outcome)
    });
    writeln!(
        out,
        "{path}: {} replications (seeds derived from base {} via splitmix64)",
        replications, cfg.seed,
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "\n{:<6} {:>22} {:>22} {:>22}",
        "flow", "baseline MSE", "route-aware MSE", "latency"
    )
    .map_err(io_err)?;
    let flows = assessments[0].flows.len();
    for i in 0..flows {
        let stat = |f: &dyn Fn(&PrivacyAssessment) -> f64| {
            let values: Vec<f64> = assessments.iter().map(f).collect();
            ReplicatedMetric::from_values(&values)
        };
        let baseline = stat(&|a| a.flows[i].baseline_mse);
        let route = stat(&|a| a.flows[i].route_aware_mse);
        let latency = stat(&|a| a.flows[i].mean_latency);
        writeln!(
            out,
            "f{:<5} {:>12.0} ± {:<7.0} {:>12.0} ± {:<7.0} {:>12.1} ± {:<7.1}",
            i, baseline.mean, baseline.ci95, route.mean, route.ci95, latency.mean, latency.ci95
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn cmd_init_config<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args
        .positional(1)
        .ok_or("usage: tempriv init-config <path>")?;
    let cfg = ExperimentConfig::paper_default();
    let json = serde_json::to_string_pretty(&cfg).map_err(|e| format!("serialize config: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(out, "paper-default config written to {path}").map_err(io_err)?;
    Ok(())
}

/// An active telemetry collection: the sink shared with the runtime and
/// the path the aggregated export will be written to.
type ActiveTelemetry = (Arc<TelemetrySink>, String);

/// Builds the experiment runtime from CLI flags. `fallback_cache_dir` and
/// `fallback_manifest` come from a manifest being resumed; explicit flags
/// win over them. When `--telemetry PATH` is given, a sink is wired into
/// the runtime and returned for export after the run.
fn build_runtime(
    args: &Args,
    fallback_cache_dir: Option<&str>,
    fallback_manifest: Option<&str>,
) -> Result<(Runtime, Option<ActiveTelemetry>), String> {
    let mut builder = Runtime::builder();
    if let Some(raw) = args.option("workers") {
        let workers: usize = raw
            .parse()
            .map_err(|_| format!("invalid value for --workers: `{raw}`"))?;
        if workers == 0 {
            return Err("--workers must be positive".into());
        }
        builder = builder.workers(workers);
    }
    if let Some(dir) = args.option("cache-dir").or(fallback_cache_dir) {
        builder = builder.cache_dir(dir);
    }
    if let Some(path) = args.option("manifest").or(fallback_manifest) {
        builder = builder.manifest_path(path);
    }
    if !args.flag("quiet") {
        builder = builder.observer(Arc::new(StderrReporter::new()));
    }
    let telemetry = args.option("telemetry").map(|path| {
        let sink = Arc::new(TelemetrySink::new());
        (sink, path.to_string())
    });
    if let Some((sink, _)) = &telemetry {
        builder = builder.telemetry_sink(Arc::clone(sink));
    }
    if let Some(raw) = args.option("trace-capacity") {
        let capacity: usize = raw
            .parse()
            .map_err(|_| format!("invalid value for --trace-capacity: `{raw}`"))?;
        if capacity == 0 {
            return Err("--trace-capacity must be positive".into());
        }
        let Some((sink, _)) = &telemetry else {
            return Err("--trace-capacity requires --telemetry".into());
        };
        sink.set_trace_capacity(capacity);
    }
    if let Some(raw) = args.option("privacy-interval") {
        let interval: usize = raw
            .parse()
            .map_err(|_| format!("invalid value for --privacy-interval: `{raw}`"))?;
        if interval == 0 {
            return Err("--privacy-interval must be positive".into());
        }
        let Some((sink, _)) = &telemetry else {
            return Err("--privacy-interval requires --telemetry".into());
        };
        sink.set_privacy_interval(interval);
    }
    if let Some(raw) = args.option("digest-window") {
        let window: usize = raw
            .parse()
            .map_err(|_| format!("invalid value for --digest-window: `{raw}`"))?;
        if window == 0 {
            return Err("--digest-window must be positive".into());
        }
        let Some((sink, _)) = &telemetry else {
            return Err("--digest-window requires --telemetry".into());
        };
        sink.set_digest_window(window);
    }
    if args.flag("mem-profile") {
        let Some((sink, _)) = &telemetry else {
            return Err("--mem-profile requires --telemetry".into());
        };
        sink.set_mem_profile(true);
        // The counting allocator is process-global; once any run wants
        // attribution it stays on (workers may still be counting).
        tempriv_telemetry::memprof::set_enabled(true);
    }
    Ok((builder.build()?, telemetry))
}

/// Drains the telemetry sink of a finished instrumented run, aggregates
/// it, and writes the export JSON. The summary goes to stderr so stdout
/// stays byte-identical with and without `--telemetry`.
fn write_telemetry_export(
    experiment: &str,
    sink: &TelemetrySink,
    path: &str,
    quiet: bool,
) -> Result<(), String> {
    let export = TelemetryExport::collect(
        experiment,
        &sink.take(Blob::Telemetry),
        &sink.take(Blob::Privacy),
        &sink.take(Blob::Mem),
    )?;
    std::fs::write(path, export.to_canonical_json())
        .map_err(|e| format!("cannot write telemetry export {path}: {e}"))?;
    if !quiet {
        eprint!("{}", export.summary_text());
        eprintln!("[telemetry] export written to {path}");
    }
    Ok(())
}

/// Runs the named sweep experiment on `runtime` and prints its rows:
/// `fig2` keeps the classic aligned table, everything else prints one
/// JSON row per line. The names match the `experiment` field written to
/// run-manifest headers, so `resume` dispatches through here too.
fn run_experiment<W: Write>(
    experiment: &str,
    params: &SweepParams,
    runtime: &Runtime,
    out: &mut W,
) -> Result<(), String> {
    match experiment {
        "fig2" => {
            writeln!(
                out,
                "{:>9} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
                "1/lambda",
                "mse_none",
                "mse_unlim",
                "mse_rcad",
                "lat_none",
                "lat_unlim",
                "lat_rcad"
            )
            .map_err(io_err)?;
            for row in fig2_sweep_with(params, runtime) {
                writeln!(
                    out,
                    "{:>9} {:>12.1} {:>12.1} {:>12.1} {:>10.1} {:>10.1} {:>10.1}",
                    row.inv_lambda,
                    row.no_delay.mse,
                    row.unlimited.mse,
                    row.rcad.mse,
                    row.no_delay.mean_latency,
                    row.unlimited.mean_latency,
                    row.rcad.mean_latency,
                )
                .map_err(io_err)?;
            }
            Ok(())
        }
        "fig3" => print_json_rows(out, &fig3_sweep_with(params, runtime)),
        "adversary-panel" => print_json_rows(out, &adversary_panel_sweep_with(params, runtime)),
        "victim-ablation" => print_json_rows(out, &victim_ablation_sweep_with(params, runtime)),
        "delay-ablation" => print_json_rows(out, &delay_ablation_sweep_with(params, runtime)),
        "mix-comparison" => print_json_rows(out, &mix_comparison_sweep_with(params, runtime)),
        other => Err(format!(
            "unknown experiment `{other}`; expected fig2, fig3, adversary-panel, \
             victim-ablation, delay-ablation, or mix-comparison"
        )),
    }
}

fn print_json_rows<W: Write, T: serde::Serialize>(out: &mut W, rows: &[T]) -> Result<(), String> {
    for row in rows {
        let line = serde_json::to_string(row).map_err(|e| format!("serialize row: {e}"))?;
        writeln!(out, "{line}").map_err(io_err)?;
    }
    Ok(())
}

fn cmd_sweep<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let mut params = SweepParams::paper_default();
    params.inv_lambdas = args.option_list("points", params.inv_lambdas)?;
    params.packets_per_source = args.option_as("packets", params.packets_per_source)?;
    params.seed = args.option_as("seed", params.seed)?;
    if params.inv_lambdas.is_empty() {
        return Err("--points must name at least one inter-arrival time".into());
    }
    let experiment = args.option("experiment").unwrap_or("fig2").to_string();
    let (runtime, telemetry) = build_runtime(args, None, None)?;
    run_experiment(&experiment, &params, &runtime, out)?;
    if let Some((sink, path)) = telemetry {
        write_telemetry_export(&experiment, &sink, &path, args.flag("quiet"))?;
    }
    Ok(())
}

fn cmd_resume<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let path = args
        .positional(1)
        .ok_or("usage: tempriv resume <run.jsonl> [--workers N] [--quiet]")?;
    let manifest = ManifestReader::read(path)?;
    let params: SweepParams = serde_json::from_str(&manifest.header.params_json)
        .map_err(|e| format!("manifest {path}: cannot parse sweep params: {e}"))?;
    writeln!(
        out,
        "resuming {}: {}/{} jobs recorded",
        manifest.header.experiment,
        manifest.records.len(),
        manifest.header.jobs
    )
    .map_err(io_err)?;
    if manifest.header.cache_dir.is_none() && args.option("cache-dir").is_none() {
        writeln!(
            out,
            "note: the run had no cache directory, so completed jobs will be re-simulated"
        )
        .map_err(io_err)?;
    }
    // Reattach the recorded cache and rewrite the same manifest; the
    // cache serves every job the interrupted run finished.
    let (runtime, telemetry) =
        build_runtime(args, manifest.header.cache_dir.as_deref(), Some(path))?;
    run_experiment(&manifest.header.experiment, &params, &runtime, out)?;
    if let Some((sink, export_path)) = telemetry {
        write_telemetry_export(
            &manifest.header.experiment,
            &sink,
            &export_path,
            args.flag("quiet"),
        )?;
    }
    Ok(())
}

/// One family's per-job blobs of a manifest, in job order.
fn manifest_blobs(manifest: &ManifestReader, blob: Blob) -> Vec<Option<String>> {
    let mut blobs: Vec<Option<String>> = vec![None; manifest.header.jobs];
    for record in &manifest.records {
        if let Some(slot) = blobs.get_mut(record.index) {
            *slot = record.blob(blob).map(str::to_string);
        }
    }
    blobs
}

/// `tempriv report <run.jsonl|dir>`: aggregate the per-job telemetry
/// blobs journaled by one manifest — or by every `*.jsonl` manifest in a
/// directory, concatenated in file-name order — and render them as text,
/// JSON, or Prometheus exposition format.
fn cmd_report<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    if let Some(dir) = args.option("bench") {
        return report_bench(dir, args.option("trajectory"), out);
    }
    let path = args
        .positional(1)
        .ok_or("usage: tempriv report <run.jsonl|dir> [--format text|json|prometheus] | tempriv report --bench <dir>")?;
    let manifests: Vec<std::path::PathBuf> = if std::path::Path::new(path).is_dir() {
        let entries =
            std::fs::read_dir(path).map_err(|e| format!("cannot read directory {path}: {e}"))?;
        let mut manifests: Vec<std::path::PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        manifests.sort();
        if manifests.is_empty() {
            writeln!(
                out,
                "no completed jobs: {path} contains no .jsonl manifests \
                 (run a sweep with --manifest to journal one)"
            )
            .map_err(io_err)?;
            return Ok(());
        }
        manifests
    } else {
        vec![path.into()]
    };
    let mut experiments: Vec<String> = Vec::new();
    let mut blobs = Vec::new();
    let mut privacy_blobs = Vec::new();
    let mut mem_blobs = Vec::new();
    let mut completed = 0usize;
    for manifest_path in &manifests {
        let manifest = ManifestReader::read(manifest_path)?;
        completed += manifest.records.len();
        blobs.extend(manifest_blobs(&manifest, Blob::Telemetry));
        privacy_blobs.extend(manifest_blobs(&manifest, Blob::Privacy));
        mem_blobs.extend(manifest_blobs(&manifest, Blob::Mem));
        if !experiments.contains(&manifest.header.experiment) {
            experiments.push(manifest.header.experiment.clone());
        }
    }
    let experiment = experiments.join("+");
    if completed == 0 {
        // An interrupted (or never-started) run: the manifest header is
        // there but no job finished yet — say so instead of rendering a
        // bare all-zero report.
        writeln!(
            out,
            "no completed jobs in {path}: the manifest records no finished \
             work yet (finish the sweep, or `tempriv resume` it)"
        )
        .map_err(io_err)?;
        return Ok(());
    }
    let export = TelemetryExport::collect(&experiment, &blobs, &privacy_blobs, &mem_blobs)?;
    match args.option("format").unwrap_or("text") {
        "text" => {
            write!(out, "{}", export.summary_text()).map_err(io_err)?;
            if export.instrumented_jobs == 0 {
                writeln!(
                    out,
                    "note: no job attached telemetry (run the sweep with --telemetry \
                     and --manifest to journal it)"
                )
                .map_err(io_err)?;
            }
            Ok(())
        }
        "json" => writeln!(out, "{}", export.to_canonical_json()).map_err(io_err),
        "prometheus" => write!(out, "{}", export.metrics.to_prometheus()).map_err(io_err),
        other => Err(format!(
            "unknown --format `{other}`; expected text, json, or prometheus"
        )),
    }
}

/// Overhead budgets in percent over the metrics probe, keyed by the probe
/// rows of `BENCH_overhead.json` — the one place a gate number lives (CI
/// runs `tempriv report --bench` and checks its verdict). Probes without
/// a gate report their figure only.
const GATES: &[(&str, f64)] = &[("audited", 5.0), ("mem", 5.0)];

/// One rendered row of the `report --bench` table.
struct BenchRow {
    name: String,
    headline: String,
    /// A probe row of the overhead report (or the `MISSING` stand-in for
    /// one): the only rows [`GATES`] is looked up for, so a stale report
    /// file named after a probe cannot stand in for its gate.
    probe: bool,
    /// Percent over the metrics probe, for probe rows.
    overhead_pct: Option<f64>,
    trajectory: String,
    /// Extra lines printed under the row (the core shard table).
    detail: Option<String>,
}

impl BenchRow {
    fn new(name: &str, headline: String, overhead_pct: Option<f64>) -> BenchRow {
        BenchRow {
            name: name.to_string(),
            headline,
            probe: false,
            overhead_pct,
            trajectory: "-".to_string(),
            detail: None,
        }
    }
}

/// `tempriv report --bench <dir>`: one summary table across every
/// `BENCH_*.json` benchmark report — a headline metric per report, one
/// row per probe of the overhead report, and pass/fail against [`GATES`].
/// A gated probe no report measures prints as `MISSING`, which fails the
/// verdict like a breached gate. With `--trajectory FILE` the core row
/// shows its events/sec delta against that earlier core report.
fn report_bench<W: Write>(dir: &str, trajectory: Option<&str>, out: &mut W) -> Result<(), String> {
    use serde::value::Value;

    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read directory {dir}: {e}"))?;
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        writeln!(out, "no BENCH_*.json reports in {dir}").map_err(io_err)?;
        return Ok(());
    }

    let mut rows = Vec::new();
    for path in &files {
        let name = path
            .file_stem()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .trim_start_matches("BENCH_")
            .to_string();
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report: Value = serde_json::from_str(&raw)
            .map_err(|e| format!("malformed bench report {}: {e}", path.display()))?;
        if name == "overhead" {
            rows.extend(overhead_rows(&report));
            continue;
        }
        let mut row = BenchRow::new(&name, bench_headline(&name, &report), None);
        if name == "core" {
            if let Some(baseline) = trajectory {
                row.trajectory = core_trajectory(&report, baseline);
            }
            row.detail = core_shard_table(&report);
        }
        rows.push(row);
    }
    for (probe, _) in GATES {
        if !rows.iter().any(|r| r.probe && r.name == *probe) {
            let headline = "no report measures this probe".to_string();
            rows.push(BenchRow {
                probe: true,
                ..BenchRow::new(probe, headline, None)
            });
        }
    }

    writeln!(
        out,
        "{:<8} {:<44} {:>10} {:>6} {:>7}  {:<24}",
        "bench", "headline", "overhead", "gate", "status", "trajectory"
    )
    .map_err(io_err)?;
    let (mut failures, mut missing) = (0usize, 0usize);
    for row in &rows {
        let gate = GATES
            .iter()
            .find(|(g, _)| row.probe && *g == row.name)
            .map(|g| g.1);
        let status = match (gate, row.overhead_pct) {
            (Some(budget), Some(pct)) if pct < budget => "PASS",
            (Some(_), Some(_)) => {
                failures += 1;
                "FAIL"
            }
            (Some(_), None) => {
                missing += 1;
                "MISSING"
            }
            (None, _) => "-",
        };
        let gate_col = gate.map_or_else(|| "-".to_string(), |pct| format!("<{pct:.0}%"));
        let overhead_col = row
            .overhead_pct
            .map_or_else(|| "-".to_string(), |pct| format!("{pct:+.2}%"));
        writeln!(
            out,
            "{:<8} {:<44} {overhead_col:>10} {gate_col:>6} {status:>7}  {:<24}",
            row.name, row.headline, row.trajectory
        )
        .map_err(io_err)?;
        if let Some(detail) = &row.detail {
            write!(out, "{detail}").map_err(io_err)?;
        }
    }
    if failures > 0 {
        writeln!(out, "{failures} gate(s) FAILED").map_err(io_err)?;
    }
    if missing > 0 {
        writeln!(out, "{missing} gated probe(s) MISSING").map_err(io_err)?;
    }
    if failures == 0 && missing == 0 {
        writeln!(out, "all gates pass").map_err(io_err)?;
    }
    Ok(())
}

/// The rows of a `BENCH_overhead.json` report: the metrics baseline,
/// one row per probe, and the allocation-ledger headline.
fn overhead_rows(report: &serde::value::Value) -> Vec<BenchRow> {
    use serde::value::Value;
    let f = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let mut rows = Vec::new();
    if let Some(x) = f(report, "metrics_over_probes_off") {
        rows.push(BenchRow::new(
            "metrics",
            format!("x{x:.3} vs probes_off (baseline)"),
            None,
        ));
    }
    if let Some(Value::Seq(probes)) = report.get("probes") {
        for probe in probes {
            let Some(Value::Str(name)) = probe.get("probe") else {
                continue;
            };
            let headline = f(probe, "over_probes_off")
                .map_or_else(|| "-".to_string(), |x| format!("x{x:.3} vs probes_off"));
            rows.push(BenchRow {
                probe: true,
                ..BenchRow::new(name, headline, f(probe, "overhead_pct"))
            });
        }
    }
    if let (Some(app), Some(peak)) = (
        f(report, "allocs_per_delivered"),
        f(report, "peak_live_bytes"),
    ) {
        rows.push(BenchRow::new(
            "ledger",
            format!("{app:.2} allocs/packet, peak live {:.1} MB", peak / 1e6),
            None,
        ));
    }
    rows
}

/// Events/sec trajectory of a core scale report against an earlier one
/// (`--trajectory FILE`): one signed percentage per shared node count
/// (`probes_off` mode, ordered by node count), so speedups and
/// regressions vs that baseline are visible in the same table that
/// renders the report itself.
fn core_trajectory(report: &serde::value::Value, committed_path: &str) -> String {
    use serde::value::Value;
    let Ok(raw) = std::fs::read_to_string(committed_path) else {
        return format!("no baseline at {committed_path}");
    };
    let Ok(committed) = serde_json::from_str::<Value>(&raw) else {
        return format!("bad baseline {committed_path}");
    };
    let probes_off = |point: &Value| -> Option<f64> {
        match point.get("modes") {
            Some(Value::Seq(modes)) => modes
                .iter()
                .find(|m| matches!(m.get("mode"), Some(Value::Str(mode)) if mode == "probes_off"))
                .and_then(|m| m.get("events_per_sec"))
                .and_then(Value::as_f64),
            _ => None,
        }
    };
    let points_of = |report: &Value| -> Vec<(u64, f64)> {
        match report.get("points") {
            Some(Value::Seq(points)) => points
                .iter()
                .filter_map(|p| {
                    let nodes = p.get("nodes").and_then(Value::as_u64)?;
                    Some((nodes, probes_off(p)?))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let fresh = points_of(report);
    let base = points_of(&committed);
    let mut deltas: Vec<String> = fresh
        .iter()
        .filter_map(|&(nodes, rate)| {
            let (_, committed_rate) = base.iter().find(|&&(n, _)| n == nodes)?;
            Some(format!(
                "{}n{:+.0}%",
                nodes,
                (rate / committed_rate - 1.0) * 100.0
            ))
        })
        .collect();
    if deltas.is_empty() {
        return "no shared points".to_string();
    }
    deltas.push("ev/s vs baseline".to_string());
    deltas.join(" ")
}

/// Per-shard events/sec table for a core scale report whose points
/// carry `shard_events` (captured by `--bench scale --shards N`): each
/// shard's event count over the sharded timing mode's wall time. Empty
/// (None) for serial-only reports.
fn core_shard_table(report: &serde::value::Value) -> Option<String> {
    use serde::value::Value;
    use std::fmt::Write as _;
    let Some(Value::Seq(points)) = report.get("points") else {
        return None;
    };
    let mut s = String::new();
    for point in points {
        let shard_events: Vec<u64> = match point.get("shard_events") {
            Some(Value::Seq(events)) => events.iter().filter_map(Value::as_u64).collect(),
            _ => continue,
        };
        if shard_events.is_empty() {
            continue;
        }
        let Some(nodes) = point.get("nodes").and_then(Value::as_u64) else {
            continue;
        };
        let sharded_secs = match point.get("modes") {
            Some(Value::Seq(modes)) => modes
                .iter()
                .find(|m| matches!(m.get("mode"), Some(Value::Str(mode)) if mode == "sharded"))
                .and_then(|m| m.get("secs"))
                .and_then(Value::as_f64),
            _ => None,
        };
        if s.is_empty() {
            let _ = writeln!(s, "  core shards (per-shard events/sec, sharded mode):");
        }
        let rates: Vec<String> = shard_events
            .iter()
            .enumerate()
            .map(|(i, &events)| match sharded_secs {
                Some(secs) if secs > 0.0 => {
                    format!("s{i} {:.0}", events as f64 / secs)
                }
                _ => format!("s{i} {events}ev"),
            })
            .collect();
        let _ = writeln!(s, "  {nodes:>9} nodes: {}", rates.join("  "));
    }
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

/// One-line headline metric for a bench report, by report shape.
fn bench_headline(name: &str, report: &serde::value::Value) -> String {
    use serde::value::Value;
    let f = |key: &str| report.get(key).and_then(Value::as_f64);
    match name {
        "serve" => match (f("throughput_rps"), f("cache_hit_rate")) {
            (Some(rps), Some(hit)) => format!("{rps:.0} rps, cache hit rate {hit:.2}"),
            _ => "-".to_string(),
        },
        "core" => {
            // Scale bench: per-point speedups vs the committed baseline.
            let best = match report.get("points") {
                Some(Value::Seq(points)) => points
                    .iter()
                    .filter_map(|p| p.get("speedup").and_then(Value::as_f64))
                    .fold(0.0f64, f64::max),
                _ => 0.0,
            };
            if best > 0.0 {
                format!("engine speedup x{best:.2} (best scale point)")
            } else {
                "-".to_string()
            }
        }
        _ => "-".to_string(),
    }
}

/// Parses optional `--key` as `T`, distinguishing "absent" from "bad".
pub(crate) fn optional<T: std::str::FromStr>(args: &Args, key: &str) -> Result<Option<T>, String> {
    args.option(key)
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value for --{key}: `{raw}`"))
        })
        .transpose()
}

/// One spectrum line of the `trace` text summary: sample count plus
/// p50/p90/p99 quantiles.
fn spectrum_line(label: &str, h: &tempriv_telemetry::HistogramSample) -> String {
    let q = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.1}"));
    format!(
        "{label}: n={} p50={} p90={} p99={}",
        h.total,
        q(h.p50()),
        q(h.p90()),
        q(h.p99()),
    )
}

/// `tempriv trace [config.json]`: run one experiment under the flight
/// recorder and dump the packet-lifecycle recording as a text summary,
/// JSONL events, or a Chrome `trace_event` file. With `--expect-root`
/// the run is additionally folded through a [`DigestProbe`] and its run
/// root checked against the given hex digest — a mismatch reports the
/// divergence and, under `--fail-on-divergence`, exits with code 2.
fn cmd_trace<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let mut cfg = match args.positional(1) {
        Some(path) => {
            let raw =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::from_str::<ExperimentConfig>(&raw)
                .map_err(|e| format!("invalid config {path}: {e}"))?
        }
        None => ExperimentConfig::paper_default(),
    };
    cfg.seed = args.option_as("seed", cfg.seed)?;
    cfg.packets_per_source = args.option_as("packets", cfg.packets_per_source)?;
    let capacity: usize = args.option_as("capacity", DEFAULT_FLIGHT_CAPACITY)?;
    if capacity == 0 {
        return Err("--capacity must be positive".into());
    }
    let digest_window: usize = args.option_as("digest-window", DEFAULT_DIGEST_WINDOW)?;
    if digest_window == 0 {
        return Err("--digest-window must be positive".into());
    }
    let sim = cfg.build().map_err(|e| e.to_string())?;
    let mut recorder = FlightRecorder::with_capacity(capacity);
    let mut digest = args
        .option("expect-root")
        .is_some()
        .then(|| DigestProbe::new(digest_window));
    let outcome = match digest.as_mut() {
        Some(probe) => sim.run_probed(&mut (&mut recorder, probe)),
        None => sim.run_probed(&mut recorder),
    };
    let log = recorder.finish(outcome.end_time).filtered(
        optional(args, "flow")?,
        optional(args, "node")?,
        optional(args, "packet")?,
    );

    let body = match args.option("format").unwrap_or("text") {
        "text" => {
            let lineages = log.lineages();
            let count = |o: LineageOutcome| lineages.iter().filter(|l| l.outcome == o).count();
            let preemptions: u32 = lineages.iter().map(|l| l.preemptions).sum();
            let spectra = log.latency_spectra(40);
            format!(
                "flight recording: {} events retained, {} evicted \
                 (capacity {}), end time {:.1}\n\
                 packets: {} total; {} delivered, {} dropped, {} in flight; \
                 {} preemptions\n{}\n{}\n",
                log.events.len(),
                log.evicted,
                log.capacity,
                log.end_time,
                lineages.len(),
                count(LineageOutcome::Delivered),
                count(LineageOutcome::Dropped),
                count(LineageOutcome::InFlight),
                preemptions,
                spectrum_line("per-hop residence", &spectra.per_hop),
                spectrum_line("end-to-end latency", &spectra.end_to_end),
            )
        }
        "jsonl" => log.to_jsonl(),
        "chrome" => log.to_chrome_trace(),
        other => Err(format!(
            "unknown --format `{other}`; expected text, jsonl, or chrome"
        ))?,
    };
    match args.option("out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
            writeln!(out, "[trace written to {path}]").map_err(io_err)?;
        }
        None => write!(out, "{body}").map_err(io_err)?,
    }
    if let Some(expected) = args.option("expect-root") {
        let run = digest
            .as_ref()
            .expect("digest probe exists when --expect-root is given")
            .finish();
        if run.root == expected {
            writeln!(
                out,
                "audit: root={} matches --expect-root ({} events)",
                run.root, run.events
            )
            .map_err(io_err)?;
        } else {
            writeln!(
                out,
                "audit: root={} DIVERGED from --expect-root {expected} ({} events); \
                 bisect with `tempriv audit bisect`",
                run.root, run.events
            )
            .map_err(io_err)?;
            if args.flag("fail-on-divergence") {
                return Err(CliError::Divergence(format!(
                    "run root {} does not match expected {expected}",
                    run.root
                )));
            }
        }
    }
    Ok(())
}

/// `tempriv profile`: run a sweep on a single-worker runtime with the
/// span tracer and engine self-profiler on, then print the per-phase
/// wall-time attribution merged across every scenario. The sweep's own
/// rows are discarded — profile's stdout is the phase table (or the
/// merged breakdown as JSON with `--json`). With `--out PATH` the full
/// cross-layer Chrome trace (job/scenario spans, engine phase bands,
/// and packet residences) is written alongside.
fn cmd_profile<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let mut params = SweepParams::smoke();
    params.inv_lambdas = args.option_list("points", params.inv_lambdas)?;
    params.packets_per_source = args.option_as("packets", params.packets_per_source)?;
    params.seed = args.option_as("seed", params.seed)?;
    if params.inv_lambdas.is_empty() {
        return Err("--points must name at least one inter-arrival time".into());
    }
    let experiment = args.option("experiment").unwrap_or("fig2").to_string();
    let batch: u32 = args.option_as("batch", DEFAULT_PHASE_BATCH)?;
    if batch == 0 {
        return Err("--batch must be positive".into());
    }

    let sink = Arc::new(TelemetrySink::new());
    sink.set_span_batch(batch as usize);
    // Phase attribution and allocation attribution share the same
    // switch hooks, so the profiler always carries the memory ledger.
    sink.set_mem_profile(true);
    memprof::set_enabled(true);
    let root = TraceCtx::root(params.seed, "profile");
    sink.set_root_ctx(root.trace_id, root.span_id);
    let chrome_out = args.option("out");
    if chrome_out.is_some() {
        // The exported timeline carries packet residences alongside the
        // spans and phase bands.
        sink.set_trace_capacity(1 << 14);
    }
    // One worker: profiling shares the core with the simulation, so a
    // fan-out would have jobs contending for cycles and polluting the
    // attribution.
    let runtime = Runtime::builder()
        .workers(1)
        .telemetry_sink(Arc::clone(&sink))
        .build()?;
    let mut rows = Vec::new();
    run_experiment(&experiment, &params, &runtime, &mut rows)?;

    let mut jobs: Vec<JobSpans> = Vec::new();
    for blob in sink.take(Blob::Spans).iter().flatten() {
        jobs.push(serde_json::from_str(blob).map_err(|e| format!("malformed span blob: {e}"))?);
    }
    let mut mem_jobs: Vec<JobMem> = Vec::new();
    for blob in sink.take(Blob::Mem).iter().flatten() {
        mem_jobs.push(serde_json::from_str(blob).map_err(|e| format!("malformed mem blob: {e}"))?);
    }
    let mut merged: Option<PhaseBreakdown> = None;
    let mut scenarios = 0usize;
    for job in &jobs {
        for scenario in &job.profiles {
            scenarios += 1;
            match &mut merged {
                Some(acc) => acc.merge(&scenario.profile),
                None => merged = Some(scenario.profile.clone()),
            }
        }
    }
    let merged = merged.ok_or("no phase profiles recorded (empty sweep?)")?;

    if args.flag("json") {
        let json =
            serde_json::to_string(&merged).map_err(|e| format!("serialize breakdown: {e}"))?;
        writeln!(out, "{json}").map_err(io_err)?;
    } else {
        writeln!(
            out,
            "profile {experiment}: {} jobs, {scenarios} scenarios, batch {batch}, seed {}",
            jobs.len(),
            params.seed
        )
        .map_err(io_err)?;
        write!(out, "{}", merged.table()).map_err(io_err)?;
        let mut mem_ledger = MemBreakdown::empty();
        for job in &mem_jobs {
            for scenario in &job.scenarios {
                mem_ledger.merge(&scenario.ledger);
            }
        }
        if !mem_ledger.is_empty() {
            writeln!(out, "memory (allocations by phase):").map_err(io_err)?;
            write!(out, "{}", mem_ledger.table()).map_err(io_err)?;
        }
        if let Some(rss) = memprof::peak_rss_bytes() {
            writeln!(out, "peak RSS (VmHWM): {rss} bytes").map_err(io_err)?;
        }
    }

    if let Some(path) = chrome_out {
        let spans: Vec<SpanRecord> = jobs.iter().flat_map(|j| j.spans.clone()).collect();
        let mut events = chrome_span_events(&spans, 0);
        let mut phase_tid = 0u64;
        for (job_idx, job) in jobs.iter().enumerate() {
            for (i, scenario) in job.profiles.iter().enumerate() {
                // Anchor each phase band at its scenario span (index 0
                // is the job span, scenarios follow in order).
                let anchor = job.spans.get(i + 1).map_or(0, |s| s.start_us);
                events.extend(scenario.profile.chrome_phase_events(
                    &scenario.label,
                    anchor,
                    phase_tid,
                ));
                // Live-bytes counter track riding the same thread lane
                // as the scenario's phase bands.
                if let Some(smem) = mem_jobs.get(job_idx).and_then(|m| m.scenarios.get(i)) {
                    events.extend(smem.ledger.chrome_counter_events(
                        anchor,
                        phase_tid,
                        &scenario.profile,
                    ));
                }
                phase_tid += 1;
            }
        }
        for blob in sink.take(Blob::Trace).iter().flatten() {
            let trace: JobTrace =
                serde_json::from_str(blob).map_err(|e| format!("malformed trace blob: {e}"))?;
            for scenario in &trace.scenarios {
                events.extend(scenario.log.chrome_trace_events());
            }
        }
        std::fs::write(path, wrap_chrome_events(&events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "[profile trace written to {path}]").map_err(io_err)?;
    }
    Ok(())
}

/// Renders one frame of the privacy view: delivery/drop totals plus a
/// per-flow table of packets, empirical MI, the eq. 4 mean bound, the
/// privacy margin, and the adversary's running MSE (`-` where the run
/// carries no analytic envelope).
fn watch_frame(deliveries: u64, drops: u64, summaries: &[FlowPrivacySummary]) -> String {
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"));
    let mut s = format!(
        "deliveries {deliveries}, drops {drops}\n\
         {:<6} {:>8} {:>10} {:>10} {:>12} {:>14}\n",
        "flow", "packets", "mi_nats", "bound", "margin", "adv_mse"
    );
    for f in summaries {
        s.push_str(&format!(
            "f{:<5} {:>8} {:>10.4} {:>10} {:>12} {:>14}\n",
            f.flow,
            f.packets,
            f.mi_nats,
            opt(f.btq_mean_bound_nats),
            opt(f.margin_nats),
            opt(f.mse),
        ));
    }
    s
}

/// Wraps a [`PrivacyProbe`] for the one-shot `watch` run: every hook
/// forwards to the inner probe, and deliveries additionally refresh a
/// throttled live view on stderr — at most one frame per
/// [`StderrReporter::MIN_INTERVAL`], the same ~4 Hz cadence the runtime
/// progress reporter uses.
struct WatchProbe {
    inner: PrivacyProbe,
    expected: u64,
    started: std::time::Instant,
    last_render: Option<std::time::Instant>,
    quiet: bool,
}

impl WatchProbe {
    fn maybe_render(&mut self) {
        if self.quiet {
            return;
        }
        let now = std::time::Instant::now();
        let throttled = self
            .last_render
            .is_some_and(|last| now.duration_since(last) < StderrReporter::MIN_INTERVAL);
        if throttled {
            return;
        }
        self.last_render = Some(now);
        let done = self.inner.deliveries();
        let elapsed = self.started.elapsed().as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let eta = elapsed * self.expected.saturating_sub(done) as f64 / done.max(1) as f64;
        eprintln!("[watch] {done}/{} deliveries, eta {eta:.1}s", self.expected);
        eprint!(
            "{}",
            watch_frame(done, self.inner.drops(), &self.inner.summary())
        );
    }
}

impl SimProbe for WatchProbe {
    fn on_preemption(&mut self, node: usize, now: tempriv_sim::time::SimTime) {
        self.inner.on_preemption(node, now);
    }

    fn on_drop(&mut self, node: usize, now: tempriv_sim::time::SimTime) {
        self.inner.on_drop(node, now);
    }

    fn on_delivery(&mut self, flow: usize, now: tempriv_sim::time::SimTime, latency: f64) {
        self.inner.on_delivery(flow, now, latency);
        self.maybe_render();
    }
}

/// The current aggregate privacy state of a journaled run, as text: job
/// progress plus every `tempriv_privacy_*` gauge the manifest's privacy
/// blobs aggregate to.
fn manifest_watch_frame(manifest: &ManifestReader) -> Result<String, String> {
    let blobs = manifest_blobs(manifest, Blob::Telemetry);
    let privacy = manifest_blobs(manifest, Blob::Privacy);
    let observed = privacy.iter().flatten().count();
    let export = TelemetryExport::collect(&manifest.header.experiment, &blobs, &privacy, &[])?;
    let mut s = format!(
        "watch {}: {}/{} jobs recorded, {} with privacy series\n",
        manifest.header.experiment,
        manifest.records.len(),
        manifest.header.jobs,
        observed
    );
    if observed == 0 {
        s.push_str(
            "no privacy series recorded (run sweep with --telemetry \
             --privacy-interval N --manifest PATH)\n",
        );
        return Ok(s);
    }
    for gauge in export
        .metrics
        .gauges
        .iter()
        .filter(|g| g.name.starts_with("tempriv_privacy_"))
    {
        s.push_str(&format!("  {} = {:.4}\n", gauge.name, gauge.value));
    }
    Ok(s)
}

/// `tempriv watch <run.jsonl>`: poll a manifest and re-render its
/// aggregate privacy gauges until every job has landed (interim frames
/// go to stderr; the final one to stdout). `--once` renders the current
/// state straight to stdout and exits, whatever the progress.
fn cmd_watch_manifest<W: Write>(path: &str, args: &Args, out: &mut W) -> Result<(), String> {
    let poll_ms: u64 = args.option_as("poll-ms", 250)?;
    let once = args.flag("once");
    loop {
        let manifest = ManifestReader::read(path)?;
        let frame = manifest_watch_frame(&manifest)?;
        if once || manifest.records.len() >= manifest.header.jobs {
            write!(out, "{frame}").map_err(io_err)?;
            return Ok(());
        }
        if !args.flag("quiet") {
            eprint!("{frame}");
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

/// `tempriv watch` with no manifest: run the paper-default config
/// in-process under the streaming privacy probe, rendering the live view
/// as deliveries stream in, then print the final per-flow summary and
/// optionally dump the full series as JSON.
fn cmd_watch_oneshot<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    let mut cfg = ExperimentConfig::paper_default();
    cfg.seed = args.option_as("seed", cfg.seed)?;
    cfg.packets_per_source = args.option_as("packets", cfg.packets_per_source)?;
    let interval: u64 = args.option_as("interval", 100)?;
    if interval == 0 {
        return Err("--interval must be positive".into());
    }
    let bins: usize = args.option_as("bins", DEFAULT_STREAMING_BINS)?;
    if bins < 2 {
        return Err("--bins must be at least 2".into());
    }
    let sim = cfg.build().map_err(|e| e.to_string())?;
    let expected =
        u64::from(cfg.packets_per_source) * u64::try_from(sim.sources().len()).expect("few flows");
    let mut probe = WatchProbe {
        inner: PrivacyProbe::with_bins(privacy_flow_configs(&sim), interval, bins),
        expected,
        started: std::time::Instant::now(),
        last_render: None,
        quiet: args.flag("quiet"),
    };
    let outcome = sim.run_probed(&mut probe);
    let series = probe.inner.finish(outcome.end_time);
    writeln!(
        out,
        "watch: seed {}, {} snapshots every {} deliveries",
        cfg.seed,
        series.points.len(),
        series.interval,
    )
    .map_err(io_err)?;
    write!(
        out,
        "{}",
        watch_frame(series.deliveries, series.drops, &series.summary)
    )
    .map_err(io_err)?;
    if let Some(path) = args.option("out") {
        let json =
            serde_json::to_string(&series).map_err(|e| format!("serialize privacy series: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "[privacy series written to {path}]").map_err(io_err)?;
    }
    Ok(())
}

/// `tempriv watch [run.jsonl]`: the live streaming-privacy view — tail a
/// journaled run, or run one in-process when no manifest is given.
fn cmd_watch<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    match args.positional(1) {
        Some(path) => cmd_watch_manifest(path, args, out),
        None => cmd_watch_oneshot(args, out),
    }
}

fn cmd_cache<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    const CACHE_USAGE: &str = "usage: tempriv cache <stats|clear> --cache-dir DIR";
    let action = args.positional(1).ok_or(CACHE_USAGE)?;
    let dir = args.option("cache-dir").ok_or(CACHE_USAGE)?;
    let cache = ResultCache::on_disk(dir).map_err(|e| format!("cannot open cache {dir}: {e}"))?;
    match action {
        "stats" => {
            writeln!(out, "{} cached results in {dir}", cache.len()).map_err(io_err)?;
            Ok(())
        }
        "clear" => {
            let removed = cache
                .clear()
                .map_err(|e| format!("cannot clear cache {dir}: {e}"))?;
            writeln!(out, "removed {removed} cached results from {dir}").map_err(io_err)?;
            Ok(())
        }
        _ => Err(CACHE_USAGE.into()),
    }
}

fn cmd_calc<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    match args.positional(1) {
        Some("erlang") => {
            let rho: f64 = required(args, "rho")?;
            let slots: u32 = required(args, "slots")?;
            writeln!(out, "E({rho}, {slots}) = {:.6}", erlang_b(rho, slots)).map_err(io_err)
        }
        Some("servers") => {
            let rho: f64 = required(args, "rho")?;
            let alpha: f64 = required(args, "alpha")?;
            writeln!(
                out,
                "min slots for E({rho}, k) <= {alpha}: k = {}",
                min_servers_for_loss(rho, alpha)
            )
            .map_err(io_err)
        }
        Some("mu") => {
            let lambda: f64 = required(args, "lambda")?;
            let slots: u32 = required(args, "slots")?;
            let alpha: f64 = required(args, "alpha")?;
            let mu = service_rate_for_loss(lambda, slots, alpha);
            writeln!(
                out,
                "mu = {mu:.6} (mean delay 1/mu = {:.3}) pins E(lambda/mu, {slots}) at {alpha}",
                1.0 / mu
            )
            .map_err(io_err)
        }
        Some("mminf") => {
            let lambda: f64 = required(args, "lambda")?;
            let mu: f64 = required(args, "mu")?;
            let station = MmInf::new(lambda, mu);
            writeln!(
                out,
                "rho = {:.4}; mean occupancy = {:.4}; P(N > 10) = {:.6}; \
                 99% buffer = {} slots",
                station.utilization(),
                station.mean_occupancy(),
                station.overflow_probability(10),
                station.buffer_for_confidence(0.99),
            )
            .map_err(io_err)
        }
        Some("btq") => {
            let lambda: f64 = required(args, "lambda")?;
            let mu: f64 = required(args, "mu")?;
            let j: u64 = args.option_as("j", 1)?;
            let n: u64 = args.option_as("n", 0)?;
            writeln!(
                out,
                "I(X_{j}; Z_{j}) <= ln(1 + j*mu/lambda) = {:.6} nats",
                btq_packet_bound_nats(j, mu, lambda)
            )
            .map_err(io_err)?;
            if n > 0 {
                writeln!(
                    out,
                    "I(X^{n}; Z^{n}) <= {:.4} nats (eq. 4 stream bound)",
                    btq_stream_bound_nats(n, mu, lambda)
                )
                .map_err(io_err)?;
            }
            Ok(())
        }
        _ => Err("usage: tempriv calc <erlang|servers|mu|mminf|btq> --...".into()),
    }
}

fn required<T: std::str::FromStr>(args: &Args, key: &str) -> Result<T, String> {
    args.option(key)
        .ok_or(format!("missing required option --{key}"))?
        .parse()
        .map_err(|_| format!("invalid value for --{key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, String> {
        run_raw(tokens).map_err(|e| e.message().to_string())
    }

    /// Like [`run`] but keeps the [`CliError`], for exit-code checks.
    fn run_raw(tokens: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(tokens.iter().copied());
        let mut buf = Vec::new();
        dispatch(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("COMMANDS"));
        let out = run(&[]).unwrap();
        assert!(out.contains("tempriv"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn calc_erlang_matches_library() {
        let out = run(&["calc", "erlang", "--rho", "15", "--slots", "10"]).unwrap();
        assert!(out.contains(&format!("{:.6}", erlang_b(15.0, 10))));
    }

    #[test]
    fn calc_requires_options() {
        let err = run(&["calc", "erlang", "--rho", "15"]).unwrap_err();
        assert!(err.contains("--slots"));
    }

    #[test]
    fn calc_mu_round_trips() {
        let out = run(&[
            "calc", "mu", "--lambda", "0.5", "--slots", "10", "--alpha", "0.1",
        ])
        .unwrap();
        assert!(out.contains("mu ="));
    }

    #[test]
    fn calc_mminf_reports_rho() {
        let out = run(&["calc", "mminf", "--lambda", "0.5", "--mu", "0.0333333333"]).unwrap();
        assert!(out.contains("rho = 15.0"));
    }

    #[test]
    fn calc_btq_stream_bound() {
        let out = run(&[
            "calc", "btq", "--lambda", "0.5", "--mu", "0.0333", "--j", "3", "--n", "10",
        ])
        .unwrap();
        assert!(out.contains("I(X_3; Z_3)"));
        assert!(out.contains("eq. 4"));
    }

    #[test]
    fn init_config_and_run_round_trip() {
        let dir = std::env::temp_dir().join("tempriv_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let out_path = dir.join("outcome.json");
        let cfg_str = cfg_path.to_str().unwrap();
        let out_str = out_path.to_str().unwrap();
        run(&["init-config", cfg_str]).unwrap();
        // Shrink the run so the test stays fast.
        let mut cfg: ExperimentConfig =
            serde_json::from_str(&std::fs::read_to_string(&cfg_path).unwrap()).unwrap();
        cfg.packets_per_source = 60;
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();

        let out = run(&["run", cfg_str, "--out", out_str, "--seed", "5"]).unwrap();
        assert!(out.contains("delivered 240/240"));
        assert!(out.contains("route-aware"));
        let dumped = std::fs::read_to_string(&out_path).unwrap();
        assert!(dumped.contains("observations"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn assess_replicates_with_ci() {
        let dir = std::env::temp_dir().join("tempriv_cli_assess_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let cfg_str = cfg_path.to_str().unwrap();
        let mut cfg = ExperimentConfig::paper_default();
        cfg.packets_per_source = 80;
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let out = run(&["assess", cfg_str, "--replications", "3"]).unwrap();
        assert!(out.contains("3 replications"));
        assert!(out.contains("±"));
        assert!(out.lines().count() >= 6); // header + 4 flows
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_prints_requested_points() {
        let out = run(&["sweep", "--points", "2", "--packets", "80", "--quiet"]).unwrap();
        assert!(out.contains("mse_rcad"));
        assert_eq!(out.lines().count(), 2); // header + one row
    }

    #[test]
    fn sweep_output_is_identical_for_any_worker_count() {
        let base = [
            "sweep",
            "--points",
            "2,20",
            "--packets",
            "60",
            "--quiet",
            "--workers",
        ];
        let one = run(&[&base[..], &["1"]].concat()).unwrap();
        let eight = run(&[&base[..], &["8"]].concat()).unwrap();
        assert_eq!(one, eight);
    }

    #[test]
    fn sweep_experiment_fig3_prints_json_rows() {
        let out = run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "60",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"baseline_mse\""));
        assert!(out.contains("\"adaptive_mse\""));
    }

    #[test]
    fn sweep_rejects_unknown_experiment() {
        let err = run(&["sweep", "--experiment", "fig9", "--quiet"]).unwrap_err();
        assert!(err.contains("unknown experiment"));
    }

    #[test]
    fn resume_completes_truncated_manifest_with_identical_rows() {
        let dir = std::env::temp_dir().join("tempriv_cli_resume_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache");
        let manifest = dir.join("run.jsonl");
        let cache_str = cache.to_str().unwrap();
        let man_str = manifest.to_str().unwrap();

        // Single worker so manifest records land in job order.
        let full = run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2,20",
            "--packets",
            "60",
            "--quiet",
            "--workers",
            "1",
            "--cache-dir",
            cache_str,
            "--manifest",
            man_str,
        ])
        .unwrap();
        assert_eq!(full.lines().count(), 2);

        // Simulate a crash: keep the header and the first job record,
        // tear the second mid-line, and drop its cached result so the
        // resume has real work left.
        let text = std::fs::read_to_string(&manifest).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let lost: tempriv_runtime::JobRecord = serde_json::from_str(lines[2]).unwrap();
        std::fs::remove_file(cache.join(format!("{}.json", lost.key))).unwrap();
        std::fs::write(
            &manifest,
            format!("{}\n{}\n{{\"index\":1,\"key\":\"to", lines[0], lines[1]),
        )
        .unwrap();

        let resumed = run(&["resume", man_str, "--quiet"]).unwrap();
        assert!(resumed.contains("resuming fig3: 1/2 jobs recorded"));
        let resumed_rows: Vec<&str> = resumed.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(resumed_rows, full.lines().collect::<Vec<_>>());

        // The manifest is whole again: one cache hit, one recompute.
        let back = tempriv_runtime::ManifestReader::read(&manifest).unwrap();
        assert_eq!(back.records.len(), 2);
        let cached = back
            .records
            .iter()
            .filter(|r| r.status == tempriv_runtime::JobStatus::Cached)
            .count();
        assert_eq!(cached, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_stats_and_clear() {
        let dir = std::env::temp_dir().join("tempriv_cli_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.join("cache");
        let cache_str = cache.to_str().unwrap().to_string();
        run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "60",
            "--quiet",
            "--cache-dir",
            &cache_str,
        ])
        .unwrap();
        let stats = run(&["cache", "stats", "--cache-dir", &cache_str]).unwrap();
        assert!(stats.contains("1 cached results"));
        let cleared = run(&["cache", "clear", "--cache-dir", &cache_str]).unwrap();
        assert!(cleared.contains("removed 1"));
        let stats = run(&["cache", "stats", "--cache-dir", &cache_str]).unwrap();
        assert!(stats.contains("0 cached results"));
        let err = run(&["cache", "stats"]).unwrap_err();
        assert!(err.contains("--cache-dir"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_rejects_missing_file() {
        let err = run(&["run", "/nonexistent/cfg.json"]).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn sweep_telemetry_writes_export_with_occupancy_gauges() {
        let dir = std::env::temp_dir().join("tempriv_cli_telemetry_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let export = dir.join("telemetry.json");
        let export_str = export.to_str().unwrap();
        let base = ["sweep", "--points", "2", "--packets", "60", "--quiet"];

        let plain = run(&base).unwrap();
        let instrumented = run(&[&base[..], &["--telemetry", export_str]].concat()).unwrap();
        // Instrumentation must not change stdout in any way.
        assert_eq!(plain, instrumented);

        let parsed: tempriv_core::telemetry::TelemetryExport =
            serde_json::from_str(&std::fs::read_to_string(&export).unwrap()).unwrap();
        assert_eq!(parsed.experiment, "fig2");
        assert_eq!(parsed.instrumented_jobs, 1);
        assert_eq!(parsed.scenarios, 3); // no_delay, unlimited, rcad
        assert!(parsed
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_node_occupancy_mean{node=")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_renders_manifest_telemetry_in_all_formats() {
        let dir = std::env::temp_dir().join("tempriv_cli_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("run.jsonl");
        let export = dir.join("telemetry.json");
        let man_str = manifest.to_str().unwrap();
        run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "60",
            "--quiet",
            "--manifest",
            man_str,
            "--telemetry",
            export.to_str().unwrap(),
        ])
        .unwrap();

        let text = run(&["report", man_str]).unwrap();
        assert!(text.contains("experiment=fig3"));
        assert!(text.contains("theory checks"));
        assert!(text.contains("tempriv_engine_events_per_sec"));
        assert!(text.contains("tempriv_engine_peak_fes"));
        // Queue introspection surfaces in the text summary.
        assert!(text.contains("tempriv_engine_queue_compactions_total"));

        let json = run(&["report", man_str, "--format", "json"]).unwrap();
        let parsed: tempriv_core::telemetry::TelemetryExport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.instrumented_jobs, 1);

        let prom = run(&["report", man_str, "--format", "prometheus"]).unwrap();
        assert!(prom.contains("# TYPE tempriv_deliveries_total counter"));
        assert!(prom.contains("tempriv_node_occupancy_mean"));

        let err = run(&["report", man_str, "--format", "yaml"]).unwrap_err();
        assert!(err.contains("unknown --format"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh temp dir holding the given `(file name, JSON)` reports.
    fn bench_dir(name: &str, files: &[(&str, String)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (file, json) in files {
            std::fs::write(dir.join(file), json).unwrap();
        }
        dir
    }

    /// A minimal `BENCH_overhead.json` with the given per-probe overheads.
    fn overhead_report_json(pcts: &[(&str, f64)]) -> String {
        let probes: Vec<String> = pcts
            .iter()
            .map(|(probe, pct)| {
                let over_metrics = 1.0 + pct / 100.0;
                format!(
                    r#"{{"probe":"{probe}","over_probes_off":{},"over_metrics":{over_metrics},"overhead_pct":{pct}}}"#,
                    1.1 * over_metrics
                )
            })
            .collect();
        format!(
            r#"{{"metrics_over_probes_off":1.1,"probes":[{}],"allocs_per_delivered":0.09,"peak_live_bytes":5500000}}"#,
            probes.join(",")
        )
    }

    /// A minimal one-point `BENCH_core.json`.
    fn core_report_json(events_per_sec: f64) -> String {
        format!(
            r#"{{"points":[{{"nodes":100,"modes":[{{"mode":"probes_off","secs":1.0,"events_per_sec":{events_per_sec}}}]}}]}}"#
        )
    }

    #[test]
    fn report_bench_passes_when_every_gated_probe_is_under_budget() {
        let dir = bench_dir(
            "tempriv_cli_bench_pass",
            &[(
                "BENCH_overhead.json",
                overhead_report_json(&[("tracing", 12.6), ("audited", 2.9), ("mem", 4.9)]),
            )],
        );
        let text = run(&["report", "--bench", dir.to_str().unwrap()]).unwrap();
        assert!(text.contains("all gates pass"), "{text}");
        assert_eq!(text.matches("PASS").count(), 2, "{text}");
        assert!(
            text.contains("+12.60%"),
            "ungated probes still report: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_bench_fails_a_breached_gate() {
        let dir = bench_dir(
            "tempriv_cli_bench_fail",
            &[(
                "BENCH_overhead.json",
                overhead_report_json(&[("audited", 5.2), ("mem", 1.0)]),
            )],
        );
        let text = run(&["report", "--bench", dir.to_str().unwrap()]).unwrap();
        assert!(text.contains("1 gate(s) FAILED"), "{text}");
        assert!(!text.contains("all gates pass"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_bench_flags_gated_probes_no_report_measures() {
        let dir = bench_dir(
            "tempriv_cli_bench_missing",
            &[("BENCH_core.json", core_report_json(1000.0))],
        );
        let text = run(&["report", "--bench", dir.to_str().unwrap()]).unwrap();
        assert!(!text.contains("all gates pass"), "{text}");
        assert_eq!(
            text.matches("MISSING").count(),
            3,
            "two rows + verdict: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_bench_gates_only_overhead_probe_rows() {
        // A stale per-probe file from before the overhead report sorts
        // ahead of it and names a gated probe; it must neither fail nor
        // stand in for that probe's gate.
        let dir = bench_dir(
            "tempriv_cli_bench_stale",
            &[
                ("BENCH_mem.json", r#"{"mem_overhead_pct":9.9}"#.to_string()),
                (
                    "BENCH_overhead.json",
                    overhead_report_json(&[("audited", 2.9), ("mem", 4.9)]),
                ),
            ],
        );
        let text = run(&["report", "--bench", dir.to_str().unwrap()]).unwrap();
        assert!(text.contains("all gates pass"), "{text}");
        assert!(!text.contains("MISSING"), "{text}");
        assert_eq!(text.matches("PASS").count(), 2, "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_bench_trajectory_diffs_only_an_explicit_baseline() {
        let dir = bench_dir(
            "tempriv_cli_bench_trajectory",
            &[("BENCH_core.json", core_report_json(2000.0))],
        );
        let baseline = dir.join("older-core.json");
        std::fs::write(&baseline, core_report_json(1000.0)).unwrap();
        let core_row = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("core "))
                .expect("core row")
                .trim_end()
                .to_string()
        };
        let with = run(&[
            "report",
            "--bench",
            dir.to_str().unwrap(),
            "--trajectory",
            baseline.to_str().unwrap(),
        ])
        .unwrap();
        assert!(core_row(&with).contains("100n+100%"), "{with}");
        let without = run(&["report", "--bench", dir.to_str().unwrap()]).unwrap();
        assert!(core_row(&without).ends_with(" -"), "{without}");
        assert!(!without.contains("100n"), "{without}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_aggregates_a_directory_of_manifests() {
        let dir = std::env::temp_dir().join("tempriv_cli_report_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        let runs = dir.join("runs");
        std::fs::create_dir_all(&runs).unwrap();
        for (i, point) in ["2", "20"].iter().enumerate() {
            let manifest = runs.join(format!("run{i}.jsonl"));
            run(&[
                "sweep",
                "--experiment",
                "fig3",
                "--points",
                point,
                "--packets",
                "60",
                "--quiet",
                "--manifest",
                manifest.to_str().unwrap(),
                "--telemetry",
                dir.join(format!("t{i}.json")).to_str().unwrap(),
            ])
            .unwrap();
        }
        let text = run(&["report", runs.to_str().unwrap()]).unwrap();
        assert!(text.contains("experiment=fig3"));
        assert!(text.contains("instrumented=2"));

        let json = run(&["report", runs.to_str().unwrap(), "--format", "json"]).unwrap();
        let parsed: tempriv_core::telemetry::TelemetryExport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.instrumented_jobs, 2);

        // An empty directory is a clear "no completed jobs" note, not a
        // bare all-zero report (and not a hard error).
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let note = run(&["report", empty.to_str().unwrap()]).unwrap();
        assert!(note.contains("no completed jobs"));
        assert!(note.contains("no .jsonl manifests"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_on_header_only_manifest_says_no_completed_jobs() {
        // Regression: a manifest whose run was interrupted before any job
        // finished (header line only) used to render a bare empty report.
        let dir = std::env::temp_dir().join("tempriv_cli_report_empty_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("interrupted.jsonl");
        let header = tempriv_runtime::ManifestHeader {
            experiment: "fig3".to_string(),
            params_json: "{}".to_string(),
            jobs: 3,
            cache_dir: None,
        };
        drop(tempriv_runtime::ManifestWriter::create(&manifest, &header).unwrap());

        let text = run(&["report", manifest.to_str().unwrap()]).unwrap();
        assert!(text.contains("no completed jobs"), "got: {text}");
        assert!(!text.contains("experiment="), "no bare report: {text}");

        // Same through the directory path.
        let text = run(&["report", dir.to_str().unwrap()]).unwrap();
        assert!(text.contains("no completed jobs"), "got: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_serve_writes_a_load_report() {
        let dir = std::env::temp_dir().join("tempriv_cli_bench_serve_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("BENCH_serve.json");
        let text = run(&[
            "bench",
            "serve",
            "--submissions",
            "16",
            "--concurrency",
            "4",
            "--distinct",
            "4",
            "--packets",
            "30",
            "--server-workers",
            "2",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("req/s"), "got: {text}");
        assert!(text.contains("warm bytes identical: true"), "got: {text}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        let report: tempriv_serve::LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report.submissions, 16);
        assert!(report.warm > 0, "repeat specs must hit the cache");
        assert!(report.warm_bytes_identical);
        let _ = std::fs::remove_dir_all(&dir);

        let err = run(&["bench", "nope"]).unwrap_err();
        assert!(err.contains("unknown bench target"));
    }

    #[test]
    fn trace_capacity_journals_blobs_and_requires_telemetry() {
        let dir = std::env::temp_dir().join("tempriv_cli_trace_capacity_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("run.jsonl");
        let man_str = manifest.to_str().unwrap();
        run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "60",
            "--quiet",
            "--manifest",
            man_str,
            "--telemetry",
            dir.join("t.json").to_str().unwrap(),
            "--trace-capacity",
            "65536",
        ])
        .unwrap();
        let back = tempriv_runtime::ManifestReader::read(&manifest).unwrap();
        assert_eq!(back.records.len(), 1);
        let blob = back.records[0].blob(Blob::Trace).expect("trace journaled");
        let trace: tempriv_core::telemetry::JobTrace = serde_json::from_str(blob).unwrap();
        assert!(!trace.scenarios.is_empty());
        assert!(trace.scenarios.iter().all(|s| !s.log.events.is_empty()));

        let err = run(&["sweep", "--quiet", "--trace-capacity", "100"]).unwrap_err();
        assert!(err.contains("requires --telemetry"));
        let err = run(&[
            "sweep",
            "--quiet",
            "--telemetry",
            "t.json",
            "--trace-capacity",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("must be positive"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_text_summary_reports_lifecycles() {
        let out = run(&["trace", "--packets", "60", "--seed", "3"]).unwrap();
        assert!(out.contains("flight recording:"));
        assert!(out.contains("240 total"));
        assert!(out.contains("per-hop residence: n="));
        assert!(out.contains("end-to-end latency: n="));
    }

    #[test]
    fn trace_jsonl_filters_by_flow() {
        let out = run(&[
            "trace",
            "--packets",
            "40",
            "--seed",
            "3",
            "--flow",
            "1",
            "--format",
            "jsonl",
        ])
        .unwrap();
        assert!(!out.is_empty());
        for line in out.lines() {
            assert!(line.starts_with("{\"t\":"), "one JSON object per line");
            assert!(line.ends_with('}'));
            assert!(line.contains("\"flow\":1"), "filter kept only flow 1");
            assert!(line.contains("\"kind\":\""));
        }
    }

    #[test]
    fn trace_chrome_output_is_valid_trace_event_json() {
        let dir = std::env::temp_dir().join("tempriv_cli_trace_chrome_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = run(&[
            "trace",
            "--packets",
            "40",
            "--seed",
            "3",
            "--format",
            "chrome",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("[trace written to"));
        let text = std::fs::read_to_string(&path).unwrap();
        // Structural validity: the trace_event envelope, balanced
        // braces/brackets, and all three event phases present.
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        let balance = |open: char, close: char| {
            text.chars().filter(|&c| c == open).count()
                - text.chars().filter(|&c| c == close).count()
        };
        assert_eq!(balance('{', '}'), 0);
        assert_eq!(balance('[', ']'), 0);
        assert!(text.matches("\"ph\":\"M\"").count() > 4, "metadata events");
        assert!(
            text.matches("\"ph\":\"X\"").count() > 100,
            "complete events"
        );
        assert!(text.matches("\"ph\":\"i\"").count() > 100, "instant events");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_rejects_bad_arguments() {
        let err = run(&["trace", "--capacity", "0"]).unwrap_err();
        assert!(err.contains("--capacity must be positive"));
        let err = run(&["trace", "--format", "svg"]).unwrap_err();
        assert!(err.contains("unknown --format"));
        let err = run(&["trace", "--flow", "abc"]).unwrap_err();
        assert!(err.contains("invalid value for --flow"));
        let err = run(&["trace", "/nonexistent/cfg.json"]).unwrap_err();
        assert!(err.contains("cannot read"));
        let err = run(&["trace", "--digest-window", "0"]).unwrap_err();
        assert!(err.contains("--digest-window must be positive"));
    }

    #[test]
    fn trace_expect_root_checks_the_run_digest() {
        // `audit run` over the same spec yields the expected root: the
        // digest probe composes under the flight recorder without
        // perturbing the event stream.
        let json = run(&["audit", "run", "--packets", "60", "--seed", "3"]).unwrap();
        let digest: tempriv_telemetry::RunDigest = serde_json::from_str(&json).unwrap();

        let out = run(&[
            "trace",
            "--packets",
            "60",
            "--seed",
            "3",
            "--expect-root",
            &digest.root,
        ])
        .unwrap();
        assert!(out.contains("flight recording:"), "{out}");
        assert!(out.contains("matches --expect-root"), "{out}");

        // A wrong root reports the divergence but still exits 0...
        let out = run(&[
            "trace",
            "--packets",
            "60",
            "--seed",
            "3",
            "--expect-root",
            "0000000000000000",
        ])
        .unwrap();
        assert!(out.contains("DIVERGED"), "{out}");
        // ...unless --fail-on-divergence escalates it to exit code 2.
        let err = run_raw(&[
            "trace",
            "--packets",
            "60",
            "--seed",
            "3",
            "--expect-root",
            "0000000000000000",
            "--fail-on-divergence",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");
        assert!(err.message().contains("does not match expected"));
    }

    #[test]
    fn digest_window_journals_audit_blobs_and_requires_telemetry() {
        let dir = std::env::temp_dir().join("tempriv_cli_digest_window_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("run.jsonl");
        let man_str = manifest.to_str().unwrap();
        run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "60",
            "--quiet",
            "--manifest",
            man_str,
            "--telemetry",
            dir.join("t.json").to_str().unwrap(),
            "--digest-window",
            "256",
        ])
        .unwrap();
        let back = tempriv_runtime::ManifestReader::read(&manifest).unwrap();
        assert_eq!(back.records.len(), 1);
        let blob = back.records[0].blob(Blob::Audit).expect("audit journaled");
        let audit: tempriv_core::telemetry::JobAudit = serde_json::from_str(blob).unwrap();
        assert_eq!(audit.root.len(), 16);
        assert!(!audit.scenarios.is_empty());
        assert!(audit.scenarios.iter().all(|s| s.digest.events > 0));
        assert_eq!(audit.root, audit.compute_root());

        let err = run(&["sweep", "--quiet", "--digest-window", "256"]).unwrap_err();
        assert!(err.contains("requires --telemetry"));
        let err = run(&[
            "sweep",
            "--quiet",
            "--telemetry",
            "t.json",
            "--digest-window",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("must be positive"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn privacy_interval_journals_blobs_and_requires_telemetry() {
        let dir = std::env::temp_dir().join("tempriv_cli_privacy_interval_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("run.jsonl");
        let man_str = manifest.to_str().unwrap();
        run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "120",
            "--quiet",
            "--manifest",
            man_str,
            "--telemetry",
            dir.join("t.json").to_str().unwrap(),
            "--privacy-interval",
            "25",
        ])
        .unwrap();
        let back = tempriv_runtime::ManifestReader::read(&manifest).unwrap();
        assert_eq!(back.records.len(), 1);
        let blob = back.records[0]
            .blob(Blob::Privacy)
            .expect("privacy journaled");
        let privacy: tempriv_core::telemetry::JobPrivacy = serde_json::from_str(blob).unwrap();
        assert!(!privacy.scenarios.is_empty());
        assert!(privacy
            .scenarios
            .iter()
            .all(|s| !s.series.points.is_empty()));

        // The telemetry export aggregates the per-flow gauges.
        let parsed: tempriv_core::telemetry::TelemetryExport =
            serde_json::from_str(&std::fs::read_to_string(dir.join("t.json")).unwrap()).unwrap();
        assert!(parsed
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_privacy_mi_nats{flow=")));

        // And `report` renders them from the manifest alone.
        let prom = run(&["report", man_str, "--format", "prometheus"]).unwrap();
        assert!(prom.contains("tempriv_privacy_mi_nats"));

        let err = run(&["sweep", "--quiet", "--privacy-interval", "25"]).unwrap_err();
        assert!(err.contains("requires --telemetry"));
        let err = run(&[
            "sweep",
            "--quiet",
            "--telemetry",
            "t.json",
            "--privacy-interval",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("must be positive"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn privacy_instrumentation_leaves_stdout_untouched() {
        let dir = std::env::temp_dir().join("tempriv_cli_privacy_stdout_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = ["sweep", "--points", "2", "--packets", "60", "--quiet"];
        let plain = run(&base).unwrap();
        let observed = run(&[
            &base[..],
            &[
                "--telemetry",
                dir.join("t.json").to_str().unwrap(),
                "--privacy-interval",
                "10",
            ],
        ]
        .concat())
        .unwrap();
        assert_eq!(plain, observed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_oneshot_prints_per_flow_table_and_dumps_series() {
        let dir = std::env::temp_dir().join("tempriv_cli_watch_oneshot_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let series_path = dir.join("series.json");
        let out = run(&[
            "watch",
            "--packets",
            "120",
            "--seed",
            "3",
            "--interval",
            "25",
            "--quiet",
            "--out",
            series_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("snapshots every 25 deliveries"));
        assert!(out.contains("mi_nats"));
        assert!(out.lines().any(|l| l.starts_with("f0")));
        let series: tempriv_telemetry::PrivacySeries =
            serde_json::from_str(&std::fs::read_to_string(&series_path).unwrap()).unwrap();
        assert!(series.deliveries > 0);
        assert!(!series.points.is_empty());
        assert!(!series.summary.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_once_renders_manifest_state() {
        let dir = std::env::temp_dir().join("tempriv_cli_watch_manifest_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("run.jsonl");
        let man_str = manifest.to_str().unwrap();
        run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "120",
            "--quiet",
            "--manifest",
            man_str,
            "--telemetry",
            dir.join("t.json").to_str().unwrap(),
            "--privacy-interval",
            "25",
        ])
        .unwrap();
        let out = run(&["watch", man_str, "--once"]).unwrap();
        assert!(out.contains("watch fig3: 1/1 jobs recorded, 1 with privacy series"));
        assert!(out.contains("tempriv_privacy_mi_nats{flow="));

        // A manifest without privacy blobs names the missing flag.
        let plain = dir.join("plain.jsonl");
        run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "60",
            "--quiet",
            "--manifest",
            plain.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&["watch", plain.to_str().unwrap(), "--once"]).unwrap();
        assert!(out.contains("no privacy series recorded"));
        assert!(out.contains("--privacy-interval"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_rejects_bad_arguments() {
        let err = run(&["watch", "--interval", "0"]).unwrap_err();
        assert!(err.contains("--interval must be positive"));
        let err = run(&["watch", "--bins", "1"]).unwrap_err();
        assert!(err.contains("--bins must be at least 2"));
        let err = run(&["watch", "/nonexistent/run.jsonl", "--once"]).unwrap_err();
        assert!(err.contains("cannot read manifest"));
    }

    #[test]
    fn profile_prints_phase_table_and_merged_chrome_trace() {
        let dir = std::env::temp_dir().join("tempriv_cli_profile_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("profile.json");
        let out = run(&[
            "profile",
            "--points",
            "4",
            "--packets",
            "40",
            "--seed",
            "7",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("profile fig2: 1 jobs, 3 scenarios"), "{out}");
        assert!(out.contains("phase"), "{out}");
        assert!(out.contains("engine_loop"), "{out}");
        assert!(out.contains("queue_push"), "{out}");
        // The table closes with a total row at 100%.
        let total = out
            .lines()
            .find(|l| l.starts_with("total"))
            .expect("total row");
        assert!(total.contains("100.0%"), "{total}");

        // The merged Chrome trace is structurally valid and carries all
        // three layers: spans, phase bands, and packet residences.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"cat\":\"span\""), "span events");
        assert!(text.contains("\"cat\":\"phase\""), "phase bands");
        assert!(text.contains("\"cat\":\"residence\""), "flight events");
        // One trace id end to end.
        let ids: std::collections::BTreeSet<&str> = text
            .split("\"trace_id\":\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert_eq!(ids.len(), 1, "single trace id: {ids:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_json_is_a_parseable_breakdown_that_sums_to_total() {
        let out = run(&[
            "profile",
            "--points",
            "4",
            "--packets",
            "40",
            "--seed",
            "7",
            "--json",
        ])
        .unwrap();
        let breakdown: tempriv_telemetry::PhaseBreakdown = serde_json::from_str(&out).unwrap();
        assert!(breakdown.total_secs > 0.0);
        let sum: f64 = breakdown.phases.iter().map(|p| p.secs).sum();
        assert!(
            (sum - breakdown.total_secs).abs() < 1e-9,
            "phases sum to total: {sum} vs {}",
            breakdown.total_secs
        );
        assert!(breakdown
            .phases
            .iter()
            .any(|p| p.phase == "victim_select" && p.count > 0));
    }

    #[test]
    fn profile_rejects_bad_arguments() {
        let err = run(&["profile", "--batch", "0"]).unwrap_err();
        assert!(err.contains("--batch must be positive"));
        let err = run(&["profile", "--experiment", "fig9", "--packets", "30"]).unwrap_err();
        assert!(err.contains("unknown experiment"));
    }

    #[test]
    fn report_on_uninstrumented_manifest_notes_missing_telemetry() {
        let dir = std::env::temp_dir().join("tempriv_cli_report_plain_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("run.jsonl");
        let man_str = manifest.to_str().unwrap();
        run(&[
            "sweep",
            "--experiment",
            "fig3",
            "--points",
            "2",
            "--packets",
            "60",
            "--quiet",
            "--manifest",
            man_str,
        ])
        .unwrap();
        let text = run(&["report", man_str]).unwrap();
        assert!(text.contains("instrumented=0"));
        assert!(text.contains("no job attached telemetry"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
