//! The repository benchmark: one command that runs a named workload
//! against the workspace crates, checks its outputs, and prints the
//! end-to-end metrics (or, with `--trace 1`, the per-layer metrics) by
//! name and unit, ending with one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload geo_field --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and the metrics.

mod cpu;
mod fig1;
mod geo;
mod machine;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::{Body, Outcome};
use trace::Tracer;

/// Counting allocator over `System`; the gate is opened only inside the
/// traced run's allocation measurement (and by the serve tier, which
/// keeps it on for its `/metrics` gauges).
#[global_allocator]
static ALLOC: tempriv_telemetry::CountingAlloc = tempriv_telemetry::CountingAlloc;

/// Workload names, in documentation order.
pub const WORKLOADS: [&str; 3] = ["fig1_sweep", "geo_field", "serve_mixed"];

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the timed body runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrunken inputs for the smoke test; digests are not compared.
    pub tiny: bool,
    /// Only time the set-up repeats and print their median (the child
    /// processes behind `setup_s`).
    pub setup_probe: bool,
    /// `available_parallelism`: the bound on every thread count.
    pub nproc: usize,
}

/// One benchmark workload: set up from the seed, run a timed body, then
/// check outputs (and, when traced, time the per-layer calls).
pub trait Workload {
    /// Ready-to-run state.
    type State;
    /// Set-up repeats whose median is `setup_s`.
    fn setup_repeats(&self, cfg: &Config) -> usize;
    /// Builds the state from the seed.
    fn setup(&self, cfg: &Config, tr: &Tracer) -> Self::State;
    /// Runs operations for `seconds`.
    fn body(&self, st: &mut Self::State, cfg: &Config, tr: &Tracer, seconds: f64) -> Body;
    /// Output checks; with `tr` on, also the per-layer call pass.
    fn finish(&self, st: Self::State, cfg: &Config, tr: &Tracer, out: &mut Outcome);
    /// Tears down resources the state holds (threads, temp files).
    fn teardown(&self, st: Self::State) {
        drop(st);
    }
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut setup_probe = false;
    while let Some(flag) = args.next() {
        if flag == "--tiny" || flag == "--setup-probe" {
            tiny |= flag == "--tiny";
            setup_probe |= flag == "--setup-probe";
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}` (one of {WORKLOADS:?})"));
                }
                workload = Some(value);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        setup_probe,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// Processes, besides the workload's own, whose median set-up CPU time
/// `setup_s` takes the median over. Set-ups under a millisecond differ by
/// up to 2x between processes of the same binary (the host places their
/// memory differently), so one process's median is not a stable estimate.
const SETUP_PROCESSES: usize = 6;

/// Times the workload's set-up repeats; returns the last state.
fn set_ups<W: Workload>(w: &W, cfg: &Config, tr: &Tracer, out: &mut Outcome) -> W::State {
    let mut state = None;
    for _ in 0..w.setup_repeats(cfg) {
        if let Some(old) = state.take() {
            w.teardown(old);
        }
        tr.next_op();
        let t = Instant::now();
        let cpu = cpu::process_cpu_s();
        state = Some(tr.span("bench.setup", || w.setup(cfg, tr)));
        out.setup_s.push(cpu::process_cpu_s() - cpu);
        out.setup_wall_s.push(t.elapsed().as_secs_f64());
    }
    state.expect("at least one set-up")
}

/// The median set-up time of a child process running `--setup-probe`.
fn probe_setup(cfg: &Config) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        &cfg.workload,
        "--seed",
        &cfg.seed.to_string(),
        "--setup-probe",
    ]);
    if cfg.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse()) {
        (true, Ok(secs)) => Ok(secs),
        _ => Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Seconds of each untraced chunk of the body (at least one op); the
/// host-speed reference is measured between chunks.
const CHUNK_S: f64 = 0.25;

/// Set-up repeats, the timed body, then checks. An untraced run times
/// the body in chunks bracketed by host-speed measurements (see
/// [`speed`]). A traced run splits the time between untraced and traced
/// chunks (for the overhead), then makes the per-layer call pass.
fn run<W: Workload>(w: &W, cfg: &Config) -> Outcome {
    let tr = Tracer::new(cfg.trace);
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    if !cfg.trace {
        for _ in 0..SETUP_PROCESSES {
            match probe_setup(cfg) {
                Ok(secs) => out.setup_medians.push(secs),
                Err(e) => out.check(e, false),
            }
        }
    }
    let mut st = set_ups(w, cfg, &tr, &mut out);
    out.setup_medians
        .extend(stats::Summary::of(&out.setup_s).map(|s| s.median));
    if cfg.trace {
        // Untraced and traced chunks alternate, so warm-up and drift
        // fall on both sides of the overhead comparison.
        let chunk = cfg.seconds / 8.0;
        let mut untraced = Body::default();
        let started = Instant::now();
        while out.body.attempted == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
            untraced.merge(tr.span("bench.untraced_body", || w.body(&mut st, cfg, &off, chunk)));
            out.body
                .merge(tr.span("bench.body", || w.body(&mut st, cfg, &tr, chunk)));
        }
        out.untraced = Some(untraced);
    } else {
        let reference = speed::Reference::new();
        let started = Instant::now();
        let mut before = reference.measure_ms();
        out.reference_ms.push(before);
        while out.body.attempted == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
            let chunk = w.body(&mut st, cfg, &tr, CHUNK_S.min(cfg.seconds));
            let after = reference.measure_ms();
            let scale = speed::NOMINAL_MS / ((before + after) / 2.0);
            out.norm_cpu_ms
                .extend(chunk.cpu_ms.iter().map(|ms| ms * scale));
            out.reference_ms.push(after);
            out.body.merge(chunk);
            before = after;
        }
    }
    w.finish(st, cfg, &tr, &mut out);
    out.wall_s = tr.now();
    out.spans = tr.finish();
    out
}

/// `--setup-probe`: the median of this process's set-up repeats.
fn probe_median<W: Workload>(w: &W, cfg: &Config) -> f64 {
    let mut out = Outcome::default();
    let st = set_ups(w, cfg, &Tracer::new(false), &mut out);
    w.teardown(st);
    stats::Summary::of(&out.setup_s).map_or(f64::NAN, |s| s.median)
}

/// Runs `w` (or only its set-up probe) and prints the results.
fn run_and_print<W: Workload>(w: &W, cfg: &Config) -> ExitCode {
    if cfg.setup_probe {
        println!("{:?}", probe_median(w, cfg));
        return ExitCode::SUCCESS;
    }
    let mut out = run(w, cfg);
    if report::print(cfg, &mut out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match cfg.workload.as_str() {
        "fig1_sweep" => run_and_print(&fig1::Fig1Sweep, &cfg),
        "geo_field" => run_and_print(&geo::Geo, &cfg),
        "serve_mixed" => run_and_print(&serve::ServeMixed, &cfg),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}
