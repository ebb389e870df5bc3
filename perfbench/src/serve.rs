//! `serve_mixed`: an in-process `tempriv-serve` server with `nproc` job
//! workers, an in-memory cache and a journal in a temp directory, driven
//! by a closed loop of `nproc` client threads. One submission in
//! [`COLD_EVERY`] is a new one-point Figure-1 `fig3` spec, long-polled
//! to done and its result fetched; the rest repeat specs already cached.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use tempriv_core::experiment::fig3_sweep_with;
use tempriv_runtime::{content_digest, Runtime};
use tempriv_serve::client::{request, submit_job, ClientResponse};
use tempriv_serve::{JobSpec, ServeConfig, Server, ServerHandle};

use crate::report::{Body, Outcome};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{Config, Workload};

/// One submission in this many is cold.
const COLD_EVERY: usize = 10;
/// Distinct warm specs, cached before the timed body.
const WARM_SPECS: usize = 16;
/// Packets per source of every spec.
const PACKETS: u32 = 60;
/// Cold results compared warm-vs-cold and against the in-process sweep.
const CHECKED_COLD: usize = 3;
/// Completions per throughput and CPU sample.
const RATE_BLOCK: usize = 500;
/// Accepted submissions after which `peak_rss_mb` is read. The server
/// keeps state for every submission, so a reading at the end of the body
/// would grow with throughput; a fixed count keeps the two apart.
const RSS_MARK: usize = 10_000;
/// Where the journal directories live, relative to the working directory.
const TMP_DIR: &str = ".perfbench_tmp";

/// The workload.
pub struct ServeMixed;

/// A running server and what the bodies have learnt about it.
pub struct State {
    handle: Option<ServerHandle>,
    addr: String,
    dir: PathBuf,
    seed: u64,
    warm: Vec<String>,
    next: usize,
    /// `(submission index, spec, result bytes)` of the earliest cold
    /// submissions, at most [`CHECKED_COLD`].
    cold_results: Vec<(usize, String, Vec<u8>)>,
    /// Per-layer samples from the traced chunks.
    layer: LayerSamples,
    /// Accepted submissions so far, across bodies.
    accepted: AtomicUsize,
    /// `VmHWM` in MB when the [`RSS_MARK`]-th submission was accepted.
    rss_at_mark: OnceLock<f64>,
}

/// Server-side series read from `/metrics`, as deltas over the traced
/// chunks.
const SCRAPED: [&str; 7] = [
    "tempriv_serve_queue_wait_ms_sum",
    "tempriv_serve_queue_wait_ms_count",
    "tempriv_serve_job_wall_ms_sum",
    "tempriv_serve_job_wall_ms_count",
    "tempriv_serve_cache_hits_total",
    "tempriv_serve_cache_misses_total",
    "tempriv_serve_rejected_total",
];

#[derive(Debug, Default)]
struct LayerSamples {
    warm_submit_ms: Vec<f64>,
    cold_submit_ms: Vec<f64>,
    polls: Vec<f64>,
    result_ms: Vec<f64>,
    scraped: [f64; SCRAPED.len()],
}

fn scrape_all(addr: &str) -> [f64; SCRAPED.len()] {
    let text = request(addr, "GET", "/metrics", &[], &[])
        .map(|r| r.text())
        .unwrap_or_default();
    SCRAPED.map(|name| scrape(&text, name))
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A one-point `fig3` spec. Warm specs use `index < WARM_SPECS`; every
/// cold index maps to a sweep seed no other index uses.
fn spec(seed: u64, index: usize, packets: u32) -> String {
    let inv_lambda = 2.0 + (splitmix(seed ^ index as u64) % 73) as f64 * 0.25;
    let sweep_seed = 1 + (seed % 100_000) * 10_000_000 + index as u64;
    format!(
        "{{\"experiment\":\"fig3\",\"inv_lambdas\":[{inv_lambda}],\
         \"packets_per_source\":{packets},\"seed\":{sweep_seed}}}"
    )
}

/// Per block of [`RATE_BLOCK`] completions, in completion order:
/// accepted submissions per wall second and process CPU ms per
/// submission. `done` holds each completion's `(wall s, CPU s)` since
/// the body started; fewer than a block give one whole-body sample.
fn blocks(mut done: Vec<(f64, f64)>, wall_s: f64, cpu_s: f64) -> (Vec<f64>, Vec<f64>) {
    if done.len() <= RATE_BLOCK {
        let n = done.len() as f64;
        return (vec![n / wall_s], vec![cpu_s * 1e3 / n.max(1.0)]);
    }
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut rates, mut cpu_ms) = (Vec::new(), Vec::new());
    let (mut t0, mut c0) = (0.0, 0.0);
    for block in done.chunks_exact(RATE_BLOCK) {
        let (t1, c1) = block[RATE_BLOCK - 1];
        rates.push(RATE_BLOCK as f64 / (t1 - t0));
        cpu_ms.push((c1 - c0) * 1e3 / RATE_BLOCK as f64);
        (t0, c0) = (t1, c1);
    }
    (rates, cpu_ms)
}

fn extract_id(body: &str) -> Option<String> {
    let rest = body.split("\"id\":\"").nth(1)?;
    Some(rest.split('"').next()?.to_string())
}

/// Sum of every sample of the Prometheus series `name` (all labels).
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
        .sum()
}

/// Long-polls job `id` to done; returns the poll count and whether the
/// job succeeded.
fn wait_done(addr: &str, id: &str) -> Result<(usize, bool), String> {
    let mut polls = 0;
    loop {
        polls += 1;
        let text = request(
            addr,
            "GET",
            &format!("/v1/jobs/{id}?wait_ms=5000"),
            &[],
            &[],
        )?
        .text();
        if text.contains("\"state\":\"done\"") {
            return Ok((polls, text.contains("\"ok\":true")));
        }
    }
}

fn fetch_result(addr: &str, id: &str) -> Result<Vec<u8>, String> {
    let resp = request(addr, "GET", &format!("/v1/jobs/{id}/result"), &[], &[])?;
    if resp.status != 200 {
        return Err(format!("result returned {}", resp.status));
    }
    Ok(resp.body)
}

/// Submits, retrying through admission `429`s (counted server-side in
/// `serve.rejected_frac`); returns the accepted response and its round
/// trip in ms.
fn submit(addr: &str, tenant: &str, spec: &str) -> Result<(ClientResponse, f64), String> {
    loop {
        let t = Instant::now();
        let resp = submit_job(addr, tenant, spec)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match resp.status {
            200 | 202 => return Ok((resp, ms)),
            429 => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => return Err(format!("submit returned {other}: {}", resp.text())),
        }
    }
}

/// Submits a spec and waits for it; returns the job id.
fn submit_and_wait(addr: &str, spec: &str) -> Result<String, String> {
    let (resp, _) = submit(addr, "prep", spec)?;
    let id = extract_id(&resp.text()).ok_or("no id in submit response")?;
    match wait_done(addr, &id)? {
        (_, true) => Ok(id),
        (_, false) => Err(format!("job {id} failed")),
    }
}

/// A submission's outcome with its completion `(wall s, CPU s)` since
/// the body started.
type Completion = (Result<Sample, String>, (f64, f64));

/// What one client submission measured.
enum Sample {
    Warm {
        submit_ms: f64,
    },
    Cold {
        index: usize,
        submit_ms: f64,
        done_ms: f64,
        polls: usize,
        result_ms: f64,
        spec: String,
        bytes: Vec<u8>,
    },
}

fn one_submission(st: &State, index: usize, packets: u32) -> Result<Sample, String> {
    let tenant = format!("t{}", index % 4);
    if index.is_multiple_of(COLD_EVERY) {
        let spec = spec(st.seed, WARM_SPECS + index / COLD_EVERY, packets);
        let t = Instant::now();
        let (resp, submit_ms) = submit(&st.addr, &tenant, &spec)?;
        let id = extract_id(&resp.text()).ok_or("no id in submit response")?;
        let (polls, ok) = wait_done(&st.addr, &id)?;
        if !ok {
            return Err(format!("cold job {id} failed"));
        }
        let done_ms = t.elapsed().as_secs_f64() * 1e3;
        let r = Instant::now();
        let bytes = fetch_result(&st.addr, &id)?;
        let result_ms = r.elapsed().as_secs_f64() * 1e3;
        Ok(Sample::Cold {
            index,
            submit_ms,
            done_ms,
            polls,
            result_ms,
            spec,
            bytes,
        })
    } else {
        let pick = (splitmix(st.seed.rotate_left(17) ^ index as u64) % WARM_SPECS as u64) as usize;
        let (resp, submit_ms) = submit(&st.addr, &tenant, &st.warm[pick])?;
        if !resp.text().contains("\"cached\":true") {
            return Err("warm repeat was not answered from the cache".to_string());
        }
        Ok(Sample::Warm { submit_ms })
    }
}

fn rss_mark(cfg: &Config) -> usize {
    if cfg.tiny {
        RSS_MARK / 50
    } else {
        RSS_MARK
    }
}

fn packets(cfg: &Config) -> u32 {
    if cfg.tiny {
        20
    } else {
        PACKETS
    }
}

impl Workload for ServeMixed {
    type State = State;

    fn setup_repeats(&self, _cfg: &Config) -> usize {
        25
    }

    /// Bind → first `/healthz` answer.
    fn setup(&self, cfg: &Config, tr: &Tracer) -> State {
        static SERIAL: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(TMP_DIR).join(format!(
            "serve-{}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("journal directory is creatable");
        let server = tr.span("serve.bind", || {
            Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: cfg.nproc,
                cache_dir: None,
                journal: Some(dir.join("journal.jsonl")),
                max_queue: 64,
                tenant_quota: 64,
            })
            .expect("loopback server binds")
        });
        let handle = server.spawn();
        let addr = handle.addr.to_string();
        tr.span("serve.healthz", || loop {
            if request(&addr, "GET", "/healthz", &[], &[]).is_ok_and(|r| r.status == 200) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        });
        State {
            handle: Some(handle),
            addr,
            dir,
            seed: cfg.seed,
            warm: Vec::new(),
            next: 0,
            cold_results: Vec::new(),
            layer: LayerSamples::default(),
            accepted: AtomicUsize::new(0),
            rss_at_mark: OnceLock::new(),
        }
    }

    fn body(&self, st: &mut State, cfg: &Config, tr: &Tracer, seconds: f64) -> Body {
        let mut body = Body::default();
        if st.warm.is_empty() {
            st.warm = (0..WARM_SPECS)
                .map(|i| spec(st.seed, i, packets(cfg)))
                .collect();
            for s in &st.warm {
                if submit_and_wait(&st.addr, s).is_err() {
                    body.failed += 1;
                }
            }
        }
        let before = if tr.on() {
            scrape_all(&st.addr)
        } else {
            [0.0; SCRAPED.len()]
        };
        let next = AtomicUsize::new(st.next);
        let samples: Mutex<Vec<Completion>> = Mutex::new(Vec::new());
        let started = Instant::now();
        let cpu0 = crate::cpu::process_cpu_s();
        let deadline = started + Duration::from_secs_f64(seconds);
        let shared: &State = st;
        let parent = tr.current();
        let rss_mark = rss_mark(cfg);
        std::thread::scope(|scope| {
            for _ in 0..cfg.nproc {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while mine.is_empty() || Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let t0 = tr.now();
                        let sample = one_submission(shared, index, packets(cfg));
                        let name = match &sample {
                            Ok(Sample::Cold { .. }) => "serve.cold_submission",
                            _ => "serve.warm_submission",
                        };
                        tr.record_parallel(name, index, t0, tr.now(), parent);
                        let done = (
                            started.elapsed().as_secs_f64(),
                            crate::cpu::process_cpu_s() - cpu0,
                        );
                        if sample.is_ok()
                            && shared.accepted.fetch_add(1, Ordering::Relaxed) + 1 == rss_mark
                        {
                            let _ = shared.rss_at_mark.set(crate::report::peak_rss_mb());
                        }
                        mine.push((sample, done));
                    }
                    samples
                        .lock()
                        .expect("sample lock poisoned by a panic")
                        .extend(mine);
                });
            }
        });
        body.wall_s = started.elapsed().as_secs_f64();
        let cpu_s = crate::cpu::process_cpu_s() - cpu0;
        st.next = next.into_inner();
        let layer = &mut st.layer;
        let traced = tr.on();
        let mut cold_ms = Vec::new();
        let mut accepted = Vec::new();
        for (sample, done_at) in samples
            .into_inner()
            .expect("sample lock poisoned by a panic")
        {
            body.attempted += 1;
            if sample.is_ok() {
                accepted.push(done_at);
            }
            match sample {
                Ok(Sample::Warm { submit_ms }) => {
                    body.op_ms.push(submit_ms);
                    if traced {
                        layer.warm_submit_ms.push(submit_ms);
                    }
                }
                Ok(Sample::Cold {
                    index,
                    submit_ms,
                    done_ms,
                    polls,
                    result_ms,
                    spec,
                    bytes,
                }) => {
                    body.op_ms.push(submit_ms);
                    cold_ms.push(done_ms);
                    if traced {
                        layer.cold_submit_ms.push(submit_ms);
                        layer.polls.push(polls as f64);
                        layer.result_ms.push(result_ms);
                    }
                    st.cold_results.push((index, spec, bytes));
                    st.cold_results.sort_unstable_by_key(|c| c.0);
                    st.cold_results.truncate(CHECKED_COLD);
                }
                Err(e) => {
                    eprintln!("serve_mixed: {e}");
                    body.failed += 1;
                }
            }
        }
        body.cold_ms = cold_ms;
        body.serve = true;
        (body.rates, body.cpu_ms) = blocks(accepted, body.wall_s, cpu_s);
        if traced {
            let after = scrape_all(&st.addr);
            for (acc, (a, b)) in st.layer.scraped.iter_mut().zip(after.iter().zip(before)) {
                *acc += a - b;
            }
        }
        body
    }

    fn finish(&self, mut st: State, cfg: &Config, tr: &Tracer, out: &mut Outcome) {
        tr.set_op(usize::MAX);
        let checked = std::mem::take(&mut st.cold_results);
        let mut same_warm = !checked.is_empty();
        let mut same_inproc = !checked.is_empty();
        tr.span("bench.check", || {
            for (_, spec, cold) in &checked {
                let warm = submit(&st.addr, "check", spec).and_then(|(resp, _)| {
                    let text = resp.text();
                    let id = extract_id(&text).ok_or("no id in submit response")?;
                    if !text.contains("\"cached\":true") {
                        return Err("resubmitted cold spec was not cached".to_string());
                    }
                    fetch_result(&st.addr, &id)
                });
                same_warm &= warm.as_ref() == Ok(cold);
                let params = JobSpec::from_body(spec.as_bytes())
                    .expect("generated specs are valid")
                    .sweep_params();
                let runtime = Runtime::builder()
                    .workers(1)
                    .build()
                    .expect("in-memory runtime builds");
                let rows = serde_json::to_string(&fig3_sweep_with(&params, &runtime))
                    .expect("rows serialize");
                same_inproc &= rows.as_bytes() == cold.as_slice();
            }
        });
        out.check("warm result bytes equal the cold result bytes", same_warm);
        out.check(
            "cold results equal the in-process fig3_sweep_with of the same spec",
            same_inproc,
        );
        let mut all = Vec::new();
        for (_, spec, bytes) in &checked {
            all.extend_from_slice(spec.as_bytes());
            all.extend_from_slice(bytes);
        }
        out.digest = Some(content_digest(&all));
        match st.rss_at_mark.get() {
            Some(&mb) => out.rss_mb = Some(mb),
            None => out.notes.push(format!(
                "fewer than {} submissions accepted: peak_rss_mb read at the end",
                rss_mark(cfg)
            )),
        }
        if tr.on() {
            let layer = std::mem::take(&mut st.layer);
            let median = |v: &[f64]| Summary::of(v).map(|s| s.median);
            out.layer
                .insert("serve.warm_submit_ms_p50", median(&layer.warm_submit_ms));
            out.layer.insert(
                "serve.warm_submit_ms_p99",
                Summary::percentile(&layer.warm_submit_ms, 99.0),
            );
            out.layer
                .insert("serve.cold_submit_ms_p50", median(&layer.cold_submit_ms));
            out.layer
                .insert("serve.result_ms_p50", median(&layer.result_ms));
            let polls = layer.polls.iter().sum::<f64>() / layer.polls.len().max(1) as f64;
            out.layer("serve.polls_per_cold", polls);
            let [q_sum, q_count, wall_sum, wall_count, hits, misses, rejected] = layer.scraped;
            out.layer("serve.queue_wait_ms", q_sum / q_count.max(1.0));
            out.layer("serve.job_wall_ms", wall_sum / wall_count.max(1.0));
            let lookups = (hits + misses).max(1.0);
            out.layer("serve.cache_hit_rate", hits / lookups);
            out.layer("serve.rejected_frac", rejected / lookups);
        }
        self.teardown(st);
    }

    fn teardown(&self, mut st: State) {
        let _ = request(&st.addr, "POST", "/v1/shutdown", &[], &[]);
        if let Some(handle) = st.handle.take() {
            handle.join();
        }
        let _ = std::fs::remove_dir_all(&st.dir);
        // Succeeds only once the last run's directory is gone.
        let _ = std::fs::remove_dir(TMP_DIR);
    }
}
