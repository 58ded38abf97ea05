//! The serve workloads: an in-process `dfp-serve` driven over loopback
//! HTTP by an open-loop generator.
//!
//! Requests arrive on a seeded Poisson schedule and are timed from when
//! they were due, not from when they went out, so a stall is charged to
//! every request queued behind it. At most `nproc` generator threads send,
//! one connection each, one request per connection (the threaded core
//! serves one request per connection). A run repeats cycles of
//! [low phase, high phase, rate ladder, closed-loop phase] until
//! `--seconds` have passed.

use crate::fit::{self, check_held_out, replicate};
use crate::rng::{mix, poisson_offsets, Rng, Zipf};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::{host_cores, work_dir, Args, Outcome};
use dfp_core::{FrameworkConfig, PatternClassifier};
use dfp_data::dataset::{Dataset, Value};
use dfp_data::schema::{ClassId, Schema};
use dfp_obs::metrics::HistogramSnapshot;
use dfp_obs::tsdb::bucket_quantile;
use dfp_registry::{ModelRegistry, RegistryConfig};
use dfp_serve::{ServerConfig, ServerHandle};
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct ServeSpec {
    pub registry: bool,
    pub rows_per_request: usize,
}

pub const ONLINE: ServeSpec = ServeSpec {
    registry: false,
    rows_per_request: 1,
};

pub const REGISTRY: ServeSpec = ServeSpec {
    registry: true,
    rows_per_request: 64,
};

/// Open-loop rates in requests per second, the same for both workloads:
/// about a quarter and two-thirds of the closed-loop capacity with `nproc`
/// connections. That capacity measured about 3.8k for single-row requests,
/// and between 4k and 7k for 64-row registry requests (they skip the batch
/// scheduler's linger) as the shared host's speed drifted; the rates follow
/// the slower figure, so `HIGH` stays below capacity in slow hours too.
/// `lat_p50_ms` is taken at `LOW`, where the figure is service time and not
/// queueing, so it holds when the host runs slower.
pub const LOW: f64 = 1000.0;
pub const HIGH: f64 = 2700.0;
/// Ladder rates above `HIGH`: `HIGH * LADDER_RATIO^k` for `k` in
/// `1..=LADDER_STEPS`.
pub const LADDER_RATIO: f64 = 1.05;
pub const LADDER_STEPS: usize = 30;
/// p99 latency limit a ladder step must meet, in ms.
pub const LIMIT_MS: f64 = 20.0;
/// Requests per low/high phase and per ladder step: enough for a p99 with
/// `MIN_BEYOND` samples beyond it.
pub const PHASE_REQUESTS: usize = 1000;
const _: () = assert!(PHASE_REQUESTS >= 100 * crate::stats::MIN_BEYOND);

const MODEL: &str = "bench";
const ADMIN_TOKEN: &str = "perfbench-admin-token";
/// Distinct rows the registry workload draws from: about 4x the transform
/// cache's `DEFAULT_CAP`.
const POOL_ROWS: usize = 4 * dfp_serve::cache::DEFAULT_CAP;
const ZIPF_S: f64 = 1.1;
/// Cadence of the admin hot-swap writer.
const SWAP_EVERY: Duration = Duration::from_millis(250);
const WARMUP_REQUESTS: usize = 200;
/// Requests the traced run replays in-process through the serving path.
const REPLAY_REQUESTS: usize = 200;
/// Times the traced run fits and replays the served model.
const TRACED_FITS: u64 = 5;
/// Replicate indices of the served models and of request rows. The served
/// models come from `fit::SETUP_SEED` whatever the run's `--seed`, which
/// draws only the traffic: a served model is a fixed deployment, and
/// refitting it per seed moved the median latency between seeds.
const MODEL_BASE: u64 = 1 << 41;
const ROWS_BASE: u64 = 1 << 42;

/// A running server with everything needed to check its answers.
struct Setup {
    handle: ServerHandle,
    addr: SocketAddr,
    /// The served artifacts, decoded in-process; two for the registry
    /// workload (it alternates them), one otherwise.
    models: Vec<PatternClassifier>,
    artifacts: Vec<Vec<u8>>,
    registry: Option<Arc<ModelRegistry>>,
    root: Option<PathBuf>,
    /// The first model's training and held-out data, for the traced replay.
    train: Dataset,
    test: Dataset,
    probe: String,
}

impl Setup {
    fn schema(&self) -> &Schema {
        self.models[0].schema().expect("fitted from a raw dataset")
    }

    fn predict_path(&self, spec: &ServeSpec) -> String {
        if spec.registry {
            format!("/m/{MODEL}/predict")
        } else {
            "/predict".to_string()
        }
    }

    fn shutdown(self) {
        self.handle.shutdown();
        drop(self.registry);
        if let Some(root) = self.root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn setup(spec: &ServeSpec, k: u64, out: &mut Outcome) -> Result<Setup, String> {
    let cfg = FrameworkConfig::pat_fs();
    let n_models = if spec.registry { 2 } else { 1 };
    let mut models = Vec::new();
    let mut artifacts = Vec::new();
    let mut data = Vec::new();
    for v in 0..n_models {
        let (train, test) = replicate("austral", fit::SETUP_SEED, MODEL_BASE + 2 * k + v);
        let m = PatternClassifier::fit(&train, &cfg)
            .map_err(|e| format!("fitting the served model: {e}"))?;
        check_held_out(out, "served model", &m, &test);
        let bytes = dfp_model::to_bytes(&m);
        models.push(
            dfp_model::from_bytes(&bytes).map_err(|e| format!("decoding the artifact: {e}"))?,
        );
        artifacts.push(bytes);
        data.push((train, test));
    }
    let (train, test) = data.swap_remove(0);
    let probe = fit::csv_line(&test.schema, &test.rows[0]);
    let (handle, registry, root) = if spec.registry {
        let root = work_dir().join(format!("registry-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        let registry = Arc::new(
            ModelRegistry::open_with_validator(
                RegistryConfig::new(&root),
                Some(dfp_serve::registry_validator()),
            )
            .map_err(|e| format!("opening the registry: {e}"))?,
        );
        registry
            .publish_bytes(MODEL, &artifacts[0], Some(&probe))
            .map_err(|e| format!("publishing: {e}"))?;
        let cfg = ServerConfig::default().with_admin_token(ADMIN_TOKEN);
        let handle =
            dfp_serve::serve_registry_with_config(None, Arc::clone(&registry), "127.0.0.1:0", cfg)
                .map_err(|e| format!("binding: {e}"))?;
        (handle, Some(registry), Some(root))
    } else {
        let handle =
            dfp_serve::serve_with_config(models[0].clone(), "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("binding: {e}"))?;
        (handle, None, None)
    };
    let addr = handle.addr();
    let st = Setup {
        handle,
        addr,
        models,
        artifacts,
        registry,
        root,
        train,
        test,
        probe,
    };
    let ready = if spec.registry {
        format!("/m/{MODEL}/readyz")
    } else {
        "/readyz".to_string()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if exchange(addr, "GET", &ready, &[], b"").map(|r| r.status) == Ok(200) {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("{ready} never answered 200"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let path = st.predict_path(spec);
    for row in st.test.rows.iter().cycle().take(WARMUP_REQUESTS) {
        let mut body = fit::csv_line(st.schema(), row);
        body.push('\n');
        let r = exchange(addr, "POST", &path, &[], body.as_bytes())?;
        if r.status != 200 {
            return Err(format!("warm-up request answered {}", r.status));
        }
    }
    Ok(st)
}

struct Reply {
    status: u16,
    body: String,
}

/// One request on a fresh connection, read to the server's close.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    send_on(&mut stream, method, path, headers, body)
}

fn send_on(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<Reply, String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\nContent-Length: {}\r\n", body.len());
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    let mut bytes = req.into_bytes();
    bytes.extend_from_slice(body);
    stream.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header terminator")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("no status line")?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

/// One request's fate. Times are nanoseconds after its due time.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub latency_ns: u64,
    pub lag_ns: u64,
    pub connect_ns: u64,
    pub status: u16,
    pub body: String,
}

/// Sends `bodies[i]` at `start + offsets[i]` from `workers` threads and
/// returns the samples in schedule order.
fn open_loop(
    addr: SocketAddr,
    path: &str,
    bodies: &[String],
    offsets: &[f64],
    workers: usize,
    inflight_max: &AtomicUsize,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let inflight = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let mut samples = vec![Sample::default(); bodies.len()];
    let filled = Mutex::new(&mut samples);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= bodies.len() {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(offsets[i]);
                    wait_until(due);
                    let sent = Instant::now();
                    let now_inflight = inflight.fetch_add(1, Ordering::Relaxed) + 1;
                    inflight_max.fetch_max(now_inflight, Ordering::Relaxed);
                    let (reply, connect_ns) = match TcpStream::connect(addr) {
                        Ok(mut stream) => {
                            let connect_ns = sent.elapsed().as_nanos() as u64;
                            (
                                send_on(&mut stream, "POST", path, &[], bodies[i].as_bytes()),
                                connect_ns,
                            )
                        }
                        Err(e) => (Err(format!("connect: {e}")), 0),
                    };
                    let done = Instant::now();
                    inflight.fetch_sub(1, Ordering::Relaxed);
                    let (status, body) = match reply {
                        Ok(r) => (r.status, r.body),
                        Err(e) => (0, e),
                    };
                    mine.push((
                        i,
                        Sample {
                            latency_ns: (done - due).as_nanos() as u64,
                            lag_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                            connect_ns,
                            status,
                            body,
                        },
                    ));
                }
                let mut all = filled.lock().expect("a generator thread panicked");
                for (i, sample) in mine {
                    all[i] = sample;
                }
            });
        }
    });
    samples
}

/// Sleeps most of the way to `due`, then yields until it passes; sleeping
/// the whole way would add the timer's overshoot to every latency.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Latencies in ms with every failed request as an infinite latency: a
/// failure always misses the limit.
fn latencies_with_misses(timings: &[Timing]) -> Vec<f64> {
    sorted(
        &timings
            .iter()
            .map(|t| if t.ok { t.latency_ms } else { f64::INFINITY })
            .collect::<Vec<_>>(),
    )
}

fn ok_latencies_ms(timings: &[Timing]) -> Vec<f64> {
    sorted(
        &timings
            .iter()
            .filter(|t| t.ok)
            .map(|t| t.latency_ms)
            .collect::<Vec<_>>(),
    )
}

/// Whether the generator fell further behind during a step: the median
/// lateness of the step's last quarter of sends exceeds that of its first
/// quarter by more than a quarter of the latency limit. Medians, so a
/// short stall does not count; an overload, which delays every later
/// send, does.
pub fn backlog_grew(lags_ms: &[f64], limit_ms: f64) -> bool {
    let q = lags_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&lags_ms[..q]).unwrap_or(0.0);
    let last = median(&lags_ms[lags_ms.len() - q..]).unwrap_or(0.0);
    last - first > limit_ms / 4.0
}

/// Whether a ladder step meets the limit: a reportable p99 (failures
/// counted as misses) within `limit_ms`, and no growing backlog.
pub fn step_passes(latencies_with_misses: &[f64], lags_ms: &[f64], limit_ms: f64) -> bool {
    matches!(percentile(latencies_with_misses, 99.0), Some(p) if p <= limit_ms)
        && !backlog_grew(lags_ms, limit_ms)
}

/// Consecutive failing steps that end a climbing ladder. One failure
/// alone does not: on a shared host a single stall can push one step's p99
/// past the limit.
pub const LADDER_STOP_AFTER: usize = 2;

/// The rate of the ladder's next step after `steps` (rate, passed), or
/// `None` when it stops. The first two steps are `low` and `high`. From
/// `high` the ladder climbs by `LADDER_RATIO` until `LADDER_STOP_AFTER`
/// steps in a row fail; if `high` failed it descends by the same ratio
/// until a step passes or the rate reaches `low`. Either way it takes at
/// most `LADDER_STEPS` steps beyond `high`, so its answer tracks capacity
/// in proportion rather than falling to `low` when `high` is missed.
pub fn ladder_next(steps: &[(f64, bool)]) -> Option<f64> {
    match steps.len() {
        0 => return Some(LOW),
        1 => return Some(HIGH),
        _ => {}
    }
    let beyond = steps.len() - 2;
    if beyond >= LADDER_STEPS {
        return None;
    }
    let k = beyond as i32 + 1;
    if steps[1].1 {
        let failing = steps[1..]
            .iter()
            .rev()
            .take_while(|(_, pass)| !pass)
            .count();
        (failing < LADDER_STOP_AFTER).then(|| HIGH * LADDER_RATIO.powi(k))
    } else {
        let passed = beyond > 0 && steps[steps.len() - 1].1;
        let rate = HIGH / LADDER_RATIO.powi(k);
        (!passed && rate > LOW).then_some(rate)
    }
}

/// The ladder's answer: the highest rate that passed, or 0 if none did.
pub fn ladder_max(steps: &[(f64, bool)]) -> f64 {
    steps
        .iter()
        .filter(|(_, pass)| *pass)
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max)
}

/// One phase's requests and what their answers must be. Labels are class
/// indices.
struct Batch {
    bodies: Vec<String>,
    /// Per request, its rows' ids: pool indices, or for fresh rows their
    /// position in the order they were handed out.
    ids: Vec<Vec<usize>>,
    /// Per request, the true classes of its rows.
    truth: Vec<Vec<u32>>,
    /// Per served artifact, per request, that artifact's in-process labels.
    expected: Vec<Vec<Vec<u32>>>,
}

/// The registry workload's fixed row pool, predicted in-process once.
struct Pool {
    lines: Vec<String>,
    truth: Vec<u32>,
    expected: Vec<Vec<u32>>,
    zipf: Zipf,
    /// Zipf rank to pool row, shuffled so the hot rows are spread out.
    order: Vec<usize>,
}

/// Rows for requests: fresh rows, each sent once, for the online workload;
/// Zipf draws from a fixed pool for the registry workload.
struct RowSource {
    seed: u64,
    chunks: u64,
    schema: Schema,
    fresh: VecDeque<(String, Vec<Value>, ClassId)>,
    /// Hashes of every line produced, so no line is produced twice.
    seen: HashSet<u64>,
    pool: Option<Pool>,
    /// Fresh rows handed out so far.
    handed_out: usize,
    rng: Rng,
}

fn class_ids(labels: &[ClassId]) -> Vec<u32> {
    labels.iter().map(|l| l.0).collect()
}

impl RowSource {
    fn new(spec: &ServeSpec, seed: u64, models: &[PatternClassifier]) -> Result<Self, String> {
        let schema = models[0]
            .schema()
            .expect("fitted from a raw dataset")
            .clone();
        let mut src = RowSource {
            seed,
            chunks: 0,
            schema,
            fresh: VecDeque::new(),
            seen: HashSet::new(),
            pool: None,
            handed_out: 0,
            rng: Rng::new(seed, 0x2EC5),
        };
        if spec.registry {
            while src.fresh.len() < POOL_ROWS {
                src.add_chunk();
            }
            let rows: Vec<_> = src.fresh.drain(..).take(POOL_ROWS).collect();
            let (expected, truth) = src.predict(models, &rows)?;
            let mut order: Vec<usize> = (0..POOL_ROWS).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, src.rng.below(i + 1));
            }
            src.pool = Some(Pool {
                lines: rows.into_iter().map(|r| r.0).collect(),
                truth,
                expected,
                zipf: Zipf::new(POOL_ROWS, ZIPF_S),
                order,
            });
        }
        Ok(src)
    }

    /// Queues the not-yet-seen rows of one more fresh austral replicate.
    fn add_chunk(&mut self) {
        let (a, b) = replicate("austral", self.seed, ROWS_BASE + self.chunks);
        self.chunks += 1;
        for d in [a, b] {
            for (row, label) in d.rows.into_iter().zip(d.labels) {
                let line = fit::csv_line(&self.schema, &row);
                let mut h = std::hash::DefaultHasher::new();
                line.hash(&mut h);
                if self.seen.insert(h.finish()) {
                    self.fresh.push_back((line, row, label));
                }
            }
        }
    }

    /// Per model, the in-process labels of `rows`; and their true classes.
    #[allow(clippy::type_complexity)]
    fn predict(
        &self,
        models: &[PatternClassifier],
        rows: &[(String, Vec<Value>, ClassId)],
    ) -> Result<(Vec<Vec<u32>>, Vec<u32>), String> {
        let data = Dataset::new(
            self.schema.clone(),
            rows.iter().map(|r| r.1.clone()).collect(),
            rows.iter().map(|r| r.2).collect(),
        );
        let expected = models
            .iter()
            .map(|m| {
                m.predict(&data)
                    .map(|l| class_ids(&l))
                    .map_err(|e| format!("in-process predict: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((expected, class_ids(&data.labels)))
    }

    fn batch(
        &mut self,
        spec: &ServeSpec,
        models: &[PatternClassifier],
        n: usize,
    ) -> Result<Batch, String> {
        if let Some(pool) = &self.pool {
            let mut batch = Batch {
                bodies: Vec::with_capacity(n),
                ids: Vec::with_capacity(n),
                truth: Vec::with_capacity(n),
                expected: vec![Vec::with_capacity(n); models.len()],
            };
            for _ in 0..n {
                let ids: Vec<usize> = (0..spec.rows_per_request)
                    .map(|_| pool.order[pool.zipf.sample(&mut self.rng)])
                    .collect();
                batch.bodies.push(
                    ids.iter()
                        .map(|&id| format!("{}\n", pool.lines[id]))
                        .collect(),
                );
                batch
                    .truth
                    .push(ids.iter().map(|&id| pool.truth[id]).collect());
                for (m, e) in batch.expected.iter_mut().enumerate() {
                    e.push(ids.iter().map(|&id| pool.expected[m][id]).collect());
                }
                batch.ids.push(ids);
            }
            return Ok(batch);
        }
        while self.fresh.len() < n {
            self.add_chunk();
        }
        let rows: Vec<_> = self.fresh.drain(..n).collect();
        let (expected, truth) = self.predict(models, &rows)?;
        self.handed_out += n;
        Ok(Batch {
            ids: (self.handed_out - n..self.handed_out)
                .map(|id| vec![id])
                .collect(),
            bodies: rows.into_iter().map(|r| r.0 + "\n").collect(),
            truth: truth.into_iter().map(|t| vec![t]).collect(),
            expected: expected
                .into_iter()
                .map(|e| e.into_iter().map(|l| vec![l]).collect())
                .collect(),
        })
    }
}

/// What is kept of a request once its answer has been checked. `ok` means
/// a 200 whose labels are one served artifact's for the whole request.
#[derive(Debug, Clone, Copy)]
struct Timing {
    latency_ms: f64,
    lag_ms: f64,
    connect_ms: f64,
    ok: bool,
}

/// Served labels scored against the rows' true classes, each distinct row
/// once: under Zipf draws a few hot rows would otherwise decide the score.
#[derive(Debug, Default)]
struct Scored {
    seen: HashSet<usize>,
    rows: usize,
    right: usize,
}

/// Checks every answer of a phase and scores its served labels.
fn check(
    batch: &Batch,
    samples: Vec<Sample>,
    class_names: &[String],
    out: &mut Outcome,
    scored: &mut Scored,
) -> Vec<Timing> {
    samples
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            out.attempted += 1;
            let answer: Vec<u32> = s
                .body
                .lines()
                .map(|l| {
                    class_names
                        .iter()
                        .position(|c| c == l)
                        .map_or(u32::MAX, |p| p as u32)
                })
                .collect();
            let ok = if s.status != 200 {
                out.problem(format!("request answered {}: {}", s.status, s.body.trim()));
                false
            } else if !batch.expected.iter().any(|e| e[i] == answer) {
                out.problem(format!(
                    "request {i}: answer {:?} is no served artifact's answer for the whole request",
                    s.body
                ));
                false
            } else {
                for ((&id, a), t) in batch.ids[i].iter().zip(&answer).zip(&batch.truth[i]) {
                    if scored.seen.insert(id) {
                        scored.rows += 1;
                        scored.right += usize::from(a == t);
                    }
                }
                true
            };
            if !ok {
                out.failed += 1;
            }
            Timing {
                latency_ms: s.latency_ns as f64 / 1e6,
                lag_ms: s.lag_ns as f64 / 1e6,
                connect_ms: s.connect_ns as f64 / 1e6,
                ok,
            }
        })
        .collect()
}

/// Which part of a cycle a phase was.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Low,
    High,
    Step,
}

struct PhaseRecord {
    phase: Phase,
    cycle: u32,
    rate: f64,
    pass: bool,
    timings: Vec<Timing>,
}

/// The server's own counters and histograms, read before and after the
/// load so the per-layer figures cover exactly the measured requests.
struct ServerView {
    batches: u64,
    batch_size: HistogramSnapshot,
    queue_wait: HistogramSnapshot,
    latency: HistogramSnapshot,
    cache_hits: u64,
    cache_misses: u64,
    shed: u64,
    server_errors: u64,
    registry_latency: Option<HistogramSnapshot>,
}

impl ServerView {
    fn read(st: &Setup) -> Self {
        let m = st.handle.metrics();
        ServerView {
            batches: m.batches_total.get(),
            batch_size: m.batch_size.snapshot(),
            queue_wait: m.queue_wait.snapshot(),
            latency: m.predict_latency.snapshot(),
            cache_hits: m.transform_cache_hits_total.get(),
            cache_misses: m.transform_cache_misses_total.get(),
            shed: m.shed_total.get(),
            server_errors: m.server_errors_total.get(),
            registry_latency: st
                .registry
                .as_ref()
                .and_then(|r| r.model(MODEL))
                .map(|slot| slot.latency().snapshot()),
        }
    }
}

/// `b - a` for two snapshots of one histogram.
pub fn hist_delta(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: b.bounds.clone(),
        cumulative: b
            .cumulative
            .iter()
            .zip(&a.cumulative)
            .map(|(y, x)| y - x)
            .collect(),
        sum_nanos: b.sum_nanos - a.sum_nanos,
        count: b.count - a.count,
    }
}

/// Percentile `p` of a bucketed histogram in seconds, interpolated inside
/// its bucket by [`bucket_quantile`], under the same reporting rule as
/// [`percentile`].
pub fn hist_percentile(h: &HistogramSnapshot, p: f64) -> Option<f64> {
    let n = h.count as usize;
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if p > 50.0 && n - rank < crate::stats::MIN_BEYOND {
        return None;
    }
    Some(bucket_quantile(&h.bounds, &h.cumulative, p / 100.0))
}

fn swap_writer(st: &Setup, stop: &AtomicBool, log: &Mutex<Vec<(f64, u16)>>) {
    let mut next = 1;
    let mut last = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        if last.elapsed() < SWAP_EVERY {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        last = Instant::now();
        let reply = exchange(
            st.addr,
            "PUT",
            &format!("/m/{MODEL}"),
            &[
                ("X-Admin-Token", ADMIN_TOKEN),
                ("X-Probe-Row", &st.probe),
                ("Content-Type", "application/octet-stream"),
            ],
            &st.artifacts[next],
        );
        let status = reply.map_or(0, |r| r.status);
        log.lock()
            .expect("swap log")
            .push((last.elapsed().as_secs_f64(), status));
        if status == 200 {
            next = 1 - next;
        }
    }
}

pub fn run(spec: &ServeSpec, args: &Args, tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut current: Option<Setup> = None;
    // The last set-up (k = 0) is the one measured, in traced runs too.
    for k in (0..if tracer.is_some() { 1 } else { fit::SETUPS }).rev() {
        if let Some(prev) = current.take() {
            prev.shutdown();
        }
        let started = Instant::now();
        match setup(spec, k, &mut out) {
            Ok(st) => {
                setup_s.push(started.elapsed().as_secs_f64());
                current = Some(st);
            }
            Err(e) => {
                out.problem(format!("set-up: {e}"));
                out.failed += 1;
                out.attempted += 1;
                return out;
            }
        }
    }
    let st = current.expect("at least one set-up");
    let mut source = match RowSource::new(spec, args.seed, &st.models) {
        Ok(s) => s,
        Err(e) => {
            out.problem(e);
            out.attempted += 1;
            out.failed += 1;
            st.shutdown();
            return out;
        }
    };
    let class_names = st.schema().class_names.clone();
    let path = st.predict_path(spec);
    let workers = host_cores();
    let inflight_max = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let swaps = Mutex::new(Vec::new());
    let before = ServerView::read(&st);
    let mut records: Vec<PhaseRecord> = Vec::new();
    let mut replay_bodies: Vec<String> = Vec::new();
    let mut scored = Scored::default();
    let mut closed_rps: Vec<f64> = Vec::new();
    std::thread::scope(|s| {
        if spec.registry {
            s.spawn(|| swap_writer(&st, &stop, &swaps));
        }
        let started = Instant::now();
        let mut cycle = 0u32;
        'cycles: loop {
            let mut steps: Vec<(f64, bool)> = Vec::new();
            while let Some(rate) = ladder_next(&steps) {
                let k = steps.len();
                let phase = match k {
                    0 => Phase::Low,
                    1 => Phase::High,
                    _ => Phase::Step,
                };
                let batch = match source.batch(spec, &st.models, PHASE_REQUESTS) {
                    Ok(b) => b,
                    Err(e) => {
                        out.problem(e);
                        break 'cycles;
                    }
                };
                let mut rng = Rng::new(mix(args.seed, u64::from(cycle)), k as u64);
                let offsets = poisson_offsets(&mut rng, rate, PHASE_REQUESTS);
                let samples = open_loop(
                    st.addr,
                    &path,
                    &batch.bodies,
                    &offsets,
                    workers,
                    &inflight_max,
                );
                let timings = check(&batch, samples, &class_names, &mut out, &mut scored);
                if phase == Phase::High && replay_bodies.is_empty() {
                    replay_bodies = batch.bodies.iter().take(REPLAY_REQUESTS).cloned().collect();
                }
                let lat = latencies_with_misses(&timings);
                let lags: Vec<f64> = timings.iter().map(|t| t.lag_ms).collect();
                let pass = step_passes(&lat, &lags, LIMIT_MS);
                eprintln!(
                    "  cycle {cycle} {phase:?} {rate:.0}/s: p50 {:.3} ms, p99 {:.3} ms, backlog grew {}, {}",
                    percentile(&lat, 50.0).unwrap_or(f64::NAN),
                    percentile(&lat, 99.0).unwrap_or(f64::NAN),
                    backlog_grew(&lags, LIMIT_MS),
                    if pass { "pass" } else { "FAIL" }
                );
                records.push(PhaseRecord {
                    phase,
                    cycle,
                    rate,
                    pass,
                    timings,
                });
                steps.push((rate, pass));
            }
            // Closed loop: every request is due at once, so the generator
            // threads send back to back and the phase's wall time gives the
            // throughput at saturation. Unlike the ladder's pass or fail, a
            // host stall costs it only the stall's share of the phase.
            let batch = match source.batch(spec, &st.models, PHASE_REQUESTS) {
                Ok(b) => b,
                Err(e) => {
                    out.problem(e);
                    break 'cycles;
                }
            };
            let samples = open_loop(
                st.addr,
                &path,
                &batch.bodies,
                &[0.0; PHASE_REQUESTS],
                workers,
                &inflight_max,
            );
            let wall_s = samples.iter().map(|s| s.latency_ns).max().unwrap_or(0) as f64 / 1e9;
            let timings = check(&batch, samples, &class_names, &mut out, &mut scored);
            let served = timings.iter().filter(|t| t.ok).count();
            let rps = served as f64 / wall_s.max(f64::MIN_POSITIVE);
            eprintln!("  cycle {cycle} Closed {workers} clients: {rps:.0}/s");
            closed_rps.push(rps);
            cycle += 1;
            if started.elapsed() >= args.seconds {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let after = ServerView::read(&st);
    let swaps = swaps.into_inner().expect("swap log");
    out.attempted += swaps.len() as u64;
    let swap_failures = swaps.iter().filter(|(_, status)| *status != 200).count();
    if swap_failures > 0 {
        out.failed += swap_failures as u64;
        out.problem(format!(
            "{swap_failures} of {} hot-swaps failed",
            swaps.len()
        ));
    }

    // End-to-end figures.
    let phase_lat = |p: Phase| -> Vec<f64> {
        sorted(
            &records
                .iter()
                .filter(|r| r.phase == p)
                .flat_map(|r| ok_latencies_ms(&r.timings))
                .collect::<Vec<_>>(),
        )
    };
    let (low, high) = (phase_lat(Phase::Low), phase_lat(Phase::High));
    let cycles = records.iter().map(|r| r.cycle).max().map_or(0, |c| c + 1);
    let ladder_maxes: Vec<f64> = (0..cycles)
        .map(|c| {
            let steps: Vec<(f64, bool)> = records
                .iter()
                .filter(|r| r.cycle == c)
                .map(|r| (r.rate, r.pass))
                .collect();
            ladder_max(&steps)
        })
        .collect();
    let max_rps = median(&ladder_maxes).unwrap_or(0.0);
    // Other tenants of a shared host only ever slow a cycle down, so the
    // calmest cycle's median at `low` is the latency figure that repeats;
    // `(p50, samples)`.
    let calmest_low = (0..cycles)
        .filter_map(|c| {
            let t: Vec<Timing> = records
                .iter()
                .filter(|r| r.cycle == c && r.phase == Phase::Low)
                .flat_map(|r| r.timings.iter().copied())
                .collect();
            let ok = ok_latencies_ms(&t);
            percentile(&ok, 50.0).map(|p| (p, ok.len()))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0));
    out.set("setup_s", median(&setup_s).unwrap_or(0.0));
    out.set("lat_p50_ms", calmest_low.map_or(0.0, |c| c.0));
    out.set("bench.samples", calmest_low.map_or(0.0, |c| c.1 as f64));
    out.set(
        "rows_per_s",
        median(&closed_rps).unwrap_or(0.0) * spec.rows_per_request as f64,
    );
    out.set("accuracy", scored.right as f64 / scored.rows.max(1) as f64);
    out.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    out.samples.push(("set-ups".to_string(), setup_s.len()));
    out.samples.push((
        "lat_p50_ms (the calmest cycle's low phase)".to_string(),
        calmest_low.map_or(0, |c| c.1),
    ));
    out.samples
        .push(("ladders".to_string(), ladder_maxes.len()));
    out.samples
        .push(("closed-loop phases".to_string(), closed_rps.len()));

    // Per-layer figures from the same load.
    let all: Vec<&Timing> = records.iter().flat_map(|r| &r.timings).collect();
    let ms = |v: Option<f64>| v.unwrap_or(0.0);
    out.set("gen.lat_p50_ms.low", ms(percentile(&low, 50.0)));
    out.set("gen.lat_p99_ms.low", ms(percentile(&low, 99.0)));
    out.set("gen.lat_p50_ms.high", ms(percentile(&high, 50.0)));
    out.set("gen.lat_p99_ms.high", ms(percentile(&high, 99.0)));
    out.set("gen.max_rps_slo", max_rps);
    out.set("gen.samples.low", low.len() as f64);
    out.set("gen.samples.high", high.len() as f64);
    let lags = sorted(&all.iter().map(|t| t.lag_ms).collect::<Vec<_>>());
    out.set("gen.lag_ms.p99", ms(percentile(&lags, 99.0)));
    out.set(
        "gen.inflight_max",
        inflight_max.load(Ordering::Relaxed) as f64,
    );
    out.set("gen.sent", all.len() as f64);
    out.set("gen.failed", all.iter().filter(|t| !t.ok).count() as f64);
    let connects = sorted(
        &all.iter()
            .filter(|t| t.ok)
            .map(|t| t.connect_ms)
            .collect::<Vec<_>>(),
    );
    out.set("serve.connect_ms.p50", ms(percentile(&connects, 50.0)));
    let qw = hist_delta(&before.queue_wait, &after.queue_wait);
    out.set(
        "serve.queue_wait_ms.p50",
        ms(hist_percentile(&qw, 50.0)) * 1e3,
    );
    out.set(
        "serve.queue_wait_ms.p99",
        ms(hist_percentile(&qw, 99.0)) * 1e3,
    );
    let lat = hist_delta(&before.latency, &after.latency);
    out.set("serve.server_ms.p50", ms(hist_percentile(&lat, 50.0)) * 1e3);
    out.set("serve.server_ms.p99", ms(hist_percentile(&lat, 99.0)) * 1e3);
    out.set("serve.batches", (after.batches - before.batches) as f64);
    let bs = hist_delta(&before.batch_size, &after.batch_size);
    out.set(
        "serve.batch_size_mean",
        if bs.count > 0 {
            bs.sum_nanos as f64 / 1e9 / bs.count as f64
        } else {
            0.0
        },
    );
    let (hits, misses) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    out.set(
        "serve.cache_hit_ratio",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
    );
    out.set("serve.shed", (after.shed - before.shed) as f64);
    out.set(
        "serve.server_errors",
        (after.server_errors - before.server_errors) as f64,
    );
    if let (Some(a), Some(b)) = (&before.registry_latency, &after.registry_latency) {
        let h = hist_delta(a, b);
        out.set(
            "registry.predict_ms.p50",
            ms(hist_percentile(&h, 50.0)) * 1e3,
        );
        out.set(
            "registry.predict_ms.p99",
            ms(hist_percentile(&h, 99.0)) * 1e3,
        );
    }
    let swap_s: Vec<f64> = swaps
        .iter()
        .filter(|(_, status)| *status == 200)
        .map(|(s, _)| *s)
        .collect();
    out.set("registry.swaps", swap_s.len() as f64);
    out.set("registry.swap_failures", swap_failures as f64);
    out.set("registry.swap_s_p50", median(&swap_s).unwrap_or(0.0));
    out.samples.push(("hot-swaps".to_string(), swap_s.len()));

    if let Some(tr) = tracer {
        traced_extras(&st, &replay_bodies, tr, &mut out);
    }
    st.shutdown();
    out
}

/// The traced run's replays: the served model's fit through the stage
/// functions, a sample of requests through the serving path, the artifact
/// codec, in-process publishes, and `/metrics` scrapes.
fn traced_extras(st: &Setup, bodies: &[String], tr: &mut Tracer, out: &mut Outcome) {
    // One traced fit of the small served model is at the mercy of a single
    // host stall; the medians over several are not.
    let mut traces = Vec::new();
    for op in 0..TRACED_FITS {
        match fit::traced_fit(&st.train, &st.test, &FrameworkConfig::pat_fs(), tr, op, out) {
            Ok((_, t)) => traces.push(t),
            Err(e) => out.problem(format!("traced fit of the served model: {e}")),
        }
    }
    if !traces.is_empty() {
        fit::fit_layer_metrics(&traces, out);
    }
    fit::model_metrics(&st.models[0], out);
    let overhead = fit::serving_path_metrics(&st.models[0], bodies, tr, out);
    out.set("bench.trace_overhead", overhead);
    if let Some(registry) = &st.registry {
        let mut publish = Vec::new();
        for k in 0..4 {
            let t = Instant::now();
            match registry.publish_bytes(MODEL, &st.artifacts[k % 2], Some(&st.probe)) {
                Ok(_) => publish.push(t.elapsed().as_secs_f64()),
                Err(e) => out.problem(format!("in-process publish failed: {e}")),
            }
        }
        out.set("registry.publish_s", median(&publish).unwrap_or(0.0));
    }
    let mut scrape = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        match exchange(st.addr, "GET", "/metrics", &[], b"") {
            Ok(r) if r.status == 200 => scrape.push(t.elapsed().as_secs_f64() * 1e3),
            _ => out.problem("GET /metrics failed".to_string()),
        }
    }
    out.set("obs.scrape_ms", median(&scrape).unwrap_or(0.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a ladder against a server whose steps pass iff `passes(rate)`.
    fn climb(passes: impl Fn(f64) -> bool) -> Vec<(f64, bool)> {
        let mut steps = Vec::new();
        while let Some(rate) = ladder_next(&steps) {
            steps.push((rate, passes(rate)));
        }
        steps
    }

    #[test]
    fn ladder_climbs_until_two_failures_in_a_row() {
        let steps = climb(|r| r < 3500.0);
        assert_eq!((steps[0].0, steps[1].0), (LOW, HIGH));
        assert!(
            steps[steps.len() - 2..].iter().all(|s| !s.1),
            "ends on two failures"
        );
        assert!(steps[..steps.len() - 2].iter().all(|s| s.1));
        let best = ladder_max(&steps);
        assert!(
            best < 3500.0 && best * LADDER_RATIO >= 3500.0,
            "best {best}"
        );
        // One failing step alone does not stop the climb.
        let noisy = climb(|r| r < 3500.0 && (r - HIGH * LADDER_RATIO).abs() > 1e-9);
        assert_eq!(ladder_max(&noisy), best);
    }

    #[test]
    fn ladder_descends_when_high_fails_and_stops_at_the_first_pass() {
        let steps = climb(|r| r < 2000.0);
        assert!(!steps[1].1);
        assert!(steps.last().unwrap().1, "ends on a pass");
        let best = ladder_max(&steps);
        assert!(
            best < 2000.0 && best * LADDER_RATIO >= 2000.0,
            "best {best}"
        );
        // When nothing passes the answer is 0, after at most `LADDER_STEPS`
        // steps beyond high and never below low.
        let dead = climb(|_| false);
        assert_eq!(ladder_max(&dead), 0.0);
        assert!(dead.len() <= 2 + LADDER_STEPS);
        assert!(dead.iter().all(|s| s.0 >= LOW));
        // A server that passes everything stops at the step budget.
        let fast = climb(|_| true);
        assert_eq!(fast.len(), 2 + LADDER_STEPS);
    }

    #[test]
    fn a_step_fails_on_a_slow_tail_a_failure_or_a_growing_backlog() {
        let fast: Vec<f64> = vec![1.0; 1000];
        let flat_lag = vec![0.1; 1000];
        assert!(step_passes(&fast, &flat_lag, 5.0));
        // Too few samples for a p99: not a pass.
        assert!(!step_passes(&fast[..999], &flat_lag[..999], 5.0));
        // 11 misses out of 1000 push p99 to infinity.
        let mut failed = fast.clone();
        failed[989..].iter_mut().for_each(|x| *x = f64::INFINITY);
        assert!(!step_passes(&failed, &flat_lag, 5.0));
        let mut nine = fast.clone();
        nine[991..].iter_mut().for_each(|x| *x = f64::INFINITY);
        assert!(step_passes(&nine, &flat_lag, 5.0), "p99 is the 990th value");
        // Lateness rising from 0.1 ms to 4 ms: the generator is falling behind.
        let rising: Vec<f64> = (0..1000).map(|i| 0.1 + 4.0 * i as f64 / 1000.0).collect();
        assert!(backlog_grew(&rising, 5.0));
        assert!(!step_passes(&fast, &rising, 5.0));
        assert!(!backlog_grew(&rising, 20.0));
        // A stall late in the step delays a few sends, not the median.
        let mut stall = flat_lag.clone();
        stall[900..960].iter_mut().for_each(|x| *x = 30.0);
        assert!(!backlog_grew(&stall, 5.0));
    }

    #[test]
    fn histogram_percentiles_interpolate_within_buckets() {
        let h = HistogramSnapshot {
            bounds: vec![0.001, 0.01],
            cumulative: vec![500, 1000, 1000],
            sum_nanos: 0,
            count: 1000,
        };
        assert_eq!(hist_percentile(&h, 50.0), Some(0.001));
        let p99 = hist_percentile(&h, 99.0).unwrap();
        assert!((p99 - (0.001 + 0.98 * 0.009)).abs() < 1e-12);
        let tail = HistogramSnapshot {
            cumulative: vec![0, 0, 1000],
            ..h.clone()
        };
        assert_eq!(hist_percentile(&tail, 50.0), Some(0.01));
        let small = HistogramSnapshot {
            cumulative: vec![50, 100, 100],
            count: 100,
            ..h.clone()
        };
        assert_eq!(hist_percentile(&small, 99.0), None);
        let d = hist_delta(&small, &h);
        assert_eq!((d.count, d.cumulative.clone()), (900, vec![450, 900, 900]));
    }
}
