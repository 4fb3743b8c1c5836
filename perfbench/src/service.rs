//! The trace-service side: a journal pool, an in-process `chamserve`
//! daemon, closed-loop clients, and replays through the journal codec,
//! query renderers, session store and CRC.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chamserve::util::{crc32, splitmix64};
use chamserve::{http, push_journal_with, RetryPolicy, ServeConfig, Server, SessionStore};
use obs::{query, RunJournal};

use crate::report::{check_body, percentile, samples_for, Checker, Metrics};
use crate::spans::{LaneSpan, Spans};

/// Decoded journals the daemon keeps cached (the daemon's default).
pub const CACHE_ENTRIES: usize = 64;
/// Sessions pushed at set-up, which the GETs choose from: a quarter more
/// than the cache holds, so about two thirds of the GETs hit the cache.
/// The median GET then lies among the hits and p99 among the misses,
/// which decode a spilled journal. With twice the cache the hit share
/// came out near one half, and the median jumped between hit and miss
/// latency from run to run.
pub const PRE_PUSHED: usize = CACHE_ENTRIES + CACHE_ENTRIES / 4;
/// Daemon worker threads.
pub const SERVER_THREADS: usize = 2;
/// Closed-loop clients; each waits for its reply before the next request.
pub const CLIENTS: u64 = 2;
/// One push for every `PUSH_EVERY - 1` GETs on average. An assumed
/// read-heavy mix, not observed traffic: the repository's own callers
/// (`matrix run --push`, `chaos supervise --push`) only push, and the CI
/// smoke job sends one GET per endpoint to one session.
const PUSH_EVERY: u64 = 8;
const TIMEOUT: Duration = Duration::from_secs(30);

/// A journal of the pool with every response the daemon must give for it.
pub struct PoolEntry {
    pub name: String,
    pub text: String,
    journal: RunJournal,
    summarize: String,
    spans: String,
    metrics: String,
    anomalies: String,
    timeline: Vec<String>,
}

/// The journals pushed at the daemon and the expected query bodies,
/// rendered by `obs::query` from the locally decoded journals.
pub struct Pool {
    pub entries: Vec<PoolEntry>,
    /// `diff[a][b]`: the diff of entry `a` against entry `b`.
    diff: Vec<Vec<String>>,
}

impl Pool {
    pub fn new(journals: Vec<(String, RunJournal)>, check: &mut Checker) -> Pool {
        let mut entries = Vec::new();
        for (name, j) in journals {
            let text = j.to_jsonl();
            let journal = match RunJournal::from_jsonl(&text) {
                Ok(d) if d == j => d,
                Ok(_) => {
                    check.op(
                        &name,
                        Err("journal changed through to_jsonl -> from_jsonl".into()),
                    );
                    continue;
                }
                Err(e) => {
                    check.op(&name, Err(format!("journal does not parse: {e}")));
                    continue;
                }
            };
            let timeline = (0..journal.ranks)
                .map(|r| query::timeline_json(&journal, r).unwrap_or_default())
                .collect();
            entries.push(PoolEntry {
                summarize: query::summarize_json(&journal),
                spans: query::spans_json(&journal),
                metrics: query::metrics_json(&journal),
                anomalies: query::anomalies_json(&journal),
                timeline,
                name,
                text,
                journal,
            });
        }
        let diff = entries
            .iter()
            .map(|a| {
                entries
                    .iter()
                    .map(|b| query::diff_json(&a.journal, &b.journal))
                    .collect()
            })
            .collect();
        Pool { entries, diff }
    }

    pub fn sample_body(&self) -> Option<&str> {
        self.entries.first().map(|e| e.summarize.as_str())
    }

    pub fn print(&self) {
        for e in &self.entries {
            println!(
                "# pool {:<24} {:>9} bytes, {} ranks",
                e.name,
                e.text.len(),
                e.journal.ranks
            );
        }
    }
}

/// A counter-based SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A running daemon with its pre-pushed sessions.
pub struct Service {
    server: Server,
    addr: String,
    dir: PathBuf,
    /// (run ID, pool index) of every pre-pushed session.
    sessions: Vec<(String, usize)>,
}

fn push(addr: &str, id: &str, body: &str) -> Result<(), String> {
    match push_journal_with(addr, id, body.as_bytes(), &RetryPolicy::once()) {
        Ok(receipt) if receipt.contains("\"ok\":true") => Ok(()),
        Ok(receipt) => Err(format!("push {id}: unexpected receipt {receipt:?}")),
        Err(e) => Err(format!("push {id}: {e}")),
    }
}

impl Service {
    /// Start a daemon on a fresh data directory and push `PRE_PUSHED`
    /// sessions.
    pub fn start(pool: &Pool, dir: &Path, check: &mut Checker) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(dir);
        let server = Server::start(
            "127.0.0.1:0",
            ServeConfig {
                data_dir: dir.to_path_buf(),
                cache_entries: CACHE_ENTRIES,
                threads: SERVER_THREADS,
                ..ServeConfig::default()
            },
        )?;
        let addr = server.addr().to_string();
        let mut sessions = Vec::new();
        for i in 0..PRE_PUSHED {
            let idx = i % pool.entries.len();
            let id = format!("pre-{i:04}");
            check.op(
                &format!("pre-push {id}"),
                push(&addr, &id, &pool.entries[idx].text),
            );
            sessions.push((id, idx));
        }
        Ok(Service {
            server,
            addr,
            dir: dir.to_path_buf(),
            sessions,
        })
    }

    /// Scrape the daemon's own telemetry (`GET /metrics`).
    pub fn telemetry(&self) -> Result<String, String> {
        match http::request(&self.addr, "GET", "/metrics", &[], TIMEOUT) {
            Ok((200, body)) => String::from_utf8(body).map_err(|_| "metrics not UTF-8".into()),
            Ok((status, _)) => Err(format!("GET /metrics: HTTP {status}")),
            Err(e) => Err(e),
        }
    }

    /// Stop the daemon, join its threads and delete its data.
    pub fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Client-side results of one measured loop.
#[derive(Default)]
pub struct LoopStats {
    pub push_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub wall: f64,
    /// Pool index of every journal pushed.
    pub pushed: Vec<usize>,
    pub lanes: Vec<Vec<LaneSpan>>,
}

impl LoopStats {
    pub fn requests(&self) -> usize {
        self.push_ms.len() + self.query_ms.len()
    }

    pub fn report(&self, m: &mut Metrics) {
        println!(
            "# service loop: {} pushes, {} queries in {:.3} s (p90 needs {}, p99 needs {})",
            self.push_ms.len(),
            self.query_ms.len(),
            self.wall,
            samples_for(0.9),
            samples_for(0.99)
        );
        let pct = |v: &[f64], q: f64| {
            if v.is_empty() {
                f64::NAN
            } else {
                percentile(v, q)
            }
        };
        m.set("push_p50_ms", pct(&self.push_ms, 0.5), "ms");
        m.set("push_p90_ms", pct(&self.push_ms, 0.9), "ms");
        m.set("query_p50_ms", pct(&self.query_ms, 0.5), "ms");
        m.set("query_p99_ms", pct(&self.query_ms, 0.99), "ms");
        m.set("req_per_s", self.requests() as f64 / self.wall, "1/s");
    }
}

/// Drive the daemon with closed-loop clients for at least `duration`,
/// and until the percentiles reported have ten samples beyond them.
/// With `epoch`, every request is recorded as a span.
pub fn run_loop(
    svc: &Service,
    pool: &Pool,
    seed: u64,
    duration: Duration,
    epoch: Option<Instant>,
    check: &mut Checker,
) -> LoopStats {
    let pushes = AtomicU64::new(0);
    let queries = AtomicU64::new(0);
    let min_push = samples_for(0.9) as u64;
    let min_query = samples_for(0.99) as u64;
    let merged = Mutex::new(LoopStats::default());
    let t0 = Instant::now();
    let done = || {
        let e = t0.elapsed();
        (e >= duration
            && pushes.load(Ordering::Relaxed) >= min_push
            && queries.load(Ordering::Relaxed) >= min_query)
            || e >= duration * 4
    };
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (merged, pushes, queries, done) = (&merged, &pushes, &queries, &done);
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (client << 56) ^ 0x5EED);
                    let mut own = LoopStats::default();
                    let mut lane = Vec::new();
                    let mut local = Checker::default();
                    let mut n = 0u64;
                    while !done() {
                        n += 1;
                        let start = Instant::now();
                        let began = epoch.map(|e| e.elapsed());
                        let (name, outcome) = if rng.next().is_multiple_of(PUSH_EVERY) {
                            let idx = rng.below(pool.entries.len());
                            let id = format!("live-{seed:x}-{client}-{n}");
                            own.pushed.push(idx);
                            ("http.push", push(&svc.addr, &id, &pool.entries[idx].text))
                        } else {
                            let (path, expected) = pick_query(svc, pool, &mut rng);
                            let outcome =
                                match http::request(&svc.addr, "GET", &path, &[], TIMEOUT) {
                                    Ok((200, body)) => check_body(expected, &body),
                                    Ok((status, _)) => Err(format!("HTTP {status}")),
                                    Err(e) => Err(e),
                                }
                                .map_err(|e| format!("GET {path}: {e}"));
                            ("http.query", outcome)
                        };
                        let ms = start.elapsed().as_secs_f64() * 1e3;
                        if let (Some(e), Some(began)) = (epoch, began) {
                            lane.push(LaneSpan {
                                name,
                                start: began,
                                end: e.elapsed(),
                                cpu: None,
                                run: (client << 32) | n,
                            });
                        }
                        local.op(name, outcome);
                        if name == "http.push" {
                            own.push_ms.push(ms);
                            pushes.fetch_add(1, Ordering::Relaxed);
                        } else {
                            own.query_ms.push(ms);
                            queries.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let mut g = merged.lock().expect("loop stats lock");
                    g.push_ms.extend(own.push_ms);
                    g.query_ms.extend(own.query_ms);
                    g.pushed.extend(own.pushed);
                    g.lanes.push(lane);
                    local
                })
            })
            .collect();
        for c in clients {
            match c.join() {
                Ok(local) => check.absorb(local),
                Err(_) => check.op("service client", Err("client thread panicked".into())),
            }
        }
    });
    let mut stats = merged.into_inner().expect("loop stats lock");
    stats.wall = t0.elapsed().as_secs_f64();
    stats
}

/// A uniformly chosen GET against a uniformly chosen pre-pushed session,
/// with the body the daemon must answer.
fn pick_query<'p>(svc: &Service, pool: &'p Pool, rng: &mut Rng) -> (String, &'p str) {
    let (id, idx) = &svc.sessions[rng.below(svc.sessions.len())];
    let e = &pool.entries[*idx];
    match rng.below(6) {
        0 => (format!("/runs/{id}/summarize"), &e.summarize),
        1 => (format!("/runs/{id}/spans"), &e.spans),
        2 => (format!("/runs/{id}/metrics"), &e.metrics),
        3 => (format!("/runs/{id}/anomalies"), &e.anomalies),
        4 => {
            let rank = rng.below(e.timeline.len());
            (format!("/runs/{id}/timeline/{rank}"), &e.timeline[rank])
        }
        _ => {
            let (other, oidx) = &svc.sessions[rng.below(svc.sessions.len())];
            (format!("/runs/{id}/diff/{other}"), &pool.diff[*idx][*oidx])
        }
    }
}

/// The value after `"key":` in a JSON body, as an integer.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Per-layer numbers the daemon reports about itself in `GET /metrics`.
pub fn report_telemetry(body: &str, m: &mut Metrics) -> Result<(), String> {
    let get = |k: &str| json_u64(body, k).ok_or(format!("/metrics lacks {k}"));
    let (hits, misses) = (get("cache_hits")?, get("cache_misses")?);
    let share = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    m.set("chamserve.cache_hit_share", share, "share");
    let latency = body
        .find("\"request_latency_ns\":")
        .map(|at| &body[at..])
        .ok_or("/metrics lacks request_latency_ns")?;
    m.set(
        "chamserve.server_p50_ms",
        json_u64(latency, "p50").ok_or("request_latency_ns lacks p50")? as f64 / 1e6,
        "ms",
    );
    m.set(
        "chamserve.sessions_evicted",
        get("sessions_evicted")? as f64,
        "count",
    );
    m.set(
        "chamserve.sessions_rehydrated",
        get("sessions_rehydrated")? as f64,
        "count",
    );
    m.set("chamserve.shed_429", get("load_shed_429")? as f64, "count");
    m.set(
        "chamserve.timeouts_408",
        get("request_timeouts_408")? as f64,
        "count",
    );
    Ok(())
}

/// Replay the pool through the journal codec, the query renderers, the
/// session store (on a side data directory, no HTTP) and the CRC.
pub fn replay_leaves(
    spans: &mut Spans,
    pool: &Pool,
    pushed: &[usize],
    side_dir: &Path,
    m: &mut Metrics,
    check: &mut Checker,
) {
    spans.time("obs.journal", 0, |_| {
        let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0usize);
        for e in &pool.entries {
            let t0 = Instant::now();
            let text = e.journal.to_jsonl();
            enc += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let back = RunJournal::from_jsonl(&text);
            dec += t0.elapsed().as_secs_f64();
            bytes += text.len();
            check.op(
                &format!("{} journal codec", e.name),
                match back {
                    Ok(j) if j == e.journal && text == e.text => Ok(()),
                    Ok(_) => Err("journal changed through the codec".into()),
                    Err(err) => Err(format!("journal does not parse: {err}")),
                },
            );
        }
        m.add("obs.journal.encode_s", enc, "s");
        m.add("obs.journal.decode_s", dec, "s");
        m.add("obs.journal.kb", bytes as f64 / 1024.0, "KB");
    });
    spans.time("obs.query", 0, |_| {
        let t0 = Instant::now();
        for (i, e) in pool.entries.iter().enumerate() {
            let next = &pool.entries[(i + 1) % pool.entries.len()].journal;
            black_box(query::summarize_json(&e.journal));
            black_box(query::spans_json(&e.journal));
            black_box(query::metrics_json(&e.journal));
            black_box(query::anomalies_json(&e.journal));
            black_box(query::timeline_json(&e.journal, 0).ok());
            black_box(query::diff_json(&e.journal, next));
        }
        m.add("obs.query.render_s", t0.elapsed().as_secs_f64(), "s");
    });
    spans.time("chamserve.store", 0, |_| {
        let _ = std::fs::remove_dir_all(side_dir);
        let store = match SessionStore::open(side_dir, CACHE_ENTRIES) {
            Ok(s) => s,
            Err(e) => {
                check.op("side store", Err(e.detail));
                return;
            }
        };
        let (mut ingest, mut lookup) = (0.0, 0.0);
        for (i, e) in pool.entries.iter().enumerate() {
            let id = format!("side-{i}");
            let t0 = Instant::now();
            let r = store.ingest_journal(&id, &e.text, None);
            ingest += t0.elapsed().as_secs_f64();
            check.op(
                &format!("side ingest {id}"),
                r.map(|_| ()).map_err(|e| e.detail),
            );
        }
        for (i, e) in pool.entries.iter().enumerate() {
            let id = format!("side-{i}");
            let t0 = Instant::now();
            let r = store.journal(&id, None);
            lookup += t0.elapsed().as_secs_f64();
            check.op(
                &format!("side lookup {id}"),
                match r {
                    Ok(j) if *j == e.journal => Ok(()),
                    Ok(_) => Err("stored journal differs from the pushed one".into()),
                    Err(err) => Err(err.detail),
                },
            );
        }
        m.add("chamserve.store.ingest_s", ingest, "s");
        m.add("chamserve.store.lookup_s", lookup, "s");
        drop(store);
        let _ = std::fs::remove_dir_all(side_dir);
    });
    spans.time("chamserve.crc", 0, |_| {
        let t0 = Instant::now();
        for &idx in pushed {
            black_box(crc32(pool.entries[idx].text.as_bytes()));
        }
        m.add("chamserve.crc_s", t0.elapsed().as_secs_f64(), "s");
    });
}
