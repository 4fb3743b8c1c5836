//! In-memory spans recorded around calls into each layer, and the layer
//! report derived from them.
//!
//! A span has a name (its layer), a start and end on one monotonic clock,
//! the span that caused it, a run or request identifier, and a lane (the
//! thread it ran on). Spans recorded on many threads under one parent
//! (the ranks of a simulated world, the clients of the service loop) are
//! weighted by one over the number of lanes, so a layer's self time is
//! the lane-averaged wall time it held. With that weighting the self
//! times of all layers plus the root's uncovered time add up to the
//! run's wall time by construction; what can go wrong is the span tree
//! itself, which `LayerReport::check` verifies.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished span on a lane.
#[derive(Debug, Clone)]
pub struct LaneSpan {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Thread CPU time spent inside the span, when measured.
    pub cpu: Option<Duration>,
    pub run: u64,
}

/// Times a closure as a lane span, with thread CPU time.
pub fn lane_span<R>(
    out: &mut Vec<LaneSpan>,
    epoch: Instant,
    name: &'static str,
    run: u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = epoch.elapsed();
    let cpu0 = mpisim::cputime::thread_cpu_now();
    let r = f();
    let cpu = mpisim::cputime::thread_cpu_now().saturating_sub(cpu0);
    out.push(LaneSpan {
        name,
        start,
        end: epoch.elapsed(),
        cpu: Some(cpu),
        run,
    });
    r
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    cpu: Option<Duration>,
    parent: Option<usize>,
    run: u64,
    lane: usize,
    /// Share of the parent's wall this span's lane stands for.
    weight: f64,
}

/// The span store of one traced run. Spans opened here run on the main
/// thread; lane spans from worker threads are attached under a parent.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Start the store and open the root span `run`.
    pub fn new() -> Self {
        let mut s = Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        };
        s.enter("run", 0);
        s
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Open a main-thread span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, run: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            cpu: None,
            parent: self.open.last().copied(),
            run,
            lane: 0,
            weight: 1.0,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Time `f` as a main-thread span.
    pub fn time<R>(&mut self, name: &'static str, run: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name, run);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Attach the spans of `lanes` threads under `parent`.
    pub fn attach(&mut self, parent: usize, lanes: Vec<Vec<LaneSpan>>) {
        let weight = 1.0 / lanes.len().max(1) as f64;
        for (lane, spans) in lanes.into_iter().enumerate() {
            for s in spans {
                self.spans.push(Span {
                    name: s.name,
                    start: s.start,
                    end: s.end,
                    cpu: s.cpu,
                    parent: Some(parent),
                    run: s.run,
                    lane,
                    weight,
                });
            }
        }
    }

    /// Close the root span and compute the layer report.
    pub fn finish(mut self) -> LayerReport {
        let root = self.open.first().copied().expect("root span is open");
        while let Some(id) = self.open.pop() {
            self.spans[id].end = self.epoch.elapsed();
        }
        let n = self.spans.len();
        let dur: Vec<f64> = self
            .spans
            .iter()
            .map(|s| s.end.saturating_sub(s.start).as_secs_f64())
            .collect();
        // Weighted child coverage per span; absolute weight per span.
        let mut covered = vec![0.0f64; n];
        let mut abs = vec![1.0f64; n];
        for i in 0..n {
            if let Some(p) = self.spans[i].parent {
                covered[p] += self.spans[i].weight * dur[i];
                abs[i] = abs[p] * self.spans[i].weight;
            }
        }
        let own: Vec<f64> = (0..n).map(|i| dur[i] - covered[i]).collect();
        let mut self_time: BTreeMap<&'static str, f64> = BTreeMap::new();
        for i in 0..n {
            *self_time.entry(self.spans[i].name).or_default() += abs[i] * own[i];
        }
        LayerReport {
            wall: dur[root],
            unspanned: own[root],
            self_time,
            own,
            spans: self.spans,
        }
    }
}

/// Self time per layer for one traced run.
pub struct LayerReport {
    pub wall: f64,
    /// Wall time of the root span that no layer span covers.
    pub unspanned: f64,
    /// Lane-weighted self time per span name (the root's entry is the
    /// unspanned time).
    pub self_time: BTreeMap<&'static str, f64>,
    /// Wall of each span minus its weighted children's.
    own: Vec<f64>,
    spans: Vec<Span>,
}

impl LayerReport {
    /// Check the span tree the self times rest on: every span lies inside
    /// its parent's [start, end], and no span's weighted children cover
    /// more than its own wall, so no self time is negative. Returns the
    /// first violation.
    pub fn check(&self) -> Result<(), String> {
        // Float sums of nanosecond durations; far below any real overlap.
        const SLACK: f64 = 1e-9;
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent.map(|p| &self.spans[p]) {
                if s.start < p.start || s.end > p.end {
                    return Err(format!(
                        "span {i} {} [{:?}, {:?}] lies outside its parent {} [{:?}, {:?}]",
                        s.name, s.start, s.end, p.name, p.start, p.end
                    ));
                }
            }
            if self.own[i] < -SLACK {
                return Err(format!(
                    "span {i} {}: its children cover {:.9} s more than its wall",
                    s.name, -self.own[i]
                ));
            }
        }
        Ok(())
    }

    /// Print the self-time table on stdout.
    pub fn print(&self) {
        println!(
            "# layer self time (lane-averaged wall), traced run wall {:.3} s",
            self.wall
        );
        for (name, t) in &self.self_time {
            let label = if *name == "run" { "(no span)" } else { name };
            println!(
                "{label:<28} {t:>10.4} s {:>6.2}%",
                100.0 * t / self.wall.max(f64::MIN_POSITIVE)
            );
        }
        let sum: f64 = self.self_time.values().sum();
        println!("{:<28} {sum:>10.4} s (sum of the rows)", "total");
    }

    /// Spans as tab-separated lines: id, parent, lane, run, name, start
    /// and end in ns since the run began, thread CPU ns (or -).
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tlane\trun\tname\tstart_ns\tend_ns\tcpu_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let cpu = s.cpu.map_or("-".to_string(), |c| c.as_nanos().to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{cpu}",
                s.lane,
                s.run,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}
