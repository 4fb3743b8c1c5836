//! The simulation side: timed runs through `workloads::driver::run`, the
//! traced rebuild of the rank program, and replays of its captured inputs
//! through the leaf layers.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use chameleon::baselines::scalatrace_finalize;
use chameleon::{AlgoChoice, Chameleon, ChameleonConfig, ChameleonStats};
use clusterkit::{ClusterMap, LeadSelection};
use mpisim::{RadixTree, World, WorldConfig};
use scalatrace::merge::merge_traces_with_metrics;
use scalatrace::{format, CompressedTrace, EventRecord, IntervalSignatures, RankSet, TracedProc};
use workloads::driver::{run, Mode, Overrides, RunReport};
use workloads::registry::workload;
use workloads::{Class, PHASE_FRAMES};

use crate::report::{check_trace, median, Checker, Metrics, TraceMatch};
use crate::spans::{lane_span, LaneSpan, Spans};

/// Event-scheduler worker permits for every simulated world, fixed so the
/// workload does not change with the host's core count.
pub const WORKERS: usize = 2;

/// One simulated configuration: a code at a world size.
#[derive(Debug, Clone, Copy)]
pub struct SimCfg {
    pub code: &'static str,
    pub p: usize,
    pub scale: usize,
    pub class: Class,
}

impl SimCfg {
    pub fn label(&self) -> String {
        format!("{}@P{}", self.code, self.p)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimMode {
    AppOnly,
    Chameleon,
    ScalaTrace,
}

impl SimMode {
    fn driver(self) -> Mode {
        match self {
            SimMode::AppOnly => Mode::AppOnly,
            SimMode::Chameleon => Mode::Chameleon,
            SimMode::ScalaTrace => Mode::ScalaTrace,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            SimMode::AppOnly => "app",
            SimMode::Chameleon => "chameleon",
            SimMode::ScalaTrace => "scalatrace",
        }
    }
}

/// A trace through the text codec: its text and the host time each
/// direction took.
pub struct Codec {
    pub text: String,
    pub encode_s: f64,
    pub decode_s: f64,
}

/// Round-trip a trace through the text codec; an error if it comes back
/// changed.
pub fn roundtrip(trace: &CompressedTrace) -> Result<Codec, String> {
    let t0 = Instant::now();
    let text = format::to_text(trace);
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let back = format::from_text(&text).map_err(|e| format!("from_text: {e}"))?;
    let decode_s = t0.elapsed().as_secs_f64();
    if &back != trace {
        return Err("to_text -> from_text changed the trace".into());
    }
    Ok(Codec {
        text,
        encode_s,
        decode_s,
    })
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Timed runs of each (configuration, mode), with their output checks.
#[derive(Default)]
pub struct SimTally {
    walls: BTreeMap<(usize, SimMode), Vec<f64>>,
    overhead: BTreeMap<(usize, SimMode), Vec<f64>>,
    nodes: BTreeMap<(usize, SimMode), Vec<f64>>,
    /// The first run's global-trace text per configuration and mode.
    first: HashMap<(usize, SimMode), String>,
    /// The first checked global-trace text, for the checker self-test.
    pub sample_trace: Option<String>,
    /// Checked runs whose trace matched the first run's only up to the
    /// rounding of timing values.
    pub rounding_only: u64,
}

impl SimTally {
    /// Run `cfgs[idx]` under `mode` through the driver, time it on the
    /// host clock and check its outputs. Returns the report when the run
    /// completed.
    pub fn run(
        &mut self,
        cfgs: &[SimCfg],
        idx: usize,
        mode: SimMode,
        journal: bool,
        check: &mut Checker,
    ) -> Option<RunReport> {
        let cfg = cfgs[idx];
        let what = format!("{} {}", cfg.label(), mode.label());
        let ov = Overrides {
            journal,
            workers: WORKERS,
            ..Default::default()
        };
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(
                workload(cfg.code, cfg.scale),
                cfg.class,
                cfg.p,
                mode.driver(),
                ov,
            )
        }));
        let wall = t0.elapsed().as_secs_f64();
        let rep = match outcome {
            Ok(rep) => rep,
            Err(p) => {
                check.op(&what, Err(format!("run panicked: {}", panic_text(p))));
                return None;
            }
        };
        let verdict = self.check_trace(idx, mode, rep.global_trace.as_ref());
        check.op(&what, verdict);
        self.walls.entry((idx, mode)).or_default().push(wall);
        self.overhead
            .entry((idx, mode))
            .or_default()
            .push(rep.total_overhead().as_secs_f64());
        let nodes = rep.global_trace.as_ref().map_or(0, |t| t.compressed_size());
        self.nodes
            .entry((idx, mode))
            .or_default()
            .push(nodes as f64);
        Some(rep)
    }

    fn check_trace(
        &mut self,
        idx: usize,
        mode: SimMode,
        trace: Option<&CompressedTrace>,
    ) -> Result<(), String> {
        if mode == SimMode::AppOnly {
            return Ok(());
        }
        let trace = trace.ok_or("run returned no global trace")?;
        let text = roundtrip(trace)?.text;
        match self.first.get(&(idx, mode)) {
            Some(first) => {
                if check_trace(first, &text)? == TraceMatch::Rounding {
                    self.rounding_only += 1;
                }
                Ok(())
            }
            None => {
                self.sample_trace.get_or_insert_with(|| text.clone());
                self.first.insert((idx, mode), text);
                Ok(())
            }
        }
    }

    /// Median host wall of the runs of one configuration and mode so far.
    pub fn median_wall(&self, idx: usize, mode: SimMode) -> Option<f64> {
        self.walls.get(&(idx, mode)).map(|w| median(w))
    }

    pub fn first_trace(&self, idx: usize, mode: SimMode) -> Option<&str> {
        self.first.get(&(idx, mode)).map(String::as_str)
    }

    /// Sum over configurations of the per-configuration median.
    fn sum_of_medians(map: &BTreeMap<(usize, SimMode), Vec<f64>>, mode: SimMode) -> f64 {
        map.iter()
            .filter(|((_, m), _)| *m == mode)
            .map(|(_, v)| median(v))
            .sum()
    }

    /// The simulation end-to-end metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set(
            "cham_wall_s",
            Self::sum_of_medians(&self.walls, SimMode::Chameleon),
            "s",
        );
        m.set(
            "st_wall_s",
            Self::sum_of_medians(&self.walls, SimMode::ScalaTrace),
            "s",
        );
        m.set(
            "cham_overhead_s",
            Self::sum_of_medians(&self.overhead, SimMode::Chameleon),
            "tool_s",
        );
        m.set(
            "st_overhead_s",
            Self::sum_of_medians(&self.overhead, SimMode::ScalaTrace),
            "tool_s",
        );
        let nodes = Self::sum_of_medians(&self.nodes, SimMode::Chameleon)
            + Self::sum_of_medians(&self.nodes, SimMode::ScalaTrace);
        m.set("trace_nodes", nodes, "count");
    }

    /// One line per configuration and mode: median wall, modeled
    /// overhead as `fig4` prints it, and the sample count.
    pub fn print(&self, cfgs: &[SimCfg]) {
        for ((idx, mode), walls) in &self.walls {
            let over = median(&self.overhead[&(*idx, *mode)]);
            let all: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
            println!(
                "# {:<10} {:<10} wall median {:>8.4} s over {} runs [{}], modeled overhead {over:.6} s",
                cfgs[*idx].label(),
                mode.label(),
                median(walls),
                walls.len(),
                all.join(" ")
            );
        }
    }
}

/// What one rank of a traced world hands back.
struct RankOut {
    spans: Vec<LaneSpan>,
    msgs: u64,
    bytes: u64,
    events_seen: u64,
    peak_bytes: usize,
    nodes: usize,
    captured: Option<CompressedTrace>,
    global: Option<CompressedTrace>,
    cham: Option<ChameleonStats>,
    intercomp: f64,
}

/// A traced world: the same rank program `driver::run` builds, from the
/// same public calls, with a span around each of them.
struct TracedWorld {
    wall: f64,
    global: Option<CompressedTrace>,
    captured: Vec<CompressedTrace>,
    cham: Vec<ChameleonStats>,
    intercomp: f64,
    msgs: u64,
    bytes: u64,
    events_seen: u64,
    peak_bytes: usize,
    nodes_max: usize,
    /// Per span name: (calls, wall, thread CPU) summed over ranks.
    lanes: BTreeMap<&'static str, (u64, f64, f64)>,
}

fn traced_world(
    spans: &mut Spans,
    cfg: SimCfg,
    mode: SimMode,
    journal: bool,
    run_id: u64,
) -> Result<TracedWorld, String> {
    let w = workload(cfg.code, cfg.scale);
    let spec = w.spec(cfg.class, cfg.p);
    let epoch = spans.epoch();
    let class = cfg.class;
    let program = move |proc: &mut mpisim::Proc| {
        let mut out = Vec::new();
        let step_span = if mode == SimMode::AppOnly {
            "mpisim.step"
        } else {
            "app.step"
        };
        let mut tp = TracedProc::new(proc);
        let mut cham = match mode {
            SimMode::Chameleon => Some(Chameleon::new(
                ChameleonConfig::with_k(spec.k)
                    .with_frequency(spec.call_frequency)
                    .with_algo(AlgoChoice::default()),
            )),
            SimMode::AppOnly => {
                tp.tracer_mut().set_enabled(false);
                None
            }
            SimMode::ScalaTrace => None,
        };
        for step in 0..spec.total_steps() {
            lane_span(&mut out, epoch, step_span, run_id, || {
                match spec.phase_of(step) {
                    None => w.step(&mut tp, class, step),
                    Some(phase) => tp.frame(PHASE_FRAMES[phase % PHASE_FRAMES.len()], |tp| {
                        w.step(tp, class, step)
                    }),
                }
            });
            if let Some(c) = cham.as_mut() {
                lane_span(&mut out, epoch, "chameleon.marker", run_id, || {
                    c.marker(&mut tp)
                });
            }
        }
        let events_seen = tp.tracer().events_seen();
        let peak_bytes = tp.tracer().peak_trace_bytes();
        let nodes = tp.tracer().trace().compressed_size();
        let mut rank = RankOut {
            spans: Vec::new(),
            msgs: 0,
            bytes: 0,
            events_seen,
            peak_bytes,
            nodes,
            captured: None,
            global: None,
            cham: None,
            intercomp: 0.0,
        };
        match mode {
            SimMode::AppOnly => {}
            SimMode::ScalaTrace => {
                rank.captured = Some(tp.tracer().trace().clone());
                let b = lane_span(&mut out, epoch, "scalatrace.reduction", run_id, || {
                    scalatrace_finalize(&mut tp, 2)
                });
                rank.global = b.global_trace;
                rank.intercomp = b.intercomp_time.as_secs_f64();
            }
            SimMode::Chameleon => {
                let mut c = cham.take().expect("built above");
                let f = lane_span(&mut out, epoch, "chameleon.finalize", run_id, || {
                    c.finalize(&mut tp)
                });
                rank.global = f.online_trace;
                rank.cham = Some(f.stats);
            }
        }
        let stats = tp.inner().stats();
        rank.msgs = stats.msgs_sent as u64;
        rank.bytes = stats.bytes_sent as u64;
        rank.spans = out;
        rank
    };
    let mut wc = WorldConfig::new(cfg.p).with_workers(WORKERS);
    if journal {
        wc = wc.with_recorder();
    }
    let world = spans.enter("mpisim.world", run_id);
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| World::new(wc).run(program)));
    let wall = t0.elapsed().as_secs_f64();
    spans.exit(world);
    let report = match outcome {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return Err(format!("world failed: {e:?}")),
        Err(p) => return Err(format!("world panicked: {}", panic_text(p))),
    };
    let mut tw = TracedWorld {
        wall,
        global: None,
        captured: Vec::new(),
        cham: Vec::new(),
        intercomp: 0.0,
        msgs: 0,
        bytes: 0,
        events_seen: 0,
        peak_bytes: 0,
        nodes_max: 0,
        lanes: BTreeMap::new(),
    };
    let mut lanes = Vec::with_capacity(cfg.p);
    for r in report.results {
        for s in &r.spans {
            let slot = tw.lanes.entry(s.name).or_default();
            slot.0 += 1;
            slot.1 += (s.end - s.start).as_secs_f64();
            slot.2 += s.cpu.map_or(0.0, |c| c.as_secs_f64());
        }
        lanes.push(r.spans);
        tw.msgs += r.msgs;
        tw.bytes += r.bytes;
        tw.events_seen += r.events_seen;
        tw.peak_bytes = tw.peak_bytes.max(r.peak_bytes);
        tw.nodes_max = tw.nodes_max.max(r.nodes);
        tw.intercomp += r.intercomp;
        if let Some(t) = r.captured {
            tw.captured.push(t);
        }
        if let Some(g) = r.global {
            tw.global = Some(g);
        }
        if let Some(s) = r.cham {
            tw.cham.push(s);
        }
    }
    spans.attach(world, lanes);
    Ok(tw)
}

/// Totals of one traced simulation pass.
#[derive(Default)]
pub struct TracedSim {
    /// Host wall of the traced worlds minus that of the untraced runs.
    pub overhead: f64,
    folds: u64,
    fast_folds: u64,
    cham_folds: u64,
    cham_fast_folds: u64,
}

impl TracedSim {
    /// Shares of folds that took the identical-stream fast path: replayed,
    /// and inside the Chameleon runtime's reductions.
    pub fn report(&self, m: &mut Metrics) {
        let share = |fast: u64, all: u64| {
            if all > 0 {
                fast as f64 / all as f64
            } else {
                0.0
            }
        };
        m.set(
            "scalatrace.merge.fast_path_share",
            share(self.fast_folds, self.folds),
            "share",
        );
        m.set(
            "chameleon.merge.fast_path_share",
            share(self.cham_fast_folds, self.cham_folds),
            "share",
        );
    }
}

/// The traced simulation pass over `cfgs`: untraced reference runs
/// (AppOnly companions included), the traced rebuild of each run, and
/// leaf-layer replays of the captured inputs. Returns the reference runs'
/// journals when `journal` is set.
pub fn traced_pass(
    spans: &mut Spans,
    cfgs: &[SimCfg],
    journal: bool,
    m: &mut Metrics,
    check: &mut Checker,
    traced: &mut TracedSim,
) -> Vec<(String, obs::RunJournal)> {
    let mut tally = SimTally::default();
    let mut journals = Vec::new();
    let all_modes = [SimMode::AppOnly, SimMode::Chameleon, SimMode::ScalaTrace];
    spans.time("sim.reference", 0, |_| {
        for idx in 0..cfgs.len() {
            for mode in all_modes {
                let Some(rep) = tally.run(cfgs, idx, mode, journal, check) else {
                    continue;
                };
                if mode == SimMode::AppOnly {
                    m.add("mpisim.app_wall_s", rep.wall.as_secs_f64(), "s");
                }
                if let Some(j) = rep.journal {
                    if mode != SimMode::AppOnly {
                        journals.push((format!("{}-{}", cfgs[idx].label(), mode.label()), j));
                    }
                }
            }
        }
    });

    let mut run_id = 0u64;
    for (idx, cfg) in cfgs.iter().enumerate() {
        let mut app_cpu = 0.0;
        let mut st_cpu = None;
        for mode in all_modes {
            run_id += 1;
            let what = format!("traced {} {}", cfg.label(), mode.label());
            let tw = match traced_world(spans, *cfg, mode, journal, run_id) {
                Ok(tw) => tw,
                Err(e) => {
                    check.op(&what, Err(e));
                    continue;
                }
            };
            if let Some(u) = tally.median_wall(idx, mode) {
                traced.overhead += tw.wall - u;
            }
            m.add("mpisim.msgs", tw.msgs as f64, "count");
            m.add("mpisim.kb", tw.bytes as f64 / 1024.0, "KB");
            let lane = |name: &str| tw.lanes.get(name).copied().unwrap_or_default();
            match mode {
                SimMode::AppOnly => {
                    check.op(&what, Ok(()));
                    let (_, wall, cpu) = lane("mpisim.step");
                    m.add("mpisim.step_busy_s", cpu, "s");
                    m.add("mpisim.step_wait_s", wall - cpu, "s");
                    app_cpu = cpu;
                }
                SimMode::Chameleon | SimMode::ScalaTrace => {
                    let verdict = match (&tw.global, tally.first_trace(idx, mode)) {
                        (None, _) => Err("traced run returned no global trace".to_string()),
                        (Some(_), None) => Err("no untraced reference trace".to_string()),
                        (Some(g), Some(expected)) => {
                            check_trace(expected, &format::to_text(g)).map(|_| ())
                        }
                    };
                    check.op(&what, verdict);
                }
            }
            if mode == SimMode::Chameleon {
                let (calls, wall, cpu) = lane("chameleon.marker");
                m.add("chameleon.marker.busy_s", cpu, "s");
                m.add("chameleon.marker.wait_s", wall - cpu, "s");
                m.add("chameleon.marker.calls", calls as f64, "count");
                let (_, wall, cpu) = lane("chameleon.finalize");
                m.add("chameleon.finalize.busy_s", cpu, "s");
                m.add("chameleon.finalize.wait_s", wall - cpu, "s");
                let sum = |f: fn(&ChameleonStats) -> f64| tw.cham.iter().map(f).sum::<f64>();
                m.add(
                    "chameleon.model.signature_s",
                    sum(|s| s.signature_time.as_secs_f64()),
                    "tool_s",
                );
                m.add(
                    "chameleon.model.vote_s",
                    sum(|s| s.vote_time.as_secs_f64()),
                    "tool_s",
                );
                m.add(
                    "chameleon.model.clustering_s",
                    sum(|s| s.clustering_time.as_secs_f64()),
                    "tool_s",
                );
                m.add(
                    "chameleon.model.intercomp_s",
                    sum(|s| s.intercomp_time.as_secs_f64()),
                    "tool_s",
                );
                if let Some(s0) = tw.cham.first() {
                    m.add("chameleon.reclusterings", s0.reclusterings as f64, "count");
                    m.add("chameleon.leads", s0.leads as f64, "count");
                }
                // The product path's own folds (radix_tree_merge inside
                // the runtime), next to the replayed ones.
                m.add("chameleon.merge.dp_cells", 0.0, "count");
                for level in tw.cham.iter().flat_map(|s| s.merge_levels.values()) {
                    traced.cham_folds += level.merges;
                    traced.cham_fast_folds += level.fast_path_hits;
                    m.add("chameleon.merge.dp_cells", level.dp_cells as f64, "count");
                }
            }
            if mode == SimMode::ScalaTrace {
                let (_, wall, cpu) = lane("scalatrace.reduction");
                m.add("scalatrace.reduction.busy_s", cpu, "s");
                m.add("scalatrace.reduction.wait_s", wall - cpu, "s");
                m.add("scalatrace.model.intercomp_s", tw.intercomp, "tool_s");
                m.add("scalatrace.tracer.events", tw.events_seen as f64, "count");
                m.max(
                    "scalatrace.tracer.peak_kb",
                    tw.peak_bytes as f64 / 1024.0,
                    "KB",
                );
                m.max("scalatrace.tracer.nodes_max", tw.nodes_max as f64, "count");
                st_cpu = Some(lane("app.step").2);
                replay_leaves(spans, cfg, &tw, m, check, traced);
            }
        }
        if let Some(st) = st_cpu {
            m.add("scalatrace.tracer.busy_s", st - app_cpu, "s");
        }
    }
    journals
}

/// Replay the captured per-rank traces of a ScalaTrace world through the
/// leaf layers: signatures, clustering, pairwise merge with ranklist
/// unions, the text codec and CRC framing.
fn replay_leaves(
    spans: &mut Spans,
    cfg: &SimCfg,
    tw: &TracedWorld,
    m: &mut Metrics,
    check: &mut Checker,
    traced: &mut TracedSim,
) {
    let label = cfg.label();
    let captured = &tw.captured;
    if captured.len() != cfg.p {
        check.op(
            &format!("{label} capture"),
            Err(format!(
                "captured {} of {} rank traces",
                captured.len(),
                cfg.p
            )),
        );
        return;
    }

    // Signatures: each rank's event stream, loops expanded.
    let triples = spans.time("sigkit", 0, |_| {
        let t0 = Instant::now();
        let mut events = 0u64;
        let triples: Vec<_> = captured
            .iter()
            .map(|t| {
                let mut sig = IntervalSignatures::new();
                t.walk(&mut |e: &EventRecord| sig.record(e.stack_sig, &e.op));
                events += sig.event_count();
                sig.finish()
            })
            .collect();
        m.add("sigkit.busy_s", t0.elapsed().as_secs_f64(), "s");
        m.add("sigkit.events", events as f64, "count");
        check.op(
            &format!("{label} sigkit replay"),
            if events == tw.events_seen {
                Ok(())
            } else {
                Err(format!(
                    "replayed {events} events, tracer saw {}",
                    tw.events_seen
                ))
            },
        );
        triples
    });

    // Clustering as the runtime's gather does it: each node merges its
    // children's maps (through the wire codec) and prunes once, then the
    // root selects the leads.
    let k = workload(cfg.code, cfg.scale).spec(cfg.class, cfg.p).k;
    spans.time("clusterkit", 0, |_| {
        let algo = AlgoChoice::default().build();
        let tree = RadixTree::new(2, cfg.p);
        let mut busy = 0.0;
        let mut codec = 0.0;
        let mut maps: Vec<Option<ClusterMap>> = vec![None; cfg.p];
        let mut ok = true;
        for pos in (0..cfg.p).rev() {
            let t0 = Instant::now();
            let mut map = ClusterMap::from_rank(pos, &triples[pos]);
            busy += t0.elapsed().as_secs_f64();
            for child in tree.children(pos) {
                let child_map = maps[child].take().expect("children fold first");
                let t0 = Instant::now();
                let decoded = ClusterMap::decode(&child_map.encode());
                codec += t0.elapsed().as_secs_f64();
                let Ok(decoded) = decoded else {
                    ok = false;
                    continue;
                };
                let t0 = Instant::now();
                map.merge(decoded);
                busy += t0.elapsed().as_secs_f64();
            }
            let t0 = Instant::now();
            map.prune(k, &*algo);
            busy += t0.elapsed().as_secs_f64();
            maps[pos] = Some(map);
        }
        let root = maps[0].take().expect("root map");
        m.add(
            "clusterkit.call_paths",
            root.num_call_paths() as f64,
            "count",
        );
        let t0 = Instant::now();
        let sel = LeadSelection::select(root, k, &*algo);
        busy += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        ok &= LeadSelection::decode(&sel.encode()).is_ok();
        codec += t0.elapsed().as_secs_f64();
        m.add("clusterkit.busy_s", busy, "s");
        m.add("clusterkit.codec_s", codec, "s");
        check.op(
            &format!("{label} clusterkit codec"),
            if ok {
                Ok(())
            } else {
                Err("a cluster map failed to decode".into())
            },
        );
    });

    // Pairwise merge in radix-tree order, and the ranklist unions the
    // fold performs on same-site events.
    let merged = spans.time("replay.fold", 0, |spans| {
        let tree = RadixTree::new(2, cfg.p);
        let mut acc: Vec<Option<CompressedTrace>> = captured.iter().cloned().map(Some).collect();
        let (mut folds, mut fast) = (0u64, 0u64);
        for pos in (0..cfg.p).rev() {
            let mut a = acc[pos].take().expect("folded once");
            for child in tree.children(pos) {
                let c = acc[child].take().expect("children fold first");
                let pairs = same_site_pairs(&a, &c);
                spans.time("scalatrace.ranklist", 0, |_| {
                    let t0 = Instant::now();
                    let mut sections = 0usize;
                    for (x, y) in &pairs {
                        let u = x.union(y);
                        sections = sections.max(u.sections().len());
                        black_box(u);
                    }
                    m.add(
                        "scalatrace.ranklist.union_s",
                        t0.elapsed().as_secs_f64(),
                        "s",
                    );
                    m.add("scalatrace.ranklist.unions", pairs.len() as f64, "count");
                    m.max("scalatrace.ranklist.sections_max", sections as f64, "count");
                });
                let (folded, met) = spans.time("scalatrace.merge", 0, |_| {
                    let t0 = Instant::now();
                    let r = merge_traces_with_metrics(&a, &c);
                    m.add("scalatrace.merge.busy_s", t0.elapsed().as_secs_f64(), "s");
                    r
                });
                folds += 1;
                fast += met.fast_path as u64;
                m.add("scalatrace.merge.calls", 1.0, "count");
                m.add("scalatrace.merge.dp_cells", met.dp_cells as f64, "count");
                m.max(
                    "scalatrace.merge.peak_dp_alloc",
                    met.peak_dp_alloc as f64,
                    "count",
                );
                a = folded;
            }
            acc[pos] = Some(a);
        }
        traced.folds += folds;
        traced.fast_folds += fast;
        acc[0].take().expect("root trace")
    });
    check.op(
        &format!("{label} merge replay covers every rank"),
        match merged.nodes().first() {
            None => Err("merged trace is empty".into()),
            Some(_) => {
                let mut ranks = RankSet::empty();
                merged.visit_events(&mut |e| ranks = ranks.union(&e.ranks));
                if ranks.len() == cfg.p {
                    Ok(())
                } else {
                    Err(format!("merged ranks cover {} of {}", ranks.len(), cfg.p))
                }
            }
        },
    );

    // Text codec and CRC framing over the captured and merged traces.
    let mut payloads: Vec<&CompressedTrace> = captured.iter().collect();
    payloads.push(&merged);
    if let Some(g) = &tw.global {
        payloads.push(g);
    }
    let texts = spans.time("scalatrace.format", 0, |_| {
        let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0usize);
        let mut verdict = Ok(());
        let mut texts = Vec::with_capacity(payloads.len());
        for t in &payloads {
            match roundtrip(t) {
                Ok(c) => {
                    enc += c.encode_s;
                    dec += c.decode_s;
                    bytes += c.text.len();
                    texts.push(c.text);
                }
                Err(e) => verdict = Err(e),
            }
        }
        m.add("scalatrace.format.encode_s", enc, "s");
        m.add("scalatrace.format.decode_s", dec, "s");
        m.add("scalatrace.format.kb", bytes as f64 / 1024.0, "KB");
        check.op(&format!("{label} format round trip"), verdict);
        texts
    });
    spans.time("mpisim.reliable", 0, |_| {
        let t0 = Instant::now();
        let mut ok = true;
        for (seq, text) in texts.iter().enumerate() {
            let framed = mpisim::reliable::frame(seq as u64, text.as_bytes());
            ok &= mpisim::reliable::unframe(&framed)
                .is_some_and(|(s, p)| s == seq as u64 && p == text.as_bytes());
        }
        m.add("mpisim.reliable.frame_s", t0.elapsed().as_secs_f64(), "s");
        check.op(
            &format!("{label} frame round trip"),
            if ok {
                Ok(())
            } else {
                Err("frame -> unframe lost a payload".into())
            },
        );
    });
}

/// Rank sets of same-site event pairs across two traces: each event of
/// `b` paired with the first event of `a` at the same site.
fn same_site_pairs<'a>(
    a: &'a CompressedTrace,
    b: &'a CompressedTrace,
) -> Vec<(&'a RankSet, &'a RankSet)> {
    let mut by_sig: HashMap<u64, Vec<&EventRecord>> = HashMap::new();
    a.visit_events(&mut |e| by_sig.entry(e.stack_sig.0).or_default().push(e));
    let mut pairs = Vec::new();
    b.visit_events(&mut |e| {
        if let Some(x) = by_sig
            .get(&e.stack_sig.0)
            .and_then(|v| v.iter().find(|x| x.same_site(e)))
        {
            pairs.push((&x.ranks, &e.ranks));
        }
    });
    pairs
}
