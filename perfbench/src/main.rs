//! The repository benchmark: end-to-end metrics of three workloads, and a
//! separate traced run that splits them across the layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spmd_fig4|emf_irregular|trace_service \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload has a simulation side (Chameleon and ScalaTrace runs
//! through `workloads::driver::run`) and a service side (journals pushed
//! at an in-process `chamserve` daemon and queried back by closed-loop
//! clients); the workloads differ in how much of each they do. See
//! `perfbench/README.md` for the workloads, the metrics and which layer
//! should move which metric.
//!
//! The last line on stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, with `--trace 1` the per-layer ones.

mod report;
mod service;
mod sim;
mod spans;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use workloads::chaos::{chaos_plan, run_chaos_recorded};
use workloads::Class;

use report::{median, peak_rss_mb, self_check, Checker, Metrics};
use service::{report_telemetry, run_loop, Pool, Service};
use sim::{SimCfg, SimMode, SimTally, TracedSim};
use spans::Spans;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Chaos-ring journals in a pool: world size and timesteps.
const CHAOS_P: usize = 8;
const CHAOS_STEPS: usize = 24;

/// One workload: what it simulates, what its journal pool holds, and how
/// much of the measured phase its service loop takes.
struct Plan {
    name: &'static str,
    /// Configurations timed under Chameleon and ScalaTrace in the
    /// measured phase.
    measured: Vec<SimCfg>,
    /// Arm the flight recorder on the measured runs; set-up then records
    /// the pool from the measured configurations themselves.
    journal: bool,
    /// Otherwise, configurations recorded under Chameleon with the flight
    /// recorder armed during set-up; their journals form the pool.
    pool: Vec<SimCfg>,
    /// Chaos-ring journals added to the pool, seeded from `--seed`.
    chaos: u64,
    /// Share of `--seconds` the service loop runs.
    service_share: f64,
}

impl Plan {
    /// The configurations and modes whose journals form the pool.
    fn pool_runs(&self) -> (&[SimCfg], &'static [SimMode]) {
        if self.journal {
            (&self.measured, &[SimMode::Chameleon, SimMode::ScalaTrace])
        } else {
            (&self.pool, &[SimMode::Chameleon])
        }
    }
}

fn cfgs(codes: &[&'static str], p: usize, scale: usize) -> Vec<SimCfg> {
    codes
        .iter()
        .map(|&code| SimCfg {
            code,
            p,
            scale,
            class: Class::D,
        })
        .collect()
}

fn plan(name: &str) -> Option<Plan> {
    const SPMD: [&str; 4] = ["BT", "SP", "LU", "POP"];
    Some(match name {
        "spmd_fig4" => Plan {
            name: "spmd_fig4",
            measured: cfgs(&SPMD, 256, 10),
            journal: false,
            pool: cfgs(&SPMD, 16, 10),
            chaos: 0,
            service_share: 0.2,
        },
        // EMF journals run to megabytes (EMF@P17 is 2.1 MB), which would
        // make one set-up take tens of seconds; the companion pool is
        // chaos-ring journals, irregular like the workload's traces.
        "emf_irregular" => Plan {
            name: "emf_irregular",
            // Scale 4 (36 dispatch rounds) keeps the master's trace
            // irregular (~9k nodes) while both modes together take ~1.8 s,
            // so the phase holds a dozen samples of each for the medians.
            measured: cfgs(&["EMF"], 251, 4),
            journal: false,
            pool: Vec::new(),
            chaos: 3,
            service_share: 0.3,
        },
        // The simulation side is the journal-recording runs behind the
        // pool (BT@P16 journals are 132 KB, BT@P64 498 KB).
        "trace_service" => Plan {
            name: "trace_service",
            measured: [cfgs(&["BT"], 16, 10), cfgs(&["BT"], 64, 10)].concat(),
            journal: true,
            pool: Vec::new(),
            chaos: 2,
            service_share: 0.7,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

/// Chaos-ring journals for the pool: seeds derived from `--seed`.
fn chaos_journals(plan: &Plan, seed: u64, check: &mut Checker) -> Vec<(String, obs::RunJournal)> {
    let mut out = Vec::new();
    for i in 0..plan.chaos {
        let s = service::Rng::new(seed.wrapping_add(i)).next() % 1000;
        let name = format!("chaos-s{s}");
        let run = std::panic::catch_unwind(|| {
            run_chaos_recorded(CHAOS_P, CHAOS_STEPS, chaos_plan(s, CHAOS_P)).journal
        });
        match run {
            Ok(Some(j)) => {
                check.op(&name, Ok(()));
                out.push((name, j));
            }
            Ok(None) => check.op(&name, Err("chaos run gathered no journal".into())),
            Err(_) => check.op(&name, Err("chaos run panicked".into())),
        }
    }
    out
}

/// Record the pool's simulation journals through the driver.
fn record_pool(
    plan: &Plan,
    tally: &mut SimTally,
    check: &mut Checker,
) -> Vec<(String, obs::RunJournal)> {
    let (cfgs, modes) = plan.pool_runs();
    let mut out = Vec::new();
    for idx in 0..cfgs.len() {
        for &mode in modes {
            if let Some(j) = tally
                .run(cfgs, idx, mode, true, check)
                .and_then(|rep| rep.journal)
            {
                out.push((format!("{}-{}", cfgs[idx].label(), mode.label()), j));
            }
        }
    }
    out
}

fn work_dir() -> PathBuf {
    Path::new(".perfbench").join(format!("serve-{}", std::process::id()))
}

/// The timed run: end-to-end metrics with tracing off.
fn timed(plan: &Plan, args: &Args, check: &mut Checker) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let dir = work_dir();
    let mut setup_tally = SimTally::default();
    let mut setups = Vec::new();
    let mut live: Option<(Service, Pool)> = None;
    for k in 0..SETUPS {
        // One daemon at a time: the previous set-up's is stopped first,
        // outside the timing.
        if let Some((old, _)) = live.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let mut journals = record_pool(plan, &mut setup_tally, check);
        journals.extend(chaos_journals(plan, args.seed, check));
        let pool = Pool::new(journals, check);
        if pool.entries.is_empty() {
            return Err("the journal pool is empty".into());
        }
        let svc = Service::start(&pool, &dir.join(format!("setup{k}")), check)?;
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((svc, pool));
    }
    let (svc, pool) = live.expect("at least one set-up");
    pool.print();
    m.set("setup_s", median(&setups), "s");

    let seconds = args.seconds as f64;
    // Cycle through the configurations and modes until the next run
    // (predicted from its earlier runs) would overrun the budget; the first
    // round always completes, and sample counts per configuration differ
    // by at most one.
    let mut tally = SimTally::default();
    let budget = seconds * (1.0 - plan.service_share);
    let t0 = Instant::now();
    let order: Vec<(usize, SimMode)> = (0..plan.measured.len())
        .flat_map(|idx| [(idx, SimMode::Chameleon), (idx, SimMode::ScalaTrace)])
        .collect();
    for (n, &(idx, mode)) in order.iter().cycle().enumerate() {
        let expect = tally.median_wall(idx, mode).unwrap_or(0.0);
        if n >= order.len() && t0.elapsed().as_secs_f64() + expect > budget {
            break;
        }
        tally.run(&plan.measured, idx, mode, plan.journal, check);
    }
    tally.print(&plan.measured);
    tally.report(&mut m);

    let stats = run_loop(
        &svc,
        &pool,
        args.seed,
        Duration::from_secs_f64(seconds * plan.service_share),
        None,
        check,
    );
    stats.report(&mut m);
    svc.stop();
    let _ = std::fs::remove_dir_all(&dir);

    if tally.rounding_only > 0 {
        println!(
            "# {} runs matched their first run's trace only up to the rounding of timing values",
            tally.rounding_only
        );
    }
    self_check(
        check,
        tally.sample_trace.as_deref().unwrap_or_default(),
        pool.sample_body().unwrap_or_default(),
    );
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(m)
}

/// Span names reported as per-layer self times, in report order.
const LAYERS: [&str; 26] = [
    "run",
    "sim.reference",
    "mpisim.world",
    "mpisim.step",
    "app.step",
    "chameleon.marker",
    "chameleon.finalize",
    "scalatrace.reduction",
    "sigkit",
    "clusterkit",
    "replay.fold",
    "scalatrace.merge",
    "scalatrace.ranklist",
    "scalatrace.format",
    "mpisim.reliable",
    "service.setup",
    "service.untraced_loop",
    "service.loop",
    "http.push",
    "http.query",
    "service.scrape",
    "service.teardown",
    "obs.journal",
    "obs.query",
    "chamserve.store",
    "chamserve.crc",
];

/// The traced run: per-layer metrics from spans around the calls into
/// each layer and from replays of the captured inputs.
fn traced(plan: &Plan, args: &Args, check: &mut Checker) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut spans = Spans::new();
    let mut traced = TracedSim::default();
    let dir = work_dir();

    let mut journals = sim::traced_pass(
        &mut spans,
        &plan.measured,
        plan.journal,
        &mut m,
        check,
        &mut traced,
    );
    traced.report(&mut m);

    let (svc, pool) = spans.time("service.setup", 0, |_| -> Result<_, String> {
        if !plan.journal {
            journals = record_pool(plan, &mut SimTally::default(), check);
        }
        journals.extend(chaos_journals(plan, args.seed, check));
        let pool = Pool::new(journals, check);
        if pool.entries.is_empty() {
            return Err("the journal pool is empty".into());
        }
        let svc = Service::start(&pool, &dir.join("traced"), check)?;
        Ok((svc, pool))
    })?;

    // Half the loop untraced and half traced: the difference in wall per
    // request is the tracing overhead on the service side. The loop fills
    // what the simulation side left of `--seconds`, and gets at least the
    // plan's share.
    let seconds = args.seconds as f64;
    let left = seconds - spans.epoch().elapsed().as_secs_f64();
    let half = Duration::from_secs_f64(left.max(seconds * plan.service_share) / 2.0);
    let plain = spans.time("service.untraced_loop", 0, |_| {
        run_loop(&svc, &pool, args.seed, half, None, check)
    });
    let epoch = spans.epoch();
    let loop_span = spans.enter("service.loop", 1);
    let mut stats = run_loop(&svc, &pool, args.seed ^ 1, half, Some(epoch), check);
    spans.exit(loop_span);
    spans.attach(loop_span, std::mem::take(&mut stats.lanes));
    let per_req = |s: &service::LoopStats| s.wall / s.requests().max(1) as f64;
    traced.overhead += (per_req(&stats) - per_req(&plain)) * stats.requests() as f64;

    spans.time("service.scrape", 0, |_| {
        let verdict = svc
            .telemetry()
            .and_then(|body| report_telemetry(&body, &mut m));
        check.op("GET /metrics", verdict);
    });
    spans.time("service.teardown", 0, |_| svc.stop());
    let mut pushed = plain.pushed;
    pushed.extend(&stats.pushed);
    service::replay_leaves(&mut spans, &pool, &pushed, &dir.join("side"), &mut m, check);
    let _ = std::fs::remove_dir_all(&dir);

    let layers = spans.finish();
    layers.print();
    check.op(
        "spans nest inside their parents and do not overlap on a lane",
        layers.check(),
    );
    for name in LAYERS {
        let t = layers.self_time.get(name).copied().unwrap_or(0.0);
        let metric = if name == "run" {
            "self.unspanned_s".to_string()
        } else {
            format!("self.{name}_s")
        };
        m.set(&metric, t, "s");
    }
    m.set("trace.wall_s", layers.wall, "s");
    m.set(
        "trace.unspanned_share",
        layers.unspanned / layers.wall,
        "share",
    );
    m.set("trace.overhead_s", traced.overhead, "s");
    let out = Path::new(".perfbench").join(format!("spans-{}.tsv", plan.name));
    if let Err(e) = std::fs::write(&out, layers.spans_tsv()) {
        eprintln!("cannot write {}: {e}", out.display());
    }
    Ok(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload spmd_fig4|emf_irregular|trace_service \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let Some(plan) = plan(&args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let _ = std::fs::create_dir_all(".perfbench");
    // Crashes planned by a fault plan (the chaos-ring journals) unwind the
    // victim rank by design; report every other panic as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<mpisim::InjectedCrash>() {
            default_hook(info);
        }
    }));
    println!(
        "# perfbench {} seed={} seconds={} trace={} host_parallelism={}",
        plan.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut check = Checker::default();
    let result = if args.trace {
        traced(&plan, &args, &mut check)
    } else {
        timed(&plan, &args, &mut check)
    };
    let m = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    m.print_table();
    if check.failed > 0 {
        eprintln!("{} of {} operations failed", check.failed, check.attempted);
    }
    println!("{}", m.result_line(&check));
}
