//! The repository's benchmark harness.
//!
//! ```text
//! perfbench --workload paper_both|serve_cold|serve_warm --seed N \
//!           --seconds S --trace 0|1 --serve-bin PATH [--work DIR]
//! ```
//!
//! Runs one workload, checks its outputs, and prints one JSON line as
//! the last line of stdout: `correct`, `attempted`, `failed` and the
//! metrics — the five end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A failed check exits 1 after
//! printing; a run that cannot finish exits 1 without a result. See
//! `perfbench/README.md` for the workloads and metrics.

mod paper;
mod probe;
mod serve;
mod spans;

use std::path::PathBuf;

use piton_core::analytic;
use piton_core::runner;
use piton_obs::metrics;

use spans::Spans;

pub type Fallible<T> = Result<T, String>;

/// Set-ups per run: `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Grid points delivered by the measured operations.
    pub points: u64,
    pub measured_s: f64,
    /// Throughput of each measurement unit (a round, session or pass).
    pub unit_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Largest peak RSS of any daemon (KiB).
    pub child_hwm_kb: u64,
    /// `serve.*` counters summed over the run's daemons.
    pub cache_hits: u64,
    pub points_computed: u64,
    pub runner_busy_s: f64,
    pub runner_points: u64,
    /// Cycle-level probes of the traced run's own calibration.
    pub analytic_probes: u64,
    /// Served payloads that `serve_cold` cross-checks once its metrics
    /// are read.
    pub sampled: serve::Sampled,
    /// CPU seconds of the harness and the fill daemon when the
    /// `serve_warm` fill ended: untimed work, left out of `cpu_s`.
    pub fill_cpu_s: f64,
}

impl Outcome {
    /// Ends one measurement unit: its throughput is the points and
    /// seconds measured since `mark`, which moves to now.
    pub fn close_unit(&mut self, mark: &mut (u64, f64)) {
        let (points, secs) = (self.points - mark.0, self.measured_s - mark.1);
        self.unit_rates.push(points as f64 / secs);
        *mark = (self.points, self.measured_s);
    }
}

/// Output checks: every failure is kept and reported.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// xorshift64*: the request-script generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB (0 when unreadable).
pub fn vm_hwm_kb(status: &str) -> u64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// User+system CPU seconds of this process and its reaped children
/// (the daemons), from `/proc/self/stat`.
pub fn cpu_s() -> Fallible<f64> {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // Fields after the parenthesised command name; utime is field 14.
    let rest = &stat[stat.rfind(')').ok_or("bad /proc/self/stat")? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11..15].iter().filter_map(|v| v.parse::<u64>().ok()).sum();
    Ok(ticks as f64 / USER_HZ)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperBoth,
    ServeCold,
    ServeWarm,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Fallible<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let workload = match need("--workload")? {
        "paper_both" => Workload::PaperBoth,
        "serve_cold" => Workload::ServeCold,
        "serve_warm" => Workload::ServeWarm,
        w => return Err(format!("unknown workload {w:?}")),
    };
    let num = |name: &str| -> Fallible<u64> {
        need(name)?
            .parse()
            .map_err(|_| format!("{name} is not a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t:?} is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        serve_bin: PathBuf::from(need("--serve-bin")?),
        work: PathBuf::from(get("--work").unwrap_or("perfbench/work")),
    })
}

/// One pass of the workload.
fn run_workload(
    args: &Args,
    work: &std::path::Path,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Fallible<Outcome> {
    let env = serve::Env {
        serve_bin: &args.serve_bin,
        work,
    };
    match args.workload {
        Workload::PaperBoth => paper::run(args.seconds, spans, checks),
        Workload::ServeCold => serve::cold(&env, args.seed, args.seconds, spans, checks),
        Workload::ServeWarm => serve::warm(&env, args.seed, args.seconds, spans, checks),
    }
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(out: &Outcome) -> Fallible<Vec<Metric>> {
    let hwm_kb = vm_hwm_kb("/proc/self/status").max(out.child_hwm_kb);
    Ok(vec![
        ("setup_s", median(&out.setup_s), "s"),
        ("points_per_s", median(&out.unit_rates), "1/s"),
        ("op_p50_ms", median(&out.op_ms), "ms"),
        ("cpu_s", cpu_s()? - out.fill_cpu_s, "s"),
        ("peak_rss_mb", hwm_kb as f64 / 1024.0, "MiB"),
    ])
}

/// `base_op_ms` is the untraced pass's median operation time.
fn per_layer(spans: &Spans, out: &Outcome, base_op_ms: f64) -> Vec<Metric> {
    let snap = metrics::snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let ns_per_cycle = |name: &str| spans.per_item_s(name) * 1e9;
    let med = |name: &str| median(&spans.seconds(name));
    let requests_ms: Vec<f64> = spans
        .seconds("core.serve.request")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let window_ms: Vec<f64> = spans
        .seconds("board.system.try_measure")
        .iter()
        .zip(spans.seconds("board.machine.run_window"))
        .map(|(measured, bare)| (measured - bare) * 1e3)
        .collect();
    vec![
        (
            "sim.machine.ns_per_cycle_1live",
            ns_per_cycle("sim.machine.run_1live"),
            "ns",
        ),
        (
            "sim.machine.ns_per_cycle_25live",
            ns_per_cycle("sim.machine.run_25live"),
            "ns",
        ),
        (
            "sim.machine.ns_per_cycle_noc",
            ns_per_cycle("sim.machine.run_noc"),
            "ns",
        ),
        ("engine.steps", count("engine.steps"), "count"),
        (
            "engine.batched_cycles",
            count("engine.batched_cycles"),
            "count",
        ),
        ("engine.event_cycles", count("engine.event_cycles"), "count"),
        ("engine.batches", count("engine.batches"), "count"),
        ("engine.handovers", count("engine.handovers"), "count"),
        ("board.system.window_overhead_ms", median(&window_ms), "ms"),
        ("core.runner.busy_s", out.runner_busy_s, "s"),
        ("core.runner.points", out.runner_points as f64, "count"),
        ("core.analytic.battery_s", med("core.analytic.battery"), "s"),
        ("core.analytic.fit_ms", med("core.analytic.fit") * 1e3, "ms"),
        ("core.analytic.probes", out.analytic_probes as f64, "count"),
        (
            "core.analytic.design_point_us",
            spans.per_item_s("core.analytic.design_point") * 1e6,
            "us",
        ),
        (
            "core.journal.record_us",
            spans.per_item_s("core.journal.record") * 1e6,
            "us",
        ),
        ("core.journal.sync_ms", med("core.journal.sync") * 1e3, "ms"),
        ("core.journal.open_ms", med("core.journal.open") * 1e3, "ms"),
        (
            "core.journal.serve_us",
            spans.per_item_s("core.journal.serve") * 1e6,
            "us",
        ),
        (
            "core.serve.resolve_ms",
            med("core.serve.resolve") * 1e3,
            "ms",
        ),
        (
            "core.serve.frame_encode_us",
            spans.per_item_s("core.serve.frame_encode") * 1e6,
            "us",
        ),
        (
            "core.serve.frame_decode_us",
            spans.per_item_s("core.serve.frame_decode") * 1e6,
            "us",
        ),
        (
            "core.serve.request_ms_p50",
            quantile(&requests_ms, 0.5),
            "ms",
        ),
        (
            "core.serve.request_ms_p90",
            quantile(&requests_ms, 0.9),
            "ms",
        ),
        ("serve.cache_hits", out.cache_hits as f64, "count"),
        ("serve.points_computed", out.points_computed as f64, "count"),
        (
            "obs.json.parse_us",
            spans.per_item_s("obs.json.parse") * 1e6,
            "us",
        ),
        (
            "trace.overhead_pct",
            (median(&out.op_ms) / base_op_ms - 1.0) * 100.0,
            "%",
        ),
    ]
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn run(args: &Args) -> Fallible<(bool, String)> {
    let work = args.work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut checks = Checks::default();
    let (out, metrics) = if args.trace {
        // The untraced reference pass, then the traced pass: metrics
        // recording switches on only now, and stays on for the probes.
        let base = run_workload(args, &work, &mut Spans::new(false), &mut checks)?;
        runner::take_stats();
        metrics::enable();
        let mut spans = Spans::new(true);
        let mut out = run_workload(args, &work, &mut spans, &mut checks)?;
        probe::run(&mut spans, &mut checks, &mut out, &work, args.seed)?;
        let stats = runner::take_stats();
        out.runner_busy_s += stats.busy.as_secs_f64();
        out.runner_points += stats.points as u64;
        let trace_file = args
            .work
            .join(format!("trace-{:?}-seed{}.json", args.workload, args.seed));
        let run_id = format!("{:?}-{}-{}", args.workload, args.seed, std::process::id());
        std::fs::write(&trace_file, spans.to_json(&run_id))
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        eprintln!("perfbench: spans -> {}", trace_file.display());
        let metrics = per_layer(&spans, &out, median(&base.op_ms));
        (out, metrics)
    } else {
        let out = run_workload(args, &work, &mut Spans::new(false), &mut checks)?;
        let metrics = end_to_end(&out)?;
        (out, metrics)
    };
    if !out.sampled.is_empty() {
        // After the metrics are read, so that `cpu_s` holds no check work.
        let cal = analytic::calibrate(serve::fidelity()).map_err(|e| format!("calibrate: {e}"))?;
        serve::cross_check(&mut checks, &cal, &out.sampled);
    }
    let _ = std::fs::remove_dir_all(&work);
    for f in checks.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {f}");
    }
    eprintln!(
        "perfbench: {:?} seed {}: {} set-up(s) of median {:.3} s, {:.3} s measured, \
         {} operation(s) attempted, {} failed, checks {}",
        args.workload,
        args.seed,
        out.setup_s.len(),
        median(&out.setup_s),
        out.measured_s,
        out.attempted,
        out.failed,
        if checks.passed() { "passed" } else { "FAILED" }
    );
    eprintln!("  unit throughputs (1/s): {:.0?}", out.unit_rates);
    for (n, v, u) in &metrics {
        eprintln!("  {n:<36} {v:>16.6} {u}");
    }
    Ok((
        checks.passed(),
        render(checks.passed(), out.attempted, out.failed, &metrics),
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((passed, line)) => {
            println!("{line}");
            std::process::exit(if passed { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
