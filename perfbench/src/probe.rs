//! Layer probes of the traced run: each times one public call of one
//! layer on inputs of its own, so every per-layer metric exists on
//! every workload, including layers the workload does not exercise in
//! this process (the daemon's journal and framing run in another
//! process during the serve workloads).

use std::path::Path;

use piton_arch::config::ChipConfig;
use piton_arch::isa::{Opcode, OperandPattern};
use piton_arch::topology::{Mesh, TileId};
use piton_board::system::PitonSystem;
use piton_core::analytic::{battery, Calibrated};
use piton_core::experiments::design_space;
use piton_core::journal::{point_key, Journal, JournalPayload};
use piton_core::serve::frames::Frame;
use piton_core::serve::request::Request;
use piton_core::serve::{eval, Server, ServerConfig};
use piton_obs::json;
use piton_sim::machine::{Machine, SwitchPattern};
use piton_workloads::epi::{epi_test, EpiCase};

use crate::serve::{self, Client, SECTION};
use crate::spans::Spans;
use crate::{Checks, Fallible, Outcome, Rng};

const REPS: usize = 3;
const CYCLES_1LIVE: u64 = 2_000_000;
const CYCLES_25LIVE: u64 = 400_000;
const CYCLES_NOC: u64 = 50_000_000;
/// Shard size of the journal probe (the daemon's default).
const SHARD: usize = 512;

fn epi_machine(tiles: usize) -> Machine {
    let mut m = Machine::new(&ChipConfig::piton());
    for t in 0..tiles {
        m.load_thread(
            TileId::new(t),
            0,
            epi_test(EpiCase::Plain(Opcode::Add), OperandPattern::Random, t),
        );
    }
    m
}

/// `Machine::run` with one and with 25 live tiles, and the NoC
/// invalidation stream.
fn machine(spans: &mut Spans) {
    for _ in 0..REPS {
        let mut m = epi_machine(1);
        spans.time("sim.machine.run_1live", CYCLES_1LIVE, |_| {
            m.run(CYCLES_1LIVE)
        });
        let mut m = epi_machine(25);
        spans.time("sim.machine.run_25live", CYCLES_25LIVE, |_| {
            m.run(CYCLES_25LIVE);
        });
        let dst = Mesh::piton()
            .tile_at_distance(TileId::new(0), 8)
            .expect("5x5 mesh covers 8 hops");
        let mut m = Machine::new(&ChipConfig::piton());
        spans.time("sim.machine.run_noc", CYCLES_NOC, |_| {
            m.run_invalidation_traffic(dst, SwitchPattern::Fsw, CYCLES_NOC);
        });
    }
}

/// The two halves of `analytic::calibrate` at the serve workloads'
/// fidelity, timed apart: the cycle-level probe battery and the fit.
/// The calibrated model feeds the design-point and journal probes.
fn calibration(spans: &mut Spans) -> Fallible<Calibrated> {
    let (probes, _) = spans.time("core.analytic.battery", 1, |_| {
        battery::run_battery(serve::fidelity())
    });
    let probes = probes.map_err(|e| format!("probe battery: {e}"))?;
    let (fitted, _) = spans.time("core.analytic.fit", 1, |_| battery::fit(&probes));
    let (model, report) = fitted.map_err(|e| format!("fit: {e}"))?;
    Ok(Calibrated {
        model,
        report,
        probes,
    })
}

/// A 128-sample measurement window versus `Machine::run` over the same
/// cycles on an identical system: the difference is the board's
/// per-sample power-model, thermal and monitor work. The chip is idle,
/// so the machine's share is small and the difference stands out of
/// the host's noise; the pairs interleave, and the metric is the median
/// of their differences.
fn window(spans: &mut Spans, checks: &mut Checks) {
    const SAMPLES: usize = 128;
    const PAIRS: usize = 21;
    let chunk = crate::paper::fidelity().chunk_cycles;
    let system = || {
        let mut sys = PitonSystem::reference_chip_3();
        sys.set_chunk_cycles(chunk);
        sys.warm_up(40_000);
        sys
    };
    for _ in 0..PAIRS {
        let mut sys = system();
        let (m, _) = spans.time("board.system.try_measure", SAMPLES as u64, |_| {
            sys.try_measure(SAMPLES)
        });
        checks.check(m.is_ok(), || "measurement window failed".to_owned());
        let mut sys = system();
        spans.time("board.machine.run_window", SAMPLES as u64, |_| {
            for _ in 0..SAMPLES {
                sys.machine_mut().run(chunk);
            }
        });
    }
}

/// Journal append/fsync, recovery and lookups over the whole
/// `design_space` grid; frame codec and JSON parse over the same
/// payloads.
fn journal_and_codecs(
    spans: &mut Spans,
    checks: &mut Checks,
    cal: &Calibrated,
    context: &str,
    work: &Path,
) -> Fallible<()> {
    let grid = design_space::grid();
    let table = design_space::mix_table(cal);
    let (points, _) = spans.time("core.analytic.design_point", grid.len() as u64, |_| {
        grid.iter()
            .enumerate()
            .map(|(i, &p)| design_space::compute_point(cal, &table, i, p, None, 0))
            .collect::<Result<Vec<_>, _>>()
    });
    let payloads: Vec<json::Value> = points
        .map_err(|e| format!("compute_point: {e}"))?
        .iter()
        .map(design_space::DesignPoint::to_value)
        .collect();

    let path = work.join("probe.journal");
    let _ = std::fs::remove_file(&path);
    let io = |e: piton_arch::error::PitonError| format!("journal probe: {e}");
    let mut j = Journal::open(&path, context).map_err(io)?;
    for (shard_no, shard) in payloads.chunks(SHARD).enumerate() {
        let base = shard_no * SHARD;
        let (rec, _) = spans.time("core.journal.record", shard.len() as u64, |_| {
            shard
                .iter()
                .enumerate()
                .try_for_each(|(k, v)| j.record(SECTION, base + k, v))
        });
        rec.map_err(io)?;
        let (synced, _) = spans.time("core.journal.sync", 1, |_| j.sync());
        synced.map_err(io)?;
    }
    drop(j);
    let mut reopened = None;
    for _ in 0..REPS {
        let (j, _) = spans.time("core.journal.open", 1, |_| Journal::open(&path, context));
        reopened = Some(j.map_err(io)?);
    }
    let mut j = reopened.expect("REPS > 0");
    checks.check(j.stats().recovered == payloads.len() as u64, || {
        format!("journal probe recovered {} points", j.stats().recovered)
    });
    let (served, _) = spans.time("core.journal.serve", payloads.len() as u64, |_| {
        (0..payloads.len())
            .filter(|&i| j.serve(SECTION, i).is_some())
            .count()
    });
    checks.check(served == payloads.len(), || {
        format!("journal probe served {served} points")
    });
    drop(j);
    let _ = std::fs::remove_file(&path);

    let frames: Vec<Frame> = payloads
        .iter()
        .enumerate()
        .map(|(i, v)| Frame::Result {
            section: SECTION.to_owned(),
            index: i as u64,
            key: point_key(context, SECTION, i),
            payload: v.clone(),
        })
        .collect();
    let n = frames.len() as u64;
    let (lines, _) = spans.time("core.serve.frame_encode", n, |_| {
        frames.iter().map(Frame::encode).collect::<Vec<_>>()
    });
    let (decoded, _) = spans.time("core.serve.frame_decode", n, |_| {
        lines
            .iter()
            .map(|l| Frame::decode(l.as_bytes()))
            .collect::<Result<Vec<_>, _>>()
    });
    checks.check(decoded.as_ref() == Ok(&frames), || {
        "frame codec did not round-trip".to_owned()
    });
    let rendered: Vec<String> = payloads.iter().map(json::Value::render).collect();
    let (parsed, _) = spans.time("obs.json.parse", n, |_| {
        rendered
            .iter()
            .map(|s| json::parse(s))
            .collect::<Result<Vec<_>, _>>()
    });
    checks.check(parsed.as_ref() == Ok(&payloads), || {
        "JSON parse did not round-trip".to_owned()
    });
    Ok(())
}

/// A short in-process daemon session, for a workload that sends no
/// requests of its own: ten slices cold, then the same ten warm.
fn serve_session(
    spans: &mut Spans,
    checks: &mut Checks,
    out: &mut Outcome,
    work: &Path,
    seed: u64,
) -> Fallible<()> {
    let dir = work.join("probe-serve");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServerConfig::new(work.join("probe.sock"), &dir).with_jobs(1))
        .map_err(|e| format!("probe daemon: {e}"))?;
    let handle = server.spawn();
    let slices: Vec<_> = serve::script(design_space::grid().len(), 0, &mut Rng::new(seed))
        .into_iter()
        .take(10)
        .collect();
    let mut client = Client::connect(handle.socket())?;
    for slice in slices.iter().chain(&slices) {
        let (resp, _) = spans.time("core.serve.request", slice.len() as u64, |_| {
            client.call(&slice.request())
        });
        serve::check_response(checks, slice, &resp?, None);
    }
    drop(client);
    out.cache_hits += handle.counters().value("serve.cache_hits");
    out.points_computed += handle.counters().value("serve.points_computed");
    handle.stop().map_err(|e| format!("probe daemon: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs every probe the workload did not already cover.
pub fn run(
    spans: &mut Spans,
    checks: &mut Checks,
    out: &mut Outcome,
    work: &Path,
    seed: u64,
) -> Fallible<()> {
    machine(spans);
    window(spans, checks);
    let req = match Request::parse(
        "{\"op\":\"run\",\"section\":\"design_space\",\"fidelity\":\"quick\"}",
    ) {
        Ok(Request::Run(r)) => r,
        other => return Err(format!("resolve probe request: {other:?}")),
    };
    let (eval, _) = spans.time("core.serve.resolve", 1, |_| eval::resolve(&req));
    let context = eval.map_err(|e| format!("resolve: {e}"))?.context;
    let cal = calibration(spans)?;
    out.analytic_probes = cal.report.probes as u64;
    journal_and_codecs(spans, checks, &cal, &context, work)?;
    if spans.named("core.serve.request").next().is_none() {
        serve_session(spans, checks, out, work, seed)?;
    }
    Ok(())
}
