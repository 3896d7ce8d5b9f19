//! `paper_both`: the `reproduce --backend both` campaign driven in
//! process. Set-up is one analytic calibration; every measured
//! operation regenerates one cycle-level figure and compares it with
//! the analytic backend, and each round ends with the design-space
//! mega-sweep and its cycle oracle.

use piton_arch::units::Watts;
use piton_core::analytic::compare::{self, FigureComparison};
use piton_core::analytic::{self, Calibrated};
use piton_core::experiments::{
    core_scaling, design_space, epi, mem_latency, memory_energy, mt_vs_mc, noc_energy, static_idle,
    thermal, Backend, Fidelity,
};
use piton_core::runner;
use piton_sim::chipset::round_trip_cycles;

use crate::spans::Spans;
use crate::{median, Checks, Fallible, Outcome, SETUPS};

/// The campaign's fidelity: between `quick` (12 × 3,000 + 30,000
/// cycles per measured point) and `full` (128 × 20,000 + 300,000).
pub fn fidelity() -> Fidelity {
    Fidelity {
        samples: 16,
        chunk_cycles: 4_000,
        warmup_cycles: 40_000,
        ..Fidelity::quick()
    }
    .with_backend(Backend::Both)
}

/// Figure 13 runs every core count from 1 to this, the grid that
/// `reproduce` pairs with a fidelity above `quick`. Figure 13's error
/// budget holds for the seven-count `quick` grid only at `quick`
/// fidelity.
const MAX_CORES: usize = 25;
/// Figure 14 thread counts (the `quick` grid of `reproduce`; the
/// figure is within its budget on it at this fidelity).
const THREADS: [usize; 3] = [8, 16, 24];

/// Host seconds of one measured round, as measured on a 2-vCPU host
/// (8–11 s); sizes the run from `--seconds` so that every run of a
/// given length does the same work. The round count is odd, and so is
/// the operation count, so the median operation is one operation's
/// median over the rounds. Rounds are whole, so a run measures up to a
/// round and a half beyond `--seconds` (3 rounds at `--seconds 15`).
const ROUND_S: f64 = 9.0;

/// One measured operation per figure, in campaign order. Table VII and
/// Figure 15 share one, as they share their anchor test.
#[derive(Clone, Copy, Debug)]
enum Op {
    Fig10TableV,
    Fig11,
    TableViiFig15,
    Fig12,
    Fig13,
    Fig14,
    Fig17,
    DesignSpace,
    CycleOracle,
}

const OPS: [Op; 9] = [
    Op::Fig10TableV,
    Op::Fig11,
    Op::TableViiFig15,
    Op::Fig12,
    Op::Fig13,
    Op::Fig14,
    Op::Fig17,
    Op::DesignSpace,
    Op::CycleOracle,
];

fn within(v: f64, target: f64, tol: f64) -> bool {
    (v - target).abs() < tol
}

fn non_decreasing(points: &[(usize, f64)]) -> bool {
    points.windows(2).all(|w| w[1].1 >= w[0].1)
}

/// The analytic-vs-cycle comparisons that exceed their committed error
/// budgets. Each is a failed check, as it fails `reproduce --backend
/// both`.
pub fn over_budget(comparisons: &[FigureComparison]) -> Vec<String> {
    comparisons
        .iter()
        .filter(|c| !c.within_budget())
        .map(|c| {
            format!(
                "{} analytic-vs-cycle error {:.3}% exceeds its {:.1}% budget (worst: {})",
                c.figure,
                c.max_rel() * 100.0,
                c.budget * 100.0,
                c.worst().map_or("-", |p| p.label.as_str())
            )
        })
        .collect()
}

/// Runs one operation and checks it; returns its rendered output
/// (compared across rounds) and its over-budget comparisons.
fn run_op(op: Op, cal: &Calibrated, f: Fidelity, checks: &mut Checks) -> (String, Vec<String>) {
    let mut comparisons = Vec::new();
    let rendered = match op {
        Op::Fig10TableV => {
            let r = static_idle::run(f);
            comparisons.extend(compare::compare_static_idle(&r, cal));
            let (paper_static, paper_idle) = static_idle::paper_table_v();
            checks.check(
                within(r.table_v_static.as_mw(), paper_static.as_mw(), 25.0)
                    && within(r.table_v_idle.as_mw(), paper_idle.as_mw(), 30.0),
                || {
                    format!(
                        "Table V static {:.1} mW / idle {:.1} mW off the paper anchors",
                        r.table_v_static.as_mw(),
                        r.table_v_idle.as_mw()
                    )
                },
            );
            r.render()
        }
        Op::Fig11 => {
            let r = epi::run(f);
            comparisons.push(compare::compare_epi(&r, cal));
            let random = |label: &str| {
                r.row(label)
                    .and_then(|row| row.at(piton_arch::isa::OperandPattern::Random))
                    .map(|e| e.value)
            };
            match (random("add"), random("ldx")) {
                (Some(add), Some(ldx)) => checks.check(
                    (2.2..=3.8).contains(&(ldx / add)) && (ldx - 286.46).abs() / 286.46 < 0.25,
                    || {
                        format!(
                            "Figure 11 ldx {ldx:.1} pJ / add {add:.1} pJ off the Table VII anchor"
                        )
                    },
                ),
                _ => checks.fail("Figure 11 lacks its add or ldx row".to_owned()),
            }
            r.render()
        }
        Op::Fig12 => {
            let r = noc_energy::run(f);
            comparisons.push(compare::compare_noc(&r, cal));
            for (label, paper) in noc_energy::paper_reference() {
                let slope = r.series_for(label).map_or(f64::NAN, |s| s.pj_per_hop);
                checks.check((slope - paper).abs() / paper < 0.35, || {
                    format!("Figure 12 {label}: {slope:.2} pJ/hop vs paper {paper}")
                });
            }
            for s in &r.series {
                checks.check(non_decreasing(&s.points), || {
                    format!("Figure 12 {}: energy per flit falls with hops", s.pattern)
                });
            }
            r.render()
        }
        Op::Fig13 => {
            let r = core_scaling::run_with_cores(&(1..=MAX_CORES).collect::<Vec<_>>(), f);
            comparisons.push(compare::compare_core_scaling(&r, cal));
            // Adjacent core counts differ by less than the noise of a
            // 16-sample window for the flattest series (Hist, ≈14 mW per
            // core), so the property is checked at steps of four cores.
            for s in &r.series {
                let coarse: Vec<(usize, f64)> = s.points.iter().copied().step_by(4).collect();
                checks.check(non_decreasing(&coarse), || {
                    format!(
                        "Figure 13 {} {}: power falls with core count",
                        s.bench.label(),
                        s.tpc.label()
                    )
                });
            }
            checks.check(within(r.idle.as_mw(), 1906.2, 40.0), || {
                format!("chip #3 idle {:.1} mW off the paper anchor", r.idle.as_mw())
            });
            checks.check(r.holes.is_empty(), || "Figure 13 has holes".to_owned());
            r.render()
        }
        Op::Fig14 => {
            let r = mt_vs_mc::run_with_threads(&THREADS, f);
            comparisons.push(compare::compare_mt_vs_mc(&r, cal));
            checks.check(r.chip_idle > Watts::ZERO, || {
                "Figure 14 idle is 0".to_owned()
            });
            r.render()
        }
        Op::TableViiFig15 => {
            let table = memory_energy::run(f).render();
            let r = mem_latency::run();
            checks.check(
                round_trip_cycles() == 395 && (424..450).contains(&r.measured_ldx_miss_cycles),
                || {
                    format!(
                        "Figure 15 round trip {} / ldx miss {} cycles off the anchors",
                        round_trip_cycles(),
                        r.measured_ldx_miss_cycles
                    )
                },
            );
            table + &r.render()
        }
        Op::Fig17 => {
            let r = thermal::run_thermal_power(f);
            comparisons.push(compare::compare_thermal(&r, cal));
            r.render()
        }
        Op::DesignSpace => {
            let r = design_space::run(cal, f);
            let n = design_space::grid().len();
            checks.check(
                n == 105_000 && r.evaluated() == n && r.holes.is_empty(),
                || format!("design space evaluated {} of {n} points", r.evaluated()),
            );
            r.render()
        }
        Op::CycleOracle => {
            let c = design_space::cycle_oracle(cal, f);
            let rendered = compare::error_table(std::slice::from_ref(&c));
            comparisons.push(c);
            rendered
        }
    };
    (rendered, over_budget(&comparisons))
}

pub fn run(seconds: u64, spans: &mut Spans, checks: &mut Checks) -> Fallible<Outcome> {
    let f = fidelity();
    let mut out = Outcome::default();
    let mut cal: Option<Calibrated> = None;
    for _ in 0..SETUPS {
        let (fresh, d) = spans.time("setup", 1, |_| analytic::calibrate(f));
        let fresh = fresh.map_err(|e| format!("calibrate: {e}"))?;
        out.setup_s.push(d.as_secs_f64());
        if let Some(prev) = &cal {
            checks.check(
                prev.model.vdd_pj == fresh.model.vdd_pj
                    && prev.model.vcs_pj == fresh.model.vcs_pj
                    && prev.model.vio_pj == fresh.model.vio_pj,
                || "repeated calibrations fitted different models".to_owned(),
            );
        }
        cal = Some(fresh);
    }
    let cal = cal.expect("SETUPS > 0");
    let busy = runner::take_stats();
    out.runner_busy_s += busy.busy.as_secs_f64();
    out.runner_points += busy.points as u64;

    let rounds = ((seconds as f64 / ROUND_S).round() as usize).max(1) | 1;
    let mut first: Vec<String> = Vec::new();
    let mut op_s = vec![Vec::new(); OPS.len()];
    for round in 0..rounds {
        for (i, &op) in OPS.iter().enumerate() {
            let ((rendered, over), d) =
                spans.time("paper.figure", 1, |_| run_op(op, &cal, f, checks));
            for o in over {
                checks.fail(format!("{op:?}: {o}"));
            }
            let stats = runner::take_stats();
            out.op_ms.push(d.as_secs_f64() * 1e3);
            op_s[i].push(d.as_secs_f64());
            out.measured_s += d.as_secs_f64();
            out.points += stats.points as u64;
            out.runner_busy_s += stats.busy.as_secs_f64();
            out.runner_points += stats.points as u64;
            out.attempted += 1;
            if round == 0 {
                first.push(rendered);
            } else {
                checks.check(first[i] == rendered, || {
                    format!("{op:?} rendered differently in round {round}")
                });
            }
        }
    }
    // The median round: each operation at its median over the rounds,
    // so host noise confined to one round moves no operation's median.
    let op_medians: Vec<f64> = op_s.iter().map(|t| median(t)).collect();
    eprintln!("perfbench: median operation times (s): {OPS:?} {op_medians:.3?}");
    let round_s: f64 = op_medians.iter().sum();
    out.unit_rates
        .push(out.points as f64 / rounds as f64 / round_s);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_over_budget_comparison_is_caught() {
        let point = |analytic: f64| ("p".to_owned(), 1.0, analytic, 0.0);
        let within = FigureComparison::from_points("figure_13", [point(1.1)]);
        let over = FigureComparison::from_points("figure_13", [point(1.1), point(1.2)]);
        assert!(over_budget(std::slice::from_ref(&within)).is_empty());
        assert_eq!(over_budget(&[within, over]).len(), 1);
    }

    #[test]
    fn monotonicity_checks_reject_a_dip() {
        assert!(non_decreasing(&[(1, 1.0), (2, 1.0), (3, 2.0)]));
        assert!(!non_decreasing(&[(1, 1.0), (2, 0.9)]));
    }
}
