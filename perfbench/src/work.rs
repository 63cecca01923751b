//! The workloads, the set-up that precedes the first timed pass, and one
//! pass over a workload's units.
//!
//! A unit is the smallest piece whose output is checked on its own: one
//! `reproduce` target, or one audit family × `(n, p)` × machine point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pcm_audit::{audit_plan, machines, registry as audit_registry, Family, PlanAudit};
use pcm_experiments::{find, map_ordered, Experiment, Scale};
use pcm_machines::Platform;
use pcm_sim::extract_plans;

use crate::tally::{digest, probed, Fnv, Tally};

/// What a workload runs.
pub enum Kind {
    /// `reproduce` targets, run one after another on the main thread,
    /// and the paper platforms they run on.
    Reproduce {
        targets: &'static [&'static str],
        platforms: &'static [fn() -> Platform],
    },
    /// The pcm-audit plan sweep (extraction + rules A01–A05), its units
    /// fanned out per family with `map_ordered`.
    Audit,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// The workloads, with why each is in the benchmark (see README.md).
pub const WORKLOADS: [Workload; 4] = [
    // Pricing and per-machine set-up dominate; local kernels do little.
    Workload {
        name: "calib",
        kind: Kind::Reproduce {
            targets: &["table1", "fig01", "fig02", "fig07", "fig14"],
            platforms: &[Platform::maspar, Platform::gcel, Platform::cm5],
        },
    },
    // The only workload whose wall time the sharded exchange decides.
    Workload {
        name: "apsp",
        kind: Kind::Reproduce {
            targets: &["fig12", "fig13", "fig15"],
            platforms: &[Platform::maspar, Platform::gcel, Platform::cm5],
        },
    },
    // The compute closure dominates; exchange and pricing barely show.
    Workload {
        name: "kernels",
        kind: Kind::Reproduce {
            targets: &["fig17", "fig20"],
            platforms: &[Platform::maspar, Platform::cm5],
        },
    },
    // Dry, unpriced reference exchange with the plan recorder, machines
    // nested inline on pool workers.
    Workload {
        name: "audit",
        kind: Kind::Audit,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One audit fan-out: a family and its `(n, p, machine)` points.
struct AuditGroup {
    family: Family,
    points: Vec<(usize, usize, Platform)>,
}

enum Units {
    Reproduce(Vec<Experiment>),
    Audit(Vec<AuditGroup>),
}

/// Everything set-up builds before the first timed pass.
pub struct Plan {
    seed: u64,
    units: Units,
}

/// Builds the registry, the unit list, and every `Platform` the units
/// run on together with its network and compute models. The models are
/// dropped again: building them is the per-machine construction every
/// run repeats, and where eagerly precomputed tables would land.
pub fn setup(w: &Workload, seed: u64) -> Plan {
    let (units, platforms) = match w.kind {
        Kind::Reproduce { targets, platforms } => (
            Units::Reproduce(
                targets
                    .iter()
                    .map(|id| find(id).expect("workload targets are registered experiments"))
                    .collect(),
            ),
            platforms.iter().map(|make| make()).collect(),
        ),
        Kind::Audit => {
            let groups: Vec<AuditGroup> = audit_registry()
                .into_iter()
                .map(|family| {
                    let points = family
                        .grid
                        .iter()
                        .flat_map(|&(n, p)| machines(p).into_iter().map(move |m| (n, p, m)))
                        .collect();
                    AuditGroup { family, points }
                })
                .collect();
            let platforms: Vec<Platform> = groups
                .iter()
                .flat_map(|g| g.points.iter().map(|&(_, _, plat)| plat))
                .collect();
            (Units::Audit(groups), platforms)
        }
    };
    for plat in &platforms {
        std::hint::black_box((plat.network(), plat.compute()));
    }
    Plan { seed, units }
}

/// The two digests a unit is checked by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digests {
    /// FNV of the rendered output (audit: the verification flags).
    pub output: u64,
    /// FNV of the simulated statistics; only probed passes have it.
    pub stats: Option<u64>,
}

/// One unit's outcome in one pass.
pub struct UnitRun {
    pub id: String,
    /// The digests, or why the unit failed (panic, findings).
    pub result: Result<Digests, String>,
}

/// One pass over every unit of a workload.
pub struct Pass {
    pub wall_s: f64,
    pub units: Vec<UnitRun>,
    /// Summed probe tally (audit: counts from the extracted plans);
    /// empty unless the pass was probed.
    pub tally: Tally,
    pub render_ns: u64,
    pub extract_ns: u64,
    pub check_ns: u64,
    pub plans: u64,
    /// Pool counters, when the pass was traced.
    pub pool: Option<rayon::stats::PoolStats>,
}

/// Runs every unit once. `traced` installs the probe, times the layer
/// spans and counts pool activity; untraced passes run bare.
pub fn run_pass(plan: &Plan, traced: bool) -> Pass {
    if traced {
        rayon::stats::reset();
        rayon::stats::enable(true);
    }
    let start = Instant::now();
    let mut pass = Pass {
        wall_s: 0.0,
        units: Vec::new(),
        tally: Tally::default(),
        render_ns: 0,
        extract_ns: 0,
        check_ns: 0,
        plans: 0,
        pool: None,
    };
    match &plan.units {
        Units::Reproduce(exps) => {
            for exp in exps {
                reproduce_unit(exp, plan.seed, traced, &mut pass);
            }
        }
        Units::Audit(groups) => {
            for g in groups {
                let outs = map_ordered(g.points.iter().collect(), |_, (n, p, plat)| {
                    audit_unit(&g.family, plat, *n, *p, plan.seed, traced)
                });
                for o in outs {
                    pass.tally.add(&o.tally);
                    pass.extract_ns += o.extract_ns;
                    pass.check_ns += o.check_ns;
                    pass.plans += o.plans;
                    pass.units.push(o.run);
                }
            }
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    if traced {
        rayon::stats::enable(false);
        pass.pool = Some(rayon::stats::snapshot());
    }
    pass
}

fn reproduce_unit(exp: &Experiment, seed: u64, traced: bool, pass: &mut Pass) {
    let run = || (exp.run)(Scale::Full, seed);
    let (output, tally) = if traced {
        let (o, t) = probed(|| catch_unwind(AssertUnwindSafe(run)));
        (o, Some(t))
    } else {
        (catch_unwind(AssertUnwindSafe(run)), None)
    };
    let result = output.map_err(panic_text).map(|out| {
        let t = Instant::now();
        let text = out.render();
        if traced {
            pass.render_ns += nanos(t);
        }
        Digests {
            output: digest(text.as_bytes()),
            stats: tally.map(|t| t.stats.finish()),
        }
    });
    if let Some(t) = tally {
        pass.tally.add(&t);
    }
    pass.units.push(UnitRun {
        id: exp.id.to_string(),
        result,
    });
}

struct AuditOut {
    run: UnitRun,
    tally: Tally,
    extract_ns: u64,
    check_ns: u64,
    plans: u64,
}

/// Extracts and audits every variant of `family` at one point. Runs on
/// a pool worker, so its spans are timed here rather than by a probe
/// installed on the main thread.
fn audit_unit(
    family: &Family,
    plat: &Platform,
    n: usize,
    p: usize,
    seed: u64,
    traced: bool,
) -> AuditOut {
    let mut out = AuditOut {
        run: UnitRun {
            id: format!("{}/n{n}/p{p}/{}", family.name, plat.name()),
            result: Err(String::new()),
        },
        tally: Tally::default(),
        extract_ns: 0,
        check_ns: 0,
        plans: 0,
    };
    let mut output = Fnv::default();
    let mut stats = Fnv::default();
    let mut findings = Vec::new();
    let body = AssertUnwindSafe(|| {
        for variant in &family.variants {
            let cx = PlanAudit {
                family: family.name,
                variant: variant.name,
                machine: plat.name(),
                n,
                p,
                word: plat.word(),
                bounds: &family.bounds,
                contract: family.contract.as_ref(),
            };
            let t = Instant::now();
            let (verified, plans) = extract_plans(|| (variant.run)(plat, n, seed));
            let t = lap(t, traced, &mut out.extract_ns);
            for plan in &plans {
                findings.extend(audit_plan(plan, &cx).iter().map(ToString::to_string));
            }
            lap(t, traced, &mut out.check_ns);
            output.u64(u64::from(verified));
            if !verified {
                findings.push(format!("{}: dry run failed verification", variant.name));
            }
            // Counting and digesting the plans is the benchmark's own
            // work: only probed passes, which are not timed, do it.
            for plan in plans.iter().filter(|_| traced) {
                out.plans += 1;
                out.tally.machines += 1;
                stats.u64(plan.p as u64);
                stats.u64(plan.steps.len() as u64);
                for step in &plan.steps {
                    let msgs = step.pattern.total_messages() as u64;
                    out.tally.supersteps += 1;
                    out.tally.records += msgs;
                    stats.u64(msgs);
                    stats.u64(step.pattern.total_bytes() as u64);
                }
                stats.u64(plan.pending_inbox.iter().sum::<usize>() as u64);
            }
        }
    });
    out.run.result = match catch_unwind(body) {
        Err(e) => Err(panic_text(e)),
        Ok(()) if !findings.is_empty() => Err(format!(
            "{} finding(s): {}",
            findings.len(),
            findings.join("; ")
        )),
        Ok(()) => Ok(Digests {
            output: output.finish(),
            stats: traced.then(|| stats.finish()),
        }),
    };
    out
}

/// Adds the time since `t` to `acc` when traced; returns the new start.
fn lap(t: Instant, traced: bool, acc: &mut u64) -> Instant {
    if traced {
        *acc += nanos(t);
    }
    Instant::now()
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    let msg = e
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_experiment_fails_its_unit_without_aborting_the_pass() {
        let boom = Experiment {
            id: "boom",
            title: "an experiment whose result check fails",
            run: |_, _| panic!("result check failed"),
        };
        let plan = Plan {
            seed: 1,
            units: Units::Reproduce(vec![boom]),
        };
        for traced in [false, true] {
            let pass = run_pass(&plan, traced);
            assert_eq!(pass.units.len(), 1);
            let err = pass.units[0].result.as_ref().expect_err("unit failed");
            assert!(err.contains("result check failed"), "{err}");
        }
    }
}
