//! perfbench — end-to-end and per-layer benchmark of the pcm workspace.
//!
//! ```text
//! perfbench --workload <calib|apsp|kernels|audit> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` times bare passes over the workload for `S` seconds and
//! prints the end-to-end metrics; `--trace 1` alternates bare and probed
//! passes and prints the per-layer metrics. Either way every unit's output
//! is checked, and the last stdout line is the JSON result. See README.md
//! for the workloads, the seeds and what each layer metric should move.

mod check;
mod host;
mod report;
mod tally;
mod work;

use std::fmt;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{golden_line, Expect, PINNED_SEED};
use report::{max, median, ratio, result_line, Breakdown, END_TO_END, PER_LAYER};
use work::{run_pass, setup, workload, Kind, Pass, Plan, Workload, WORKLOADS};

/// Timed set-up samples before each bare pass; `setup_s` is the median
/// over all of them.
const SETUP_SAMPLES: usize = 5;
/// Least wall time one set-up sample spans: shorter set-ups are repeated
/// and averaged, so the clock's resolution does not show.
const SETUP_SPAN: Duration = Duration::from_millis(1);

const USAGE: &str = "usage: perfbench --workload <calib|apsp|kernels|audit> \
                     [--seed N] [--seconds 1..=3600] [--trace 0|1]";

#[derive(Debug, PartialEq, Eq)]
enum CliError {
    UnknownFlag(String),
    MissingValue(&'static str),
    MissingWorkload,
    UnknownWorkload(String),
    BadSeed(String),
    BadSeconds(String),
    BadTrace(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(a) => write!(f, "unknown argument `{a}`"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::MissingWorkload => write!(f, "--workload is required"),
            CliError::UnknownWorkload(w) => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                write!(f, "unknown workload `{w}` (one of {})", names.join(", "))
            }
            CliError::BadSeed(s) => write!(f, "--seed `{s}` is not an unsigned 64-bit integer"),
            CliError::BadSeconds(s) => {
                write!(f, "--seconds `{s}` is not a whole number in 1..=3600")
            }
            CliError::BadTrace(s) => write!(f, "--trace `{s}` is not 0 or 1"),
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name| it.next().ok_or(CliError::MissingValue(name));
        match flag.as_str() {
            "--workload" => workload = Some(workload_arg(&value("--workload")?)?),
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| CliError::BadSeed(v))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or(CliError::BadSeconds(v))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(CliError::BadTrace(other.to_string())),
                }
            }
            _ => return Err(CliError::UnknownFlag(flag)),
        }
    }
    Ok(Args {
        workload: workload.ok_or(CliError::MissingWorkload)?,
        seed,
        seconds,
        trace,
    })
}

fn workload_arg(v: &str) -> Result<&'static Workload, CliError> {
    workload(v).ok_or_else(|| CliError::UnknownWorkload(v.to_string()))
}

/// Failure accounting over every unit run of the invocation.
struct Ledger {
    workload: &'static str,
    expect: Expect,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn judge(&mut self, pass: &Pass) {
        for unit in &pass.units {
            self.attempted += 1;
            if let Err(why) = self.expect.check(unit) {
                self.failed += 1;
                eprintln!("perfbench: unit failed: {why}");
                if let Ok(d) = &unit.result {
                    eprintln!(
                        "perfbench: observed {}",
                        golden_line(self.workload, d, &unit.id)
                    );
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let expect = match Expect::new(args.workload.name, args.seed) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ledger = Ledger {
        workload: args.workload.name,
        expect,
        attempted: 0,
        failed: 0,
    };

    // The first set-up also latches the pool width and spawns the
    // workers; it is timed from process start and only printed.
    rayon::current_num_threads();
    pcm_experiments::map_ordered(vec![(); 2], |_, ()| ());
    let mut plan = setup(args.workload, args.seed);
    let first_setup = t0.elapsed().as_secs_f64();

    let deadline = Duration::from_secs(args.seconds);
    let (gate, set, values) = if args.trace {
        let (gate, values) = traced_run(&plan, args.workload, deadline, &mut ledger);
        (gate, &PER_LAYER[..], values)
    } else {
        let mut values = untraced_run(&mut plan, &args, deadline, &mut ledger);
        println!("setup_s (first, from process start): {first_setup:.6} s");
        let ok = ledger.attempted - ledger.failed;
        #[allow(clippy::cast_precision_loss)] // unit counts are small
        values.push(("ok_frac", ratio(ok as f64, ledger.attempted as f64)));
        (true, &END_TO_END[..], values)
    };

    println!(
        "{{\"fingerprint\": {}, \"commit\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        host::fingerprint(),
        report::json_str(&host::commit()),
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let correct = gate && ledger.failed == 0;
    println!(
        "{}",
        result_line(correct, ledger.attempted, ledger.failed, set, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints a timing's median, maximum and sample count.
fn summary(name: &str, xs: &[f64], unit: &str) {
    println!(
        "{name}: median {:.6} {unit}, max {:.6} {unit}, n={}",
        median(xs),
        max(xs),
        xs.len()
    );
}

/// One probed warm-up pass, which also yields the simulated counts
/// (deterministic per seed) and the statistics digests, then bare passes
/// until `deadline`.
///
/// Set-up is sampled before every pass rather than only at the start, so
/// that its median spans the same host conditions as the passes: one
/// set-up takes microseconds, and its speed follows the host's load.
fn untraced_run(
    plan: &mut Plan,
    args: &Args,
    deadline: Duration,
    ledger: &mut Ledger,
) -> Vec<(&'static str, f64)> {
    let counted = run_pass(plan, true);
    ledger.judge(&counted);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    loop {
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            let mut n = 0u32;
            while n == 0 || t.elapsed() < SETUP_SPAN {
                *plan = std::hint::black_box(setup(args.workload, args.seed));
                n += 1;
            }
            setups.push(t.elapsed().as_secs_f64() / f64::from(n));
        }
        let pass = run_pass(plan, false);
        ledger.judge(&pass);
        walls.push(pass.wall_s);
        if start.elapsed() >= deadline {
            break;
        }
    }
    let rss = host::peak_rss_mb().unwrap_or_else(|| {
        eprintln!("perfbench: VmHWM unavailable; peak_rss_mb reads 0");
        0.0
    });
    summary("wall_s", &walls, "s");
    summary("setup_s", &setups, "s");
    let wall = median(&walls);
    #[allow(clippy::cast_precision_loss)] // counts stay far below 2^53
    let (steps, msgs) = (
        counted.tally.supersteps as f64,
        counted.tally.records as f64,
    );
    vec![
        ("wall_s", wall),
        ("sim_steps_per_s", ratio(steps, wall)),
        ("sim_msgs_per_s", ratio(msgs, wall)),
        ("peak_rss_mb", rss),
        ("setup_s", median(&setups)),
    ]
}

/// A bare warm-up pass, then alternating bare and probed passes until
/// `deadline`. Returns whether every probed pass reconciled, and the
/// per-layer metrics (medians over the probed passes).
fn traced_run(
    plan: &Plan,
    w: &Workload,
    deadline: Duration,
    ledger: &mut Ledger,
) -> (bool, Vec<(&'static str, f64)>) {
    // Reproduce units run on the main thread; audit units fan out.
    let lanes = match w.kind {
        Kind::Reproduce { .. } => 1,
        Kind::Audit => rayon::current_num_threads(),
    };
    ledger.judge(&run_pass(plan, false));
    let start = Instant::now();
    let (mut bare, mut probed) = (Vec::new(), Vec::new());
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut gate = true;
    let mut worst_err = 0.0f64;
    loop {
        let b = run_pass(plan, false);
        ledger.judge(&b);
        bare.push(b.wall_s);
        let t = run_pass(plan, true);
        ledger.judge(&t);
        probed.push(t.wall_s);
        let (values, split) = layers(&t, lanes);
        worst_err = worst_err.max(split.reconcile_err());
        if !split.reconciles() {
            gate = false;
            eprintln!(
                "perfbench: layers do not reconcile: {:.6} s attributed of {:.6} s",
                split.attributed_s, split.capacity_s
            );
        }
        samples.push(values);
        if start.elapsed() >= deadline {
            break;
        }
    }
    summary("wall_s (bare)", &bare, "s");
    summary("wall_s (traced)", &probed, "s");
    let mut out: Vec<(&'static str, f64)> = samples[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let xs: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
            (name, median(&xs))
        })
        .collect();
    out.push((
        "trace.overhead",
        ratio(median(&probed), median(&bare)) - 1.0,
    ));
    out.push(("trace.reconcile_err", worst_err));
    for (name, v) in &out {
        println!("{name}: {v}");
    }
    (gate, out)
}

/// The per-layer values of one probed pass and its reconciliation.
fn layers(pass: &Pass, lanes: usize) -> (Vec<(&'static str, f64)>, Breakdown) {
    #[allow(clippy::cast_precision_loss)] // nanosecond sums and counts stay far below 2^53
    let f = |v: u64| v as f64;
    let s = |ns: u64| f(ns) / 1e9;
    let t = &pass.tally;
    let ph = &t.phases;
    let pool = pass.pool.unwrap_or_default();
    let split = Breakdown {
        attributed_s: s(ph.total() + pass.render_ns + pass.extract_ns + pass.check_ns),
        capacity_s: pass.wall_s * f(lanes as u64),
    };
    let values = vec![
        ("algos.compute_s", s(ph.compute)),
        ("sim.scatter_s", s(ph.scatter)),
        ("sim.gather_s", s(ph.gather)),
        ("sim.recycle_s", s(ph.recycle)),
        ("sim.sharded_frac", ratio(f(t.sharded), f(t.supersteps))),
        ("sim.supersteps", f(t.supersteps)),
        ("sim.records", f(t.records)),
        ("sim.machines", f(t.machines)),
        ("machines.price_s", s(ph.price)),
        (
            "machines.memo_hit_rate",
            ratio(f(t.memo_hits), f(t.memo_lookups)),
        ),
        ("machines.router_rounds", f(t.router_rounds)),
        ("experiments.outside_s", split.outside_s()),
        ("core.render_s", s(pass.render_ns)),
        ("audit.extract_s", s(pass.extract_ns)),
        ("audit.check_s", s(pass.check_ns)),
        ("audit.plans", f(pass.plans)),
        ("rayon.fan_outs", f(pool.fan_outs)),
        ("rayon.parks", f(pool.parks)),
        (
            "rayon.busy_frac",
            ratio(
                s(pool.busy_ns),
                pass.wall_s * f(rayon::current_num_threads() as u64),
            ),
        ),
    ];
    (values, split)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, CliError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_command_line_parses() {
        let a = parse(&[
            "--workload",
            "apsp",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workload.name, "apsp");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let d = parse(&["--workload", "calib"]).expect("defaults apply");
        assert_eq!((d.seed, d.trace), (PINNED_SEED, false));
    }

    #[test]
    fn bad_arguments_are_typed_errors() {
        let err = |a: &[&str]| parse(a).err().expect("rejected");
        assert_eq!(
            err(&["--workload", "nope"]),
            CliError::UnknownWorkload("nope".into())
        );
        assert_eq!(
            err(&["--workload", "calib", "--seed", "-1"]),
            CliError::BadSeed("-1".into())
        );
        assert_eq!(
            err(&["--workload", "calib", "--seconds", "0"]),
            CliError::BadSeconds("0".into())
        );
        assert_eq!(
            err(&["--workload", "calib", "--trace", "2"]),
            CliError::BadTrace("2".into())
        );
        assert_eq!(
            err(&["--frobnicate"]),
            CliError::UnknownFlag("--frobnicate".into())
        );
        assert_eq!(err(&["--workload"]), CliError::MissingValue("--workload"));
        assert_eq!(err(&[]), CliError::MissingWorkload);
    }
}
