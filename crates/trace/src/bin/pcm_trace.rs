//! `pcm-trace`: replays pinned algorithm×machine×(n,p) points with
//! tracing on, proves the per-superstep cost attribution reproduces each
//! run's total priced cost bit-identically, and exports the results.
//!
//! Outputs:
//! * `TRACE_report.json` (default `--out`) — deterministic attribution
//!   report, committed and drift-gated in CI (`git diff --exit-code`).
//!   Replays pin one exchange shard and a fixed seed, and the report
//!   carries only simulated quantities, so regeneration is byte-stable.
//! * `--export chrome` — Chrome trace-event JSON (`--trace-out`, default
//!   `TRACE_chrome.json`) viewable in `chrome://tracing` / Perfetto. The
//!   timeline is simulated µs; wall-clock phase ns ride in `args`. Not
//!   committed (wall time is not deterministic).
//!
//! Flags: `--fast` replays a two-family subset (the CI smoke sweep),
//! `--wall` adds wall-phase totals to the report (diagnostics only — do
//! not commit such a report).
//!
//! Exit status is non-zero if any replay fails verification or exact
//! attribution: the binary is itself the strongest runtime gate on the
//! tracing layer.

use pcm_algos::apsp::{self, ApspVariant};
use pcm_algos::lu::{self, LuVariant};
use pcm_algos::matmul::{self, MatmulVariant};
use pcm_algos::primitives::collectives;
use pcm_algos::sort::bitonic::{self, ExchangeMode};
use pcm_algos::sort::parallel_radix::{self, RadixVariant};
use pcm_algos::sort::sample::{self, SampleVariant};
use pcm_algos::vendor;
use pcm_core::fsio::write_atomic;
use pcm_core::SimTime;
use pcm_machines::Platform;
use pcm_sim::with_exchange_shards;
use pcm_trace::{capture, chrome, ChromeRun, MachineRun, RunRecord, TraceReport};

/// Same fixed seed convention as the audit sweep.
const SEED: u64 = 2026;
/// Exchange shards pinned for deterministic delivery order.
const SHARDS: usize = 1;
/// Processor count every replay point uses (valid for all families).
const P: usize = 16;

/// Replay body: runs the algorithm on a platform, returns (clock, verified).
type Replay = Box<dyn Fn(&Platform) -> (SimTime, bool)>;

/// One replayable point: family, variant, size, and the run body.
struct Point {
    family: &'static str,
    variant: &'static str,
    n: usize,
    run: Replay,
}

fn points(fast: bool) -> Vec<Point> {
    let mut pts = vec![
        Point {
            family: "matmul",
            variant: "BspStaggered",
            n: 8,
            run: Box::new(|plat| {
                let r = matmul::run(plat, 8, MatmulVariant::BspStaggered, SEED);
                (r.time, r.verified)
            }),
        },
        Point {
            family: "bitonic",
            variant: "Words",
            n: 16,
            run: Box::new(|plat| {
                let r = bitonic::run(plat, 16, ExchangeMode::Words, SEED);
                (r.time, r.verified)
            }),
        },
    ];
    if fast {
        return pts;
    }
    pts.extend([
        Point {
            family: "samplesort",
            variant: "BspWords",
            n: 16,
            run: Box::new(|plat| {
                let r = sample::run(plat, 16, 2, SampleVariant::BspWords, SEED);
                (r.time, r.verified)
            }),
        },
        Point {
            family: "parallel_radix",
            variant: "Words",
            n: 32,
            run: Box::new(|plat| {
                let r = parallel_radix::run(plat, 32, RadixVariant::Words, SEED);
                (r.time, r.verified)
            }),
        },
        Point {
            family: "apsp",
            variant: "Words",
            n: 8,
            run: Box::new(|plat| {
                let r = apsp::run(plat, 8, ApspVariant::Words, SEED);
                (r.time, r.verified)
            }),
        },
        Point {
            family: "lu",
            variant: "Words",
            n: 8,
            run: Box::new(|plat| {
                let r = lu::run(plat, 8, LuVariant::Words, SEED);
                (r.time, r.verified)
            }),
        },
        Point {
            family: "vendor",
            variant: "maspar_matmul",
            n: 8,
            run: Box::new(|plat| {
                let r = vendor::maspar_matmul(plat, 8, SEED);
                (r.time, r.verified)
            }),
        },
        Point {
            family: "collectives",
            variant: "all_gather",
            n: 16,
            run: Box::new(|plat| {
                let p = plat.p();
                let n = 16usize;
                let data: Vec<Vec<u32>> = (0..p)
                    .map(|i| {
                        let base = u32::try_from(i * n).expect("test sizes fit u32");
                        (base..base + u32::try_from(n).expect("n fits u32")).collect()
                    })
                    .collect();
                let expect: Vec<u32> = (0..u32::try_from(p * n).expect("p*n fits u32")).collect();
                let mut m = collectives::machine_with(plat, data, SEED);
                collectives::all_gather(&mut m);
                let ok = m.states().iter().all(|s| s.out == expect);
                (m.time(), ok)
            }),
        },
    ]);
    pts
}

/// Replays one point on one platform; returns the report record and the
/// attribution rows of the machine that produced the result.
fn replay(point: &Point, plat: &Platform) -> (RunRecord, Option<MachineRun>) {
    let ((time, verified), mut cap) =
        with_exchange_shards(SHARDS, || capture(|| (point.run)(plat)));
    let idx = {
        let bits = time.as_micros().to_bits();
        cap.runs
            .iter()
            .rposition(|r| r.final_clock().as_micros().to_bits() == bits)
    };
    let run = idx.map(|i| cap.runs.swap_remove(i));
    let (exact, compute_us, comm_us, steps, barrier_steps, records, terms, memo, wall) = match &run
    {
        Some(r) => (
            r.attribution_exact(),
            r.compute_us(),
            r.comm_us(),
            r.rows.len() as u64,
            r.rows.iter().filter(|row| row.records == 0).count() as u64,
            r.rows.iter().map(|row| row.records).sum(),
            r.rows.last().and_then(|row| row.terms),
            r.rows.last().and_then(|row| row.memo),
            Some(r.wall_phase_totals()),
        ),
        None => (false, 0.0, 0.0, 0, 0, 0, None, None, None),
    };
    let record = RunRecord {
        family: point.family.to_string(),
        variant: point.variant.to_string(),
        machine: plat.name().to_string(),
        n: point.n,
        p: P,
        verified,
        exact,
        total_us: time.as_micros(),
        compute_us,
        comm_us,
        barrier_us: terms.map_or(0.0, |t| t.barrier_us),
        steps,
        barrier_steps,
        records,
        terms,
        memo,
        wall,
    };
    (record, run)
}

/// Prints a one-line error with the usage and exits with status 2 (bad
/// command line).
fn fail(msg: &str) -> ! {
    eprintln!(
        "pcm-trace: {msg} (usage: pcm-trace [--fast] [--wall] [--out FILE] \
         [--export chrome] [--trace-out FILE])"
    );
    std::process::exit(2);
}

fn main() {
    let mut out_path = String::from("TRACE_report.json");
    let mut trace_out = String::from("TRACE_chrome.json");
    let mut export_chrome = false;
    let mut fast = false;
    let mut wall = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--out" => out_path = value(),
            "--trace-out" => trace_out = value(),
            "--export" => {
                if value() != "chrome" {
                    fail("supported export formats: chrome");
                }
                export_chrome = true;
            }
            "--fast" => fast = true,
            "--wall" => wall = true,
            other => fail(&format!("unknown argument: {other}")),
        }
    }

    rayon::stats::enable(true);
    let platforms = [
        Platform::maspar_with(P),
        Platform::gcel_with(P),
        Platform::cm5_with(P),
    ];
    let mut records = Vec::new();
    let mut kept: Vec<(String, MachineRun)> = Vec::new();
    for point in points(fast) {
        for plat in &platforms {
            let label = format!(
                "{}/{} @ {} (n={}, p={P})",
                point.family,
                point.variant,
                plat.name(),
                point.n
            );
            let (mut rec, run) = replay(&point, plat);
            if !wall {
                rec.wall = None;
            }
            eprintln!(
                "  {label}: total {:.3} µs, {} steps, verified={}, exact={}",
                rec.total_us, rec.steps, rec.verified, rec.exact
            );
            records.push(rec);
            if let Some(r) = run {
                kept.push((label, r));
            }
        }
    }

    let report = TraceReport {
        seed: SEED,
        shards: SHARDS,
        runs: records,
    };
    let ok = report.all_exact();

    println!(
        "{:<44} {:>12} {:>12} {:>12} {:>7}",
        "point", "total µs", "compute µs", "comm µs", "exact"
    );
    for r in &report.runs {
        println!(
            "{:<44} {:>12.3} {:>12.3} {:>12.3} {:>7}",
            format!("{}/{}/{}", r.family, r.variant, r.machine),
            r.total_us,
            r.compute_us,
            r.comm_us,
            r.exact
        );
    }

    write_atomic(&out_path, report.render())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("pcm-trace: wrote {out_path}");

    if export_chrome {
        let runs: Vec<ChromeRun<'_>> = kept
            .iter()
            .map(|(name, run)| ChromeRun {
                name: name.clone(),
                run,
            })
            .collect();
        write_atomic(&trace_out, chrome::render(&runs))
            .unwrap_or_else(|e| panic!("cannot write {trace_out}: {e}"));
        eprintln!("pcm-trace: wrote {trace_out} ({} runs)", runs.len());
    }

    // Wall-clock / pool diagnostics: stderr only, never in the report.
    let pool = rayon::stats::snapshot();
    eprintln!(
        "pool: {} jobs, {} helped, {} parks, {} scoped_joins, {} fan_outs, {:.3} ms busy",
        pool.jobs,
        pool.helped_jobs,
        pool.parks,
        pool.scoped_joins,
        pool.fan_outs,
        pool.busy_ns as f64 / 1e6
    );

    if !ok {
        eprintln!("pcm-trace: FAILED — a replay did not verify or did not attribute exactly");
        std::process::exit(1);
    }
}
