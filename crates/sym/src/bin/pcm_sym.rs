//! `pcm-sym` — certify every analytic closed form symbolically: units,
//! domains, dominance lemmas, differential agreement, leading terms and
//! word/block crossovers.
//!
//! ```text
//! pcm-sym [--fast] [--out PATH]
//! ```
//!
//! `--fast` runs fewer differential rounds and skips the priced-simulator
//! crossover replays (the smoke configuration); `--out` writes the JSON
//! findings report. Exit status is 1 when any finding fired, so CI can
//! gate on it.

use pcm_core::fsio::write_atomic;
use pcm_sym::{render, render_json, sweep, SweepOptions};

fn main() {
    let mut fast = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: pcm-sym [--fast] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let outcome = sweep(SweepOptions { fast });
    let stats = outcome.stats;
    println!(
        "pcm-sym: {} predictor(s): {} unit check(s), {} grid point(s), \
         {} lemma(s), {} differential point(s) (max {} ulp), \
         {} leading term(s), {} crossover(s)",
        stats.predictors,
        stats.unit_checks,
        stats.grid_points,
        stats.lemmas_certified,
        stats.differential_points,
        stats.max_ulp,
        stats.leading_terms,
        stats.crossovers
    );

    if let Some(path) = out {
        let json = render_json(&outcome, fast);
        if let Err(e) = write_atomic(&path, json) {
            eprintln!("pcm-sym: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("pcm-sym: report written to {path}");
    }

    if outcome.findings.is_empty() {
        println!("pcm-sym: clean — every closed form certified");
    } else {
        eprintln!(
            "pcm-sym: {} finding(s):\n{}",
            outcome.findings.len(),
            render(&outcome.findings)
        );
        std::process::exit(1);
    }
}
