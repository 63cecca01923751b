//! CLI that regenerates the paper's tables and figures.
//!
//! Usage:
//!   reproduce list
//!   reproduce all [--quick] [--seed N] [--out DIR]
//!   reproduce fig04 table1 ... [--quick] [--seed N] [--out DIR]

use std::io::Write as _;
use std::time::Instant;

use pcm_experiments::{registry, Output, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return;
    }

    let mut scale = Scale::Full;
    let mut seed = 1996u64;
    let mut out_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    fail("--seed needs an integer");
                };
                seed = n;
            }
            "--out" => out_dir = Some(it.next().unwrap_or_else(|| fail("--out needs a directory"))),
            "list" => {
                for e in registry() {
                    println!("{:8} {}", e.id, e.title);
                }
                return;
            }
            "check" => {
                let (pass, fail) =
                    pcm_experiments::check::run_all(scale, seed, |claim, result| match result {
                        Ok(detail) => {
                            println!("PASS {:6} {} — {}", claim.id, claim.statement, detail)
                        }
                        Err(err) => println!("FAIL {:6} {} — {}", claim.id, claim.statement, err),
                    });
                println!();
                println!("{pass} claims passed, {fail} failed");
                std::process::exit(if fail == 0 { 0 } else { 1 });
            }
            "all" => targets.extend(registry().iter().map(|e| e.id.to_string())),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
        std::process::exit(2);
    }

    // Every id is checked before the first target runs.
    let exps: Vec<_> = targets
        .iter()
        .map(|id| {
            pcm_experiments::find(id).unwrap_or_else(|| {
                fail(&format!("unknown experiment `{id}` — try `reproduce list`"))
            })
        })
        .collect();

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(&format!("cannot create output directory {dir}: {e}"));
        }
    }

    for exp in exps {
        let id = exp.id;
        eprintln!("== {} — {} ==", exp.id, exp.title);
        let start = Instant::now();
        let output: Output = (exp.run)(scale, seed);
        let text = output.render();
        eprintln!("   ({:.1}s wall clock)", start.elapsed().as_secs_f64());
        println!("{text}");
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{id}.txt");
            let mut f = std::fs::File::create(&path).expect("cannot write result file");
            f.write_all(text.as_bytes()).unwrap();
        }
    }
}

/// Prints a one-line error and exits with status 2 (bad command line).
fn fail(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    std::process::exit(2);
}

fn usage() {
    eprintln!(
        "usage: reproduce <list | check | all | id...> [--quick] [--seed N] [--out DIR]\n\
         ids: table1, fig01..fig20, sec8, modelfit"
    );
}
