//! Output correctness: every unit's digests against what is expected.
//!
//! At the pinned seed the expected digests are the table in `golden.txt`;
//! at any other seed they are the digests the unit produced the first
//! time it ran in this invocation.

use std::collections::HashMap;

use crate::work::{Digests, UnitRun};

/// The seed `reproduce` defaults to (the paper's year); `golden.txt`
/// holds the digests of every unit at this seed.
pub const PINNED_SEED: u64 = 1996;

const GOLDEN: &str = include_str!("../golden.txt");

#[derive(Clone, Copy, Default)]
struct Want {
    output: Option<u64>,
    stats: Option<u64>,
}

/// Expected digests per unit id.
pub struct Expect {
    /// Pinned: the table is fixed and a missing digest is a failure.
    /// Held out: unknown digests are learned from their first run.
    pinned: bool,
    table: HashMap<String, Want>,
}

impl Expect {
    /// Expectations for `workload` at `seed`.
    pub fn new(workload: &str, seed: u64) -> Result<Self, String> {
        let pinned = seed == PINNED_SEED;
        let table = if pinned {
            parse_golden(GOLDEN, workload)?
        } else {
            HashMap::new()
        };
        Ok(Expect { pinned, table })
    }

    /// Checks one unit's run; `Err` says why it counts as failed.
    pub fn check(&mut self, run: &UnitRun) -> Result<(), String> {
        let got = run
            .result
            .as_ref()
            .map_err(|e| format!("{}: {e}", run.id))?;
        let want = self.table.entry(run.id.clone()).or_default();
        let learn = !self.pinned;
        let ok = same(&mut want.output, Some(got.output), learn)
            && same(&mut want.stats, got.stats, learn);
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: digests {} differ from the expected {}",
                run.id,
                show(got.output, got.stats),
                show(want.output.unwrap_or(0), want.stats),
            ))
        }
    }
}

/// Compares `got` with `want`; a digest the run did not produce passes,
/// and an unknown `want` is learned when `learn` is set.
fn same(want: &mut Option<u64>, got: Option<u64>, learn: bool) -> bool {
    match (*want, got) {
        (_, None) => true,
        (Some(w), Some(g)) => w == g,
        (None, Some(g)) if learn => {
            *want = Some(g);
            true
        }
        (None, Some(_)) => false,
    }
}

fn show(output: u64, stats: Option<u64>) -> String {
    match stats {
        Some(s) => format!("{output:#018x} {s:#018x}"),
        None => format!("{output:#018x} -"),
    }
}

/// A `golden.txt` line for `run`, printed when a pinned digest is missing
/// or differs, so an intended change can be re-pinned by pasting it.
pub fn golden_line(workload: &str, d: &Digests, id: &str) -> String {
    format!("{workload} {id} {}", show(d.output, d.stats))
}

/// Parses the lines of `text` that belong to `workload`:
/// `<workload> <unit> <output digest> <stats digest>`, `#` comments.
fn parse_golden(text: &str, workload: &str) -> Result<HashMap<String, Want>, String> {
    let mut table = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("golden.txt line {}: malformed `{line}`", i + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, id, out, stats] = f[..] else {
            return Err(bad());
        };
        if w != workload {
            continue;
        }
        let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|_| bad());
        let want = Want {
            output: Some(hex(out)?),
            stats: if stats == "-" {
                None
            } else {
                Some(hex(stats)?)
            },
        };
        table.insert(id.to_string(), want);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(id: &str, output: u64, stats: Option<u64>) -> UnitRun {
        UnitRun {
            id: id.into(),
            result: Ok(Digests { output, stats }),
        }
    }

    fn pinned(text: &str) -> Expect {
        Expect {
            pinned: true,
            table: parse_golden(text, "w").expect("well-formed table"),
        }
    }

    #[test]
    fn matching_pinned_digests_pass() {
        let mut e = pinned("w u 0x10 0x20\n");
        assert!(e.check(&run("u", 0x10, Some(0x20))).is_ok());
        assert!(e.check(&run("u", 0x10, None)).is_ok(), "untraced pass");
    }

    #[test]
    fn corrupted_expected_digest_fails_the_unit() {
        let mut e = pinned("w u 0x11 0x20\n");
        assert!(e.check(&run("u", 0x10, Some(0x20))).is_err());
        let mut e = pinned("w u 0x10 0x21\n");
        assert!(e.check(&run("u", 0x10, Some(0x20))).is_err());
    }

    #[test]
    fn unpinned_unit_fails_at_the_pinned_seed() {
        let mut e = pinned("other u 0x10 0x20\n");
        assert!(e.check(&run("u", 0x10, None)).is_err());
    }

    #[test]
    fn held_out_seed_must_repeat_its_first_run() {
        let mut e = Expect::new("w", PINNED_SEED + 1).expect("no table needed");
        assert!(e.check(&run("u", 1, None)).is_ok());
        assert!(e.check(&run("u", 1, Some(5))).is_ok());
        assert!(e.check(&run("u", 1, Some(5))).is_ok());
        assert!(e.check(&run("u", 2, None)).is_err());
        assert!(e.check(&run("u", 1, Some(6))).is_err());
    }

    #[test]
    fn panicked_unit_fails() {
        let mut e = Expect::new("w", 7).expect("no table needed");
        let r = UnitRun {
            id: "u".into(),
            result: Err("panicked: verification".into()),
        };
        assert!(e.check(&r).is_err());
    }

    #[test]
    fn malformed_golden_line_is_an_error() {
        assert!(parse_golden("w u 0x10\n", "w").is_err());
        assert!(parse_golden("w u zz 0x1\n", "w").is_err());
    }

    #[test]
    fn committed_golden_table_parses() {
        for w in crate::work::WORKLOADS {
            let t = parse_golden(GOLDEN, w.name).expect("golden.txt parses");
            assert!(!t.is_empty(), "{} has pinned digests", w.name);
        }
    }
}
