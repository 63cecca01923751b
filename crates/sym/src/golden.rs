//! The golden table rule S04 checks the closed forms against:
//! `golden/closed_forms.txt`, values frozen from the hand-coded arithmetic
//! the symbolic `Expr` builders replaced. Each row is self-contained — the
//! closed form, the machine, `n`, every µs-valued parameter and the value
//! as exact `f64` bits; the file header documents the columns.

use pcm_models::{EbspParams, MachineParams};

use crate::checker::machine_by_name;

const TABLE: &str = include_str!("../golden/closed_forms.txt");

/// One frozen evaluation of one closed form.
#[derive(Clone, Debug)]
pub struct GoldenRow {
    /// `true` for the 384 S04 sweep points (Table 1 parameters, each
    /// scaled by a random factor in `[0.5, 2)`; 8 per machine × closed
    /// form), `false` for the unperturbed Table 1 parameters at every
    /// experiment grid point and every S03 spot-check and S06 side point.
    pub perturbed: bool,
    /// Algorithm family of the closed form.
    pub family: &'static str,
    /// Model of the closed form.
    pub model: &'static str,
    /// Problem size.
    pub n: usize,
    /// The machine parameters the value was computed under; the machine
    /// name fixes `p`, `w`, memory pipelining and the E-BSP variant.
    pub params: MachineParams,
    /// The frozen prediction in µs.
    pub expected_us: f64,
}

/// Every row of the committed table, in file order.
///
/// # Panics
/// If the committed table is malformed; a unit test parses it.
pub fn rows() -> Vec<GoldenRow> {
    TABLE
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(i, line)| {
            parse_row(line).unwrap_or_else(|e| panic!("golden table line {}: {e}", i + 1))
        })
        .collect()
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("'{s}': {e}"))
}

fn parse_row(line: &'static str) -> Result<GoldenRow, String> {
    let cols: Vec<&'static str> = line.split_whitespace().collect();
    let [set, family, model, machine, n, g, l, sigma, ell, alpha, alpha_mm, copy, radix_beta, radix_gamma, ebsp, us] =
        cols[..]
    else {
        return Err(format!("expected 16 columns, found {}", cols.len()));
    };
    let perturbed = match set {
        "s04" => true,
        "table1" => false,
        other => return Err(format!("unknown row set '{other}'")),
    };
    let mut params = machine_by_name(machine).ok_or(format!("unknown machine '{machine}'"))?;
    params.g = parse_f64(g)?;
    params.l = parse_f64(l)?;
    params.sigma = parse_f64(sigma)?;
    params.ell = parse_f64(ell)?;
    params.alpha = parse_f64(alpha)?;
    params.alpha_mm = parse_f64(alpha_mm)?;
    params.copy = parse_f64(copy)?;
    params.radix_beta = parse_f64(radix_beta)?;
    params.radix_gamma = parse_f64(radix_gamma)?;
    let refinement = match ebsp {
        "-" => Vec::new(),
        values => values.split(',').map(parse_f64).collect::<Result<_, _>>()?,
    };
    params.ebsp = match (params.ebsp, &refinement[..]) {
        (EbspParams::PartialPermutation { .. }, &[a, b, c]) => {
            EbspParams::PartialPermutation { a, b, c }
        }
        (EbspParams::MultinodeScatter { .. }, &[g_mscat]) => {
            EbspParams::MultinodeScatter { g_mscat }
        }
        (EbspParams::Uniform, []) => EbspParams::Uniform,
        _ => return Err(format!("E-BSP column '{ebsp}' does not fit {machine}")),
    };
    let bits = us
        .strip_prefix("0x")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or(format!("'{us}' is not hex f64 bits"))?;
    Ok(GoldenRow {
        perturbed,
        family,
        model,
        n: n.parse().map_err(|e| format!("n '{n}': {e}"))?,
        params,
        expected_us: f64::from_bits(bits),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::ulp_diff;
    use pcm_models::predict::apsp;
    use pcm_models::ClosedForm;

    fn form_of(row: &GoldenRow) -> ClosedForm {
        pcm_models::symbolic::all()
            .into_iter()
            .find(|c| c.family() == row.family && c.model() == row.model)
            .unwrap_or_else(|| panic!("{}/{} is not registered", row.family, row.model))
    }

    #[test]
    fn table_has_eight_perturbed_rows_per_machine_and_form() {
        let rows = rows();
        let perturbed: Vec<&GoldenRow> = rows.iter().filter(|r| r.perturbed).collect();
        assert_eq!(perturbed.len(), 384);
        for pred in pcm_models::symbolic::all() {
            for machine in ["MasPar", "GCel", "CM-5"] {
                let count = perturbed
                    .iter()
                    .filter(|r| {
                        r.family == pred.family()
                            && r.model == pred.model()
                            && r.params.name == machine
                    })
                    .count();
                assert_eq!(count, 8, "{}/{} on {machine}", pred.family(), pred.model());
            }
        }
        assert!(rows.iter().filter(|r| !r.perturbed).count() > 150);
    }

    /// The unperturbed rows carry today's Table 1 parameters, and every
    /// closed form reproduces them within the S04 bound.
    #[test]
    fn table1_rows_agree_within_one_ulp() {
        for row in rows().iter().filter(|r| !r.perturbed) {
            let m = machine_by_name(row.params.name).expect("row machine is known");
            assert_eq!(row.params, m, "Table 1 parameters drifted");
            let got = form_of(row).eval(&m, row.n).as_micros();
            let ulp = ulp_diff(got, row.expected_us);
            assert!(
                ulp <= 1,
                "{}/{} on {} at n = {}: {got:e} vs golden {:e} ({ulp} ulp)",
                row.family,
                row.model,
                m.name,
                row.n,
                row.expected_us
            );
        }
    }

    /// Stricter than S04: today every builder reproduces the frozen
    /// hand-coded value bit for bit, at every row.
    #[test]
    fn symbolic_eval_is_bit_identical_to_the_golden_table() {
        for row in rows() {
            let got = form_of(&row).eval(&row.params, row.n).as_micros();
            assert_eq!(
                got.to_bits(),
                row.expected_us.to_bits(),
                "{}/{} on {} at n = {}",
                row.family,
                row.model,
                row.params.name,
                row.n
            );
        }
    }

    #[test]
    fn apsp_hint_freezes_the_doubling_phase() {
        // MasPar, sqrt(P) = 32: n = 512 has one doubling step, n = 1024
        // has none — the two hints must build different expressions.
        let m = pcm_models::maspar();
        let with = apsp::EBSP.symbolic(&m, 512);
        let without = apsp::EBSP.symbolic(&m, 1024);
        assert_ne!(with, without);
        // And each matches the golden value at its own hint.
        let golden = |n: usize| {
            rows()
                .into_iter()
                .find(|r| {
                    !r.perturbed
                        && r.family == "apsp"
                        && r.model == "ebsp"
                        && r.params.name == "MasPar"
                        && r.n == n
                })
                .unwrap_or_else(|| panic!("no golden apsp/ebsp MasPar row at n = {n}"))
                .expected_us
        };
        for (expr, n) in [(with, 512), (without, 1024)] {
            let got = expr.eval(&pcm_models::bindings(&m, n)).expect("eval");
            assert_eq!(got.to_bits(), golden(n).to_bits(), "n = {n}");
        }
    }

    #[test]
    fn rows_parse_and_malformed_rows_are_typed_errors() {
        let row = parse_row("table1 lu bsp CM-5 8 1 2 3 4 5 6 7 8 9 - 0x3ff0000000000000")
            .expect("well-formed row");
        assert_eq!(
            (row.perturbed, row.family, row.model, row.n),
            (false, "lu", "bsp", 8)
        );
        let bits = [row.params.g, row.params.radix_gamma, row.expected_us].map(f64::to_bits);
        assert_eq!(bits, [1.0, 9.0, 1.0].map(f64::to_bits));
        assert!(parse_row("s04 matmul bsp").is_err());
        assert!(parse_row("s04 lu bsp Cray 8 1 2 3 4 5 6 7 8 9 - 0x3ff0000000000000").is_err());
        assert!(parse_row("s04 lu bsp CM-5 8 1 2 3 4 5 6 7 8 9 1,2,3 0x3ff0000000000000").is_err());
        assert!(parse_row("s04 lu bsp CM-5 8 1 2 3 4 5 6 7 8 9 - 1.0").is_err());
    }
}
