//! The six S-rule checkers.
//!
//! Each checker takes the artifacts it judges as arguments (predictor
//! slices, grids, lemmas) rather than reaching for the production
//! registries, so the broken-fixture tests can feed deliberately wrong
//! inputs through exactly one rule and watch it fire.

use pcm_core::dim::Dim;
use pcm_core::symexpr::Poly;
use pcm_core::units::exact_f64;
use pcm_experiments::domains::GridSpec;
use pcm_models::params::{cm5, gcel, maspar, unit_env};
use pcm_models::{contract, ClosedForm, MachineParams};

use crate::golden::GoldenRow;
use crate::lemmas::{Crossover, Lemma};
use crate::rules::{Finding, SymRule};

/// Table 1 machine parameters by name.
pub fn machine_by_name(name: &str) -> Option<MachineParams> {
    match name {
        "MasPar" => Some(maspar()),
        "GCel" => Some(gcel()),
        "CM-5" => Some(cm5()),
        _ => None,
    }
}

/// The smallest `n` satisfying a predictor's domain at processor count `p`.
pub fn first_in_domain_n(pred: &ClosedForm, p: usize) -> usize {
    let d = (pred.domain().n_divisor)(p).max(1);
    pred.domain().min_n.next_multiple_of(d).max(d)
}

fn finding(
    rule: SymRule,
    pred: &ClosedForm,
    machine: &str,
    n: usize,
    p: usize,
    detail: String,
) -> Finding {
    Finding {
        rule,
        family: pred.family().to_string(),
        model: pred.model().to_string(),
        machine: machine.to_string(),
        n,
        p,
        detail,
    }
}

// ---- S01: dimensional soundness -------------------------------------------

/// Every closed form must reduce to µs under the declared units.
pub fn check_units(preds: &[ClosedForm], machines: &[MachineParams]) -> Vec<Finding> {
    let env = unit_env();
    let mut findings = Vec::new();
    for m in machines {
        for pred in preds {
            let n = first_in_domain_n(pred, m.p);
            match pred.symbolic(m, n).dim(&env) {
                Ok(dim) if dim == Dim::US => {}
                Ok(dim) => findings.push(finding(
                    SymRule::Units,
                    pred,
                    m.name,
                    n,
                    m.p,
                    format!("closed form has dimension {dim}, expected µs"),
                )),
                Err(e) => findings.push(finding(
                    SymRule::Units,
                    pred,
                    m.name,
                    n,
                    m.p,
                    format!("dimension inference failed: {e}"),
                )),
            }
        }
    }
    findings
}

// ---- S02: domain preconditions --------------------------------------------

/// Every grid point an experiment sweeps must satisfy the domain the
/// family's predictors declare.
pub fn check_domains(preds: &[ClosedForm], grids: &[GridSpec]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for grid in grids {
        let family: Vec<&ClosedForm> = preds.iter().filter(|c| c.family() == grid.family).collect();
        if family.is_empty() {
            findings.push(Finding {
                rule: SymRule::Domain,
                family: grid.family.to_string(),
                model: String::new(),
                machine: grid.machine.to_string(),
                n: 0,
                p: grid.p,
                detail: format!("{}: no predictor registered for this family", grid.figure),
            });
            continue;
        }
        for pred in family {
            for &n in &grid.ns {
                if let Err(v) = pred.domain().check(n, grid.p) {
                    findings.push(finding(
                        SymRule::Domain,
                        pred,
                        grid.machine,
                        n,
                        grid.p,
                        format!("{}: grid point rejected: {v}", grid.figure),
                    ));
                }
            }
        }
    }
    findings
}

// ---- S03: dominance lemmas ------------------------------------------------

fn lemma_finding(lemma: &Lemma, n: usize, p: usize, detail: String) -> Finding {
    Finding {
        rule: SymRule::Dominance,
        family: lemma.family.to_string(),
        model: format!("{}≤{}", lemma.lesser, lemma.greater),
        machine: lemma.machine.to_string(),
        n,
        p,
        detail,
    }
}

fn find_pred<'a>(preds: &'a [ClosedForm], family: &str, model: &str) -> Option<&'a ClosedForm> {
    preds
        .iter()
        .find(|c| c.family() == family && c.model() == model)
}

/// Certifies one dominance lemma symbolically, then spot-checks it
/// numerically at a geometric ladder of in-domain sizes.
pub fn check_lemma(lemma: &Lemma, preds: &[ClosedForm]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(m) = machine_by_name(lemma.machine) else {
        findings.push(lemma_finding(
            lemma,
            lemma.from_n,
            0,
            format!("unknown machine '{}'", lemma.machine),
        ));
        return findings;
    };
    let (Some(lesser), Some(greater)) = (
        find_pred(preds, lemma.family, lemma.lesser),
        find_pred(preds, lemma.family, lemma.greater),
    ) else {
        findings.push(lemma_finding(
            lemma,
            lemma.from_n,
            m.p,
            "lemma references an unregistered predictor".to_string(),
        ));
        return findings;
    };

    // Symbolic certificate: (greater − lesser) as a polynomial in n, with
    // both formulas frozen at the lemma's lower bound (for the one
    // piecewise family, APSP, the frozen branch is the branch that holds
    // on the whole certified range).
    let binds = pcm_models::bindings(&m, lemma.from_n);
    let x0 = exact_f64(lemma.from_n);
    let polys = (
        lesser.symbolic(&m, lemma.from_n).poly_in("n", &binds),
        greater.symbolic(&m, lemma.from_n).poly_in("n", &binds),
    );
    match polys {
        (Ok(pl), Ok(pg)) => {
            let diff = pg.sub(&pl);
            if !diff.certify_nonneg_for(x0) {
                findings.push(lemma_finding(
                    lemma,
                    lemma.from_n,
                    m.p,
                    format!(
                        "no symbolic certificate that {} dominates {} for n ≥ {} \
                         (difference {:?} not provably non-negative)",
                        lemma.greater,
                        lemma.lesser,
                        lemma.from_n,
                        diff.leading()
                    ),
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            findings.push(lemma_finding(
                lemma,
                lemma.from_n,
                m.p,
                format!("polynomial extraction failed: {e}"),
            ));
        }
    }

    // Numeric spot checks on the evaluated closed forms (which re-derive
    // any piecewise branch per point, so they also guard the frozen branch).
    for k in [1usize, 2, 4, 8] {
        let n = lemma.from_n * k;
        if lesser.domain().check(n, m.p).is_err() || greater.domain().check(n, m.p).is_err() {
            continue;
        }
        let t_lesser = lesser.eval(&m, n).as_micros();
        let t_greater = greater.eval(&m, n).as_micros();
        if t_greater < t_lesser * (1.0 - 1e-12) {
            findings.push(lemma_finding(
                lemma,
                n,
                m.p,
                format!(
                    "numeric spot check inverted: {} = {t_lesser:.3} µs > {} = {t_greater:.3} µs",
                    lemma.lesser, lemma.greater
                ),
            ));
        }
    }
    findings
}

// ---- S04: closed forms vs the golden table --------------------------------

/// Distance in representable doubles between two same-sign finite values.
#[allow(clippy::float_cmp)] // exact equality is the 0-ulp fast path
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a == b {
        0
    } else if !a.is_finite() || !b.is_finite() || a.is_sign_positive() != b.is_sign_positive() {
        u64::MAX
    } else {
        a.to_bits().abs_diff(b.to_bits())
    }
}

fn golden_finding(row: &GoldenRow, detail: String) -> Finding {
    Finding {
        rule: SymRule::Differential,
        family: row.family.to_string(),
        model: row.model.to_string(),
        machine: row.params.name.to_string(),
        n: row.n,
        p: row.params.p,
        detail,
    }
}

/// Differentially tests every closed form against golden-table rows: the
/// symbolic expression, built at each row's `n` and evaluated under the
/// row's parameters, must agree with the frozen value to ≤ 1 ulp. A closed
/// form no row checks, or a row naming no registered closed form, is a
/// finding too. Returns the findings and the largest ulp distance seen.
pub fn check_differential(preds: &[ClosedForm], rows: &[GoldenRow]) -> (Vec<Finding>, u64) {
    let mut findings = Vec::new();
    let mut max_ulp = 0u64;
    for row in rows {
        let Some(pred) = find_pred(preds, row.family, row.model) else {
            findings.push(golden_finding(
                row,
                "golden row names no registered closed form".to_string(),
            ));
            continue;
        };
        let binds = pcm_models::bindings(&row.params, row.n);
        match pred.symbolic(&row.params, row.n).eval(&binds) {
            Err(e) => findings.push(golden_finding(
                row,
                format!("symbolic evaluation failed: {e}"),
            )),
            Ok(sym) => {
                let golden = row.expected_us;
                let ulp = ulp_diff(sym, golden);
                max_ulp = max_ulp.max(ulp);
                if ulp > 1 {
                    findings.push(golden_finding(
                        row,
                        format!(
                            "symbolic {sym:e} vs golden {golden:e}: {ulp} ulp apart \
                             (the formula drifted from its frozen value)"
                        ),
                    ));
                }
            }
        }
    }
    let unchecked = preds.iter().filter(|pred| {
        !rows
            .iter()
            .any(|r| r.family == pred.family() && r.model == pred.model())
    });
    findings.extend(unchecked.map(|pred| {
        let detail = "no golden row checks this closed form".to_string();
        finding(SymRule::Differential, pred, "", 0, 0, detail)
    }));
    (findings, max_ulp)
}

// ---- S05: leading terms vs cost contracts ---------------------------------

/// The communication part of a predictor's formula as a polynomial in `n`:
/// the full expression with every local-computation coefficient bound to
/// zero.
fn comm_poly(pred: &ClosedForm, m: &MachineParams, n_hint: usize) -> Result<Poly, String> {
    let mut binds = pcm_models::bindings(m, n_hint);
    for sym in ["alpha", "alpha_mm", "copy", "radix_beta", "radix_gamma"] {
        binds.bind(sym, 0.0);
    }
    pred.symbolic(m, n_hint)
        .poly_in("n", &binds)
        .map_err(|e| e.to_string())
}

/// Certifies that each formula's communication leading term grows with
/// the same power of `n` as the family `CostContract`'s admitted
/// communication volume (`min supersteps × h bound`).
pub fn check_leading(preds: &[ClosedForm], machines: &[MachineParams]) -> Vec<Finding> {
    let contracts = contract::all();
    let mut findings = Vec::new();
    for m in machines {
        for pred in preds {
            let Some(c) = contracts.iter().find(|c| c.algorithm == pred.family()) else {
                findings.push(finding(
                    SymRule::LeadingTerm,
                    pred,
                    m.name,
                    0,
                    m.p,
                    "family has no cost contract to certify against".to_string(),
                ));
                continue;
            };
            let n_hint = first_in_domain_n(pred, m.p);
            let poly = match comm_poly(pred, m, n_hint) {
                Ok(p) => p,
                Err(e) => {
                    findings.push(finding(
                        SymRule::LeadingTerm,
                        pred,
                        m.name,
                        n_hint,
                        m.p,
                        format!("communication part is not polynomial in n: {e}"),
                    ));
                    continue;
                }
            };
            let Some((half, coeff)) = poly.leading() else {
                findings.push(finding(
                    SymRule::LeadingTerm,
                    pred,
                    m.name,
                    n_hint,
                    m.p,
                    "communication part vanished".to_string(),
                ));
                continue;
            };
            if coeff <= 0.0 {
                findings.push(finding(
                    SymRule::LeadingTerm,
                    pred,
                    m.name,
                    n_hint,
                    m.p,
                    format!("non-positive leading coefficient {coeff:e}"),
                ));
            }
            // Contract-side growth exponent, measured at a size large
            // enough that constant terms are negligible.
            let d = (pred.domain().n_divisor)(m.p).max(1);
            let n0 = (1usize << 15).next_multiple_of(d);
            let volume = |n: usize| {
                let (min_steps, _) = c.superstep_range(n, m.p);
                exact_f64(min_steps) * exact_f64(c.h_bound(n, m.p))
            };
            let growth = (volume(2 * n0) / volume(n0)).log2();
            if (f64::from(half) - 2.0 * growth).abs() > 0.2 {
                findings.push(finding(
                    SymRule::LeadingTerm,
                    pred,
                    m.name,
                    n_hint,
                    m.p,
                    format!(
                        "leading term grows like n^{}, contract volume grows like n^{growth:.3}",
                        f64::from(half) / 2.0
                    ),
                ));
            }
        }
    }
    findings
}

/// Certifies each family contract's bound *shape* (monotone `h` in `n`,
/// non-shrinking volume in `p`, non-empty step ranges) over a grid of
/// in-domain points — the `pcm-audit` A06 certificate, re-run here over
/// the predictor-declared domains.
pub fn check_contract_shape(preds: &[ClosedForm]) -> Vec<Finding> {
    const PS: [usize; 4] = [16, 64, 256, 1024];
    let contracts = contract::all();
    let mut findings = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for pred in preds {
        if seen.contains(&pred.family()) {
            continue;
        }
        seen.push(pred.family());
        let Some(c) = contracts.iter().find(|c| c.algorithm == pred.family()) else {
            continue; // already reported by check_leading
        };
        let domain = pred.domain();
        // Grid sizes that hit in-domain points at every p: each p's
        // divisor times a small geometric ladder.
        let mut ns: Vec<usize> = PS
            .iter()
            .flat_map(|&p| {
                let d = (domain.n_divisor)(p).max(1);
                [1usize, 2, 4, 8].map(|k| (k * d).max(domain.min_n.next_multiple_of(d)))
            })
            .collect();
        ns.sort_unstable();
        ns.dedup();
        for anomaly in c.certify_shape(&ns, &PS, |n, p| domain.check(n, p).is_ok()) {
            findings.push(Finding {
                rule: SymRule::LeadingTerm,
                family: pred.family().to_string(),
                model: String::new(),
                machine: String::new(),
                n: 0,
                p: 0,
                detail: format!("contract shape anomaly: {anomaly}"),
            });
        }
    }
    findings
}

// ---- S06: crossover certification -----------------------------------------

fn crossover_finding(x: &Crossover, p: usize, n: usize, detail: String) -> Finding {
    Finding {
        rule: SymRule::Crossover,
        family: x.family.to_string(),
        model: format!("{}↔{}", x.word_model, x.block_model),
        machine: x.machine.to_string(),
        n,
        p,
        detail,
    }
}

/// Certifies one word/block crossover: solves for the crossing of the
/// symbolic difference, checks it lies between the two declared sizes,
/// confirms the closed-form winner on each side, and (optionally) replays
/// both sides through the priced simulator to confirm the measured winner
/// flips too.
pub fn check_crossover(
    x: &Crossover,
    preds: &[ClosedForm],
    replay: bool,
    seed: u64,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(m) = machine_by_name(x.machine) else {
        findings.push(crossover_finding(
            x,
            0,
            x.word_n,
            format!("unknown machine '{}'", x.machine),
        ));
        return findings;
    };
    let (Some(word), Some(block)) = (
        find_pred(preds, x.family, x.word_model),
        find_pred(preds, x.family, x.block_model),
    ) else {
        findings.push(crossover_finding(
            x,
            m.p,
            x.word_n,
            "crossover references an unregistered predictor".to_string(),
        ));
        return findings;
    };
    for &n in &[x.word_n, x.block_n] {
        if let Err(v) = word.domain().check(n, m.p) {
            findings.push(crossover_finding(
                x,
                m.p,
                n,
                format!("side point rejected: {v}"),
            ));
            return findings;
        }
    }

    // Solve word − block = 0 in the bracket.
    let binds = pcm_models::bindings(&m, x.word_n);
    let polys = (
        word.symbolic(&m, x.word_n).poly_in("n", &binds),
        block.symbolic(&m, x.word_n).poly_in("n", &binds),
    );
    match polys {
        (Ok(pw), Ok(pb)) => {
            let diff = pw.sub(&pb);
            match diff.first_crossing(x.bracket.0, x.bracket.1) {
                None => findings.push(crossover_finding(
                    x,
                    m.p,
                    x.word_n,
                    format!(
                        "no crossing of {} and {} in [{}, {}]",
                        x.word_model, x.block_model, x.bracket.0, x.bracket.1
                    ),
                )),
                Some(n_star) => {
                    if !(exact_f64(x.word_n) < n_star && n_star < exact_f64(x.block_n)) {
                        findings.push(crossover_finding(
                            x,
                            m.p,
                            x.word_n,
                            format!(
                                "crossing n* = {n_star:.2} does not lie between \
                                 {} and {}",
                                x.word_n, x.block_n
                            ),
                        ));
                    }
                }
            }
        }
        (Err(e), _) | (_, Err(e)) => findings.push(crossover_finding(
            x,
            m.p,
            x.word_n,
            format!("polynomial extraction failed: {e}"),
        )),
    }

    // Closed-form winners on each side.
    for (n, cheap, cheap_name, dear, dear_name) in [
        (x.word_n, word, x.word_model, block, x.block_model),
        (x.block_n, block, x.block_model, word, x.word_model),
    ] {
        let t_cheap = cheap.eval(&m, n).as_micros();
        let t_dear = dear.eval(&m, n).as_micros();
        if t_cheap >= t_dear {
            findings.push(crossover_finding(
                x,
                m.p,
                n,
                format!(
                    "closed forms do not flip: {cheap_name} = {t_cheap:.3} µs should beat \
                     {dear_name} = {t_dear:.3} µs"
                ),
            ));
        }
    }

    // Priced-simulator replay of both sides.
    if replay {
        if let Some(run) = x.replay {
            for (n, word_wins) in [(x.word_n, true), (x.block_n, false)] {
                match run(n, seed) {
                    None => findings.push(crossover_finding(
                        x,
                        m.p,
                        n,
                        "replay run failed result verification".to_string(),
                    )),
                    Some((t_word, t_block)) => {
                        let flipped = if word_wins {
                            t_word < t_block
                        } else {
                            t_block < t_word
                        };
                        if !flipped {
                            findings.push(crossover_finding(
                                x,
                                m.p,
                                n,
                                format!(
                                    "simulated winner does not match the certificate: \
                                     word {:.3} µs vs block {:.3} µs",
                                    t_word.as_micros(),
                                    t_block.as_micros()
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Vec<ClosedForm> {
        pcm_models::symbolic::all()
    }

    fn table1() -> Vec<MachineParams> {
        vec![maspar(), gcel(), cm5()]
    }

    #[test]
    fn production_formulas_are_dimensionally_sound() {
        assert_eq!(check_units(&registry(), &table1()), vec![]);
    }

    #[test]
    fn experiment_grids_are_in_domain() {
        let grids = pcm_experiments::domains::grids();
        assert_eq!(check_domains(&registry(), &grids), vec![]);
    }

    #[test]
    fn all_lemmas_certify() {
        let preds = registry();
        for lemma in crate::lemmas::lemmas() {
            let f = check_lemma(&lemma, &preds);
            assert!(f.is_empty(), "{}: {}", lemma.name, crate::rules::render(&f));
        }
    }

    #[test]
    fn differential_agrees_to_one_ulp() {
        let (f, max_ulp) = check_differential(&registry(), &crate::golden::rows());
        assert!(f.is_empty(), "{}", crate::rules::render(&f));
        assert!(max_ulp <= 1, "max ulp distance {max_ulp}");
    }

    #[test]
    fn leading_terms_match_the_contracts() {
        let preds = registry();
        let f = check_leading(&preds, &table1());
        assert!(f.is_empty(), "{}", crate::rules::render(&f));
        assert_eq!(check_contract_shape(&preds), vec![]);
    }

    #[test]
    fn crossovers_certify_without_replay() {
        let preds = registry();
        for x in crate::lemmas::crossovers() {
            let f = check_crossover(&x, &preds, false, 7);
            assert!(f.is_empty(), "{}: {}", x.name, crate::rules::render(&f));
        }
    }

    #[test]
    fn ulp_distance_is_zero_on_equal_and_huge_on_sign_flip() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_diff(-1.0, 1.0), u64::MAX);
    }
}
