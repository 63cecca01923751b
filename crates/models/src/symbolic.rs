//! [`ClosedForm`]: one closed-form prediction as a typed symbolic
//! expression over the declared machine-parameter units.
//!
//! Each family module in [`crate::predict`] defines its formulas as `Expr`
//! builders and exports one [`ClosedForm`] constant per model
//! ([`crate::predict::matmul::BSP`], [`crate::predict::apsp::EBSP`], ...).
//! The expression is the only definition of the formula: the figures, the
//! examples and the `pcm-sym` verifier all evaluate it. Each closed form
//! also declares a [`DomainSpec`] — the divisibility and processor-shape
//! preconditions under which it is meaningful (rule S02).
//!
//! `pcm-sym` rule S04 checks every builder against a committed golden
//! table of values frozen from the hand-coded arithmetic the builders
//! replaced, to ≤ 1 ulp. The builders keep that arithmetic's
//! floating-point operation order (sums and products in the same order
//! and grouping, divisions as divisions, integer counts as pre-computed
//! constants) because the table pins today's values.
//!
//! The APSP broadcast adds a `log2(sqrt(P)/M)`-step doubling phase whose
//! step count varies with `n`, so [`ClosedForm::symbolic`] freezes it at an
//! `n_hint`; [`ClosedForm::eval`] builds at the actual `n`.

use crate::params::{EbspParams, MachineParams};
use crate::predict::{apsp, bitonic, lu, matmul, parallel_radix, samplesort};
use pcm_core::symexpr::{Bindings, Expr};
use pcm_core::units::exact_f64;
use pcm_core::SimTime;
use std::fmt;

/// A violated domain precondition (rule S02).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DomainViolation {
    /// `n` is below the declared minimum.
    NTooSmall {
        /// Requested size.
        n: usize,
        /// Declared minimum.
        min: usize,
    },
    /// `n` is not a multiple of the declared divisor for this `p`.
    NotDivisible {
        /// Requested size.
        n: usize,
        /// Required divisor.
        divisor: usize,
    },
    /// `p` is below the declared minimum.
    PTooSmall {
        /// Requested processor count.
        p: usize,
        /// Declared minimum.
        min: usize,
    },
    /// The formula needs a power-of-two processor count.
    PNotPowerOfTwo {
        /// Requested processor count.
        p: usize,
    },
    /// The formula needs a perfect-square processor count.
    PNotPerfectSquare {
        /// Requested processor count.
        p: usize,
    },
}

impl fmt::Display for DomainViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainViolation::NTooSmall { n, min } => write!(f, "n = {n} below minimum {min}"),
            DomainViolation::NotDivisible { n, divisor } => {
                write!(f, "n = {n} is not a multiple of {divisor}")
            }
            DomainViolation::PTooSmall { p, min } => write!(f, "p = {p} below minimum {min}"),
            DomainViolation::PNotPowerOfTwo { p } => write!(f, "p = {p} is not a power of two"),
            DomainViolation::PNotPerfectSquare { p } => {
                write!(f, "p = {p} is not a perfect square")
            }
        }
    }
}

/// Declared domain preconditions of one closed form (rule S02).
#[derive(Clone, Copy, Debug)]
pub struct DomainSpec {
    /// Smallest meaningful problem size.
    pub min_n: usize,
    /// `n` must be a positive multiple of this (as a function of `p`);
    /// e.g. `q²` for the cube-blocked matmul, `sqrt(p)` for APSP/LU.
    pub n_divisor: fn(p: usize) -> usize,
    /// Smallest meaningful processor count.
    pub min_p: usize,
    /// The formula's step structure needs `p` to be a power of two.
    pub power_of_two_p: bool,
    /// The formula's blocking needs `p` to be a perfect square.
    pub perfect_square_p: bool,
}

impl DomainSpec {
    /// Checks a `(n, p)` point against the declared preconditions.
    ///
    /// # Errors
    /// The first violated precondition, in a fixed check order
    /// (`p` shape before `n` divisibility, so messages point at the root
    /// cause when both fail).
    pub fn check(&self, n: usize, p: usize) -> Result<(), DomainViolation> {
        if p < self.min_p {
            return Err(DomainViolation::PTooSmall { p, min: self.min_p });
        }
        if self.power_of_two_p && !p.is_power_of_two() {
            return Err(DomainViolation::PNotPowerOfTwo { p });
        }
        if self.perfect_square_p {
            let s = p.isqrt();
            if s * s != p {
                return Err(DomainViolation::PNotPerfectSquare { p });
            }
        }
        if n < self.min_n {
            return Err(DomainViolation::NTooSmall { n, min: self.min_n });
        }
        let d = (self.n_divisor)(p);
        if d == 0 || n == 0 || !n.is_multiple_of(d) {
            return Err(DomainViolation::NotDivisible { n, divisor: d });
        }
        Ok(())
    }
}

/// One closed form of one family under one model.
pub struct ClosedForm {
    family: &'static str,
    model: &'static str,
    domain: DomainSpec,
    build: fn(&MachineParams, usize) -> Expr,
}

impl ClosedForm {
    /// Builds a closed-form record. The family modules use this for their
    /// constants; the verifier's broken-fixture tests use it to construct
    /// deliberately wrong formulas.
    pub const fn new(
        family: &'static str,
        model: &'static str,
        domain: DomainSpec,
        build: fn(&MachineParams, usize) -> Expr,
    ) -> ClosedForm {
        ClosedForm {
            family,
            model,
            domain,
            build,
        }
    }

    /// Algorithm family name ("matmul", "bitonic", ...).
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// Model name ("bsp", "mp_bsp", "bpram", "ebsp", "gcel_refined").
    pub fn model(&self) -> &'static str {
        self.model
    }

    /// Declared domain preconditions.
    pub fn domain(&self) -> DomainSpec {
        self.domain
    }

    /// The closed form as a typed expression over [`crate::params::unit_env`]
    /// symbols, with machine constants baked in and the problem size left
    /// as the free symbol `n`. Piecewise step counts (APSP's doubling
    /// phase) are frozen at `n_hint`.
    pub fn symbolic(&self, m: &MachineParams, n_hint: usize) -> Expr {
        (self.build)(m, n_hint)
    }

    /// The predicted running time at `n` (no domain check): the
    /// expression built at `n` and evaluated under [`bindings`]`(m, n)`.
    ///
    /// # Panics
    /// If the expression names a symbol [`bindings`] leaves unbound for
    /// this machine — a defect of the builder, which S01/S04 report.
    pub fn eval(&self, m: &MachineParams, n: usize) -> SimTime {
        let us = self
            .symbolic(m, n)
            .eval(&bindings(m, n))
            .unwrap_or_else(|e| panic!("{}/{} on {}: {e}", self.family, self.model, m.name));
        SimTime::from_micros(us)
    }

    /// Domain-checked evaluation: [`ClosedForm::eval`] where the
    /// preconditions hold, a [`DomainViolation`] otherwise.
    ///
    /// # Errors
    /// The first violated [`DomainSpec`] precondition.
    pub fn predict(&self, m: &MachineParams, n: usize) -> Result<SimTime, DomainViolation> {
        self.domain.check(n, m.p)?;
        Ok(self.eval(m, n))
    }
}

/// Numeric bindings for one machine and problem size, matching
/// [`crate::params::unit_env`]'s symbol set. E-BSP refinement symbols are
/// bound only where the machine defines them.
pub fn bindings(m: &MachineParams, n: usize) -> Bindings {
    let mut b = Bindings::new();
    b.bind("g", m.g)
        .bind("L", m.l)
        .bind("sigma", m.sigma)
        .bind("ell", m.ell)
        .bind("w", exact_f64(m.w))
        .bind("alpha", m.alpha)
        .bind("alpha_mm", m.alpha_mm)
        .bind("copy", m.copy)
        .bind("radix_beta", m.radix_beta)
        .bind("radix_gamma", m.radix_gamma)
        .bind("n", exact_f64(n));
    match m.ebsp {
        EbspParams::PartialPermutation { a, b: sb, c } => {
            b.bind("t_unb_a", a).bind("t_unb_b", sb).bind("t_unb_c", c);
        }
        EbspParams::MultinodeScatter { g_mscat } => {
            b.bind("g_mscat", g_mscat);
        }
        EbspParams::Uniform => {}
    }
    b
}

/// Every closed form in the workspace: 6 families × their models, 16 in
/// all. Ordering is fixed (family-major, model order bsp / mp_bsp / bpram
/// / ebsp-refinements) so report output is deterministic.
pub fn all() -> Vec<ClosedForm> {
    vec![
        matmul::BSP,
        matmul::MP_BSP,
        matmul::BPRAM,
        bitonic::BSP,
        bitonic::MP_BSP,
        bitonic::BPRAM,
        samplesort::BSP,
        samplesort::BPRAM,
        apsp::BSP,
        apsp::MP_BSP,
        apsp::EBSP,
        apsp::GCEL_REFINED,
        lu::BSP,
        lu::BPRAM,
        parallel_radix::BSP,
        parallel_radix::BPRAM,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cm5, gcel, maspar, unit_env};
    use pcm_core::dim::Dim;

    fn machines() -> Vec<MachineParams> {
        vec![maspar(), gcel(), cm5()]
    }

    fn in_domain_n(p: &ClosedForm, machine_p: usize) -> usize {
        let d = (p.domain().n_divisor)(machine_p);
        (d * 4).max(p.domain().min_n.next_multiple_of(d))
    }

    #[test]
    fn every_predictor_types_as_microseconds() {
        let env = unit_env();
        for m in machines() {
            for pred in all() {
                let n = in_domain_n(&pred, m.p);
                let dim = pred.symbolic(&m, n).dim(&env).unwrap_or_else(|e| {
                    panic!("{}/{} on {}: {e}", pred.family(), pred.model(), m.name)
                });
                assert_eq!(
                    dim,
                    Dim::US,
                    "{}/{} on {} has dimension {dim}",
                    pred.family(),
                    pred.model(),
                    m.name
                );
            }
        }
    }

    #[test]
    fn predict_enforces_the_declared_domain() {
        let m = gcel(); // p = 64
        let preds = all();
        let matmul_bsp = &preds[0];
        // q_for(64) = 4 -> n must be a multiple of 16.
        assert!(matmul_bsp.predict(&m, 64).is_ok());
        assert_eq!(
            matmul_bsp.predict(&m, 65),
            Err(DomainViolation::NotDivisible { n: 65, divisor: 16 })
        );
        let apsp_bsp = preds
            .iter()
            .find(|p| p.family() == "apsp" && p.model() == "bsp")
            .expect("apsp/bsp registered");
        assert!(apsp_bsp.predict(&m, 64).is_ok());
        assert_eq!(
            apsp_bsp.predict(&m, 63),
            Err(DomainViolation::NotDivisible { n: 63, divisor: 8 })
        );
        // A 6-processor machine breaks every shape requirement.
        let mut tiny = gcel();
        tiny.p = 6;
        let bitonic_bsp = preds
            .iter()
            .find(|p| p.family() == "bitonic")
            .expect("bitonic registered");
        assert_eq!(
            bitonic_bsp.predict(&tiny, 128),
            Err(DomainViolation::PNotPowerOfTwo { p: 6 })
        );
        assert_eq!(
            apsp_bsp.predict(&tiny, 128),
            Err(DomainViolation::PNotPerfectSquare { p: 6 })
        );
    }

    #[test]
    fn registry_is_complete_and_deterministically_ordered() {
        let preds = all();
        assert_eq!(preds.len(), 16);
        let names: Vec<String> = preds
            .iter()
            .map(|p| format!("{}/{}", p.family(), p.model()))
            .collect();
        let mut sorted_pairs = names.clone();
        sorted_pairs.dedup();
        assert_eq!(sorted_pairs.len(), 16, "duplicate predictor registered");
        assert_eq!(names[0], "matmul/bsp");
        assert_eq!(names[15], "parallel_radix/bpram");
    }
}
