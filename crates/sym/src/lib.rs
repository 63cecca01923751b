//! # pcm-sym — symbolic cost-IR verifier for the analytic models
//!
//! Every closed form in `pcm-models` is defined by a typed symbolic
//! expression ([`Expr`], via `ClosedForm::symbolic`) and evaluated through
//! it; this crate certifies those expressions. Six rules:
//!
//! * **S01 units** — each formula must reduce to µs under the machine-
//!   readable unit declarations of `pcm_models::params::unit_env`;
//!   words/bytes confusion is a type error, not a plausible number.
//! * **S02 domains** — every grid point the `pcm-experiments` figures
//!   sweep must satisfy the predictor's declared [`DomainSpec`]
//!   (divisibility, minimum sizes, processor shape).
//! * **S03 dominance** — declared cross-model lemmas ("plain BSP never
//!   loses to MP-BSP on the MasPar") are certified from the polynomial
//!   difference of the two formulas, then spot-checked numerically.
//! * **S04 differential** — each expression must agree to ≤ 1 ulp with
//!   the committed [`golden`] table, values frozen from the hand-coded
//!   arithmetic the expressions replaced, at 384 random perturbations of
//!   the Table 1 parameters; any divergence is a formula change.
//! * **S05 leading terms** — the communication part's leading power of `n`
//!   must match the growth of the family's `CostContract` volume bound,
//!   and the contract's bounds must pass shape certification.
//! * **S06 crossovers** — where a word variant and a block variant cross,
//!   the crossing must lie in its declared bracket, the closed-form winner
//!   must flip across it, and (full sweep only) replaying both sides
//!   through the priced simulator must show the same flip.
//!
//! [`sweep::sweep`] runs all six over every registered predictor × the
//! three Table 1 machines; the `pcm-sym` binary writes the committed
//! `SYM_report.json`.
//!
//! [`DomainSpec`]: pcm_models::DomainSpec

pub mod checker;
pub mod golden;
pub mod lemmas;
pub mod report;
pub mod rules;
pub mod sweep;

pub use checker::{
    check_contract_shape, check_crossover, check_differential, check_domains, check_leading,
    check_lemma, check_units, machine_by_name, ulp_diff,
};
pub use golden::GoldenRow;
pub use lemmas::{crossovers, lemmas, Crossover, Lemma, ReplayFn};
pub use pcm_core::dim::Dim;
pub use pcm_core::symexpr::{Bindings, Expr, Poly, SymError, UnitEnv};
pub use report::render_json;
pub use rules::{render, Finding, SymRule};
pub use sweep::{sweep, SweepOptions, SweepOutcome, SweepStats, SEED};
