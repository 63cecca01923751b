//! Per-algorithm closed-form running-time predictions — the formulas of
//! Section 4 of the paper, one [`crate::ClosedForm`] constant per family
//! and model, each defined by its symbolic `Expr` builder and evaluated
//! over [`crate::params::MachineParams`].

use crate::symbolic::DomainSpec;
use pcm_core::symexpr::Expr;

pub mod apsp;
pub mod bitonic;
pub mod lu;
pub mod matmul;
pub mod parallel_radix;
pub mod samplesort;

/// The problem-size symbol.
fn n_sym() -> Expr {
    Expr::sym("n")
}

fn num(v: f64) -> Expr {
    Expr::num(v)
}

/// `g·h + L`: one superstep routing an `h`-relation at `g` µs per word.
fn superstep(g: Expr, h: Expr) -> Expr {
    Expr::add(vec![Expr::mul(vec![g, Expr::words(h)]), Expr::sym("L")])
}

/// `sigma·w·len + ell`: one block transfer of `len` words.
fn block(len: Expr) -> Expr {
    Expr::add(vec![
        Expr::mul(vec![Expr::sym("sigma"), Expr::sym("w"), Expr::words(len)]),
        Expr::sym("ell"),
    ])
}

/// Domain of the sorts with `n` keys per processor: any `n`, `p` a power
/// of two (bitonic merge stages, radix passes).
const SORT_DOMAIN: DomainSpec = DomainSpec {
    min_n: 1,
    n_divisor: |_| 1,
    min_p: 2,
    power_of_two_p: true,
    perfect_square_p: false,
};

/// Domain of the `sqrt(P) x sqrt(P)`-blocked matrix algorithms (APSP, LU):
/// `p` a perfect square and `n` a multiple of `sqrt(p)`.
const BLOCKED_DOMAIN: DomainSpec = DomainSpec {
    min_n: 2,
    n_divisor: usize::isqrt,
    min_p: 4,
    power_of_two_p: false,
    perfect_square_p: true,
};
