//! Closed-form running-time predictions for the 3D matrix multiplication
//! algorithm (paper Section 4.1).
//!
//! The algorithm uses `P = q³` processors arranged as a `q x q x q` cube.
//! On machines whose processor count is not a perfect cube (the 1024-PE
//! MasPar) the largest embedded cube is used: `q = 10`, `P_eff = 1000`.

use super::{n_sym, num};
use crate::params::MachineParams;
use crate::symbolic::{ClosedForm, DomainSpec};
use pcm_core::symexpr::Expr;
use pcm_core::units::exact_f64;

/// The cube side `q` used on a machine with `p` processors: the largest
/// `q` with `q³ <= p`.
pub fn q_for(p: usize) -> usize {
    // cbrt(usize::MAX) < 2^22, so the estimate always fits.
    #[allow(clippy::cast_possible_truncation)]
    let mut q = (p as f64).cbrt().floor() as usize;
    // Guard against floating point under/overshoot.
    while (q + 1) * (q + 1) * (q + 1) <= p {
        q += 1;
    }
    while q > 1 && q * q * q > p {
        q -= 1;
    }
    q.max(1)
}

/// `n` must be a multiple of `q²` (each processor owns an `n/q x n/q`
/// block split `q` ways).
const DOMAIN: DomainSpec = DomainSpec {
    min_n: 2,
    n_divisor: |p| q_for(p).pow(2),
    min_p: 8,
    power_of_two_p: false,
    perfect_square_p: false,
};

/// BSP prediction:
/// `T = alpha·N³/P + beta·N²/q² + 3·g·N²/q² + 2·L`.
pub const BSP: ClosedForm = ClosedForm::new("matmul", "bsp", DOMAIN, bsp_expr);

/// MP-BSP prediction (every word message is its own communication step):
/// `T = alpha·N³/P + beta·N²/q² + 3·(g+L)·N²/q²`.
pub const MP_BSP: ClosedForm = ClosedForm::new("matmul", "mp_bsp", DOMAIN, mp_bsp_expr);

/// MP-BPRAM prediction (block transfers of `N²/P` words):
/// `T = alpha·N³/P + beta·N²/q² + 3·q·(sigma·w·N²/P + ell)`.
pub const BPRAM: ClosedForm = ClosedForm::new("matmul", "bpram", DOMAIN, bpram_expr);

/// `alpha_mm·N³/P_eff + copy·N²/q²` — the shared compute part.
fn compute(q: usize) -> Expr {
    let p_eff = exact_f64(q * q * q);
    let qf = exact_f64(q);
    Expr::add(vec![
        Expr::div(
            Expr::mul(vec![
                Expr::sym("alpha_mm"),
                Expr::ops(Expr::powi(n_sym(), 3)),
            ]),
            num(p_eff),
        ),
        Expr::div(
            Expr::mul(vec![Expr::sym("copy"), Expr::words(n_sym()), n_sym()]),
            num(qf * qf),
        ),
    ])
}

fn bsp_expr(m: &MachineParams, _n_hint: usize) -> Expr {
    let q = q_for(m.p);
    let qf = exact_f64(q);
    Expr::add(vec![
        compute(q),
        Expr::add(vec![
            Expr::div(
                Expr::mul(vec![
                    num(3.0),
                    Expr::sym("g"),
                    Expr::words(n_sym()),
                    n_sym(),
                ]),
                num(qf * qf),
            ),
            Expr::mul(vec![num(2.0), Expr::sym("L")]),
        ]),
    ])
}

fn mp_bsp_expr(m: &MachineParams, _n_hint: usize) -> Expr {
    let q = q_for(m.p);
    let qf = exact_f64(q);
    Expr::add(vec![
        compute(q),
        Expr::div(
            Expr::mul(vec![
                num(3.0),
                Expr::add(vec![Expr::sym("g"), Expr::per_word(Expr::sym("L"))]),
                Expr::words(n_sym()),
                n_sym(),
            ]),
            num(qf * qf),
        ),
    ])
}

fn bpram_expr(m: &MachineParams, _n_hint: usize) -> Expr {
    let q = q_for(m.p);
    let p_eff = exact_f64(q * q * q);
    Expr::add(vec![
        compute(q),
        Expr::mul(vec![
            num(3.0),
            num(exact_f64(q)),
            Expr::add(vec![
                Expr::div(
                    Expr::mul(vec![
                        Expr::sym("sigma"),
                        Expr::sym("w"),
                        Expr::words(n_sym()),
                        n_sym(),
                    ]),
                    num(p_eff),
                ),
                Expr::sym("ell"),
            ]),
        ]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cm5, maspar};
    use pcm_core::units::{matmul_flops, mflops};

    #[test]
    fn q_for_common_machine_sizes() {
        assert_eq!(q_for(64), 4);
        assert_eq!(q_for(1024), 10, "largest cube inside 1024 PEs is 1000");
        assert_eq!(q_for(1000), 10);
        assert_eq!(q_for(8), 2);
        assert_eq!(q_for(1), 1);
        assert_eq!(q_for(7), 1);
        assert_eq!(q_for(27), 3);
    }

    #[test]
    fn cm5_bsp_prediction_matches_the_paper_anchor() {
        // "even for N = 256, the BSP model predicts an execution time of
        // 188 milliseconds". With alpha = 0.29 the compute part alone is
        // 0.29·256³/64 ≈ 76 ms and the communication part 3·9.1·256²/16
        // ≈ 112 ms.
        let ms = BSP.eval(&cm5(), 256).as_millis();
        assert!((ms - 188.0).abs() < 8.0, "predicted {ms} ms");
    }

    #[test]
    fn bpram_beats_bsp_on_cm5_at_large_n() {
        // Fig. 16: the long-message version is faster.
        let m = cm5();
        for n in [128usize, 256, 512, 1024] {
            assert!(BPRAM.eval(&m, n) < BSP.eval(&m, n), "n = {n}");
        }
    }

    #[test]
    fn mp_bsp_dominates_bsp_on_maspar() {
        // Without memory pipelining each word pays L: MP-BSP ≥ BSP cost.
        let m = maspar();
        assert!(MP_BSP.eval(&m, 300) > BSP.eval(&m, 300));
    }

    #[test]
    fn maspar_bpram_mflops_anchor() {
        // Fig. 19: "At N = 700, the measured performance of the MP-BPRAM
        // version is 39.9 Mflops".
        let mf = mflops(matmul_flops(700), BPRAM.eval(&maspar(), 700));
        assert!((mf - 39.9).abs() < 4.0, "predicted {mf} Mflops");
    }

    #[test]
    fn cm5_bpram_mflops_anchor() {
        // Fig. 16/20: the MP-BPRAM version reaches ~370-400 Mflops at
        // N = 512 (measured 366, peaking at 372).
        let mf = mflops(matmul_flops(512), BPRAM.eval(&cm5(), 512));
        assert!(mf > 330.0 && mf < 440.0, "predicted {mf} Mflops");
    }
}
