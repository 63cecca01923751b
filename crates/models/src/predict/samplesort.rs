//! Closed-form predictions for sample sort (paper Section 4.3).
//!
//! Sample sort proceeds in three phases:
//!
//! 1. **splitter** — every processor draws `S` samples; the `P·S` samples
//!    are sorted with bitonic sort and `P-1` splitters are broadcast;
//! 2. **send** — keys are sorted locally, bucket boundaries found in
//!    `Theta(M + P)` time, destinations exchanged via a multi-scan, and the
//!    keys routed to their buckets;
//! 3. **sort buckets** — each bucket (at most `M_max` keys) is sorted
//!    locally.
//!
//! The formulas fix `S` = [`OVERSAMPLING`] and `M_max = 2·M` (a factor-2
//! oversampling-quality bound).
//!
//! The MP-BPRAM variant replaces the irregular word traffic with block
//! transfers: the splitter broadcast becomes a `P x P` transpose
//! (`2·sqrt(P)` block steps), the multi-scan `4·sqrt(P)` block steps, and
//! the send substep uses the JáJá–Ryu routing scheme costing
//! `4·sqrt(P)·(4·sigma·w·N/P^1.5 + ell)`.

use super::bitonic::{bpram_with, bsp_with, local_sort_expr};
use super::{block, n_sym, num, superstep};
use crate::params::MachineParams;
use crate::symbolic::{ClosedForm, DomainSpec};
use pcm_core::symexpr::Expr;
use pcm_core::units::exact_f64;

/// Oversampling ratio `S` (keys per processor in the splitter bitonic
/// sort).
pub const OVERSAMPLING: usize = 64;

const DOMAIN: DomainSpec = DomainSpec {
    min_n: 1,
    n_divisor: |_| 1,
    min_p: 4,
    power_of_two_p: true,
    // The JáJá–Ryu block routing tiles the processors sqrt(P)-wise.
    perfect_square_p: true,
};

/// BSP prediction: splitter `T_bsp_bitonic(P·S) + g·(P-1) + L`, send
/// `T_local_sort(M) + alpha·(M+P) + 2·(g·P + L) + g·M_max + L`, and the
/// bucket sort `T_local_sort(M_max)`.
pub const BSP: ClosedForm = ClosedForm::new("samplesort", "bsp", DOMAIN, bsp_expr);

/// MP-BPRAM prediction: the splitter bitonic sort plus a block transpose,
/// the local phase, the block multi-scan, the JáJá–Ryu send and the
/// bucket sort.
pub const BPRAM: ClosedForm = ClosedForm::new("samplesort", "bpram", DOMAIN, bpram_expr);

/// `M_max = 2·M`.
fn m_max_expr() -> Expr {
    Expr::mul(vec![num(2.0), n_sym()])
}

fn bsp_expr(m: &MachineParams, _n_hint: usize) -> Expr {
    let p = exact_f64(m.p);
    let splitter = Expr::add(vec![
        bsp_with(m, num(exact_f64(OVERSAMPLING))),
        superstep(Expr::sym("g"), num(p - 1.0)),
    ]);
    let scan = Expr::mul(vec![num(2.0), superstep(Expr::sym("g"), num(p))]);
    let send = Expr::add(vec![
        Expr::add(vec![
            local_sort_expr(n_sym()),
            Expr::mul(vec![
                Expr::sym("alpha"),
                Expr::ops(Expr::add(vec![n_sym(), num(p)])),
            ]),
        ]),
        scan,
        superstep(Expr::sym("g"), m_max_expr()),
    ]);
    Expr::add(vec![splitter, send, local_sort_expr(m_max_expr())])
}

/// Splitter broadcast as a `P x P` transpose:
/// `2·sqrt(P)·(sigma·w·sqrt(P) + ell)`.
fn splitter_broadcast_bpram(m: &MachineParams) -> Expr {
    let sq = exact_f64(m.p).sqrt();
    Expr::mul(vec![num(2.0), num(sq), block(num(sq))])
}

/// Block multi-scan: `4·sqrt(P)·(sigma·w·sqrt(P) + ell)`.
fn scan_bpram(m: &MachineParams) -> Expr {
    let sq = exact_f64(m.p).sqrt();
    Expr::mul(vec![num(4.0), num(sq), block(num(sq))])
}

/// Routing the `N = M·P` keys to their buckets (JáJá–Ryu):
/// `4·sqrt(P)·(4·sigma·w·N/P^1.5 + ell)`.
fn send_to_buckets_bpram(m: &MachineParams) -> Expr {
    let p = exact_f64(m.p);
    let sq = p.sqrt();
    Expr::mul(vec![
        num(4.0),
        num(sq),
        Expr::add(vec![
            Expr::div(
                Expr::mul(vec![
                    num(4.0),
                    Expr::sym("sigma"),
                    Expr::sym("w"),
                    Expr::words(Expr::mul(vec![n_sym(), num(p)])),
                ]),
                num(p * sq),
            ),
            Expr::sym("ell"),
        ]),
    ])
}

fn bpram_expr(m: &MachineParams, _n_hint: usize) -> Expr {
    let p = exact_f64(m.p);
    let splitters = Expr::add(vec![
        bpram_with(m, num(exact_f64(OVERSAMPLING))),
        splitter_broadcast_bpram(m),
    ]);
    let local = Expr::add(vec![
        local_sort_expr(n_sym()),
        Expr::mul(vec![
            Expr::sym("alpha"),
            Expr::ops(Expr::add(vec![n_sym(), num(p)])),
        ]),
    ]);
    Expr::add(vec![
        splitters,
        local,
        scan_bpram(m),
        send_to_buckets_bpram(m),
        local_sort_expr(m_max_expr()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::gcel;
    use crate::symbolic::bindings;

    fn us(e: &Expr, m: &MachineParams, n: usize) -> f64 {
        e.eval(&bindings(m, n))
            .expect("bindings cover the expression")
    }

    #[test]
    fn send_substep_dominates_on_gcel() {
        // Section 6: "The send substep alone ... requires about
        // 16·sigma·w·N/P µs" — 4·sqrt(P)·4·sigma·w·N/P^1.5 = 16·sigma·w·N/P
        // for any P.
        let m = gcel();
        let keys_per_proc = 4096;
        let n = 64 * keys_per_proc;
        let t = us(&send_to_buckets_bpram(&m), &m, keys_per_proc);
        let dominant = 16.0 * m.sigma * exact_f64(m.w) * exact_f64(n) / exact_f64(m.p);
        let startup = 4.0 * 8.0 * m.ell;
        assert!((t - (dominant + startup)).abs() < 1e-6);
        // Bitonic's communication term is ~21·sigma·w·N/P (plus startups),
        // so sample sort's send phase alone is within a factor of the whole
        // bitonic exchange volume — that is why sample sort disappoints.
        let bitonic_comm = 21.0 * m.sigma * exact_f64(m.w) * 4096.0;
        assert!(dominant > 0.5 * bitonic_comm);
    }

    #[test]
    fn totals_are_monotone_in_keys() {
        let m = gcel();
        assert!(BPRAM.eval(&m, 4096) > BPRAM.eval(&m, 1024));
        assert!(BSP.eval(&m, 4096) > BSP.eval(&m, 1024));
    }

    #[test]
    fn block_phase_costs_scale_with_sqrt_p() {
        let m = gcel();
        let sq = 8.0;
        let expect = 2.0 * sq * (m.sigma * 4.0 * sq + m.ell);
        assert!((us(&splitter_broadcast_bpram(&m), &m, 1) - expect).abs() < 1e-9);
        assert!((us(&scan_bpram(&m), &m, 1) - 2.0 * expect).abs() < 1e-9);
    }
}
