//! Dry-run plan extraction: the static analyzer's view of a run.
//!
//! The `pcm-audit` crate proves per-superstep invariants over an
//! algorithm's *communication plan* — the sequence of [`CommPattern`]s a
//! run produces — without paying for network pricing. This module provides
//! the extraction mode: inside an [`extract_plans`] scope every
//! [`crate::Machine`] runs **dry**:
//!
//! * the orchestration closures still execute and messages still carry
//!   their real payloads (data-dependent schedules — sample sort's bucket
//!   routing, radix's slice lengths — stay exact),
//! * but the network model is never invoked, the simulated clock stays at
//!   zero, and no [`crate::trace::SuperstepTrace`]s are collected: the
//!   expensive *pricing* of each pattern is skipped entirely,
//! * and instead every superstep's full ordered [`CommPattern`] is cloned
//!   into a [`StepPlan`], together with the per-processor inbox occupancy
//!   and read flags the conservation rules (A01/A02) need.
//!
//! Extraction is an ordinary observer on the machine's one hook
//! ([`crate::probe`]): the plan recorder opts into per-step detail and the
//! scope sets the hook's dry flag, so the usual fused or sharded exchange
//! runs with pricing skipped. A machine's plan is finalized (pending inbox
//! recorded, [`RunPlan`] pushed to the scope's sink) when the machine is
//! dropped, so the closure passed to [`extract_plans`] must drop its
//! machines before returning — every algorithm entry point in `pcm-algos`
//! does.

use std::cell::RefCell;
use std::rc::Rc;

use crate::pattern::CommPattern;
use crate::probe::{self, RunReport, StepObs, SuperstepProbe};

/// Everything the static analyzer knows about one superstep.
#[derive(Clone, Debug)]
pub struct StepPlan {
    /// Superstep index (0-based).
    pub step: usize,
    /// The full ordered communication pattern of the superstep.
    pub pattern: CommPattern,
    /// Per-processor count of messages sitting in the inbox during this
    /// superstep (delivered at the previous barrier).
    pub inbox_count: Vec<usize>,
    /// Per-processor flag: did the processor read its inbox (any `msgs*`
    /// accessor) during this superstep?
    pub inbox_read: Vec<bool>,
}

/// The extracted communication plan of one machine's whole run.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Number of processors.
    pub p: usize,
    /// One entry per executed superstep, in order.
    pub steps: Vec<StepPlan>,
    /// Per-processor count of messages delivered at the last barrier and
    /// still unconsumed when the machine was dropped.
    pub pending_inbox: Vec<usize>,
}

type PlanSink = Rc<RefCell<Vec<RunPlan>>>;

/// The observer [`extract_plans`] gives each machine.
struct PlanRecorder {
    sink: PlanSink,
    p: usize,
    steps: Vec<StepPlan>,
}

impl SuperstepProbe for PlanRecorder {
    fn observe(&mut self, obs: &StepObs<'_>) {
        let d = obs.detail.as_ref().expect("the plan recorder takes detail");
        self.steps.push(StepPlan {
            step: obs.step,
            pattern: d.pattern.clone(),
            inbox_count: d.inbox_count.to_vec(),
            inbox_read: (0..d.p).map(|pid| d.inbox_read(pid)).collect(),
        });
    }

    fn wants_detail(&self) -> bool {
        true
    }

    fn finish(&mut self, report: &RunReport<'_>) {
        self.sink.borrow_mut().push(RunPlan {
            p: self.p,
            steps: std::mem::take(&mut self.steps),
            pending_inbox: report.pending_inbox.to_vec(),
        });
    }
}

/// Runs `body` in dry-run extraction mode and returns its result plus the
/// [`RunPlan`] of every machine it created (in drop order). The previous
/// hook state is restored on exit (also on panic).
///
/// # Panics
///
/// If called inside another observer scope ([`crate::with_probe`] or this
/// one): a machine has one observer, so the inner scope would silently
/// take the outer one's machines.
pub fn extract_plans<R>(body: impl FnOnce() -> R) -> (R, Vec<RunPlan>) {
    let sink: PlanSink = Rc::default();
    let hook = sink.clone();
    let factory: probe::ProbeFactory = Rc::new(move |p| {
        Box::new(PlanRecorder {
            sink: hook.clone(),
            p,
            steps: Vec::new(),
        })
    });
    let result = probe::scoped(|h| probe::install(h, factory, true), body);
    let plans = sink.take();
    (result, plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::network::TextbookBspNetwork;
    use crate::Machine;
    use pcm_core::SimTime;
    use std::sync::Arc;

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(TextbookBspNetwork {
                g: 2.0,
                l: 10.0,
                sigma: 0.0,
                ell: 0.0,
            }),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            5,
        )
    }

    #[test]
    fn extraction_captures_every_superstep_pattern() {
        let (time, plans) = extract_plans(|| {
            let mut m = machine(4);
            m.superstep(|ctx| {
                ctx.charge(3.0);
                ctx.send_words_u32((ctx.pid() + 1) % 4, &[1, 2]);
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
            m.time()
        });
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.p, 4);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].step, 0);
        assert_eq!(plan.steps[0].pattern.h_send(), 2);
        assert_eq!(plan.steps[0].inbox_count, vec![0; 4]);
        assert_eq!(plan.steps[1].inbox_count, vec![1; 4]);
        assert_eq!(plan.steps[1].inbox_read, vec![true; 4]);
        assert_eq!(plan.pending_inbox, vec![0; 4]);
        // Dry run: the network was never priced, the clock never advanced.
        assert_eq!(time, SimTime::ZERO);
    }

    #[test]
    fn dry_run_skips_pricing_but_delivers_payloads() {
        let ((), plans) = extract_plans(|| {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_word_u32(1, 42);
                }
            });
            m.superstep(|ctx| {
                if ctx.pid() == 1 {
                    // Payloads still flow: data-dependent schedules depend
                    // on them being exact.
                    assert_eq!(ctx.msgs()[0].word_u32(), 42);
                }
            });
            assert!(m.traces().is_empty(), "dry runs collect no traces");
        });
        assert_eq!(plans[0].steps.len(), 2);
    }

    #[test]
    fn pending_messages_survive_into_the_plan() {
        let ((), plans) = extract_plans(|| {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_word_u32(1, 7);
                }
            });
            // Dropped with the message delivered but never consumed.
        });
        assert_eq!(plans[0].pending_inbox, vec![0, 1]);
    }

    #[test]
    fn plans_from_multiple_machines_arrive_in_drop_order() {
        let ((), plans) = extract_plans(|| {
            machine(2).sync();
            let mut m = machine(3);
            m.sync();
            m.sync();
        });
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].p, 2);
        assert_eq!(plans[1].p, 3);
        assert_eq!(plans[1].steps.len(), 2);
    }

    /// Plan extraction is not a sanitizer: an out-of-range send fails
    /// fast in debug builds, as on an unobserved machine.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn dry_out_of_range_send_fails_fast_in_debug() {
        extract_plans(|| machine(2).superstep(|ctx| ctx.send_word_u32(5, 1)));
    }
}
