//! Superstep traces: per-superstep cost breakdown.
//!
//! The evaluation figures need more than a total running time — e.g.
//! Fig. 16 reports Mflops, which requires knowing compute vs. communication
//! split, and the E-BSP analysis inspects per-superstep pattern shapes.
//!
//! [`SuperstepTrace::measure`] is the one definition of the pattern
//! statistics: both exchange engines and pcm-check's trace collector call
//! it on the finished [`CommPattern`].

use pcm_core::SimTime;

use crate::message::MsgKind;
use crate::pattern::CommPattern;

/// Cost breakdown of one executed superstep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuperstepTrace {
    /// Superstep index.
    pub index: usize,
    /// Maximum local computation time over all processors.
    pub compute: SimTime,
    /// Communication + barrier time charged by the network model.
    pub comm: SimTime,
    /// Total logical messages routed.
    pub messages: usize,
    /// Total bytes routed.
    pub bytes: usize,
    /// `h_s` — maximum words sent by any processor.
    pub h_send: usize,
    /// `h_r` — maximum words received by any processor.
    pub h_recv: usize,
    /// Number of processors that sent or received anything.
    pub active: usize,
    /// Number of block-transfer rounds (MP-BPRAM steps) in the superstep.
    pub block_steps: usize,
    /// Sum over the block rounds of the longest transfer, in bytes — the
    /// quantity an MP-BPRAM accountant multiplies by `sigma`.
    pub block_bytes_sum: usize,
    /// Logical word messages routed (each word counts once).
    pub word_msgs: usize,
    /// Block messages routed (each block counts once).
    pub block_msgs: usize,
    /// Xnet (neighbour-grid) messages routed.
    pub xnet_msgs: usize,
}

/// Reusable scratch for [`SuperstepTrace::measure`]: words received and
/// activity per processor, and the per-round maxima of one transfer kind.
/// Grown on demand and reused, so measuring allocates nothing once warm.
#[derive(Debug, Default)]
pub struct TraceScratch {
    recv: Vec<usize>,
    active: Vec<bool>,
    round_max: Vec<usize>,
}

impl SuperstepTrace {
    /// Measures superstep `index` of `pattern` in one pass over the send
    /// records (plus one pass per block or xnet kind present). Agrees with
    /// the [`CommPattern`] query methods, which stay as its reference.
    pub fn measure(
        index: usize,
        compute: SimTime,
        comm: SimTime,
        pattern: &CommPattern,
        scratch: &mut TraceScratch,
    ) -> Self {
        let TraceScratch {
            recv,
            active,
            round_max,
        } = scratch;
        recv.clear();
        recv.resize(pattern.p, 0);
        active.clear();
        active.resize(pattern.p, false);
        let mut messages = 0usize;
        let mut bytes = 0usize;
        let mut h_send = 0usize;
        let (mut word_msgs, mut block_msgs, mut xnet_msgs) = (0usize, 0usize, 0usize);
        for (src, recs) in pattern.sends.iter().enumerate() {
            let mut sent_words = 0usize;
            for r in recs {
                bytes += r.bytes;
                match r.kind {
                    MsgKind::Words => {
                        messages += r.words;
                        word_msgs += r.words;
                        sent_words += r.words;
                        recv[r.dst] += r.words;
                    }
                    MsgKind::Block => {
                        messages += 1;
                        block_msgs += 1;
                    }
                    MsgKind::Xnet => {
                        messages += 1;
                        xnet_msgs += 1;
                    }
                }
                if r.words > 0 {
                    active[src] = true;
                    active[r.dst] = true;
                }
            }
            h_send = h_send.max(sent_words);
        }
        // Block/xnet rounds: round `r` holds the `r`-th record of that
        // kind from each source; its cost driver is the largest transfer.
        let mut block_steps = 0usize;
        let mut block_bytes_sum = 0usize;
        for (kind, count) in [(MsgKind::Block, block_msgs), (MsgKind::Xnet, xnet_msgs)] {
            if count == 0 {
                continue;
            }
            round_max.clear();
            for recs in &pattern.sends {
                for (round, r) in recs.iter().filter(|r| r.kind == kind).enumerate() {
                    if round == round_max.len() {
                        round_max.push(r.bytes);
                    } else {
                        round_max[round] = round_max[round].max(r.bytes);
                    }
                }
            }
            block_steps += round_max.len();
            block_bytes_sum += round_max.iter().sum::<usize>();
        }
        SuperstepTrace {
            index,
            compute,
            comm,
            messages,
            bytes,
            h_send,
            h_recv: recv.iter().copied().max().unwrap_or(0),
            active: active.iter().filter(|&&a| a).count(),
            block_steps,
            block_bytes_sum,
            word_msgs,
            block_msgs,
            xnet_msgs,
        }
    }
}

/// Aggregate of a full run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunBreakdown {
    /// Sum of per-superstep compute maxima.
    pub compute: SimTime,
    /// Sum of communication + synchronization time.
    pub comm: SimTime,
    /// Number of supersteps.
    pub supersteps: usize,
    /// Total messages.
    pub messages: usize,
    /// Total bytes.
    pub bytes: usize,
}

impl RunBreakdown {
    /// Folds a sequence of traces into totals.
    pub fn from_traces(traces: &[SuperstepTrace]) -> Self {
        let mut b = RunBreakdown::default();
        for t in traces {
            b.compute += t.compute;
            b.comm += t.comm;
            b.supersteps += 1;
            b.messages += t.messages;
            b.bytes += t.bytes;
        }
        b
    }

    /// Total simulated time.
    pub fn total(&self) -> SimTime {
        self.compute + self.comm
    }

    /// Fraction of time spent communicating, in `[0, 1]`.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.comm / total
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact simulated values
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_traces() {
        let traces = vec![
            SuperstepTrace {
                index: 0,
                compute: SimTime::from_micros(10.0),
                comm: SimTime::from_micros(5.0),
                messages: 3,
                bytes: 12,
                h_send: 1,
                h_recv: 1,
                active: 4,
                block_steps: 0,
                block_bytes_sum: 0,
                word_msgs: 3,
                block_msgs: 0,
                xnet_msgs: 0,
            },
            SuperstepTrace {
                index: 1,
                compute: SimTime::from_micros(20.0),
                comm: SimTime::from_micros(15.0),
                messages: 7,
                bytes: 28,
                h_send: 2,
                h_recv: 3,
                active: 4,
                block_steps: 1,
                block_bytes_sum: 16,
                word_msgs: 6,
                block_msgs: 1,
                xnet_msgs: 0,
            },
        ];
        let b = RunBreakdown::from_traces(&traces);
        assert_eq!(b.compute.as_micros(), 30.0);
        assert_eq!(b.comm.as_micros(), 20.0);
        assert_eq!(b.supersteps, 2);
        assert_eq!(b.messages, 10);
        assert_eq!(b.bytes, 40);
        assert_eq!(b.total().as_micros(), 50.0);
        assert!((b.comm_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown() {
        let b = RunBreakdown::from_traces(&[]);
        assert_eq!(b.total(), SimTime::ZERO);
        assert_eq!(b.comm_fraction(), 0.0);
    }
}
