//! Superstep tally: the benchmark's probe over `pcm_sim::with_probe`.
//!
//! Every machine a unit builds gets its own [`MachineProbe`]. Per-step
//! sums (phase nanoseconds, supersteps, send records, sharded steps) go
//! straight into the shared [`Tally`]; the per-machine cumulative values
//! (final clock, route-memo statistics, cost terms) are folded in when the
//! machine is dropped, so each machine counts once with its final state.

use std::cell::RefCell;
use std::rc::Rc;

use pcm_sim::{
    with_probe, CacheStats, ExchangePath, NetTerms, PhaseNanos, StepObs, SuperstepProbe,
};

/// 64-bit FNV-1a over byte strings and integers.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

/// Adds `o` into `acc`, phase by phase.
fn add_phases(acc: &mut PhaseNanos, o: &PhaseNanos) {
    acc.compute += o.compute;
    acc.scatter += o.scatter;
    acc.price += o.price;
    acc.gather += o.gather;
    acc.recycle += o.recycle;
}

/// What one probed unit ran: deterministic counts plus wall phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Wall nanoseconds per engine phase, summed over supersteps.
    pub phases: PhaseNanos,
    pub supersteps: u64,
    pub records: u64,
    pub sharded: u64,
    pub machines: u64,
    pub memo_hits: u64,
    pub memo_lookups: u64,
    pub router_rounds: u64,
    /// Digest of every machine's final clock, supersteps, records and
    /// cost terms, in machine drop order.
    pub stats: Fnv,
}

impl Tally {
    /// Sums `o` into `self`; the statistics digest is per unit and is
    /// not combined.
    pub fn add(&mut self, o: &Tally) {
        add_phases(&mut self.phases, &o.phases);
        self.supersteps += o.supersteps;
        self.records += o.records;
        self.sharded += o.sharded;
        self.machines += o.machines;
        self.memo_hits += o.memo_hits;
        self.memo_lookups += o.memo_lookups;
        self.router_rounds += o.router_rounds;
    }
}

struct MachineProbe {
    tally: Rc<RefCell<Tally>>,
    clock_bits: u64,
    steps: u64,
    records: u64,
    memo: Option<CacheStats>,
    terms: Option<NetTerms>,
}

impl SuperstepProbe for MachineProbe {
    fn observe(&mut self, obs: &StepObs<'_>) {
        self.clock_bits = obs.clock.as_micros().to_bits();
        self.steps += 1;
        self.records += obs.records as u64;
        self.memo = obs.memo;
        self.terms = obs.terms;
        let mut t = self.tally.borrow_mut();
        add_phases(&mut t.phases, &obs.phases);
        t.supersteps += 1;
        t.records += obs.records as u64;
        t.sharded += u64::from(obs.path == ExchangePath::Sharded);
    }
}

impl Drop for MachineProbe {
    fn drop(&mut self) {
        // A drop during unwinding must not panic: skip the fold if the
        // tally is somehow borrowed.
        let Ok(mut t) = self.tally.try_borrow_mut() else {
            return;
        };
        t.machines += 1;
        let mut h = t.stats;
        for v in [self.clock_bits, self.steps, self.records] {
            h.u64(v);
        }
        if let Some(m) = self.memo {
            t.memo_hits += m.hits;
            t.memo_lookups += m.hits + m.misses + m.bypasses;
        }
        if let Some(n) = self.terms {
            t.router_rounds += n.router_rounds;
            for v in [
                n.routes,
                n.barriers,
                n.barrier_us.to_bits(),
                n.router_rounds,
                n.router_passes,
                n.router_min_passes,
            ] {
                h.u64(v);
            }
        }
        t.stats = h;
    }
}

/// Runs `body` with a tallying probe on every machine it creates on this
/// thread, and returns its result with the tally.
pub fn probed<R>(body: impl FnOnce() -> R) -> (R, Tally) {
    let tally: Rc<RefCell<Tally>> = Rc::default();
    let sink = tally.clone();
    let out = with_probe(
        move |_p| {
            Box::new(MachineProbe {
                tally: sink.clone(),
                clock_bits: 0,
                steps: 0,
                records: 0,
                memo: None,
                terms: None,
            })
        },
        body,
    );
    let t = *tally.borrow();
    (out, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
