//! Deadline-aware admission: which algorithm runs, and whether at all.
//!
//! The anytime follow-up (arXiv:1603.00400) frames optimization under
//! per-request time budgets; a serving layer turns that framing into an
//! admission decision. [`DeadlineAwarePolicy`] picks the *preferred* scheme from
//! the request (`α = 1` → EXA; bounded → IRA; otherwise RTA), then
//! downgrades along `EXA → IRA/RTA → RMQ` whenever the block size or the
//! remaining deadline budget rules a scheme out, and rejects only when even
//! the anytime randomized search cannot start before the deadline.

use std::time::Duration;

use moqo_core::Algorithm;
use moqo_sync::atomic::{AtomicU64, Ordering};

/// What the policy sees about one block of a request at scheduling time.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext {
    /// Relations in the block under decision.
    pub block_size: usize,
    /// Tolerated approximation factor `α′` of the request.
    pub alpha: f64,
    /// Whether the request bounds any selected objective.
    pub bounded: bool,
    /// Deadline budget left when the decision is made (`None` = unlimited).
    pub remaining: Option<Duration>,
    /// The request's algorithm override, if any.
    pub hint: Option<Algorithm>,
}

/// The admission decision for one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Run this algorithm; `downgraded` records that it is weaker (larger
    /// guarantee, or none) than the request's preferred scheme.
    Run {
        /// The algorithm to execute.
        algorithm: Algorithm,
        /// Whether deadline/size gates forced a weaker scheme.
        downgraded: bool,
    },
    /// The deadline cannot be met by any admitted algorithm.
    Reject,
}

/// A lock-free exponentially weighted moving average of one `f64` signal:
/// each new sample carries weight 0.2, the first one is taken as is.
/// Stored as `f64` bits in one atomic word; 0 bits mean "no sample yet".
#[derive(Debug)]
struct EwmaCell(AtomicU64);

impl Default for EwmaCell {
    fn default() -> Self {
        EwmaCell(AtomicU64::new(0))
    }
}

impl EwmaCell {
    const SMOOTHING: f64 = 0.2;

    /// Folds one sample in (short CAS loop; a lost race drops one sample
    /// of smoothing, never corrupts the estimate).
    #[moqo::hot_path]
    fn record(&self, sample: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        for _ in 0..4 {
            let updated = if current == 0 {
                sample
            } else {
                Self::SMOOTHING * sample + (1.0 - Self::SMOOTHING) * f64::from_bits(current)
            };
            // Exactly-0.0 bits would read as "no sample"; nudge instead.
            let bits = updated.max(f64::MIN_POSITIVE).to_bits();
            match self
                .0
                .compare_exchange_weak(current, bits, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current estimate, `None` before the first sample.
    fn get(&self) -> Option<f64> {
        let bits = self.0.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }
}

/// Lock-free EWMA of measured per-block-size optimization wall times.
///
/// The static `base · growthⁿ` model in
/// [`DeadlineAwarePolicy::estimated_dp_time`] describes *some* machine;
/// this table learns the one the service actually runs on. Workers feed
/// every measured block optimization into [`LearnedBlockTimes::record`];
/// the deadline split (`block_share` in the service) then prefers the
/// learned estimate over the static model wherever a sample exists. A new
/// sample carries EWMA weight 0.2. Everything is relaxed atomics —
/// recording sits on the completion path and must not lock.
pub struct LearnedBlockTimes {
    /// Estimated wall micros per block size.
    cells: [EwmaCell; Self::MAX_TRACKED + 1],
}

impl Default for LearnedBlockTimes {
    fn default() -> Self {
        LearnedBlockTimes {
            cells: std::array::from_fn(|_| EwmaCell::default()),
        }
    }
}

impl LearnedBlockTimes {
    /// Largest block size tracked individually; bigger blocks share the
    /// last cell (the policy hands them to RMQ anyway, whose cost is the
    /// sample budget, not the block size).
    pub const MAX_TRACKED: usize = 32;

    fn cell(&self, block_size: usize) -> &EwmaCell {
        &self.cells[block_size.min(Self::MAX_TRACKED)]
    }

    /// Folds one measured optimization wall time into the estimate for
    /// `block_size`-relation blocks (lock-free, see `EwmaCell::record`).
    #[moqo::hot_path]
    pub fn record(&self, block_size: usize, wall: Duration) {
        self.cell(block_size).record(wall.as_secs_f64() * 1e6);
    }

    /// The learned estimate for one block size, if any sample landed yet.
    #[must_use]
    pub fn estimate(&self, block_size: usize) -> Option<Duration> {
        self.cell(block_size)
            .get()
            .map(|us| Duration::from_secs_f64(us / 1e6))
    }
}

/// Largest block the exact algorithm may attempt: the DP table doubles per
/// relation and EXA keeps full Pareto sets.
const EXA_MAX_TABLES: usize = 7;
/// Largest block any DP scheme (RTA/IRA) may attempt.
const DP_MAX_TABLES: usize = 10;
/// Sample budget handed to RMQ fallbacks.
const RMQ_SAMPLES: u64 = 2000;
/// RMQ seed; fixed so results are reproducible.
const RMQ_SEED: u64 = 0x5EED;
/// Threads per RMQ run: the worker pool is the parallelism.
const RMQ_THREADS: usize = 1;
/// Precision the DP falls back to when a request demands exactness on a
/// block too large for EXA: RTA/IRA at α = 1 would run the *same*
/// full-precision DP as EXA (the internal pruning precision `α^(1/n)`
/// degenerates to 1), so a genuine downgrade must relax α.
const RELAXED_ALPHA: f64 = 2.0;
/// Requests with less remaining budget than this are rejected outright:
/// below it even RMQ's first sample won't land.
const MIN_BUDGET: Duration = Duration::from_micros(200);
/// DP cost model `base · growthⁿ` — base term.
const DP_BASE: Duration = Duration::from_micros(2);
/// DP cost model growth per relation.
const DP_GROWTH: f64 = 3.5;

/// The service's admission policy: size and deadline gates around the
/// preference order `EXA → IRA/RTA → RMQ`, with a crude exponential model
/// of dynamic-programming cost.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineAwarePolicy;

impl DeadlineAwarePolicy {
    /// Estimated wall time of one DP run over `tables` relations:
    /// `2 µs · 3.5ⁿ`. Deliberately pessimistic for EXA-sized blocks so
    /// deadline pressure downgrades early rather than times out. It is
    /// also the weight the service splits a request's deadline by until
    /// [`LearnedBlockTimes`] holds a measurement for the block size.
    #[must_use]
    pub fn estimated_dp_time(&self, tables: usize) -> Duration {
        let factor = DP_GROWTH.powi(i32::try_from(tables).unwrap_or(i32::MAX));
        DP_BASE.mul_f64(factor.min(1e15))
    }

    fn rmq() -> Algorithm {
        Algorithm::Rmq {
            samples: RMQ_SAMPLES,
            seed: RMQ_SEED,
            threads: RMQ_THREADS,
        }
    }

    fn dp_fits(&self, ctx: &PolicyContext) -> bool {
        match ctx.remaining {
            None => true,
            Some(rem) => self.estimated_dp_time(ctx.block_size) <= rem,
        }
    }

    /// Decides what to run for one block.
    #[must_use]
    pub fn admit(&self, ctx: &PolicyContext) -> Admission {
        if let Some(rem) = ctx.remaining {
            if rem < MIN_BUDGET {
                return Admission::Reject;
            }
        }
        // An explicit hint bypasses the preference order and the deadline
        // model, but never the minimum-budget admission above, and a DP
        // hint never its size gate: a DP table over a block that size is
        // unbounded work, with or without a deadline. A hint is a caller
        // contract, so a failed gate rejects instead of downgrading.
        if let Some(hint) = ctx.hint {
            let size_gate = match hint {
                Algorithm::Exhaustive => EXA_MAX_TABLES,
                Algorithm::Rta { .. } | Algorithm::Ira { .. } => DP_MAX_TABLES,
                Algorithm::Rmq { .. } => usize::MAX,
            };
            if ctx.block_size > size_gate {
                return Admission::Reject;
            }
            return Admission::Run {
                algorithm: hint,
                downgraded: false,
            };
        }
        let preferred = if ctx.alpha <= 1.0 {
            Algorithm::Exhaustive
        } else if ctx.bounded {
            Algorithm::Ira { alpha: ctx.alpha }
        } else {
            Algorithm::Rta { alpha: ctx.alpha }
        };
        // Size + deadline gates, weakest last.
        let exa_ok = ctx.block_size <= EXA_MAX_TABLES && self.dp_fits(ctx);
        let dp_ok = ctx.block_size <= DP_MAX_TABLES && self.dp_fits(ctx);
        match preferred {
            Algorithm::Exhaustive if exa_ok => Admission::Run {
                algorithm: preferred,
                downgraded: false,
            },
            // An exactness-demanding request that EXA cannot serve within
            // limits degrades to the approximate DP at `RELAXED_ALPHA` —
            // α = 1 would re-run the exact DP under another name (see the
            // constant's docs) — or falls through to the anytime search.
            Algorithm::Exhaustive if dp_ok => Admission::Run {
                algorithm: if ctx.bounded {
                    Algorithm::Ira {
                        alpha: RELAXED_ALPHA,
                    }
                } else {
                    Algorithm::Rta {
                        alpha: RELAXED_ALPHA,
                    }
                },
                downgraded: true,
            },
            Algorithm::Ira { .. } | Algorithm::Rta { .. } if dp_ok => Admission::Run {
                algorithm: preferred,
                downgraded: false,
            },
            _ => Admission::Run {
                algorithm: Self::rmq(),
                downgraded: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(
        block_size: usize,
        alpha: f64,
        bounded: bool,
        remaining: Option<Duration>,
    ) -> PolicyContext {
        PolicyContext {
            block_size,
            alpha,
            bounded,
            remaining,
            hint: None,
        }
    }

    #[test]
    fn preference_order_without_pressure() {
        let p = DeadlineAwarePolicy;
        assert_eq!(
            p.admit(&ctx(4, 1.0, false, None)),
            Admission::Run {
                algorithm: Algorithm::Exhaustive,
                downgraded: false
            }
        );
        assert_eq!(
            p.admit(&ctx(4, 2.0, false, None)),
            Admission::Run {
                algorithm: Algorithm::Rta { alpha: 2.0 },
                downgraded: false
            }
        );
        assert_eq!(
            p.admit(&ctx(4, 2.0, true, None)),
            Admission::Run {
                algorithm: Algorithm::Ira { alpha: 2.0 },
                downgraded: false
            }
        );
    }

    #[test]
    fn size_gates_downgrade() {
        let p = DeadlineAwarePolicy;
        // Too big for EXA but fine for the approximate DP: precision is
        // genuinely relaxed (α = 1 would re-run the exact DP).
        let too_big_for_exa = EXA_MAX_TABLES + 2;
        assert!(too_big_for_exa <= DP_MAX_TABLES);
        match p.admit(&ctx(too_big_for_exa, 1.0, false, None)) {
            Admission::Run {
                algorithm: Algorithm::Rta { alpha },
                downgraded: true,
            } => assert_eq!(alpha, RELAXED_ALPHA),
            other => panic!("expected RTA downgrade, got {other:?}"),
        }
        match p.admit(&ctx(too_big_for_exa, 1.0, true, None)) {
            Admission::Run {
                algorithm: Algorithm::Ira { alpha },
                downgraded: true,
            } => assert_eq!(alpha, RELAXED_ALPHA),
            other => panic!("expected IRA downgrade, got {other:?}"),
        }
        // Too big for any DP.
        assert_eq!(
            p.admit(&ctx(DP_MAX_TABLES + 1, 1.5, false, None)),
            Admission::Run {
                algorithm: DeadlineAwarePolicy::rmq(),
                downgraded: true
            }
        );
    }

    #[test]
    fn deadline_gates_downgrade_and_reject() {
        let p = DeadlineAwarePolicy;
        // 8 tables ≈ 2 µs · 3.5⁸ ≈ 45 ms estimated; a 1 ms budget forces
        // the anytime search.
        match p.admit(&ctx(8, 1.5, false, Some(Duration::from_millis(1)))) {
            Admission::Run {
                algorithm: Algorithm::Rmq { .. },
                downgraded: true,
            } => {}
            other => panic!("expected RMQ under deadline pressure, got {other:?}"),
        }
        // Below the minimum budget nothing is admitted.
        assert_eq!(
            p.admit(&ctx(2, 1.5, false, Some(MIN_BUDGET / 4))),
            Admission::Reject
        );
        // The DP model is 2 µs · 3.5ⁿ.
        let eight = p.estimated_dp_time(8).as_secs_f64();
        assert!((eight - 2e-6 * 3.5f64.powi(8)).abs() < 1e-9, "{eight}");
    }

    #[test]
    fn learned_times_converge_and_fall_back() {
        let learned = LearnedBlockTimes::default();
        assert_eq!(learned.estimate(4), None, "no sample yet");
        learned.record(4, Duration::from_micros(100));
        let first = learned.estimate(4).unwrap();
        assert!((first.as_secs_f64() * 1e6 - 100.0).abs() < 1e-6);
        // EWMA: 0.2 · 300 + 0.8 · 100 = 140.
        learned.record(4, Duration::from_micros(300));
        let second = learned.estimate(4).unwrap();
        assert!((second.as_secs_f64() * 1e6 - 140.0).abs() < 1e-6);
        // Other sizes stay empty; oversized blocks share the last cell.
        assert_eq!(learned.estimate(5), None);
        learned.record(
            LearnedBlockTimes::MAX_TRACKED + 10,
            Duration::from_micros(7),
        );
        assert!(learned.estimate(LearnedBlockTimes::MAX_TRACKED).is_some());
    }

    #[test]
    fn hints_bypass_gates_but_not_admission() {
        let p = DeadlineAwarePolicy;
        let hinted = |block_size, hint, remaining| {
            let mut c = ctx(block_size, 1.0, false, remaining);
            c.hint = Some(hint);
            p.admit(&c)
        };
        let run = |algorithm| Admission::Run {
            algorithm,
            downgraded: false,
        };
        let rta = Algorithm::Rta { alpha: 1.5 };
        let ira = Algorithm::Ira { alpha: 1.5 };
        // Within its size gate a hint runs as given, even where the
        // deadline model would have downgraded it.
        let tight = Some(Duration::from_millis(1));
        assert_eq!(
            hinted(EXA_MAX_TABLES, Algorithm::Exhaustive, tight),
            run(Algorithm::Exhaustive)
        );
        assert_eq!(hinted(DP_MAX_TABLES, rta, None), run(rta));
        assert_eq!(hinted(DP_MAX_TABLES, ira, None), run(ira));
        // One relation past the gate, a DP hint is rejected — deadline or
        // not — instead of running an unbounded DP.
        assert_eq!(
            hinted(EXA_MAX_TABLES + 1, Algorithm::Exhaustive, None),
            Admission::Reject
        );
        assert_eq!(hinted(DP_MAX_TABLES + 1, rta, None), Admission::Reject);
        assert_eq!(hinted(DP_MAX_TABLES + 1, ira, None), Admission::Reject);
        // RMQ has no size gate.
        let rmq = DeadlineAwarePolicy::rmq();
        assert_eq!(hinted(32, rmq, None), run(rmq));
        // The minimum budget still applies to every hint.
        assert_eq!(
            hinted(2, rmq, Some(Duration::from_micros(10))),
            Admission::Reject
        );
    }
}
