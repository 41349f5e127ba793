//! Deterministic fault injection: a replayable chaos plan for the service.
//!
//! A [`FaultPlan`] maps exact *request ordinals* (the 0-based submission
//! index the service assigns under its lock-free counter) to fault
//! actions. Because the trigger is the ordinal — not a timer or a random
//! draw — a chaos run is exactly replayable: the same trace plus the same
//! plan produces the same panics, the same worker deaths and the same
//! rejections, which is what lets CI gate the robustness counters
//! (`panics_total`, `respawns`, `failed`) as byte-stable
//! checksums.
//!
//! Plans come from the builder or from the `MOQO_SL_FAULTS` environment
//! variable (see [`FaultPlan::parse`] for the grammar), so `service_load`
//! replay modes can run chaos traces without recompiling.
//!
//! The module also owns the panic-hook silencer: injected (and any other
//! worker) panics are converted to [`ServiceError::Internal`]
//! responses by the worker's `catch_unwind` guard, so the default hook's
//! stderr spew is pure noise in chaos tests. [`guarded_catch`] installs —
//! once, lazily — a hook that suppresses output for panics unwinding
//! through a worker guard and delegates everything else to the previous
//! hook; the payload is never lost, it travels in the error variant.
//!
//! [`ServiceError::Internal`]: crate::ServiceError::Internal

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

/// What to inject when a request's ordinal matches the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the worker right before processing; the guard converts
    /// it to `ServiceError::Internal` and the worker survives.
    Panic,
    /// Sleep in the worker before processing (stall simulation; long
    /// enough delays trip the supervisor's heartbeat watchdog).
    Delay(Duration),
    /// Reject at submission as if the queue were at capacity.
    QueueFull,
    /// Process and answer the request normally, then terminate the worker
    /// thread — the supervisor must notice and respawn onto the shard.
    KillWorker,
}

/// A deterministic fault schedule keyed by request ordinal.
///
/// Exact ordinals win over periodic rules when both match.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    exact: HashMap<u64, FaultAction>,
    /// `(period, offset, action)`: fires on every ordinal where
    /// `ordinal % period == offset`.
    periodic: Vec<(u64, u64, FaultAction)>,
}

impl FaultPlan {
    /// Starts an empty plan builder.
    #[must_use]
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::default(),
        }
    }

    /// The action scheduled for `ordinal`, if any.
    #[must_use]
    pub fn at(&self, ordinal: u64) -> Option<FaultAction> {
        if let Some(action) = self.exact.get(&ordinal) {
            return Some(*action);
        }
        self.periodic
            .iter()
            .find(|(period, offset, _)| ordinal % period == *offset)
            .map(|(_, _, action)| *action)
    }

    /// Whether the plan schedules nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.periodic.is_empty()
    }

    /// Parses the `MOQO_SL_FAULTS` grammar: a comma-separated list of
    /// `kind@ordinal` terms, where `kind` is `panic`, `kill`, `full`, or
    /// `delay:<millis>ms`, and `ordinal` is either an exact index or the
    /// periodic form `*/<period>[+<offset>]`.
    ///
    /// ```
    /// use moqo_service::FaultPlan;
    /// let plan = FaultPlan::parse("panic@*/4, kill@60, delay:5ms@7, full@9").unwrap();
    /// assert!(plan.at(0).is_some());   // */4 fires on 0, 4, 8, …
    /// assert!(plan.at(60).is_some());
    /// assert!(plan.at(1).is_none());
    /// ```
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed term.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, ordinal) = term
                .split_once('@')
                .ok_or_else(|| format!("fault term `{term}` is missing `@ordinal`"))?;
            let action = match kind.trim() {
                "panic" => FaultAction::Panic,
                "kill" => FaultAction::KillWorker,
                "full" => FaultAction::QueueFull,
                other => {
                    let millis = other
                        .strip_prefix("delay:")
                        .and_then(|d| d.strip_suffix("ms"))
                        .and_then(|d| d.trim().parse::<u64>().ok())
                        .ok_or_else(|| format!("unknown fault kind `{other}` in `{term}`"))?;
                    FaultAction::Delay(Duration::from_millis(millis))
                }
            };
            let ordinal = ordinal.trim();
            if let Some(periodic) = ordinal.strip_prefix("*/") {
                let (period, offset) = match periodic.split_once('+') {
                    Some((p, o)) => (p.trim(), o.trim()),
                    None => (periodic.trim(), "0"),
                };
                let period: u64 = period
                    .parse()
                    .ok()
                    .filter(|p| *p > 0)
                    .ok_or_else(|| format!("bad period in `{term}`"))?;
                let offset: u64 = offset
                    .parse()
                    .map_err(|_| format!("bad offset in `{term}`"))?;
                plan.periodic.push((period, offset % period, action));
            } else {
                let at: u64 = ordinal
                    .parse()
                    .map_err(|_| format!("bad ordinal in `{term}`"))?;
                plan.exact.insert(at, action);
            }
        }
        Ok(plan)
    }

    /// The plan `MOQO_SL_FAULTS` describes, `None` when unset or empty.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec — a chaos run with a silently-dropped
    /// plan would "pass" without testing anything.
    #[must_use]
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("MOQO_SL_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        let plan = FaultPlan::parse(&spec).expect("MOQO_SL_FAULTS must parse");
        (!plan.is_empty()).then_some(plan)
    }
}

/// Incremental [`FaultPlan`] construction.
#[derive(Debug, Default)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Panic when processing request `ordinal`.
    #[must_use]
    pub fn panic_at(mut self, ordinal: u64) -> Self {
        self.plan.exact.insert(ordinal, FaultAction::Panic);
        self
    }

    /// Panic on every ordinal with `ordinal % period == offset`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn panic_every(mut self, period: u64, offset: u64) -> Self {
        assert!(period > 0, "period must be positive");
        self.plan
            .periodic
            .push((period, offset % period, FaultAction::Panic));
        self
    }

    /// Sleep `delay` before processing request `ordinal`.
    #[must_use]
    pub fn delay_at(mut self, ordinal: u64, delay: Duration) -> Self {
        self.plan.exact.insert(ordinal, FaultAction::Delay(delay));
        self
    }

    /// Reject request `ordinal` at submission as if the queue were full.
    #[must_use]
    pub fn queue_full_at(mut self, ordinal: u64) -> Self {
        self.plan.exact.insert(ordinal, FaultAction::QueueFull);
        self
    }

    /// Kill the worker thread after it answers request `ordinal`.
    #[must_use]
    pub fn kill_worker_at(mut self, ordinal: u64) -> Self {
        self.plan.exact.insert(ordinal, FaultAction::KillWorker);
        self
    }

    /// Finishes the plan.
    #[must_use]
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

thread_local! {
    /// Whether the current thread is inside a worker's panic guard; the
    /// silenced hook consults it to decide between suppressing and
    /// delegating.
    static IN_WORKER_GUARD: Cell<bool> = const { Cell::new(false) };
}

fn install_silencer_once() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_WORKER_GUARD.with(Cell::get) {
                previous(info);
            }
            // Guarded panics stay silent: the payload is delivered to the
            // requester as `ServiceError::Internal`, and the metrics count
            // it — stderr spew would only bury real failures in chaos runs.
        }));
    });
}

/// Runs `f`, catching any panic and returning its payload rendered to a
/// string. While `f` runs, the process-wide panic hook (installed lazily,
/// once) suppresses the default stderr report for this thread — the
/// payload is not lost, it is the `Err` value.
///
/// The `AssertUnwindSafe` is sound for the worker's use: everything the
/// job closure captures is either atomics designed for concurrent
/// observation (metrics, cache, learned estimates — a torn *logical*
/// update is impossible, the panic happens between atomic operations) or
/// owned by the job itself and dropped with it.
pub(crate) fn guarded_catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_silencer_once();
    IN_WORKER_GUARD.with(|flag| flag.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    IN_WORKER_GUARD.with(|flag| flag.set(false));
    outcome.map_err(|payload| {
        payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let plan = FaultPlan::builder()
            .panic_at(3)
            .kill_worker_at(10)
            .delay_at(5, Duration::from_millis(2))
            .queue_full_at(7)
            .panic_every(100, 50)
            .build();
        assert_eq!(plan.at(3), Some(FaultAction::Panic));
        assert_eq!(plan.at(10), Some(FaultAction::KillWorker));
        assert_eq!(
            plan.at(5),
            Some(FaultAction::Delay(Duration::from_millis(2)))
        );
        assert_eq!(plan.at(7), Some(FaultAction::QueueFull));
        assert_eq!(plan.at(150), Some(FaultAction::Panic));
        assert_eq!(plan.at(151), None);
        assert_eq!(plan.at(0), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn exact_ordinals_override_periodic_rules() {
        let plan = FaultPlan::builder()
            .panic_every(4, 0)
            .kill_worker_at(8)
            .build();
        assert_eq!(plan.at(4), Some(FaultAction::Panic));
        assert_eq!(plan.at(8), Some(FaultAction::KillWorker));
    }

    #[test]
    fn env_grammar_roundtrip() {
        let plan = FaultPlan::parse("panic@*/4+1, kill@60, delay:5ms@7, full@9").unwrap();
        assert_eq!(plan.at(1), Some(FaultAction::Panic));
        assert_eq!(plan.at(5), Some(FaultAction::Panic));
        assert_eq!(plan.at(4), None);
        assert_eq!(plan.at(60), Some(FaultAction::KillWorker));
        assert_eq!(
            plan.at(7),
            Some(FaultAction::Delay(Duration::from_millis(5)))
        );
        assert_eq!(plan.at(9), Some(FaultAction::QueueFull));

        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("explode@3").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("panic@*/0").is_err());
        assert!(FaultPlan::parse("delay:5s@3").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn guarded_catch_returns_payload_and_survives() {
        assert_eq!(guarded_catch(|| 41 + 1), Ok(42));
        let caught = guarded_catch(|| -> u32 { panic!("injected fault #7") });
        assert_eq!(caught, Err("injected fault #7".to_owned()));
        let formatted = guarded_catch(|| -> u32 { panic!("ordinal {}", 9) });
        assert_eq!(formatted, Err("ordinal 9".to_owned()));
        // The guard resets: a later success is unaffected.
        assert_eq!(guarded_catch(|| "ok"), Ok("ok"));
    }
}
