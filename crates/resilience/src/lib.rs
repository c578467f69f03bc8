#![warn(missing_docs)]

//! Supervised-execution support: fault injection, watchdog budgets, and
//! the workspace-wide error taxonomy.
//!
//! The paper's premise is that one GraphIR program must run correctly on
//! a zoo of unreliable, wildly different architectures — and the Swarm
//! model already treats speculative task *aborts* as first-class events.
//! This crate extends that stance to the whole framework: faults are
//! simulable, recoverable inputs, not panics.
//!
//! Three pieces, used together by the supervisor in `ugc::Compiler`:
//!
//! * [`ErrorClass`] — the four-way taxonomy every failure is classified
//!   into. `Transient` failures are retried, `Budget` and `Invariant`
//!   failures trigger fallback, `Permanent` failures are returned as-is.
//! * [`fault`] — a deterministic seeded injector configured by
//!   `UGC_FAULTS=<domain>:<kind>:p=<prob>:seed=<n>[,...]` (or
//!   programmatically via [`fault::install`]) and consulted by the three
//!   timing simulators. Fatal faults are transported as typed panic
//!   payloads and converted back into classed errors at the GraphVM
//!   boundary; degraded faults are absorbed by the simulator as extra
//!   cycles.
//! * [`budget`] — cooperative wall-clock and simulated-cycle watchdogs.
//!   The supervisor arms them with a scope guard; the interpreter and the
//!   simulators check them at loop/charge granularity.
//!
//! Beside them, [`sim_kit`] is the machine-model kit the three simulators
//! share: one set-associative LRU cache, and the cycle ledger whose
//! `charge` is the one place simulated time advances and the cycle
//! watchdog runs.
//!
//! Telemetry: the injector and watchdogs publish
//! `resilience.faults_injected`, `resilience.retries`,
//! `resilience.fallbacks`, and `resilience.budget_kills` through
//! [`ugc_telemetry`]. Counters are registered lazily on the first actual
//! event, so a fault-free run's telemetry snapshot is byte-identical to a
//! build without this crate in the loop.

use std::sync::OnceLock;

use ugc_telemetry::Counter;

pub mod breaker;
pub mod budget;
pub mod fault;
pub mod sim_kit;

/// The workspace's standard 64-bit mixer (Steele et al.'s splitmix64
/// finalizer). Shared by the fault injector's draw streams and the
/// backoff jitter so both stay deterministic and seed-separable.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The workspace error taxonomy (tentpole item 4).
///
/// Classes drive supervisor policy, not just reporting:
///
/// * `Transient` — retrying the same backend may succeed (injected
///   kernel-launch failures, task-abort storms).
/// * `Permanent` — the input or program is wrong; no backend will do
///   better (parse errors, unbound externs, invalid configuration).
/// * `Budget` — a watchdog killed the attempt (runaway schedule); retry
///   is pointless but a cheaper backend or the reference may fit.
/// * `Invariant` — an internal invariant broke (a caught panic); the
///   backend is suspect, fall back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// May succeed on retry.
    Transient,
    /// Will fail the same way everywhere; do not retry.
    Permanent,
    /// Killed by a wall-clock or cycle watchdog.
    Budget,
    /// A broken internal invariant (caught panic).
    Invariant,
}

impl ErrorClass {
    /// Short lowercase label used in error messages and logs.
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Transient => "transient",
            ErrorClass::Permanent => "permanent",
            ErrorClass::Budget => "budget",
            ErrorClass::Invariant => "invariant",
        }
    }
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The `resilience.*` counter set, registered lazily so fault-free runs
/// leave no trace in telemetry snapshots.
pub(crate) struct Counters {
    pub faults_injected: Counter,
    pub retries: Counter,
    pub fallbacks: Counter,
    pub budget_kills: Counter,
}

pub(crate) fn counters() -> &'static Counters {
    static C: OnceLock<Counters> = OnceLock::new();
    C.get_or_init(|| Counters {
        faults_injected: Counter::new("resilience.faults_injected"),
        retries: Counter::new("resilience.retries"),
        fallbacks: Counter::new("resilience.fallbacks"),
        budget_kills: Counter::new("resilience.budget_kills"),
    })
}

/// Records one supervisor retry (`resilience.retries`).
pub fn count_retry() {
    counters().retries.incr();
}

/// Records one supervisor fallback (`resilience.fallbacks`).
pub fn count_fallback() {
    counters().fallbacks.incr();
}

/// Deterministic jittered exponential backoff for retry `attempt`
/// (0-based): an exponential base of 1ms, 2ms, 4ms capped at 8ms, plus
/// a splitmix64-derived jitter in `[0, base)` drawn from the
/// `(salt, attempt)` stream.
///
/// The jitter is *seeded*, not random: the same `(attempt, salt)` pair
/// always sleeps the same number of milliseconds, so reruns replay
/// exactly. Distinct salts desynchronize — coalesced serve lanes that
/// hit the same injected fault retry on different schedules instead of
/// stampeding the pool in lockstep, while the batch supervisor passes a
/// fixed salt and keeps its historical determinism.
pub fn backoff_ms(attempt: u32, salt: u64) -> u64 {
    let base = (1u64 << attempt.min(3)).min(8);
    let jitter = splitmix64(salt ^ u64::from(attempt).wrapping_mul(0xD134_2543_DE82_EF95)) % base;
    base + jitter
}

/// Installs (once, process-wide) a panic-hook wrapper that suppresses the
/// default "thread panicked" report for this crate's typed payloads
/// ([`fault::FaultPayload`], [`budget::BudgetPayload`]). Those panics are
/// transport to the nearest containment boundary, not crashes; every
/// other panic still reaches the previously installed hook untouched.
pub fn silence_supervised_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<fault::FaultPayload>().is_none()
                && p.downcast_ref::<budget::BudgetPayload>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Classifies a caught panic payload into `(class, message)`.
///
/// Typed payloads raised by this crate ([`fault::FaultPayload`],
/// [`budget::BudgetPayload`]) map to `Transient` and `Budget`; anything
/// else is a genuine broken invariant.
pub fn classify_panic(payload: &(dyn std::any::Any + Send)) -> (ErrorClass, String) {
    if let Some(f) = payload.downcast_ref::<fault::FaultPayload>() {
        return (ErrorClass::Transient, f.to_string());
    }
    if let Some(b) = payload.downcast_ref::<budget::BudgetPayload>() {
        return (ErrorClass::Budget, b.to_string());
    }
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    (ErrorClass::Invariant, format!("panic: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        // Pinned sequences: base 1/2/4/8 (capped) plus seeded jitter in
        // [0, base). A change here is a replay-compatibility break.
        let seq = |salt: u64| (0..6).map(|a| backoff_ms(a, salt)).collect::<Vec<_>>();
        assert_eq!(seq(0), [1, 2, 5, 10, 14, 11]);
        assert_eq!(seq(0x5EED), [1, 3, 5, 14, 11, 11]);
        assert_eq!(seq(42), [1, 3, 4, 15, 8, 8]);
        // Same stream replays; the bounds hold for every attempt.
        for salt in [0u64, 1, 0x5EED, u64::MAX] {
            for attempt in 0..32 {
                let base = (1u64 << attempt.min(3)).min(8);
                let ms = backoff_ms(attempt, salt);
                assert_eq!(ms, backoff_ms(attempt, salt), "replayable");
                assert!(ms >= base && ms < 2 * base, "jitter bounded by base");
            }
        }
    }

    #[test]
    fn backoff_salts_desynchronize_lanes() {
        // Two lanes retrying the same fault with different salts must not
        // share a schedule (the thundering-herd case jitter exists for).
        let a: Vec<u64> = (0..8).map(|n| backoff_ms(n, 1)).collect();
        let b: Vec<u64> = (0..8).map(|n| backoff_ms(n, 2)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn classify_string_panics_as_invariant() {
        let (class, msg) = classify_panic(&"boom".to_string());
        assert_eq!(class, ErrorClass::Invariant);
        assert!(msg.contains("boom"));
    }

    #[test]
    fn class_labels_round_trip_display() {
        for c in [
            ErrorClass::Transient,
            ErrorClass::Permanent,
            ErrorClass::Budget,
            ErrorClass::Invariant,
        ] {
            assert_eq!(c.to_string(), c.label());
        }
    }
}
