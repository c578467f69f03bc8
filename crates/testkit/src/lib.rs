#![warn(missing_docs)]

//! In-tree property-based testing harness.
//!
//! A hermetic, std-only replacement for the `proptest` crate, so the
//! workspace builds and tests offline with zero external dependencies. It
//! keeps the three ingredients the seed tests actually used:
//!
//! * **Seeded case generation** — every test derives one independent,
//!   reproducible [`Prng`] stream per case from a base seed
//!   (overridable via `UGC_TESTKIT_SEED`), so failures replay exactly.
//! * **Failure reporting** — a failing property panics with the base seed,
//!   case index, original and shrunk inputs, and the inner panic message.
//! * **Bounded shrinking** — on failure the input is shrunk toward a
//!   smaller counterexample via the [`Shrink`] trait (or a custom
//!   shrinker), capped at [`Config::max_shrink_steps`] steps.
//!
//! # Example
//!
//! ```
//! use ugc_testkit::{check, Config, Prng};
//!
//! check(
//!     "reverse_is_involution",
//!     Config::default(),
//!     |rng: &mut Prng| {
//!         let len = rng.gen_range(0..32usize);
//!         (0..len).map(|_| rng.gen_range(0..100u32)).collect::<Vec<u32>>()
//!     },
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(&w, v);
//!     },
//! );
//! ```

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use ugc_graph::prng::{Prng, SplitMix64};

/// Knobs for a property run. `UGC_TESTKIT_SEED` and `UGC_TESTKIT_CASES`
/// environment variables override the defaults, which is how a failure
/// printed by the reporter is replayed.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed; case `i` uses the independent stream `(seed, i)`.
    pub seed: u64,
    /// Maximum accepted shrink steps before reporting.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        let seed = env_u64("UGC_TESTKIT_SEED").unwrap_or(0x5EED_CAFE);
        let cases = env_u64("UGC_TESTKIT_CASES").unwrap_or(64) as u32;
        Self {
            cases,
            seed,
            max_shrink_steps: 512,
        }
    }
}

impl Config {
    /// A config running `cases` cases (other fields default).
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Types that can propose strictly-simpler variants of themselves.
///
/// Candidates should be ordered simplest-first and must be "smaller" by
/// some well-founded measure so shrinking terminates; the harness
/// additionally bounds the number of accepted steps.
pub trait Shrink: Sized {
    /// Returns candidate simplifications of `self` (possibly empty).
    fn shrink(&self) -> Vec<Self>;
}

macro_rules! impl_shrink_int {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v == 0 {
                    return out;
                }
                out.push(0);
                if v / 2 != 0 && v / 2 != v {
                    out.push(v / 2);
                }
                if v > 0 {
                    out.push(v - 1);
                }
                out.dedup();
                out
            }
        }
    )*};
}

impl_shrink_int!(usize, u64, u32, u16, u8);

macro_rules! impl_shrink_signed {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v == 0 {
                    return out;
                }
                out.push(0);
                if v < 0 && v != <$t>::MIN {
                    out.push(-v);
                }
                if v / 2 != 0 && v / 2 != v {
                    out.push(v / 2);
                }
                out.dedup();
                out
            }
        }
    )*};
}

impl_shrink_signed!(isize, i64, i32, i16, i8);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            vec![]
        }
    }
}

impl<T: Clone + Shrink> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        // Structural shrinks first: drop whole chunks (empty, halves),
        // then drop single elements, then shrink individual elements.
        out.push(Vec::new());
        if self.len() > 1 {
            out.push(self[..self.len() / 2].to_vec());
            out.push(self[self.len() / 2..].to_vec());
        }
        for i in 0..self.len().min(8) {
            let mut v = self.clone();
            v.remove(i);
            out.push(v);
        }
        for i in 0..self.len().min(4) {
            for cand in self[i].shrink() {
                let mut v = self.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

impl<A: Clone + Shrink, B: Clone + Shrink> Shrink for (A, B) {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = self
            .0
            .shrink()
            .into_iter()
            .map(|a| (a, self.1.clone()))
            .collect();
        out.extend(self.1.shrink().into_iter().map(|b| (self.0.clone(), b)));
        out
    }
}

impl<A: Clone + Shrink, B: Clone + Shrink, C: Clone + Shrink> Shrink for (A, B, C) {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = self
            .0
            .shrink()
            .into_iter()
            .map(|a| (a, self.1.clone(), self.2.clone()))
            .collect();
        out.extend(
            self.1
                .shrink()
                .into_iter()
                .map(|b| (self.0.clone(), b, self.2.clone())),
        );
        out.extend(
            self.2
                .shrink()
                .into_iter()
                .map(|c| (self.0.clone(), self.1.clone(), c)),
        );
        out
    }
}

/// Wrapper that disables shrinking for its contents (used when no
/// meaningful simplification order exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoShrink<T>(pub T);

impl<T> Shrink for NoShrink<T>
where
    T: Clone,
{
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// Runs `prop` against [`Config::cases`] inputs drawn from `gen`, shrinking
/// failures with [`Shrink`]. Panics (with a replayable report) on the first
/// failing case.
pub fn check<T, G, P>(name: &str, cfg: Config, gen: G, prop: P)
where
    T: Debug + Clone + Shrink,
    G: Fn(&mut Prng) -> T,
    P: Fn(&T),
{
    check_with_shrink(name, cfg, gen, |v| v.shrink(), prop);
}

/// Like [`check`] but with an explicit shrinker, for inputs whose validity
/// invariants the generic [`Shrink`] impls would not preserve (e.g. keep a
/// vertex count fixed while only removing edges).
pub fn check_with_shrink<T, G, S, P>(name: &str, cfg: Config, gen: G, shrink: S, prop: P)
where
    T: Debug + Clone,
    G: Fn(&mut Prng) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T),
{
    for case in 0..cfg.cases {
        let mut rng = Prng::with_stream(cfg.seed, case as u64);
        let input = gen(&mut rng);
        if let Err(payload) = run_one(&prop, &input) {
            let (shrunk, steps) =
                shrink_failure(&shrink, &prop, input.clone(), cfg.max_shrink_steps);
            let msg = payload_message(&payload);
            panic!(
                "property '{name}' failed\n\
                 \x20 base seed : {seed} (replay: UGC_TESTKIT_SEED={seed})\n\
                 \x20 case      : {case} of {cases}\n\
                 \x20 original  : {input:?}\n\
                 \x20 shrunk    : {shrunk:?} (after {steps} accepted shrink steps)\n\
                 \x20 panic     : {msg}",
                seed = cfg.seed,
                cases = cfg.cases,
            );
        }
    }
}

/// Runs the property once, catching panics. `Ok(())` means it passed.
fn run_one<T, P: Fn(&T)>(prop: &P, input: &T) -> Result<(), Box<dyn std::any::Any + Send>> {
    let hook = PanicHookSilencer::engage();
    let r = catch_unwind(AssertUnwindSafe(|| prop(input)));
    drop(hook);
    r.map(|_| ())
}

/// Greedy first-fit shrinking: repeatedly take the first candidate that
/// still fails, up to `max_steps` accepted steps.
fn shrink_failure<T, S, P>(shrink: &S, prop: &P, mut current: T, max_steps: u32) -> (T, u32)
where
    T: Debug + Clone,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T),
{
    let mut steps = 0;
    'outer: while steps < max_steps {
        for cand in shrink(&current) {
            if run_one(prop, &cand).is_err() {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break; // local minimum: no candidate still fails
    }
    (current, steps)
}

fn payload_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Suppresses the default "thread panicked at" stderr spam while the
/// harness probes shrink candidates (hundreds of expected panics).
///
/// The hook is global to the process, and `cargo test` runs tests on many
/// threads, so a wrapping hook is installed once and each thread keeps its
/// own count of engaged silencers: the hook runs on the panicking thread
/// and prints through the previous hook only while that thread's count is
/// zero. Another thread's panic — a failing property's seed and shrink
/// report included — prints even while this thread is probing.
///
/// The hook is installed under a `Once`, never under a lock the hook
/// itself takes: the panic machinery holds the hook lock while it runs the
/// hook, so a hook that waits on a mutex whose holder is inside
/// `take_hook` deadlocks two concurrently failing tests.
struct PanicHookSilencer;

thread_local! {
    static SILENCED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

impl PanicHookSilencer {
    fn engage() -> Self {
        static INSTALL: std::sync::Once = std::sync::Once::new();
        INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                // A panic during thread teardown, after the count is gone,
                // is never a probe: print it.
                if SILENCED.try_with(|n| n.get()).unwrap_or(0) == 0 {
                    prev(info);
                }
            }));
        });
        SILENCED.with(|n| n.set(n.get() + 1));
        PanicHookSilencer
    }
}

impl Drop for PanicHookSilencer {
    fn drop(&mut self) {
        // `try_with`: a drop must not panic, even during thread teardown.
        let _ = SILENCED.try_with(|n| n.set(n.get() - 1));
    }
}

/// Common generator combinators.
pub mod gen {
    use super::Prng;

    /// A `Vec` of `len_range`-many elements drawn from `f`.
    pub fn vec_of<T>(
        rng: &mut Prng,
        len_range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Prng) -> T,
    ) -> Vec<T> {
        let len = rng.gen_range(len_range);
        (0..len).map(|_| f(rng)).collect()
    }

    /// One element of `choices`, uniformly.
    pub fn one_of<T: Copy>(rng: &mut Prng, choices: &[T]) -> T {
        choices[rng.gen_range(0..choices.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check(
            "always_true",
            Config {
                cases: 17,
                seed: 1,
                max_shrink_steps: 16,
            },
            |rng| rng.gen_range(0..100u32),
            |_| {
                counter.set(counter.get() + 1);
            },
        );
        seen += counter.get();
        assert_eq!(seen, 17);
    }

    #[test]
    fn cases_are_reproducible_per_seed() {
        let collect = |seed| {
            let vals = std::cell::RefCell::new(Vec::new());
            check(
                "collect",
                Config {
                    cases: 8,
                    seed,
                    max_shrink_steps: 0,
                },
                |rng| rng.gen_u64(),
                |v| vals.borrow_mut().push(*v),
            );
            vals.into_inner()
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }

    #[test]
    fn failing_property_reports_and_shrinks() {
        let r = std::panic::catch_unwind(|| {
            check(
                "has_no_big_element",
                Config {
                    cases: 64,
                    seed: 7,
                    max_shrink_steps: 256,
                },
                |rng| {
                    let len = rng.gen_range(1..20usize);
                    (0..len)
                        .map(|_| rng.gen_range(0..100u32))
                        .collect::<Vec<u32>>()
                },
                |v| assert!(v.iter().all(|&x| x < 50), "found big element"),
            );
        });
        let msg = payload_message(&r.expect_err("property must fail"));
        assert!(msg.contains("has_no_big_element"), "{msg}");
        assert!(msg.contains("UGC_TESTKIT_SEED=7"), "{msg}");
        assert!(msg.contains("found big element"), "{msg}");
        // Greedy shrinking over this input space converges to one element.
        assert!(msg.contains("shrunk    : [50]"), "{msg}");
    }

    #[test]
    fn custom_shrinker_preserves_invariants() {
        // n stays fixed; only members shrink.
        let r = std::panic::catch_unwind(|| {
            check_with_shrink(
                "members_short",
                Config {
                    cases: 32,
                    seed: 3,
                    max_shrink_steps: 128,
                },
                |rng| {
                    let n = rng.gen_range(50..60usize);
                    let members = gen::vec_of(rng, 0..40, |r| r.gen_range(0..50u32));
                    (n, members)
                },
                |(n, members)| {
                    members
                        .shrink()
                        .into_iter()
                        .map(|m| (*n, m))
                        .collect::<Vec<_>>()
                },
                |(n, members)| {
                    assert!(*n >= 50, "invariant broken by shrinking");
                    assert!(members.len() < 30, "too many members");
                },
            );
        });
        let msg = payload_message(&r.expect_err("property must fail"));
        assert!(msg.contains("too many members"), "{msg}");
        assert!(!msg.contains("invariant broken"), "{msg}");
    }

    #[test]
    fn int_shrink_is_well_founded() {
        // Every candidate is strictly smaller in magnitude, so shrinking
        // terminates without the step bound.
        for v in [1u32, 2, 17, u32::MAX] {
            for c in v.shrink() {
                assert!(c < v);
            }
        }
        for v in [-1i32, -2, 5, i32::MIN + 1] {
            for c in v.shrink() {
                assert!(c.unsigned_abs() < v.unsigned_abs() || (c >= 0 && v < 0));
            }
        }
    }

    #[test]
    fn noshrink_never_shrinks() {
        assert!(NoShrink(vec![1, 2, 3]).shrink().is_empty());
    }

    /// One case, no shrinking: each property fails on its first input.
    const ONE_CASE: Config = Config {
        cases: 1,
        seed: 11,
        max_shrink_steps: 0,
    };

    /// Spins until `flag` is set; panics after a generous deadline so a
    /// broken interleaving fails instead of hanging.
    fn wait_for(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !flag.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "helper interleaving timed out");
            std::thread::yield_now();
        }
    }

    /// Two properties fail on two threads; `first`'s report is raised while
    /// `second` is still inside its property run. Run by
    /// `both_concurrent_failure_reports_reach_stderr` in a child process,
    /// whose stderr it reads.
    #[test]
    #[ignore = "helper: run in a child process by both_concurrent_failure_reports_reach_stderr"]
    fn concurrent_failures_helper() {
        static SECOND_INSIDE: AtomicBool = AtomicBool::new(false);
        static FIRST_REPORTED: AtomicBool = AtomicBool::new(false);

        let second = std::thread::spawn(|| {
            check(
                "second_fails",
                ONE_CASE,
                |rng| rng.gen_range(0..10u32),
                |_| {
                    SECOND_INSIDE.store(true, Ordering::SeqCst);
                    wait_for(&FIRST_REPORTED);
                    panic!("second property broke");
                },
            )
        });
        wait_for(&SECOND_INSIDE);
        let first = std::thread::spawn(|| {
            check(
                "first_fails",
                ONE_CASE,
                |rng| rng.gen_range(0..10u32),
                |_| panic!("first property broke"),
            )
        });
        assert!(first.join().is_err(), "first property must fail");
        FIRST_REPORTED.store(true, Ordering::SeqCst);
        assert!(second.join().is_err(), "second property must fail");
    }

    /// A failing property's report reaches stderr even while another
    /// thread is inside the harness probing its own (silenced) panics.
    #[test]
    fn both_concurrent_failure_reports_reach_stderr() {
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                "tests::concurrent_failures_helper",
                "--exact",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .output()
            .expect("running the helper");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "helper failed:\n{stderr}");
        for name in ["first", "second"] {
            let report = format!("property '{name}_fails' failed");
            assert!(stderr.contains(&report), "missing `{report}` in:\n{stderr}");
            assert!(
                stderr.contains(&format!("panic     : {name} property broke")),
                "missing {name}'s panic message in:\n{stderr}"
            );
        }
        assert_eq!(
            stderr.matches("UGC_TESTKIT_SEED=11").count(),
            2,
            "both reports carry their replay seed:\n{stderr}"
        );
    }
}
