//! Deterministic search over a declared schedule space.
//!
//! Two strategies, both driven by the in-tree PRNG so the same seed always
//! explores (and returns) the same candidates:
//!
//! * **Exhaustive** — visits every point of the cross-product in a stable
//!   (odometer) order. Exact on the deterministic simulator targets; the
//!   default whenever the space fits the evaluation budget.
//! * **Greedy descent** — seeded random restarts followed by greedy
//!   coordinate descent: sweep each dimension in turn, move to the best
//!   level, repeat until a full sweep makes no progress. The classic
//!   OpenTuner-style climb for spaces too large to enumerate.
//!
//! Cost comes from a caller-supplied evaluator (the bench harness passes
//! its `measure`: wall time on CPU, simulated cycles elsewhere). Evaluated
//! points are memoized, so the budget counts *distinct* measurements.
//!
//! On top of the blind strategies sits the **cost model** (on by default,
//! [`Tuner::cost_model`]): after each measured candidate, the incumbent's
//! dominant attribution component ([`Attribution::dominant`] of
//! [`Sample::attribution`]) is matched against the backend's declared
//! [`PruneRule`](ugc_schedule::space::PruneRule) table, and coordinate
//! sweeps along axes that cannot move that component are skipped. Every
//! skip is recorded as an [`AxisPrune`] — the measured budget saved and the
//! component that justified it — so `repro tune --explain` can print a
//! balanced budget report. [`tune_warm`] additionally accepts a warm-start
//! point (the cached winner of the nearest-fingerprint graph) that replaces
//! the first random restart.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use ugc::Attribution;
use ugc_graph::prng::Prng;
use ugc_schedule::space::{
    cardinality, point_fits, point_label, Dimension, PointIter, ScheduleSpace, SpaceParams,
};
use ugc_schedule::ScheduleRef;
use ugc_telemetry::Counter;

/// A component must hold at least this share of the attribution total
/// before the cost model treats it as dominant and prunes on it.
pub const DOMINANCE_THRESHOLD: u32 = 50;

/// Counts coordinate-axis sweeps skipped by the cost model.
fn prune_axes_counter() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    CELL.get_or_init(|| Counter::new("autotune.prune.axes"))
}

/// Counts candidate measurements the cost model avoided.
fn prune_saved_counter() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    CELL.get_or_init(|| Counter::new("autotune.prune.saved"))
}

/// Cost of one measured candidate: the target-appropriate time plus where
/// it went, which the cost model prunes on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sample {
    /// Milliseconds — wall-clock (CPU) or simulated (the other targets).
    pub time_ms: f64,
    /// Simulated cycles (0 on CPU).
    pub cycles: u64,
    /// The measured run's attribution (`RunResult::attribution`); empty
    /// when the evaluator does not report one.
    pub attribution: Attribution,
}

/// One measured candidate in a [`TuneOutcome`]'s ranking.
#[derive(Debug, Clone)]
pub struct Ranked {
    /// Human-readable name: a `dim=level` label for space points, the
    /// caller-given name for pinned candidates.
    pub name: String,
    /// The point's level indices; `None` for pinned candidates.
    pub point: Option<Vec<usize>>,
    /// The materialized schedule.
    pub schedule: ScheduleRef,
    /// Its measured cost.
    pub sample: Sample,
}

/// One cost-model pruning decision, aggregated per (axis, component):
/// which axis was skipped, which dominant component justified it, and how
/// many candidate measurements the skip saved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisPrune {
    /// The pruned dimension's name.
    pub axis: &'static str,
    /// The dominant attribution component that triggered the rule.
    pub component: String,
    /// The component's share (%) when the rule first fired.
    pub share: u32,
    /// The backend's declared justification.
    pub reason: &'static str,
    /// Unmeasured candidate points the skipped sweeps would have visited.
    pub saved: usize,
}

/// The result of a tuning run: every measured candidate, best first.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Candidates sorted by ascending time (ties broken by name, so the
    /// ranking is deterministic).
    pub ranked: Vec<Ranked>,
    /// Distinct space points measured (excludes pinned candidates).
    pub explored: usize,
    /// Raw cross-product size of the space.
    pub cardinality: u64,
    /// Which strategy ran: `"exhaustive"` or `"greedy"`.
    pub strategy: &'static str,
    /// Cost-model pruning decisions (empty for blind/exhaustive runs).
    pub pruned: Vec<AxisPrune>,
    /// The warm-start point's label when one seeded the first restart.
    pub warm_start: Option<String>,
}

impl TuneOutcome {
    /// The winning candidate.
    ///
    /// # Panics
    ///
    /// Never panics: [`tune`] returns an error instead of an empty ranking.
    pub fn winner(&self) -> &Ranked {
        &self.ranked[0]
    }

    /// The ranked entry with the given name, if it was measured.
    pub fn find(&self, name: &str) -> Option<&Ranked> {
        self.ranked.iter().find(|r| r.name == name)
    }

    /// Total candidate measurements the cost model avoided.
    pub fn saved(&self) -> usize {
        self.pruned.iter().map(|p| p.saved).sum()
    }
}

/// Search strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Exhaustive when the space fits the budget, greedy otherwise.
    #[default]
    Auto,
    /// Always enumerate (still capped at the budget).
    Exhaustive,
    /// Always random-restart + coordinate descent.
    GreedyDescent,
}

/// Tuning knobs. Everything is deterministic per [`Tuner::seed`].
#[derive(Debug, Clone, Copy)]
pub struct Tuner {
    /// PRNG seed for restarts (and any future stochastic strategy).
    pub seed: u64,
    /// Maximum number of distinct space points to measure.
    pub budget: usize,
    /// Strategy selection.
    pub strategy: Strategy,
    /// Random restarts for greedy descent.
    pub restarts: usize,
    /// Attribution-guided pruning: skip coordinate sweeps the backend's
    /// [`PruneRule`] table says cannot move the incumbent's dominant
    /// component. Only affects greedy descent; inert when the samples carry
    /// no attribution (the CPU with telemetry off) or the backend declares
    /// no rules.
    pub cost_model: bool,
}

impl Default for Tuner {
    fn default() -> Self {
        Tuner {
            seed: 0x7E57_5EED,
            budget: 64,
            strategy: Strategy::Auto,
            restarts: 3,
            cost_model: true,
        }
    }
}

/// Why a tuning run produced no winner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The space declared no candidates and nothing was pinned.
    EmptySpace {
        /// The backend whose space was empty.
        target: String,
    },
    /// Every candidate's evaluation failed.
    AllCandidatesFailed {
        /// The backend being tuned.
        target: String,
        /// The last evaluator error, for diagnosis.
        last_error: String,
    },
    /// The persistent cache could not be read or written.
    Cache(String),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::EmptySpace { target } => {
                write!(f, "schedule search space for `{target}` is empty")
            }
            TuneError::AllCandidatesFailed { target, last_error } => {
                write!(
                    f,
                    "every candidate schedule for `{target}` failed to evaluate (last: {last_error})"
                )
            }
            TuneError::Cache(msg) => write!(f, "tuning cache error: {msg}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Shared mutable state of one search: memoized point evaluation so the
/// budget counts *distinct* measurements.
struct SearchState<'a, E> {
    space: &'a dyn ScheduleSpace,
    params: &'a SpaceParams,
    dims: &'a [Dimension],
    eval: E,
    /// point -> index into `ranked` (`None` for alias/failed points).
    memo: HashMap<Vec<usize>, Option<usize>>,
    ranked: Vec<Ranked>,
    explored: usize,
    attempted: usize,
    last_error: String,
    budget: usize,
}

impl<E> SearchState<'_, &mut E>
where
    E: FnMut(&ScheduleRef) -> Result<Sample, String>,
{
    fn exhausted(&self) -> bool {
        self.explored >= self.budget
    }

    /// Measures `pt` (memoized), returning its time if it evaluated.
    fn eval_point(&mut self, pt: &[usize]) -> Option<f64> {
        if let Some(&slot) = self.memo.get(pt) {
            return slot.map(|i| self.ranked[i].sample.time_ms);
        }
        if self.exhausted() {
            return None;
        }
        let Some(sched) = self.space.materialize(self.params, pt) else {
            self.memo.insert(pt.to_vec(), None);
            return None;
        };
        self.explored += 1;
        self.attempted += 1;
        match (self.eval)(&sched) {
            Ok(sample) => {
                let time_ms = sample.time_ms;
                self.ranked.push(Ranked {
                    name: point_label(self.dims, pt),
                    point: Some(pt.to_vec()),
                    schedule: sched,
                    sample,
                });
                self.memo.insert(pt.to_vec(), Some(self.ranked.len() - 1));
                Some(time_ms)
            }
            Err(e) => {
                self.last_error = e;
                self.memo.insert(pt.to_vec(), None);
                None
            }
        }
    }

    /// The incumbent point's dominant attribution component, if its
    /// measured attribution shows one above [`DOMINANCE_THRESHOLD`].
    fn dominant_of(&self, pt: &[usize]) -> Option<(&'static str, u32)> {
        let idx = (*self.memo.get(pt)?)?;
        let (comp, share) = self.ranked[idx].sample.attribution.dominant()?;
        (share >= DOMINANCE_THRESHOLD).then_some((comp, share))
    }

    /// How many unmeasured candidates a sweep of dimension `d` from `pt`
    /// would visit — the honest budget saved by skipping it.
    fn sweep_cost(&self, pt: &[usize], d: usize) -> usize {
        (0..self.dims[d].levels.len())
            .filter(|&level| level != pt[d])
            .filter(|&level| {
                let mut cand = pt.to_vec();
                cand[d] = level;
                !self.memo.contains_key(&cand)
            })
            .count()
    }
}

/// Aggregates one skip into the per-(axis, component) prune records.
fn record_prune(
    prunes: &mut Vec<AxisPrune>,
    axis: &'static str,
    component: &str,
    share: u32,
    reason: &'static str,
    saved: usize,
) {
    if let Some(p) = prunes
        .iter_mut()
        .find(|p| p.axis == axis && p.component == component)
    {
        p.saved += saved;
    } else {
        prunes.push(AxisPrune {
            axis,
            component: component.to_string(),
            share,
            reason,
            saved,
        });
    }
}

/// Searches `space` for the fastest schedule under `eval`, additionally
/// measuring the `pinned` candidates (name, schedule) so reference
/// schedules — e.g. the hand-tuned one — are always part of the ranking
/// and the winner can never lose to them.
///
/// # Errors
///
/// [`TuneError::EmptySpace`] when there is nothing to measure at all, and
/// [`TuneError::AllCandidatesFailed`] when every evaluation failed.
pub fn tune<E>(
    space: &dyn ScheduleSpace,
    params: &SpaceParams,
    pinned: &[(String, ScheduleRef)],
    tuner: &Tuner,
    eval: E,
) -> Result<TuneOutcome, TuneError>
where
    E: FnMut(&ScheduleRef) -> Result<Sample, String>,
{
    tune_warm(space, params, pinned, tuner, None, eval)
}

/// [`tune`] with an optional warm-start point: when `warm` names a valid
/// point of the space, it replaces the first random restart of greedy
/// descent, so a search seeded from a near-optimal cached winner (the
/// nearest-fingerprint graph's schedule) converges in far fewer
/// measurements than a cold one. An invalid or stale point (wrong shape
/// for the current space, alias, failed evaluation) falls back to the
/// normal random start — never an error.
///
/// # Errors
///
/// Same as [`tune`].
pub fn tune_warm<E>(
    space: &dyn ScheduleSpace,
    params: &SpaceParams,
    pinned: &[(String, ScheduleRef)],
    tuner: &Tuner,
    warm: Option<&[usize]>,
    mut eval: E,
) -> Result<TuneOutcome, TuneError>
where
    E: FnMut(&ScheduleRef) -> Result<Sample, String>,
{
    let dims = space.dimensions(params);
    let card = cardinality(&dims);
    let mut st = SearchState {
        space,
        params,
        dims: &dims,
        eval: &mut eval,
        memo: HashMap::new(),
        ranked: Vec::new(),
        explored: 0,
        attempted: 0,
        last_error: String::new(),
        budget: tuner.budget.max(1),
    };

    for (name, sched) in pinned {
        st.attempted += 1;
        match (st.eval)(sched) {
            Ok(sample) => st.ranked.push(Ranked {
                name: name.clone(),
                point: None,
                schedule: sched.clone(),
                sample,
            }),
            Err(e) => st.last_error = e,
        }
    }

    let exhaustive = match tuner.strategy {
        Strategy::Exhaustive => true,
        Strategy::GreedyDescent => false,
        Strategy::Auto => card as usize <= st.budget,
    };

    let rules = space.prune_rules();
    let use_cost_model = tuner.cost_model && !rules.is_empty();
    let mut prunes: Vec<AxisPrune> = Vec::new();
    let mut warm_used: Option<String> = None;

    if exhaustive {
        for pt in PointIter::new(&dims) {
            if st.exhausted() {
                break;
            }
            st.eval_point(&pt);
        }
    } else if !dims.is_empty() {
        let mut rng = Prng::new(tuner.seed);
        'restarts: for restart in 0..tuner.restarts.max(1) {
            // A starting point: the warm-start candidate replaces the
            // first restart's random draw when it is a valid point of
            // this space and evaluates.
            let mut current: Option<(Vec<usize>, f64)> = None;
            if restart == 0 {
                if let Some(w) = warm {
                    if point_fits(&dims, w) {
                        if let Some(t) = st.eval_point(w) {
                            warm_used = Some(point_label(&dims, w));
                            current = Some((w.to_vec(), t));
                        }
                    }
                }
            }
            if current.is_none() {
                for _ in 0..64 {
                    let pt: Vec<usize> = dims
                        .iter()
                        .map(|d| rng.gen_range(0..d.levels.len()))
                        .collect();
                    if let Some(t) = st.eval_point(&pt) {
                        current = Some((pt, t));
                        break;
                    }
                    if st.exhausted() {
                        break 'restarts;
                    }
                }
            }
            let Some((mut pt, mut best)) = current else {
                continue;
            };
            // Greedy coordinate descent until a sweep stalls.
            loop {
                let mut improved = false;
                for d in 0..dims.len() {
                    // Cost model: when the incumbent's dominant
                    // attribution component cannot be moved by this
                    // axis (per the backend's table), skip the sweep
                    // and record the measurements it would have cost.
                    if use_cost_model {
                        if let Some((comp, share)) = st.dominant_of(&pt) {
                            if let Some(rule) = rules
                                .iter()
                                .find(|r| r.component == comp && r.axis == dims[d].name)
                            {
                                let saved = st.sweep_cost(&pt, d);
                                record_prune(
                                    &mut prunes,
                                    rule.axis,
                                    comp,
                                    share,
                                    rule.reason,
                                    saved,
                                );
                                continue;
                            }
                        }
                    }
                    let original = pt[d];
                    for level in 0..dims[d].levels.len() {
                        if level == original {
                            continue;
                        }
                        let mut cand = pt.clone();
                        cand[d] = level;
                        if let Some(t) = st.eval_point(&cand) {
                            if t < best {
                                best = t;
                                pt = cand;
                                improved = true;
                            }
                        }
                    }
                }
                if !improved || st.exhausted() {
                    break;
                }
            }
            if st.exhausted() {
                break;
            }
        }
    }

    let SearchState {
        mut ranked,
        explored,
        attempted,
        last_error,
        ..
    } = st;

    if ranked.is_empty() {
        if attempted == 0 {
            return Err(TuneError::EmptySpace {
                target: space.target_name().to_string(),
            });
        }
        return Err(TuneError::AllCandidatesFailed {
            target: space.target_name().to_string(),
            last_error,
        });
    }

    // Re-measure the pinned incumbents now that the session is warm. They
    // were measured first — cold caches, first-touch faults — so a single
    // noisy-high sample could hand the win to a space point that is
    // actually slower than the schedule we already ship. Keep each
    // incumbent's better sample; the winner can then never lose to a
    // pinned reference on measurement noise alone.
    for r in ranked.iter_mut().filter(|r| r.point.is_none()) {
        if let Ok(again) = eval(&r.schedule) {
            if again.time_ms < r.sample.time_ms {
                r.sample = again;
            }
        }
    }

    ranked.sort_by(|a, b| {
        a.sample
            .time_ms
            .total_cmp(&b.sample.time_ms)
            .then_with(|| a.name.cmp(&b.name))
    });

    if !prunes.is_empty() {
        prune_axes_counter().add(prunes.len() as u64);
        let saved: usize = prunes.iter().map(|p| p.saved).sum();
        prune_saved_counter().add(saved as u64);
    }

    Ok(TuneOutcome {
        ranked,
        explored,
        cardinality: card,
        strategy: if exhaustive { "exhaustive" } else { "greedy" },
        pruned: prunes,
        warm_start: warm_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_schedule::space::{Dimension, PruneRule};
    use ugc_schedule::DefaultSchedule;

    /// A synthetic 3×4×5 space whose cost is a separable function of the
    /// point, with the optimum at (2, 0, 4).
    #[derive(Debug)]
    struct Synthetic;

    impl ScheduleSpace for Synthetic {
        fn target_name(&self) -> &'static str {
            "synthetic"
        }
        fn dimensions(&self, _p: &SpaceParams) -> Vec<Dimension> {
            vec![
                Dimension::new("a", vec!["a0", "a1", "a2"]),
                Dimension::new("b", vec!["b0", "b1", "b2", "b3"]),
                Dimension::new("c", vec!["c0", "c1", "c2", "c3", "c4"]),
            ]
        }
        fn materialize(&self, _p: &SpaceParams, point: &[usize]) -> Option<ScheduleRef> {
            // Encode the point in the hybrid threshold so the evaluator
            // can recover it from the schedule alone.
            let code = (point[0] * 100 + point[1] * 10 + point[2]) as f64;
            #[derive(Debug)]
            struct Coded(f64);
            impl ugc_schedule::SimpleSchedule for Coded {
                fn hybrid_threshold(&self) -> f64 {
                    self.0
                }
                fn as_any(&self) -> &dyn std::any::Any {
                    self
                }
            }
            Some(ScheduleRef::simple(Coded(code)))
        }
    }

    fn cost_of(sched: &ScheduleRef) -> f64 {
        let code = sched.representative().hybrid_threshold() as usize;
        let (a, b, c) = (code / 100, (code / 10) % 10, code % 10);
        // Separable, so coordinate descent finds the global optimum.
        ((a as f64) - 2.0).abs() + (b as f64) + (4.0 - c as f64) + 1.0
    }

    fn params() -> SpaceParams {
        SpaceParams {
            ordered: false,
            data_driven: false,
            num_vertices: 10,
        }
    }

    fn run(tuner: &Tuner) -> TuneOutcome {
        tune(&Synthetic, &params(), &[], tuner, |s| {
            Ok(Sample {
                time_ms: cost_of(s),
                cycles: 0,
                ..Sample::default()
            })
        })
        .unwrap()
    }

    #[test]
    fn exhaustive_finds_the_optimum() {
        let out = run(&Tuner {
            budget: 60,
            ..Tuner::default()
        });
        assert_eq!(out.strategy, "exhaustive");
        assert_eq!(out.explored, 60);
        assert_eq!(out.winner().point, Some(vec![2, 0, 4]));
        assert_eq!(out.winner().name, "a=a2,b=b0,c=c4");
    }

    #[test]
    fn greedy_finds_the_separable_optimum_within_budget() {
        let out = run(&Tuner {
            budget: 30,
            seed: 11,
            ..Tuner::default()
        });
        assert_eq!(out.strategy, "greedy");
        assert!(out.explored <= 30);
        assert_eq!(out.winner().point, Some(vec![2, 0, 4]));
    }

    #[test]
    fn same_seed_same_outcome() {
        let t = Tuner {
            budget: 20,
            seed: 99,
            strategy: Strategy::GreedyDescent,
            restarts: 2,
            cost_model: true,
        };
        let (a, b) = (run(&t), run(&t));
        assert_eq!(a.explored, b.explored);
        assert_eq!(
            a.ranked.iter().map(|r| &r.name).collect::<Vec<_>>(),
            b.ranked.iter().map(|r| &r.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn budget_is_respected_and_memoized() {
        let out = run(&Tuner {
            budget: 7,
            strategy: Strategy::GreedyDescent,
            restarts: 5,
            seed: 5,
            cost_model: true,
        });
        assert!(out.explored <= 7, "explored {}", out.explored);
        // Every ranked space point is distinct (memoization worked).
        let mut pts: Vec<_> = out.ranked.iter().filter_map(|r| r.point.clone()).collect();
        pts.sort();
        let n = pts.len();
        pts.dedup();
        assert_eq!(pts.len(), n);
    }

    #[test]
    fn pinned_candidates_always_rank() {
        let pinned = vec![(
            "hand_tuned".to_string(),
            ScheduleRef::simple(DefaultSchedule::new()),
        )];
        let out = tune(
            &Synthetic,
            &params(),
            &pinned,
            &Tuner {
                budget: 4,
                ..Tuner::default()
            },
            |s| {
                // The pinned candidate (a DefaultSchedule) costs 0.5 —
                // better than anything in the space.
                let t = if s.representative().hybrid_threshold() == 0.15 {
                    0.5
                } else {
                    cost_of(s)
                };
                Ok(Sample {
                    time_ms: t,
                    cycles: 0,
                    ..Sample::default()
                })
            },
        )
        .unwrap();
        assert_eq!(out.winner().name, "hand_tuned");
        assert_eq!(out.winner().point, None);
        assert!(out.find("hand_tuned").is_some());
    }

    #[test]
    fn noisy_cold_incumbent_is_remeasured_and_kept() {
        let pinned = vec![(
            "incumbent".to_string(),
            ScheduleRef::simple(DefaultSchedule::new()),
        )];
        let mut calls = 0usize;
        let out = tune(
            &Synthetic,
            &params(),
            &pinned,
            &Tuner {
                budget: 60,
                ..Tuner::default()
            },
            |s| {
                let n = calls;
                calls += 1;
                let t = if s.representative().hybrid_threshold() == 0.15 {
                    // The incumbent truly costs 0.6 — better than the
                    // space optimum's 1.0 — but its first, cold
                    // measurement reads 5.0.
                    if n == 0 {
                        5.0
                    } else {
                        0.6
                    }
                } else {
                    cost_of(s)
                };
                Ok(Sample {
                    time_ms: t,
                    cycles: 0,
                    ..Sample::default()
                })
            },
        )
        .unwrap();
        // Without the warm re-measurement the ranking would report the
        // space optimum (1.0) beating the incumbent's noisy 5.0 sample.
        assert_eq!(out.winner().name, "incumbent");
        assert_eq!(out.winner().sample.time_ms, 0.6);
        assert_eq!(out.explored, 60, "re-measurement must not spend budget");
    }

    #[test]
    fn empty_space_is_a_typed_error() {
        #[derive(Debug)]
        struct Empty;
        impl ScheduleSpace for Empty {
            fn target_name(&self) -> &'static str {
                "empty"
            }
            fn dimensions(&self, _p: &SpaceParams) -> Vec<Dimension> {
                vec![]
            }
            fn materialize(&self, _p: &SpaceParams, _pt: &[usize]) -> Option<ScheduleRef> {
                None
            }
        }
        let err = tune(&Empty, &params(), &[], &Tuner::default(), |_| {
            Ok(Sample {
                time_ms: 1.0,
                cycles: 0,
                ..Sample::default()
            })
        })
        .unwrap_err();
        assert_eq!(
            err,
            TuneError::EmptySpace {
                target: "empty".into()
            }
        );
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn dominant_component_parses_summary_lines() {
        // The component the cost model prunes on is the one the sample's
        // summary line leads with, at the share that line prints.
        let gpu = |components: &[(&'static str, u64)]| {
            Attribution::of(ugc::Target::Gpu, components.to_vec())
        };
        for (attribution, line, dominant) in [
            (
                gpu(&[("compute", 1024), ("mem_stall", 2867), ("launch", 205)]),
                "mem_stall 70% + compute 25% of 4096 cycles",
                Some(("mem_stall", 70)),
            ),
            (
                gpu(&[("commit", 10)]),
                "commit 100% of 10 cycles",
                Some(("commit", 100)),
            ),
            (Attribution::default(), "", None),
            (gpu(&[("compute", 0)]), "", None),
        ] {
            assert_eq!(attribution.summary(), line);
            assert_eq!(attribution.dominant(), dominant, "{line:?}");
        }
    }

    /// The synthetic space with a declared prune table: the `b` axis is
    /// declared unable to move the `stalled` component.
    #[derive(Debug)]
    struct SyntheticPruned;

    impl ScheduleSpace for SyntheticPruned {
        fn target_name(&self) -> &'static str {
            "synthetic_pruned"
        }
        fn dimensions(&self, p: &SpaceParams) -> Vec<Dimension> {
            Synthetic.dimensions(p)
        }
        fn materialize(&self, p: &SpaceParams, point: &[usize]) -> Option<ScheduleRef> {
            Synthetic.materialize(p, point)
        }
        fn prune_rules(&self) -> &'static [PruneRule] {
            &[PruneRule {
                component: "stalled",
                axis: "b",
                reason: "b cannot move stalls",
            }]
        }
    }

    fn run_pruned(tuner: &Tuner) -> TuneOutcome {
        tune(&SyntheticPruned, &params(), &[], tuner, |s| {
            Ok(Sample {
                time_ms: cost_of(s),
                cycles: 100,
                attribution: Attribution::of(
                    ugc::Target::Gpu,
                    vec![("stalled", 90), ("other", 10)],
                ),
            })
        })
        .unwrap()
    }

    #[test]
    fn cost_model_prunes_declared_axes_and_accounts_budget() {
        let t = Tuner {
            budget: 40,
            seed: 7,
            strategy: Strategy::GreedyDescent,
            restarts: 2,
            cost_model: true,
        };
        let guided = run_pruned(&t);
        assert!(
            !guided.pruned.is_empty(),
            "a fully-stalled profile must trigger the declared b-axis rule"
        );
        for p in &guided.pruned {
            assert_eq!(p.axis, "b");
            assert_eq!(p.component, "stalled");
            assert_eq!(p.share, 90);
            assert!(p.saved > 0, "aggregated prune must have saved measurements");
        }
        let blind = run_pruned(&Tuner {
            cost_model: false,
            ..t
        });
        assert!(blind.pruned.is_empty(), "blind search records no prunes");
        assert!(
            guided.explored < blind.explored,
            "pruning must spend less budget ({} vs {})",
            guided.explored,
            blind.explored
        );
    }

    #[test]
    fn cost_model_is_inert_without_profiles() {
        // Same space and rules, but the evaluator reports no attribution:
        // nothing may be pruned.
        let out = tune(
            &SyntheticPruned,
            &params(),
            &[],
            &Tuner {
                budget: 40,
                seed: 7,
                strategy: Strategy::GreedyDescent,
                restarts: 2,
                cost_model: true,
            },
            |s| {
                Ok(Sample {
                    time_ms: cost_of(s),
                    cycles: 0,
                    ..Sample::default()
                })
            },
        )
        .unwrap();
        assert!(out.pruned.is_empty());
        assert_eq!(out.winner().point, Some(vec![2, 0, 4]));
    }

    #[test]
    fn warm_start_seeds_first_restart() {
        let t = Tuner {
            budget: 30,
            seed: 3,
            strategy: Strategy::GreedyDescent,
            restarts: 1,
            cost_model: true,
        };
        let eval = |s: &ScheduleRef| {
            Ok(Sample {
                time_ms: cost_of(s),
                cycles: 0,
                ..Sample::default()
            })
        };
        // Warm-start one step from the optimum: descent converges in a
        // single sweep instead of climbing from a random point.
        let warm = tune_warm(&Synthetic, &params(), &[], &t, Some(&[2, 1, 4]), eval).unwrap();
        assert_eq!(warm.warm_start.as_deref(), Some("a=a2,b=b1,c=c4"));
        assert_eq!(warm.winner().point, Some(vec![2, 0, 4]));
        let cold = tune_warm(&Synthetic, &params(), &[], &t, None, eval).unwrap();
        assert!(cold.warm_start.is_none());
        assert!(
            warm.explored < cold.explored,
            "warm start must converge in fewer measurements ({} vs {})",
            warm.explored,
            cold.explored
        );
    }

    #[test]
    fn invalid_warm_point_falls_back_to_random_start() {
        let t = Tuner {
            budget: 30,
            seed: 3,
            strategy: Strategy::GreedyDescent,
            restarts: 1,
            cost_model: true,
        };
        let eval = |s: &ScheduleRef| {
            Ok(Sample {
                time_ms: cost_of(s),
                cycles: 0,
                ..Sample::default()
            })
        };
        // Wrong shape (stale cache from an older space layout).
        let out = tune_warm(&Synthetic, &params(), &[], &t, Some(&[9, 9]), eval).unwrap();
        assert!(out.warm_start.is_none());
        assert_eq!(out.winner().point, Some(vec![2, 0, 4]));
    }

    #[test]
    fn all_failures_reported() {
        let err = tune(
            &Synthetic,
            &params(),
            &[],
            &Tuner {
                budget: 5,
                ..Tuner::default()
            },
            |_| Err("simulated failure".to_string()),
        )
        .unwrap_err();
        match err {
            TuneError::AllCandidatesFailed { last_error, .. } => {
                assert_eq!(last_error, "simulated failure")
            }
            other => panic!("wrong error: {other:?}"),
        }
    }
}
