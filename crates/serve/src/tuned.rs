//! Background schedule tuning for resident graphs.
//!
//! The batch pipeline tunes on demand (`repro tune`); the daemon instead
//! tunes *behind* the query stream: the first query against a `(dataset,
//! scale, algorithm)` triple of a class that takes a schedule (not
//! BFS/SSSP, which run the multi-source engine) enqueues a [`TuneJob`], a
//! single background thread (spawned by `Server::start`) runs the
//! autotuner over the CPU schedule space whenever the admission gate is
//! idle, and every later supervised query executes under the tuned
//! winner. The store is three-state per key — untried, pending, resolved
//! — so a triple is enqueued at most once and a failed tuning run is
//! never retried in a hot loop.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use ugc::Algorithm;
use ugc_graph::{Dataset, Graph, Scale};
use ugc_schedule::ScheduleRef;

/// One tuning request, carrying the already-resident graph so the tuner
/// never triggers a dataset build of its own.
pub struct TuneJob {
    /// Dataset of the resident graph.
    pub dataset: Dataset,
    /// Scale of the resident graph.
    pub scale: Scale,
    /// Algorithm to tune for.
    pub algo: Algorithm,
    /// The shared graph instance.
    pub graph: Arc<Graph>,
}

enum State {
    /// Enqueued, not yet tuned.
    Pending,
    /// Tuning finished; `None` records a failed run so it is not retried.
    Done(Option<ScheduleRef>),
}

/// Concurrent map from query triple to its tuned schedule (if any).
#[derive(Default)]
pub struct TunedSchedules {
    map: Mutex<HashMap<(Dataset, Scale, Algorithm), State>>,
}

impl TunedSchedules {
    /// An empty store.
    pub fn new() -> TunedSchedules {
        TunedSchedules::default()
    }

    /// Marks `key` pending if it was never seen before. Returns `true`
    /// exactly once per key — the caller then owns enqueueing the job.
    pub fn mark_pending(&self, key: (Dataset, Scale, Algorithm)) -> bool {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        if map.contains_key(&key) {
            return false;
        }
        map.insert(key, State::Pending);
        true
    }

    /// Resolves `key` with the tuned winner (or `None` for a failed run).
    pub fn store(&self, key: (Dataset, Scale, Algorithm), sched: Option<ScheduleRef>) {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, State::Done(sched));
    }

    /// The tuned schedule for `key`, if tuning has finished and won.
    pub fn lookup(&self, key: (Dataset, Scale, Algorithm)) -> Option<ScheduleRef> {
        match self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            Some(State::Done(Some(s))) => Some(s.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_schedule::{DefaultSchedule, ScheduleRef};

    fn key() -> (Dataset, Scale, Algorithm) {
        (Dataset::RoadNetCa, Scale::Tiny, Algorithm::PageRank)
    }

    #[test]
    fn pending_fires_once_per_key() {
        let t = TunedSchedules::new();
        assert!(t.mark_pending(key()));
        assert!(!t.mark_pending(key()));
        assert!(t.lookup(key()).is_none(), "pending is not a hit");
    }

    #[test]
    fn stored_winner_is_returned_and_failures_stay_resolved() {
        let t = TunedSchedules::new();
        assert!(t.mark_pending(key()));
        t.store(key(), Some(ScheduleRef::simple(DefaultSchedule::new())));
        assert!(t.lookup(key()).is_some());

        let other = (Dataset::Pokec, Scale::Tiny, Algorithm::Cc);
        assert!(t.mark_pending(other));
        t.store(other, None);
        assert!(t.lookup(other).is_none());
        assert!(!t.mark_pending(other), "failed runs are not re-enqueued");
    }
}
