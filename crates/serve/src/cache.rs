//! The shared immutable graph cache, byte-accounted and bounded.
//!
//! Every `(dataset, scale)` pair is generated at most once per residency,
//! on first touch, and then served to all requests behind an `Arc`.
//! Amortizing graph construction is the first half of the serving story
//! (the second is batching the traversals themselves): dataset generation
//! dominates per-query cost for everything but the largest traversals.
//!
//! # Byte accounting and eviction
//!
//! With a byte cap set ([`GraphCache::with_cap`], wired to
//! `UGC_CACHE_BYTES` by `repro serve`), every resident graph is charged
//! its *eventual* footprint ([`Graph::resident_bytes`] — out-CSR plus
//! the lazily-materialized transpose) the moment it is inserted, and the
//! cache holds a hard invariant: **charged resident bytes never exceed
//! the cap**. Inserting a graph that does not fit evicts unpinned
//! entries in least-recently-used order first; if the graph still does
//! not fit — everything else is pinned by in-flight batches, or the
//! graph alone is bigger than the cap — the build is abandoned and the
//! caller gets [`CacheOverflow`], which the executor surfaces as
//! `err overloaded` (shed, not served). With no cap the cache behaves
//! exactly as before: build once, share forever.
//!
//! # Pinning
//!
//! [`GraphCache::get`] returns a [`PinnedGraph`] guard. While any guard
//! for a key is alive the entry cannot be evicted — a batch mid-traversal
//! keeps its graph resident no matter what pressure later builds apply.
//! Dropping the guard unpins. The executor's `Arc<Graph>` clones live
//! only inside a pinned batch, so once the last guard drops an evicted
//! graph is freed: the byte cap bounds live graph memory too, not only
//! the charged bytes.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use ugc_graph::{Dataset, Graph, Scale};

use crate::Stat;

/// Why a [`GraphCache::get`] was refused: admitting the build would
/// break the byte cap even after evicting every unpinned entry.
#[derive(Debug, Clone, Copy)]
pub struct CacheOverflow {
    /// Bytes the requested graph would charge.
    pub needed: usize,
    /// The configured cap.
    pub cap: usize,
    /// Bytes currently charged (all of it pinned, or the graph simply
    /// does not fit alone).
    pub resident: usize,
}

impl std::fmt::Display for CacheOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph needs {} bytes but cache cap is {} ({} resident and pinned); retry later",
            self.needed, self.cap, self.resident
        )
    }
}

/// A build in flight: the winner publishes the outcome here so waiters
/// neither rebuild nor busy-wait.
struct BuildCell {
    outcome: Mutex<Option<Result<Arc<Graph>, CacheOverflow>>>,
    done: Condvar,
}

enum Slot {
    /// Built and charged. `pins` guards eviction; `last_use` is a
    /// logical LRU tick.
    Ready {
        graph: Arc<Graph>,
        bytes: usize,
        pins: usize,
        last_use: u64,
    },
    /// First touch in progress; waiters block on the cell.
    Building(Arc<BuildCell>),
}

struct CacheState {
    map: HashMap<(Dataset, Scale), Slot>,
    /// Bytes charged by `Ready` slots. Invariant: `<= cap` when capped.
    resident_bytes: usize,
    /// Monotone LRU clock.
    tick: u64,
}

/// Build-once, share-while-resident store of generated datasets.
///
/// The map lock is never held across a graph build: first touch installs
/// a [`Slot::Building`] placeholder, builds unlocked, then re-locks to
/// charge bytes and (maybe) evict. Concurrent requesters of the same key
/// wait on the build cell; concurrent builders of different keys never
/// serialize.
pub struct GraphCache {
    state: Mutex<CacheState>,
    cap: Option<usize>,
    builds: Stat,
    hits: Stat,
    evictions: Stat,
}

/// An access guard: the graph plus an eviction pin on its cache entry.
/// Dropping the guard unpins. Derefs to [`Graph`].
pub struct PinnedGraph {
    cache: Arc<GraphCache>,
    key: (Dataset, Scale),
    graph: Arc<Graph>,
}

impl PinnedGraph {
    /// The shared graph. Clones do not pin — only this guard does — so a
    /// clone must not outlive it (see the module docs).
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }
}

impl std::fmt::Debug for PinnedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedGraph")
            .field("dataset", &self.key.0)
            .field("scale", &self.key.1)
            .finish_non_exhaustive()
    }
}

impl Deref for PinnedGraph {
    type Target = Graph;
    fn deref(&self) -> &Graph {
        &self.graph
    }
}

impl Drop for PinnedGraph {
    fn drop(&mut self) {
        self.cache.unpin(self.key);
    }
}

impl Default for GraphCache {
    fn default() -> Self {
        GraphCache::new()
    }
}

impl GraphCache {
    /// An unbounded cache (build once, share forever).
    pub fn new() -> GraphCache {
        GraphCache::with_cap(None)
    }

    /// A cache charging at most `cap` bytes when `Some`.
    pub fn with_cap(cap: Option<usize>) -> GraphCache {
        GraphCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
            }),
            cap,
            builds: Stat::new("serve.cache.builds"),
            hits: Stat::new("serve.cache.hits"),
            evictions: Stat::new("serve.cache.evictions"),
        }
    }

    /// The graph for `(dataset, scale)`, pinned against eviction for the
    /// guard's lifetime; generated (and charged) on first touch.
    ///
    /// # Errors
    ///
    /// [`CacheOverflow`] when a capped cache cannot admit the graph even
    /// after evicting every unpinned entry. Waiters on a failed build
    /// fail the same way without re-attempting the build.
    pub fn get(
        self: &Arc<Self>,
        dataset: Dataset,
        scale: Scale,
    ) -> Result<PinnedGraph, CacheOverflow> {
        let key = (dataset, scale);
        loop {
            let cell = {
                let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                st.tick += 1;
                let tick = st.tick;
                match st.map.get_mut(&key) {
                    Some(Slot::Ready {
                        graph,
                        pins,
                        last_use,
                        ..
                    }) => {
                        *pins += 1;
                        *last_use = tick;
                        let graph = graph.clone();
                        self.hits.incr();
                        return Ok(PinnedGraph {
                            cache: self.clone(),
                            key,
                            graph,
                        });
                    }
                    Some(Slot::Building(cell)) => cell.clone(),
                    None => {
                        // First touch: install the placeholder and build
                        // outside the lock.
                        let cell = Arc::new(BuildCell {
                            outcome: Mutex::new(None),
                            done: Condvar::new(),
                        });
                        st.map.insert(key, Slot::Building(cell.clone()));
                        drop(st);
                        return self.build_and_charge(key, cell);
                    }
                }
            };
            // Wait out someone else's build, then re-examine the map: the
            // slot is usually Ready by now (pin it via the loop), but may
            // have been evicted again under pressure — rebuild then.
            let mut outcome = cell.outcome.lock().unwrap_or_else(PoisonError::into_inner);
            while outcome.is_none() {
                outcome = cell
                    .done
                    .wait(outcome)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if let Some(Err(of)) = *outcome {
                return Err(of);
            }
            // Builder succeeded: loop back to pin the Ready slot. No hit
            // is counted for waiters — they paid the build latency too.
        }
    }

    /// Builds `key`'s graph, then charges it under the lock (evicting as
    /// needed) and publishes the outcome to waiters.
    fn build_and_charge(
        self: &Arc<Self>,
        key: (Dataset, Scale),
        cell: Arc<BuildCell>,
    ) -> Result<PinnedGraph, CacheOverflow> {
        let graph = Arc::new(key.0.generate(key.1));
        let bytes = graph.resident_bytes();
        let result = {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if self.make_room(&mut st, bytes) {
                self.builds.incr();
                st.resident_bytes += bytes;
                st.tick += 1;
                let tick = st.tick;
                st.map.insert(
                    key,
                    Slot::Ready {
                        graph: graph.clone(),
                        bytes,
                        pins: 1,
                        last_use: tick,
                    },
                );
                Ok(graph)
            } else {
                // Abandon: remove the placeholder so a later, calmer
                // first touch can try again.
                st.map.remove(&key);
                Err(CacheOverflow {
                    needed: bytes,
                    cap: self.cap.unwrap_or(usize::MAX),
                    resident: st.resident_bytes,
                })
            }
        };
        let mut outcome = cell.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        *outcome = Some(result.clone());
        cell.done.notify_all();
        drop(outcome);
        result.map(|graph| PinnedGraph {
            cache: self.clone(),
            key,
            graph,
        })
    }

    /// Evicts unpinned entries (LRU first) until `needed` more bytes fit
    /// under the cap. Returns false when they cannot.
    fn make_room(&self, st: &mut CacheState, needed: usize) -> bool {
        let Some(cap) = self.cap else { return true };
        if needed > cap {
            return false;
        }
        while st.resident_bytes + needed > cap {
            let victim = st
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready {
                        pins: 0, last_use, ..
                    } => Some((*last_use, *k)),
                    _ => None,
                })
                .min_by_key(|(last_use, _)| *last_use)
                .map(|(_, k)| k);
            let Some(vk) = victim else { return false };
            if let Some(Slot::Ready { bytes, .. }) = st.map.remove(&vk) {
                st.resident_bytes -= bytes;
                self.evictions.incr();
            }
        }
        true
    }

    fn unpin(&self, key: (Dataset, Scale)) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(Slot::Ready { pins, .. }) = st.map.get_mut(&key) {
            *pins = pins.saturating_sub(1);
        }
    }

    /// Graphs built so far (cache misses; rebuilds after eviction count
    /// again).
    pub fn builds(&self) -> u64 {
        self.builds.get()
    }

    /// Lookups served from an already-built graph.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Entries evicted under byte pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Distinct `(dataset, scale)` entries resident (built or building).
    pub fn resident(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// Bytes currently charged by resident graphs.
    pub fn resident_bytes(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .resident_bytes
    }

    /// The configured byte cap, if any.
    pub fn cap_bytes(&self) -> Option<usize> {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_and_shares() {
        let cache = Arc::new(GraphCache::new());
        let a = cache.get(Dataset::RoadNetCa, Scale::Tiny).unwrap();
        let b = cache.get(Dataset::RoadNetCa, Scale::Tiny).unwrap();
        assert!(Arc::ptr_eq(a.graph(), b.graph()));
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.resident(), 1);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn concurrent_first_touch_builds_exactly_once() {
        let cache = Arc::new(GraphCache::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = cache.clone();
                std::thread::spawn(move || {
                    c.get(Dataset::Pokec, Scale::Tiny).unwrap().num_vertices()
                })
            })
            .collect();
        let sizes: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.builds(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_graphs() {
        let cache = Arc::new(GraphCache::new());
        cache.get(Dataset::RoadNetCa, Scale::Tiny).unwrap();
        cache.get(Dataset::Pokec, Scale::Tiny).unwrap();
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.resident(), 2);
    }

    #[test]
    fn lru_eviction_respects_the_cap() {
        // Size the cap to hold exactly one tiny graph at a time.
        let probe = Arc::new(GraphCache::new());
        let one = probe
            .get(Dataset::RoadNetCa, Scale::Tiny)
            .unwrap()
            .resident_bytes();
        let two = probe
            .get(Dataset::Pokec, Scale::Tiny)
            .unwrap()
            .resident_bytes();
        let cap = one.max(two) + one.min(two) / 2;
        let cache = Arc::new(GraphCache::with_cap(Some(cap)));
        drop(cache.get(Dataset::RoadNetCa, Scale::Tiny).unwrap());
        assert!(cache.resident_bytes() <= cap);
        // The second build evicts the first (unpinned) graph.
        drop(cache.get(Dataset::Pokec, Scale::Tiny).unwrap());
        assert!(cache.resident_bytes() <= cap, "cap is a hard invariant");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.resident(), 1);
        // Re-touching the evicted key rebuilds.
        drop(cache.get(Dataset::RoadNetCa, Scale::Tiny).unwrap());
        assert_eq!(cache.builds(), 3);
    }

    #[test]
    fn pinned_entries_survive_pressure_and_shed_instead() {
        let probe = Arc::new(GraphCache::new());
        let one = probe
            .get(Dataset::RoadNetCa, Scale::Tiny)
            .unwrap()
            .resident_bytes();
        let cache = Arc::new(GraphCache::with_cap(Some(one)));
        let pinned = cache.get(Dataset::RoadNetCa, Scale::Tiny).unwrap();
        // While pinned, a second graph cannot evict it: overflow.
        let err = cache.get(Dataset::Pokec, Scale::Tiny).unwrap_err();
        assert!(err.resident > 0);
        assert_eq!(cache.resident(), 1, "pinned entry stayed");
        assert!(cache.resident_bytes() <= one);
        // Unpinned, the same request succeeds by evicting.
        drop(pinned);
        assert!(cache.get(Dataset::Pokec, Scale::Tiny).is_ok());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn oversized_graph_is_refused_outright() {
        let cache = Arc::new(GraphCache::with_cap(Some(8)));
        let err = cache.get(Dataset::RoadNetCa, Scale::Tiny).unwrap_err();
        assert_eq!(err.cap, 8);
        assert!(err.needed > 8);
        assert_eq!(cache.resident(), 0, "abandoned build leaves no slot");
        // A later touch retries (and fails the same way) rather than
        // waiting on a dead build cell.
        assert!(cache.get(Dataset::RoadNetCa, Scale::Tiny).is_err());
    }
}
