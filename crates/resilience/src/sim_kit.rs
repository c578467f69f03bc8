//! The machine-model kit under the three timing simulators.
//!
//! `sim-gpu`, `sim-swarm` and `sim-hb` model different machines with the
//! same bookkeeping. The shared half lives here, once:
//!
//! * [`LruCache`] — the set-associative LRU tag array that is both the
//!   GPU's L2 and HammerBlade's LLC (PAPER.md Tables I and VII give the two
//!   as settings of one mechanism);
//! * [`cycle_ledger!`](crate::cycle_ledger) — declares a simulator's cycle
//!   attribution. The simulator's time *is* the sum of the components, and
//!   one `charge` adds a delta, mirrors it into the `sim_<x>.cycles.*`
//!   registry counters and runs the cycle watchdog on the new total, so
//!   time cannot advance without being attributed;
//! * [`apportion`] — splits a charge over components in proportion to the
//!   model's raw classification, in exact integer arithmetic.
//!
//! What stays in each simulator is its own model: warps, coalescing and
//! atomics; tasks, conflicts and spills; scratchpads, banks and bulk
//! transfers — plus its non-cycle counters and its fault rolls.

use ugc_telemetry::Counter;

/// A set-associative cache with LRU replacement: one flat
/// `num_sets × ways` tag array, each set's occupied ways kept MRU-first.
/// A tag is a whole line (or segment) number; its set is
/// `line % num_sets`.
///
/// # Example
///
/// ```
/// use ugc_resilience::sim_kit::LruCache;
///
/// let mut l2 = LruCache::new(64, 32, 2); // one set of two 32-byte lines
/// assert!(!l2.access(7));
/// assert!(l2.access(7));
/// l2.flush();
/// assert!(!l2.access(7));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    tags: Vec<u64>,
    lens: Vec<u32>,
    ways: usize,
    num_sets: u64,
}

impl LruCache {
    /// A cache of `capacity` bytes in lines of `line_bytes`, `ways` per
    /// set, with at least one set.
    pub fn new(capacity: u64, line_bytes: u64, ways: usize) -> Self {
        let lines = (capacity / line_bytes).max(1);
        let num_sets = (lines / ways as u64).max(1);
        LruCache {
            tags: vec![0; num_sets as usize * ways],
            lens: vec![0; num_sets as usize],
            ways,
            num_sets,
        }
    }

    /// Touches `line`; returns whether it hit.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let s = (line % self.num_sets) as usize;
        let len = self.lens[s] as usize;
        let set = &mut self.tags[s * self.ways..(s + 1) * self.ways];
        if let Some(pos) = set[..len].iter().position(|&t| t == line) {
            set[..=pos].rotate_right(1);
            true
        } else {
            // The LRU way falls off the end when the set is full.
            let kept = len.min(self.ways - 1);
            set.copy_within(..kept, 1);
            set[0] = line;
            self.lens[s] = (kept + 1) as u32;
            false
        }
    }

    /// Empties every set.
    pub fn flush(&mut self) {
        self.lens.fill(0);
    }
}

/// Splits `total` over components in proportion to `raws`, rounding each
/// share down. The component at `remainder` takes what the others leave,
/// so the shares sum to `total` exactly; all-zero `raws` put all of
/// `total` there.
///
/// # Example
///
/// ```
/// use ugc_resilience::sim_kit::apportion;
///
/// assert_eq!(apportion(10, [1, 1, 1], 2), [3, 3, 4]);
/// assert_eq!(apportion(10, [0, 0], 0), [10, 0]);
/// ```
pub fn apportion<const N: usize>(total: u64, raws: [u64; N], remainder: usize) -> [u64; N] {
    let raw_total: u64 = raws.iter().sum();
    let mut shares = raws.map(|raw| {
        if raw_total == 0 {
            0
        } else {
            ((u128::from(total) * u128::from(raw)) / u128::from(raw_total)) as u64
        }
    });
    shares[remainder] = 0;
    shares[remainder] = total - shares.iter().sum::<u64>();
    shares
}

/// The registry handles behind one [`cycle_ledger!`](crate::cycle_ledger)
/// type: a counter per component and one for their total.
#[derive(Debug)]
pub struct LedgerCounters<const N: usize> {
    parts: [Counter; N],
    total: Counter,
}

impl<const N: usize> LedgerCounters<N> {
    /// Registers the component counters named by `keys` and the total
    /// counter `total_key`.
    pub fn new(keys: [(&str, &str); N], total_key: &str) -> Self {
        LedgerCounters {
            parts: keys.map(|(_, key)| Counter::new(key)),
            total: Counter::new(total_key),
        }
    }

    /// Adds one charge's component deltas and their sum.
    pub fn add(&self, deltas: [u64; N]) {
        for (counter, d) in self.parts.iter().zip(deltas) {
            counter.add(d);
        }
        self.total.add(deltas.iter().sum());
    }
}

/// Declares a simulator's cycle attribution: a `Copy` struct of named
/// `u64` components whose sum is the simulator's time.
///
/// `cycle_ledger! { pub struct XAttribution in "sim_x" { a, b } }`
/// generates, besides the struct with public fields:
///
/// * `total()` — the sum of the components, and `components()` — the
///   `(label, cycles)` pairs in declaration order;
/// * `charge(delta)` — adds `delta`, mirrors each component into the
///   `sim_x.cycles.<label>` counter and the sum into `sim_x.cycles.total`,
///   then runs [`budget::check_cycles`](crate::budget::check_cycles) on
///   the new total;
/// * the consts `COMPONENT_KEYS` (`(label, registry key)` pairs),
///   `TOTAL_KEY` and `COUNTER_PREFIX` (`"sim_x."`), so each name is spelled
///   once.
///
/// # Example
///
/// ```
/// ugc_resilience::cycle_ledger! {
///     /// Cycles of a toy machine.
///     pub struct ToyAttribution in "sim_toy" {
///         /// Useful work.
///         work,
///         /// Waiting.
///         stall,
///     }
/// }
///
/// let mut attr = ToyAttribution::default();
/// attr.charge(ToyAttribution { work: 5, stall: 2 });
/// attr.charge(ToyAttribution { stall: 1, ..ToyAttribution::default() });
/// assert_eq!(attr.total(), 8);
/// assert_eq!(attr.components(), [("work", 5), ("stall", 3)]);
/// assert_eq!(ToyAttribution::COMPONENT_KEYS[1], ("stall", "sim_toy.cycles.stall"));
/// assert_eq!(ToyAttribution::TOTAL_KEY, "sim_toy.cycles.total");
/// ```
#[macro_export]
macro_rules! cycle_ledger {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident in $ns:literal {
            $( $(#[$fmeta:meta])* $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $name {
            /// Number of components.
            pub const LEN: usize = [$(stringify!($field)),+].len();

            /// `(label, registry key)` of each component, in display order.
            pub const COMPONENT_KEYS: [(&'static str, &'static str); $name::LEN] = [
                $( (stringify!($field), concat!($ns, ".cycles.", stringify!($field))), )+
            ];

            /// Registry key of the components' running sum.
            pub const TOTAL_KEY: &'static str = concat!($ns, ".cycles.total");

            /// Registry prefix every counter of this simulator shares.
            pub const COUNTER_PREFIX: &'static str = concat!($ns, ".");

            /// Sum of all components: the simulator's time.
            pub fn total(&self) -> u64 {
                0 $(+ self.$field)+
            }

            /// Named components in display order.
            pub fn components(&self) -> [(&'static str, u64); $name::LEN] {
                [$((stringify!($field), self.$field)),+]
            }

            /// Adds `delta`, mirrors it into the registry, and checks the
            /// cycle budget against the new total.
            ///
            /// # Panics
            ///
            /// With a typed budget payload when the new total exceeds the
            /// calling thread's armed cycle cap.
            pub fn charge(&mut self, delta: $name) {
                static COUNTERS: ::std::sync::OnceLock<
                    $crate::sim_kit::LedgerCounters<{ $name::LEN }>,
                > = ::std::sync::OnceLock::new();
                $( self.$field += delta.$field; )+
                COUNTERS
                    .get_or_init(|| {
                        $crate::sim_kit::LedgerCounters::new(
                            $name::COMPONENT_KEYS,
                            $name::TOTAL_KEY,
                        )
                    })
                    .add([$(delta.$field),+]);
                $crate::budget::check_cycles(self.total());
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix64;

    /// A seeded stream of `n` lines below `span`.
    fn trace(seed: u64, n: usize, span: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9)) % span)
            .collect()
    }

    /// Per set, the LRU order as a plain list: MRU first.
    fn reference_access(sets: &mut [Vec<u64>], ways: usize, line: u64) -> bool {
        let set = &mut sets[(line % sets.len() as u64) as usize];
        let hit = set.iter().position(|&t| t == line).map(|p| set.remove(p));
        set.insert(0, line);
        set.truncate(ways);
        hit.is_some()
    }

    #[test]
    fn hits_plus_misses_are_the_accesses_and_match_a_list_lru() {
        for seed in 0..64u64 {
            let ways = 1 + (seed % 4) as usize;
            let sets = 1 + (seed / 4 % 5);
            let mut cache = LruCache::new(sets * ways as u64 * 32, 32, ways);
            let mut reference = vec![Vec::new(); sets as usize];
            let lines = trace(seed, 400, 3 * sets * ways as u64);
            let (mut hits, mut misses) = (0u64, 0u64);
            for (i, &line) in lines.iter().enumerate() {
                let hit = cache.access(line);
                assert_eq!(
                    hit,
                    reference_access(&mut reference, ways, line),
                    "seed {seed} access {i}"
                );
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            assert_eq!(hits + misses, lines.len() as u64);
            // A cold cache misses every distinct line at least once.
            let mut distinct = lines.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(misses >= distinct.len() as u64, "seed {seed}");
        }
    }

    #[test]
    fn more_ways_at_the_same_set_count_never_miss_more() {
        // LRU has the inclusion property: per set, a (k + 1)-way cache
        // holds everything a k-way cache holds, so every hit of the
        // smaller cache hits in the larger one.
        for seed in 0..32u64 {
            let sets = 1 + seed % 6;
            let lines = trace(seed, 600, 40 + seed);
            for ways in 1..8usize {
                let mut small = LruCache::new(sets * ways as u64 * 32, 32, ways);
                let mut large = LruCache::new(sets * (ways as u64 + 1) * 32, 32, ways + 1);
                for (i, &line) in lines.iter().enumerate() {
                    let (s, l) = (small.access(line), large.access(line));
                    assert!(!s || l, "seed {seed}, {ways} ways, access {i}");
                }
            }
        }
    }

    #[test]
    fn the_access_after_a_flush_misses() {
        for seed in 0..32u64 {
            let mut cache = LruCache::new(4 * 2 * 32, 32, 2);
            let lines = trace(seed, 50, 24);
            for &line in &lines {
                cache.access(line);
            }
            cache.flush();
            assert!(
                !cache.access(lines[seed as usize % lines.len()]),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn apportion_sums_to_the_total() {
        for seed in 0..256u64 {
            let total = splitmix64(seed) % 1_000_000;
            let raws = [0, 1, 2, 3].map(|k| splitmix64(seed * 4 + k) % (1 + seed % 50));
            let shares = apportion(total, raws, (seed % 4) as usize);
            assert_eq!(shares.iter().sum::<u64>(), total, "seed {seed}");
        }
        assert_eq!(apportion(7, [0, 0, 0], 1), [0, 7, 0]);
        assert_eq!(apportion(100, [1, 3], 0), [25, 75]);
    }

    crate::cycle_ledger! {
        /// A ledger in a namespace no simulator uses.
        pub struct KitAttribution in "sim_kit_test" {
            /// First.
            alpha,
            /// Second.
            beta,
            /// Third.
            gamma,
        }
    }

    #[test]
    fn the_total_is_the_sum_of_the_charges_and_so_is_the_registry_total() {
        assert_eq!(KitAttribution::LEN, 3);
        assert_eq!(
            KitAttribution::COMPONENT_KEYS,
            [
                ("alpha", "sim_kit_test.cycles.alpha"),
                ("beta", "sim_kit_test.cycles.beta"),
                ("gamma", "sim_kit_test.cycles.gamma"),
            ]
        );
        assert_eq!(KitAttribution::COUNTER_PREFIX, "sim_kit_test.");
        let counter = |key: &str| ugc_telemetry::snapshot().value(key);
        let before = KitAttribution::COMPONENT_KEYS.map(|(_, key)| counter(key));
        let total_before = counter(KitAttribution::TOTAL_KEY);
        let mut attr = KitAttribution::default();
        let mut charged = 0u64;
        for seed in 0..200u64 {
            let d = |k: u64| splitmix64(seed * 3 + k) % 1000;
            let delta = KitAttribution {
                alpha: d(0),
                beta: d(1),
                gamma: d(2),
            };
            charged += delta.total();
            attr.charge(delta);
            assert_eq!(attr.total(), charged, "seed {seed}");
        }
        assert_eq!(
            attr.components().iter().map(|&(_, v)| v).sum::<u64>(),
            charged
        );
        let moved: u64 = KitAttribution::COMPONENT_KEYS
            .iter()
            .zip(before)
            .map(|(&(_, key), b)| counter(key) - b)
            .sum();
        let total_moved = counter(KitAttribution::TOTAL_KEY) - total_before;
        assert_eq!(total_moved, moved);
        if ugc_telemetry::enabled() {
            assert_eq!(total_moved, charged);
        } else {
            assert_eq!(total_moved, 0);
        }
    }

    #[test]
    fn a_charge_over_the_cycle_cap_is_a_budget_kill() {
        let _cap = crate::budget::scope(None, Some(100));
        let mut attr = KitAttribution::default();
        attr.charge(KitAttribution {
            alpha: 60,
            beta: 40,
            gamma: 0,
        });
        let killed = std::panic::catch_unwind(move || {
            attr.charge(KitAttribution {
                gamma: 1,
                ..KitAttribution::default()
            });
        });
        let payload = killed.expect_err("101 cycles exceed a cap of 100");
        assert!(payload
            .downcast_ref::<crate::budget::BudgetPayload>()
            .is_some());
    }
}
