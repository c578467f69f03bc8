//! Frontier (vertex set) representations: SPARSE, BITMAP, BOOLMAP.
//!
//! GraphIR deliberately leaves the concrete representation of a vertex set
//! to the backend (Table II); this module provides all three choices with
//! conversions, so schedules can pick per-operator representations.

use std::cell::RefCell;

use ugc_graphir::types::VertexSetRepr;

/// A set of active vertices in one of three representations.
///
/// # Example
///
/// ```
/// use ugc_runtime::VertexSet;
///
/// let mut s = VertexSet::empty_sparse(8);
/// s.add(3);
/// s.add(5);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(5));
/// let b = s.to_repr(ugc_graphir::types::VertexSetRepr::Bitmap);
/// assert!(b.contains(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum VertexSet {
    /// Dense array of member ids (possibly unsorted; may hold duplicates
    /// until [`VertexSet::dedup`]).
    Sparse {
        /// Total vertices in the graph (universe size).
        universe: usize,
        /// Member vertex ids.
        members: Vec<u32>,
    },
    /// One bit per vertex.
    Bitmap {
        /// Universe size.
        universe: usize,
        /// Packed membership bits.
        words: Vec<u64>,
        /// Cached population count.
        count: usize,
    },
    /// One byte per vertex.
    Boolmap {
        /// Universe size.
        universe: usize,
        /// Membership bytes.
        flags: Vec<bool>,
        /// Cached population count.
        count: usize,
    },
}

impl VertexSet {
    /// Empty sparse set over `universe` vertices.
    pub fn empty_sparse(universe: usize) -> Self {
        VertexSet::Sparse {
            universe,
            members: Vec::new(),
        }
    }

    /// Empty set in the requested representation.
    pub fn empty(universe: usize, repr: VertexSetRepr) -> Self {
        match repr {
            VertexSetRepr::Sparse => Self::empty_sparse(universe),
            VertexSetRepr::Bitmap => VertexSet::Bitmap {
                universe,
                words: vec![0; universe.div_ceil(64)],
                count: 0,
            },
            VertexSetRepr::Boolmap => VertexSet::Boolmap {
                universe,
                flags: vec![false; universe],
                count: 0,
            },
        }
    }

    /// The full set `0..universe` (sparse).
    pub fn all(universe: usize) -> Self {
        VertexSet::Sparse {
            universe,
            members: (0..universe as u32).collect(),
        }
    }

    /// Builds a sparse set from member ids.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of the universe.
    pub fn from_members(universe: usize, members: Vec<u32>) -> Self {
        assert!(
            members.iter().all(|&v| (v as usize) < universe),
            "vertex id out of universe"
        );
        VertexSet::Sparse { universe, members }
    }

    /// The universe (total vertex count).
    pub fn universe(&self) -> usize {
        match self {
            VertexSet::Sparse { universe, .. }
            | VertexSet::Bitmap { universe, .. }
            | VertexSet::Boolmap { universe, .. } => *universe,
        }
    }

    /// Which representation this set currently uses.
    pub fn repr(&self) -> VertexSetRepr {
        match self {
            VertexSet::Sparse { .. } => VertexSetRepr::Sparse,
            VertexSet::Bitmap { .. } => VertexSetRepr::Bitmap,
            VertexSet::Boolmap { .. } => VertexSetRepr::Boolmap,
        }
    }

    /// Number of members (sparse sets count duplicates until deduped).
    pub fn len(&self) -> usize {
        match self {
            VertexSet::Sparse { members, .. } => members.len(),
            VertexSet::Bitmap { count, .. } | VertexSet::Boolmap { count, .. } => *count,
        }
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, v: u32) -> bool {
        match self {
            VertexSet::Sparse { members, .. } => members.contains(&v),
            VertexSet::Bitmap { words, .. } => {
                (words[v as usize / 64] >> (v as usize % 64)) & 1 == 1
            }
            VertexSet::Boolmap { flags, .. } => flags[v as usize],
        }
    }

    /// Adds a vertex. Sparse sets may accumulate duplicates (call
    /// [`VertexSet::dedup`]); map representations are idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe.
    pub fn add(&mut self, v: u32) {
        assert!((v as usize) < self.universe(), "vertex {v} out of universe");
        match self {
            VertexSet::Sparse { members, .. } => members.push(v),
            VertexSet::Bitmap { words, count, .. } => {
                let (w, b) = (v as usize / 64, v as usize % 64);
                if (words[w] >> b) & 1 == 0 {
                    words[w] |= 1 << b;
                    *count += 1;
                }
            }
            VertexSet::Boolmap { flags, count, .. } => {
                if !flags[v as usize] {
                    flags[v as usize] = true;
                    *count += 1;
                }
            }
        }
    }

    /// Removes duplicates from a sparse set, keeping first-arrival order
    /// (how real atomically-appended frontiers behave). No-op on map reprs.
    ///
    /// Seen members are marked in a per-thread bitmap of `⌈universe/64⌉`
    /// words that is all zero between calls: each call clears only the
    /// words of the members it kept, so its cost follows the set, not the
    /// universe.
    pub fn dedup(&mut self) {
        thread_local! {
            static SEEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        }
        if let VertexSet::Sparse { members, universe } = self {
            // Taken out for the call: a panic inside drops the marks
            // instead of leaving them set for the next call.
            let mut seen = SEEN.with(RefCell::take);
            let words = universe.div_ceil(64);
            if seen.len() < words {
                seen.resize(words, 0);
            }
            members.retain(|&v| {
                let (w, bit) = (v as usize >> 6, 1u64 << (v & 63));
                let fresh = seen[w] & bit == 0;
                seen[w] |= bit;
                fresh
            });
            for &v in members.iter() {
                seen[v as usize >> 6] = 0;
            }
            SEEN.with(|s| s.replace(seen));
        }
    }

    /// Member ids in arrival order (sparse sets) or ascending order (map
    /// representations, which have no arrival order).
    pub fn members_in_order(&self) -> Vec<u32> {
        match self {
            VertexSet::Sparse { members, .. } => members.clone(),
            _ => self.iter(),
        }
    }

    /// Iterates member ids ascending (sparse sets are sorted lazily into a
    /// temporary).
    pub fn iter(&self) -> Vec<u32> {
        match self {
            VertexSet::Sparse { members, .. } => {
                let mut m = members.clone();
                m.sort_unstable();
                m
            }
            VertexSet::Bitmap {
                words, universe, ..
            } => {
                let mut out = Vec::new();
                for (wi, &w) in words.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        let b = w.trailing_zeros() as usize;
                        let v = wi * 64 + b;
                        if v < *universe {
                            out.push(v as u32);
                        }
                        w &= w - 1;
                    }
                }
                out
            }
            VertexSet::Boolmap { flags, .. } => flags
                .iter()
                .enumerate()
                .filter(|(_, &f)| f)
                .map(|(i, _)| i as u32)
                .collect(),
        }
    }

    /// Converts into the requested representation (duplicates collapse).
    pub fn to_repr(&self, repr: VertexSetRepr) -> VertexSet {
        if self.repr() == repr {
            let mut c = self.clone();
            c.dedup();
            return c;
        }
        let mut out = VertexSet::empty(self.universe(), repr);
        for v in self.iter() {
            out.add(v);
        }
        out
    }

    /// Approximate size in bytes of this representation — used by
    /// schedules and simulators to cost frontier materialization.
    pub fn footprint_bytes(&self) -> usize {
        match self {
            VertexSet::Sparse { members, .. } => members.len() * 4,
            VertexSet::Bitmap { words, .. } => words.len() * 8,
            VertexSet::Boolmap { flags, .. } => flags.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_add_and_dedup() {
        let mut s = VertexSet::empty_sparse(10);
        s.add(4);
        s.add(4);
        s.add(2);
        assert_eq!(s.len(), 3);
        s.dedup();
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter(), vec![2, 4]);
        // Arrival order preserved.
        assert_eq!(s.members_in_order(), vec![4, 2]);
    }

    /// The flag-array deduplication `dedup` replaced: first arrival wins.
    fn dedup_by_flags(universe: usize, members: &[u32]) -> Vec<u32> {
        let mut seen = vec![false; universe];
        members
            .iter()
            .copied()
            .filter(|&v| !std::mem::replace(&mut seen[v as usize], true))
            .collect()
    }

    #[test]
    fn dedup_matches_flag_array_in_content_and_order() {
        ugc_testkit::check(
            "dedup_matches_flag_array_in_content_and_order",
            ugc_testkit::Config::with_cases(256),
            |rng: &mut ugc_testkit::Prng| {
                let universe = rng.gen_range(1..300usize);
                // Few distinct ids among many draws is duplicate-heavy;
                // lengths 0 and 1 are empty and single-member sets.
                let distinct = rng.gen_range(1..universe + 1) as u32;
                let len = rng.gen_range(0..4 * universe);
                let len = if rng.gen_bool(0.2) { len % 2 } else { len };
                let members: Vec<u32> = (0..len)
                    .map(|_| rng.gen_range(0..distinct) * (universe as u32 / distinct))
                    .collect();
                (universe, members)
            },
            |(universe, members)| {
                let mut set = VertexSet::from_members(*universe, members.clone());
                set.dedup();
                assert_eq!(set.members_in_order(), dedup_by_flags(*universe, members));
                // The per-thread marks are clear again for the next call,
                // here on a larger universe.
                let mut again = VertexSet::from_members(universe + 100, members.clone());
                again.dedup();
                assert_eq!(again.members_in_order(), dedup_by_flags(*universe, members));
            },
        );
    }

    #[test]
    fn bitmap_idempotent_add() {
        let mut s = VertexSet::empty(100, VertexSetRepr::Bitmap);
        s.add(70);
        s.add(70);
        assert_eq!(s.len(), 1);
        assert!(s.contains(70));
        assert!(!s.contains(71));
    }

    #[test]
    fn boolmap_round_trip() {
        let mut s = VertexSet::empty(5, VertexSetRepr::Boolmap);
        s.add(0);
        s.add(4);
        let sp = s.to_repr(VertexSetRepr::Sparse);
        assert_eq!(sp.iter(), vec![0, 4]);
        let bm = sp.to_repr(VertexSetRepr::Bitmap);
        assert_eq!(bm.iter(), vec![0, 4]);
    }

    #[test]
    fn all_set() {
        let s = VertexSet::all(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn conversion_collapses_duplicates() {
        let s = VertexSet::from_members(8, vec![3, 3, 3, 1]);
        let b = s.to_repr(VertexSetRepr::Bitmap);
        assert_eq!(b.len(), 2);
        // Converting to the same repr also dedups.
        let s2 = s.to_repr(VertexSetRepr::Sparse);
        assert_eq!(s2.len(), 2);
    }

    #[test]
    fn footprints_differ() {
        let mut s = VertexSet::empty_sparse(1000);
        s.add(1);
        assert_eq!(s.footprint_bytes(), 4);
        assert_eq!(s.to_repr(VertexSetRepr::Boolmap).footprint_bytes(), 1000);
        assert_eq!(s.to_repr(VertexSetRepr::Bitmap).footprint_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn add_out_of_universe_panics() {
        let mut s = VertexSet::empty_sparse(2);
        s.add(2);
    }

    #[test]
    fn bitmap_iter_skips_padding_bits() {
        let mut s = VertexSet::empty(65, VertexSetRepr::Bitmap);
        s.add(64);
        assert_eq!(s.iter(), vec![64]);
    }
}
