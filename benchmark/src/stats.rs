//! Order statistics, means, and the benchmark's own seeded generator.

/// Median of the values; the mean of the two middle ones for an even count.
///
/// # Panics
///
/// Panics on no values or a NaN: both mean a measurement is missing.
pub fn median_of(it: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = it.into_iter().collect();
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100); sorts `v` in place.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values.
pub fn geomean(it: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in it {
        assert!(x > 0.0, "geomean needs positive values, got {x}");
        sum += x.ln();
        n += 1;
    }
    assert!(n > 0, "geomean of no values");
    (sum / n as f64).exp()
}

/// SplitMix64. The benchmark draws its inputs from its own generator, not
/// from `ugc_graph::prng`, so a change to the program under test cannot
/// change which inputs a seed stands for.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `salt` (one per purpose).
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below anything measured).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median_of([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of([4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 95.0), 7.0);
    }

    #[test]
    fn geomean_weighs_every_value_equally() {
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn a_seed_stands_for_one_stream_per_salt() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            [r.next(), r.next(), r.next()]
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut xs: Vec<u32> = (0..50).collect();
        Rng::new(9, 9).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }
}
