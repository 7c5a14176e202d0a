//! Seeded request schedules: Poisson arrival times and Zipf attribute
//! draws. Each stream takes its own salt, so the arrival times and the
//! attribute sequence of one seed are independent of each other.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const ARRIVAL_SALT: u64 = 0xA55E_55ED_0000_0001;
const ZIPF_SALT: u64 = 0x21FF_0000_0000_0002;

/// Copies of rank 0 in one block; rank `r` gets `ZIPF_BLOCK_SCALE / (r + 1)`
/// copies, rounded, and at least one.
const ZIPF_BLOCK_SCALE: f64 = 24.0;

/// Draws ranks `0..n` with Zipf(s = 1) weights `1 / (rank + 1)`,
/// stratified: the draws come in blocks that each hold every rank its
/// rounded Zipf count of times, shuffled by the seed. Seeds then change
/// the order of the requests but not their mix, so a run's latency
/// percentiles do not depend on which attributes its seed favoured.
#[derive(Debug, Clone)]
pub struct Zipf {
    block: Vec<usize>,
    pos: usize,
    rng: StdRng,
}

impl Zipf {
    /// A Zipf stream over `n` ranks (n ≥ 1) for workload `seed`.
    pub fn new(n: usize, seed: u64) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let block: Vec<usize> = (0..n)
            .flat_map(|r| {
                let copies = (ZIPF_BLOCK_SCALE / (r + 1) as f64).round().max(1.0) as usize;
                std::iter::repeat_n(r, copies)
            })
            .collect();
        let pos = block.len();
        Zipf {
            block,
            pos,
            rng: StdRng::seed_from_u64(seed ^ ZIPF_SALT),
        }
    }

    /// The next rank.
    pub fn next_rank(&mut self) -> usize {
        if self.pos == self.block.len() {
            // Fisher-Yates.
            for i in (1..self.block.len()).rev() {
                let j = self.rng.random_range(0..i + 1);
                self.block.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}

/// Due times (µs from the start of the window) of a Poisson arrival
/// process at `rate` per second over `seconds`.
pub fn poisson_arrivals(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ ARRIVAL_SALT);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random::<f64>();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e6) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks(n: usize, seed: u64, len: usize) -> Vec<usize> {
        let mut z = Zipf::new(n, seed);
        (0..len).map(|_| z.next_rank()).collect()
    }

    #[test]
    fn zipf_is_seeded() {
        assert_eq!(ranks(4, 7, 500), ranks(4, 7, 500));
        assert_ne!(ranks(4, 7, 500), ranks(4, 8, 500));
    }

    #[test]
    fn zipf_blocks_hold_exact_one_over_rank_counts() {
        // Four ranks: 24, 12, 8 and 6 copies per block of 50.
        let draws = ranks(4, 1, 500);
        for block in draws.chunks(50) {
            let counts: Vec<usize> = (0..4)
                .map(|r| block.iter().filter(|&&d| d == r).count())
                .collect();
            assert_eq!(counts, [24, 12, 8, 6]);
        }
        // The tail of a long list keeps at least one copy per block.
        let z = Zipf::new(40, 1);
        assert_eq!(z.block.iter().filter(|&&r| r == 39).count(), 1);
    }

    #[test]
    fn arrivals_are_seeded_sorted_and_at_rate() {
        let a = poisson_arrivals(500.0, 20.0, 3);
        assert_eq!(a, poisson_arrivals(500.0, 20.0, 3));
        assert_ne!(a, poisson_arrivals(500.0, 20.0, 4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 20_000_000);
        let rate = a.len() as f64 / 20.0;
        assert!((rate - 500.0).abs() < 25.0, "rate {rate}");
    }

    #[test]
    fn arrival_and_attribute_streams_are_independent() {
        // The same seed feeds both streams; their salts keep them apart.
        let mut arrivals = StdRng::seed_from_u64(5 ^ ARRIVAL_SALT);
        let mut zipf = StdRng::seed_from_u64(5 ^ ZIPF_SALT);
        assert_ne!(arrivals.random::<u64>(), zipf.random::<u64>());
    }
}
