//! Seeded input generation. Every input of every workload is drawn from
//! one `--seed` through this generator, so equal seeds give equal inputs.

/// SplitMix64: one multiply-xorshift round per draw, full 64-bit period,
/// and any seed (zero too) is a good seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

/// One SplitMix64 output for `x` — also usable as a stateless hash, which
/// is how the symmetric matrix entries are drawn.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A stream for `seed`, separated from the streams of other `salt`s
    /// so two inputs of one workload do not share draws.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed ^ mix(salt)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias of at most `n / 2^64`
    /// is far below anything a workload can see).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams_and_salts_separate_them() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn below_stays_in_range_and_reaches_both_ends() {
        let mut r = Rng::new(0, 0);
        let draws: Vec<u64> = (0..4096).map(|_| r.below(10)).collect();
        assert!(draws.iter().all(|&d| d < 10));
        assert!(draws.contains(&0) && draws.contains(&9));
    }
}
