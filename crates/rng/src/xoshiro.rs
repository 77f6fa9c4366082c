//! Xoshiro256++ — general-purpose stateful PRNG for workload generation.
//!
//! Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
//! generators" (2019). Seeded from SplitMix64 per the authors'
//! recommendation.

use crate::splitmix::SplitMix64;

/// Xoshiro256++ state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64 expansion of a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform double in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        crate::util::u64_to_f64(self.next_u64())
    }

    /// Uniform double in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform index in `[0, n)`, exactly unbiased (rejection sampling).
    pub fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_index: n must be positive");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo < n {
                let t = n.wrapping_neg() % n;
                if lo < t {
                    continue;
                }
            }
            return (m >> 64) as usize;
        }
    }

    /// Standard normal sample via the Box-Muller transform.
    pub fn next_normal(&mut self) -> f64 {
        // Draw u in (0, 1] to avoid ln(0).
        let mut u = self.next_f64();
        if u == 0.0 {
            u = f64::MIN_POSITIVE;
        }
        let v = self.next_f64();
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Precomputed inverse-CDF sampler for the truncated Zipf distribution —
/// used by the synthetic social-media workload where term frequencies are
/// Zipf-distributed.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler on `{1, ..., n}` with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler: n must be positive");
        assert!(s > 0.0, "ZipfSampler: exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draw a sample in `{1, ..., n}`.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_varying() {
        let mut a = Xoshiro256pp::new(5);
        let mut b = Xoshiro256pp::new(5);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::new(6);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_and_range() {
        let mut g = Xoshiro256pp::new(11);
        for _ in 0..1000 {
            let v = g.next_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments() {
        let mut g = Xoshiro256pp::new(123);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let mut g = Xoshiro256pp::new(777);
        let sampler = ZipfSampler::new(50, 1.2);
        let mut counts = vec![0usize; 51];
        for _ in 0..50_000 {
            counts[sampler.sample(&mut g)] += 1;
        }
        // Rank 1 should dominate rank 5, which dominates rank 25.
        assert!(counts[1] > counts[5]);
        assert!(counts[5] > counts[25]);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn zipf_in_range() {
        let mut g = Xoshiro256pp::new(3);
        let sampler = ZipfSampler::new(7, 0.8);
        for _ in 0..10_000 {
            let k = sampler.sample(&mut g);
            assert!((1..=7).contains(&k));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = Xoshiro256pp::new(21);
        let mut xs: Vec<usize> = (0..100).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Overwhelmingly unlikely to be the identity.
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn index_bounds() {
        let mut g = Xoshiro256pp::new(17);
        for _ in 0..5000 {
            assert!(g.next_index(13) < 13);
        }
    }
}
