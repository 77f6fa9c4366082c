//! Philox4x32-10 counter-based random number generator.
//!
//! The paper's experiments (Section 9) fix the direction sequence
//! `d_0, d_1, ...` across thread counts using the Random123 library, "which
//! allows random access to the pseudo-random numbers, as opposed to the
//! conventional streamed approach". This module is a from-scratch
//! implementation of the same generator family: Philox4x32 with 10 rounds
//! (Salmon, Moraes, Dror, Shaw — SC'11), validated against the published
//! known-answer test vectors.
//!
//! A counter-based generator is a pure function `(key, counter) -> 128 random
//! bits`; evaluating it at counter `j` yields the `j`-th block of the stream
//! without generating the previous blocks. That is exactly what an
//! asynchronous solver needs: thread `t` claiming global iteration `j` can
//! compute direction `d_j` directly.

/// First multiplier of the Philox4x32 round function.
const PHILOX_M0: u32 = 0xD251_1F53;
/// Second multiplier of the Philox4x32 round function.
const PHILOX_M1: u32 = 0xCD9E_8D57;
/// First Weyl key-schedule constant (golden ratio).
const PHILOX_W0: u32 = 0x9E37_79B9;
/// Second Weyl key-schedule constant (sqrt(3) - 1).
const PHILOX_W1: u32 = 0xBB67_AE85;

/// 64x32 -> (hi, lo) multiply.
#[inline(always)]
fn mulhilo(a: u32, b: u32) -> (u32, u32) {
    let p = (a as u64) * (b as u64);
    ((p >> 32) as u32, p as u32)
}

/// One Philox4x32 round.
#[inline(always)]
fn round(ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    let (hi0, lo0) = mulhilo(PHILOX_M0, ctr[0]);
    let (hi1, lo1) = mulhilo(PHILOX_M1, ctr[2]);
    [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
}

/// The Philox4x32-10 generator: a keyed pure function from 128-bit counters
/// to 128-bit random blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Philox4x32 {
    key: [u32; 2],
}

impl Philox4x32 {
    /// Create a generator with an explicit 64-bit key.
    pub fn new(key: [u32; 2]) -> Self {
        Philox4x32 { key }
    }

    /// Create a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Philox4x32 {
            key: [seed as u32, (seed >> 32) as u32],
        }
    }

    /// The generator's key.
    pub fn key(&self) -> [u32; 2] {
        self.key
    }

    /// Evaluate the 10-round Philox bijection at a 128-bit counter.
    #[inline]
    pub fn block(&self, counter: [u32; 4]) -> [u32; 4] {
        let mut ctr = counter;
        let mut key = self.key;
        // 10 rounds; the key is bumped by the Weyl constants between rounds.
        for r in 0..10 {
            if r > 0 {
                key[0] = key[0].wrapping_add(PHILOX_W0);
                key[1] = key[1].wrapping_add(PHILOX_W1);
            }
            ctr = round(ctr, key);
        }
        ctr
    }

    /// The `i`-th 64-bit output: block `i` of the counter space, low half.
    ///
    /// Each counter yields 128 bits; this convenience uses one block per
    /// 64-bit value (wasteful but maximally simple for random access).
    #[inline]
    pub fn u64_at(&self, i: u64) -> u64 {
        let b = self.block([i as u32, (i >> 32) as u32, 0, 0]);
        (b[0] as u64) | ((b[1] as u64) << 32)
    }

    /// Uniform index in `[0, n)` at counter `i`, via Lemire's widening
    /// multiplication.
    ///
    /// The modulo bias is below `n / 2^64` (≈ 5e-14 for n = 10^6), which is
    /// negligible for solver direction sampling.
    #[inline]
    pub fn index_at(&self, i: u64, n: usize) -> usize {
        debug_assert!(n > 0, "index_at: n must be positive");
        (((self.u64_at(i) as u128) * (n as u128)) >> 64) as usize
    }

    /// Derive a sub-generator for an independent logical stream.
    ///
    /// Uses the generator itself to hash `(key, stream_id)` into a fresh key,
    /// so distinct stream ids give statistically independent streams.
    pub fn substream(&self, stream_id: u64) -> Philox4x32 {
        let b = self.block([
            stream_id as u32,
            (stream_id >> 32) as u32,
            0x5eed_5eed,
            0x0bad_cafe,
        ]);
        Philox4x32 {
            key: [b[0] ^ b[2], b[1] ^ b[3]],
        }
    }
}

/// A random access view of direction indices `d_0, d_1, ...`, each uniform on
/// `{0, ..., n-1}` — the direction stream of the randomized Gauss-Seidel
/// iteration (paper Section 3), with Random123-style random access.
#[derive(Debug, Clone, Copy)]
pub struct DirectionStream {
    gen: Philox4x32,
    n: usize,
}

impl DirectionStream {
    /// Stream of directions uniform on `{0, .., n-1}` for a seeded generator.
    pub fn new(seed: u64, n: usize) -> Self {
        assert!(n > 0, "DirectionStream: n must be positive");
        DirectionStream {
            gen: Philox4x32::from_seed(seed),
            n,
        }
    }

    /// The dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The direction index of iteration `j`.
    #[inline]
    pub fn direction(&self, j: u64) -> usize {
        self.gen.index_at(j, self.n)
    }

    /// Fill `out[k]` with the direction of iteration `start + k` for every
    /// `k`, in one tight loop.
    ///
    /// Because the stream is counter-based, each entry is the same pure
    /// function of its iteration index that [`direction`](Self::direction)
    /// evaluates — the batch is **bitwise identical** to `out[k] =
    /// self.direction(start + k)`; batching only amortizes call and
    /// dispatch overhead out of solver inner loops.
    #[inline]
    pub fn fill_directions(&self, start: u64, out: &mut [usize]) {
        let n = self.n;
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.gen.index_at(start.wrapping_add(k as u64), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer tests from the Random123 distribution (kat_vectors),
    /// philox4x32 with 10 rounds.
    #[test]
    fn kat_zero() {
        let g = Philox4x32::new([0, 0]);
        let out = g.block([0, 0, 0, 0]);
        assert_eq!(out, [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8]);
    }

    #[test]
    fn kat_ones() {
        let g = Philox4x32::new([0xffff_ffff, 0xffff_ffff]);
        let out = g.block([0xffff_ffff; 4]);
        assert_eq!(out, [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd]);
    }

    #[test]
    fn kat_pi_digits() {
        let g = Philox4x32::new([0xa409_3822, 0x299f_31d0]);
        let out = g.block([0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344]);
        assert_eq!(out, [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1]);
    }

    #[test]
    fn random_access_is_pure() {
        let g = Philox4x32::from_seed(42);
        let a = g.u64_at(123_456);
        let b = g.u64_at(123_456);
        assert_eq!(a, b);
        assert_ne!(g.u64_at(0), g.u64_at(1));
    }

    #[test]
    fn index_at_in_range_and_covers() {
        let g = Philox4x32::from_seed(5);
        let n = 17;
        let mut seen = vec![false; n];
        for i in 0..2000 {
            let k = g.index_at(i, n);
            assert!(k < n);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices should be hit");
    }

    #[test]
    fn index_distribution_roughly_uniform() {
        let g = Philox4x32::from_seed(2024);
        let n = 8;
        let trials = 80_000u64;
        let mut counts = vec![0usize; n];
        for i in 0..trials {
            counts[g.index_at(i, n)] += 1;
        }
        let expect = trials as f64 / n as f64;
        for c in counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn substreams_differ() {
        let g = Philox4x32::from_seed(1);
        let s0 = g.substream(0);
        let s1 = g.substream(1);
        assert_ne!(s0.key(), s1.key());
        assert_ne!(s0.u64_at(0), s1.u64_at(0));
        // Substreams are deterministic.
        assert_eq!(g.substream(0).key(), s0.key());
    }

    #[test]
    fn direction_stream_in_bounds() {
        let ds = DirectionStream::new(3, 101);
        assert_eq!(ds.n(), 101);
        for j in 0..5000 {
            assert!(ds.direction(j) < 101);
        }
    }

    #[test]
    fn direction_stream_deterministic_across_instances() {
        let a = DirectionStream::new(77, 50);
        let b = DirectionStream::new(77, 50);
        for j in 0..100 {
            assert_eq!(a.direction(j), b.direction(j));
        }
    }
}
