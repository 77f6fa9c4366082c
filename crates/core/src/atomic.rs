//! Atomic `f64` cells and shared solution vectors.
//!
//! The paper's computational model (Section 4) requires **Assumption A-1
//! (Atomic Write)**: the update `x_r <- x_r + beta*gamma` is atomic. On
//! modern hardware this is a compare-and-exchange loop on the 64-bit word
//! (the paper notes hardware support "e.g. compare-and-exchange on recent
//! Intel processors"). [`AtomicF64`] implements exactly that on top of
//! `AtomicU64` bit-casts.
//!
//! The paper's experiments also evaluate a **non-atomic** variant "in order
//! to test experimentally whether atomic writes are necessary" (Section 9).
//! [`AtomicF64::add_non_atomic`] reproduces its semantics: a relaxed load
//! followed by a relaxed store, i.e. a read-modify-write that is *not*
//! atomic and can lose concurrent updates — while remaining free of
//! undefined behaviour in Rust (each individual access is still atomic).
//!
//! All orderings are `Relaxed`: the algorithm tolerates arbitrary staleness
//! by design (that is the whole point of the bounded-asynchrony analysis),
//! so no happens-before edges are needed for correctness of the data values,
//! only the absence of torn reads/writes — which the atomic types guarantee.
//!
//! One hot-path refinement, value-preserving: [`SharedVec`] stores its
//! cells in 64-byte-aligned cache-line stripes, so concurrent workers
//! touching entries ≥ 8 apart never falsely share a line (and the vector
//! never shares one with a foreign allocation).

use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` with atomic load/store/add, stored as bit-cast `u64`.
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// A new cell holding `v`.
    #[inline]
    pub fn new(v: f64) -> Self {
        AtomicF64 {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Atomic load (relaxed).
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Atomic store (relaxed).
    #[inline]
    pub fn store(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomic `self += delta` via a compare-and-exchange loop; returns the
    /// previous value. This is the paper's Assumption A-1 update.
    ///
    /// Uncontended, this is one load and one successful CAS. Under
    /// contention each retry issues a [`std::hint::spin_loop`] so the core
    /// backs off instead of hammering the cache line.
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => {
                    std::hint::spin_loop();
                    cur = actual;
                }
            }
        }
    }

    /// *Non-atomic* `self += delta`: relaxed load, then relaxed store.
    ///
    /// Concurrent `add_non_atomic` calls may lose updates (the classic lost-
    /// update race) — deliberately so; this models the paper's non-atomic
    /// experimental variant. Individual loads/stores remain atomic, so there
    /// is no torn data and no UB.
    #[inline]
    pub fn add_non_atomic(&self, delta: f64) {
        let cur = f64::from_bits(self.bits.load(Ordering::Relaxed));
        self.bits.store((cur + delta).to_bits(), Ordering::Relaxed);
    }
}

/// Cells per 64-byte cache line (8 × 8-byte `AtomicF64`).
const LINE_CELLS: usize = 8;

/// One cache line of cells: 64 bytes big **and** 64-byte aligned, so a
/// `Box<[CacheLine]>` tiles cache lines exactly — no cell ever straddles a
/// line boundary, and the vector never shares a line with a neighbouring
/// allocation.
#[repr(C, align(64))]
#[derive(Debug, Default)]
struct CacheLine {
    cells: [AtomicF64; LINE_CELLS],
}

/// A shared solution vector that many threads read and update without
/// locks — the shared `x` of Algorithm 1.
///
/// Storage is striped into 64-byte-aligned cache lines (flat indexing:
/// entry `i` lives in line `i / 8`, slot `i % 8`). The layout is still one
/// contiguous allocation — row walks keep their streaming read locality —
/// but line boundaries are deterministic: entries 8 apart never falsely
/// share, and the head/tail of the vector cannot ping-pong against foreign
/// allocations. Values and indexing semantics are identical to the plain
/// boxed-slice layout this replaces.
#[derive(Debug)]
pub struct SharedVec {
    lines: Box<[CacheLine]>,
    len: usize,
}

impl SharedVec {
    /// A zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        SharedVec {
            lines: (0..n.div_ceil(LINE_CELLS))
                .map(|_| CacheLine::default())
                .collect(),
            len: n,
        }
    }

    /// Copy a slice into a fresh shared vector.
    pub fn from_slice(xs: &[f64]) -> Self {
        let v = SharedVec::zeros(xs.len());
        v.copy_from(xs);
        v
    }

    /// Length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cells in index order (excluding the padded tail of the last
    /// line).
    #[inline]
    fn cells(&self) -> impl Iterator<Item = &AtomicF64> {
        self.lines
            .iter()
            .flat_map(|l| l.cells.iter())
            .take(self.len)
    }

    /// The cell at index `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> &AtomicF64 {
        assert!(i < self.len, "SharedVec: index {i} out of bounds");
        // SAFETY: `i < len` and `len <= lines.len() * LINE_CELLS` by
        // construction, so the line index is in bounds and the slot index
        // is `< LINE_CELLS`. One predictable branch per access keeps the
        // striped layout as cheap to walk as a plain slice.
        unsafe {
            self.lines
                .get_unchecked(i / LINE_CELLS)
                .cells
                .get_unchecked(i % LINE_CELLS)
        }
    }

    /// Relaxed load of entry `i`.
    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        self.cell(i).load()
    }

    /// Relaxed store of entry `i`.
    #[inline]
    pub fn store(&self, i: usize, v: f64) {
        self.cell(i).store(v);
    }

    /// Atomic add to entry `i`.
    #[inline]
    pub fn fetch_add(&self, i: usize, delta: f64) {
        self.cell(i).fetch_add(delta);
    }

    /// Copy the current contents into a fresh `Vec` (not a consistent
    /// snapshot under concurrent writers, but exact once quiesced).
    pub fn snapshot(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.snapshot_into(&mut out);
        out
    }

    /// Copy the current contents into a caller-provided buffer — the
    /// allocation-free form the epoch loops use for their scratch
    /// snapshots.
    pub fn snapshot_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "snapshot_into: length mismatch");
        for (o, c) in out.iter_mut().zip(self.cells()) {
            *o = c.load();
        }
    }

    /// Overwrite contents from a slice.
    pub fn copy_from(&self, xs: &[f64]) {
        assert_eq!(xs.len(), self.len(), "copy_from: length mismatch");
        for (c, &v) in self.cells().zip(xs) {
            c.store(v);
        }
    }

    /// Load `xs` into this vector, reusing the existing allocation when
    /// the length matches (the amortized path a reusable solve workspace
    /// takes on every solve after the first).
    pub fn reset_from(&mut self, xs: &[f64]) {
        if self.len() == xs.len() {
            self.copy_from(xs);
        } else {
            *self = SharedVec::from_slice(xs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn load_store_roundtrip() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = AtomicF64::new(1.0);
        let prev = a.fetch_add(2.0);
        assert_eq!(prev, 1.0);
        assert_eq!(a.load(), 3.0);
    }

    #[test]
    fn special_values_preserved() {
        let a = AtomicF64::new(f64::NEG_INFINITY);
        assert_eq!(a.load(), f64::NEG_INFINITY);
        a.store(f64::NAN);
        assert!(a.load().is_nan());
        a.store(-0.0);
        assert!(a.load() == 0.0 && a.load().is_sign_negative());
    }

    #[test]
    fn concurrent_fetch_add_loses_nothing() {
        let a = Arc::new(AtomicF64::new(0.0));
        let threads = 8;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        a.fetch_add(1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(), (threads * per_thread) as f64);
    }

    #[test]
    fn shared_vec_lines_are_cache_aligned() {
        for n in [1usize, 7, 8, 9, 64, 100] {
            let v = SharedVec::zeros(n);
            let base = v.cell(0) as *const AtomicF64 as usize;
            assert_eq!(base % 64, 0, "n={n}: base not 64-byte aligned");
            for i in 0..n {
                let addr = v.cell(i) as *const AtomicF64 as usize;
                // Flat indexing over 64-byte stripes: entry i sits at slot
                // i%8 of line i/8.
                assert_eq!(addr, base + (i / 8) * 64 + (i % 8) * 8, "n={n} i={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_vec_rejects_padded_tail_indices() {
        // Length 9 occupies two lines; index 9 exists as padding in the
        // second line but must stay unreachable.
        let v = SharedVec::zeros(9);
        v.load(9);
    }

    #[test]
    fn non_atomic_add_single_thread_correct() {
        let a = AtomicF64::new(10.0);
        a.add_non_atomic(5.0);
        assert_eq!(a.load(), 15.0);
    }

    #[test]
    fn shared_vec_basics() {
        let v = SharedVec::zeros(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        v.store(2, 7.0);
        v.fetch_add(2, 1.0);
        assert_eq!(v.load(2), 8.0);
        assert_eq!(v.snapshot(), vec![0.0, 0.0, 8.0, 0.0]);
    }

    #[test]
    fn shared_vec_from_slice_and_copy() {
        let v = SharedVec::from_slice(&[1.0, 2.0]);
        assert_eq!(v.snapshot(), vec![1.0, 2.0]);
        v.copy_from(&[3.0, 4.0]);
        assert_eq!(v.snapshot(), vec![3.0, 4.0]);
    }

    #[test]
    fn shared_vec_concurrent_updates() {
        let v = Arc::new(SharedVec::zeros(16));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    for i in 0..4000 {
                        v.fetch_add((t + i) % 16, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: f64 = v.snapshot().iter().sum();
        assert_eq!(total, 16_000.0);
    }
}
