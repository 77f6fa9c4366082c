//! Content-addressed matrix registry: fingerprinting, cross-tenant
//! dedup, the cached solver-policy decision, and warm-start storage.
//!
//! Admission fingerprints every submitted CSR over its *content* —
//! dimensions, sparsity pattern, and the exact bit patterns of its values
//! — so two tenants submitting bitwise-identical matrices resolve to one
//! canonical [`Arc<CsrMatrix>`]. That single pointer identity is what
//! widens job coalescing across tenants: the scheduler's batch gate
//! compares matrices by `Arc::ptr_eq`, and after dedup every hit shares
//! the first submitter's allocation.
//!
//! Each registry entry holds that canonical matrix plus the solver-policy
//! decision, resolved lazily by the first `auto` job or preview against
//! the matrix and reused by every later one. The caller computes the
//! fingerprint and runs the policy probe without holding the registry's
//! lock, then hands in the results (`admit`, `store_policy`). A cached
//! decision or warm start is served only to the matrix it was made for:
//! the lookups take the matrix as well as its fingerprint, and a
//! fingerprint collision finds nothing.
//! Entries are evicted in LRU order under a byte budget, but never while
//! a job that admitted through them is still in flight.
//!
//! Warm-start state lives here too: per `(fingerprint, tenant)` the
//! registry remembers the tenant's last *successful* solution, so a
//! resubmission against the same operator can seed its initial iterate
//! from where the previous solve ended. Quarantined or failed jobs never
//! record a solution (and a quarantine invalidates any stored one), so a
//! resubmission after a watchdog trip falls back to the caller's x0.

use crate::job::TenantId;
use asyrgs::policy::PolicyDecision;
use asyrgs_sparse::CsrMatrix;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// 128-bit content address of a CSR matrix: a hash over the dimensions,
/// the sparsity pattern (`row_ptr`, `col_idx`), and the bit patterns of
/// the stored values. Two matrices that are bitwise identical always map
/// to the same fingerprint; the registry additionally verifies full
/// bitwise equality on every hash hit, so a (vanishingly unlikely)
/// collision can never alias two different operators.
///
/// ```
/// use asyrgs_serve::MatrixFingerprint;
/// let a = asyrgs::workloads::laplace2d(4, 4);
/// let fp1 = MatrixFingerprint::of(&a);
/// let fp2 = MatrixFingerprint::of(&a.clone());
/// assert_eq!(fp1, fp2, "content-addressed: clones share a fingerprint");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixFingerprint(pub u128);

impl std::fmt::Display for MatrixFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One FNV-1a 64-bit stream; two independently-seeded streams are
/// concatenated into the 128-bit fingerprint.
struct Fnv64 {
    h: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new(salt: u64) -> Self {
        let mut s = Fnv64 { h: Self::OFFSET };
        s.write_u64(salt);
        s
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.h = (self.h ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }
}

impl MatrixFingerprint {
    /// Fingerprint a matrix by content. Deterministic across runs,
    /// processes, and any round-trip that preserves the bit patterns of
    /// the CSR arrays (including `SharedVec` striping, which stores
    /// `f64::to_bits` exactly).
    pub fn of(a: &CsrMatrix) -> Self {
        let mut lo = Fnv64::new(0x517c_c1b7_2722_0a95);
        let mut hi = Fnv64::new(0x2545_f491_4f6c_dd1d);
        for s in [&mut lo, &mut hi] {
            s.write_u64(a.n_rows() as u64);
            s.write_u64(a.n_cols() as u64);
            s.write_u64(a.nnz() as u64);
        }
        for &p in a.row_ptr() {
            lo.write_u64(p as u64);
            hi.write_u64(p as u64);
        }
        for &c in a.col_idx() {
            lo.write_u64(c as u64);
            hi.write_u64(c as u64);
        }
        for &v in a.values() {
            lo.write_u64(v.to_bits());
            hi.write_u64(v.to_bits());
        }
        MatrixFingerprint((u128::from(hi.h) << 64) | u128::from(lo.h))
    }
}

/// Exact bitwise equality of two CSR matrices (structure and value bit
/// patterns). Used as the collision guard behind every fingerprint hit.
fn bitwise_equal(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.n_rows() == b.n_rows()
        && a.n_cols() == b.n_cols()
        && a.row_ptr() == b.row_ptr()
        && a.col_idx() == b.col_idx()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What the registry holds per fingerprint, shared by every job admitted
/// against it.
#[derive(Debug, Clone)]
pub struct MatrixArtifacts {
    /// The canonical matrix allocation. Every deduped job's `SolveJob::a`
    /// is swapped to this `Arc`, which is what makes cross-tenant
    /// coalescing fire (the batch gate compares by pointer identity).
    pub a: Arc<CsrMatrix>,
    /// The solver-policy decision for this matrix, resolved lazily by the
    /// first `auto` job (or [`Scheduler::policy_preview`]) against this
    /// matrix and reused by every later one — repeat tenants pay the
    /// policy's spectral probe, where it runs, once per registered matrix.
    /// `None` until
    /// some job asked for a policy decision: explicit-family jobs never
    /// trigger the probe.
    ///
    /// [`Scheduler::policy_preview`]: crate::Scheduler::policy_preview
    pub policy: Option<Arc<PolicyDecision>>,
}

impl MatrixArtifacts {
    /// Approximate heap footprint of the canonical CSR, for the
    /// registry's byte budget: `row_ptr` plus 16 bytes (a column index
    /// and a value) per stored entry.
    fn bytes(&self) -> usize {
        (self.a.n_rows() + 1) * 8 + self.a.nnz() * 16
    }
}

/// Registry counters, all monotone except `entries`/`bytes` (current
/// occupancy). Read through `Scheduler::registry_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegistryStats {
    /// Admissions that deduped onto an existing entry.
    pub hits: u64,
    /// Admissions that registered a new matrix.
    pub misses: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Hash hits rejected by the bitwise collision guard (admitted
    /// unregistered; expected to stay 0 forever).
    pub collisions: u64,
    /// Jobs whose initial iterate was seeded from a stored solution.
    pub warm_starts: u64,
    /// Solver-policy decisions resolved fresh through
    /// `asyrgs::policy::decide_for` (first `auto` job or preview against a
    /// matrix), probe or not: a decision the Gershgorin bound certified
    /// without running the spectral probe counts here too.
    pub policy_probes: u64,
    /// Solver-policy decisions served from the per-fingerprint cache
    /// without re-probing.
    pub policy_hits: u64,
    /// Matrices currently registered.
    pub entries: usize,
    /// Approximate bytes currently cached: per entry the canonical CSR,
    /// `(n_rows + 1)·8 + nnz·16`, plus 8 bytes per element of each stored
    /// warm-start solution.
    pub bytes: usize,
}

impl RegistryStats {
    /// `hits / (hits + misses)`, or 0 when nothing was admitted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    artifacts: MatrixArtifacts,
    /// Bytes of stored warm-start solutions.
    warm_bytes: usize,
    /// Jobs admitted through this entry and not yet completed. An entry
    /// is never evicted while this is non-zero.
    in_flight: usize,
    /// LRU stamp: the registry tick of the last admission touch.
    last_touch: u64,
    /// Last successful solution per tenant.
    warm: BTreeMap<TenantId, Vec<f64>>,
}

/// The content-addressed matrix store. Owned by the scheduler behind its
/// own lock; all methods take `&mut self`.
pub(crate) struct MatrixRegistry {
    entries: HashMap<MatrixFingerprint, Entry>,
    max_bytes: usize,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
    warm_starts: u64,
    policy_probes: u64,
    policy_hits: u64,
}

/// What admission resolved to (dedup hits/misses are observable through
/// [`RegistryStats`]).
pub(crate) struct Admission {
    /// The canonical allocation the job should run against.
    pub canonical: Arc<CsrMatrix>,
    /// Whether the entry is registered (false only after a collision).
    pub registered: bool,
}

impl MatrixRegistry {
    pub(crate) fn new(max_bytes: usize) -> Self {
        MatrixRegistry {
            entries: HashMap::new(),
            max_bytes,
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            collisions: 0,
            warm_starts: 0,
            policy_probes: 0,
            policy_hits: 0,
        }
    }

    /// Admit a matrix under its fingerprint (`MatrixFingerprint::of(a)`,
    /// computed by the caller so the hash runs outside the registry
    /// lock): dedup onto the canonical entry on a hit, register a fresh
    /// entry on a miss. Pins the entry (`in_flight += 1`); the scheduler
    /// must call [`Self::release`] exactly once per admission when the
    /// job reaches any terminal state.
    pub(crate) fn admit(
        &mut self,
        fingerprint: MatrixFingerprint,
        a: &Arc<CsrMatrix>,
    ) -> Admission {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(&fingerprint) {
            if bitwise_equal(&entry.artifacts.a, a) {
                self.hits += 1;
                entry.in_flight += 1;
                entry.last_touch = tick;
                return Admission {
                    canonical: Arc::clone(&entry.artifacts.a),
                    registered: true,
                };
            }
            // A true 128-bit collision: refuse to alias — run the job on
            // its own allocation, unregistered.
            self.collisions += 1;
            return Admission {
                canonical: Arc::clone(a),
                registered: false,
            };
        }
        self.misses += 1;
        self.insert(fingerprint, Arc::clone(a), BTreeMap::new(), 1, tick);
        Admission {
            canonical: Arc::clone(a),
            registered: true,
        }
    }

    /// Register a new entry and evict down to the budget (the new entry
    /// survives when pinned).
    fn insert(
        &mut self,
        fingerprint: MatrixFingerprint,
        a: Arc<CsrMatrix>,
        warm: BTreeMap<TenantId, Vec<f64>>,
        in_flight: usize,
        tick: u64,
    ) {
        let artifacts = MatrixArtifacts { a, policy: None };
        let warm_bytes: usize = warm.values().map(|v| v.len() * 8).sum();
        self.bytes += artifacts.bytes() + warm_bytes;
        self.entries.insert(
            fingerprint,
            Entry {
                artifacts,
                warm_bytes,
                in_flight,
                last_touch: tick,
                warm,
            },
        );
        self.evict_to_budget();
    }

    /// Evict least-recently-touched entries until the byte budget holds,
    /// skipping entries with jobs in flight. May leave the registry over
    /// budget when everything is pinned.
    fn evict_to_budget(&mut self) {
        while self.bytes > self.max_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.in_flight == 0)
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(fp, _)| *fp);
            match victim {
                Some(fp) => {
                    let e = self.entries.remove(&fp).expect("victim exists");
                    self.bytes -= e.artifacts.bytes() + e.warm_bytes;
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Unpin one admission. Call exactly once per admitted job at any
    /// terminal state (published outcome, quarantine, scheduler drop).
    pub(crate) fn release(&mut self, fp: MatrixFingerprint) {
        if let Some(entry) = self.entries.get_mut(&fp) {
            entry.in_flight = entry.in_flight.saturating_sub(1);
        }
        self.evict_to_budget();
    }

    /// The entry registered under `fp` if it holds the matrix `a`: the
    /// same allocation (one pointer compare, the case for every admitted
    /// job), else bitwise the same content. `None` when `fp` is not
    /// registered or belongs to another matrix (a fingerprint collision).
    fn entry_for(&mut self, fp: MatrixFingerprint, a: &CsrMatrix) -> Option<&mut Entry> {
        self.entries
            .get_mut(&fp)
            .filter(|e| std::ptr::eq(&*e.artifacts.a, a) || bitwise_equal(&e.artifacts.a, a))
    }

    /// The tenant's stored solution for the matrix `a` under fingerprint
    /// `fp`, if any, and count the warm start.
    pub(crate) fn take_warm_start(
        &mut self,
        fp: MatrixFingerprint,
        a: &CsrMatrix,
        tenant: TenantId,
    ) -> Option<Vec<f64>> {
        let x = self.entry_for(fp, a)?.warm.get(&tenant).cloned()?;
        self.warm_starts += 1;
        Some(x)
    }

    /// Record a successful solution for warm-starting the tenant's next
    /// job against this fingerprint.
    pub(crate) fn record_solution(&mut self, fp: MatrixFingerprint, tenant: TenantId, x: &[f64]) {
        if let Some(entry) = self.entries.get_mut(&fp) {
            let new_bytes = x.len() * 8;
            let old_bytes = entry
                .warm
                .insert(tenant, x.to_vec())
                .map_or(0, |v| v.len() * 8);
            entry.warm_bytes = entry.warm_bytes + new_bytes - old_bytes;
            self.bytes = self.bytes + new_bytes - old_bytes;
        }
    }

    /// Drop the tenant's stored solution (called when the tenant's job on
    /// this fingerprint is quarantined: the stored iterate is no longer
    /// trusted, so the next submission falls back to its own x0).
    pub(crate) fn invalidate_warm(&mut self, fp: MatrixFingerprint, tenant: TenantId) {
        if let Some(entry) = self.entries.get_mut(&fp) {
            if let Some(v) = entry.warm.remove(&tenant) {
                entry.warm_bytes -= v.len() * 8;
                self.bytes -= v.len() * 8;
            }
        }
    }

    /// The cached artifact set for a fingerprint.
    pub(crate) fn artifacts(&self, fp: MatrixFingerprint) -> Option<MatrixArtifacts> {
        self.entries.get(&fp).map(|e| e.artifacts.clone())
    }

    /// The cached solver-policy decision for the matrix `a` under
    /// fingerprint `fp`, counted as a *policy hit* (no matvec spent);
    /// `None` when the entry carries none yet or `fp` does not register
    /// `a`. On `None` the caller runs the probe with the registry unlocked
    /// and hands the result to [`Self::store_policy`].
    pub(crate) fn cached_policy(
        &mut self,
        fp: MatrixFingerprint,
        a: &CsrMatrix,
    ) -> Option<Arc<PolicyDecision>> {
        let d = self.entry_for(fp, a)?.artifacts.policy.clone()?;
        self.policy_hits += 1;
        Some(d)
    }

    /// Count a *policy probe* and cache its decision on the fingerprint's
    /// entry unless the entry already carries one: when two callers probe
    /// the same matrix concurrently the first stored decision wins, and
    /// both get it back. Cached and fresh decisions are identical by
    /// construction — the probe is a pure function of the matrix bits —
    /// so the cache is an observable cost optimization, never a behavior
    /// change. A fingerprint that does not register `a` caches nothing.
    pub(crate) fn store_policy(
        &mut self,
        fp: MatrixFingerprint,
        a: &CsrMatrix,
        decision: Arc<PolicyDecision>,
    ) -> Arc<PolicyDecision> {
        self.policy_probes += 1;
        match self.entry_for(fp, a) {
            Some(entry) => Arc::clone(entry.artifacts.policy.get_or_insert(decision)),
            None => decision,
        }
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, fp: MatrixFingerprint) -> bool {
        self.entries.contains_key(&fp)
    }

    pub(crate) fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            collisions: self.collisions,
            warm_starts: self.warm_starts,
            policy_probes: self.policy_probes,
            policy_hits: self.policy_hits,
            entries: self.entries.len(),
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs::session::SolverFamily;
    use asyrgs::workloads;

    fn arc(a: CsrMatrix) -> Arc<CsrMatrix> {
        Arc::new(a)
    }

    /// Admit the way the scheduler does: hash first, then admit.
    fn admit(reg: &mut MatrixRegistry, a: &Arc<CsrMatrix>) -> (MatrixFingerprint, Admission) {
        let fp = MatrixFingerprint::of(a);
        (fp, reg.admit(fp, a))
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = workloads::diag_dominant(32, 4, 2.0, 7);
        let fp1 = MatrixFingerprint::of(&a);
        let fp2 = MatrixFingerprint::of(&a.clone());
        assert_eq!(fp1, fp2);
        // One-ulp value change: the fingerprint is bitwise-sensitive.
        let mut perturbed = a.clone();
        let v = perturbed.values_mut()[0];
        perturbed.values_mut()[0] = f64::from_bits(v.to_bits() + 1);
        assert_ne!(fp1, MatrixFingerprint::of(&perturbed));
    }

    #[test]
    fn fingerprint_separates_structure_from_values() {
        // Same values, different pattern must not collide in practice.
        let a = workloads::laplace2d(3, 3);
        let b = workloads::laplace2d(3, 3);
        assert_eq!(MatrixFingerprint::of(&a), MatrixFingerprint::of(&b));
        let c = workloads::diag_dominant(9, 3, 2.0, 1);
        assert_ne!(MatrixFingerprint::of(&a), MatrixFingerprint::of(&c));
    }

    #[test]
    fn admit_dedups_bitwise_identical_matrices() {
        let mut reg = MatrixRegistry::new(usize::MAX);
        let a1 = arc(workloads::laplace2d(5, 5));
        let a2 = arc(workloads::laplace2d(5, 5));
        assert!(!Arc::ptr_eq(&a1, &a2));
        let (fp1, adm1) = admit(&mut reg, &a1);
        let (fp2, adm2) = admit(&mut reg, &a2);
        assert_eq!(fp1, fp2);
        assert!(Arc::ptr_eq(&adm1.canonical, &adm2.canonical));
        assert_eq!(reg.stats().entries, 1);
        assert_eq!(reg.stats().hits, 1);
        assert_eq!(reg.stats().misses, 1);
    }

    #[test]
    fn an_entry_holds_the_canonical_csr_and_a_lazy_policy() {
        let mut reg = MatrixRegistry::new(usize::MAX);
        let a = arc(workloads::diag_dominant(24, 4, 2.0, 3));
        let (fp, adm) = admit(&mut reg, &a);
        let art = reg.artifacts(fp).expect("registered");
        assert!(Arc::ptr_eq(&art.a, &adm.canonical));
        assert!(Arc::ptr_eq(&art.a, &a), "a miss keeps the submitter's Arc");
        assert!(art.policy.is_none(), "no auto job or preview asked yet");
        // The budget counts the CSR only: row_ptr plus (col, value) per
        // stored entry.
        assert_eq!(reg.stats().bytes, (a.n_rows() + 1) * 8 + a.nnz() * 16);
    }

    #[test]
    fn policy_decisions_are_cached_per_fingerprint() {
        let mut reg = MatrixRegistry::new(usize::MAX);
        let a = arc(workloads::laplace2d(6, 6));
        let (fp, _) = admit(&mut reg, &a);
        assert!(reg.cached_policy(fp, &a).is_none(), "nothing stored yet");
        assert_eq!(reg.stats().policy_hits, 0, "a miss is not a hit");
        let d1 = Arc::new(asyrgs::policy::decide_for(&a).expect("spd input"));
        let stored = reg.store_policy(fp, &a, Arc::clone(&d1));
        assert!(Arc::ptr_eq(&stored, &d1));
        assert_eq!(reg.stats().policy_probes, 1);
        assert_eq!(reg.stats().policy_hits, 0);
        let d2 = reg.cached_policy(fp, &a).expect("cached");
        assert_eq!(reg.stats().policy_probes, 1);
        assert_eq!(reg.stats().policy_hits, 1);
        assert!(Arc::ptr_eq(&d1, &d2), "hit serves the cached Arc");
        // A racing second probe of the same matrix is counted but does
        // not replace the decision already cached.
        let late = Arc::new(asyrgs::policy::decide_for(&a).expect("spd input"));
        let kept = reg.store_policy(fp, &a, late);
        assert!(Arc::ptr_eq(&kept, &d1), "the first stored decision wins");
        assert!(Arc::ptr_eq(
            &reg.cached_policy(fp, &a).expect("cached"),
            &d1
        ));
        assert_eq!(reg.stats().policy_probes, 2);
        assert_eq!(reg.stats().policy_hits, 2);
        // A structurally unservable matrix fails to profile: the caller
        // stores nothing, so nothing is counted or cached.
        let zero_diag = arc(CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 2.0]));
        let (fp, _) = admit(&mut reg, &zero_diag);
        assert!(reg.cached_policy(fp, &zero_diag).is_none());
        assert!(asyrgs::policy::decide_for(&zero_diag).is_err());
        assert_eq!(reg.stats().policy_probes, 2, "failed profiling is free");
        assert_eq!(reg.stats().policy_hits, 2);
        assert!(reg.artifacts(fp).expect("registered").policy.is_none());
    }

    #[test]
    fn eviction_respects_in_flight_pins() {
        // Budget of one entry's worth: admitting a second matrix would
        // evict the first — unless it is pinned.
        let a1 = arc(workloads::laplace2d(4, 4));
        let a2 = arc(workloads::laplace2d(6, 6));
        let mut reg = MatrixRegistry::new(1);
        let (fp1, _) = admit(&mut reg, &a1); // pinned (in_flight = 1)
        let (fp2, _) = admit(&mut reg, &a2);
        // Both over budget but both pinned: nothing evictable.
        assert!(reg.contains(fp1));
        assert!(reg.contains(fp2));
        reg.release(fp1);
        reg.release(fp2);
        // Now over budget with no pins: LRU eviction reclaims.
        assert_eq!(reg.stats().entries, 0);
        assert!(reg.stats().evictions >= 2);
    }

    #[test]
    fn warm_start_roundtrip_and_invalidation() {
        let mut reg = MatrixRegistry::new(usize::MAX);
        let a = arc(workloads::laplace2d(4, 4));
        let (fp, _) = admit(&mut reg, &a);
        let t = TenantId(9);
        assert!(reg.take_warm_start(fp, &a, t).is_none());
        let x = vec![1.5; a.n_rows()];
        reg.record_solution(fp, t, &x);
        assert_eq!(reg.take_warm_start(fp, &a, t).as_deref(), Some(&x[..]));
        assert!(reg.take_warm_start(fp, &a, TenantId(10)).is_none());
        reg.invalidate_warm(fp, t);
        assert!(reg.take_warm_start(fp, &a, t).is_none());
    }

    /// A fingerprint collision: a second matrix admitted under the first
    /// one's fingerprint runs unregistered, and is served neither the
    /// first matrix's policy decision nor its warm start, while the first
    /// matrix keeps both.
    #[test]
    fn a_colliding_matrix_gets_no_cached_decision_or_warm_start() {
        let mut reg = MatrixRegistry::new(usize::MAX);
        let spd = arc(workloads::laplace2d(6, 6));
        let (fp, _) = admit(&mut reg, &spd);
        let t = TenantId(3);
        let cg = Arc::new(asyrgs::policy::decide_for(&spd).expect("spd input"));
        assert_eq!(cg.family, SolverFamily::Cg);
        reg.store_policy(fp, &spd, Arc::clone(&cg));
        reg.record_solution(fp, t, &[0.5; 36]);
        // Halve a_01 alone: nonsymmetric, and bitwise different content
        // admitted under the Laplacian's fingerprint.
        let mut skewed = workloads::laplace2d(6, 6);
        skewed.values_mut()[1] *= 0.5;
        let skewed = arc(skewed);
        let adm = reg.admit(fp, &skewed);
        assert!(!adm.registered && Arc::ptr_eq(&adm.canonical, &skewed));
        assert_eq!(reg.stats().collisions, 1);
        assert!(reg.cached_policy(fp, &skewed).is_none());
        assert!(reg.take_warm_start(fp, &skewed, t).is_none());
        let own = Arc::new(asyrgs::policy::decide_for(&skewed).expect("nonsym input"));
        assert_eq!(own.family, SolverFamily::Bicgstab);
        let served = reg.store_policy(fp, &skewed, Arc::clone(&own));
        assert!(Arc::ptr_eq(&served, &own), "its own decision, not cached");
        // The registered Laplacian keeps its decision and warm start, also
        // when a bitwise copy of it asks.
        let copy = workloads::laplace2d(6, 6);
        assert!(Arc::ptr_eq(
            &reg.cached_policy(fp, &copy).expect("cached"),
            &cg
        ));
        assert!(reg.take_warm_start(fp, &spd, t).is_some());
        assert_eq!(reg.stats().warm_starts, 1);
    }
}
