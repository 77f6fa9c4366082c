//! Mixed-tenant traffic scenarios: deterministic descriptions of *who*
//! submits *what* to a solve scheduler, built on the scenario corpus.
//!
//! The other modules in this crate generate matrices; this one generates
//! **load**. A [`TrafficMix`] is a seeded, reproducible population of
//! tenants — each with a fair-share weight, a scenario drawn from the
//! smoke-sized corpus, a job count, and optionally a deadline — that the
//! `serve_runner` benchmark and the scheduler tests replay against
//! `asyrgs-serve`. Keeping the description here (rather than inline in
//! the benchmark) makes the traffic a named, versioned workload like any
//! matrix family.
//!
//! ```
//! use asyrgs_workloads::traffic::mixed_tenant_mix;
//!
//! let mix = mixed_tenant_mix(8, 4, 0xBEEF);
//! assert_eq!(mix.tenants.len(), 8);
//! assert_eq!(mix.total_jobs(), 32);
//! // Pure function of its arguments: same seed, same mix.
//! let again = mixed_tenant_mix(8, 4, 0xBEEF);
//! assert_eq!(mix.tenants[3].scenario, again.tenants[3].scenario);
//! assert_eq!(mix.tenants[3].weight, again.tenants[3].weight);
//! ```

use crate::scenarios::{smoke_scenarios, ScenarioClass};
use asyrgs_rng::{Xoshiro256pp, ZipfSampler};

/// One tenant's traffic profile within a [`TrafficMix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantProfile {
    /// Tenant identifier (dense, starting at 1).
    pub tenant_id: u64,
    /// Fair-share weight: heavier tenants expect proportionally more
    /// dispatch slots.
    pub weight: u32,
    /// Name of the scenario-corpus problem this tenant solves
    /// (square-system families only — resolvable via
    /// [`crate::scenarios::find`]).
    pub scenario: &'static str,
    /// Jobs this tenant submits.
    pub jobs: usize,
    /// Per-job deadline in milliseconds (`None` = best effort). Only a
    /// minority of tenants carry deadlines, mirroring latency-sensitive
    /// traffic mixed into batch load.
    pub deadline_ms: Option<u64>,
}

/// A deterministic multi-tenant load description (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMix {
    /// The seed the mix was generated from.
    pub seed: u64,
    /// One profile per tenant.
    pub tenants: Vec<TenantProfile>,
}

impl TrafficMix {
    /// Total jobs across all tenants.
    pub fn total_jobs(&self) -> usize {
        self.tenants.iter().map(|t| t.jobs).sum()
    }
}

/// The canonical mixed-tenant traffic scenario: `tenants` tenants, each
/// submitting `jobs_per_tenant` jobs against a square SPD problem from the
/// smoke-sized scenario corpus, with weights skewed 1/2/4 (most tenants
/// light, a few heavy) and every fourth tenant carrying a deadline. A pure
/// function of its arguments — replaying a mix reproduces the same
/// workload names, weights, and deadlines bitwise.
pub fn mixed_tenant_mix(tenants: usize, jobs_per_tenant: usize, seed: u64) -> TrafficMix {
    // Square scenarios only: the scheduler serves square systems, and the
    // smoke subset keeps per-job cost CI-friendly.
    let pool: Vec<&'static str> = smoke_scenarios()
        .into_iter()
        .filter(|s| s.class == ScenarioClass::SquareSpd)
        .map(|s| s.name)
        .collect();
    assert!(
        !pool.is_empty(),
        "scenario corpus has no square smoke entries"
    );
    let mut rng = Xoshiro256pp::new(seed);
    let profiles = (0..tenants)
        .map(|i| {
            let weight = match rng.next_index(4) {
                0 => 4, // heavy tenant
                1 => 2,
                _ => 1, // half the population is light
            };
            TenantProfile {
                tenant_id: i as u64 + 1,
                weight,
                scenario: pool[rng.next_index(pool.len())],
                jobs: jobs_per_tenant,
                deadline_ms: (i % 4 == 3).then(|| 2_000 + rng.next_index(3_000) as u64),
            }
        })
        .collect();
    TrafficMix {
        seed,
        tenants: profiles,
    }
}

/// One admission event of a [`HotMatrixReplay`]: tenant `tenant_id`
/// submits one job against hot matrix number `matrix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayEvent {
    /// Position in the replay (0-based admission order).
    pub seq: usize,
    /// The submitting tenant (dense, starting at 1).
    pub tenant_id: u64,
    /// Index into [`HotMatrixReplay::matrices`].
    pub matrix: usize,
    /// Fair-share weight of the submission (skewed 1/2/4 like
    /// [`mixed_tenant_mix`]).
    pub weight: u32,
}

/// A Zipf-distributed hot-matrix workload: many tenants, few matrices,
/// and a popularity skew where matrix `k` is drawn with probability
/// proportional to `1/(k+1)^s` — the "millions of users hammer one graph
/// Laplacian" shape the service's content-addressed registry exists to
/// amortize. Replaying it against a scheduler exercises cross-tenant
/// dedup (every tenant materializes its *own copy* of the matrix),
/// coalescing, and warm-start.
#[derive(Debug, Clone, PartialEq)]
pub struct HotMatrixReplay {
    /// The seed the replay was generated from.
    pub seed: u64,
    /// The Zipf exponent the popularity skew was drawn with.
    pub zipf_s: f64,
    /// The hot-matrix pool, ordered hottest first: names from the
    /// scenario corpus (square SPD smoke entries, resolvable via
    /// [`crate::scenarios::find`]).
    pub matrices: Vec<&'static str>,
    /// Number of tenants the events are spread over.
    pub tenants: usize,
    /// The admission sequence.
    pub events: Vec<ReplayEvent>,
}

impl HotMatrixReplay {
    /// Jobs in the replay.
    pub fn total_jobs(&self) -> usize {
        self.events.len()
    }
}

/// The Zipf exponent used by [`zipf_hot_matrix_replay`]: a realistic
/// "few hot, long tail" skew (s = 1.1) where the hottest matrix absorbs
/// roughly a third of all jobs.
pub const ZIPF_HOT_MATRIX_S: f64 = 1.1;

/// Build a deterministic Zipf hot-matrix replay: `jobs` admission events
/// spread uniformly over `tenants` tenants, each drawing its matrix from
/// the square-SPD smoke corpus under a Zipf([`ZIPF_HOT_MATRIX_S`])
/// popularity skew. A pure function of its arguments — the same seed
/// reproduces the same event sequence bitwise.
pub fn zipf_hot_matrix_replay(jobs: usize, tenants: usize, seed: u64) -> HotMatrixReplay {
    assert!(tenants > 0, "replay needs at least one tenant");
    let matrices: Vec<&'static str> = smoke_scenarios()
        .into_iter()
        .filter(|s| s.class == ScenarioClass::SquareSpd)
        .map(|s| s.name)
        .collect();
    assert!(
        !matrices.is_empty(),
        "scenario corpus has no square smoke entries"
    );
    let mut rng = Xoshiro256pp::new(seed);
    let zipf = ZipfSampler::new(matrices.len(), ZIPF_HOT_MATRIX_S);
    let events = (0..jobs)
        .map(|seq| ReplayEvent {
            seq,
            tenant_id: rng.next_index(tenants) as u64 + 1,
            matrix: zipf.sample(&mut rng) - 1, // sampler is 1-based
            weight: match rng.next_index(4) {
                0 => 4,
                1 => 2,
                _ => 1,
            },
        })
        .collect();
    HotMatrixReplay {
        seed,
        zipf_s: ZIPF_HOT_MATRIX_S,
        matrices,
        tenants,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::find;

    #[test]
    fn mix_is_deterministic_and_resolvable() {
        let a = mixed_tenant_mix(16, 3, 7);
        let b = mixed_tenant_mix(16, 3, 7);
        assert_eq!(a, b, "same seed must reproduce the mix bitwise");
        assert_eq!(a.total_jobs(), 48);
        for t in &a.tenants {
            assert!(t.weight == 1 || t.weight == 2 || t.weight == 4);
            assert!(t.jobs == 3);
            let sc = find(t.scenario).expect("scenario must resolve");
            assert_eq!(sc.class, ScenarioClass::SquareSpd);
            if let Some(ms) = t.deadline_ms {
                assert!((2_000..5_000).contains(&ms));
            }
        }
        // Tenant ids are dense and 1-based.
        let ids: Vec<u64> = a.tenants.iter().map(|t| t.tenant_id).collect();
        assert_eq!(ids, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn different_seeds_differ() {
        let a = mixed_tenant_mix(16, 1, 1);
        let b = mixed_tenant_mix(16, 1, 2);
        assert_ne!(a.tenants, b.tenants);
    }

    #[test]
    fn zipf_replay_is_deterministic_and_skewed() {
        let a = zipf_hot_matrix_replay(1_000, 256, 0xC0FFEE);
        let b = zipf_hot_matrix_replay(1_000, 256, 0xC0FFEE);
        assert_eq!(a, b, "same seed must reproduce the replay bitwise");
        assert_eq!(a.total_jobs(), 1_000);
        for e in &a.events {
            assert!(e.tenant_id >= 1 && e.tenant_id <= 256);
            assert!(e.matrix < a.matrices.len());
            assert!(e.weight == 1 || e.weight == 2 || e.weight == 4);
        }
        for name in &a.matrices {
            let sc = find(name).expect("scenario must resolve");
            assert_eq!(sc.class, ScenarioClass::SquareSpd);
        }
        // Zipf skew: the hottest matrix (index 0) must dominate the
        // coldest by a wide margin at s = 1.1.
        let mut counts = vec![0usize; a.matrices.len()];
        for e in &a.events {
            counts[e.matrix] += 1;
        }
        assert!(
            counts[0] > *counts.last().unwrap() * 2,
            "no popularity skew: {counts:?}"
        );
        // Dedup potential: unique matrices are far fewer than jobs, so a
        // content-addressed registry sees a ≥ 50% hit rate on replay.
        assert!(a.matrices.len() * 2 < a.total_jobs());
    }

    #[test]
    fn zipf_replay_seeds_differ() {
        let a = zipf_hot_matrix_replay(64, 8, 1);
        let b = zipf_hot_matrix_replay(64, 8, 2);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn weights_are_skewed_not_uniform() {
        let mix = mixed_tenant_mix(64, 1, 0xFEED);
        let light = mix.tenants.iter().filter(|t| t.weight == 1).count();
        let heavy = mix.tenants.iter().filter(|t| t.weight == 4).count();
        assert!(light > heavy, "population must skew light");
        assert!(heavy > 0, "but heavy tenants must exist");
    }
}
