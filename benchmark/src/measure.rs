//! Measurement primitives shared by the workloads: order statistics,
//! repeat-and-take-the-median timing, the process memory high-water mark,
//! the span recorder of traced runs, and the metric list a run reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank `q`-quantile, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v.len() - rank >= TAIL_SAMPLES).then(|| v[rank - 1])
}

/// The `q`-quantile when enough samples lie beyond it, else the maximum.
pub fn quantile_or_max(xs: &[f64], q: f64) -> f64 {
    tail_quantile(xs, q).unwrap_or_else(|| xs.iter().copied().fold(0.0, f64::max))
}

/// Mean of the middle half of a sample: as robust to outliers as the
/// median, without its coarse steps on small whole-number samples.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    mean(&v[quarter..v.len() - quarter])
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Relative cost of tracing: traced minus untraced over untraced (0 when
/// either side has no samples).
pub fn overhead_share(traced: f64, untraced: f64) -> f64 {
    if traced > 0.0 && untraced > 0.0 {
        (traced - untraced) / untraced
    } else {
        0.0
    }
}

/// Run `f` `reps` times and return the median wall time in seconds.
pub fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Run `set_up` `reps` times, dropping each instance before building the
/// next, and return the last one with every set-up's wall time.
pub fn repeat_set_up<T>(reps: usize, mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut inst = None;
    for _ in 0..reps.max(1) {
        drop(inst.take());
        let t = Instant::now();
        inst = Some(set_up());
        times.push(t.elapsed().as_secs_f64());
    }
    (inst.expect("set up at least once"), times)
}

/// Reset the kernel's resident-set high-water mark to the current RSS, so
/// that [`peak_rss_mb`] covers only what follows. Returns whether the
/// reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident-set high-water mark (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// One named number with its unit, as the final JSON line reports it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// One traced call into the program: the layer boundary it crossed, when,
/// and the request it belongs to.
struct Span {
    name: &'static str,
    request: u64,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder for traced runs; [`Tracer::summary`]
/// aggregates its spans when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            request,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// Per span name: count, total time, and self time (total minus the
    /// time of other spans of the same request nested inside it).
    pub fn summary(&self) -> String {
        let mut by_request: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_request.entry(s.request).or_default().push(s);
        }
        // name -> (count, total, self), in seconds
        let mut agg: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for spans in by_request.values() {
            for s in spans {
                let total = (s.end - s.start).as_secs_f64();
                let nested: f64 = spans
                    .iter()
                    .filter(|c| c.name != s.name && c.start >= s.start && c.end <= s.end)
                    .map(|c| (c.end - c.start).as_secs_f64())
                    .sum();
                let e = agg.entry(s.name).or_default();
                e.0 += 1;
                e.1 += total;
                e.2 += total - nested;
            }
        }
        agg.iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "span {name:<8} count {count:>7}  total {:>11.3} ms  self {:>11.3} ms\n",
                    total * 1e3,
                    own * 1e3
                )
            })
            .collect()
    }
}
