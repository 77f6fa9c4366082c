//! The repository benchmark: three workloads driven through the public
//! API from one process, every answer checked, every metric printed by
//! name with its unit. `README.md` in this directory explains the
//! workloads and what each metric should move.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <solve_large|serve_hot|serve_cold> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Standard output ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.
//! Untraced runs report the end-to-end metrics, traced runs the per-layer
//! ones. Exit codes: 0 success, 1 a failed answer check (the result line
//! is still printed), 2 bad arguments, 3 a count that must repeat drifted
//! (no result line).

mod layers;
mod measure;
mod serve;
mod solve_large;

use asyrgs::rng::Xoshiro256pp;
use asyrgs::sparse::dense::norm2;
use asyrgs::sparse::CsrMatrix;
use measure::Metrics;
use std::process::ExitCode;

/// The end-to-end metrics every untraced run reports, in report order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "solve_s",
    "seq_solve_s",
    "jobs_per_s",
    "job_p50_ms",
    "job_p99_ms",
    "ok_ratio",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports, in report order.
const PER_LAYER: [&str; 38] = [
    "sparse.residual_ms",
    "sparse.par_matvec_ms",
    "sparse.row_dot_ns",
    "sparse.matvec_mb",
    "sparse.flops_per_byte",
    "sparse.is_symmetric_ms",
    "rng.draw_ns",
    "parallel.round_us",
    "core.update_ns_t1",
    "core.update_ns_tN",
    "core.seq_update_ns",
    "core.sweeps",
    "core.seq_sweeps",
    "core.tau_max",
    "core.observe_ms",
    "core.validate_ms",
    "session.symmetry_ms",
    "session.build_us",
    "session.solo_us",
    "session.block_rhs_us",
    "policy.decide_ms",
    "krylov.cg_ms",
    "registry.fingerprint_us",
    "registry.hit_rate",
    "registry.evictions",
    "registry.policy_probes",
    "serve.submit_us_p50",
    "serve.submit_us_p99",
    "serve.queue_ms_p50",
    "serve.queue_ms_p99",
    "serve.service_ms_p50",
    "serve.service_ms_p99",
    "serve.batch_mean",
    "serve.cross_tenant_share",
    "serve.warm_share",
    "serve.threads_mean",
    "trace.overhead_share",
    "trace.accounted_share",
];

const WORKLOADS: [&str; 3] = ["solve_large", "serve_hot", "serve_cold"];

const USAGE: &str = "usage: asyrgs-benchmark --workload <solve_large|serve_hot|serve_cold> \
     [--seed N] [--seconds S] [--trace 0|1] [--default-seed N] [--held-out-seed N]";

/// What every workload receives.
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads a parallel solve asks for: the machine's cores.
    pub nproc: usize,
}

/// What a workload measured.
pub struct Outcome {
    /// Solves or jobs attempted in the measured window, plus answer checks
    /// that stand on their own.
    pub attempted: u64,
    /// Errors, refusals, and failed answer checks.
    pub failed: u64,
    pub metrics: Metrics,
}

/// A count that must repeat exactly did not: the run aborts instead of
/// reporting.
pub struct Drift(pub String);

/// Fail with [`Drift`] unless `got == want`.
pub fn expect_count(what: &str, got: u64, want: u64) -> Result<(), Drift> {
    if got == want {
        Ok(())
    } else {
        Err(Drift(format!(
            "{what}: counted {got}, expected exactly {want}"
        )))
    }
}

/// A right-hand side with a known solution: `b = A x*`, `x*` uniform in
/// `[-1, 1)` drawn from `seed`.
pub fn rhs_for(a: &CsrMatrix, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::new(seed ^ 0xB0B5_EED5);
    let x_star: Vec<f64> = (0..a.n_cols())
        .map(|_| 2.0 * rng.next_f64() - 1.0)
        .collect();
    a.matvec(&x_star)
}

/// `||b - A x|| / ||b||`, recomputed outside the solver.
pub fn rel_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; a.n_rows()];
    a.residual_into(b, x, &mut r);
    norm2(&r) / norm2(b)
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    default_seed: u64,
    held_out_seed: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        default_seed: 1,
        held_out_seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(number()?),
            "--seconds" => args.seconds = number()? as f64,
            "--trace" => args.trace = number()? != 0,
            "--default-seed" => args.default_seed = number()?,
            "--held-out-seed" => args.held_out_seed = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Size in bytes of the data or unified cache at `level`, from sysfs.
fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        if read("level")?.trim().parse::<u32>().ok()? != level
            || read("type")?.trim() == "Instruction"
        {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, scale) = match (size.strip_suffix('K'), size.strip_suffix('M')) {
            (Some(d), _) => (d, 1u64 << 10),
            (_, Some(d)) => (d, 1 << 20),
            _ => (size, 1),
        };
        Some(digits.parse::<u64>().ok()? * scale)
    })
}

/// The commit of a git checkout, read from `.git` directly ("unknown"
/// outside one).
fn commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the library sources the benchmark was built from
/// (manifests and `.rs` files under `src/` and `crates/`), so that runs
/// outside a git checkout still name the code they measured.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for byte in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn context_line(args: &Args, seed: u64, nproc: usize) -> String {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let role = if seed == args.default_seed {
        "default"
    } else if Some(seed) == args.held_out_seed {
        "held-out"
    } else {
        "other"
    };
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    format!(
        "context {{\"workload\": {}, \"seed\": {seed}, \"seed_role\": {}, \"traced\": {}, \
         \"seconds\": {}, \"nproc\": {nproc}, \"pool_concurrency\": {}, \"asyrgs_threads\": {}, \
         \"l2_bytes\": {}, \"l3_bytes\": {}, \"commit\": {}, \"source_digest\": {}}}",
        json_str(&args.workload),
        json_str(role),
        args.trace,
        args.seconds,
        asyrgs::parallel::global().concurrency(),
        std::env::var("ASYRGS_THREADS").map_or("null".to_string(), |v| json_str(&v)),
        opt(cache_bytes(2)),
        opt(cache_bytes(3)),
        json_str(&commit(root)),
        json_str(&source_digest(root)),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(args.default_seed);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cfg = RunConfig {
        seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
    };
    println!("{}", context_line(&args, seed, nproc));

    let result = match args.workload.as_str() {
        "solve_large" => solve_large::run(&cfg),
        "serve_hot" => serve::run_hot(&cfg),
        _ => serve::run_cold(&cfg),
    };
    let out = match result {
        Ok(out) => out,
        Err(Drift(msg)) => {
            eprintln!("aborting, a count that must repeat drifted: {msg}");
            return ExitCode::from(3);
        }
    };

    // Report exactly the metric list BENCHMARK.json declares for this mode.
    let names: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(
        out.metrics.0.len(),
        names.len(),
        "workload {} reported a metric list other than the declared one",
        args.workload
    );
    let mut fields = Vec::with_capacity(names.len());
    for name in names {
        let Some(m) = out.metrics.0.iter().find(|m| m.name == *name) else {
            panic!("workload {} did not report metric {name}", args.workload);
        };
        assert!(
            m.value.is_finite(),
            "metric {name} is not finite: {}",
            m.value
        );
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
