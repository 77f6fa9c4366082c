//! The one report path of the `BENCH_*.json` runners: a JSON value and its
//! writer, one sample summary, the residual status ladder, and the named
//! gates that decide the runner's exit code.
//!
//! A runner reads its output path and smoke flag with
//! [`Report::from_env`], checks a gate per claim with [`Report::gate`] on
//! the values it just measured (a failed gate is printed by name at once),
//! builds its output as one [`Json`] value (objects through
//! [`obj!`](crate::obj)), and returns [`Report::finish`] from `main`, which
//! writes the file and fails the process if any gate failed. CI runs a
//! runner and reads only its exit code.

use std::fmt::{Debug, Write as _};
use std::process::ExitCode;
use std::time::Instant;

/// A JSON value. Object keys keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer, written exactly.
    Int(i128),
    /// A float, written in its shortest round-trip form; a non-finite
    /// value is written as `null`, since JSON has no literal for it.
    Num(f64),
    /// A string, escaped per RFC 8259.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

/// Build a [`Json::Obj`] from `"key": value` pairs, converting each value
/// with `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::report::Json::Obj(vec![$(($key, $crate::report::Json::from($value))),*])
    };
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

from! {
    bool => |v| Json::Bool(v),
    f64 => |v| Json::Num(v),
    u64 => |v| Json::Int(v.into()),
    usize => |v| Json::Int(v as i128),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// The value as JSON text ending in a newline. Containers in the top
    /// two levels put each entry on its own line; deeper ones are inline,
    /// so an array of records reads one record per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// This object with `key` appended when `value` is `Some`, for a key
    /// that only some records carry.
    pub fn with_some(mut self, key: &'static str, value: Option<impl Into<Json>>) -> Json {
        if let (Json::Obj(fields), Some(value)) = (&mut self, value) {
            fields.push((key, value.into()));
        }
        self
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            // `Debug` is the shortest form that reads back to the same
            // bits, and every finite value it prints is a JSON number.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_entries(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => write_entries(
                out,
                depth,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(*k), v)),
            ),
        }
    }
}

fn write_entries<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let inline = depth >= 2;
    let mut empty = true;
    out.push(open);
    for (key, value) in entries {
        if !empty {
            out.push_str(if inline { ", " } else { "," });
        }
        if !inline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
        empty = false;
    }
    if !inline && !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// `s` as a JSON string: `"` and `\` escaped, and every control character
/// U+0000–U+001F as a short escape or `\u00XX`.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < '\u{20}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Order statistics of one sample. Quantile `q` is the sorted sample at
/// the nearest rank to `(len − 1)·q`, so the median of an even-length
/// sample is its upper middle value; an empty sample summarizes to zeros.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The smallest value.
    pub min: f64,
    /// The median.
    pub p50: f64,
    /// The 90th percentile.
    pub p90: f64,
    /// The 99th percentile.
    pub p99: f64,
    /// The largest value.
    pub max: f64,
}

impl Summary {
    /// Summarize `samples`, sorting them in place.
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| match samples.len() {
            0 => 0.0,
            len => samples[((len - 1) as f64 * q).round() as usize],
        };
        Summary {
            min: at(0.0),
            p50: at(0.5),
            p90: at(0.9),
            p99: at(0.99),
            max: at(1.0),
        }
    }

    /// Summarize the wall-clock seconds of `reps` runs of `f`.
    pub fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> Summary {
        let mut seconds: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        Summary::of(&mut seconds)
    }

    /// The p50, p90, p99 and max as one JSON object.
    pub fn quantiles(&self) -> Json {
        crate::obj! {"p50": self.p50, "p90": self.p90, "p99": self.p99, "max": self.max}
    }
}

/// What a solve's final relative residual says against tolerance `tol`:
/// `converged` at or below `tol`; `completed` at or below the relative
/// residual of a zero start, 1 (with 1e-9 of slack); `diverged` above
/// that or when not finite.
pub fn residual_status(final_rel_residual: f64, tol: f64) -> &'static str {
    match final_rel_residual {
        r if r.is_finite() && r <= tol => "converged",
        r if r.is_finite() && r <= 1.0 + 1e-9 => "completed",
        _ => "diverged",
    }
}

/// One runner invocation: where its JSON goes, whether it runs at smoke
/// sizes, and how many of its gates failed.
pub struct Report {
    /// The output path: the first command-line argument, else the
    /// runner's default file.
    pub path: String,
    /// `ASYRGS_BENCH_SMOKE=1`: tiny sizes and short budgets, for CI.
    pub smoke: bool,
    gates: usize,
    failed: usize,
}

impl Report {
    /// Read `[OUTPUT_PATH]` (default `default_path`) and
    /// `ASYRGS_BENCH_SMOKE`.
    pub fn from_env(default_path: &str) -> Report {
        Report {
            path: std::env::args()
                .nth(1)
                .unwrap_or_else(|| default_path.to_string()),
            smoke: std::env::var("ASYRGS_BENCH_SMOKE").as_deref() == Ok("1"),
            gates: 0,
            failed: 0,
        }
    }

    /// Check gate `name` on a value just measured. If `ok` is false, print
    /// the name with `got`, what broke it, and fail the run at
    /// [`finish`](Self::finish).
    pub fn gate(&mut self, name: &str, ok: bool, got: impl Debug) {
        self.gates += 1;
        if !ok {
            self.failed += 1;
            eprintln!("gate FAILED {name}: got {got:?}");
        }
    }

    /// Write `json` to the output path; fail if any gate failed.
    pub fn finish(self, json: &Json) -> ExitCode {
        std::fs::write(&self.path, json.to_text()).expect("the output path must be writable");
        eprintln!(
            "wrote {}; {} of {} gates failed",
            self.path, self.failed, self.gates
        );
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_every_control_character() {
        let text = Json::from("a\"b\\c\nd\re\tf\u{0}g\u{8}h\u{c}i\u{1f}j\u{7f}é").to_text();
        assert_eq!(
            text,
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000g\\u0008h\\u000ci\\u001fj\u{7f}é\"\n"
        );
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let text = Json::from(c.to_string()).to_text();
            assert!(text.chars().all(|t| t >= '\u{20}' || t == '\n'), "{c:?}");
        }
    }

    #[test]
    fn non_finite_numbers_are_null_and_finite_ones_round_trip() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).to_text(), "null\n");
        }
        for v in [0.0, -0.0, 1.0, 0.1, 1e-7, 6.02e23, -2.5e-300, f64::MAX] {
            let text = Json::Num(v).to_text();
            assert_eq!(
                text.trim_end().parse::<f64>().unwrap().to_bits(),
                v.to_bits()
            );
            assert!(!text.contains(['i', 'N']), "{text}");
        }
        assert_eq!(Json::from(u64::MAX).to_text(), "18446744073709551615\n");
        assert_eq!(Json::from(None::<f64>).to_text(), "null\n");
    }

    #[test]
    fn empty_containers_and_nesting() {
        assert_eq!(Json::Arr(vec![]).to_text(), "[]\n");
        assert_eq!(Json::Obj(vec![]).to_text(), "{}\n");
        let doc = crate::obj! {
            "empty": Json::Arr(vec![]),
            "rows": vec![
                crate::obj! {"a": 1usize, "b": vec![true, false], "c": Json::Obj(vec![])},
                crate::obj! {"a": 2usize, "b": Json::Arr(vec![]), "c": crate::obj! {"d": "x"}},
            ],
            "one": crate::obj! {"k": Json::Null},
        };
        assert_eq!(
            doc.to_text(),
            "{\n  \"empty\": [],\n  \"rows\": [\n    \
             {\"a\": 1, \"b\": [true, false], \"c\": {}},\n    \
             {\"a\": 2, \"b\": [], \"c\": {\"d\": \"x\"}}\n  ],\n  \
             \"one\": {\n    \"k\": null\n  }\n}\n"
        );
    }

    #[test]
    fn summary_takes_nearest_rank_order_statistics() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&mut xs);
        assert_eq!(
            (s.min, s.p50, s.p90, s.p99, s.max),
            (1.0, 51.0, 90.0, 99.0, 100.0)
        );
        let s = Summary::of(&mut [4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min, s.p50, s.max), (1.0, 3.0, 4.0));
        assert_eq!(Summary::of(&mut []).max, 0.0);
    }

    #[test]
    fn residual_status_ladder() {
        assert_eq!(residual_status(1e-7, 1e-6), "converged");
        assert_eq!(residual_status(1e-6, 1e-6), "converged");
        assert_eq!(residual_status(0.5, 1e-6), "completed");
        assert_eq!(residual_status(1.0 + 1e-10, 1e-6), "completed");
        assert_eq!(residual_status(1.1, 1e-6), "diverged");
        assert_eq!(residual_status(f64::NAN, 1e-6), "diverged");
        assert_eq!(residual_status(f64::INFINITY, 1e-6), "diverged");
    }
}
