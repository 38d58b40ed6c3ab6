//! `ledger diff A B` — compares two sets of untraced results (files of
//! `--out` lines), one row per (workload, end-to-end metric), against the
//! bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;

use serde::value::Value;

use crate::harness::Samples;
use crate::spec::{self, Better};

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

fn text(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The values of every (workload, end-to-end metric) in one result file,
/// plus the host line of its first result.
struct ResultSet {
    values: BTreeMap<(String, &'static str), Samples>,
    host: String,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet {
        values: BTreeMap::new(),
        host: String::new(),
    };
    for (number_of, line) in content
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", number_of + 1);
        let value = serde_json::value_from_str(line).map_err(|e| bad(&e.to_string()))?;
        if field(&value, "trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload = field(&value, "workload")
            .and_then(text)
            .ok_or_else(|| bad("no workload"))?;
        let result = field(&value, "result").ok_or_else(|| bad("no result"))?;
        if field(result, "correct") != Some(&Value::Bool(true)) {
            return Err(bad(
                "a run that failed its correctness checks cannot be compared",
            ));
        }
        let metrics = field(result, "metrics").ok_or_else(|| bad("no metrics"))?;
        for def in spec::END_TO_END {
            let measured = field(metrics, def.name)
                .and_then(|m| field(m, "value"))
                .and_then(number)
                .ok_or_else(|| bad(&format!("no value for {}", def.name)))?;
            set.values
                .entry((workload.to_string(), def.name))
                .or_default()
                .push(measured);
        }
        if set.host.is_empty() {
            if let Some(print) = field(&value, "fingerprint") {
                let part = |key| field(print, key).map_or(String::new(), |v| format!("{v:?}"));
                set.host = format!("{} x{} {}", part("cpu"), part("nproc"), part("simd"));
            }
        }
    }
    Ok(set)
}

/// Quartile distance over the median — `statistics.quantiles(v, n=4)`'s
/// (exclusive) quartiles, as the driver computes the spread.
fn spread(samples: &Samples) -> f64 {
    let mut v = samples.0.clone();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / samples.median()
}

pub fn run(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("ledger diff: {err}");
            return 2;
        }
    };
    if a.host != b.host {
        println!("warning: hosts differ: A = {}, B = {}", a.host, b.host);
    }
    println!(
        "{:<18} {:<12} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut worse = 0;
    for ((workload, metric), a_values) in &a.values {
        let Some(b_values) = b.values.get(&(workload.clone(), *metric)) else {
            println!("{workload:<18} {metric:<12} missing from B");
            continue;
        };
        let def = spec::end_to_end(metric).expect("keys come from the table");
        let (a_median, b_median) = (a_values.median(), b_values.median());
        // Positive = B is worse, as a share of A (the base).
        let worse_by = match def.better {
            Better::Lower => (b_median - a_median) / a_median,
            Better::Higher => (a_median - b_median) / a_median,
        };
        let widest = spread(a_values).max(spread(b_values));
        let verdict = if widest > def.bound {
            "unresolved (spread wider than bound)"
        } else if worse_by > def.bound {
            worse += 1;
            "WORSE"
        } else if worse_by < -def.bound {
            "better"
        } else {
            "within bound"
        };
        println!(
            "{workload:<18} {metric:<12} {a_median:>12.4} {b_median:>12.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {verdict}",
            (b_median - a_median) / a_median * 100.0,
            widest * 100.0,
            def.bound * 100.0
        );
    }
    i32::from(worse > 0)
}
