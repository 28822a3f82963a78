//! The CI perf-regression gate driver.
//!
//! ```text
//! check_bench --baseline BENCH_monorepo.json --fresh target/BENCH_monorepo_fresh.json \
//!             [--factor 2.0] [--slack-ms 200] [--ledger path/to/builds.jsonl]
//! ```
//!
//! Every `--baseline` pairs with the `--fresh` in the same position.
//! Exit codes: 0 all gates passed; 1 a regression, an unmatched fresh
//! row, a pair that checked nothing, or a failed ledger smoke; 2 usage
//! or unreadable/malformed input.

use smlsc_bench::gate::{check_warm_ledger, compare, Tolerance};

fn read_doc(path: &str) -> Result<serde::Value, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baselines: Vec<String> = Vec::new();
    let mut fresh: Vec<String> = Vec::new();
    let mut ledger: Option<String> = None;
    let mut tol = Tolerance::default();
    let mut it = args.iter();
    let usage = "usage: check_bench (--baseline <file> --fresh <file>)... [--factor <f>] [--slack-ms <ms>] [--ledger <builds.jsonl>]";
    while let Some(a) = it.next() {
        let mut take = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--baseline" => baselines.push(take("--baseline")),
            "--fresh" => fresh.push(take("--fresh")),
            "--ledger" => ledger = Some(take("--ledger")),
            "--factor" => {
                tol.factor = take("--factor").parse().unwrap_or_else(|_| {
                    eprintln!("error: --factor expects a number\n{usage}");
                    std::process::exit(2);
                })
            }
            "--slack-ms" => {
                tol.slack_ms = take("--slack-ms").parse().unwrap_or_else(|_| {
                    eprintln!("error: --slack-ms expects a number\n{usage}");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    if baselines.len() != fresh.len() || (baselines.is_empty() && ledger.is_none()) {
        eprintln!("error: need matching --baseline/--fresh pairs (or --ledger)\n{usage}");
        std::process::exit(2);
    }

    let mut failed = false;
    for (base_path, fresh_path) in baselines.iter().zip(&fresh) {
        let pair = (read_doc(base_path), read_doc(fresh_path));
        let (base, doc) = match pair {
            (Ok(b), Ok(f)) => (b, f),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        match compare(&base, &doc, &tol) {
            Ok(outcome) => {
                println!(
                    "gate {fresh_path} vs {base_path}: {} metric(s) checked, {} skipped, {} unmatched, {} regression(s) [factor {:.2}, slack {:.0}ms]",
                    outcome.checked,
                    outcome.skipped,
                    outcome.unmatched.len(),
                    outcome.regressions.len(),
                    tol.factor,
                    tol.slack_ms
                );
                for r in &outcome.regressions {
                    println!("  REGRESSION {r}");
                }
                for u in &outcome.unmatched {
                    println!("  UNMATCHED {u}");
                }
                if outcome.checked == 0 {
                    println!("  NOTHING CHECKED: no fresh metric matched the baseline");
                }
                failed |= !outcome.passed();
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &ledger {
        match check_warm_ledger(std::path::Path::new(path)) {
            Ok(()) => println!("gate {path}: warm-build ledger smoke ok"),
            Err(e) => {
                println!("  REGRESSION {e}");
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}
