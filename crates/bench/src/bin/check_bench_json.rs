//! `check_bench_json` — schema validator and gate for `BENCH_*.json`
//! artifacts.
//!
//! CI's `bench-json` step pipes every emitted artifact through this
//! binary before uploading. Each file is parsed, validated against its
//! kind's fields ([`validate`]) and, if valid, held to its kind's
//! semantic gate ([`gate`]); `docs/BENCH.md` documents every kind's
//! fields and gates. Every violation is listed, not just the first.
//!
//! ```sh
//! cargo run -p adaserve-bench --bin check_bench_json -- BENCH_foo.json [...]
//! ```
//!
//! Exit status: 0 if every file is schema-valid and its gate holds, 1
//! otherwise, 2 on usage errors.

use adaserve_bench::json::{self, Json};
use adaserve_bench::summary::{gate, validate};

/// Checks one file; returns a summary line or every violation found.
fn check(path: &str) -> Result<String, Vec<String>> {
    let text = std::fs::read_to_string(path).map_err(|e| vec![format!("unreadable: {e}")])?;
    let doc = json::parse(&text).map_err(|e| vec![format!("invalid JSON: {e}")])?;
    validate(&doc)?;
    let errors = gate(&doc);
    if !errors.is_empty() {
        return Err(errors);
    }
    let field = |key| doc.get(key).and_then(Json::as_str).unwrap_or("?");
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    Ok(format!(
        "OK ({}, mode={}, {rows} rows)",
        field("name"),
        field("mode")
    ))
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_bench_json BENCH_foo.json [BENCH_bar.json ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match check(path) {
            Ok(summary) => println!("{path}: {summary}"),
            Err(errors) => {
                for e in &errors {
                    eprintln!("{path}: {e}");
                }
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
