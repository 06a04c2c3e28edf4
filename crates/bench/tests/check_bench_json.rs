//! End-to-end tests of the `check_bench_json` binary.
//!
//! The committed root `BENCH_*.json` artifacts must pass. For every
//! condition of every semantic gate, a copy changed to break exactly that
//! condition must fail with exit status 1 and that condition's message
//! as its only error line.

use adaserve_bench::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The artifacts committed at the repository root.
const COMMITTED: [&str; 5] = [
    "BENCH_autoscale.json",
    "BENCH_chaos.json",
    "BENCH_fleet_scaling.json",
    "BENCH_perf.json",
    "BENCH_prefix.json",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load(name: &str) -> Json {
    let text = std::fs::read_to_string(repo_root().join(name)).expect("committed artifact");
    json::parse(&text).expect("committed artifact parses")
}

/// Runs the checker on `paths`; returns its exit status and stderr.
fn run(paths: &[PathBuf]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_check_bench_json"))
        .args(paths)
        .output()
        .expect("checker runs");
    let code = out.status.code().expect("checker exited normally");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Writes `doc` to a temp file named after `tag` and runs the checker on it.
fn check(tag: &str, doc: &Json) -> (i32, String) {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("check_bench_json_{tag}.json"));
    std::fs::write(&path, doc.to_string_compact()).expect("write temp artifact");
    run(&[path])
}

/// Asserts the checker rejects `doc` with exactly one error, containing
/// `message`.
fn assert_fails(tag: &str, doc: &Json, message: &str) {
    let (code, stderr) = check(tag, doc);
    assert_eq!(code, 1, "{tag}: expected exit 1, stderr:\n{stderr}");
    assert!(
        stderr.contains(message),
        "{tag}: expected {message:?} in stderr:\n{stderr}"
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "{tag}: only the broken condition may fail, stderr:\n{stderr}"
    );
}

fn rows(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Obj(top) = doc else {
        panic!("artifact is an object")
    };
    let Some(Json::Arr(rows)) = top.get_mut("rows") else {
        panic!("artifact has rows")
    };
    rows
}

/// The first row whose `key` is the string `value`.
fn row_where<'a>(doc: &'a mut Json, key: &str, value: &str) -> &'a mut Json {
    rows(doc)
        .iter_mut()
        .find(|r| r.get(key).and_then(Json::as_str) == Some(value))
        .unwrap_or_else(|| panic!("no row with {key} = {value:?}"))
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("row lacks numeric {key}"))
}

fn set(row: &mut Json, key: &str, value: f64) {
    let Json::Obj(members) = row else {
        panic!("row is an object")
    };
    members.insert(key.into(), Json::Num(value));
}

#[test]
fn committed_artifacts_pass() {
    let paths: Vec<PathBuf> = COMMITTED.iter().map(|f| repo_root().join(f)).collect();
    let (code, stderr) = run(&paths);
    assert_eq!(code, 0, "stderr:\n{stderr}");
}

#[test]
fn no_arguments_is_a_usage_error() {
    let (code, stderr) = run(&[]);
    assert_eq!(code, 2, "stderr:\n{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn a_removed_row_key_is_named() {
    for (file, key) in [
        ("BENCH_autoscale.json", "replica_hours"),
        ("BENCH_chaos.json", "offered_attainment_pct"),
        ("BENCH_fleet_scaling.json", "iterations_per_sec"),
        ("BENCH_perf.json", "wall_ms"),
        ("BENCH_prefix.json", "prefill_tokens_saved"),
    ] {
        let mut doc = load(file);
        let Json::Obj(row) = &mut rows(&mut doc)[1] else {
            panic!("row is an object")
        };
        row.remove(key).expect("key present");
        let (code, stderr) = check(&format!("removed_{key}"), &doc);
        assert_eq!(code, 1, "{file}: stderr:\n{stderr}");
        assert!(
            stderr.contains(&format!("rows[1].{key}")),
            "{file}: {stderr}"
        );
    }
}

#[test]
fn fleet_gate_rejects_a_slow_sharded_four_replica_row() {
    let mut doc = load("BENCH_fleet_scaling.json");
    let row = rows(&mut doc)
        .iter_mut()
        .find(|r| {
            num(r, "replicas") == 4.0
                && r.get("exec")
                    .and_then(Json::as_str)
                    .is_some_and(|e| e.starts_with("sharded"))
        })
        .expect("4-replica sharded row");
    set(row, "speedup", 0.90);
    assert_fails("fleet_speedup", &doc, "slower than sequential");
}

#[test]
fn perf_gate_rejects_a_costly_disabled_tracer() {
    let mut doc = load("BENCH_perf.json");
    let base = num(row_where(&mut doc, "label", "colocated rps=2"), "wall_ms");
    let off = row_where(&mut doc, "label", "colocated tracer=off rps=2");
    set(off, "wall_ms", base * 1.1);
    assert_fails("perf_tracer", &doc, "the disabled tracer is not free");
}

#[test]
fn prefix_gate_rejects_a_cache_that_stopped_matching() {
    let mut doc = load("BENCH_prefix.json");
    let on = rows(&mut doc)
        .iter_mut()
        .find(|r| r.get("cache").and_then(Json::as_str) == Some("on"))
        .expect("cache-on row");
    set(on, "prefix_hit_rate_pct", 5.0);
    assert_fails("prefix_hit", &doc, "the prefix cache stopped matching");
}

#[test]
fn prefix_gate_rejects_cache_on_ttft_past_its_off_twin() {
    let mut doc = load("BENCH_prefix.json");
    let label = "share=90% rps=3.0";
    let off = rows(&mut doc)
        .iter()
        .find(|r| {
            r.get("label").and_then(Json::as_str) == Some(label)
                && r.get("cache").and_then(Json::as_str) == Some("off")
        })
        .map(|r| num(r, "p50_ttft_ms"))
        .expect("cache-off twin");
    let on = rows(&mut doc)
        .iter_mut()
        .find(|r| {
            r.get("label").and_then(Json::as_str) == Some(label)
                && r.get("cache").and_then(Json::as_str) == Some("on")
        })
        .expect("cache-on row");
    set(on, "p50_ttft_ms", off * 1.06);
    assert_fails("prefix_ttft", &doc, "reuse made latency worse");
}

/// An attribution artifact with two sweep points: a tier with no
/// requests (exempt from the share gate) and two tiers whose shares sum
/// to 100.
fn attribution() -> Json {
    let row = |label: &str, tier: &str, requests: u32, shares: [f64; 5]| {
        format!(
            r#"{{"decode_pct":{},"dominant":"decode","fallback_all_requests":false,"label":"{label}","preemption_pct":{},"prefill_pct":{},"queueing_pct":{},"requests":{requests},"rps":3,"tier":"{tier}","transfer_pct":{},"violations":1}}"#,
            shares[0], shares[1], shares[2], shares[3], shares[4]
        )
    };
    let rows = [
        row("rps=3.0", "coding", 12, [61.5, 0.0, 20.5, 18.0, 0.0]),
        row("rps=3.0", "summarize", 0, [0.0; 5]),
        row("rps=6.0", "all", 30, [40.0, 2.5, 10.0, 47.5, 0.0]),
    ];
    json::parse(&format!(
        r#"{{"duration_ms":10000,"kind":"attribution","mode":"smoke","name":"fig_slo_attribution","rows":[{}],"schema_version":2,"seed":7}}"#,
        rows.join(",")
    ))
    .expect("attribution fixture parses")
}

#[test]
fn attribution_gate_rejects_shares_that_do_not_sum_to_100() {
    let mut doc = attribution();
    let (code, stderr) = check("attribution_ok", &doc);
    assert_eq!(code, 0, "the fixture itself passes, stderr:\n{stderr}");
    let row = row_where(&mut doc, "tier", "coding");
    set(row, "decode_pct", 51.5);
    assert_fails("attribution_sum", &doc, "phase shares sum to 90.00%");
}

#[test]
fn autoscale_gate_rejects_a_controller_that_never_joined() {
    let mut doc = load("BENCH_autoscale.json");
    set(row_where(&mut doc, "label", "autoscale-fifo"), "joins", 0.0);
    assert_fails("autoscale_joins", &doc, "the controller never scaled");
}

#[test]
fn autoscale_gate_rejects_replica_hours_near_static() {
    let mut doc = load("BENCH_autoscale.json");
    let static_hours = num(row_where(&mut doc, "label", "static-max"), "replica_hours");
    let row = row_where(&mut doc, "label", "autoscale-fair");
    set(row, "replica_hours", static_hours * 0.96);
    assert_fails(
        "autoscale_hours",
        &doc,
        "autoscaling stopped saving capacity",
    );
}

#[test]
fn autoscale_gate_rejects_a_burst_collapse() {
    let mut doc = load("BENCH_autoscale.json");
    let row = row_where(&mut doc, "label", "autoscale-fifo");
    let steady = num(row, "steady_attainment_pct");
    set(row, "burst_attainment_pct", steady - 60.0);
    assert_fails(
        "autoscale_burst",
        &doc,
        "the controller is not riding the flash crowd",
    );
}

#[test]
fn autoscale_gate_rejects_a_fair_door_wider_than_fifo() {
    let mut doc = load("BENCH_autoscale.json");
    let fifo = num(
        row_where(&mut doc, "label", "autoscale-fifo"),
        "tenant_spread_pct",
    );
    let fair = row_where(&mut doc, "label", "autoscale-fair");
    set(fair, "tenant_spread_pct", fifo + 1.0);
    assert_fails(
        "autoscale_spread",
        &doc,
        "the front door stopped protecting the weighted tenant",
    );
}

#[test]
fn chaos_gate_rejects_a_lost_request() {
    let mut doc = load("BENCH_chaos.json");
    let row = row_where(&mut doc, "label", "fault-no-recovery");
    let offered = num(row, "offered");
    set(row, "offered", offered + 1.0);
    assert_fails(
        "chaos_conservation",
        &doc,
        "the session lost or duplicated a request",
    );
}

#[test]
fn chaos_gate_rejects_retries_on_the_fault_free_row() {
    let mut doc = load("BENCH_chaos.json");
    set(row_where(&mut doc, "label", "no-fault"), "retries", 1.0);
    assert_fails(
        "chaos_no_fault",
        &doc,
        "fault-free row reports nonzero retries",
    );
}

#[test]
fn chaos_gate_rejects_recovery_that_does_not_win() {
    let mut doc = load("BENCH_chaos.json");
    let none = num(
        row_where(&mut doc, "recovery", "none"),
        "offered_attainment_pct",
    );
    let retry = row_where(&mut doc, "recovery", "retry");
    set(retry, "offered_attainment_pct", none);
    assert_fails(
        "chaos_recovery",
        &doc,
        "retry/backoff stopped paying for itself",
    );
}
