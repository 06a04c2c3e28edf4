//! Machine-readable benchmark artifacts (`BENCH_*.json`).
//!
//! Every figure binary can drop an [`Artifact`] next to its textual
//! output, giving the repo a perf trajectory CI can gate on: the
//! `bench-json` CI step runs the smoke sweeps, checks each emitted file
//! with the `check_bench_json` binary ([`validate`], then the kind's
//! gate) and uploads it, so a PR that silently breaks the hot loop or
//! the emitter fails loudly.
//!
//! Each artifact kind is one entry of [`KINDS`]: its `kind` tag, whether
//! its envelope carries `duration_ms`, its row fields and its semantic
//! gate. One emitter ([`Artifact::to_json`]) and one validator
//! ([`validate`]) walk that table. `docs/BENCH.md` documents every kind's
//! fields and gates; a test checks it names every field in the table.
//!
//! Schema version 2 (version 1 lacked the three TTFT keys the
//! disaggregation sweeps gate on). A perf artifact, for example:
//!
//! ```json
//! {
//!   "duration_ms": 10000,
//!   "kind": "perf",
//!   "mode": "smoke",
//!   "name": "perf_report",
//!   "rows": [{"label": "colocated rps=2", "wall_ms": 5.3, "sim_tokens": 2100, "...": 0}],
//!   "schema_version": 2,
//!   "seed": 20250117
//! }
//! ```

use crate::json::{self, Json};
use metrics::SloReport;
use std::path::Path;

/// The schema version this module emits and validates.
pub const SCHEMA_VERSION: u32 = 2;

/// The type of one row field.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// A finite number.
    Num,
    /// A non-empty string.
    Str,
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
    /// `true` or `false`.
    Bool,
    /// An array of nested rows with these fields.
    Rows(&'static [(&'static str, Field)]),
}

use Field::{Bool, Num, OneOf, Rows, Str};

/// One artifact kind: its schema and its semantic gate.
#[derive(Debug)]
pub struct Kind {
    /// The `kind` tag; `None` for the SLO sweep, which predates tags.
    tag: Option<&'static str>,
    /// Whether the envelope carries `duration_ms` (simulated ms per row).
    duration_ms: bool,
    /// The required row fields.
    fields: &'static [(&'static str, Field)],
    /// The semantic gate over a schema-valid artifact's rows; returns
    /// every violation found.
    gate: fn(&[Json]) -> Vec<String>,
}

impl Kind {
    /// The kind a document declares; untagged (or unknown) documents are
    /// SLO sweeps.
    fn of(doc: &Json) -> &'static Kind {
        let tag = doc.get("kind").and_then(Json::as_str);
        KINDS
            .into_iter()
            .find(|k| k.tag.is_some() && k.tag == tag)
            .unwrap_or(&SLO)
    }
}

/// SLO sweep (the workload sweeps and `adaserve_sim`): one row per sweep
/// point, built by [`slo_row`].
pub static SLO: Kind = Kind {
    tag: None,
    duration_ms: true,
    fields: &[
        ("label", Str),
        ("requests", Num),
        ("slo_attainment_pct", Num),
        ("ttft_attainment_pct", Num),
        ("goodput_tps", Num),
        ("throughput_tps", Num),
        ("p50_tpot_ms", Num),
        ("p99_tpot_ms", Num),
        ("p50_ttft_ms", Num),
        ("p99_ttft_ms", Num),
        (
            "tiers",
            Rows(&[
                ("tier", Str),
                ("requests", Num),
                ("attainment_pct", Num),
                ("mean_tpot_ms", Num),
                ("p99_tpot_ms", Num),
            ]),
        ),
    ],
    gate: |_| Vec::new(),
};

/// Wall-clock hot-loop performance (`perf_report`).
pub static PERF: Kind = Kind {
    tag: Some("perf"),
    duration_ms: true,
    fields: &[
        ("label", Str),
        ("wall_ms", Num),
        ("sim_ms", Num),
        ("sim_tokens", Num),
        ("sim_tokens_per_sec", Num),
        ("iterations", Num),
        ("iterations_per_sec", Num),
        ("peak_decode_batch", Num),
        ("scheduling_share_pct", Num),
        ("dist_cache_hit_rate_pct", Num),
        ("trace_dropped", Num),
    ],
    gate: tracer_gate,
};

/// Sequential vs sharded stepping as the fleet grows
/// (`fig_fleet_scaling`).
pub static FLEET: Kind = Kind {
    tag: Some("fleet"),
    duration_ms: false,
    fields: &[
        ("replicas", Num),
        ("exec", Str),
        ("workers", Num),
        ("wall_ms", Num),
        ("sim_ms", Num),
        ("requests", Num),
        ("iterations", Num),
        ("iterations_per_sec", Num),
        ("speedup", Num),
    ],
    gate: fleet_gate,
};

/// Prefix cache on vs off in rows paired by `label`
/// (`fig_prefix_cache`).
pub static PREFIX: Kind = Kind {
    tag: Some("prefix"),
    duration_ms: true,
    fields: &[
        ("label", Str),
        ("cache", OneOf(&["on", "off"])),
        ("prefix_share_pct", Num),
        ("rps", Num),
        ("requests", Num),
        ("prefix_hit_rate_pct", Num),
        ("prefill_tokens_saved", Num),
        ("mean_ttft_ms", Num),
        ("p50_ttft_ms", Num),
        ("p99_ttft_ms", Num),
        ("slo_attainment_pct", Num),
        ("ttft_attainment_pct", Num),
    ],
    gate: prefix_gate,
};

/// Per-tier phase shares of SLO overshoot across an RPS sweep
/// (`fig_slo_attribution`), one row per tier built by
/// [`attribution_row`].
pub static ATTRIBUTION: Kind = Kind {
    tag: Some("attribution"),
    duration_ms: true,
    fields: &[
        ("label", Str),
        ("rps", Num),
        ("tier", Str),
        ("requests", Num),
        ("violations", Num),
        ("queueing_pct", Num),
        ("prefill_pct", Num),
        ("transfer_pct", Num),
        ("decode_pct", Num),
        ("preemption_pct", Num),
        ("dominant", Str),
        ("fallback_all_requests", Bool),
    ],
    gate: attribution_gate,
};

/// Static vs autoscaled provisioning and FIFO vs weighted-fair admission
/// through a flash crowd (`fig_autoscale`).
pub static AUTOSCALE: Kind = Kind {
    tag: Some("autoscale"),
    duration_ms: true,
    fields: &[
        ("label", Str),
        ("policy", OneOf(&["fifo", "fair"])),
        ("replicas_max", Num),
        ("requests", Num),
        ("rejected", Num),
        ("slo_attainment_pct", Num),
        ("ttft_attainment_pct", Num),
        ("steady_attainment_pct", Num),
        ("burst_attainment_pct", Num),
        ("replica_hours", Num),
        ("peak_replicas", Num),
        ("joins", Num),
        ("drains", Num),
        ("tenant_spread_pct", Num),
        ("worst_tenant_pct", Num),
    ],
    gate: autoscale_gate,
};

/// Request conservation and offered-basis attainment through a seeded
/// crash during a flash crowd, without and with recovery (`fig_chaos`).
pub static CHAOS: Kind = Kind {
    tag: Some("chaos"),
    duration_ms: true,
    fields: &[
        ("label", Str),
        ("recovery", OneOf(&["n/a", "none", "retry"])),
        ("faults", Num),
        ("offered", Num),
        ("finished", Num),
        ("rejected", Num),
        ("retries", Num),
        ("slo_attainment_pct", Num),
        ("offered_attainment_pct", Num),
        ("mean_ttft_ms", Num),
    ],
    gate: chaos_gate,
};

/// Every artifact kind.
pub static KINDS: [&Kind; 7] = [
    &SLO,
    &PERF,
    &FLEET,
    &PREFIX,
    &ATTRIBUTION,
    &AUTOSCALE,
    &CHAOS,
];

/// The envelope fields; the last, `duration_ms`, only for kinds that
/// carry it.
const ENVELOPE: [(&str, Field); 5] = [
    ("schema_version", Num),
    ("name", Str),
    ("mode", OneOf(&["smoke", "full"])),
    ("seed", Num),
    ("duration_ms", Num),
];

/// A benchmark artifact: the envelope plus one JSON object per row.
#[derive(Debug, Clone)]
pub struct Artifact {
    kind: &'static Kind,
    /// Emitting binary, e.g. `"fig_cluster_scaling"`.
    name: String,
    /// Emitted as `mode: "smoke"` (CI-sized) when set, else `"full"`.
    smoke: bool,
    /// The experiment seed the run used (`ADASERVE_SEED`-overridable).
    seed: u64,
    /// Simulated duration per row, ms; `Some` exactly for kinds whose
    /// envelope carries it.
    duration_ms: Option<f64>,
    /// One object per row, with the kind's fields.
    pub rows: Vec<Json>,
}

impl Artifact {
    /// An empty artifact whose mode follows [`crate::is_smoke`];
    /// `duration_ms` is the simulated duration per row, `Some` exactly
    /// for kinds whose envelope carries it.
    pub fn new(
        kind: &'static Kind,
        name: impl Into<String>,
        seed: u64,
        duration_ms: Option<f64>,
    ) -> Self {
        Self {
            kind,
            name: name.into(),
            smoke: crate::is_smoke(),
            seed,
            duration_ms,
            rows: Vec::new(),
        }
    }

    /// Lowers the artifact to a JSON value.
    pub fn to_json(&self) -> Json {
        let mode = if self.smoke { "smoke" } else { "full" };
        let mut top = vec![
            ("schema_version", Json::Num(f64::from(SCHEMA_VERSION))),
            ("name", Json::Str(self.name.clone())),
            ("mode", Json::Str(mode.into())),
            ("seed", Json::Int(self.seed)),
            ("rows", Json::Arr(self.rows.clone())),
        ];
        if let Some(tag) = self.kind.tag {
            top.push(("kind", Json::Str(tag.into())));
        }
        if let Some(ms) = self.duration_ms {
            top.push(("duration_ms", Json::Num(ms)));
        }
        Json::Obj(top.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serializes to a compact JSON string (newline-terminated).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_compact();
        s.push('\n');
        s
    }

    /// Validates the artifact as `check_bench_json` will read it, then
    /// writes it to `path` and logs the destination to stderr. A
    /// schema-invalid artifact is an `InvalidData` error and writes
    /// nothing.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let out = self.to_json_string();
        let doc = json::parse(&out).expect("the emitter writes parseable JSON");
        validate(&doc).map_err(|errors| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, errors.join("; "))
        })?;
        std::fs::write(path, out)?;
        eprintln!(
            "wrote {} ({} rows, mode={}, seed={})",
            path.display(),
            self.rows.len(),
            if self.smoke { "smoke" } else { "full" },
            self.seed
        );
        Ok(())
    }
}

/// A JSON object from `(key, value)` pairs: one artifact row.
pub fn row<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A validated row's numeric field (NaN when absent, which validation
/// rules out for every field of the kind).
pub fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

/// A validated row's string field (empty when absent).
pub fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("")
}

/// One SLO-sweep row from a run's [`SloReport`], with a tier per present
/// request category.
pub fn slo_row(label: impl Into<String>, report: &SloReport) -> Json {
    let tiers = report.per_category.iter().map(|c| {
        row([
            ("tier", Json::Str(c.category.label().into())),
            ("requests", Json::Num(c.requests as f64)),
            ("attainment_pct", Json::Num(100.0 - c.violation_pct)),
            ("mean_tpot_ms", Json::Num(c.mean_tpot_ms)),
            ("p99_tpot_ms", Json::Num(c.p99_tpot_ms)),
        ])
    });
    row([
        ("label", Json::Str(label.into())),
        ("requests", Json::Num(report.requests as f64)),
        ("slo_attainment_pct", Json::Num(report.attainment_pct)),
        ("ttft_attainment_pct", Json::Num(report.ttft_attainment_pct)),
        ("goodput_tps", Json::Num(report.goodput_tps)),
        ("throughput_tps", Json::Num(report.throughput_tps)),
        ("p50_tpot_ms", Json::Num(report.p50_tpot_ms)),
        ("p99_tpot_ms", Json::Num(report.p99_tpot_ms)),
        ("p50_ttft_ms", Json::Num(report.p50_ttft_ms)),
        ("p99_ttft_ms", Json::Num(report.p99_ttft_ms)),
        ("tiers", Json::Arr(tiers.collect())),
    ])
}

/// One attribution row: one tier's pooled attribution at a sweep point
/// (see `metrics::telemetry::SloAttribution`).
pub fn attribution_row(
    label: impl Into<String>,
    rps: f64,
    tier: &metrics::telemetry::TierAttribution,
) -> Json {
    row([
        ("label", Json::Str(label.into())),
        ("rps", Json::Num(rps)),
        ("tier", Json::Str(tier.tier.clone())),
        ("requests", Json::Num(tier.requests as f64)),
        ("violations", Json::Num(tier.violations as f64)),
        ("queueing_pct", Json::Num(tier.queueing_pct)),
        ("prefill_pct", Json::Num(tier.prefill_pct)),
        ("transfer_pct", Json::Num(tier.transfer_pct)),
        ("decode_pct", Json::Num(tier.decode_pct)),
        ("preemption_pct", Json::Num(tier.preemption_pct)),
        ("dominant", Json::Str(tier.dominant.clone())),
        (
            "fallback_all_requests",
            Json::Bool(tier.fallback_all_requests),
        ),
    ])
}

/// Applies the semantic gate of a schema-valid document's kind; returns
/// every violation found.
pub fn gate(doc: &Json) -> Vec<String> {
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or_default();
    (Kind::of(doc).gate)(rows)
}

/// Validates a parsed document against its kind's envelope and row
/// fields (an untagged document is an SLO sweep); schema versions other than
/// [`SCHEMA_VERSION`] are rejected.
///
/// Returns every violation found (not just the first), so a CI failure
/// message names all missing keys at once.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    let kind = Kind::of(doc);
    let mut errors = Vec::new();
    let envelope = &ENVELOPE[..if kind.duration_ms { 5 } else { 4 }];
    check_fields(&mut errors, doc, "", envelope);
    match doc.get("schema_version").and_then(Json::as_num) {
        Some(v) if v.is_finite() && v != f64::from(SCHEMA_VERSION) => {
            errors.push(format!("unsupported schema_version {v}"));
        }
        _ => {}
    }
    match doc.get("rows").and_then(Json::as_arr) {
        None => errors.push("missing rows array".into()),
        Some([]) => errors.push("rows is empty".into()),
        Some(rows) => {
            for (i, row) in rows.iter().enumerate() {
                check_fields(&mut errors, row, &format!("rows[{i}]"), kind.fields);
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Records a violation for each of `fields` that `obj` (found at `path`,
/// empty for the envelope) lacks or mistypes.
fn check_fields(errors: &mut Vec<String>, obj: &Json, path: &str, fields: &[(&str, Field)]) {
    let (at, dot) = if path.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{path}: "), format!("{path}."))
    };
    for &(key, field) in fields {
        let value = obj.get(key);
        match field {
            Num => {
                if !value.and_then(Json::as_num).is_some_and(f64::is_finite) {
                    errors.push(format!("missing or non-numeric {dot}{key}"));
                }
            }
            Str => {
                if value.and_then(Json::as_str).is_none_or(str::is_empty) {
                    errors.push(format!("{at}missing or empty {key}"));
                }
            }
            OneOf(allowed) => match value.and_then(Json::as_str) {
                Some(s) if allowed.contains(&s) => {}
                other => {
                    let quoted: Vec<String> = allowed.iter().map(|a| format!("{a:?}")).collect();
                    let (last, rest) = quoted.split_last().expect("OneOf lists options");
                    errors.push(format!(
                        "{at}{key} must be {} or {last}, got {other:?}",
                        rest.join(", ")
                    ));
                }
            },
            Bool => {
                if !matches!(value, Some(Json::Bool(_))) {
                    errors.push(format!("{at}missing or non-bool {key}"));
                }
            }
            Rows(inner) => match value.and_then(Json::as_arr) {
                None => errors.push(format!("{at}missing {key} array")),
                Some(rows) => {
                    for (j, row) in rows.iter().enumerate() {
                        check_fields(errors, row, &format!("{dot}{key}[{j}]"), inner);
                    }
                }
            },
        }
    }
}

/// Minimum accepted 4-replica sharded speedup.
///
/// On a multi-core host the sharded executor genuinely wins at 4
/// replicas; on a single-core CI runner the two executors are within
/// timer noise of each other (batching only amortizes per-step
/// scheduling scans there). Repeated best-of-5 sweeps on one core put
/// the 4-replica pair within ±5% run to run, while the regression this
/// gate exists to catch — the executor falling back to per-step thread
/// spawning — measured ~0.92. A 0.95 floor separates the two without
/// flaking on jitter.
const SPEEDUP_FLOOR: f64 = 0.95;

/// Fleet gate: every 4-replica row measured under a sharded executor
/// must report `speedup >= SPEEDUP_FLOOR`. An artifact with no sharded
/// 4-replica row (e.g. under `ADASERVE_EXEC=sequential`) passes.
fn fleet_gate(rows: &[Json]) -> Vec<String> {
    rows.iter()
        .filter(|r| num(r, "replicas") == 4.0 && text(r, "exec").starts_with("sharded"))
        .filter(|r| num(r, "speedup") < SPEEDUP_FLOOR)
        .map(|r| {
            format!(
                "4-replica {} row is slower than sequential: speedup {:.3} < {SPEEDUP_FLOOR} — \
                 the executor lost its tracked win",
                text(r, "exec"),
                num(r, "speedup")
            )
        })
        .collect()
}

/// Minimum accepted prefix-cache hit rate (percent) on a cache-on row
/// whose workload shares a prefix.
///
/// The sweep's lowest shared-prompt share is 30%, so a healthy cache sees
/// hit rates well above this on every row; the gate exists to catch the
/// cache silently never matching (hash drift, pin leak evicting
/// everything), which reads as ~0%, not as a modest dip.
const HIT_RATE_FLOOR_PCT: f64 = 10.0;

/// Tolerated p50 TTFT ratio (on / off) before a cache-on row counts as a
/// regression. Skipped prefill only removes work, so the cache must not
/// make the median first token slower; 1.05 absorbs scheduling noise at
/// smoke durations.
const TTFT_NOISE_FACTOR: f64 = 1.05;

/// Prefix gate: every cache-on row over shared-prefix traffic must hit
/// at least [`HIT_RATE_FLOOR_PCT`], and no cache-on row may have a p50
/// TTFT worse than its cache-off twin (same `label`) beyond
/// [`TTFT_NOISE_FACTOR`]. A cache-on row without a twin is only checked
/// for the hit rate.
fn prefix_gate(rows: &[Json]) -> Vec<String> {
    let mut errors = Vec::new();
    for row in rows.iter().filter(|r| text(r, "cache") == "on") {
        let label = text(row, "label");
        let hit = num(row, "prefix_hit_rate_pct");
        if num(row, "prefix_share_pct") > 0.0 && hit < HIT_RATE_FLOOR_PCT {
            errors.push(format!(
                "{label}: cache-on row over shared traffic hit only {hit:.1}% < \
                 {HIT_RATE_FLOOR_PCT}% — the prefix cache stopped matching"
            ));
        }
        let on = num(row, "p50_ttft_ms");
        let off = rows
            .iter()
            .find(|r| text(r, "label") == label && text(r, "cache") == "off")
            .map(|r| num(r, "p50_ttft_ms"));
        if let Some(off) = off.filter(|off| on > off * TTFT_NOISE_FACTOR) {
            errors.push(format!(
                "{label}: cache-on p50 TTFT {on:.1} ms regressed past cache-off \
                 {off:.1} ms × {TTFT_NOISE_FACTOR} — reuse made latency worse"
            ));
        }
    }
    errors
}

/// Tolerated share-sum deviation from 100% on an attribution row
/// (percentage points). Each request's shares sum to exactly 100 and the
/// pooled mean preserves that; anything past rounding noise means the
/// decomposition dropped or double-counted a phase.
const SHARE_SUM_TOLERANCE_PCT: f64 = 0.5;

/// Attribution gate: every row with requests must report phase shares
/// summing to ~100%.
fn attribution_gate(rows: &[Json]) -> Vec<String> {
    const SHARES: [&str; 5] = [
        "queueing_pct",
        "prefill_pct",
        "transfer_pct",
        "decode_pct",
        "preemption_pct",
    ];
    rows.iter()
        .filter(|r| num(r, "requests") != 0.0)
        .filter_map(|r| {
            let sum: f64 = SHARES.iter().map(|k| num(r, k)).sum();
            ((sum - 100.0).abs() > SHARE_SUM_TOLERANCE_PCT).then(|| {
                format!(
                    "{} tier={}: phase shares sum to {sum:.2}% (expected 100 ± \
                     {SHARE_SUM_TOLERANCE_PCT}) — the attribution dropped or double-counted a \
                     phase",
                    text(r, "label"),
                    text(r, "tier")
                )
            })
        })
        .collect()
}

/// Tolerated wall-clock ratio of the explicit `tracer=off` perf row over
/// its base colocated row. Both run the identical hot loop — a disabled
/// tracer is one branch per iteration — so the pair must land within
/// timer noise; a real regression (the tracer doing work while disabled)
/// reads far past 2%.
const TRACER_OVERHEAD_FACTOR: f64 = 1.02;

/// Perf gate: the colocated row labelled `tracer=off` may not be slower
/// than the base colocated row (no `tracer=` in its label) beyond
/// [`TRACER_OVERHEAD_FACTOR`]. An artifact lacking the pair passes.
fn tracer_gate(rows: &[Json]) -> Vec<String> {
    let wall = |pred: &dyn Fn(&str) -> bool| {
        rows.iter()
            .find(|r| text(r, "label").starts_with("colocated") && pred(text(r, "label")))
            .map(|r| num(r, "wall_ms"))
    };
    let base = wall(&|l| !l.contains("tracer="));
    let off = wall(&|l| l.contains("tracer=off"));
    match (base, off) {
        (Some(base), Some(off)) if off > base * TRACER_OVERHEAD_FACTOR => vec![format!(
            "tracer=off row wall-clock {off:.1} ms exceeds base colocated \
             {base:.1} ms × {TRACER_OVERHEAD_FACTOR} — the disabled tracer is not free"
        )],
        _ => Vec::new(),
    }
}

/// Ceiling on an autoscaled row's `replica_hours` as a fraction of the
/// static-max reference row's. Elasticity is the subsystem's tracked
/// win: the controller drains down to one replica through both quiet
/// thirds of the run, which measures 0.67–0.83× static across smoke and
/// full sweeps; 0.95 fails any controller that stopped draining while
/// staying clear of rounding noise on short smoke runs.
const REPLICA_HOURS_CEILING_FACTOR: f64 = 0.95;

/// Tolerated joint-attainment drop (percentage points) from an
/// autoscaled row's steady window to its flash-crowd window. The burst
/// peak deliberately overloads even the full fleet — the static
/// reference itself drops ~45 pts in full sweeps and the autoscaled
/// rows 19–38 — so this bounds collapse, not degradation: a controller
/// that reacts late but does react stays under it, while a burst-window
/// wipeout (attainment near zero against a healthy steady state) fails.
/// A controller that never reacts at all is caught by the join/peak
/// check instead, since it depresses both windows alike.
const BURST_DROP_TOLERANCE_PTS: f64 = 50.0;

/// Autoscale gate. The row labelled `static-max` is the provisioning
/// reference; every other row is an autoscaled run, which must have
/// actually scaled (≥ 1 join, peak past the floor), bill under
/// [`REPLICA_HOURS_CEILING_FACTOR`] of the reference, and keep burst
/// attainment within [`BURST_DROP_TOLERANCE_PTS`] of steady state. The
/// weighted-fair row's tenant spread may not exceed the FIFO row's.
fn autoscale_gate(rows: &[Json]) -> Vec<String> {
    let static_hours = rows
        .iter()
        .find(|r| text(r, "label") == "static-max")
        .map(|r| num(r, "replica_hours"));
    let mut errors = Vec::new();
    let (mut fair_spread, mut fifo_spread) = (None, None);
    for row in rows.iter().filter(|r| text(r, "label") != "static-max") {
        let label = text(row, "label");
        if num(row, "joins") < 1.0 || num(row, "peak_replicas") < 2.0 {
            errors.push(format!(
                "{label}: the controller never scaled (no join or peak stuck at the floor) — \
                 the closed loop is dead"
            ));
        }
        let hours = num(row, "replica_hours");
        if let Some(static_hours) =
            static_hours.filter(|s| hours > s * REPLICA_HOURS_CEILING_FACTOR)
        {
            errors.push(format!(
                "{label}: replica-hours {hours:.4} exceed static-max {static_hours:.4} × \
                 {REPLICA_HOURS_CEILING_FACTOR} — autoscaling stopped saving capacity"
            ));
        }
        let (steady, burst) = (
            num(row, "steady_attainment_pct"),
            num(row, "burst_attainment_pct"),
        );
        if burst < steady - BURST_DROP_TOLERANCE_PTS {
            errors.push(format!(
                "{label}: burst attainment {burst:.1}% collapsed more than \
                 {BURST_DROP_TOLERANCE_PTS} pts under steady state {steady:.1}% — the \
                 controller is not riding the flash crowd"
            ));
        }
        let spread = Some(num(row, "tenant_spread_pct"));
        match text(row, "policy") {
            "fair" => fair_spread = spread,
            _ => fifo_spread = spread,
        }
    }
    if let (Some(fair), Some(fifo)) = (fair_spread, fifo_spread) {
        if fair > fifo {
            errors.push(format!(
                "weighted-fair tenant spread {fair:.1} pts exceeds FIFO's {fifo:.1} — the \
                 front door stopped protecting the weighted tenant"
            ));
        }
    }
    errors
}

/// Chaos gate: every row must conserve requests (offered = finished +
/// rejected); the no-fault row (`recovery` `n/a`) must be untouched by
/// the chaos machinery (0 faults, retries and rejections); and under the
/// same seeded fault schedule the with-recovery row's offered-basis
/// attainment must be strictly above the no-recovery row's — recovery
/// has to earn its keep.
fn chaos_gate(rows: &[Json]) -> Vec<String> {
    let mut errors = Vec::new();
    let (mut no_recovery, mut with_recovery) = (None, None);
    for row in rows {
        let label = text(row, "label");
        let (offered, finished, rejected) = (
            num(row, "offered"),
            num(row, "finished"),
            num(row, "rejected"),
        );
        if offered != finished + rejected {
            errors.push(format!(
                "{label}: offered {offered} != finished {finished} + rejected {rejected} — \
                 the session lost or duplicated a request"
            ));
        }
        match text(row, "recovery") {
            "n/a" => {
                for key in ["faults", "retries", "rejected"] {
                    if num(row, key) != 0.0 {
                        errors.push(format!(
                            "{label}: fault-free row reports nonzero {key} — the chaos \
                             machinery leaked into a clean run"
                        ));
                    }
                }
            }
            "none" => no_recovery = Some(num(row, "offered_attainment_pct")),
            _ => with_recovery = Some(num(row, "offered_attainment_pct")),
        }
    }
    if let (Some(without), Some(with)) = (no_recovery, with_recovery) {
        if with <= without {
            errors.push(format!(
                "with-recovery offered attainment {with:.1}% does not beat no-recovery \
                 {without:.1}% under the same fault schedule — retry/backoff stopped paying for \
                 itself"
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use metrics::RequestRecord;
    use workload::Category;

    fn report() -> SloReport {
        let records: Vec<RequestRecord> = (0..6)
            .map(|id| RequestRecord {
                id,
                category: if id % 2 == 0 {
                    Category::Chatbot
                } else {
                    Category::Summarization
                },
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                arrival_ms: 0.0,
                decode_start_ms: 5.0,
                completion_ms: 5.0 + 40.0 * 10.0,
                output_tokens: 10,
                accepted_tokens: 6,
                verify_steps: 3,
                preemptions: 0,
            })
            .collect();
        SloReport::from_records(&records)
    }

    /// An empty artifact with a fixed mode, so tests do not depend on
    /// `ADASERVE_SMOKE`.
    fn artifact(
        kind: &'static Kind,
        name: &str,
        mode: &str,
        seed: u64,
        duration_ms: Option<f64>,
    ) -> Artifact {
        let mut artifact = Artifact::new(kind, name, seed, duration_ms);
        artifact.smoke = mode == "smoke";
        artifact
    }

    #[test]
    fn summary_round_trips_and_validates() {
        let mut summary = artifact(&SLO, "unit_test", "smoke", 7, Some(1234.5));
        summary.rows.push(slo_row("point-a", &report()));
        summary.rows.push(slo_row("point-b", &report()));
        let text = summary.to_json_string();
        let doc = json::parse(&text).expect("emitted JSON parses");
        validate(&doc).expect("emitted JSON is schema-valid");
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("smoke"));
        let row = &doc.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("requests").unwrap().as_num(), Some(6.0));
        assert_eq!(
            row.get("tiers").unwrap().as_arr().unwrap().len(),
            2,
            "both present categories become tiers"
        );
    }

    #[test]
    fn validation_rejects_missing_keys() {
        let mut summary = artifact(&SLO, "unit_test", "full", 7, Some(1.0));
        summary.rows.push(slo_row("point", &report()));
        let doc = json::parse(&summary.to_json_string()).unwrap();
        // Knock out a required member and re-validate.
        let Json::Obj(mut top) = doc else { panic!() };
        top.remove("seed");
        let Some(Json::Arr(rows)) = top.get_mut("rows") else {
            panic!()
        };
        let Json::Obj(row) = &mut rows[0] else {
            panic!()
        };
        row.remove("goodput_tps");
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("seed")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("rows[0].goodput_tps")),
            "{errors:?}"
        );
    }

    #[test]
    fn validation_rejects_missing_ttft_keys() {
        // A schema-1-era summary: right version number, no TTFT keys.
        let mut summary = artifact(&SLO, "disagg_unit", "smoke", 7, Some(1.0));
        summary
            .rows
            .push(slo_row("split=1p3d rps=8 bw=300", &report()));
        let doc = json::parse(&summary.to_json_string()).unwrap();
        let Json::Obj(mut top) = doc else { panic!() };
        let Some(Json::Arr(rows)) = top.get_mut("rows") else {
            panic!()
        };
        let Json::Obj(row) = &mut rows[0] else {
            panic!()
        };
        row.remove("ttft_attainment_pct");
        row.remove("p99_ttft_ms");
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("rows[0].ttft_attainment_pct")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("rows[0].p99_ttft_ms")),
            "{errors:?}"
        );
        assert!(
            !errors.iter().any(|e| e.contains("p50_ttft_ms")),
            "present keys do not error: {errors:?}"
        );
    }

    #[test]
    fn validation_rejects_stale_schema_version() {
        let mut summary = artifact(&SLO, "disagg_unit", "smoke", 7, Some(1.0));
        summary.rows.push(slo_row("point", &report()));
        let doc = json::parse(&summary.to_json_string()).unwrap();
        let Json::Obj(mut top) = doc else { panic!() };
        top.insert("schema_version".into(), Json::Num(1.0));
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("unsupported schema_version")),
            "{errors:?}"
        );
    }

    #[test]
    fn validation_rejects_empty_rows() {
        let summary = artifact(&SLO, "unit_test", "smoke", 7, Some(1.0));
        let doc = json::parse(&summary.to_json_string()).unwrap();
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("rows is empty")));
    }

    #[test]
    fn write_refuses_an_artifact_the_checker_rejects() {
        let path = std::env::temp_dir().join(format!(
            "adaserve_bench_unwritten_{}.json",
            std::process::id()
        ));
        let summary = artifact(&PERF, "unit_test", "smoke", 7, Some(1.0));
        let err = summary.write(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("rows is empty"), "{err}");
        assert!(!path.exists(), "nothing is written");
        let mut perf = perf_summary();
        perf.duration_ms = None;
        let err = perf.write(&path).unwrap_err();
        assert!(err.to_string().contains("duration_ms"), "{err}");
        assert!(!path.exists(), "nothing is written");
    }

    fn perf_summary() -> Artifact {
        let mut summary = artifact(&PERF, "perf_report", "smoke", 7, Some(10_000.0));
        summary.rows.push(row([
            ("label", Json::Str("colocated rps=2".into())),
            ("wall_ms", Json::Num(65.0)),
            ("sim_ms", Json::Num(10_250.0)),
            ("sim_tokens", Json::Num(4_200.0)),
            ("sim_tokens_per_sec", Json::Num(64_615.0)),
            ("iterations", Json::Num(296.0)),
            ("iterations_per_sec", Json::Num(4_553.0)),
            ("peak_decode_batch", Json::Num(7.0)),
            ("scheduling_share_pct", Json::Num(0.02)),
            ("dist_cache_hit_rate_pct", Json::Num(9.5)),
            ("trace_dropped", Json::Num(0.0)),
        ]));
        summary
    }

    #[test]
    fn perf_summary_round_trips_and_validates() {
        let text = perf_summary().to_json_string();
        let doc = json::parse(&text).expect("emitted JSON parses");
        validate(&doc).expect("perf JSON is schema-valid");
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("perf"));
        let row = &doc.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("iterations").unwrap().as_num(), Some(296.0));
    }

    #[test]
    fn perf_validation_rejects_missing_keys() {
        let doc = json::parse(&perf_summary().to_json_string()).unwrap();
        let Json::Obj(mut top) = doc else { panic!() };
        let Some(Json::Arr(rows)) = top.get_mut("rows") else {
            panic!()
        };
        let Json::Obj(row) = &mut rows[0] else {
            panic!()
        };
        row.remove("sim_tokens_per_sec");
        row.remove("dist_cache_hit_rate_pct");
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("rows[0].sim_tokens_per_sec")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("rows[0].dist_cache_hit_rate_pct")),
            "{errors:?}"
        );
    }

    fn fleet_summary() -> Artifact {
        let mut summary = artifact(&FLEET, "fig_fleet_scaling", "smoke", 7, None);
        for (mode, workers, wall, speedup) in [
            ("sequential", 1.0, 290.0, 1.0),
            ("sharded", 4.0, 261.0, 1.11),
        ] {
            summary.rows.push(row([
                ("replicas", Json::Num(4.0)),
                ("exec", Json::Str(mode.into())),
                ("workers", Json::Num(workers)),
                ("wall_ms", Json::Num(wall)),
                ("sim_ms", Json::Num(10_000.0)),
                ("requests", Json::Num(80.0)),
                ("iterations", Json::Num(3_000.0)),
                ("iterations_per_sec", Json::Num(3_000.0 / wall * 1e3)),
                ("speedup", Json::Num(speedup)),
            ]));
        }
        summary
    }

    #[test]
    fn fleet_summary_round_trips_and_validates() {
        let text = fleet_summary().to_json_string();
        let doc = json::parse(&text).expect("emitted JSON parses");
        validate(&doc).expect("fleet JSON is schema-valid");
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("fleet"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("exec").unwrap().as_str(), Some("sharded"));
        assert_eq!(rows[1].get("speedup").unwrap().as_num(), Some(1.11));
    }

    #[test]
    fn fleet_validation_rejects_missing_keys() {
        let doc = json::parse(&fleet_summary().to_json_string()).unwrap();
        let Json::Obj(mut top) = doc else { panic!() };
        let Some(Json::Arr(rows)) = top.get_mut("rows") else {
            panic!()
        };
        let Json::Obj(row) = &mut rows[0] else {
            panic!()
        };
        row.remove("speedup");
        row.remove("exec");
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("rows[0].speedup")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("rows[0]: missing or empty exec")),
            "{errors:?}"
        );
    }

    fn prefix_summary() -> Artifact {
        let mut summary = artifact(&PREFIX, "fig_prefix_cache", "smoke", 7, Some(10_000.0));
        for (cache, hit, saved, p50) in [("off", 0.0, 0.0, 210.0), ("on", 72.5, 40_960.0, 140.0)] {
            summary.rows.push(row([
                ("label", Json::Str("share=90% rps=3.0".into())),
                ("cache", Json::Str(cache.into())),
                ("prefix_share_pct", Json::Num(90.0)),
                ("rps", Json::Num(3.0)),
                ("requests", Json::Num(30.0)),
                ("prefix_hit_rate_pct", Json::Num(hit)),
                ("prefill_tokens_saved", Json::Num(saved)),
                ("mean_ttft_ms", Json::Num(p50 + 20.0)),
                ("p50_ttft_ms", Json::Num(p50)),
                ("p99_ttft_ms", Json::Num(p50 * 3.0)),
                ("slo_attainment_pct", Json::Num(100.0)),
                ("ttft_attainment_pct", Json::Num(100.0)),
            ]));
        }
        summary
    }

    #[test]
    fn prefix_summary_round_trips_and_validates() {
        let text = prefix_summary().to_json_string();
        let doc = json::parse(&text).expect("emitted JSON parses");
        validate(&doc).expect("prefix JSON is schema-valid");
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("prefix"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("cache").unwrap().as_str(), Some("on"));
        assert_eq!(
            rows[1].get("prefix_hit_rate_pct").unwrap().as_num(),
            Some(72.5)
        );
        assert_eq!(
            rows[1].get("prefill_tokens_saved").unwrap().as_num(),
            Some(40_960.0)
        );
    }

    #[test]
    fn prefix_validation_rejects_missing_and_bad_keys() {
        let doc = json::parse(&prefix_summary().to_json_string()).unwrap();
        let Json::Obj(mut top) = doc else { panic!() };
        let Some(Json::Arr(rows)) = top.get_mut("rows") else {
            panic!()
        };
        let Json::Obj(row) = &mut rows[0] else {
            panic!()
        };
        row.remove("p50_ttft_ms");
        row.insert("cache".into(), Json::Str("maybe".into()));
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("rows[0].p50_ttft_ms")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("cache must be \"on\" or \"off\"")),
            "{errors:?}"
        );
    }

    fn attribution_summary() -> Artifact {
        let mut summary = artifact(
            &ATTRIBUTION,
            "fig_slo_attribution",
            "smoke",
            7,
            Some(10_000.0),
        );
        for (tier, violations, queueing, prefill) in
            [("chatbot", 0.0, 12.0, 55.0), ("coding", 3.0, 61.0, 14.0)]
        {
            summary.rows.push(row([
                ("label", Json::Str("rps=3.0".into())),
                ("rps", Json::Num(3.0)),
                ("tier", Json::Str(tier.into())),
                ("requests", Json::Num(30.0)),
                ("violations", Json::Num(violations)),
                ("queueing_pct", Json::Num(queueing)),
                ("prefill_pct", Json::Num(prefill)),
                ("transfer_pct", Json::Num(0.0)),
                ("decode_pct", Json::Num(100.0 - queueing - prefill)),
                ("preemption_pct", Json::Num(0.0)),
                (
                    "dominant",
                    Json::Str(
                        if queueing > 50.0 {
                            "queueing"
                        } else {
                            "prefill"
                        }
                        .into(),
                    ),
                ),
                ("fallback_all_requests", Json::Bool(violations == 0.0)),
            ]));
        }
        summary
    }

    #[test]
    fn attribution_summary_round_trips_and_validates() {
        let text = attribution_summary().to_json_string();
        let doc = json::parse(&text).expect("emitted JSON parses");
        validate(&doc).expect("attribution JSON is schema-valid");
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("attribution"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("dominant").unwrap().as_str(), Some("queueing"));
        assert_eq!(
            rows[0].get("fallback_all_requests"),
            Some(&Json::Bool(true))
        );
        assert_eq!(rows[1].get("violations").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn attribution_row_lowers_from_tier_attribution() {
        let tier = metrics::telemetry::SloAttribution::from_events(&[]).overall();
        let row = attribution_row("rps=1.0", 1.0, &tier);
        assert_eq!(text(&row, "tier"), "all");
        assert_eq!(num(&row, "requests"), 0.0);
        assert_eq!(row.get("fallback_all_requests"), Some(&Json::Bool(true)));
    }

    #[test]
    fn attribution_validation_rejects_missing_and_bad_keys() {
        let doc = json::parse(&attribution_summary().to_json_string()).unwrap();
        let Json::Obj(mut top) = doc else { panic!() };
        let Some(Json::Arr(rows)) = top.get_mut("rows") else {
            panic!()
        };
        let Json::Obj(row) = &mut rows[0] else {
            panic!()
        };
        row.remove("queueing_pct");
        row.remove("dominant");
        row.insert("fallback_all_requests".into(), Json::Str("yes".into()));
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("rows[0].queueing_pct")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("rows[0]: missing or empty dominant")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("non-bool fallback_all_requests")),
            "{errors:?}"
        );
    }

    fn autoscale_summary() -> Artifact {
        let mut summary = artifact(&AUTOSCALE, "fig_autoscale", "smoke", 7, Some(30_000.0));
        for (label, policy, hours, peak, joins, drains, spread) in [
            ("static-max", "fifo", 0.033, 4.0, 0.0, 0.0, 11.0),
            ("autoscale-fifo", "fifo", 0.014, 3.0, 2.0, 4.0, 14.0),
            ("autoscale-fair", "fair", 0.015, 3.0, 2.0, 4.0, 6.0),
        ] {
            summary.rows.push(row([
                ("label", Json::Str(label.into())),
                ("policy", Json::Str(policy.into())),
                ("replicas_max", Json::Num(4.0)),
                ("requests", Json::Num(120.0)),
                ("rejected", Json::Num(0.0)),
                ("slo_attainment_pct", Json::Num(96.0)),
                ("ttft_attainment_pct", Json::Num(94.0)),
                ("steady_attainment_pct", Json::Num(98.0)),
                ("burst_attainment_pct", Json::Num(89.0)),
                ("replica_hours", Json::Num(hours)),
                ("peak_replicas", Json::Num(peak)),
                ("joins", Json::Num(joins)),
                ("drains", Json::Num(drains)),
                ("tenant_spread_pct", Json::Num(spread)),
                ("worst_tenant_pct", Json::Num(100.0 - spread)),
            ]));
        }
        summary
    }

    #[test]
    fn autoscale_summary_round_trips_and_validates() {
        let text = autoscale_summary().to_json_string();
        let doc = json::parse(&text).expect("emitted JSON parses");
        validate(&doc).expect("autoscale JSON is schema-valid");
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("autoscale"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].get("policy").unwrap().as_str(), Some("fair"));
        assert_eq!(rows[1].get("joins").unwrap().as_num(), Some(2.0));
        assert_eq!(rows[0].get("replica_hours").unwrap().as_num(), Some(0.033));
    }

    #[test]
    fn autoscale_validation_rejects_missing_and_bad_keys() {
        let doc = json::parse(&autoscale_summary().to_json_string()).unwrap();
        let Json::Obj(mut top) = doc else { panic!() };
        let Some(Json::Arr(rows)) = top.get_mut("rows") else {
            panic!()
        };
        let Json::Obj(row) = &mut rows[0] else {
            panic!()
        };
        row.remove("replica_hours");
        row.remove("burst_attainment_pct");
        row.insert("policy".into(), Json::Str("lifo".into()));
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("rows[0].replica_hours")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("rows[0].burst_attainment_pct")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("policy must be \"fifo\" or \"fair\"")),
            "{errors:?}"
        );
    }

    fn chaos_summary() -> Artifact {
        let mut summary = artifact(&CHAOS, "fig_chaos", "smoke", 7, Some(20_000.0));
        for (label, recovery, faults, finished, rejected, retries, offered_att) in [
            ("no-fault", "n/a", 0.0, 90.0, 0.0, 0.0, 95.0),
            ("fault-no-recovery", "none", 2.0, 82.0, 8.0, 0.0, 74.0),
            ("fault-with-recovery", "retry", 2.0, 90.0, 0.0, 9.0, 88.0),
        ] {
            summary.rows.push(row([
                ("label", Json::Str(label.into())),
                ("recovery", Json::Str(recovery.into())),
                ("faults", Json::Num(faults)),
                ("offered", Json::Num(90.0)),
                ("finished", Json::Num(finished)),
                ("rejected", Json::Num(rejected)),
                ("retries", Json::Num(retries)),
                ("slo_attainment_pct", Json::Num(95.0)),
                ("offered_attainment_pct", Json::Num(offered_att)),
                ("mean_ttft_ms", Json::Num(310.0)),
            ]));
        }
        summary
    }

    #[test]
    fn chaos_summary_round_trips_and_validates() {
        let text = chaos_summary().to_json_string();
        let doc = json::parse(&text).expect("emitted JSON parses");
        validate(&doc).expect("chaos JSON is schema-valid");
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("chaos"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].get("recovery").unwrap().as_str(), Some("retry"));
        assert_eq!(rows[1].get("rejected").unwrap().as_num(), Some(8.0));
        assert_eq!(
            rows[2].get("offered_attainment_pct").unwrap().as_num(),
            Some(88.0)
        );
    }

    #[test]
    fn chaos_validation_rejects_missing_and_bad_keys() {
        let doc = json::parse(&chaos_summary().to_json_string()).unwrap();
        let Json::Obj(mut top) = doc else { panic!() };
        let Some(Json::Arr(rows)) = top.get_mut("rows") else {
            panic!()
        };
        let Json::Obj(row) = &mut rows[0] else {
            panic!()
        };
        row.remove("offered");
        row.remove("offered_attainment_pct");
        row.insert("recovery".into(), Json::Str("prayer".into()));
        let errors = validate(&Json::Obj(top)).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("rows[0].offered")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("rows[0].offered_attainment_pct")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("recovery must be")),
            "{errors:?}"
        );
    }

    fn slo_summary() -> Artifact {
        let mut summary = artifact(&SLO, "fig_cluster_scaling", "full", 7, Some(30_000.0));
        summary
            .rows
            .push(slo_row("replicas=4 rps=8.0 router=slo-aware", &report()));
        summary
    }

    /// One fixed artifact per kind, emitted byte for byte: key order,
    /// number formatting and the envelope are part of the contract the
    /// committed `BENCH_*.json` files and their consumers rely on.
    #[test]
    fn emitted_bytes_are_pinned_for_every_kind() {
        for (kind, text, golden) in [
            (
                "slo",
                slo_summary().to_json_string(),
                concat!(
                    r#"{"duration_ms":30000,"mode":"full","name":"fig_cluster_scaling","rows":[{"goodput_tps":148.148148,"label":"replicas=4 rps=8.0 router=slo-aware","p50_tpot_ms":40,"p50_ttft_ms":5,"p99_tpot_ms":40,"p99_ttft_ms":5,"requests":6,"slo_attainment_pct":100,"throughput_tps":148.148148,"tiers":[{"attainment_pct":100,"mean_tpot_ms":40,"p99_tpot_ms":40,"requests":3,"tier":"chat"},{"attainment_pct":100,"mean_tpot_ms":40,"p99_tpot_ms":40,"requests":3,"tier":"summarization"}],"ttft_attainment_pct":100}],"schema_version":2,"seed":7}"#,
                    "\n"
                ),
            ),
            (
                "perf",
                perf_summary().to_json_string(),
                concat!(
                    r#"{"duration_ms":10000,"kind":"perf","mode":"smoke","name":"perf_report","rows":[{"dist_cache_hit_rate_pct":9.5,"iterations":296,"iterations_per_sec":4553,"label":"colocated rps=2","peak_decode_batch":7,"scheduling_share_pct":0.02,"sim_ms":10250,"sim_tokens":4200,"sim_tokens_per_sec":64615,"trace_dropped":0,"wall_ms":65}],"schema_version":2,"seed":7}"#,
                    "\n"
                ),
            ),
            (
                "fleet",
                fleet_summary().to_json_string(),
                concat!(
                    r#"{"kind":"fleet","mode":"smoke","name":"fig_fleet_scaling","rows":[{"exec":"sequential","iterations":3000,"iterations_per_sec":10344.827586,"replicas":4,"requests":80,"sim_ms":10000,"speedup":1,"wall_ms":290,"workers":1},{"exec":"sharded","iterations":3000,"iterations_per_sec":11494.252874,"replicas":4,"requests":80,"sim_ms":10000,"speedup":1.11,"wall_ms":261,"workers":4}],"schema_version":2,"seed":7}"#,
                    "\n"
                ),
            ),
            (
                "prefix",
                prefix_summary().to_json_string(),
                concat!(
                    r#"{"duration_ms":10000,"kind":"prefix","mode":"smoke","name":"fig_prefix_cache","rows":[{"cache":"off","label":"share=90% rps=3.0","mean_ttft_ms":230,"p50_ttft_ms":210,"p99_ttft_ms":630,"prefill_tokens_saved":0,"prefix_hit_rate_pct":0,"prefix_share_pct":90,"requests":30,"rps":3,"slo_attainment_pct":100,"ttft_attainment_pct":100},{"cache":"on","label":"share=90% rps=3.0","mean_ttft_ms":160,"p50_ttft_ms":140,"p99_ttft_ms":420,"prefill_tokens_saved":40960,"prefix_hit_rate_pct":72.5,"prefix_share_pct":90,"requests":30,"rps":3,"slo_attainment_pct":100,"ttft_attainment_pct":100}],"schema_version":2,"seed":7}"#,
                    "\n"
                ),
            ),
            (
                "attribution",
                attribution_summary().to_json_string(),
                concat!(
                    r#"{"duration_ms":10000,"kind":"attribution","mode":"smoke","name":"fig_slo_attribution","rows":[{"decode_pct":33,"dominant":"prefill","fallback_all_requests":true,"label":"rps=3.0","preemption_pct":0,"prefill_pct":55,"queueing_pct":12,"requests":30,"rps":3,"tier":"chatbot","transfer_pct":0,"violations":0},{"decode_pct":25,"dominant":"queueing","fallback_all_requests":false,"label":"rps=3.0","preemption_pct":0,"prefill_pct":14,"queueing_pct":61,"requests":30,"rps":3,"tier":"coding","transfer_pct":0,"violations":3}],"schema_version":2,"seed":7}"#,
                    "\n"
                ),
            ),
            (
                "autoscale",
                autoscale_summary().to_json_string(),
                concat!(
                    r#"{"duration_ms":30000,"kind":"autoscale","mode":"smoke","name":"fig_autoscale","rows":[{"burst_attainment_pct":89,"drains":0,"joins":0,"label":"static-max","peak_replicas":4,"policy":"fifo","rejected":0,"replica_hours":0.033,"replicas_max":4,"requests":120,"slo_attainment_pct":96,"steady_attainment_pct":98,"tenant_spread_pct":11,"ttft_attainment_pct":94,"worst_tenant_pct":89},{"burst_attainment_pct":89,"drains":4,"joins":2,"label":"autoscale-fifo","peak_replicas":3,"policy":"fifo","rejected":0,"replica_hours":0.014,"replicas_max":4,"requests":120,"slo_attainment_pct":96,"steady_attainment_pct":98,"tenant_spread_pct":14,"ttft_attainment_pct":94,"worst_tenant_pct":86},{"burst_attainment_pct":89,"drains":4,"joins":2,"label":"autoscale-fair","peak_replicas":3,"policy":"fair","rejected":0,"replica_hours":0.015,"replicas_max":4,"requests":120,"slo_attainment_pct":96,"steady_attainment_pct":98,"tenant_spread_pct":6,"ttft_attainment_pct":94,"worst_tenant_pct":94}],"schema_version":2,"seed":7}"#,
                    "\n"
                ),
            ),
            (
                "chaos",
                chaos_summary().to_json_string(),
                concat!(
                    r#"{"duration_ms":20000,"kind":"chaos","mode":"smoke","name":"fig_chaos","rows":[{"faults":0,"finished":90,"label":"no-fault","mean_ttft_ms":310,"offered":90,"offered_attainment_pct":95,"recovery":"n/a","rejected":0,"retries":0,"slo_attainment_pct":95},{"faults":2,"finished":82,"label":"fault-no-recovery","mean_ttft_ms":310,"offered":90,"offered_attainment_pct":74,"recovery":"none","rejected":8,"retries":0,"slo_attainment_pct":95},{"faults":2,"finished":90,"label":"fault-with-recovery","mean_ttft_ms":310,"offered":90,"offered_attainment_pct":88,"recovery":"retry","rejected":0,"retries":9,"slo_attainment_pct":95}],"schema_version":2,"seed":7}"#,
                    "\n"
                ),
            ),
        ] {
            assert_eq!(text, golden, "{kind} artifact bytes changed");
        }
    }

    #[test]
    fn kind_dispatch_keeps_slo_artifacts_on_the_slo_schema() {
        // An SLO artifact (no "kind") must not be validated as perf.
        let mut summary = artifact(&SLO, "fig_cluster_scaling", "smoke", 7, Some(1.0));
        summary.rows.push(slo_row("point", &report()));
        let doc = json::parse(&summary.to_json_string()).unwrap();
        validate(&doc).expect("slo artifact validates via dispatch");
    }

    /// `docs/BENCH.md` gives each kind a section; it must name every row
    /// field of the kind (nested ones too) and, where the envelope carries
    /// it, `duration_ms`, each in backticks.
    #[test]
    fn bench_md_names_every_field_of_every_kind() {
        let doc = include_str!("../../../docs/BENCH.md");
        fn names(fields: &[(&'static str, Field)], out: &mut Vec<&'static str>) {
            for &(name, field) in fields {
                out.push(name);
                if let Rows(inner) = field {
                    names(inner, out);
                }
            }
        }
        for kind in KINDS {
            let heading = match kind.tag {
                Some(tag) => format!("`\"kind\": \"{tag}\"`"),
                None => "(no `kind`)".to_string(),
            };
            let section = doc
                .split("\n## ")
                .find(|s| s.lines().next().is_some_and(|h| h.contains(&heading)))
                .unwrap_or_else(|| panic!("docs/BENCH.md has no section headed {heading}"));
            let mut fields = Vec::new();
            names(kind.fields, &mut fields);
            if kind.duration_ms {
                fields.push("duration_ms");
            }
            for name in fields {
                assert!(
                    section.contains(&format!("`{name}`")),
                    "docs/BENCH.md section {heading} does not name `{name}`"
                );
            }
        }
    }
}
