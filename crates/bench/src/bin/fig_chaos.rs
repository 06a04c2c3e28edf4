//! `fig_chaos` — SLO attainment through a seeded crash during a flash
//! crowd, with and without recovery.
//!
//! The tracked artifact behind the fault-injection subsystem
//! (`serving::FaultPlan` / `serving::RecoveryPolicy`): one flash-crowd
//! scenario served three ways on the same 3-replica fleet —
//!
//! * `no-fault` — the clean baseline. No plan is installed; by the
//!   fault-free equivalence test this run is record-identical to a
//!   session that has never heard of chaos.
//! * `fault-no-recovery` — a seeded [`FaultPlan`] crashes one replica
//!   and slows another mid-crowd, under [`RecoveryPolicy::no_retry`]:
//!   every request lost to the crash is terminally rejected.
//! * `fault-with-recovery` — the *identical* fault schedule under the
//!   default retry/backoff policy: lost requests return to the front
//!   door, re-dispatch SLO-aware, and sustained pressure sheds
//!   speculation depth before it sheds the loosest tier.
//!
//! The metric recovery is judged on is **offered-basis attainment**:
//! joint (TPOT ∧ TTFT) attainment over everything the clients offered,
//! with rejected requests counted as misses — a system cannot reject
//! its way to a good number. The `check_bench_json` chaos gates hold
//! per-row conservation (offered = finished + rejected), a clean
//! no-fault row, and the with-recovery row strictly above the
//! no-recovery row on that metric.
//!
//! ```sh
//! fig_chaos                           # full scenario (60 s simulated)
//! ADASERVE_SMOKE=1 fig_chaos --json-out BENCH_chaos.json
//! ```

use adaserve_bench::json::Json;
use adaserve_bench::summary::{num, row, text, CHAOS};
use adaserve_bench::Artifact;
use adaserve_core::AdaServeEngine;
use cluster::{Cluster, RouterKind};
use scenario::{ArrivalProcess, Scenario, ScenarioWorkload, TenantSpec};
use serving::{FaultPlan, RecoveryPolicy, RunReport, ServeSession, ServingEngine, SystemConfig};
use workload::CategoryMix;

/// Fleet size; the seeded plan crashes one of these replicas.
const REPLICAS: usize = 3;

/// Steady offered load; the flash crowd multiplies this by
/// [`MAGNITUDE`]. Tuned so the fleet rides the crowd with headroom —
/// the attainment the fault rows lose is then attributable to the
/// injected faults, not to pre-existing overload.
const BASE_RPS: f64 = 3.0;

/// Flash-crowd peak multiplier.
const MAGNITUDE: f64 = 4.0;

/// Builds the shared scenario plus its burst onset in ms. Two tenants
/// with different SLO mixes exercise the tiered shedding path: the
/// anchor tenant's traffic is latency-critical, the long tail's mix
/// includes the Summarization tier graceful degradation refuses first.
fn flash_crowd(seed: u64, duration_ms: f64) -> (ScenarioWorkload, f64) {
    let at_ms = duration_ms / 3.0;
    let sw = Scenario::new(seed, SystemConfig::llama70b(seed).baseline_ms)
        .process(ArrivalProcess::FlashCrowd {
            rps: BASE_RPS,
            at_ms,
            magnitude: MAGNITUDE,
            decay_ms: duration_ms / 6.0,
        })
        .duration_ms(duration_ms)
        .users(200)
        .max_context(1_536)
        .tenants(vec![
            TenantSpec::new("anchor")
                .share(2.0)
                .weight(2.0)
                .mix(CategoryMix::new(0.6, 0.4, 0.0)),
            TenantSpec::new("longtail")
                .share(1.0)
                .weight(1.0)
                .mix(CategoryMix::new(0.0, 0.4, 0.6)),
        ])
        .build();
    (sw, at_ms)
}

fn fleet(seed: u64) -> Cluster {
    let engines: Vec<Box<dyn ServingEngine>> = (0..REPLICAS)
        .map(|_| {
            Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed))) as Box<dyn ServingEngine>
        })
        .collect();
    Cluster::new(engines, RouterKind::SloAware.build())
}

/// Lowers one configuration's run into an artifact row. Offered-basis
/// attainment counts every front-door rejection as a miss.
fn chaos_row(label: &str, recovery: &str, faults: usize, report: &RunReport) -> Json {
    let finished = report.records.len();
    let rejected = report.rejected.len();
    let offered = finished + rejected;
    let ok = report
        .records
        .iter()
        .filter(|r| r.attained() && r.ttft_attained())
        .count();
    let pct = |num: usize, den: usize| {
        if den == 0 {
            100.0
        } else {
            num as f64 / den as f64 * 100.0
        }
    };
    let mean_ttft_ms = if finished == 0 {
        0.0
    } else {
        report
            .records
            .iter()
            .map(metrics::RequestRecord::ttft_ms)
            .sum::<f64>()
            / finished as f64
    };
    row([
        ("label", Json::Str(label.into())),
        ("recovery", Json::Str(recovery.into())),
        ("faults", Json::Num(faults as f64)),
        ("offered", Json::Num(offered as f64)),
        ("finished", Json::Num(finished as f64)),
        ("rejected", Json::Num(rejected as f64)),
        ("retries", Json::Num(report.retries_scheduled as f64)),
        ("slo_attainment_pct", Json::Num(pct(ok, finished))),
        ("offered_attainment_pct", Json::Num(pct(ok, offered))),
        ("mean_ttft_ms", Json::Num(mean_ttft_ms)),
    ])
}

fn main() {
    adaserve_bench::check_sweep_args("fig_chaos");
    let seed = adaserve_bench::seed();
    let json_out = adaserve_bench::parse_json_out();
    let duration_ms = adaserve_bench::sweep_duration_ms(20_000.0, 60_000.0);

    let (sw, burst_at) = flash_crowd(seed, duration_ms);
    // Chaos lands on the crowd: the window opens at burst onset and
    // spans its decay, so the crash takes out a replica exactly when
    // the fleet can least afford it.
    let plan = FaultPlan::seeded(seed, burst_at, duration_ms / 3.0, REPLICAS, false);
    println!(
        "chaos scenario: {} over {REPLICAS}x llama70b, burst at {:.1}s, seed {seed}",
        sw.workload.description,
        burst_at / 1e3,
    );
    for e in plan.events() {
        println!(
            "  fault @ {:>7.1}ms  {:<9} {}",
            e.at_ms,
            e.kind.target_label(),
            e.kind.describe()
        );
    }
    println!();

    let mut summary = Artifact::new(&CHAOS, "fig_chaos", seed, Some(duration_ms));

    let baseline = ServeSession::new(fleet(seed))
        .serve(&sw.workload)
        .expect("no-fault run completes");
    summary
        .rows
        .push(chaos_row("no-fault", "n/a", 0, &baseline));

    let unrecovered = ServeSession::new(fleet(seed))
        .with_fault_plan(plan.clone())
        .with_recovery_policy(RecoveryPolicy::no_retry())
        .serve(&sw.workload)
        .expect("no-recovery run completes");
    summary.rows.push(chaos_row(
        "fault-no-recovery",
        "none",
        plan.events().len(),
        &unrecovered,
    ));

    let recovered = ServeSession::new(fleet(seed))
        .with_fault_plan(plan.clone())
        .with_recovery_policy(RecoveryPolicy::default())
        .serve(&sw.workload)
        .expect("with-recovery run completes");
    summary.rows.push(chaos_row(
        "fault-with-recovery",
        "retry",
        plan.events().len(),
        &recovered,
    ));

    println!(
        "{:<22} {:>8} {:>7} {:>8} {:>8} {:>7} {:>9} {:>11} {:>10}",
        "label",
        "recovery",
        "offered",
        "finished",
        "rejected",
        "retries",
        "slo%",
        "offered-slo%",
        "ttft-ms"
    );
    for r in &summary.rows {
        println!(
            "{:<22} {:>8} {:>7} {:>8} {:>8} {:>7} {:>9.1} {:>11.1} {:>10.1}",
            text(r, "label"),
            text(r, "recovery"),
            num(r, "offered"),
            num(r, "finished"),
            num(r, "rejected"),
            num(r, "retries"),
            num(r, "slo_attainment_pct"),
            num(r, "offered_attainment_pct"),
            num(r, "mean_ttft_ms"),
        );
    }

    if let Some(path) = json_out {
        summary.write(&path).expect("write chaos artifact");
    }
}
