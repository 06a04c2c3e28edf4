//! `fig_autoscale` — elasticity and fairness through a 10x flash crowd.
//!
//! The tracked artifact behind the scenario engine (`scenario`): one
//! flash-crowd scenario — two tenants with different fair-share weights
//! and SLO mixes, session-affine users — served three ways on the same
//! 4-replica fleet:
//!
//! * `static-max` — all replicas active the whole run (the provisioning
//!   ceiling the autoscaler is priced against);
//! * `autoscale-fifo` — the closed-loop [`AutoScaler`] reacting to gauge
//!   ticks, FIFO admission;
//! * `autoscale-fair` — the same controller behind a weighted-fair
//!   [`FairFrontDoor`].
//!
//! Each row splits joint SLO attainment into the steady window and the
//! flash-crowd window and prices the run in replica-hours. The
//! `check_bench_json` gates hold the autoscaled rows' burst attainment
//! near their steady-state number, their replica-hours strictly under
//! static peak provisioning, and the weighted-fair row's per-tenant
//! attainment spread at or under the FIFO row's.
//!
//! ```sh
//! fig_autoscale                       # full scenario (60 s simulated)
//! ADASERVE_SMOKE=1 fig_autoscale --json-out BENCH_autoscale.json
//! ```

use adaserve_bench::json::Json;
use adaserve_bench::summary::{num, row, text, AUTOSCALE};
use adaserve_bench::Artifact;
use adaserve_core::AdaServeEngine;
use cluster::{Cluster, RouterKind};
use scenario::{
    ArrivalProcess, AutoScaler, AutoScalerConfig, FairFrontDoor, Scenario, ScenarioWorkload,
    TenantSpec,
};
use serving::{RunReport, ServeSession, ServingEngine, SystemConfig};
use workload::CategoryMix;

/// Fleet size every configuration is built with (the static reference
/// keeps all of them active; the autoscaler scales within it).
const MAX_REPLICAS: usize = 4;

/// Replicas the autoscaler never drains below.
const MIN_REPLICAS: usize = 1;

/// Steady offered load; the flash crowd multiplies this by
/// [`MAGNITUDE`]. One replica rides the steady load comfortably; the
/// burst peak overloads even the full fleet for a while, so the
/// controller's reaction time is what the burst window measures.
const BASE_RPS: f64 = 2.5;

/// Flash-crowd peak multiplier (the "10x" the gates certify).
const MAGNITUDE: f64 = 10.0;

/// In-flight window of the weighted-fair front door: generous in steady
/// state, saturated during the burst so the weighted refill order is
/// what decides who waits.
const FAIR_WINDOW: usize = 3 * MAX_REPLICAS;

/// Gauge sampling period feeding the controller, ms.
const GAUGE_TICK_MS: f64 = 250.0;

/// Builds the shared scenario plus its burst window `[start, end)` in
/// ms. The pro tenant buys a 4x weight for purely latency-critical
/// (coding-tier, 400 ms TTFT) traffic; the free tier floods 3x the
/// volume of relaxed traffic whose multi-second TTFT budgets can absorb
/// front-door holding — so weighted-fair admission shields pro through
/// the crowd at a cost the free tier's SLOs barely notice.
fn flash_crowd(seed: u64, duration_ms: f64) -> (ScenarioWorkload, f64, f64) {
    let at_ms = duration_ms / 3.0;
    let decay_ms = duration_ms / 6.0;
    let sw = Scenario::new(seed, SystemConfig::llama70b(seed).baseline_ms)
        .process(ArrivalProcess::FlashCrowd {
            rps: BASE_RPS,
            at_ms,
            magnitude: MAGNITUDE,
            decay_ms,
        })
        .duration_ms(duration_ms)
        .users(200)
        // Bound session growth: an 8k-token returning prompt would need
        // more prefill than a 400 ms coding TTFT allows at *any* load,
        // which would drown the provisioning signal in structural misses.
        .max_context(1_536)
        .tenants(vec![
            TenantSpec::new("pro")
                .share(1.0)
                .weight(4.0)
                .mix(CategoryMix::new(1.0, 0.0, 0.0)),
            TenantSpec::new("free")
                .share(2.0)
                .weight(1.0)
                .mix(CategoryMix::new(0.0, 0.25, 0.75)),
        ])
        .build();
    (sw, at_ms, at_ms + 2.0 * decay_ms)
}

fn engines(seed: u64) -> Vec<Box<dyn ServingEngine>> {
    (0..MAX_REPLICAS)
        .map(|_| {
            Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed))) as Box<dyn ServingEngine>
        })
        .collect()
}

fn controller() -> AutoScaler {
    AutoScaler::new(AutoScalerConfig {
        min_replicas: MIN_REPLICAS,
        max_replicas: MAX_REPLICAS,
        // A batched replica healthily carries a handful of outstanding
        // requests at this load; react within two gauge ticks.
        target_queue_per_replica: 6.0,
        cooldown_ms: 500.0,
        ..AutoScalerConfig::default()
    })
}

/// Joint (TPOT ∧ TTFT) attainment of the records arriving inside /
/// outside `[burst_start, burst_end)`, in percent (100 for an empty
/// slice).
fn windowed_attainment(report: &RunReport, burst_start: f64, burst_end: f64) -> (f64, f64) {
    let pct = |in_burst: bool| {
        let (mut n, mut ok) = (0usize, 0usize);
        for r in &report.records {
            if (r.arrival_ms >= burst_start && r.arrival_ms < burst_end) == in_burst {
                n += 1;
                if r.attained() && r.ttft_attained() {
                    ok += 1;
                }
            }
        }
        if n == 0 {
            100.0
        } else {
            ok as f64 / n as f64 * 100.0
        }
    };
    (pct(false), pct(true))
}

/// Lowers one configuration's run into an artifact row.
#[allow(clippy::too_many_arguments)]
fn autoscale_row(
    label: &str,
    policy: &str,
    sw: &ScenarioWorkload,
    report: &RunReport,
    burst: (f64, f64),
    replica_hours: f64,
    peak_replicas: usize,
    actions: (u32, u32),
) -> Json {
    let slo = report.report();
    let (steady, burst_att) = windowed_attainment(report, burst.0, burst.1);
    let fairness = sw.fairness_report(report);
    row([
        ("label", Json::Str(label.into())),
        ("policy", Json::Str(policy.into())),
        ("replicas_max", Json::Num(MAX_REPLICAS as f64)),
        ("requests", Json::Num(report.records.len() as f64)),
        ("rejected", Json::Num(report.rejected.len() as f64)),
        ("slo_attainment_pct", Json::Num(slo.attainment_pct)),
        ("ttft_attainment_pct", Json::Num(slo.ttft_attainment_pct)),
        ("steady_attainment_pct", Json::Num(steady)),
        ("burst_attainment_pct", Json::Num(burst_att)),
        ("replica_hours", Json::Num(replica_hours)),
        ("peak_replicas", Json::Num(peak_replicas as f64)),
        ("joins", Json::Num(f64::from(actions.0))),
        ("drains", Json::Num(f64::from(actions.1))),
        ("tenant_spread_pct", Json::Num(fairness.spread_pct())),
        (
            "worst_tenant_pct",
            Json::Num(fairness.worst_attainment_pct()),
        ),
    ])
}

/// One closed-loop autoscaled run over `deploy` (already wrapped in
/// whatever admission policy the row measures).
fn autoscaled<D: serving::Deployment>(
    deploy: D,
    sw: &ScenarioWorkload,
) -> (RunReport, f64, usize, (u32, u32)) {
    let mut session = ServeSession::new(deploy)
        .with_gauge_events()
        .with_gauge_tick_ms(GAUGE_TICK_MS);
    let mut scaler = controller();
    for plan in scaler.initial_plans() {
        session.scale_at(plan.at_ms, plan.replica, plan.action);
    }
    session.enqueue(&sw.workload);
    let report = session
        .serve_online(|event, handle| {
            if let Some(plan) = scaler.observe(event) {
                handle.scale_at(plan.at_ms, plan.replica, plan.action);
            }
        })
        .expect("autoscaled run completes");
    let hours = scaler.replica_hours(report.end_ms);
    (report, hours, scaler.peak_active(), scaler.actions())
}

fn main() {
    adaserve_bench::check_sweep_args("fig_autoscale");
    let seed = adaserve_bench::seed();
    let json_out = adaserve_bench::parse_json_out();
    let duration_ms = adaserve_bench::sweep_duration_ms(20_000.0, 60_000.0);

    let (sw, burst_start, burst_end) = flash_crowd(seed, duration_ms);
    println!(
        "autoscale scenario: {} over {MAX_REPLICAS}x llama70b, burst window \
         [{:.1}s, {:.1}s), seed {seed}\n",
        sw.workload.description,
        burst_start / 1e3,
        burst_end / 1e3,
    );

    let mut summary = Artifact::new(&AUTOSCALE, "fig_autoscale", seed, Some(duration_ms));

    let mut tenant_detail = Vec::new();

    // Static reference: every replica active for the whole run.
    let static_report = ServeSession::new(Cluster::new(
        engines(seed),
        RouterKind::LeastOutstanding.build(),
    ))
    .serve(&sw.workload)
    .expect("static run completes");
    let static_hours = MAX_REPLICAS as f64 * static_report.end_ms / 3_600_000.0;
    summary.rows.push(autoscale_row(
        "static-max",
        "fifo",
        &sw,
        &static_report,
        (burst_start, burst_end),
        static_hours,
        MAX_REPLICAS,
        (0, 0),
    ));
    tenant_detail.push(sw.fairness_report(&static_report));

    // Closed-loop autoscaling, FIFO admission.
    let cluster = Cluster::new(engines(seed), RouterKind::LeastOutstanding.build());
    let (report, hours, peak, actions) = autoscaled(cluster, &sw);
    summary.rows.push(autoscale_row(
        "autoscale-fifo",
        "fifo",
        &sw,
        &report,
        (burst_start, burst_end),
        hours,
        peak,
        actions,
    ));
    tenant_detail.push(sw.fairness_report(&report));

    // Closed-loop autoscaling behind weighted-fair admission.
    let cluster = Cluster::new(engines(seed), RouterKind::LeastOutstanding.build());
    let fair = FairFrontDoor::new(cluster, &sw.tenants, sw.tenant_table(), FAIR_WINDOW);
    let (report, hours, peak, actions) = autoscaled(fair, &sw);
    summary.rows.push(autoscale_row(
        "autoscale-fair",
        "fair",
        &sw,
        &report,
        (burst_start, burst_end),
        hours,
        peak,
        actions,
    ));
    tenant_detail.push(sw.fairness_report(&report));

    println!(
        "{:<15} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>9} {:>5} {:>6} {:>7} {:>8}",
        "label",
        "reqs",
        "rej",
        "slo%",
        "ttft%",
        "steady%",
        "burst%",
        "rep-hrs",
        "peak",
        "j/d",
        "spread",
        "worst%"
    );
    for (r, fairness) in summary.rows.iter().zip(&tenant_detail) {
        println!(
            "{:<15} {:>6} {:>6} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.4} {:>5} {:>3}/{:<2} {:>7.1} {:>8.1}",
            text(r, "label"),
            num(r, "requests"),
            num(r, "rejected"),
            num(r, "slo_attainment_pct"),
            num(r, "ttft_attainment_pct"),
            num(r, "steady_attainment_pct"),
            num(r, "burst_attainment_pct"),
            num(r, "replica_hours"),
            num(r, "peak_replicas"),
            num(r, "joins"),
            num(r, "drains"),
            num(r, "tenant_spread_pct"),
            num(r, "worst_tenant_pct"),
        );
        for t in &fairness.tenants {
            println!(
                "  tenant {:<6} {:>5} completed, {:>3} rejected, joint attainment {:>5.1}%",
                sw.tenants[t.tenant].name,
                t.requests,
                t.rejected,
                t.attainment_pct(),
            );
        }
    }

    if let Some(path) = json_out {
        summary.write(&path).expect("write autoscale artifact");
    }
}
