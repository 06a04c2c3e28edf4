//! Ablations of AdaServe's design choices (paper §4; abstract in `PAPER.md`).
//!
//! * adaptive vs static `(d, w)` — the value of eq. 8–9;
//! * SLO-customized selection on/off — the value of phase 2 vs pure
//!   throughput selection;
//! * `n_max` sweep — the guard against low-probability monopolization;
//! * verification-budget policy sweep — latency-stretch vs roofline-knee.

use adaserve_bench::{
    parse_duration_ms, run_many, run_one, seed, serve_one, EngineKind, ModelSetup,
};
use adaserve_core::{AdaServeEngine, AdaServeOptions};
use metrics::Table;
use roofline::BudgetPolicy;
use workload::{TraceKind, WorkloadBuilder};

fn main() {
    let duration = parse_duration_ms();
    let setup = ModelSetup::Llama70b;
    let config = setup.config(seed());
    // A deliberately hard operating point — sub-baseline urgent SLO at high
    // load — so design choices actually discriminate (at the default scale
    // every AdaServe variant attains ~100%).
    let workload = WorkloadBuilder::new(seed(), config.baseline_ms)
        .trace(TraceKind::RealWorld)
        .cat1_slo_scale(0.6)
        .target_rps(5.2)
        .duration_ms(duration)
        .build();
    println!(
        "Ablation workload: {} (cat-1 SLO scale 0.6)\n",
        workload.description
    );

    // ---- Adaptive control and SLO selection. ----
    let variants = vec![
        ("full AdaServe", EngineKind::AdaServe),
        (
            "static (d,w)=(4,2)",
            EngineKind::AdaServeAblated {
                adaptive: false,
                slo_selection: true,
                n_max: 8,
            },
        ),
        (
            "no SLO selection",
            EngineKind::AdaServeAblated {
                adaptive: true,
                slo_selection: false,
                n_max: 8,
            },
        ),
        (
            "neither",
            EngineKind::AdaServeAblated {
                adaptive: false,
                slo_selection: false,
                n_max: 8,
            },
        ),
    ];
    let results = run_many(variants.clone(), |(_, kind)| {
        run_one(*kind, setup, seed(), &workload)
    });
    let mut t = Table::new(vec![
        "Variant",
        "Attainment (%)",
        "Goodput (tok/s)",
        "Accepted/verify",
    ]);
    for ((label, _), result) in variants.iter().zip(&results) {
        let report = result.report();
        t.row(vec![
            label.to_string(),
            format!("{:.1}", report.attainment_pct),
            format!("{:.0}", report.goodput_tps),
            format!("{:.2}", result.mean_accepted_per_verify),
        ]);
    }
    println!(
        "-- Ablation: adaptive control & SLO-customized selection --\n{}",
        t.render()
    );

    // ---- n_max sweep. ----
    let n_maxes = [2usize, 4, 8, 16, 64];
    let results = run_many(n_maxes.to_vec(), |&n_max| {
        run_one(
            EngineKind::AdaServeAblated {
                adaptive: true,
                slo_selection: true,
                n_max,
            },
            setup,
            seed(),
            &workload,
        )
    });
    let mut t = Table::new(vec!["n_max", "Attainment (%)", "Goodput (tok/s)"]);
    for (&n_max, result) in n_maxes.iter().zip(&results) {
        let report = result.report();
        t.row(vec![
            n_max.to_string(),
            format!("{:.1}", report.attainment_pct),
            format!("{:.0}", report.goodput_tps),
        ]);
    }
    println!(
        "-- Ablation: per-request SLO-phase cap n_max --\n{}",
        t.render()
    );

    // ---- SLO-selection value when urgency anti-correlates with
    // predictability. ----
    //
    // In the paper's mix the urgent category (code) is also the most
    // predictable, so pure probability ordering happens to serve urgent
    // requests first and the SLO phase looks redundant. Tightening the
    // *summarization* SLO instead (least predictable content) separates the
    // two orderings and exposes the phase's value.
    let mut adversarial = workload.clone();
    for r in &mut adversarial.requests {
        if r.category == workload::Category::Summarization {
            r.tpot_slo_ms = config.baseline_ms * 0.9;
        }
    }
    let variants = vec![
        ("full AdaServe", EngineKind::AdaServe),
        (
            "no SLO selection",
            EngineKind::AdaServeAblated {
                adaptive: true,
                slo_selection: false,
                n_max: 8,
            },
        ),
    ];
    let results = run_many(variants.clone(), |(_, kind)| {
        run_one(*kind, setup, seed(), &adversarial)
    });
    let mut t = Table::new(vec![
        "Variant (tight summarization SLO)",
        "Attainment (%)",
        "summ viol%",
        "Goodput (tok/s)",
    ]);
    for ((label, _), result) in variants.iter().zip(&results) {
        let report = result.report();
        t.row(vec![
            label.to_string(),
            format!("{:.1}", report.attainment_pct),
            report
                .category(workload::Category::Summarization)
                .map(|c| format!("{:.1}", c.violation_pct))
                .unwrap_or_else(|| "-".into()),
            format!("{:.0}", report.goodput_tps),
        ]);
    }
    println!(
        "-- Ablation: SLO selection under urgency/predictability anti-correlation --\n{}",
        t.render()
    );

    // ---- Verification budget policy. ----
    let policies: Vec<(&str, BudgetPolicy)> = vec![
        ("stretch 1.2x", BudgetPolicy::LatencyStretch(1.2)),
        ("stretch 1.5x", BudgetPolicy::LatencyStretch(1.5)),
        ("stretch 2.0x", BudgetPolicy::LatencyStretch(2.0)),
        ("roofline knee", BudgetPolicy::Knee),
        ("fixed 64", BudgetPolicy::Fixed(64)),
        ("fixed 512", BudgetPolicy::Fixed(512)),
    ];
    let results = run_many(policies.clone(), |&(_, policy)| {
        let options = AdaServeOptions {
            budget_policy: policy,
            ..Default::default()
        };
        let engine = AdaServeEngine::with_options(setup.config(seed()), options);
        serve_one(Box::new(engine), &workload)
    });
    let mut t = Table::new(vec![
        "Budget policy",
        "B",
        "Attainment (%)",
        "Goodput (tok/s)",
    ]);
    for ((label, policy), result) in policies.iter().zip(&results) {
        let report = result.report();
        let b = {
            let cfg = setup.config(seed());
            roofline::TokenBudgetProfile::profile(
                &cfg.testbed.target,
                &cfg.testbed.draft,
                512,
                *policy,
            )
            .verify_budget
        };
        t.row(vec![
            label.to_string(),
            b.to_string(),
            format!("{:.1}", report.attainment_pct),
            format!("{:.0}", report.goodput_tps),
        ]);
    }
    println!("-- Ablation: verification token budget --\n{}", t.render());
}
