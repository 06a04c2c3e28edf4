//! Online serving: closed-loop multi-turn chat through the unified
//! `ServeSession` front door.
//!
//! This scenario needs `serve_online`, not the open-loop `serve`: the
//! workload is *not* known up front. Each simulated
//! user submits a first turn, waits for it to finish, "thinks" for a
//! moment, then submits a follow-up — so later arrivals depend on
//! earlier completions. The client hook also reacts to load mid-run:
//! when the first turn of the heaviest user completes, it schedules a
//! drain/join cycle on one replica, exercising elastic scaling from
//! *inside* the run. A deliberately oversized prompt demonstrates the
//! front door's admission control (capacity introspection + `Rejected`
//! lifecycle events).
//!
//! With `--trace-out PATH` the run records every request's lifecycle
//! (enqueue, routing, prefill, iterations, finish) through the tracing
//! layer and writes a Chrome-trace / Perfetto JSON, loadable in
//! `ui.perfetto.dev` — see `docs/OBSERVABILITY.md`.
//!
//! ```sh
//! cargo run --release --example online_serving
//! cargo run --release --example online_serving -- --trace-out trace.json
//! ```

use adaserve::cluster::{Cluster, RouterKind};
use adaserve::core::AdaServeEngine;
use adaserve::metrics::telemetry::{perfetto, Tracer};
use adaserve::metrics::Table;
use adaserve::serving::{
    Deployment, DeploymentEvent, ReplicaAddr, ScalingAction, ServeSession, ServingEngine,
    SystemConfig,
};
use adaserve::workload::{env_seed, smoke_scale, WorkloadBuilder};
use std::collections::HashMap;

/// Conversation turns per simulated user.
const TURNS: u64 = 3;
/// Client think time between receiving an answer and the follow-up, ms.
const THINK_MS: f64 = 400.0;
/// Follow-up turns re-send the conversation so far: prompts grow.
const PROMPT_GROWTH: u32 = 48;

/// Follow-up ids pack (user, turn) so records stay attributable.
fn turn_id(user: u64, turn: u64) -> u64 {
    user + turn * 1_000_000
}

/// Parses the optional `--trace-out PATH` flag.
fn parse_trace_out() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace-out")
        .map(|i| match args.get(i + 1) {
            Some(path) => std::path::PathBuf::from(path),
            None => {
                eprintln!("--trace-out requires a path");
                std::process::exit(2);
            }
        })
}

fn main() {
    let seed = env_seed(23);
    let trace_out = parse_trace_out();
    // ADASERVE_SMOKE=1 (set by the CI smoke tests) shrinks the opening
    // burst; follow-up turns scale with it automatically.
    let (rps, duration_ms) = smoke_scale(3.0, 20_000.0);
    let config = SystemConfig::llama70b(seed);

    // Two AdaServe replicas behind the SLO-aware router.
    let fleet: Vec<Box<dyn ServingEngine>> = (0..2)
        .map(|_| {
            Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed))) as Box<dyn ServingEngine>
        })
        .collect();
    // Tracing is free when no sink is requested: the off tracer reduces
    // every call site to one branch.
    let tracer = if trace_out.is_some() {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut session = ServeSession::new(Cluster::new(fleet, RouterKind::SloAware.build()))
        .with_tracer(tracer.clone());

    // Capacity/baseline introspection: the deployment answers for the
    // whole fleet, whatever its shape.
    let capacity = session.deployment().kv_capacity_tokens();
    println!(
        "Deployment: 2x {} behind {} routing — baseline decode {:.1} ms, \
         KV capacity {} tokens/replica\n",
        config.testbed.name,
        session.deployment().name(),
        session.deployment().max_baseline_ms(),
        capacity,
    );

    // Opening turns: a short multi-SLO trace provides each user's first
    // request. Everything after this is generated by the client hook.
    let opening = WorkloadBuilder::new(seed, config.baseline_ms)
        .target_rps(rps)
        .duration_ms(duration_ms)
        .build();
    let users = opening.requests.len() as u64;
    session.enqueue(&opening);

    // One prompt that can never fit any replica's KV pool: the front
    // door rejects it instead of letting the run stall.
    let mut oversized = opening.requests[0].clone();
    oversized.id = turn_id(users, 0);
    oversized.prompt_len = u32::try_from(capacity)
        .unwrap_or(u32::MAX)
        .saturating_add(1);
    session.submit(oversized);

    println!(
        "{} users open conversations over {:.1} s; each runs {TURNS} turns \
         with {THINK_MS:.0} ms think time\n",
        users,
        duration_ms / 1e3
    );

    // Closed loop: every Finished answer triggers the user's next turn;
    // the first completion triggers a drain/join cycle.
    let by_id: HashMap<u64, adaserve::workload::RequestSpec> =
        opening.requests.iter().map(|r| (r.id, r.clone())).collect();
    let mut scaled = false;
    let mut rejections = Vec::new();
    let report = session
        .serve_online(|event, handle| match event {
            DeploymentEvent::Finished { record } => {
                let user = record.id % 1_000_000;
                let turn = record.id / 1_000_000;
                if turn + 1 < TURNS {
                    if let Some(first) = by_id.get(&user) {
                        let mut next = first.clone();
                        next.id = turn_id(user, turn + 1);
                        next.arrival_ms = handle.now_ms() + THINK_MS;
                        next.prompt_len = first.prompt_len + PROMPT_GROWTH * (turn as u32 + 1);
                        next.stream_seed = first.stream_seed ^ (turn + 1);
                        handle.submit(next);
                    }
                }
                // Mid-run elastic scaling, decided by an online signal
                // (first completed turn), not a precomputed timeline.
                if !scaled {
                    scaled = true;
                    handle.scale_at(
                        handle.now_ms() + 500.0,
                        ReplicaAddr::serving(1),
                        ScalingAction::Drain,
                    );
                    handle.scale_at(
                        handle.now_ms() + 2_500.0,
                        ReplicaAddr::serving(1),
                        ScalingAction::Join,
                    );
                }
            }
            DeploymentEvent::Rejected { id, reason, at_ms } => {
                rejections.push(format!("request {id} at {at_ms:.0} ms: {reason}"));
            }
            _ => {}
        })
        .expect("online run completes");

    assert_eq!(
        report.records.len() as u64,
        users * TURNS,
        "every user completed every turn"
    );
    for line in &rejections {
        println!("rejected: {line}");
    }

    let slo = report.report();
    println!(
        "\nServed {} turns ({} users x {TURNS}) in {:.1} s simulated; \
         SLO attainment {:.1}%, goodput {:.0} tok/s",
        report.records.len(),
        users,
        report.end_ms / 1e3,
        slo.attainment_pct,
        slo.goodput_tps,
    );

    let mut table = Table::new(vec!["Turn", "Requests", "mean TTFT ms", "p99 TPOT ms"]);
    for turn in 0..TURNS {
        let recs: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.id / 1_000_000 == turn)
            .collect();
        let mean_ttft = recs.iter().map(|r| r.ttft_ms()).sum::<f64>() / recs.len().max(1) as f64;
        let mut tpots: Vec<f64> = recs.iter().map(|r| r.avg_tpot_ms()).collect();
        tpots.sort_by(f64::total_cmp);
        let p99 = tpots
            .get(((tpots.len() as f64 * 0.99) as usize).min(tpots.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0);
        table.row(vec![
            format!("{}", turn + 1),
            recs.len().to_string(),
            format!("{mean_ttft:.1}"),
            format!("{p99:.1}"),
        ]);
    }
    println!("\nPer-turn detail (later turns carry longer contexts):");
    println!("{}", table.render());
    if let Some(path) = trace_out {
        let events = tracer.snapshot();
        perfetto::export_to_file(&path, &events).expect("write perfetto trace");
        println!(
            "\nWrote {} ({} trace events) — open it in ui.perfetto.dev",
            path.display(),
            events.len()
        );
    }
    println!(
        "Follow-up turns were submitted mid-run from the client hook at\n\
         completion + think time, and replica 1 drained/rejoined on an\n\
         online trigger — neither is expressible with the batch run() API."
    );
}
