//! The traced run: per-layer metrics from the timing shims' spans, the
//! engines' own counters and the event tracer.
//!
//! Host self times partition the traced serve's wall time on the calling
//! thread: the session's share is serve time outside any deployment
//! call, the front door's is its calls minus the inner deployment calls
//! they make, and inside the innermost deployment calls every instant is
//! charged to the engine if any engine step runs on any thread then, else
//! to the router if a route is running, else to the deployment itself
//! (scans, merges, the executor barrier).

use std::io::Write;
use std::path::PathBuf;

use adaserve::metrics::telemetry::{EventKind, SloAttribution, TraceEvent, Tracer};
use adaserve::metrics::{percentile, FairnessReport};

use crate::shim::{Layer, Recorder, Span};
use crate::workloads::{self, RunSpec};
use crate::{check, median, Gate, Measured, Metric};

/// Sorted, disjoint `[start, end)` intervals in nanoseconds.
type Intervals = Vec<(u64, u64)>;

pub(crate) fn union(mut xs: Intervals) -> Intervals {
    xs.sort_unstable();
    let mut out: Intervals = Vec::with_capacity(xs.len());
    for (s, e) in xs {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

pub(crate) fn intersect(a: &Intervals, b: &Intervals) -> Intervals {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            out.push((s, e));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

fn measure_s(xs: &Intervals) -> f64 {
    xs.iter().map(|(s, e)| e - s).sum::<u64>() as f64 / 1e9
}

fn intervals<'a>(spans: impl Iterator<Item = &'a Span>) -> Intervals {
    union(spans.map(|s| (s.start_ns, s.end_ns)).collect())
}

fn durations_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(|s| s.duration_ns() as f64 / 1e3).collect()
}

/// Host-clock decomposition of the traced serve.
#[derive(Debug, Default)]
struct HostSplit {
    serve_s: f64,
    session_self_s: f64,
    scenario_self_s: f64,
    /// Self time of the innermost deployment (`Cluster`, `Colocated` or
    /// `DisaggCluster`).
    deploy_self_s: f64,
    core_cover_s: f64,
    route_cover_s: f64,
    core_busy_s: f64,
    core_steps: usize,
    core_p50_us: f64,
    core_p99_us: f64,
    route_calls: usize,
    route_busy_s: f64,
    route_p99_us: f64,
    deploy_step_calls: usize,
    deploy_step_p50_us: f64,
    deploy_step_p99_us: f64,
    exec_idle_s: f64,
    exec_parallelism: f64,
}

fn split(spans: &[Span]) -> HostSplit {
    let serve = spans
        .iter()
        .find(|s| s.layer == Layer::Session)
        .expect("the serve span");
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
    let top: f64 = spans
        .iter()
        .filter(|s| s.layer.is_deployment() && s.parent == serve.id)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    let inner_layer = if of(Layer::Disagg).next().is_some() {
        Layer::Disagg
    } else {
        Layer::Cluster
    };
    let inner = intervals(of(inner_layer));
    let scenario_s = measure_s(&intervals(of(Layer::Scenario)));
    let inner_under_scenario_s = if scenario_s > 0.0 {
        measure_s(&inner)
    } else {
        0.0
    };
    let engine = intervals(of(Layer::Core));
    let route = intervals(of(Layer::Route));
    let core_cover = intersect(&engine, &inner);
    let route_in = intersect(&route, &inner);
    let route_cover_s = measure_s(&route_in) - measure_s(&intersect(&route_in, &engine));
    let core_cover_s = measure_s(&core_cover);
    let step_until = intervals(of(inner_layer).filter(|s| s.op == "step_until"));
    let core_busy_s = of(Layer::Core).map(|s| s.duration_ns()).sum::<u64>() as f64 / 1e9;
    let core_us = durations_us(of(Layer::Core));
    let route_us = durations_us(of(Layer::Route));
    let step_us = durations_us(of(inner_layer).filter(|s| s.op.starts_with("step")));
    let engine_s = measure_s(&engine);
    HostSplit {
        serve_s: serve.duration_ns() as f64 / 1e9,
        session_self_s: serve.duration_ns() as f64 / 1e9 - top,
        scenario_self_s: scenario_s - inner_under_scenario_s,
        deploy_self_s: measure_s(&inner) - core_cover_s - route_cover_s,
        core_cover_s,
        route_cover_s,
        core_busy_s,
        core_steps: core_us.len(),
        core_p50_us: percentile(&core_us, 50.0),
        core_p99_us: percentile(&core_us, 99.0),
        route_calls: route_us.len(),
        route_busy_s: route_us.iter().fold(0.0, |a, b| a + b) / 1e6,
        route_p99_us: percentile(&route_us, 99.0),
        deploy_step_calls: step_us.len(),
        deploy_step_p50_us: percentile(&step_us, 50.0),
        deploy_step_p99_us: percentile(&step_us, 99.0),
        exec_idle_s: measure_s(&step_until) - measure_s(&intersect(&step_until, &engine)),
        exec_parallelism: if engine_s > 0.0 {
            core_busy_s / engine_s
        } else {
            0.0
        },
    }
}

/// Events the traced run can record: one per engine iteration or
/// prefill chunk, a few dozen per request, one gauge per simulated
/// second, with room to spare.
fn ring_capacity(iterations: u64, requests: usize, sim_ms: f64) -> usize {
    let n = 4 * iterations + 64 * requests as u64 + (sim_ms / 1e3) as u64 + 4_096;
    usize::try_from(n).expect("ring fits in memory")
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the spans as Chrome-trace JSON (Perfetto opens it).
fn write_chrome_trace(name: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.trace.json"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    write!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
    let mut threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for (i, t) in threads.iter().enumerate() {
        let label = if *t == 0 {
            "caller".to_string()
        } else {
            format!("worker-{t}")
        };
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {t}, \"args\": {{\"name\": \"{label}\"}}}}"
        )?;
    }
    for s in spans {
        let parent = if s.parent == crate::shim::NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let request = s.request.map_or("null".to_string(), |r| r.to_string());
        write!(
            out,
            ",\n{{\"name\": \"{}.{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}, \"request\": {request}}}}}",
            s.layer.label(),
            s.op,
            s.layer.label(),
            s.thread,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()?;
    Ok(path)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Runs the traced serve, gates it against the untraced records and
/// returns the per-layer metrics.
pub fn traced(m: &Measured, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let input = &m.input;
    let rec = Recorder::new();
    let tracer = Tracer::ring(ring_capacity(
        m.iterations,
        input.workload.requests.len(),
        m.end_ms,
    ));
    let spec = RunSpec {
        exec: None,
        shims: Some(rec.clone()),
        tracer: Some(tracer.clone()),
    };
    // Untraced serves right before and after the traced one are its
    // overhead baseline: the host's speed drifts over tens of seconds.
    let mut untraced_s = 0.0;
    let mut served = None;
    for (label, spec) in [
        ("untraced before", RunSpec::default()),
        ("traced", spec),
        ("untraced after", RunSpec::default()),
    ] {
        let run = workloads::serve(input, &spec).map_err(|e| e.to_string())?;
        gate.audit(label, input, &run);
        let digest = check::digest(&run.report);
        gate.require(digest == m.digest, || {
            format!(
                "{label} run: record digest {digest:016x} != {:016x}",
                m.digest
            )
        });
        if spec.shims.is_some() {
            served = Some(run);
        } else {
            untraced_s += run.serve_s / 2.0;
        }
    }
    let served = served.expect("the traced serve ran");
    let dropped = tracer.dropped();
    gate.require(dropped == 0, || format!("tracer dropped {dropped} events"));
    let spans = rec.spans();
    let events: Vec<TraceEvent> = tracer.snapshot();
    let h = split(&spans);
    let path = write_chrome_trace(input.kind.name(), &spans).map_err(|e| e.to_string())?;
    println!(
        "traced run: {} spans written to {}",
        spans.len(),
        path.display()
    );

    let report = &served.report;
    let hot = report.merged_hotloop();
    let scsd_host_s = report
        .units
        .iter()
        .map(|u| u.result.breakdown.scheduling_ms)
        .sum::<f64>()
        / 1e3;
    let output_tokens: u64 = report
        .records
        .iter()
        .map(|r| u64::from(r.output_tokens))
        .sum();
    let verify_steps: u64 = report.records.iter().map(|r| r.verify_steps).sum();
    let accepted: u64 = report.records.iter().map(|r| r.accepted_tokens).sum();
    let preemptions: u64 = report
        .records
        .iter()
        .map(|r| u64::from(r.preemptions))
        .sum();
    let fairness = match &input.scenario {
        Some(sw) => sw.fairness_report(report),
        None => {
            let rejected: Vec<u64> = report.rejected.iter().map(|(id, _)| *id).collect();
            FairnessReport::from_records(&report.records, 1, &rejected, |_| 0)
        }
    };
    let kv_peak_pct = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Gauge(g) => Some(g.kv_occupancy_pct),
            _ => None,
        })
        .fold(0.0, f64::max);
    let count =
        |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as f64;
    let kv_transfers = count(|k| matches!(k, EventKind::KvTransfer { .. }));
    let prefill_chunks = count(|k| matches!(k, EventKind::PrefillChunk { .. }));
    let sim = SloAttribution::from_events(&events).overall();
    let (cluster_self_s, disagg_self_s) = if input.kind == workloads::Kind::TenantsDisagg {
        (0.0, h.deploy_self_s)
    } else {
        (h.deploy_self_s, 0.0)
    };
    let self_sum_s =
        h.session_self_s + h.scenario_self_s + h.deploy_self_s + h.core_cover_s + h.route_cover_s;
    gate.require((self_sum_s - h.serve_s).abs() <= 0.05 * h.serve_s, || {
        format!(
            "layer self times sum to {self_sum_s:.4} s, traced serve took {:.4} s",
            h.serve_s
        )
    });
    let host = "host";
    let s = "sim";
    let per_step = |n: u64| n as f64 / h.core_steps.max(1) as f64;
    Ok(vec![
        Metric::new("core.steps", "count", s, h.core_steps as f64),
        Metric::new("core.step_busy_s", "s", host, h.core_busy_s),
        Metric::new("core.step_p50_us", "us", host, h.core_p50_us),
        Metric::new("core.step_p99_us", "us", host, h.core_p99_us),
        Metric::new("core.self_s", "s", host, h.core_cover_s),
        Metric::new("core.share_pct", "%", host, pct(h.core_cover_s, h.serve_s)),
        Metric::new("core.scsd_host_s", "s", host, scsd_host_s),
        Metric::new(
            "core.peak_decode_batch",
            "count",
            s,
            hot.peak_decode_batch as f64,
        ),
        Metric::new("core.tokens_per_step", "tok", s, per_step(output_tokens)),
        Metric::new(
            "core.accepted_per_verify",
            "tok",
            s,
            report.mean_accepted_per_verify(),
        ),
        Metric::new(
            "core.scratch_grow_per_step",
            "count",
            s,
            hot.allocs_per_iteration(),
        ),
        Metric::new(
            "simllm.dist_lookups",
            "count",
            s,
            (hot.dist_cache_hits + hot.dist_cache_misses) as f64,
        ),
        Metric::new("simllm.dist_hit_pct", "%", s, hot.dist_cache_hit_rate_pct()),
        Metric::new("spectree.verify_steps", "count", s, verify_steps as f64),
        Metric::new("spectree.accepted_tokens", "count", s, accepted as f64),
        Metric::new("cluster.self_s", "s", host, cluster_self_s),
        Metric::new(
            "cluster.share_pct",
            "%",
            host,
            pct(cluster_self_s, h.serve_s),
        ),
        Metric::new("cluster.route_calls", "count", s, h.route_calls as f64),
        Metric::new("cluster.route_busy_s", "s", host, h.route_busy_s),
        Metric::new("cluster.route_self_s", "s", host, h.route_cover_s),
        Metric::new("cluster.route_p99_us", "us", host, h.route_p99_us),
        Metric::new("deploy.step_calls", "count", s, h.deploy_step_calls as f64),
        Metric::new("deploy.step_p50_us", "us", host, h.deploy_step_p50_us),
        Metric::new("deploy.step_p99_us", "us", host, h.deploy_step_p99_us),
        Metric::new("exec.parallelism", "x", host, h.exec_parallelism),
        Metric::new("exec.idle_s", "s", host, h.exec_idle_s),
        Metric::new("exec.workers", "count", host, served.live_workers as f64),
        Metric::new("session.self_s", "s", host, h.session_self_s),
        Metric::new(
            "session.share_pct",
            "%",
            host,
            pct(h.session_self_s, h.serve_s),
        ),
        Metric::new(
            "session.offered",
            "count",
            s,
            input.workload.requests.len() as f64,
        ),
        Metric::new("session.finished", "count", s, report.records.len() as f64),
        Metric::new("session.rejected", "count", s, report.rejected.len() as f64),
        Metric::new(
            "session.retries",
            "count",
            s,
            report.retries_scheduled as f64,
        ),
        Metric::new("scenario.self_s", "s", host, h.scenario_self_s),
        Metric::new(
            "scenario.share_pct",
            "%",
            host,
            pct(h.scenario_self_s, h.serve_s),
        ),
        Metric::new(
            "scenario.worst_tenant_pct",
            "%",
            s,
            fairness.worst_attainment_pct(),
        ),
        Metric::new("scenario.tenant_spread_pct", "%", s, fairness.spread_pct()),
        Metric::new(
            "serving.prefix_lookups",
            "count",
            s,
            hot.prefix_lookups as f64,
        ),
        Metric::new("serving.prefix_hit_pct", "%", s, hot.prefix_hit_rate_pct()),
        Metric::new(
            "serving.prefill_tokens_saved",
            "tok",
            s,
            hot.prefill_tokens_saved as f64,
        ),
        Metric::new("serving.preemptions", "count", s, preemptions as f64),
        Metric::new("serving.kv_peak_pct", "%", s, kv_peak_pct),
        Metric::new("disagg.kv_transfers", "count", s, kv_transfers),
        Metric::new("disagg.prefill_chunks", "count", s, prefill_chunks),
        Metric::new("disagg.self_s", "s", host, disagg_self_s),
        Metric::new("disagg.share_pct", "%", host, pct(disagg_self_s, h.serve_s)),
        Metric::new("sim.queue_share_pct", "%", s, sim.queueing_pct),
        Metric::new("sim.prefill_share_pct", "%", s, sim.prefill_pct),
        Metric::new("sim.transfer_share_pct", "%", s, sim.transfer_pct),
        Metric::new("sim.decode_share_pct", "%", s, sim.decode_pct),
        Metric::new("sim.preempt_share_pct", "%", s, sim.preemption_pct),
        Metric::new("workload.gen_s", "s", host, median(&m.gen_s)),
        Metric::new("deploy.build_s", "s", host, median(&m.build_s)),
        Metric::new("trace.serve_s", "s", host, h.serve_s),
        Metric::new("trace.self_sum_pct", "%", host, pct(self_sum_s, h.serve_s)),
        Metric::new(
            "trace.overhead_pct",
            "%",
            host,
            pct(served.serve_s - untraced_s, untraced_s),
        ),
        Metric::new("trace.dropped", "count", host, dropped as f64),
    ])
}
