//! The benchmark's own tests: the shims must not change what is served,
//! and the correctness gate must catch broken records.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::HashSet;

use adaserve::metrics::telemetry::Tracer;

use crate::check;
use crate::layers::{intersect, union};
use crate::shim::{Layer, Recorder};
use crate::workloads::{self, Input, Kind, RunSpec, Served};

/// A short slice of part 0 of `kind`, small enough for a debug build.
fn small(kind: Kind) -> Input {
    workloads::shrink(workloads::generate(kind, 11, 0), 80)
}

fn serve(input: &Input, spec: &RunSpec) -> Served {
    workloads::serve(input, spec).expect("the small workload serves")
}

fn shimmed(tracer: bool) -> (RunSpec, Recorder) {
    let rec = Recorder::new();
    let spec = RunSpec {
        exec: None,
        shims: Some(rec.clone()),
        tracer: tracer.then(|| Tracer::ring(1 << 20)),
    };
    (spec, rec)
}

#[test]
fn shimmed_and_unshimmed_records_are_equal_on_every_shape() {
    for kind in Kind::ALL {
        let input = small(kind);
        let plain = serve(&input, &RunSpec::default()).report;
        assert_eq!(check::audit(&input.workload, &plain).0, 0, "{kind:?}");
        for tracer in [false, true] {
            let (spec, _rec) = shimmed(tracer);
            let shim = serve(&input, &spec).report;
            assert_eq!(plain.records, shim.records, "{kind:?} tracer={tracer}");
            assert_eq!(plain.rejected, shim.rejected, "{kind:?} tracer={tracer}");
            assert_eq!(plain.retries_scheduled, shim.retries_scheduled, "{kind:?}");
            assert_eq!(
                plain.merged_hotloop().prefix_hits,
                shim.merged_hotloop().prefix_hits
            );
            assert_eq!(check::digest(&plain), check::digest(&shim));
        }
    }
}

/// The defaulted `Deployment` methods reach the wrapped deployment: a
/// shim that fell back to a default would record no span for them one
/// level down.
#[test]
fn shims_forward_the_defaulted_deployment_methods() {
    let ops = |rec: &Recorder, layer: Layer| -> HashSet<&'static str> {
        rec.spans()
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.op)
            .collect()
    };

    let (spec, rec) = shimmed(true);
    serve(&small(Kind::FleetSparse), &spec);
    let cluster = ops(&rec, Layer::Cluster);
    for op in ["step_until", "cached_prefix_tokens", "set_tracer", "gauges"] {
        assert!(cluster.contains(op), "cluster never saw {op}: {cluster:?}");
    }

    let (spec, rec) = shimmed(true);
    let served = serve(&small(Kind::TenantsDisagg), &spec);
    assert!(
        served.report.retries_scheduled > 0,
        "the crashes lost no work"
    );
    let inner = ops(&rec, Layer::Disagg);
    for op in [
        "cached_prefix_tokens",
        "set_tracer",
        "gauges",
        "inject_fault",
        "clear_fault",
    ] {
        assert!(inner.contains(op), "disagg never saw {op}: {inner:?}");
    }
    // The session batch-steps the front door, which keeps the default
    // `step_until` and steps its inner deployment one event at a time.
    assert!(ops(&rec, Layer::Scenario).contains("step_until"));
    assert!(inner.contains("step") && !inner.contains("step_until"));
}

#[test]
fn the_sequential_executor_serves_the_same_records() {
    let input = small(Kind::FleetSparse);
    let sharded = serve(&input, &RunSpec::default()).report;
    let spec = RunSpec {
        exec: Some(adaserve::serving::ExecMode::Sequential),
        ..RunSpec::default()
    };
    let sequential = serve(&input, &spec).report;
    assert_eq!(check::digest(&sharded), check::digest(&sequential));
}

#[test]
fn the_gate_catches_lost_duplicated_and_short_records() {
    let input = small(Kind::PaperMix);
    let good = serve(&input, &RunSpec::default()).report;
    assert_eq!(check::audit(&input.workload, &good), (0, None));

    let mut lost = good.clone();
    lost.records.pop();
    assert_eq!(check::audit(&input.workload, &lost).0, 1);
    assert_ne!(check::digest(&lost), check::digest(&good));

    let mut duplicated = good.clone();
    duplicated.records.push(good.records[0].clone());
    assert_eq!(check::audit(&input.workload, &duplicated).0, 1);

    let mut short = good.clone();
    short.records[3].output_tokens -= 1;
    assert_eq!(check::audit(&input.workload, &short).0, 1);
    assert_ne!(check::digest(&short), check::digest(&good));

    let mut late = good.clone();
    late.records[5].completion_ms += 1e-9;
    assert_eq!(check::audit(&input.workload, &late).0, 0);
    assert_ne!(check::digest(&late), check::digest(&good));
}

#[test]
fn workloads_repeat_per_seed_and_offer_enough_requests() {
    for kind in Kind::ALL {
        let a = workloads::generate(kind, 5, 1);
        let b = workloads::generate(kind, 5, 1);
        assert_eq!(a.workload.requests, b.workload.requests, "{kind:?}");
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.workload.requests.len(), workloads::REQUESTS);
        let other = workloads::generate(kind, 5, 2);
        assert_ne!(a.workload.requests, other.workload.requests, "{kind:?}");
    }
}

#[test]
fn interval_union_and_intersection() {
    let a = union(vec![(5, 9), (0, 2), (1, 3), (8, 10)]);
    assert_eq!(a, vec![(0, 3), (5, 10)]);
    let b = union(vec![(2, 6), (9, 12)]);
    assert_eq!(intersect(&a, &b), vec![(2, 3), (5, 6), (9, 10)]);
    assert!(intersect(&a, &Vec::new()).is_empty());
}
