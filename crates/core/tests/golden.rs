//! Golden pin of the AdaServe engine's simulated output.
//!
//! Serves two fixed seeded workloads — a light load that keeps the adaptive
//! controller on deep, wide trees and a heavy one that pushes it to shallow,
//! narrow ones — and pins a digest of every completion record plus the
//! simulated clock. Host-side refactors of speculation, selection or
//! verification must leave these digests unchanged; a digest that moves
//! means the simulated results moved with it.

use adaserve_core::AdaServeEngine;
use serving::{Colocated, RunOptions, RunReport, ServeSession, ServingEngine, SystemConfig};
use workload::{Category, RequestSpec, Workload, WorkloadBuilder};

/// FNV-1a over 64-bit words: stable across platforms and releases.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of everything simulated in a report: each record's identity,
/// timestamps (bit patterns), token counts and preemptions, plus the end
/// clock, the iteration count and the modelled GPU time per phase. The
/// wall-clock `scheduling_ms` share is deliberately left out.
fn digest(report: &RunReport) -> u64 {
    let mut d = Digest::new();
    for r in &report.records {
        d.word(r.id);
        d.word(r.arrival_ms.to_bits());
        d.word(r.decode_start_ms.to_bits());
        d.word(r.completion_ms.to_bits());
        d.word(u64::from(r.output_tokens));
        d.word(r.accepted_tokens);
        d.word(r.verify_steps);
        d.word(u64::from(r.preemptions));
    }
    d.word(report.end_ms.to_bits());
    d.word(report.iterations);
    for unit in &report.units {
        let b = unit.result.breakdown;
        d.word(b.speculation_ms.to_bits());
        d.word(b.verification_ms.to_bits());
        d.word(b.prefill_ms.to_bits());
    }
    d.0
}

/// Serves `wl` on one Llama-70B-class replica; returns the report and the
/// engine (for its controller).
fn serve(wl: &Workload) -> (RunReport, AdaServeEngine) {
    let mut engine = AdaServeEngine::new(SystemConfig::llama70b(1));
    let report = ServeSession::with_options(
        Colocated::borrowed(&mut engine as &mut dyn ServingEngine),
        RunOptions::default(),
    )
    .serve(wl)
    .expect("run completes");
    assert_eq!(
        report.records.len(),
        wl.requests.len(),
        "every request served"
    );
    (report, engine)
}

/// Poisson arrivals of the paper's category mix at 1 rps for 8 s.
fn light_load() -> Workload {
    WorkloadBuilder::new(7, SystemConfig::llama70b(1).baseline_ms)
        .target_rps(1.0)
        .duration_ms(8_000.0)
        .build()
}

/// A burst of 72 short-prompt requests 2 ms apart, so the decode batch
/// grows large enough for the controller to cut the tree depth.
fn heavy_load() -> Workload {
    let categories = [
        Category::CodingCopilot,
        Category::Chatbot,
        Category::Summarization,
    ];
    let requests = (0..72u64)
        .map(|id| RequestSpec {
            id,
            category: categories[id as usize % 3],
            arrival_ms: id as f64 * 2.0,
            prompt_len: 24 + (id % 5) as u32 * 8,
            output_len: 24 + (id % 7) as u32 * 4,
            tpot_slo_ms: [30.0, 50.0, 150.0][id as usize % 3],
            ttft_slo_ms: 2_000.0,
            stream_seed: id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 11,
            prefix: None,
        })
        .collect();
    Workload {
        requests,
        description: "golden burst".into(),
    }
}

#[test]
fn adaserve_records_are_pinned_at_light_and_heavy_load() {
    let (light, light_engine) = serve(&light_load());
    let (heavy, heavy_engine) = serve(&heavy_load());

    // The two loads must exercise different speculation shapes, or the pin
    // would cover only one corner of the adaptive controller.
    let light_peak = light.units[0].result.hotloop.peak_decode_batch as usize;
    let heavy_peak = heavy.units[0].result.hotloop.peak_decode_batch as usize;
    let light_params = light_engine.scheduler().spec_params(1);
    let heavy_params = heavy_engine.scheduler().spec_params(heavy_peak);
    assert!(heavy_peak > light_peak, "{heavy_peak} vs {light_peak}");
    assert_ne!(light_params, heavy_params, "(d, w) must vary with load");

    assert_eq!(
        (digest(&light), digest(&heavy)),
        (LIGHT_DIGEST, HEAVY_DIGEST),
        "simulated AdaServe output changed"
    );
}

const LIGHT_DIGEST: u64 = 14_346_839_785_569_096_717;
const HEAVY_DIGEST: u64 = 468_078_252_816_135_212;
