//! Simulated-clock end-to-end metrics of one served run. They depend
//! only on the seed, so they repeat exactly run to run.

use adaserve::metrics::{percentile, RequestRecord};
use adaserve::serving::RunReport;
use adaserve::workload::Workload;

/// The simulated-clock view of one run, over *offered* requests.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    pub offered: usize,
    pub finished: usize,
    pub rejected: usize,
    /// Output tokens of every finished request.
    pub output_tokens: u64,
    /// TPOT-SLO attainment; a rejection counts as a miss.
    pub slo_attainment_pct: f64,
    /// TTFT-SLO attainment; a rejection counts as a miss.
    pub ttft_attainment_pct: f64,
    /// Output tokens of requests meeting both SLOs per simulated second.
    pub goodput_tok_s: f64,
    /// TTFT from each request's due (arrival) time.
    pub ttft_p50_ms: f64,
    pub ttft_p99_ms: f64,
    /// Per-request mean TPOT.
    pub tpot_p50_ms: f64,
    pub tpot_p99_ms: f64,
    /// Offered requests that finished.
    pub served_pct: f64,
}

impl SimMetrics {
    /// Metrics over every part of a workload together: each part is an
    /// independent draw, so pooling them is one longer sample.
    pub fn of(parts: &[(&Workload, &RunReport)]) -> Self {
        let offered: usize = parts.iter().map(|(w, _)| w.requests.len()).sum();
        let records: Vec<&RequestRecord> = parts.iter().flat_map(|(_, r)| &r.records).collect();
        let pct = |n: usize| 100.0 * n as f64 / offered.max(1) as f64;
        // Simulated seconds from each part's first arrival to its last
        // completion, summed over parts.
        let span_s: f64 = parts
            .iter()
            .map(|(w, r)| {
                let first = w
                    .requests
                    .iter()
                    .map(|s| s.arrival_ms)
                    .fold(f64::INFINITY, f64::min);
                let last = r
                    .records
                    .iter()
                    .map(|r| r.completion_ms)
                    .fold(first, f64::max);
                (last - first) / 1e3
            })
            .sum::<f64>()
            .max(1e-9);
        let good_tokens: u64 = records
            .iter()
            .filter(|r| r.attained() && r.ttft_attained())
            .map(|r| u64::from(r.output_tokens))
            .sum();
        let ttft: Vec<f64> = records.iter().map(|r| r.ttft_ms()).collect();
        let tpot: Vec<f64> = records.iter().map(|r| r.avg_tpot_ms()).collect();
        Self {
            offered,
            finished: records.len(),
            rejected: parts.iter().map(|(_, r)| r.rejected.len()).sum(),
            output_tokens: records.iter().map(|r| u64::from(r.output_tokens)).sum(),
            slo_attainment_pct: pct(records.iter().filter(|r| r.attained()).count()),
            ttft_attainment_pct: pct(records.iter().filter(|r| r.ttft_attained()).count()),
            goodput_tok_s: good_tokens as f64 / span_s,
            ttft_p50_ms: percentile(&ttft, 50.0),
            ttft_p99_ms: percentile(&ttft, 99.0),
            tpot_p50_ms: percentile(&tpot, 50.0),
            tpot_p99_ms: percentile(&tpot, 99.0),
            served_pct: pct(records.len()),
        }
    }
}
