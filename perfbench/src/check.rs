//! The correctness gate: conservation, output lengths and a digest of
//! the served records.

use std::collections::HashMap;

use adaserve::serving::RunReport;
use adaserve::workload::Workload;

/// Checks that every offered request has exactly one terminal outcome
/// (finished or rejected) and that every finished request produced the
/// output length its spec asked for. Returns the number of requests that
/// break either rule, with a description of the first.
pub fn audit(workload: &Workload, report: &RunReport) -> (usize, Option<String>) {
    let mut outcomes: HashMap<u64, u32> = HashMap::new();
    for r in &report.records {
        *outcomes.entry(r.id).or_default() += 1;
    }
    for (id, _) in &report.rejected {
        *outcomes.entry(*id).or_default() += 1;
    }
    let mut bad = 0;
    let mut first = None;
    let mut flag = |why: String| {
        bad += 1;
        first.get_or_insert(why);
    };
    let specs: HashMap<u64, u32> = workload
        .requests
        .iter()
        .map(|s| (s.id, s.output_len))
        .collect();
    for spec in &workload.requests {
        match outcomes.get(&spec.id).copied().unwrap_or(0) {
            1 => {}
            n => flag(format!("request {} has {n} terminal outcomes", spec.id)),
        }
    }
    for id in outcomes.keys().filter(|id| !specs.contains_key(id)) {
        flag(format!("outcome for request {id} that was never offered"));
    }
    for r in &report.records {
        if let Some(&want) = specs.get(&r.id) {
            if r.output_tokens != want {
                flag(format!(
                    "request {} finished with {} output tokens, spec asked for {want}",
                    r.id, r.output_tokens
                ));
            }
        }
    }
    (bad, first)
}

/// FNV-1a digest of every field of every record (sorted by id) and of
/// the rejections: equal digests mean the runs served identically.
pub fn digest(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut records: Vec<_> = report.records.iter().collect();
    records.sort_by_key(|r| r.id);
    for r in records {
        eat(r.id);
        eat(r.category.index() as u64);
        for x in [
            r.tpot_slo_ms,
            r.ttft_slo_ms,
            r.arrival_ms,
            r.decode_start_ms,
            r.completion_ms,
        ] {
            eat(x.to_bits());
        }
        eat(u64::from(r.output_tokens));
        eat(r.accepted_tokens);
        eat(r.verify_steps);
        eat(u64::from(r.preemptions));
    }
    let mut rejected: Vec<u64> = report.rejected.iter().map(|(id, _)| *id).collect();
    rejected.sort_unstable();
    for id in rejected {
        eat(id ^ 0x5245_4a45_4354_4544);
    }
    h
}
