//! Iteration helpers shared by the baseline engines.

use roofline::{ForwardPass, SeqWork};
use serving::{EngineCore, Phase, StepResult};
use spectree::{BeamStop, CandidatePool, CandidateTree, SpecParams};

/// Builds the full `params` beam for each running request in `indices`
/// into the engine's `pool`; returns the trees in `indices` order.
pub(crate) fn speculate<'p>(
    pool: &'p mut CandidatePool,
    core: &EngineCore,
    indices: &[usize],
    params: SpecParams,
) -> &'p [CandidateTree] {
    let contexts = indices.iter().map(|&i| core.running[i].lm_context());
    pool.speculate(core.config.pair.draft(), contexts, params, BeamStop::NEVER)
}

/// Runs one whole-prompt prefill pass over every request in the prefill
/// phase (vLLM's prefill-prioritized iteration). Returns `None` if nothing
/// needs prefill.
pub fn full_prefill_pass(core: &mut EngineCore, now_ms: f64) -> Option<StepResult> {
    let plan = core.plan_prefill(u32::MAX);
    if plan.is_empty() {
        return None;
    }
    let mut pass = ForwardPass::default();
    for &(i, chunk) in &plan {
        pass.push(SeqWork::prefill(chunk, core.running[i].prefilled()));
    }
    let ms = core.config.testbed.target.forward_latency_ms(&pass, false);
    core.apply_prefill(&plan);
    core.breakdown.prefill_ms += ms;
    core.stamp_decode_starts(now_ms + ms);
    Some(StepResult { latency_ms: ms })
}

/// Runs one plain continuous-batching decode iteration over the requests
/// with the given ids (1 token each). Requests that get preempted while
/// making KV room are skipped. Returns the iteration latency (0.0 if no
/// request survived).
pub fn decode_iteration(core: &mut EngineCore, ids: &[u64], now_ms: f64) -> f64 {
    // Grow KV per request; growth may preempt others in `ids`.
    let mut surviving: Vec<u64> = Vec::with_capacity(ids.len());
    for &id in ids {
        let Some(idx) = core.running.iter().position(|r| r.spec.id == id) else {
            continue; // Preempted by an earlier growth in this loop.
        };
        if core.running[idx].phase != Phase::Decoding {
            continue;
        }
        if core.grow_with_preemption(idx, 1) {
            surviving.push(id);
        } else {
            core.preempt(idx);
        }
    }
    surviving.retain(|&id| core.running.iter().any(|r| r.spec.id == id));
    if surviving.is_empty() {
        return 0.0;
    }
    let mut pass = ForwardPass::default();
    for &id in &surviving {
        let idx = core
            .running
            .iter()
            .position(|r| r.spec.id == id)
            .expect("survives");
        pass.push(SeqWork::decode(core.running[idx].context_len()));
    }
    let ms = core.config.testbed.target.forward_latency_ms(&pass, true);
    for &id in &surviving {
        let idx = core
            .running
            .iter()
            .position(|r| r.spec.id == id)
            .expect("survives");
        let token = core.next_token(idx);
        let r = &mut core.running[idx];
        r.push_token(token);
        r.verify_steps += 1;
    }
    core.breakdown.verification_ms += ms;
    core.collect_finished(now_ms + ms);
    ms
}

/// Ids of all running requests currently decoding, in batch order.
pub fn decoding_ids(core: &EngineCore) -> Vec<u64> {
    core.running
        .iter()
        .filter(|r| r.phase == Phase::Decoding)
        .map(|r| r.spec.id)
        .collect()
}

/// Test-only front-door drive of one engine, shared by every baseline's
/// unit tests.
#[cfg(test)]
pub(crate) fn test_run(
    engine: &mut dyn serving::ServingEngine,
    workload: &workload::Workload,
    options: serving::RunOptions,
) -> Result<serving::RunResult, serving::RunError> {
    serving::ServeSession::with_options(serving::Colocated::borrowed(engine), options)
        .serve(workload)
        .map(serving::RunReport::into_colocated_result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::SystemConfig;
    use workload::{Category, RequestSpec};

    fn core_with(n: u64) -> EngineCore {
        let mut core = EngineCore::new(SystemConfig::llama70b(2));
        for id in 0..n {
            core.on_arrival(RequestSpec {
                id,
                category: Category::Chatbot,
                arrival_ms: 0.0,
                prompt_len: 16,
                output_len: 4,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id,
                prefix: None,
            });
        }
        core.admit_fifo();
        core
    }

    #[test]
    fn prefill_then_decode_completes_requests() {
        let mut core = core_with(2);
        let pre = full_prefill_pass(&mut core, 0.0).expect("prefill runs");
        assert!(pre.latency_ms > 0.0);
        assert!(full_prefill_pass(&mut core, 1.0).is_none(), "prefill done");
        let mut now = pre.latency_ms;
        for _ in 0..4 {
            let ids = decoding_ids(&core);
            assert_eq!(ids.len(), 2);
            let ms = decode_iteration(&mut core, &ids, now);
            assert!(ms > 0.0);
            now += ms;
        }
        assert_eq!(core.finished_count(), 2);
    }

    #[test]
    fn decode_iteration_with_no_ids_is_free() {
        let mut core = core_with(1);
        assert_eq!(decode_iteration(&mut core, &[], 0.0), 0.0);
    }
}
