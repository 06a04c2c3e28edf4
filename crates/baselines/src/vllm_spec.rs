//! vLLM with sequence speculative decoding (vLLM-Spec(k)).
//!
//! The paper's strongest baseline: continuous batching plus *static*
//! sequence speculation — every decoding request drafts a fixed-length
//! chain of `k` tokens per iteration, verified by the target model in one
//! batched pass. Static length is the crux of the comparison: it cannot
//! adapt to per-request SLOs (no prioritization) nor to load (at high RPS
//! the fixed chains flood the verifier; at low RPS they under-utilize it) —
//! the behaviour Figs. 8–12 demonstrate.

use crate::common;
use roofline::{ForwardPass, SeqWork};
use serving::{EngineCore, Phase, ServingEngine, StepResult, SystemConfig};
use spectree::{verify_tree, CandidatePool, SpecParams};

/// The vLLM-Spec(k) baseline engine.
#[derive(Debug)]
pub struct VllmSpecEngine {
    core: EngineCore,
    /// Fixed speculation length (the paper evaluates k ∈ {4, 6, 8}).
    spec_len: u32,
    /// Pooled draft chains.
    spec: CandidatePool,
}

impl VllmSpecEngine {
    /// Creates the engine with draft-chain length `spec_len`.
    ///
    /// # Panics
    ///
    /// Panics if `spec_len` is zero.
    pub fn new(config: SystemConfig, spec_len: u32) -> Self {
        assert!(spec_len >= 1);
        Self {
            core: EngineCore::new(config),
            spec_len,
            spec: CandidatePool::new(),
        }
    }
}

impl ServingEngine for VllmSpecEngine {
    fn name(&self) -> String {
        format!("vLLM-Spec({})", self.spec_len)
    }

    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        self.core.admit_fifo();
        if let Some(result) = common::full_prefill_pass(&mut self.core, now_ms) {
            return result;
        }

        // Reserve KV for the chain + bonus token per decoding request.
        let ids: Vec<u64> = self
            .core
            .running
            .iter()
            .filter(|r| r.phase == Phase::Decoding)
            .map(|r| r.spec.id)
            .collect();
        let mut surviving = Vec::with_capacity(ids.len());
        for &id in &ids {
            let Some(idx) = self.core.running.iter().position(|r| r.spec.id == id) else {
                continue;
            };
            if self
                .core
                .grow_with_preemption(idx, u64::from(self.spec_len) + 1)
            {
                surviving.push(id);
            } else {
                self.core.preempt(idx);
            }
        }
        surviving.retain(|&id| self.core.running.iter().any(|r| r.spec.id == id));
        if surviving.is_empty() {
            return StepResult { latency_ms: 1.0 };
        }
        let indices: Vec<usize> = surviving
            .iter()
            .map(|&id| {
                self.core
                    .running
                    .iter()
                    .position(|r| r.spec.id == id)
                    .expect("alive")
            })
            .collect();

        // ---- Draft: k sequential chain steps (width-1 beam). ----
        let params = SpecParams::new(self.spec_len, 1);
        let mut draft_ms = 0.0;
        {
            let mut step_pass = ForwardPass::default();
            for &i in &indices {
                step_pass.push(SeqWork::decode(self.core.running[i].context_len()));
            }
            // First step eager (shape change), rest replay captured graphs.
            draft_ms += self
                .core
                .config
                .testbed
                .draft
                .forward_latency_ms(&step_pass, false);
            if self.spec_len > 1 {
                let per = self
                    .core
                    .config
                    .testbed
                    .draft
                    .forward_latency_ms(&step_pass, true);
                draft_ms += per * f64::from(self.spec_len - 1);
            }
        }
        let chains = common::speculate(&mut self.spec, &self.core, &indices, params);
        self.core.breakdown.speculation_ms += draft_ms;

        // ---- Verify all chains in one batched pass. ----
        let mut pass = ForwardPass::default();
        for (k, &i) in indices.iter().enumerate() {
            pass.push(SeqWork::verify(
                chains[k].tree().num_speculated().max(1) as u32,
                self.core.running[i].context_len(),
            ));
        }
        let verify_ms = self
            .core
            .config
            .testbed
            .target
            .forward_latency_ms(&pass, true);
        self.core.breakdown.verification_ms += verify_ms;

        for (k, &i) in indices.iter().enumerate() {
            let outcome = {
                let r = &self.core.running[i];
                verify_tree(
                    self.core.config.pair.target(),
                    &r.lm_context(),
                    chains[k].tree(),
                    u64::from(r.generated()),
                    self.core.config.verify_mode,
                )
            };
            let r = &mut self.core.running[i];
            let remaining = r.remaining() as usize;
            let mut advanced = 0usize;
            for &tok in outcome.accepted_tokens.iter().take(remaining) {
                r.push_token(tok);
                advanced += 1;
            }
            if advanced < remaining {
                r.push_token(outcome.bonus_token);
            }
            self.core.speculated_total += chains[k].tree().num_speculated() as u64;
            self.core.accepted_total += advanced as u64;
            let r = &mut self.core.running[i];
            r.accepted_tokens += advanced as u64;
            r.verify_steps += 1;
        }

        let ms = draft_ms + verify_ms;
        self.core.collect_finished(now_ms + ms);
        StepResult { latency_ms: ms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_run as run;
    use serving::RunOptions;
    use workload::{Category, RequestSpec, Workload};

    fn workload(n: u64, category: Category) -> Workload {
        let requests = (0..n)
            .map(|id| RequestSpec {
                id,
                category,
                arrival_ms: id as f64 * 10.0,
                prompt_len: 24,
                output_len: 16,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x22,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "spec test".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = VllmSpecEngine::new(SystemConfig::llama70b(1), 4);
        let result = run(
            &mut engine,
            &workload(5, Category::Chatbot),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(result.records.len(), 5);
    }

    #[test]
    fn acceptance_is_in_published_range() {
        let mut engine = VllmSpecEngine::new(SystemConfig::llama70b(1), 4);
        let result = run(
            &mut engine,
            &workload(8, Category::Chatbot),
            RunOptions::default(),
        )
        .unwrap();
        assert!(
            result.mean_accepted_per_verify > 1.0 && result.mean_accepted_per_verify < 4.0,
            "mean accepted = {}",
            result.mean_accepted_per_verify
        );
    }

    #[test]
    fn speculation_beats_plain_decoding_on_tpot() {
        let wl = workload(4, Category::CodingCopilot);
        let spec = run(
            &mut VllmSpecEngine::new(SystemConfig::llama70b(1), 4),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let plain = run(
            &mut crate::vllm::VllmEngine::new(SystemConfig::llama70b(1)),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let mean_tpot = |res: &serving::RunResult| {
            res.records.iter().map(|r| r.avg_tpot_ms()).sum::<f64>() / res.records.len() as f64
        };
        assert!(
            mean_tpot(&spec) < mean_tpot(&plain),
            "spec {:.1} ms !< plain {:.1} ms",
            mean_tpot(&spec),
            mean_tpot(&plain)
        );
    }

    #[test]
    fn longer_chains_accept_more_per_verification() {
        let wl = workload(4, Category::Chatbot);
        let k4 = run(
            &mut VllmSpecEngine::new(SystemConfig::llama70b(1), 4),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let k8 = run(
            &mut VllmSpecEngine::new(SystemConfig::llama70b(1), 8),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert!(k8.mean_accepted_per_verify >= k4.mean_accepted_per_verify);
    }
}
