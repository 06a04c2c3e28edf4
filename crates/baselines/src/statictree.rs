//! Sequoia-style static *tree* speculation (related work \[9\]).
//!
//! Sequoia picks one hardware-aware tree topology offline and uses it for
//! every request and every iteration. This engine reproduces that policy on
//! the shared substrate: each decoding request speculates a fixed
//! `(depth, width)` beam tree and the whole candidate tree is verified —
//! no per-request selection, no SLO awareness, no load adaptation. It sits
//! between vLLM-Spec (chains) and AdaServe (SLO-customized trees) in the
//! design space and is used by the ablation harness.

use crate::common;
use roofline::{ForwardPass, SeqWork};
use serving::{EngineCore, Phase, ServingEngine, StepResult, SystemConfig};
use spectree::{verify_tree, CandidatePool, SpecParams};

/// The static-tree speculation baseline engine.
#[derive(Debug)]
pub struct StaticTreeEngine {
    core: EngineCore,
    params: SpecParams,
    spec: CandidatePool,
}

impl StaticTreeEngine {
    /// Creates the engine with a fixed `(depth, width)` topology.
    pub fn new(config: SystemConfig, depth: u32, width: u32) -> Self {
        Self {
            core: EngineCore::new(config),
            params: SpecParams::new(depth, width),
            spec: CandidatePool::new(),
        }
    }
}

impl ServingEngine for StaticTreeEngine {
    fn name(&self) -> String {
        format!("StaticTree({},{})", self.params.depth, self.params.width)
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
        let ids: Vec<u64> = self
            .core
            .running
            .iter()
            .filter(|r| r.phase == Phase::Decoding)
            .map(|r| r.spec.id)
            .collect();
        if ids.is_empty() {
            return StepResult { latency_ms: 1.0 };
        }
        let mut surviving = Vec::with_capacity(ids.len());
        for &id in &ids {
            let Some(idx) = self.core.running.iter().position(|r| r.spec.id == id) else {
                continue;
            };
            if self
                .core
                .grow_with_preemption(idx, u64::from(self.params.depth) + 1)
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

        // Draft the full static tree for every request.
        let mut first = ForwardPass::default();
        for &i in &indices {
            first.push(SeqWork::decode(self.core.running[i].context_len()));
        }
        let mut draft_ms = self
            .core
            .config
            .testbed
            .draft
            .forward_latency_ms(&first, false);
        if self.params.depth > 1 {
            let mut rest = ForwardPass::default();
            for &i in &indices {
                rest.push(SeqWork {
                    new_tokens: self.params.width,
                    ctx_len: self.core.running[i].context_len(),
                });
            }
            draft_ms += self
                .core
                .config
                .testbed
                .draft
                .forward_latency_ms(&rest, true)
                * f64::from(self.params.depth - 1);
        }
        let trees = common::speculate(&mut self.spec, &self.core, &indices, self.params);
        self.core.breakdown.speculation_ms += draft_ms;

        let mut pass = ForwardPass::default();
        for (c, &i) in indices.iter().enumerate() {
            pass.push(SeqWork::verify(
                trees[c].tree().num_speculated().max(1) as u32,
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

        for (c, &i) in indices.iter().enumerate() {
            let outcome = {
                let r = &self.core.running[i];
                verify_tree(
                    self.core.config.pair.target(),
                    &r.lm_context(),
                    trees[c].tree(),
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
            self.core.speculated_total += trees[c].tree().num_speculated() as u64;
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

    fn workload(n: u64) -> Workload {
        let requests = (0..n)
            .map(|id| RequestSpec {
                id,
                category: Category::CodingCopilot,
                arrival_ms: id as f64 * 10.0,
                prompt_len: 24,
                output_len: 16,
                tpot_slo_ms: 30.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x91,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "static tree".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = StaticTreeEngine::new(SystemConfig::llama70b(1), 4, 2);
        let result = run(&mut engine, &workload(5), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 5);
    }

    #[test]
    fn trees_accept_more_than_chains_of_equal_depth() {
        // Width > 1 covers sibling continuations, so acceptance per
        // verification should not be below the width-1 chain's.
        let wl = workload(6);
        let tree = run(
            &mut StaticTreeEngine::new(SystemConfig::llama70b(1), 4, 3),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let chain = run(
            &mut crate::vllm_spec::VllmSpecEngine::new(SystemConfig::llama70b(1), 4),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert!(
            tree.mean_accepted_per_verify >= chain.mean_accepted_per_verify - 0.05,
            "tree {:.2} vs chain {:.2}",
            tree.mean_accepted_per_verify,
            chain.mean_accepted_per_verify
        );
    }
}
