//! SmartSpec-style goodput-optimized sequence speculation (related work
//! \[30\]; "adaptively tunes draft sequence lengths based on workload and
//! acceptance rates").
//!
//! Unlike vLLM-Spec's fixed chain length, this engine re-picks the length
//! `k` every iteration by maximizing modelled *goodput*: expected accepted
//! tokens per second given the observed per-position acceptance rate and
//! the roofline latency of drafting `k` steps plus verifying `k·n` tokens.
//! It adapts to load — but, like all the speculation baselines, it is
//! SLO-agnostic: every request gets the same `k`.

use crate::common;
use roofline::{ForwardPass, SeqWork};
use serving::{EngineCore, Phase, ServingEngine, StepResult, SystemConfig};
use spectree::{verify_tree, CandidatePool, SpecParams};

/// The SmartSpec-style baseline engine.
#[derive(Debug)]
pub struct SmartSpecEngine {
    core: EngineCore,
    /// Longest chain considered.
    max_len: u32,
    /// EMA of the per-position acceptance rate α.
    alpha: f64,
    /// Pooled draft chains.
    spec: CandidatePool,
}

impl SmartSpecEngine {
    /// Creates the engine (chains up to 8, α seeded at 0.7).
    pub fn new(config: SystemConfig) -> Self {
        Self {
            core: EngineCore::new(config),
            max_len: 8,
            alpha: 0.7,
            spec: CandidatePool::new(),
        }
    }

    /// Current acceptance-rate estimate.
    pub fn acceptance_estimate(&self) -> f64 {
        self.alpha
    }

    /// Expected accepted tokens (plus bonus) of a length-`k` chain under α.
    fn expected_advance(&self, k: u32) -> f64 {
        // 1 (bonus) + α + α² + … + α^k.
        let mut total = 1.0;
        let mut p = 1.0;
        for _ in 0..k {
            p *= self.alpha;
            total += p;
        }
        total
    }

    /// Picks the chain length maximizing modelled goodput for `n` requests
    /// at a representative context length.
    fn pick_len(&self, n: usize, ctx_len: u32) -> u32 {
        let mut best = (0u32, 0.0f64);
        for k in 1..=self.max_len {
            let draft_pass = ForwardPass::new(vec![
                SeqWork {
                    new_tokens: 1,
                    ctx_len
                };
                n
            ]);
            let draft_ms = self
                .core
                .config
                .testbed
                .draft
                .forward_latency_ms(&draft_pass, true)
                * f64::from(k);
            let verify_pass = ForwardPass::new(vec![SeqWork::verify(k, ctx_len); n]);
            let verify_ms = self
                .core
                .config
                .testbed
                .target
                .forward_latency_ms(&verify_pass, true);
            let goodput = n as f64 * self.expected_advance(k) / (draft_ms + verify_ms);
            if goodput > best.1 {
                best = (k, goodput);
            }
        }
        best.0.max(1)
    }
}

impl ServingEngine for SmartSpecEngine {
    fn name(&self) -> String {
        "SmartSpec".into()
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
        let mean_ctx = (self
            .core
            .running
            .iter()
            .filter(|r| r.phase == Phase::Decoding)
            .map(|r| u64::from(r.context_len()))
            .sum::<u64>()
            / ids.len() as u64) as u32;
        let k = self.pick_len(ids.len(), mean_ctx.max(1));

        // KV headroom, then draft + verify (chain speculation of length k).
        let mut surviving = Vec::with_capacity(ids.len());
        for &id in &ids {
            let Some(idx) = self.core.running.iter().position(|r| r.spec.id == id) else {
                continue;
            };
            if self.core.grow_with_preemption(idx, u64::from(k) + 1) {
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

        let params = SpecParams::new(k, 1);
        let mut step_pass = ForwardPass::default();
        for &i in &indices {
            step_pass.push(SeqWork::decode(self.core.running[i].context_len()));
        }
        let mut draft_ms = self
            .core
            .config
            .testbed
            .draft
            .forward_latency_ms(&step_pass, false);
        if k > 1 {
            draft_ms += self
                .core
                .config
                .testbed
                .draft
                .forward_latency_ms(&step_pass, true)
                * f64::from(k - 1);
        }
        let chains = common::speculate(&mut self.spec, &self.core, &indices, params);
        self.core.breakdown.speculation_ms += draft_ms;

        let mut pass = ForwardPass::default();
        for (c, &i) in indices.iter().enumerate() {
            pass.push(SeqWork::verify(
                chains[c].tree().num_speculated().max(1) as u32,
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

        let mut accepted_sum = 0u64;
        let mut positions = 0u64;
        for (c, &i) in indices.iter().enumerate() {
            let outcome = {
                let r = &self.core.running[i];
                verify_tree(
                    self.core.config.pair.target(),
                    &r.lm_context(),
                    chains[c].tree(),
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
            accepted_sum += advanced as u64;
            positions += u64::from(k);
            self.core.speculated_total += chains[c].tree().num_speculated() as u64;
            self.core.accepted_total += advanced as u64;
            let r = &mut self.core.running[i];
            r.accepted_tokens += advanced as u64;
            r.verify_steps += 1;
        }
        // Update the acceptance estimate (per-position rate).
        if positions > 0 {
            let observed = accepted_sum as f64 / positions as f64;
            self.alpha = (0.9 * self.alpha + 0.1 * observed).clamp(0.05, 0.98);
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
                category: Category::Chatbot,
                arrival_ms: id as f64 * 10.0,
                prompt_len: 24,
                output_len: 16,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x5A,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "smartspec".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = SmartSpecEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &workload(6), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 6);
        assert!(result.mean_accepted_per_verify > 0.5);
    }

    #[test]
    fn acceptance_estimate_converges_into_plausible_range() {
        let mut engine = SmartSpecEngine::new(SystemConfig::llama70b(1));
        let _ = run(&mut engine, &workload(10), RunOptions::default()).unwrap();
        let alpha = engine.acceptance_estimate();
        assert!((0.3..=0.95).contains(&alpha), "alpha = {alpha}");
    }

    #[test]
    fn picks_longer_chains_at_light_load() {
        let engine = SmartSpecEngine::new(SystemConfig::llama70b(1));
        let k_light = engine.pick_len(1, 512);
        let k_heavy = engine.pick_len(200, 512);
        assert!(k_light >= k_heavy, "light {k_light} !>= heavy {k_heavy}");
    }
}
