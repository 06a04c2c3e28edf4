//! [`AdaServeEngine`]: the full serving engine (paper Fig. 6).
//!
//! Each decoding iteration runs the four-step pipeline of §4.3:
//!
//! 1. **Speculation** — the draft model builds a beam-search candidate tree
//!    per decoding request (depth/width from the adaptive controller);
//! 2. **SLO-customized selection** — tokens are selected per request until
//!    its `A_cap(r)` is reached (slowest requests first, `n_max` capped);
//! 3. **Throughput-optimized selection** — the remaining verification budget
//!    goes to the globally most probable candidates;
//! 4. **Verification** — the target model verifies every draft tree in one
//!    batched pass (co-batched with chunked prefill of incoming prompts).
//!
//! Speculation and verification are charged to the (modelled) GPU; selection
//! is real CPU work measured with a wall-clock timer (reproducing the
//! paper's Fig. 15 overhead claim on *this* implementation).

use crate::scheduler::SloCustomizedScheduler;
use crate::scsd::{select_tokens_with, selectable_prefix, ScsdInput, ScsdScratch};
use roofline::{BudgetPolicy, ForwardPass, SeqWork, TokenBudgetProfile};
use serving::{EngineCore, Phase, ServingEngine, StepResult, SystemConfig};
use spectree::{
    verify_tree_with, CandidatePool, SpecParams, SubtreeScratch, TokenTree, VerifyScratch,
};
use std::collections::HashMap;
use std::time::Instant;

/// Tunables of the AdaServe engine (defaults follow the paper).
#[derive(Debug, Clone, Copy)]
pub struct AdaServeOptions {
    /// How the verification token budget is derived from profiling.
    pub budget_policy: BudgetPolicy,
    /// Per-request cap during SLO-customized selection (`n_max`).
    pub n_max: usize,
    /// Adaptive `(d, w)` control (eq. 8–9); false = fixed parameters.
    pub adaptive: bool,
    /// Fixed parameters used when `adaptive` is false.
    pub static_params: SpecParams,
    /// Prompt tokens co-batched with each verification pass (chunked
    /// prefill in the style of Sarathi-Serve / FlashInfer batched prefill).
    pub prefill_chunk: u32,
    /// Enable the SLO-customized selection phase (false = throughput-only,
    /// for ablations).
    pub slo_selection: bool,
    /// Marginal-utility cutoff for throughput-phase selection (see
    /// [`crate::scsd::ScsdInput::min_phase2_prob`]).
    pub min_phase2_prob: f64,
}

impl Default for AdaServeOptions {
    fn default() -> Self {
        Self {
            budget_policy: BudgetPolicy::LatencyStretch(2.5),
            n_max: 8,
            adaptive: true,
            static_params: SpecParams::new(4, 2),
            prefill_chunk: 128,
            slo_selection: true,
            min_phase2_prob: 0.08,
        }
    }
}

/// Iteration-scoped scratch state, hoisted out of [`AdaServeEngine::step`]
/// so the hot loop reuses buffers instead of reallocating them every
/// iteration (candidate trees, selections, requirement vectors, the
/// request-position map of the capacity pass).
#[derive(Debug, Default)]
struct IterScratch {
    /// Surviving decoding indices of the current iteration.
    decoding: Vec<usize>,
    /// Request-id worklist of the capacity pass.
    ids: Vec<u64>,
    /// Ids that kept their KV reservation.
    surviving: Vec<u64>,
    /// Lazily rebuilt id → running-index map (invalidated by preemption).
    positions: HashMap<u64, usize>,
    /// Per-request `A_cap` requirements.
    requirements: Vec<f64>,
    /// Selection working state (candidate orders, counters, heap).
    scsd: ScsdScratch,
    /// Pooled candidate trees and beam-search buffers.
    spec: CandidatePool,
    /// Subtree-extraction buffers (kept-id sort, dense remap).
    subtree: SubtreeScratch,
    /// Verification-walk buffers (extended context, path tokens).
    verify: VerifyScratch,
    /// Pooled selected draft trees (rebuilt in place each iteration).
    draft_trees: Vec<TokenTree>,
    /// Iterations in which any buffer above grew its allocation.
    grow_events: u64,
}

impl IterScratch {
    /// Sum of tracked buffer capacities (allocation-discipline probe),
    /// including the pooled tree arenas — so a regression that breaks
    /// `TokenTree::reset` pooling shows up in `scratch_grow_events`.
    fn capacity_sum(&self) -> usize {
        self.decoding.capacity()
            + self.ids.capacity()
            + self.surviving.capacity()
            + self.positions.capacity()
            + self.requirements.capacity()
            + self.scsd.capacity_sum()
            + self.subtree.capacity_sum()
            + self.verify.capacity_sum()
            + self.spec.trees_capacity_sum()
            + self.draft_trees.capacity()
            + self
                .draft_trees
                .iter()
                .map(TokenTree::arena_capacity)
                .sum::<usize>()
    }
}

/// The AdaServe serving engine.
#[derive(Debug)]
pub struct AdaServeEngine {
    core: EngineCore,
    scheduler: SloCustomizedScheduler,
    options: AdaServeOptions,
    profile: TokenBudgetProfile,
    scratch: IterScratch,
}

impl AdaServeEngine {
    /// Creates an engine with default options.
    pub fn new(config: SystemConfig) -> Self {
        Self::with_options(config, AdaServeOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(config: SystemConfig, options: AdaServeOptions) -> Self {
        let profile = TokenBudgetProfile::profile(
            &config.testbed.target,
            &config.testbed.draft,
            512,
            options.budget_policy,
        );
        let mut scheduler = SloCustomizedScheduler::from_profile(&profile, config.baseline_ms);
        scheduler.n_max = options.n_max;
        scheduler.adaptive = options.adaptive;
        scheduler.static_params = options.static_params;
        scheduler.slo_selection = options.slo_selection;
        Self {
            core: EngineCore::new(config),
            scheduler,
            options,
            profile,
            scratch: IterScratch::default(),
        }
    }

    /// The hardware profile in use (budgets, latencies).
    pub fn profile(&self) -> &TokenBudgetProfile {
        &self.profile
    }

    /// The scheduler (exposed for tests and ablations).
    pub fn scheduler(&self) -> &SloCustomizedScheduler {
        &self.scheduler
    }

    /// Mutable scheduler access (tuning and ablations).
    pub fn scheduler_mut(&mut self) -> &mut SloCustomizedScheduler {
        &mut self.scheduler
    }

    /// Ensures KV headroom for every decoding request (context + d + 1
    /// tokens), preempting later-admitted requests on pressure. Fills
    /// `self.scratch.decoding` with the surviving decoding indices
    /// (stable order).
    ///
    /// Works by request id because preemption inside the loop reshuffles
    /// indices — but resolves ids through a position map that is only
    /// rebuilt when a preemption actually changed the batch, so the
    /// common (no-pressure) iteration is O(n) instead of the old
    /// O(n²) `position()`-per-id scan.
    fn ensure_decode_capacity(&mut self, depth: u32) {
        let scratch = &mut self.scratch;
        scratch.ids.clear();
        scratch.ids.extend(
            self.core
                .running
                .iter()
                .filter(|r| r.phase == Phase::Decoding)
                .map(|r| r.spec.id),
        );
        let rebuild = |positions: &mut HashMap<u64, usize>, core: &EngineCore| {
            positions.clear();
            positions.extend(core.running.iter().enumerate().map(|(i, r)| (r.spec.id, i)));
        };
        rebuild(&mut scratch.positions, &self.core);
        let mut map_len = self.core.running.len();
        scratch.surviving.clear();
        for &id in &scratch.ids {
            if self.core.running.len() != map_len {
                // A preemption (victim or self) shrank the batch: the map
                // is stale, rebuild it once before the next lookup.
                rebuild(&mut scratch.positions, &self.core);
                map_len = self.core.running.len();
            }
            let Some(&idx) = scratch.positions.get(&id) else {
                continue; // Preempted as a victim of an earlier growth.
            };
            if self.core.grow_with_preemption(idx, u64::from(depth) + 1) {
                scratch.surviving.push(id);
            } else {
                // Could not fit even alone: preempt self and retry later.
                // The failed growth evicted every other request, shifting
                // this one's position — re-resolve by id, never by the
                // stale index.
                if let Some(pos) = self.core.running.iter().position(|r| r.spec.id == id) {
                    self.core.preempt(pos);
                }
            }
        }
        if self.core.running.len() != map_len {
            rebuild(&mut scratch.positions, &self.core);
        }
        scratch.decoding.clear();
        scratch.decoding.extend(
            scratch
                .surviving
                .iter()
                .filter_map(|id| scratch.positions.get(id).copied()),
        );
    }

    /// One pure-prefill pass over waiting prompts (no decoding requests).
    fn prefill_only_step(&mut self, now_ms: f64) -> StepResult {
        let plan = self.core.plan_prefill(self.options.prefill_chunk.max(2048));
        if plan.is_empty() {
            // Admitted nothing and nothing to prefill: idle tick.
            return StepResult { latency_ms: 1.0 };
        }
        let mut pass = ForwardPass::default();
        for &(i, chunk) in &plan {
            pass.push(SeqWork::prefill(chunk, self.core.running[i].prefilled()));
        }
        let ms = self
            .core
            .config
            .testbed
            .target
            .forward_latency_ms(&pass, false);
        self.core.apply_prefill(&plan);
        self.core.breakdown.prefill_ms += ms;
        self.core.stamp_decode_starts(now_ms + ms);
        StepResult { latency_ms: ms }
    }
}

impl ServingEngine for AdaServeEngine {
    fn name(&self) -> String {
        "AdaServe".into()
    }

    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        self.core.admit_fifo();

        // Adaptive parameters from the decoding population.
        let n_decoding = self
            .core
            .running
            .iter()
            .filter(|r| r.phase == Phase::Decoding)
            .count();
        if n_decoding == 0 {
            return self.prefill_only_step(now_ms);
        }
        let mut params = self.scheduler.spec_params(n_decoding);
        if self.core.degraded {
            // Graceful degradation under recovery pressure: shed the
            // speculation tree down to plain decoding (depth 1 emits the
            // one committed token per iteration, no drafts) so compute
            // goes to catching up retried requests, not to gambles.
            params = SpecParams::new(1, 1);
        }

        // Snapshot before the capacity pass so its scratch growth (id
        // worklist, position map) counts toward the discipline probe too.
        let cap_before = self.scratch.capacity_sum();

        // Capacity first so the decoding set is stable for the iteration.
        self.ensure_decode_capacity(params.depth);
        if self.scratch.decoding.is_empty() {
            return self.prefill_only_step(now_ms);
        }
        let n = self.scratch.decoding.len();

        // ---- Step 1: speculation (draft model, GPU). ----
        let mut draft_ms = 0.0;
        {
            // First step: all roots (shape changes iteration to iteration →
            // eager); steps 2..d: n×w tokens with stable shapes → CUDA graph
            // (paper §5.2).
            let mut first = ForwardPass::default();
            for &i in &self.scratch.decoding {
                first.push(SeqWork::decode(self.core.running[i].context_len()));
            }
            draft_ms += self
                .core
                .config
                .testbed
                .draft
                .forward_latency_ms(&first, false);
            if params.depth > 1 {
                let mut rest = ForwardPass::default();
                for &i in &self.scratch.decoding {
                    rest.push(SeqWork {
                        new_tokens: params.width,
                        ctx_len: self.core.running[i].context_len(),
                    });
                }
                let per_step = self
                    .core
                    .config
                    .testbed
                    .draft
                    .forward_latency_ms(&rest, true);
                draft_ms += per_step * f64::from(params.depth - 1);
            }
        }
        {
            // Beam search per request into the pooled candidate trees —
            // arena, layer list and beam buffers all reused. Only the
            // prefix selection can read is built; the draft cost above
            // still prices the whole beam.
            let running = &self.core.running;
            self.scratch.spec.speculate(
                self.core.config.pair.draft(),
                self.scratch
                    .decoding
                    .iter()
                    .map(|&i| running[i].lm_context()),
                params,
                selectable_prefix(self.scheduler.n_max, self.options.min_phase2_prob),
            );
        }
        self.core.breakdown.speculation_ms += draft_ms;

        // ---- Steps 2–3: selection (CPU, wall-clock measured). ----
        let sched_timer = Instant::now();
        {
            let scratch = &mut self.scratch;
            self.scheduler.requirements_into(
                scratch.decoding.iter().map(|&i| &self.core.running[i]),
                now_ms,
                params.depth,
                &mut scratch.requirements,
            );
            let candidates = scratch.spec.trees();
            let budget = self.scheduler.verify_budget.saturating_sub(n as u64); // roots
            select_tokens_with(
                &ScsdInput {
                    candidates,
                    requirements: &scratch.requirements,
                    budget,
                    n_max: self.scheduler.n_max,
                    min_phase2_prob: self.options.min_phase2_prob,
                },
                &mut scratch.scsd,
            );
            if scratch.draft_trees.len() < n {
                scratch
                    .draft_trees
                    .resize_with(n, || TokenTree::new(simllm::TokenId(0)));
            }
            for (k, cand) in candidates.iter().enumerate() {
                cand.tree()
                    .induced_subtree_into(
                        &scratch.scsd.ordered[k][..scratch.scsd.taken[k]],
                        &mut scratch.draft_trees[k],
                        &mut scratch.subtree,
                    )
                    .expect("connected selection");
            }
        }
        self.core.breakdown.scheduling_ms += sched_timer.elapsed().as_secs_f64() * 1e3;

        // ---- Step 4: verification (target model, GPU), co-batched with
        // chunked prefill. ----
        let draft_trees = &self.scratch.draft_trees;
        let prefill_plan = self.core.plan_prefill(self.options.prefill_chunk);
        let mut pass = ForwardPass::default();
        for (k, &i) in self.scratch.decoding.iter().enumerate() {
            let tree_tokens = draft_trees[k].num_speculated().max(1) as u32;
            pass.push(SeqWork::verify(
                tree_tokens,
                self.core.running[i].context_len(),
            ));
        }
        for &(i, chunk) in &prefill_plan {
            pass.push(SeqWork::prefill(chunk, self.core.running[i].prefilled()));
        }
        let cobatched = !prefill_plan.is_empty();
        let verify_ms = self
            .core
            .config
            .testbed
            .target
            .forward_latency_ms(&pass, !cobatched);
        self.core.breakdown.verification_ms += verify_ms;

        // Apply verification outcomes against the synthetic target model.
        for (k, &i) in self.scratch.decoding.iter().enumerate() {
            let outcome = {
                let r = &self.core.running[i];
                verify_tree_with(
                    self.core.config.pair.target(),
                    &r.lm_context(),
                    &draft_trees[k],
                    u64::from(r.generated()),
                    self.core.config.verify_mode,
                    &mut self.scratch.verify,
                )
            };
            let num_speculated = draft_trees[k].num_speculated() as u64;
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
            self.core.speculated_total += num_speculated;
            self.core.accepted_total += advanced as u64;
            let r = &mut self.core.running[i];
            r.accepted_tokens += advanced as u64;
            r.verify_steps += 1;
        }
        self.core.apply_prefill(&prefill_plan);

        // Hot-loop health counters: cache effectiveness and allocation
        // discipline, surfaced through `RunResult`/`UnitStats`.
        if self.scratch.capacity_sum() > cap_before {
            self.scratch.grow_events += 1;
        }
        let cache = self.core.config.pair.dist_cache_stats();
        self.core.hotloop.dist_cache_hits = cache.hits;
        self.core.hotloop.dist_cache_misses = cache.misses;
        self.core.hotloop.scratch_grow_events =
            self.scratch.grow_events + self.scratch.spec.scratch_grow_events();
        self.core.hotloop.iterations += 1;
        self.core.hotloop.peak_decode_batch = self.core.hotloop.peak_decode_batch.max(n as u64);

        let iter_ms = draft_ms + verify_ms;
        self.scheduler.observe_iteration(iter_ms);
        self.core.stamp_decode_starts(now_ms + iter_ms);
        self.core.collect_finished(now_ms + iter_ms);
        StepResult {
            latency_ms: iter_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::{Colocated, RunOptions, RunReport, ServeSession, ServingEngine};
    use workload::{Category, RequestSpec, Workload, WorkloadBuilder};

    /// Front-door drive of one engine.
    fn run(engine: &mut dyn ServingEngine, wl: &Workload, options: RunOptions) -> RunReport {
        ServeSession::with_options(Colocated::borrowed(engine), options)
            .serve(wl)
            .expect("run completes")
    }

    fn tiny_workload(n: u64, category: Category, slo: f64) -> Workload {
        let requests = (0..n)
            .map(|id| RequestSpec {
                id,
                category,
                arrival_ms: id as f64 * 5.0,
                prompt_len: 32,
                output_len: 12,
                tpot_slo_ms: slo,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0xF00D,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "tiny".into(),
        }
    }

    #[test]
    fn serves_all_requests() {
        let mut engine = AdaServeEngine::new(SystemConfig::llama70b(1));
        let wl = tiny_workload(6, Category::Chatbot, 50.0);
        let result = run(&mut engine, &wl, RunOptions::default());
        assert_eq!(result.records.len(), 6);
        for r in &result.records {
            assert_eq!(r.output_tokens, 12);
        }
    }

    #[test]
    fn speculation_advances_multiple_tokens_per_iteration() {
        let mut engine = AdaServeEngine::new(SystemConfig::llama70b(1));
        let wl = tiny_workload(4, Category::CodingCopilot, 30.0);
        let result = run(&mut engine, &wl, RunOptions::default());
        assert!(
            result.mean_accepted_per_verify() > 0.8,
            "mean accepted = {}",
            result.mean_accepted_per_verify()
        );
    }

    #[test]
    fn tokens_match_autoregressive_stream() {
        // The same request served by AdaServe and by plain sampling must
        // produce the same number of tokens with the same per-position
        // process (verified indirectly: deterministic reruns agree).
        let wl = tiny_workload(3, Category::Chatbot, 50.0);
        let a = run(
            &mut AdaServeEngine::new(SystemConfig::llama70b(1)),
            &wl,
            RunOptions::default(),
        );
        let b = run(
            &mut AdaServeEngine::new(SystemConfig::llama70b(1)),
            &wl,
            RunOptions::default(),
        );
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn light_load_attains_tight_slos() {
        let config = SystemConfig::llama70b(1);
        let baseline = config.baseline_ms;
        let wl = WorkloadBuilder::new(5, baseline)
            .target_rps(1.0)
            .duration_ms(20_000.0)
            .build();
        let mut engine = AdaServeEngine::new(config);
        let result = run(&mut engine, &wl, RunOptions::default());
        let report = result.report();
        assert_eq!(report.requests, wl.requests.len());
        assert!(
            report.attainment_pct > 80.0,
            "attainment = {} at light load",
            report.attainment_pct
        );
    }

    #[test]
    fn scheduling_overhead_is_small() {
        let mut engine = AdaServeEngine::new(SystemConfig::llama70b(1));
        let wl = tiny_workload(8, Category::Chatbot, 50.0);
        let result = run(&mut engine, &wl, RunOptions::default());
        let b = result.units[0].result.breakdown;
        let (sched_pct, _, _, _, _) = b.shares_pct();
        assert!(sched_pct < 5.0, "scheduling share = {sched_pct}%");
    }

    #[test]
    fn hot_loop_stats_are_surfaced_and_healthy() {
        // Satellite of the Fig. 15 claim: the CPU hot loop must stay
        // observable — the distribution cache actually hits (verification
        // re-reads draft-pass contexts through the shared memo) and the
        // iteration scratch stops growing once warm.
        let config = SystemConfig::llama70b(1);
        let wl = WorkloadBuilder::new(5, config.baseline_ms)
            .target_rps(2.0)
            .duration_ms(20_000.0)
            .build();
        let mut engine = AdaServeEngine::new(config);
        let result = run(&mut engine, &wl, RunOptions::default());
        let h = result.units[0].result.hotloop;
        assert!(h.iterations > 50, "enough decode iterations to warm up");
        assert!(
            h.dist_cache_hits + h.dist_cache_misses > 0,
            "cache lookups recorded"
        );
        assert!(
            h.dist_cache_hit_rate_pct() > 5.0,
            "verification should hit the draft pass's target-memo entries \
             (hit rate = {:.1}%)",
            h.dist_cache_hit_rate_pct()
        );
        assert!(h.peak_decode_batch >= 1);
        assert!(
            h.allocs_per_iteration() < 0.2,
            "scratch buffers must stop growing once warm \
             ({} grow events over {} iterations)",
            h.scratch_grow_events,
            h.iterations
        );
    }

    #[test]
    fn throughput_only_ablation_still_serves() {
        let options = AdaServeOptions {
            slo_selection: false,
            ..Default::default()
        };
        let mut engine = AdaServeEngine::with_options(SystemConfig::llama70b(1), options);
        let wl = tiny_workload(4, Category::Chatbot, 50.0);
        let result = run(&mut engine, &wl, RunOptions::default());
        assert_eq!(result.records.len(), 4);
    }

    #[test]
    fn static_params_ablation_still_serves() {
        let options = AdaServeOptions {
            adaptive: false,
            static_params: SpecParams::new(3, 2),
            ..Default::default()
        };
        let mut engine = AdaServeEngine::with_options(SystemConfig::llama70b(1), options);
        let wl = tiny_workload(4, Category::Chatbot, 50.0);
        let result = run(&mut engine, &wl, RunOptions::default());
        assert_eq!(result.records.len(), 4);
    }
}
