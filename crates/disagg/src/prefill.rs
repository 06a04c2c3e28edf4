//! The prefill side of a disaggregated deployment.
//!
//! A [`PrefillReplica`] runs chunked prefill *only*: it admits waiting
//! prompts in TTFT-tier order, fills a per-iteration token budget with
//! chunks (tightest first-token deadline first), and hands every fully
//! prefilled request back to the driver for KV migration. It never decodes
//! and never stamps decode-start timestamps — in a disaggregated
//! deployment the first decode step happens on the decode pool, after the
//! KV transfer lands.

use roofline::{ForwardPass, SeqWork};
use serving::{EngineCore, LiveRequest, Phase, Pool, RunError, StallGuard, SystemConfig};

/// Default per-iteration prefill token budget (matches the full-prompt
/// chunk the colocated AdaServe engine uses for prefill-only passes).
pub const DEFAULT_CHUNK_BUDGET: u32 = 2048;

/// One prefill-only replica: chunked prefill over an [`EngineCore`],
/// advancing on its own local clock under the disagg driver.
#[derive(Debug)]
pub struct PrefillReplica {
    /// Stable index within the prefill pool.
    pub id: usize,
    /// Queueing/memory machinery (waiting queue, running batch, KV pool).
    pub core: EngineCore,
    /// Local clock: when this replica's next iteration may start.
    pub clock_ms: f64,
    /// Whether the dispatcher may place new arrivals here (drain/join).
    pub accepting: bool,
    /// Whether the replica is crashed (fault injection). A down replica
    /// holds no requests — the crash evicted them — and is excluded from
    /// stepping and dispatch until the session clears the fault.
    pub down: bool,
    /// Iteration-latency multiplier for an injected transient slowdown
    /// (1.0 when healthy — an exact IEEE identity, so fault-free runs
    /// stay bit-identical).
    pub latency_factor: f64,
    /// Arrivals routed to this replica so far.
    pub routed: u64,
    /// Requests whose prefill completed here (handed to migration).
    pub prefilled_requests: u64,
    /// Prompt tokens prefilled here.
    pub prefill_tokens: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Per-iteration prefill token budget.
    chunk_budget: u32,
    /// Modelled cost of one prefill token (for load estimates), ms.
    per_token_ms: f64,
    guard: StallGuard,
}

impl PrefillReplica {
    /// Creates a replica with the default chunk budget.
    pub fn new(id: usize, config: SystemConfig) -> Self {
        Self::with_chunk_budget(id, config, DEFAULT_CHUNK_BUDGET)
    }

    /// Creates a replica with an explicit per-iteration token budget.
    pub fn with_chunk_budget(id: usize, config: SystemConfig, chunk_budget: u32) -> Self {
        assert!(chunk_budget >= 1);
        let probe = ForwardPass::new(vec![SeqWork::prefill(512, 0)]);
        let per_token_ms = config.testbed.target.forward_latency_ms(&probe, false) / 512.0;
        Self {
            id,
            core: EngineCore::new(config),
            clock_ms: 0.0,
            accepting: true,
            down: false,
            latency_factor: 1.0,
            routed: 0,
            prefilled_requests: 0,
            prefill_tokens: 0,
            iterations: 0,
            chunk_budget,
            per_token_ms,
            guard: StallGuard::default(),
        }
    }

    /// Whether the replica has queued or in-flight prefill work.
    pub fn has_work(&self) -> bool {
        self.core.has_work()
    }

    /// Prompt tokens still to prefill across waiting and running requests.
    pub fn pending_prefill_tokens(&self) -> u64 {
        self.core
            .waiting
            .iter()
            .chain(self.core.running.iter())
            .map(|r| u64::from(r.prefill_remaining()))
            .sum()
    }

    /// The longest block-aligned prefix of `spec`'s prompt resident in
    /// this replica's engine-level prefix cache, in tokens (0 without a
    /// cache). `prompt` is the pre-derived prompt stream — the dispatcher
    /// derives it once per arrival and probes every replica.
    pub fn cached_prefix_tokens(
        &self,
        spec: &workload::RequestSpec,
        prompt: &[simllm::TokenId],
    ) -> u32 {
        self.core
            .prefix
            .as_ref()
            .map_or(0, |c| c.peek(prompt, spec.prompt_len.saturating_sub(1)))
    }

    /// Outstanding requests whose TTFT SLO is at most `tight_ttft_ms`.
    pub fn tight_outstanding(&self, tight_ttft_ms: f64) -> usize {
        self.core
            .waiting
            .iter()
            .chain(self.core.running.iter())
            .filter(|r| r.spec.ttft_slo_ms <= tight_ttft_ms)
            .count()
    }

    /// Modelled time to drain the pending prefill queue as seen from
    /// global time `now_ms` (queued tokens at the modelled per-token
    /// prefill cost, plus any head start of the local clock).
    pub fn drain_estimate_ms(&self, now_ms: f64) -> f64 {
        (self.clock_ms - now_ms).max(0.0) + self.pending_prefill_tokens() as f64 * self.per_token_ms
    }

    /// Executes one prefill iteration at the local clock.
    ///
    /// Admission and chunk planning are both TTFT-tier ordered: the
    /// waiting queue is kept sorted by first-token deadline, and chunks go
    /// to the running request with the tightest TTFT SLO first, so an
    /// interactive prompt is never parked behind a long article. Advances
    /// the local clock and returns every request whose prefill completed
    /// this iteration (migration-ready, KV released here).
    ///
    /// # Errors
    ///
    /// [`RunError::KvCapacity`] when the tightest waiting prompt exceeds
    /// the replica's entire KV pool — it can never be admitted, so the
    /// replica fails fast instead of idle-ticking to a time cap.
    pub fn step(&mut self) -> Result<Vec<LiveRequest>, RunError> {
        // TTFT-tier admission: tightest deadline enters first.
        self.core.waiting.make_contiguous().sort_by(tier_order);
        self.core.admit_fifo();

        // TTFT-tier chunk sizing within the iteration budget.
        let mut order: Vec<usize> = (0..self.core.running.len())
            .filter(|&i| self.core.running[i].phase == Phase::Prefilling)
            .collect();
        order.sort_by(|&a, &b| tier_order(&self.core.running[a], &self.core.running[b]));
        let mut remaining = self.chunk_budget;
        let mut plan: Vec<(usize, u32)> = Vec::new();
        for i in order {
            if remaining == 0 {
                break;
            }
            let chunk = self.core.running[i].prefill_remaining().min(remaining);
            if chunk > 0 {
                plan.push((i, chunk));
                remaining -= chunk;
            }
        }

        let latency_ms = if plan.is_empty() {
            // Every admitted prompt yields a chunk and every completed one
            // left via take_prefilled, so an empty plan means the running
            // batch is empty — with the whole pool free, the front waiting
            // prompt (if any) can never be admitted.
            if self.core.waiting.is_empty() {
                1.0 // Called without work: harmless idle tick.
            } else {
                let front = self.core.waiting.front().expect("non-empty").spec.id;
                return Err(RunError::kv_capacity()
                    .at(Pool::Prefill, self.id)
                    .for_request(front));
            }
        } else {
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
            self.prefill_tokens += plan.iter().map(|&(_, c)| u64::from(c)).sum::<u64>();
            ms
        };

        // An injected slowdown stretches the modelled iteration latency.
        let latency_ms = latency_ms * self.latency_factor;
        self.guard
            .observe(latency_ms)
            .map_err(|e| e.at(Pool::Prefill, self.id))?;
        self.clock_ms += latency_ms.max(1e-6);
        self.iterations += 1;

        let done = self.core.take_prefilled();
        self.prefilled_requests += done.len() as u64;
        Ok(done)
    }

    /// Crash semantics for fault injection: every request this replica
    /// holds (waiting and mid-prefill) loses its KV and is returned to
    /// the caller; the replica takes no work until
    /// [`PrefillReplica::recover`].
    pub fn crash(&mut self, now_ms: f64) -> Vec<workload::RequestSpec> {
        self.down = true;
        self.clock_ms = self.clock_ms.max(now_ms);
        self.core.evict_all_for_crash()
    }

    /// The crashed replica rejoins dispatch at `now_ms` with a cold KV
    /// pool and prefix cache.
    pub fn recover(&mut self, now_ms: f64) {
        self.down = false;
        self.clock_ms = self.clock_ms.max(now_ms);
    }
}

/// Deadline ordering shared by admission and chunk planning: tightest TTFT
/// SLO first, then earliest arrival, then id (total and deterministic).
fn tier_order(a: &LiveRequest, b: &LiveRequest) -> std::cmp::Ordering {
    a.spec
        .ttft_slo_ms
        .total_cmp(&b.spec.ttft_slo_ms)
        .then(a.spec.arrival_ms.total_cmp(&b.spec.arrival_ms))
        .then(a.spec.id.cmp(&b.spec.id))
}

/// The prefill pool: all prefill-only replicas of a disaggregated cluster.
#[derive(Debug)]
pub struct PrefillPool {
    /// The replicas, indexed by id.
    pub replicas: Vec<PrefillReplica>,
}

impl PrefillPool {
    /// Builds a pool of replicas over the given deployment configs.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<SystemConfig>) -> Self {
        assert!(!configs.is_empty(), "a prefill pool needs a replica");
        Self {
            replicas: configs
                .into_iter()
                .enumerate()
                .map(|(id, config)| PrefillReplica::new(id, config))
                .collect(),
        }
    }

    /// Indices of replicas currently accepting arrivals; when the whole
    /// pool is draining, falls back to the replicas that are up (degrade,
    /// don't drop), and only to every replica when none is up.
    pub fn eligible(&self) -> Vec<usize> {
        cluster::eligible_replicas(self.replicas.iter().map(|r| (r.accepting, !r.down)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{Category, RequestSpec};

    fn spec(id: u64, prompt: u32, ttft_slo_ms: f64) -> RequestSpec {
        RequestSpec {
            id,
            category: Category::Chatbot,
            arrival_ms: 0.0,
            prompt_len: prompt,
            output_len: 8,
            tpot_slo_ms: 50.0,
            ttft_slo_ms,
            stream_seed: id ^ 0xD15A,
            prefix: None,
        }
    }

    fn replica(chunk: u32) -> PrefillReplica {
        PrefillReplica::with_chunk_budget(0, SystemConfig::llama70b(1), chunk)
    }

    #[test]
    fn prefills_whole_prompts_and_hands_them_off() {
        let mut r = replica(2048);
        r.core.on_arrival(spec(0, 100, 1_000.0));
        let done = r.step().expect("step");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].prefill_remaining(), 0);
        assert_eq!(done[0].generated(), 0, "prefill replicas never decode");
        assert!(done[0].decode_start_ms.is_none(), "no decode stamp here");
        assert_eq!(r.prefilled_requests, 1);
        assert_eq!(r.prefill_tokens, 100);
        assert!(!r.has_work());
        // KV fully released after the handoff.
        assert_eq!(r.core.blocks.free_blocks(), r.core.blocks.total_blocks());
    }

    #[test]
    fn tight_ttft_tier_prefills_first() {
        let mut r = replica(256);
        r.core.on_arrival(spec(0, 600, 8_000.0)); // batch tier, long
        r.core.on_arrival(spec(1, 200, 400.0)); // interactive tier
                                                // First step admits both in deadline order: the interactive prompt
                                                // claims the budget first and finishes despite arriving second;
                                                // the batch prompt only gets the remainder.
        let done = r.step().expect("step");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].spec.id, 1, "interactive prompt finishes first");
        let batch = r.core.running.iter().find(|q| q.spec.id == 0).unwrap();
        assert_eq!(batch.prefilled(), 56, "batch tier got the remainder");
    }

    #[test]
    fn oversized_prompt_fails_fast_with_kv_capacity() {
        let mut r = replica(2048);
        // 4 blocks × 16 tokens = 64-token pool vs a 500-token prompt.
        r.core.blocks = serving::BlockManager::new(4, 16);
        r.core.on_arrival(spec(0, 500, 8_000.0));
        let err = r.step().unwrap_err();
        assert_eq!(err.kind(), serving::RunErrorKind::KvCapacity);
        assert_eq!(err.site().pool, Some(Pool::Prefill));
        assert_eq!(err.site().request, Some(0), "error names the request");
    }

    #[test]
    fn drain_estimate_tracks_pending_tokens() {
        let mut r = replica(2048);
        assert_eq!(r.drain_estimate_ms(0.0), 0.0);
        r.core.on_arrival(spec(0, 1000, 1_000.0));
        let est = r.drain_estimate_ms(0.0);
        assert!(est > 0.0);
        r.core.on_arrival(spec(1, 1000, 1_000.0));
        assert!(r.drain_estimate_ms(0.0) > est, "more tokens, more load");
    }

    #[test]
    fn pool_eligibility_degrades_when_all_drained() {
        let mut pool = PrefillPool::new(vec![SystemConfig::llama70b(1); 2]);
        assert_eq!(pool.eligible(), vec![0, 1]);
        pool.replicas[0].accepting = false;
        assert_eq!(pool.eligible(), vec![1]);
        pool.replicas[1].accepting = false;
        assert_eq!(pool.eligible(), vec![0, 1], "whole pool draining");
        pool.replicas[1].down = true;
        assert_eq!(pool.eligible(), vec![0], "never a crashed replica");
        pool.replicas[0].down = true;
        assert_eq!(pool.eligible(), vec![0, 1], "nothing up");
    }
}
