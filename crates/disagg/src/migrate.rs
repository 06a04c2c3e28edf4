//! The KV-migration cost model.
//!
//! When a prompt finishes prefill, its KV cache — per-token KV bytes
//! across every layer of the target model ([`roofline`]'s
//! `ModelSpec::kv_bytes_per_token`) times the context length — must cross
//! the interconnect to the decode replica before the first decode step.
//! The [`KvLink`] prices one transfer from a link bandwidth (NVLink by
//! default, PCIe-class for what-if sweeps) plus a fixed setup cost; the
//! [`TransferQueue`] keeps every in-flight transfer, serializing transfers
//! that target the same decode replica's ingress link while transfers to
//! different replicas proceed in parallel.
//!
//! Transfers *overlap decode*: a decode replica keeps iterating on its
//! running batch while KV streams in; only the migrated request itself
//! waits for its `arrive_ms`. The draft model's state is not transferred —
//! the colocated draft re-derives its context from the token ids that
//! travel with the request (bytes negligible next to the target KV).

use serving::LiveRequest;

/// An interconnect link for KV migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvLink {
    /// Link bandwidth in GB/s (per direction).
    pub bandwidth_gbps: f64,
    /// Fixed per-transfer setup cost in milliseconds (handshake, layout).
    pub base_ms: f64,
}

impl KvLink {
    /// A link with explicit bandwidth and setup cost.
    ///
    /// # Panics
    ///
    /// Panics unless bandwidth is positive and the setup cost non-negative.
    pub fn new(bandwidth_gbps: f64, base_ms: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(base_ms >= 0.0, "setup cost cannot be negative");
        Self {
            bandwidth_gbps,
            base_ms,
        }
    }

    /// A link at the GPU's published NVLink bandwidth (the intra-node
    /// disaggregation case) with a small fixed setup cost.
    pub fn nvlink(gpu: &roofline::GpuSpec) -> Self {
        Self::new(gpu.nvlink_gbps, 0.05)
    }

    /// Time to move `bytes` over the link, in milliseconds.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.base_ms + bytes as f64 / (self.bandwidth_gbps * 1e9) * 1e3
    }
}

/// One in-flight KV migration.
#[derive(Debug)]
pub struct KvTransfer {
    /// The migrating request (prefill complete, nothing generated).
    pub request: LiveRequest,
    /// Source prefill replica.
    pub from_prefill: usize,
    /// Destination decode replica.
    pub to_decode: usize,
    /// KV bytes moved.
    pub bytes: u64,
    /// When the transfer started occupying the destination ingress link.
    pub start_ms: f64,
    /// When the KV is fully resident on the decode side.
    pub arrive_ms: f64,
}

/// Aggregate transfer telemetry for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Completed transfers.
    pub transfers: u64,
    /// Total KV bytes moved.
    pub bytes: u64,
    /// Total link-busy milliseconds (setup + wire time, all links).
    pub busy_ms: f64,
    /// Transfers aborted mid-migration by an injected link outage or a
    /// destination crash (their requests returned to the front door).
    pub aborted: u64,
    /// Transfers that landed on a decode replica whose KV pool was full
    /// and waited on its landing queue for blocks to free up.
    pub parked: u64,
}

impl TransferStats {
    /// Mean per-transfer link time in milliseconds.
    pub fn mean_transfer_ms(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.busy_ms / self.transfers as f64
        }
    }
}

/// The in-flight transfer queue: one ingress link per decode replica.
#[derive(Debug)]
pub struct TransferQueue {
    link: KvLink,
    /// Bytes of target-model KV per context token.
    kv_bytes_per_token: u64,
    /// Per-decode-replica ingress link availability.
    link_free_ms: Vec<f64>,
    in_flight: Vec<KvTransfer>,
    /// Wire-time multiplier for an injected link degradation (1.0 when
    /// healthy — an exact IEEE identity, so fault-free runs stay
    /// bit-identical).
    wire_factor: f64,
    /// Telemetry over every enqueued transfer.
    pub stats: TransferStats,
}

impl TransferQueue {
    /// A queue over `n_decode` decode-side ingress links.
    ///
    /// # Panics
    ///
    /// Panics if `n_decode` is zero or the per-token byte count is zero.
    pub fn new(link: KvLink, kv_bytes_per_token: u64, n_decode: usize) -> Self {
        assert!(n_decode > 0, "need at least one decode replica");
        assert!(kv_bytes_per_token > 0, "KV tokens occupy bytes");
        Self {
            link,
            kv_bytes_per_token,
            link_free_ms: vec![0.0; n_decode],
            in_flight: Vec::new(),
            wire_factor: 1.0,
            stats: TransferStats::default(),
        }
    }

    /// Sets the wire-time multiplier (injected link degradation; 1.0
    /// restores the healthy link). Applies to transfers priced or
    /// enqueued from now on; transfers already in flight keep their
    /// arrival times.
    pub fn set_wire_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "wire factor must be positive");
        self.wire_factor = factor;
    }

    /// The degraded (or healthy) time to move `bytes` over the link.
    fn effective_transfer_ms(&self, bytes: u64) -> f64 {
        self.link.transfer_ms(bytes) * self.wire_factor
    }

    /// Bytes of target-model KV per context token (what one migrated
    /// token costs on the wire).
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.kv_bytes_per_token
    }

    /// The wire time of migrating a `context_len`-token KV cache,
    /// ignoring ingress-link queueing.
    ///
    /// The dispatcher prices this into a request's handoff time *before*
    /// choosing a destination (queueing depends on the destination, so it
    /// cannot be foreseen at routing time).
    pub fn wire_ms(&self, context_len: u32) -> f64 {
        self.effective_transfer_ms(u64::from(context_len) * self.kv_bytes_per_token)
    }

    /// The wire time of moving `bytes` over the link, ignoring
    /// ingress-link queueing.
    pub fn wire_ms_for_bytes(&self, bytes: u64) -> f64 {
        self.effective_transfer_ms(bytes)
    }

    /// Starts migrating `request` to `to_decode` at time `now_ms`.
    ///
    /// The transfer occupies the destination's ingress link after any
    /// transfer already bound there; returns the arrival time.
    pub fn enqueue(
        &mut self,
        request: LiveRequest,
        from_prefill: usize,
        to_decode: usize,
        now_ms: f64,
    ) -> f64 {
        let bytes = u64::from(request.context_len()) * self.kv_bytes_per_token;
        let start_ms = now_ms.max(self.link_free_ms[to_decode]);
        let wire_ms = self.effective_transfer_ms(bytes);
        let arrive_ms = start_ms + wire_ms;
        self.link_free_ms[to_decode] = arrive_ms;
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        self.stats.busy_ms += wire_ms;
        self.in_flight.push(KvTransfer {
            request,
            from_prefill,
            to_decode,
            bytes,
            start_ms,
            arrive_ms,
        });
        arrive_ms
    }

    /// Earliest in-flight arrival time, if any transfer is in flight.
    pub fn next_arrival_ms(&self) -> Option<f64> {
        self.in_flight
            .iter()
            .map(|t| t.arrive_ms)
            .min_by(f64::total_cmp)
    }

    /// Removes and returns every transfer that has arrived by `now_ms`,
    /// ordered by arrival time then request id (deterministic).
    pub fn pop_arrivals(&mut self, now_ms: f64) -> Vec<KvTransfer> {
        let mut due: Vec<KvTransfer> = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].arrive_ms <= now_ms {
                due.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by(|a, b| {
            a.arrive_ms
                .total_cmp(&b.arrive_ms)
                .then(a.request.spec.id.cmp(&b.request.spec.id))
        });
        due
    }

    /// Transfers currently in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Aborts every in-flight transfer (the link went dark): the KV
    /// streaming over the wire is lost, the requests return to the
    /// caller in id order (deterministic), and every ingress link is
    /// freed — after the outage the wire starts clean.
    pub fn abort_all(&mut self) -> Vec<KvTransfer> {
        self.stats.aborted += self.in_flight.len() as u64;
        for free in &mut self.link_free_ms {
            *free = 0.0;
        }
        let mut aborted = std::mem::take(&mut self.in_flight);
        aborted.sort_by_key(|t| t.request.spec.id);
        aborted
    }

    /// Aborts the in-flight transfers bound for decode replica `to` (its
    /// crash loses the KV landing on it), returning them in id order and
    /// freeing that ingress link.
    pub fn abort_to(&mut self, to: usize) -> Vec<KvTransfer> {
        let mut aborted = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].to_decode == to {
                aborted.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.stats.aborted += aborted.len() as u64;
        self.link_free_ms[to] = 0.0;
        aborted.sort_by_key(|t| t.request.spec.id);
        aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::LiveRequest;
    use workload::{Category, RequestSpec};

    fn request(id: u64, prompt: u32) -> LiveRequest {
        let mut r = LiveRequest::new(RequestSpec {
            id,
            category: Category::Chatbot,
            arrival_ms: 0.0,
            prompt_len: prompt,
            output_len: 4,
            tpot_slo_ms: 50.0,
            ttft_slo_ms: 1_000.0,
            stream_seed: id,
            prefix: None,
        });
        r.advance_prefill(prompt);
        r
    }

    #[test]
    fn transfer_time_scales_with_bytes_and_bandwidth() {
        let fast = KvLink::new(300.0, 0.0);
        let slow = KvLink::new(30.0, 0.0);
        let bytes = 512 * 327_680; // 512 tokens of Llama-70B KV
        assert!((slow.transfer_ms(bytes) - 10.0 * fast.transfer_ms(bytes)).abs() < 1e-9);
        // ~168 MB at 300 GB/s is ~0.56 ms: sub-iteration, i.e. migration
        // over NVLink is cheap relative to a ~25 ms decode step.
        assert!(fast.transfer_ms(bytes) < 1.0);
    }

    #[test]
    fn same_destination_serializes_different_destinations_overlap() {
        let mut q = TransferQueue::new(KvLink::new(10.0, 0.0), 327_680, 2);
        let a = q.enqueue(request(0, 1000), 0, 0, 0.0);
        let b = q.enqueue(request(1, 1000), 0, 0, 0.0);
        let c = q.enqueue(request(2, 1000), 0, 1, 0.0);
        assert!(b > a, "same ingress link serializes");
        assert!((b - 2.0 * a).abs() < 1e-6, "second waits for the first");
        assert!((c - a).abs() < 1e-9, "other replica's link is free");
        assert_eq!(q.in_flight_len(), 3);
    }

    #[test]
    fn pop_arrivals_is_ordered_and_exact() {
        let mut q = TransferQueue::new(KvLink::new(10.0, 0.0), 327_680, 2);
        q.enqueue(request(0, 2000), 0, 0, 0.0);
        q.enqueue(request(1, 100), 0, 1, 0.0);
        let first = q.next_arrival_ms().expect("in flight");
        let due = q.pop_arrivals(first);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].request.spec.id, 1, "small transfer lands first");
        assert_eq!(q.in_flight_len(), 1);
        let rest = q.pop_arrivals(f64::INFINITY);
        assert_eq!(rest.len(), 1);
        assert_eq!(q.stats.transfers, 2);
        assert_eq!(q.stats.bytes, 2100 * 327_680);
    }

    #[test]
    fn wire_ms_matches_enqueue_on_a_free_link() {
        let mut q = TransferQueue::new(KvLink::new(10.0, 0.2), 327_680, 1);
        let est = q.wire_ms(1000);
        let arrive = q.enqueue(request(0, 1000), 0, 0, 5.0);
        assert!((arrive - (5.0 + est)).abs() < 1e-9);
    }

    #[test]
    fn degraded_link_stretches_wire_time() {
        let mut q = TransferQueue::new(KvLink::new(10.0, 0.0), 327_680, 1);
        let healthy = q.wire_ms(1000);
        q.set_wire_factor(4.0);
        assert!((q.wire_ms(1000) - 4.0 * healthy).abs() < 1e-9);
        let arrive = q.enqueue(request(0, 1000), 0, 0, 0.0);
        assert!(
            (arrive - 4.0 * healthy).abs() < 1e-9,
            "enqueue degraded too"
        );
        q.set_wire_factor(1.0);
        assert!((q.wire_ms(1000) - healthy).abs() < 1e-12, "heals exactly");
    }

    #[test]
    fn outage_aborts_in_flight_and_frees_links() {
        let mut q = TransferQueue::new(KvLink::new(10.0, 0.0), 327_680, 2);
        q.enqueue(request(1, 1000), 0, 0, 0.0);
        q.enqueue(request(0, 1000), 0, 1, 0.0);
        let aborted = q.abort_all();
        assert_eq!(aborted.len(), 2);
        assert_eq!(aborted[0].request.spec.id, 0, "id order");
        assert_eq!(q.in_flight_len(), 0);
        assert_eq!(q.stats.aborted, 2);
        assert!(q.next_arrival_ms().is_none());
        // The wire starts clean after the outage.
        let arrive = q.enqueue(request(2, 1000), 0, 0, 100.0);
        assert!((arrive - (100.0 + q.wire_ms(1000))).abs() < 1e-9);
    }

    #[test]
    fn destination_crash_aborts_only_its_transfers() {
        let mut q = TransferQueue::new(KvLink::new(10.0, 0.0), 327_680, 2);
        q.enqueue(request(0, 1000), 0, 0, 0.0);
        q.enqueue(request(1, 1000), 0, 1, 0.0);
        let aborted = q.abort_to(1);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].request.spec.id, 1);
        assert_eq!(q.in_flight_len(), 1, "replica 0's transfer survives");
        assert_eq!(q.stats.aborted, 1);
    }

    #[test]
    fn base_cost_applies_per_transfer() {
        let link = KvLink::new(1000.0, 0.5);
        let t = link.transfer_ms(0);
        assert!((t - 0.5).abs() < 1e-12);
    }
}
