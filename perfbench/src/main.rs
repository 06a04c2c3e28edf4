//! One command for the serving simulator's two clocks.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it serves the seeded workload's independent parts,
//! then serves them again until `--seconds` have passed, through the
//! public front door (`ServeSession`) with tracing off. It reports the
//! end-to-end metrics: host-clock ones over the repeated serves,
//! simulated-clock ones over the records of all parts pooled. With
//! `--trace 1` it adds one serve with timing shims on every public layer
//! boundary and the event tracer on, and reports per-layer metrics.
//! Either way it gates correctness: conservation, output lengths, and
//! equal record digests across the repeats, the traced run and a
//! sequential-executor run. The last stdout line is one JSON object; the
//! exit code is non-zero when any check fails.

mod check;
mod host;
mod layers;
mod shim;
mod sim;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use adaserve::metrics::percentile;
use adaserve::serving::ExecMode;

use crate::sim::SimMetrics;
use crate::workloads::{Input, Kind, RunSpec, Served};

/// Set-up-only samples taken before serving, so `setup_s` is a median of
/// many: at least `SETUP_MIN` of them, and more until `SETUP_SECONDS` of
/// set-up time has accumulated (a colocated set-up takes under 1 ms).
const SETUP_MIN: usize = 8;
const SETUP_SECONDS: f64 = 1.5;
const SETUP_MAX: usize = 1_000;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(|| bad("a workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// One metric as printed and emitted.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, clock: &'static str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit,
            clock,
            value,
        }
    }
}

/// Collected failures of the correctness gate.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
    /// Requests offered across every checked serve.
    pub attempted: u64,
    /// Requests across every checked serve without exactly one correct
    /// terminal outcome.
    pub failed: u64,
}

impl Gate {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Audits one serve's records against its workload, and checks that
    /// the serve exercised what its workload exists to exercise.
    pub fn audit(&mut self, label: &str, input: &Input, served: &Served) {
        let report = &served.report;
        let offered = input.workload.requests.len();
        self.require(offered >= workloads::REQUESTS, || {
            format!("{label}: offered only {offered} requests")
        });
        let nproc = host::nproc();
        self.require(served.live_workers <= nproc, || {
            format!(
                "{label}: {} executor workers on {nproc} cores",
                served.live_workers
            )
        });
        if input.kind == Kind::TenantsDisagg {
            self.require(report.retries_scheduled > 0, || {
                format!("{label}: the decode-replica crashes lost no request")
            });
            let hits = report.merged_hotloop().prefix_hit_rate_pct();
            self.require(hits > 0.0, || format!("{label}: prefix cache never hit"));
        }
        let (bad, first) = check::audit(&input.workload, report);
        self.attempted += input.workload.requests.len() as u64;
        self.failed += bad as u64;
        if let Some(first) = first {
            self.failures
                .push(format!("{label}: {bad} bad requests, first: {first}"));
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The untraced measurement: every part set up and served once, then
/// served again (part 0 first) until `--seconds` have passed.
#[derive(Debug)]
pub struct Measured {
    /// Part 0, which the sequential and traced runs serve again.
    pub input: Input,
    /// Simulated metrics, pooled over the parts.
    pub sim: SimMetrics,
    /// Part 0's record digest.
    pub digest: u64,
    /// Set-up samples and their two parts, at reference host speed.
    pub setup_s: Vec<f64>,
    pub gen_s: Vec<f64>,
    pub build_s: Vec<f64>,
    /// Per serve: wall seconds as measured; CPU seconds and output tokens
    /// per CPU second at reference host speed.
    pub serve_s: Vec<f64>,
    pub serve_cpu_s: Vec<f64>,
    pub tok_per_s: Vec<f64>,
    /// Most executor worker threads alive at the end of any serve.
    pub live_workers: usize,
    /// Part 0's engine iterations and simulated end time.
    pub iterations: u64,
    pub end_ms: f64,
}

fn measure(args: &Args, gate: &mut Gate) -> Result<Measured, String> {
    let parts = args.kind.parts();
    let (mut setup_s, mut gen_s, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let setup = |part: usize| {
        let t = Instant::now();
        let input = workloads::generate(args.kind, args.seed, part);
        (input, t.elapsed().as_secs_f64())
    };
    // Every host time is divided by the host's slowness over the interval
    // it was taken in, from speed probes on either side of it.
    let mut probe = host::probe_s();
    let (mut raw_gen, mut raw_build) = (Vec::new(), Vec::new());
    let mut setup_total_s = 0.0;
    while raw_gen.len() < SETUP_MIN || (setup_total_s < SETUP_SECONDS && raw_gen.len() < SETUP_MAX)
    {
        let (input, g) = setup(0);
        let b = workloads::setup_only(&input);
        raw_gen.push(g);
        raw_build.push(b);
        setup_total_s += g + b;
    }
    let after = host::probe_s();
    let slow = host::slowness(probe, after);
    probe = after;
    for (g, b) in raw_gen.into_iter().zip(raw_build) {
        gen_s.push(g / slow);
        build_s.push(b / slow);
        setup_s.push((g + b) / slow);
    }
    println!(
        "  set-up: {} samples, host slowness {slow:.3}",
        setup_s.len()
    );
    let start = Instant::now();
    let (mut digests, mut served_parts) = (Vec::new(), Vec::new());
    let (mut serve_s, mut serve_cpu_s, mut tok_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut part0 = None;
    let mut live_workers = 0;
    let mut round = 0;
    while round <= parts || start.elapsed().as_secs_f64() < args.seconds {
        let part = round % parts;
        let (input, g) = setup(part);
        let served = workloads::serve(&input, &RunSpec::default()).map_err(|e| e.to_string())?;
        let after = host::probe_s();
        let slow = host::slowness(probe, after);
        probe = after;
        let label = format!("part {part} round {round}");
        gate.audit(&label, &input, &served);
        let digest = check::digest(&served.report);
        let output_tokens: u64 = served
            .report
            .records
            .iter()
            .map(|r| u64::from(r.output_tokens))
            .sum();
        if round < parts {
            digests.push(digest);
        } else {
            gate.require(digest == digests[part], || {
                format!(
                    "{label}: record digest {digest:016x} != first serve's {:016x}",
                    digests[part]
                )
            });
        }
        println!(
            "  serve {label}: setup {:.4} s, serve {:.4} s wall, {:.2} s cpu, host slowness {slow:.3}",
            g + served.build_s,
            served.serve_s,
            served.serve_cpu_s
        );
        gen_s.push(g / slow);
        build_s.push(served.build_s / slow);
        setup_s.push((g + served.build_s) / slow);
        serve_s.push(served.serve_s);
        serve_cpu_s.push(served.serve_cpu_s / slow);
        // Per CPU second, not wall: on a shared host a stolen vCPU halves
        // a two-worker serve's wall speed while its CPU time barely moves.
        tok_per_s.push(output_tokens as f64 / served.serve_cpu_s * slow);
        live_workers = live_workers.max(served.live_workers);
        if part == 0 {
            part0.get_or_insert((
                input.clone(),
                served.report.iterations,
                served.report.end_ms,
            ));
        }
        if round < parts {
            served_parts.push((input, served.report));
        }
        round += 1;
    }
    let (input, iterations, end_ms) = part0.expect("part 0 was served");
    let pooled: Vec<_> = served_parts.iter().map(|(i, r)| (&i.workload, r)).collect();
    Ok(Measured {
        input,
        sim: SimMetrics::of(&pooled),
        digest: digests[0],
        setup_s,
        gen_s,
        build_s,
        serve_s,
        serve_cpu_s,
        tok_per_s,
        live_workers,
        iterations,
        end_ms,
    })
}

/// The untimed sequential-executor reference: its records must equal the
/// sharded runs'.
fn sequential_reference(m: &Measured, gate: &mut Gate) -> Result<(), String> {
    let spec = RunSpec {
        exec: Some(ExecMode::Sequential),
        ..RunSpec::default()
    };
    let served = workloads::serve(&m.input, &spec).map_err(|e| e.to_string())?;
    gate.audit("sequential", &m.input, &served);
    let digest = check::digest(&served.report);
    gate.require(digest == m.digest, || {
        format!(
            "sequential executor: record digest {digest:016x} != sharded {:016x}",
            m.digest
        )
    });
    Ok(())
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let s = &m.sim;
    vec![
        Metric::new("setup_s", "s", "host", median(&m.setup_s)),
        Metric::new("sim_tok_per_host_s", "tok/s", "host", median(&m.tok_per_s)),
        Metric::new("serve_cpu_s", "s", "host", median(&m.serve_cpu_s)),
        Metric::new("peak_rss_mb", "MB", "host", host::peak_rss_mb()),
        Metric::new("slo_attainment_pct", "%", "sim", s.slo_attainment_pct),
        Metric::new("ttft_attainment_pct", "%", "sim", s.ttft_attainment_pct),
        Metric::new("goodput_tok_s", "tok/s", "sim", s.goodput_tok_s),
        Metric::new("ttft_p50_ms", "ms", "sim", s.ttft_p50_ms),
        Metric::new("ttft_p99_ms", "ms", "sim", s.ttft_p99_ms),
        Metric::new("tpot_p50_ms", "ms", "sim", s.tpot_p50_ms),
        Metric::new("tpot_p99_ms", "ms", "sim", s.tpot_p99_ms),
        Metric::new("served_pct", "%", "sim", s.served_pct),
    ]
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!("  {:<28} {:>16}  {:<8} clock", "metric", "value", "unit");
    for m in metrics {
        println!(
            "  {:<28} {:>16.4}  {:<8} {}",
            m.name, m.value, m.unit, m.clock
        );
    }
}

fn json_line(gate: &Gate, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.ok(),
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

/// Shortest round-tripping decimal; JSON has no NaN or infinity.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn run(args: &Args) -> Result<(Gate, Vec<Metric>), String> {
    let mut gate = Gate::default();
    let m = measure(args, &mut gate)?;
    sequential_reference(&m, &mut gate)?;
    let s = &m.sim;
    println!(
        "workload {} seed {}: {} parts, {} offered, {} finished, {} rejected; \
         {} untraced serves, {} executor workers",
        args.kind.name(),
        args.seed,
        args.kind.parts(),
        s.offered,
        s.finished,
        s.rejected,
        m.serve_s.len(),
        m.live_workers
    );
    let metrics = if args.trace {
        let layer = layers::traced(&m, &mut gate)?;
        print_table("per-layer metrics (traced run)", &layer);
        layer
    } else {
        let e2e = end_to_end(&m);
        print_table("end-to-end metrics (tracing off)", &e2e);
        e2e
    };
    Ok((gate, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((gate, metrics)) => {
            for f in &gate.failures {
                eprintln!("CORRECTNESS FAILURE: {f}");
            }
            println!(
                "correctness gate: {} ({} requests checked, {} checks failed)",
                if gate.ok() { "passed" } else { "FAILED" },
                gate.attempted,
                gate.failures.len()
            );
            println!("{}", json_line(&gate, &metrics));
            if gate.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
