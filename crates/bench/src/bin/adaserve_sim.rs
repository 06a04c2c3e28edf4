//! `adaserve_sim` — the general-purpose serving simulator CLI.
//!
//! Runs any engine on any workload configuration and prints the paper-style
//! report (optionally as CSV). This is the "drive it yourself" entry point
//! for downstream users who want scenarios beyond the paper's figures.
//!
//! ```sh
//! adaserve_sim --engine adaserve --model llama70b --rps 4.0 \
//!              --urgent 0.6 --slo-scale 1.0 --duration-s 120 --trace real
//! adaserve_sim --engine vllm-spec:6 --model qwen32b --trace synthetic
//! adaserve_sim --list-engines
//! ```

use adaserve_bench::summary::{slo_row, SLO};
use adaserve_bench::{seed, serve_one_traced, Artifact, EngineKind, ModelSetup};
use metrics::telemetry::{perfetto, Tracer};
use metrics::Table;
use workload::{CategoryMix, TraceKind, WorkloadBuilder};

#[derive(Debug)]
struct Args {
    engine: String,
    model: ModelSetup,
    rps: f64,
    urgent: Option<f64>,
    slo_scale: f64,
    duration_s: f64,
    trace: TraceKind,
    seed: u64,
    csv: bool,
    json_out: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: adaserve_sim [--engine NAME] [--model llama70b|qwen32b] [--rps F]\n\
         \t[--urgent F] [--slo-scale F] [--duration-s F] [--trace real|synthetic|poisson]\n\
         \t[--seed N] [--csv] [--json-out PATH] [--trace-out PATH] [--list-engines]\n\
         seed defaults to ADASERVE_SEED when set;\n\
         --trace-out writes a Chrome-trace/Perfetto JSON of the run;\n\
         engines: adaserve, vllm, sarathi, vllm-spec:<k>, priority, fastserve, vtc,\n\
         \tadaserve-static, adaserve-noslo"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        engine: "adaserve".into(),
        model: ModelSetup::Llama70b,
        rps: 4.0,
        urgent: None,
        slo_scale: workload::category::CAT1_BASELINE_SCALE,
        duration_s: 120.0,
        trace: TraceKind::RealWorld,
        seed: seed(),
        csv: false,
        json_out: None,
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--engine" => args.engine = value(&mut i),
            "--model" => {
                args.model = match value(&mut i).as_str() {
                    "llama70b" => ModelSetup::Llama70b,
                    "qwen32b" => ModelSetup::Qwen32b,
                    other => {
                        eprintln!("unknown model {other}");
                        usage()
                    }
                }
            }
            "--rps" => args.rps = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--urgent" => args.urgent = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--slo-scale" => args.slo_scale = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--duration-s" => args.duration_s = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value(&mut i).as_str() {
                    "real" => TraceKind::RealWorld,
                    "synthetic" => TraceKind::Synthetic,
                    "poisson" => TraceKind::Poisson {
                        rps: 4.0,
                        duration_ms: 1.2e6,
                    },
                    other => {
                        eprintln!("unknown trace {other}");
                        usage()
                    }
                }
            }
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--csv" => args.csv = true,
            "--json-out" => args.json_out = Some(std::path::PathBuf::from(value(&mut i))),
            "--trace-out" => args.trace_out = Some(std::path::PathBuf::from(value(&mut i))),
            "--list-engines" => {
                println!(
                    "adaserve vllm sarathi vllm-spec:<k> priority fastserve vtc \
                     adaserve-static adaserve-noslo"
                );
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
        i += 1;
    }
    args
}

fn engine_kind(name: &str) -> EngineKind {
    if let Some(k) = name.strip_prefix("vllm-spec:") {
        return EngineKind::VllmSpec(k.parse().unwrap_or_else(|_| usage()));
    }
    match name {
        "adaserve" => EngineKind::AdaServe,
        "adaserve-static" => EngineKind::AdaServeAblated {
            adaptive: false,
            slo_selection: true,
            n_max: 8,
        },
        "adaserve-noslo" => EngineKind::AdaServeAblated {
            adaptive: true,
            slo_selection: false,
            n_max: 8,
        },
        "vllm" => EngineKind::Vllm,
        "sarathi" => EngineKind::Sarathi,
        "priority" => EngineKind::Priority,
        "fastserve" => EngineKind::FastServe,
        "vtc" => EngineKind::Vtc,
        other => {
            eprintln!("unknown engine {other}");
            usage()
        }
    }
}

fn main() {
    let args = parse_args();
    let kind = engine_kind(&args.engine);
    let config = args.model.config(args.seed);
    let mut builder = WorkloadBuilder::new(args.seed, config.baseline_ms)
        .trace(args.trace)
        .cat1_slo_scale(args.slo_scale)
        .duration_ms(args.duration_s * 1e3);
    if !matches!(args.trace, TraceKind::Synthetic) {
        builder = builder.target_rps(args.rps);
    }
    if let Some(u) = args.urgent {
        builder = builder.mix(CategoryMix::with_urgent_fraction(u));
    }
    let workload = builder.build();

    eprintln!("engine:   {}", kind.name());
    eprintln!("model:    {}", args.model.name());
    eprintln!("workload: {}", workload.description);

    let tracer = if args.trace_out.is_some() {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let engine = kind.build(args.model.config(args.seed));
    let result = serve_one_traced(engine, &workload, tracer.clone());
    let report = result.report();

    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["requests".to_string(), report.requests.to_string()]);
    table.row(vec![
        "slo_attainment_pct".to_string(),
        format!("{:.2}", report.attainment_pct),
    ]);
    table.row(vec![
        "goodput_tps".to_string(),
        format!("{:.1}", report.goodput_tps),
    ]);
    table.row(vec![
        "throughput_tps".to_string(),
        format!("{:.1}", report.throughput_tps),
    ]);
    table.row(vec![
        "mean_ttft_ms".to_string(),
        format!("{:.1}", report.mean_ttft_ms),
    ]);
    table.row(vec![
        "mean_accepted_per_verify".to_string(),
        format!("{:.2}", result.mean_accepted_per_verify),
    ]);
    table.row(vec![
        "iterations".to_string(),
        result.iterations.to_string(),
    ]);
    table.row(vec![
        "simulated_s".to_string(),
        format!("{:.1}", result.end_ms / 1e3),
    ]);
    for c in &report.per_category {
        table.row(vec![
            format!("{}_violation_pct", c.category.label()),
            format!("{:.2}", c.violation_pct),
        ]);
        table.row(vec![
            format!("{}_mean_tpot_ms", c.category.label()),
            format!("{:.2}", c.mean_tpot_ms),
        ]);
    }
    if args.csv {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }

    if let Some(path) = args.trace_out {
        let events = tracer.snapshot();
        perfetto::export_to_file(&path, &events).expect("write perfetto trace");
        eprintln!("wrote {} ({} trace events)", path.display(), events.len());
    }
    if let Some(path) = args.json_out {
        let mut summary =
            Artifact::new(&SLO, "adaserve_sim", args.seed, Some(args.duration_s * 1e3));
        summary.rows.push(slo_row(
            format!("engine={} model={}", kind.name(), args.model.name()),
            &report,
        ));
        summary.write(&path).expect("write BENCH json");
    }
}
