//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig12_cold|energy_sat|sn47_point> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints human-readable result lines,
//! then one JSON result line last. `--trace 1` also writes the spans
//! as Chrome trace-event JSON to `perfbench/out/`.

use snoc_perfbench::util::OUT_DIR;
use snoc_perfbench::{result_line, run, RunConfig, Workload};
use std::process::ExitCode;
use std::time::Duration;

/// Hard limit on one invocation; a wedged run exits nonzero instead of
/// hanging.
const DEADLINE: Duration = Duration::from_secs(175);

fn parse() -> Result<(Workload, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: snoc_perfbench::pinned::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("perfbench: deadline of {DEADLINE:?} passed; aborting");
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let report = run(workload, &cfg);
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        report.ledger.error_rate(),
        report.ledger.failed(),
        report.ledger.attempted()
    );
    if cfg.trace {
        let totals = report.tracer.totals();
        println!("self time by span (count, total ms, self ms):");
        for (name, t) in &totals {
            println!(
                "  {name:<32} {:>6} {:>12.3} {:>12.3}",
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            );
        }
        let self_json: Vec<String> = totals
            .iter()
            .map(|(n, t)| format!("\"{n}\": {:.3}", t.self_us))
            .collect();
        let other = [
            ("workload", format!("\"{}\"", workload.name())),
            ("seed", cfg.seed.to_string()),
            (
                "trace_overhead_ms",
                snoc_perfbench::json_number(report.layers.get("trace.overhead_ms")),
            ),
            ("self_time_us", format!("{{{}}}", self_json.join(", "))),
        ];
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", workload.name(), cfg.seed);
        match std::fs::write(&path, report.tracer.chrome_json(&other)) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("perfbench: writing {path}: {e}"),
        }
    }
    println!("{}", result_line(&report, cfg.trace));
    ExitCode::SUCCESS
}
