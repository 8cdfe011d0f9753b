//! The repository's benchmark: three workloads, each measured end to end
//! (tracing off) or per layer (tracing on), with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <imbalance-ring|chatter-ring|paper-sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). The lines before
//! it give the measured configuration, sample counts, ratio bases and the
//! per-rank time accounting. `perfbench/layers.json` says which end-to-end
//! metric each per-layer metric should move, and on which workload.

mod chatter;
mod imbalance;
mod papersim;
mod report;
mod rt;
mod span;
mod spans_out;
mod timed;

use report::Outcome;
use std::time::Duration;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("makespan_s", "s"),
    ("efficiency", "ratio"),
    ("lb_reaction_p50_ms", "ms"),
    ("msgs_per_s", "1/s"),
    ("msg_latency_p50_us", "us"),
    ("msg_latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

const PANELS: [&str; 6] = [
    "nolb",
    "prema_explicit",
    "prema_implicit",
    "parmetis",
    "charm_nosync",
    "charm_sync4",
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload leaves idle reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("core.step_overhead_us", "us"),
        ("core.poll_us", "us"),
        ("core.migrate_us", "us"),
        ("core.idle_frac", "ratio"),
        ("core.self_frac", "ratio"),
        ("core.poller_wakes_per_s", "1/s"),
        ("core.steps", "count"),
        ("core.poller_wakes", "count"),
        ("ilb.requests_sent", "count"),
        ("ilb.granted", "count"),
        ("ilb.grant_rate", "ratio"),
        ("ilb.nacks_recv", "count"),
        ("ilb.request_timeouts", "count"),
        ("ilb.vetoes", "count"),
        ("ilb.max_exec_share", "ratio"),
        ("mol.cache_hit_rate", "ratio"),
        ("mol.cache_hits", "count"),
        ("mol.cache_misses", "count"),
        ("mol.cache_stale", "count"),
        ("mol.forwarded_per_msg", "ratio"),
        ("mol.home_lookups_per_msg", "ratio"),
        ("mol.dir_publishes_per_migration", "ratio"),
        ("mol.chain_p99", "hops"),
        ("mol.migrations_in", "count"),
        ("mol.migrations_out", "count"),
        ("dcs.send_us", "us"),
        ("dcs.recv_probe_us", "us"),
        ("dcs.recv_empty_frac", "ratio"),
        ("dcs.recv_wait_s", "s"),
        ("dcs.self_frac", "ratio"),
        ("dcs.envelopes_per_msg", "ratio"),
        ("dcs.frames_per_msg", "ratio"),
        ("dcs.bytes_per_msg", "B"),
        ("dcs.envelopes", "count"),
        ("dcs.probes", "count"),
        ("app.handler_us", "us"),
        ("app.busy_frac", "ratio"),
        ("app.msgs", "count"),
        ("residual_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
        ("trace.runtime_spans", "count"),
        ("trace.dropped_spans", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for p in PANELS {
        out.push((format!("harness.{p}.wall_s"), "s"));
    }
    for (n, u) in [
        ("harness.mesh_study.wall_s", "s"),
        ("sim.events", "count"),
        ("sim.events_per_s", "1/s"),
        ("mesh.tets", "count"),
        ("mesh.mesher_wall_s", "s"),
    ] {
        out.push((n.to_string(), u));
    }
    for fig in 3..=6 {
        for p in PANELS {
            out.push((format!("sim.fig{fig}.{p}.makespan_s"), "s"));
        }
    }
    for c in ["nolb", "stop_repart", "prema"] {
        out.push((format!("sim.mesh.{c}.makespan_s"), "s"));
    }
    out
}

const WORKLOADS: [&str; 3] = ["imbalance-ring", "chatter-ring", "paper-sim"];

/// The whole run, build excluded, must end well inside the three minutes a
/// run is allowed; past this the benchmark reports a hang and exits.
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every PREMA_* variable overrides a runtime setting at launch
    // (batching, chaos, pinning, ring capacity, the stability governor);
    // numbers measured under one would not describe the shipped defaults.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PREMA_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with runtime overrides set: {}",
            overrides.join(", ")
        );
        std::process::exit(2);
    }
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        println!("perfbench: run exceeded {HARD_LIMIT:?}; reporting a hang");
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(1);
    });

    println!(
        "config: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "config: build={} with prema, prema-mol, prema-ilb at default-features = false (check-invariants oracles off); no PREMA_* overrides",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    println!(
        "config: host available_parallelism={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.workload != "paper-sim" {
        println!(
            "config: runtime {:?} (policy seed replaced by the run's seed), {} ranks in one process",
            prema::PremaConfig::implicit(rt::NPROCS),
            rt::NPROCS
        );
    }

    let mut out: Outcome = match args.workload.as_str() {
        "imbalance-ring" => imbalance::run(args.seed, args.seconds, args.trace),
        "chatter-ring" => chatter::run(args.seed, args.seconds, args.trace),
        "paper-sim" => papersim::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated in parse_args"),
    };
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");

    for line in &out.notes {
        println!("{line}");
    }
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut result = Outcome {
        attempted: out.attempted,
        failed: out.failed,
        ..Outcome::default()
    };
    for (name, unit) in wanted {
        let found = out.metrics.iter().find(|m| m.name == name);
        if found.is_none() && !args.trace {
            panic!("end-to-end metric {name} not produced");
        }
        let value = found.map_or(0.0, |m| m.value);
        println!("metric: {name} = {value} {unit}");
        result.metric(name, value, unit);
    }
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    /// `BENCHMARK.json` and `layers.json` name exactly the metrics this
    /// binary prints.
    #[test]
    fn manifests_match_the_metric_catalog() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let bench =
            std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("BENCHMARK.json");
        let layers =
            std::fs::read_to_string(format!("{root}/perfbench/layers.json")).expect("layers.json");
        let quoted = |n: &str| format!("\"name\": \"{n}\"");
        for (name, unit) in super::END_TO_END {
            assert!(
                bench.contains(&format!("{}, \"unit\": \"{unit}\"", quoted(name))),
                "{name}"
            );
        }
        for (name, unit) in super::per_layer() {
            assert!(
                bench.contains(&format!("{}, \"unit\": \"{unit}\"", quoted(&name))),
                "{name}"
            );
            assert!(
                layers.contains(&format!("\"{name}\"")),
                "{name} missing from layers.json"
            );
        }
        let listed = bench.matches("\"name\": ").count();
        assert_eq!(
            listed,
            super::END_TO_END.len() + super::per_layer().len() + super::WORKLOADS.len()
        );
    }
}
