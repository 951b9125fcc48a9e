//! The HARBOR benchmark: `ingest`, `report` and `recover` workloads driven
//! through the cluster's public APIs, with every output checked.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics from an untraced run; `--trace 1` makes an untraced run and then
//! a traced one, and reports the per-layer metrics plus the tracing
//! overhead (traced minus untraced medians). A failed output check exits
//! non-zero and prints no metrics. See `benchmark/README.md` for why each
//! workload exists and which layer should move which metric.

mod harness;
mod model;
mod stats;
mod trace;

use harness::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("txn_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("recovery_s", "s"),
    ("recovering_commit_p90_ms", "ms"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics, from the traced run, named after the crates.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("front.self_ms_p50", "ms"),
    ("front.self_ms_p99", "ms"),
    ("front.admitted", "count"),
    ("front.shed", "count"),
    ("front.queue_peak", "count"),
    ("dist.begin_ms_p50", "ms"),
    ("dist.update_ms_p50", "ms"),
    ("dist.commit_ms_p50", "ms"),
    ("dist.commit_ms_p99", "ms"),
    ("dist.aborts", "count"),
    ("dist.rpc_timeouts", "count"),
    ("dist.rpc_retries", "count"),
    ("net.msgs_per_txn", "count/txn"),
    ("net.bytes_per_txn", "bytes/txn"),
    ("net.bytes_per_query", "bytes/query"),
    ("wal.forces_per_txn", "count/txn"),
    ("wal.syncs_per_txn", "count/txn"),
    ("wal.batched_syncs_saved", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_misses", "count"),
    ("storage.evictions", "count"),
    ("storage.page_reads", "count"),
    ("storage.page_writes", "count"),
    ("storage.lock_waits", "count"),
    ("storage.lock_timeouts", "count"),
    ("storage.disk_bytes", "bytes"),
    ("exec.rows_examined_per_returned", "ratio"),
    ("exec.local_scan_ms_p50", "ms"),
    ("engine.index_hits", "count"),
    ("engine.index_misses", "count"),
    ("engine.checkpoint_ms_p50", "ms"),
    ("core.phase1_ms", "ms"),
    ("core.phase2_deletes_ms", "ms"),
    ("core.phase2_inserts_ms", "ms"),
    ("core.phase3_ms", "ms"),
    ("core.tuples_copied", "count"),
    ("core.deletions_copied", "count"),
    ("core.ranges_fetched", "count"),
    ("core.ranges_reassigned", "count"),
    ("core.recovery_bytes_shipped", "bytes"),
    ("failed_frac", "ratio"),
    ("trace.commit_overhead_ms", "ms"),
    ("trace.query_overhead_ms", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: every listed metric, by name, with its unit.
fn result_json(
    attempted: u64,
    failed: u64,
    list: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in list {
        if !stats::valid_metric_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a number: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main_inner() -> Result<String, String> {
    let args = parse_args()?;
    let work = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let plain = harness::run(args.workload, args.seed, args.seconds, false, &work)?;
    for note in &plain.notes {
        eprintln!("  {note}");
    }
    if !args.trace {
        return result_json(plain.attempted, plain.failed, END_TO_END, &plain.e2e);
    }
    let mut traced = harness::run(args.workload, args.seed, args.seconds, true, &work)?;
    for note in &traced.notes {
        eprintln!("  traced {note}");
    }
    for (name, _) in END_TO_END {
        eprintln!(
            "  {name}: untraced {:.4}, traced {:.4}",
            plain.e2e[name], traced.e2e[name]
        );
    }
    for (name, base) in [
        ("trace.commit_overhead_ms", "commit_p50_ms"),
        ("trace.query_overhead_ms", "query_p50_ms"),
    ] {
        traced
            .layers
            .insert(name, traced.e2e[base] - plain.e2e[base]);
    }
    let spans = work.join(format!("spans-{:?}-{}.jsonl", args.workload, args.seed).to_lowercase());
    trace::write_spans(&spans, &traced.spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    eprintln!("spans written to {}", spans.display());
    result_json(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        PER_LAYER,
        &traced.layers,
    )
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_metric_names_and_units_are_valid() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                declared.contains(name),
                "{name} missing from BENCHMARK.json"
            );
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}: unit {unit} differs in BENCHMARK.json"
            );
        }
        for w in ["ingest", "report", "recover"] {
            assert!(declared.contains(&w), "workload {w} missing");
            assert!(Workload::parse(w).is_some());
        }
        assert_eq!(declared.len(), END_TO_END.len() + PER_LAYER.len() + 3);
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_metrics() {
        let mut v = BTreeMap::new();
        v.insert("a", 1.5);
        let line = result_json(3, 0, &[("a", "ms")], &v).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(3, 0, &[("b", "ms")], &v).is_err());
        v.insert("a", f64::NAN);
        assert!(result_json(3, 0, &[("a", "ms")], &v).is_err());
    }
}
