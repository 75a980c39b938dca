//! Run one paper-claim experiment, or all of them, and print the
//! tables:
//!
//! ```text
//! exp <id|all> [out]
//! ```
//!
//! `id` is one of `e1`…`e12`, `a1`…`a7`. With `out`, `a5`, `a6` and
//! `a7` also write their points as JSON to that path (the baselines CI
//! records as artifacts), and `all` dumps a traced normal-case run
//! through the structured-trace exporters into the directory `out`:
//! `e1-trace.jsonl` (schema-checked) and `e1-trace-chrome.json`
//! (loadable in chrome://tracing / Perfetto).

use std::path::Path;
use std::time::Duration;

use vsr_bench::experiments::{self, a5, a6, a7};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (id, out) = match args.as_slice() {
        [id] => (id.as_str(), None),
        [id, out] => (id.as_str(), Some(out.as_str())),
        _ => usage(),
    };
    let window = Duration::from_millis(1_000);
    match (id, out) {
        ("all", _) => {
            print!("{}", experiments::run_all());
            if let Some(dir) = out {
                dump_trace(Path::new(dir));
            }
        }
        ("a5", Some(path)) => emit(&a5::measure_all(), a5::render, a5::to_json, path),
        ("a6", Some(path)) => emit(&a6::measure_all(window), a6::render, a6::to_json, path),
        ("a7", Some(path)) => emit(&a7::measure_all(window), a7::render, a7::to_json, path),
        _ => print!("{}", experiments::run(id).unwrap_or_else(|| usage())),
    }
}

fn usage() -> ! {
    let ids: Vec<&str> = experiments::ALL.iter().map(|(id, _)| *id).collect();
    eprintln!("usage: exp <{}|all> [out]", ids.join("|"));
    std::process::exit(2);
}

/// Print an experiment's table, then write its points as JSON.
fn emit<T>(points: &[T], render: fn(&[T]) -> String, to_json: fn(&[T]) -> String, path: &str) {
    print!("{}", render(points));
    std::fs::write(path, to_json(points)).expect("write baseline json");
    eprintln!("wrote {path}");
}

fn dump_trace(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create trace output directory");
    let mut world = vsr_bench::helpers::vr_world(
        1,
        3,
        vsr_simnet::NetConfig::reliable(1),
        vsr_core::config::CohortConfig::new(),
    );
    let recorder = world.enable_tracing();
    vsr_bench::helpers::run_sequential_batch(&mut world, 10, vsr_bench::helpers::write_ops);
    let events = recorder.take();
    let jsonl = vsr_obs::export_jsonl(&events);
    vsr_obs::validate_jsonl(&jsonl).expect("trace JSONL is schema-valid");
    std::fs::write(dir.join("e1-trace.jsonl"), &jsonl).expect("write JSONL trace");
    std::fs::write(dir.join("e1-trace-chrome.json"), vsr_obs::export_chrome(&events))
        .expect("write chrome trace");
    eprintln!("wrote {} trace events to {}", events.len(), dir.display());
}
