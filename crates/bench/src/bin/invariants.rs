//! Print the pipeline's exact invariants — the committed
//! `BENCH_pipeline.json` — to stdout (see [`bench::invariants`]); with
//! `--paper`, the paper-scale run's, the committed `BENCH_paper.json`.
//!
//! ```sh
//! ./target/release/invariants | diff -u BENCH_pipeline.json -   # what ci.sh does
//! ./target/release/invariants > BENCH_pipeline.json             # refresh; say why in CHANGES.md
//! ./target/release/invariants --paper | diff -u BENCH_paper.json -
//! ```
//!
//! Nothing that differs between hosts goes into either file; the host's
//! thread count and progress go to stderr.

use bench::invariants::{daemon, document, medium, paper, small, xl};

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::args().nth(1).as_deref() {
        None => {
            eprintln!("invariants: {threads} host thread(s); small, medium, xl, daemon ...");
            print!("{}", document(&[small(), medium(), xl(), daemon()]));
        }
        Some("--paper") => {
            eprintln!("invariants: {threads} host thread(s); the paper-scale run ...");
            print!("{}", paper());
        }
        Some(other) => {
            eprintln!("invariants: unknown argument {other} (the one flag is --paper)");
            std::process::exit(2);
        }
    }
}
