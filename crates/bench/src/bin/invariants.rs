//! Print the pipeline's exact invariants — the committed
//! `BENCH_pipeline.json` — to stdout (see [`bench::invariants`]).
//!
//! ```sh
//! ./target/release/invariants | diff -u BENCH_pipeline.json -   # what ci.sh does
//! ./target/release/invariants > BENCH_pipeline.json             # refresh; say why in CHANGES.md
//! ```
//!
//! Nothing that differs between hosts goes into the file; the host's thread
//! count and progress go to stderr.

use bench::invariants::{daemon, document, medium, small, xl};

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("invariants: {threads} host thread(s); small, medium, xl, daemon ...");
    print!("{}", document(&[small(), medium(), xl(), daemon()]));
}
