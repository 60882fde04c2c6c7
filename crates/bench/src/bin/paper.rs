//! Print the paper's tables and figures, regenerated — the committed
//! `RESULTS.md` — to stdout (see [`bench::paper`]), and exit non-zero when
//! a measured value is outside its band.
//!
//! ```sh
//! ./target/release/paper | diff -u RESULTS.md -   # what ci.sh does
//! ./target/release/paper > RESULTS.md             # refresh; say why in CHANGES.md
//! ```

fn main() {
    let doc = bench::paper::document();
    print!("{doc}");
    let failed = doc.out_of_band();
    failed
        .iter()
        .for_each(|row| eprintln!("paper: out of band: {row}"));
    std::process::exit(i32::from(!failed.is_empty()));
}
