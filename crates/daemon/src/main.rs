//! The `urhunterd` binary: parse flags, start the daemon, serve until
//! `/shutdown` (or until `--max-epochs` epochs are done *and* a shutdown
//! is requested).

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match urhunterd::parse_flags(&args) {
        Ok(cfg) => cfg,
        Err(msg) if msg == urhunterd::usage() => {
            print!("{msg}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprint!("{}", urhunterd::usage());
            return ExitCode::from(2);
        }
    };
    let handle = match urhunterd::start(cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("urhunterd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // ci.sh and the quickstart client parse this line for the bound port.
    println!("urhunterd: listening on http://{}", handle.addr());
    let state = handle.join();
    println!(
        "urhunterd: shut down after {} epochs ({} URs tracked, {} present)",
        state.epochs_done,
        state.store.len(),
        state.store.present_len()
    );
    ExitCode::SUCCESS
}
