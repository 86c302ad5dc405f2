//! The one `crusader_bench` binary; see [`crusader_bench::experiments`].

use std::process::ExitCode;

fn main() -> ExitCode {
    match crusader_bench::experiments::dispatch(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
