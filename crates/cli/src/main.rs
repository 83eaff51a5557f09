//! `tetra` — the command-line driver.
//!
//! The paper's system ships "a command line driver program ... which simply
//! calls the interpreter on its argument from start to finish" (§IV); this
//! driver adds the rest of the toolbox built in this reproduction:
//!
//! ```text
//! tetra run <file.tet> [--threads N] [--gc-stress] [--gc-stats]
//!                      [--trace out.json] [--metrics] [--heap-profile]
//! tetra profile <file.tet> [--flame out.folded]  # paths/lines/locks/heap/GC
//! tetra check <file.tet>
//! tetra tokens <file.tet>
//! tetra ast <file.tet>
//! tetra pretty <file.tet>
//! tetra disasm <file.tet>
//! tetra sim <file.tet> [--threads N] [--gil] [--static-chunks] [--heap-profile]
//! tetra trace <file.tet> [--threads N]         # thread timeline + races
//! tetra debug <file.tet>                       # interactive parallel debugger
//! tetra bench (primes|tsp|sum|gil) [--threads 1,2,4,8]
//! ```

mod commands;
mod debug_cli;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
