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

/// Stack for the thread that runs a command. The front end and the VM
/// compiler recurse once per level of an expression, and the parser admits
/// expression trees 8,000 levels deep: in an unoptimized build that needs
/// more than the process main thread's stack.
const COMMAND_STACK_SIZE: usize = 64 * 1024 * 1024;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = std::thread::Builder::new()
        .name("tetra".to_string())
        .stack_size(COMMAND_STACK_SIZE)
        .spawn(move || commands::dispatch(&args))
        .expect("could not start the command thread");
    match command.join().expect("the command thread panicked") {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
