//! `setsim-ladder` binary: see the library's `cli` module.

fn main() -> std::process::ExitCode {
    setsim_ladder::cli::main()
}
