//! The `miopt-harness` binary: the figure command and the `serve` and
//! `query` subcommands. See [`miopt_harness::main`].

fn main() {
    std::process::exit(miopt_harness::main(std::env::args().skip(1)));
}
