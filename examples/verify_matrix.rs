//! The verification matrix: every preset pipeline verified against every
//! property class (crash freedom, bounded execution, reachability) on the
//! verification service, with content-addressed summary caching and
//! scenarios composed in parallel on the shared pool.
//!
//! This is a thin shim over the umbrella CLI — identical to running
//! `vericlick run --matrix --selftest`. The machine-readable report is
//! written to `target/verify_matrix.json`; the process exits non-zero if
//! any preset scenario ends `Unknown` (a solver-precision regression) or
//! if the warm-rerun/thread-bound selftest assertions fail. CI relies on
//! this.
//!
//! Run with `cargo run --release --example verify_matrix`.

fn main() {
    std::process::exit(vericlick::cli::main(vec![
        "run".into(),
        "--matrix".into(),
        "--selftest".into(),
    ]));
}
