//! Regenerates the paper's tables and figures: `cargo run --release -p
//! proteus-bench --bin figs` lists the ids, `-- fig08 tab01` renders
//! those entries and `-- all` the whole evaluation.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match proteus_bench::run(&args, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figs: {e}");
            ExitCode::FAILURE
        }
    }
}
