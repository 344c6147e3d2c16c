//! Every figure and table of the paper's evaluation, by name:
//!
//! ```text
//! cargo run --release -p nups-bench --bin figures -- fig6 --task kge --scale tiny
//! cargo run --release -p nups-bench --bin figures            # list them
//! ```
//!
//! The figures and their flags are listed in `nups_bench::figures`.

use nups_bench::figures::FIGURES;
use nups_bench::Args;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if let Some(figure) = FIGURES.iter().find(|f| f.name == name) {
        return (figure.run)(&Args::parse());
    }
    println!("usage: figures <name> [--key value ...]\n");
    for f in FIGURES {
        println!("  {:<15} {}", f.name, f.about);
    }
    if !name.is_empty() {
        eprintln!("\nunknown figure {name:?}");
        std::process::exit(2);
    }
}
