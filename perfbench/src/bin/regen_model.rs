//! Regenerates the benchmark's model input by training the `opt-2.7b-sim`
//! zoo preset (about a minute on two cores):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin regen-model
//! ```
//!
//! Training is deterministic, so the file should come out byte-identical;
//! if it does not, update `MODEL_FNV1A64` in `src/model.rs` to the printed
//! hash.

fn main() {
    match nora_perfbench::model::regenerate() {
        Ok(hash) => println!(
            "wrote {} (FNV-1a {hash:#018x}, expected {:#018x})",
            nora_perfbench::model::model_path().display(),
            nora_perfbench::model::MODEL_FNV1A64
        ),
        Err(e) => {
            eprintln!("regen-model: {e}");
            std::process::exit(1);
        }
    }
}
