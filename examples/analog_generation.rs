//! Token-by-token generation on analog hardware: the decode loop a NORA
//! deployment would actually serve.
//!
//! Trains a small LM, plants an induction episode as the prompt, and lets
//! the digital model, a naive analog deployment, and a NORA deployment each
//! complete it through the serving engine. The induction answer (the final
//! token) shows directly whether the analog noise broke the model's
//! circuits.
//!
//! Run with: `cargo run --release --example analog_generation`

use nora::cim::TileConfig;
use nora::core::{calibrate, RescalePlan, SmoothingConfig};
use nora::nn::zoo::{tiny_spec, ModelFamily};
use nora::serve::{
    AnalogBackend, Backend, DigitalBackend, EngineConfig, GenRequest, GenerationEngine,
};

/// Greedily completes `prompt` with four new tokens on `backend`.
fn complete(backend: impl Backend, prompt: &[usize]) -> Vec<usize> {
    let mut engine = GenerationEngine::new(backend, EngineConfig::with_max_batch(1));
    engine.submit(GenRequest::new(prompt.to_vec(), 4).with_seed(9));
    engine.run_to_completion().remove(0).tokens
}

fn show(label: &str, tokens: &[usize], prompt_len: usize) {
    let rendered: Vec<String> = tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let s = match t {
                nora::nn::corpus::KEY_MARK => "KEY".to_string(),
                nora::nn::corpus::QUERY_MARK => "QUERY".to_string(),
                other => format!("t{other}"),
            };
            if i >= prompt_len {
                format!("[{s}]")
            } else {
                s
            }
        })
        .collect();
    println!("{label:<16}: {}", rendered.join(" "));
}

fn main() {
    println!("training opt-like model…");
    let mut zoo = tiny_spec(ModelFamily::OptLike, 123).build();
    let calib_seqs: Vec<Vec<usize>> = (0..6).map(|_| zoo.corpus.episode().tokens).collect();
    let calibration = calibrate(&zoo.model, &calib_seqs);
    let plan = RescalePlan::nora(&zoo.model, &calibration, SmoothingConfig::default());

    // The prompt is an episode minus its final answer: the generated first
    // token should be the planted key.
    let episode = zoo.corpus.episode();
    let prompt = &episode.tokens[..episode.tokens.len() - 1];
    println!("expected answer after QUERY: t{}\n", episode.key);

    let digital = complete(DigitalBackend::new(&zoo.model), prompt);
    show("digital", &digital, prompt.len());

    let mut naive =
        RescalePlan::naive().deploy(&zoo.model, TileConfig::paper_default(), 11);
    let naive_out = complete(AnalogBackend::new(&mut naive), prompt);
    show("naive analog", &naive_out, prompt.len());

    let mut nora = plan.deploy(&zoo.model, TileConfig::paper_default(), 11);
    let nora_out = complete(AnalogBackend::new(&mut nora), prompt);
    show("NORA analog", &nora_out, prompt.len());

    println!(
        "\ndigital answers {}, naive analog answers {}, NORA answers {}",
        verdict(&digital, prompt.len(), episode.key),
        verdict(&naive_out, prompt.len(), episode.key),
        verdict(&nora_out, prompt.len(), episode.key),
    );
}

fn verdict(tokens: &[usize], prompt_len: usize, key: usize) -> &'static str {
    if tokens.get(prompt_len) == Some(&key) {
        "correctly"
    } else {
        "WRONG"
    }
}
