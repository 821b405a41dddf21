//! Workload inputs made from `--seed`.
//!
//! Calibration sequences, evaluation episodes and serving prompts all come
//! from the preset's own corpus language, drawn after its training stream
//! (so the model never saw them) at an offset set by the seed. The same
//! seed always yields the same inputs.

use nora_nn::corpus::{Corpus, Episode};

/// Calibration sequences per run, as in the paper-regeneration binaries.
pub const CALIB_SEQS: usize = 16;

/// Largest extra offset, in episodes, past the training stream.
const MAX_OFFSET: u64 = 1 << 14;

/// SplitMix64 finalizer: spreads nearby seeds over the offset range and
/// derives independent per-request and per-point seeds.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The preset's corpus, advanced past the training stream and then by the
/// seed's offset.
pub fn corpus_for_seed(seed: u64) -> Corpus {
    let spec = crate::model::preset();
    let mut corpus = Corpus::new(spec.corpus);
    let trained = spec.train.steps as usize * spec.train.batch_size;
    let skip = trained + (mix(seed) % MAX_OFFSET) as usize;
    for _ in 0..skip {
        corpus.episode();
    }
    corpus
}

/// Inputs shared by every workload: calibration sequences followed by
/// held-out episodes.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Calibration sequences for `nora_core::calibrate`.
    pub calib: Vec<Vec<usize>>,
    /// Held-out episodes: scored by eval-sweep, truncated into prompts by
    /// the serving workloads.
    pub episodes: Vec<Episode>,
}

impl Inputs {
    /// Draws `CALIB_SEQS` calibration sequences and `episodes` episodes.
    pub fn new(seed: u64, episodes: usize) -> Self {
        let mut corpus = corpus_for_seed(seed);
        let calib = (0..CALIB_SEQS).map(|_| corpus.episode().tokens).collect();
        let episodes = corpus.episodes(episodes);
        Self { calib, episodes }
    }

    /// The first `len` tokens of each episode, as serving prompts.
    pub fn prompts(&self, len: usize) -> Vec<Vec<usize>> {
        self.episodes
            .iter()
            .map(|e| e.tokens[..len].to_vec())
            .collect()
    }
}
