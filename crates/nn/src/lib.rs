//! Trainable decoder-only transformer language models.
//!
//! This crate is the workspace's LLM substrate. The paper evaluates NORA on
//! OPT, LLaMA and Mistral checkpoints; running billion-parameter models is
//! out of scope for a self-contained Rust reproduction, so this crate builds
//! the *phenomenon* instead: small decoder-only transformers, trained from
//! scratch in-repo (manual backprop + Adam), whose activation statistics are
//! then shaped to match each model family via **function-preserving outlier
//! injection** (see [`zoo`]). The FP32 forward pass is bit-identical before
//! and after injection, so the digital baseline stays exact while the analog
//! deployment sees LLM-like heavy-tailed activations (paper Fig. 4:
//! activation kurtosis ≈ 113 vs weight kurtosis ≈ 1.25).
//!
//! Architecture (mirroring OPT's pre-LayerNorm decoder):
//!
//! * token + learned positional [`Embedding`]s,
//! * [`TransformerBlock`]s: `x + Attn(LN1(x))`, `x + FFN(LN2(x))` with
//!   causal multi-head attention and a ReLU FFN (ReLU, as in OPT, keeps
//!   outlier injection exactly function-preserving),
//! * a final LayerNorm and a linear LM head.
//!
//! The six linears of each block (`q`, `k`, `v`, `out`, `fc1`, `fc2`) are the
//! analog-mappable layers — exactly the set the paper programs onto PCM
//! tiles (Fig. 2); everything else (LayerNorm, attention softmax, residuals,
//! the LM head) stays digital. [`deploy::AnalogTransformerLm`] performs that
//! hybrid mapping on top of [`nora_cim::AnalogLinear`].
//!
//! # Example
//!
//! ```
//! use nora_nn::{ModelConfig, TransformerLm};
//! use nora_tensor::rng::Rng;
//!
//! let cfg = ModelConfig::tiny_for_tests();
//! let mut model = TransformerLm::new(cfg, &mut Rng::seed_from(0));
//! let logits = model.forward(&[1, 2, 3]);
//! assert_eq!(logits.shape(), (3, model.config().vocab));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod block;
mod embedding;
mod layernorm;
mod linear;
mod model;
mod param;
mod softmax;

pub mod corpus;
pub mod deploy;
pub mod generate;
pub mod serialize;
pub mod ste;
pub mod trainer;
pub mod zoo;

pub use attention::MultiHeadAttention;
pub use block::TransformerBlock;
pub use embedding::Embedding;
pub use layernorm::LayerNorm;
pub use linear::DigitalLinear;
pub use model::{KvCache, KvView, LinearId, LinearKind, ModelConfig, TransformerLm};
pub use param::Param;
pub use softmax::{cross_entropy, softmax_rows};
