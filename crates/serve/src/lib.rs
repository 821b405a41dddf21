//! Batched multi-sequence serving engine for NORA deployments.
//!
//! The paper's premise is efficient LLM *inference* on analog
//! compute-in-memory tiles; the standard way real inference stacks amortize
//! weight-stationary hardware is **continuous batching** across concurrent
//! requests. Analog CIM makes this especially natural: the programmed tiles
//! are shared state that every in-flight sequence reuses — one
//! [`nora_nn::deploy::AnalogTransformerLm`] (or FP32
//! [`nora_nn::TransformerLm`]) serves all sequences, while each sequence
//! keeps its own sliding-window [`nora_nn::KvCache`].
//!
//! The [`GenerationEngine`] admits concurrent [`GenRequest`]s through an
//! [`AdmissionQueue`] — strict priorities, weighted per-tenant fair
//! scheduling, deadline tiebreaks, optional depth-bound backpressure
//! (shedding) and cancellation; a single-tenant uniform-priority workload
//! degenerates to exact FIFO. It runs lockstep decode rounds over the
//! active slots (up to a configurable batch width), retires finished
//! requests mid-flight and back-fills their slots from the queue. Both
//! digital and analog decode rounds fan the per-sequence steps out through
//! [`nora_parallel`] under the workspace's bit-identity contract: outputs
//! are the same at any `NORA_THREADS` because every sequence's step is
//! independent — own cache, own sampler RNG, and (for analog)
//! counter-keyed noise streams derived from the request's own identity —
//! and results land in slot order regardless of execution order.
//!
//! Sliding-window semantics match [`nora_nn::generate::generate_digital`]'s
//! truncation exactly: a batch of one greedy request reproduces
//! [`nora_nn::generate::generate_digital_cached`] token for token, past
//! `max_seq` included (the engine rebases a full cache the same way).
//!
//! # Example
//!
//! ```
//! use nora_nn::generate::Sampling;
//! use nora_nn::{ModelConfig, TransformerLm};
//! use nora_serve::{DigitalBackend, EngineConfig, GenRequest, GenerationEngine};
//! use nora_tensor::rng::Rng;
//!
//! let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(0));
//! let mut engine =
//!     GenerationEngine::new(DigitalBackend::new(&model), EngineConfig::with_max_batch(4));
//! for seed in 0..6 {
//!     engine.submit(GenRequest::new(vec![1, 2, 3], 5).with_seed(seed));
//! }
//! let results = engine.run_to_completion();
//! assert_eq!(results.len(), 6);
//! assert!(results.iter().all(|r| r.tokens.len() == 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod engine;
mod queue;

pub use backend::{AnalogBackend, Backend, DigitalBackend, SlotStep, TileRef};
pub use engine::{
    EngineConfig, EngineReport, GenRequest, GenResult, GenerationEngine, MaintenanceConfig,
    MaintenanceState, RequestLatency, RequestOutcome,
};
pub use queue::{AdmissionQueue, QueueConfig};
