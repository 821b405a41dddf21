//! Dense numeric substrate for the NORA analog compute-in-memory simulator.
//!
//! This crate provides everything the higher layers need from a linear-algebra
//! and statistics toolkit, with zero external dependencies so that every
//! simulation in the workspace is bit-reproducible from a seed:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the GEMM/GEMV kernels,
//!   per-row/per-column reductions, and slicing used by the tile simulator.
//! * [`rng`] — a deterministic, seedable xoshiro256++ generator with normal
//!   (Box–Muller) and uniform sampling.
//! * [`stats`] — moments, kurtosis, MSE/SNR, histograms, percentiles, and the
//!   Gaussian kernel density estimate used to reproduce the paper's Fig. 4.
//! * [`quant`] — symmetric uniform quantizers shared by the DAC and ADC
//!   models of `nora-cim`.
//! * [`simd`] — hot loops compiled twice (baseline and AVX2) and chosen at
//!   run time, with identical bits; the crate's only `unsafe` lives there.
//!
//! # Example
//!
//! ```
//! use nora_tensor::{Matrix, rng::Rng};
//!
//! let mut rng = Rng::seed_from(42);
//! let a = Matrix::random_normal(4, 8, 0.0, 1.0, &mut rng);
//! let b = Matrix::random_normal(8, 3, 0.0, 1.0, &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!((c.rows(), c.cols()), (4, 3));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
pub mod quant;
pub mod rng;
pub mod simd;
mod sparse;
pub mod stats;

pub use error::{Result, ShapeError};
pub use matrix::Matrix;
pub use sparse::{NmPattern, PackedNmMatrix};
