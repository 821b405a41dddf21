//! Property-style tests on the core invariants.
//!
//! Formerly written with `proptest`; rewritten against a small in-tree
//! case-generation loop so the workspace builds with no network access.
//! Each property runs over `CASES` deterministic seeds; inputs are drawn
//! from the same ranges the proptest strategies used.

use nora::cim::{AnalogLinear, AnalogTile, TileConfig};
use nora::core::{smoothing_vector, SmoothingConfig};
use nora::device::{NvmModel, PcmModel};
use nora::tensor::quant::Quantizer;
use nora::tensor::{rng::Rng, Matrix};

/// Number of generated cases per property (matches the old proptest config).
const CASES: u64 = 64;

/// Runs `body` once per case with a deterministically seeded generator.
fn for_cases(tag: u64, body: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng::seed_from(tag ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        body(&mut rng);
    }
}

fn gen_range_u(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

#[test]
fn quantizer_output_is_in_range_idempotent_and_close() {
    for_cases(0x11, |rng| {
        let bits = gen_range_u(rng, 2, 10) as u32;
        let bound = rng.uniform(0.1, 10.0);
        let x = rng.uniform(-100.0, 100.0);
        let q = Quantizer::with_bits(bits, bound);
        let y = q.quantize(x);
        assert!(y.abs() <= bound + 1e-5);
        assert_eq!(q.quantize(y), y);
        if x.abs() <= bound {
            assert!((y - x).abs() <= q.step() / 2.0 + 1e-5);
        }
    });
}

#[test]
fn quantizer_is_monotone() {
    for_cases(0x12, |rng| {
        let bits = gen_range_u(rng, 2, 8) as u32;
        let a = rng.uniform(-5.0, 5.0);
        let b = rng.uniform(-5.0, 5.0);
        let q = Quantizer::with_bits(bits, 1.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(q.quantize(lo) <= q.quantize(hi));
    });
}

#[test]
fn slice_quantizers_match_the_scalar_path() {
    use nora::tensor::quant::Rounding;
    for_cases(0x1f, |rng| {
        let bits = gen_range_u(rng, 2, 10) as u32;
        let n = gen_range_u(rng, 1, 64);
        let xs: Vec<f32> = (0..n).map(|_| rng.uniform(-1.5, 1.5)).collect();
        let seed = rng.next_u64();

        let q = Quantizer::with_bits(bits, 1.0);
        let mut nearest = xs.clone();
        q.quantize_slice_with(&mut nearest, &mut Rng::seed_from(seed));
        let mut plain = xs.clone();
        q.quantize_slice(&mut plain);
        assert_eq!(nearest, plain);

        // Stochastic rounding draws once per element, in order, so the slice
        // equals the scalar path bit for bit, and each output is one of the
        // two grid levels around its clipped input.
        let q = q.with_rounding(Rounding::Stochastic);
        let mut sliced = xs.clone();
        q.quantize_slice_with(&mut sliced, &mut Rng::seed_from(seed));
        let mut scalar_rng = Rng::seed_from(seed);
        for (&x, &y) in xs.iter().zip(&sliced) {
            assert_eq!(y, q.quantize_with(x, &mut scalar_rng));
            let level_gap = (y - x.clamp(-1.0, 1.0)).abs();
            assert!(level_gap <= q.step() + 1e-6, "{x} -> {y}");
        }
    });
}

#[test]
fn smoothing_factors_positive_finite_and_monotone_in_activation() {
    for_cases(0x13, |rng| {
        let lambda = rng.uniform(0.0, 1.0);
        let n = gen_range_u(rng, 1, 32);
        let act: Vec<f32> = (0..n).map(|_| rng.uniform(0.0, 1000.0)).collect();
        let w_max = rng.uniform(0.001, 10.0);
        let weights = vec![w_max; act.len()];
        let cfg = SmoothingConfig { lambda, eps: 1e-5 };
        let s = smoothing_vector(&act, &weights, cfg);
        assert!(s.iter().all(|&v| v.is_finite() && v > 0.0));
        // For fixed weights and λ>0, a larger activation max never gets a
        // smaller factor (dead channels excepted — they map to 1).
        if lambda > 0.0 {
            for (i, &a) in act.iter().enumerate() {
                for (j, &b) in act.iter().enumerate() {
                    if a > 0.0 && b > 0.0 && a <= b {
                        assert!(
                            s[i] <= s[j] * (1.0 + 1e-4),
                            "act {a} vs {b}: s {} vs {}",
                            s[i],
                            s[j]
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn lambda_endpoints_match_closed_forms() {
    for_cases(0x14, |rng| {
        let n = gen_range_u(rng, 1, 16);
        let act: Vec<f32> = (0..n).map(|_| rng.uniform(0.01, 100.0)).collect();
        let w = rng.uniform(0.01, 100.0);
        let ws = vec![w; n];
        let s0 = smoothing_vector(&act, &ws, SmoothingConfig::with_lambda(0.0));
        let s1 = smoothing_vector(&act, &ws, SmoothingConfig::with_lambda(1.0));
        for k in 0..n {
            assert!((s0[k] - 1.0 / ws[k]).abs() / (1.0 / ws[k]) < 1e-3);
            assert!((s1[k] - act[k]).abs() / act[k] < 1e-3);
        }
    });
}

#[test]
fn ideal_tile_is_exact_for_any_smoothing() {
    for_cases(0x15, |rng| {
        let rows = gen_range_u(rng, 2, 24);
        let cols = gen_range_u(rng, 2, 16);
        let seed = rng.next_u64() % 1000;
        let mut grng = Rng::seed_from(seed);
        let w = Matrix::random_normal(rows, cols, 0.0, 1.0, &mut grng);
        let x = Matrix::random_normal(3, rows, 0.0, 1.0, &mut grng);
        let s: Vec<f32> = (0..rows).map(|_| grng.uniform(0.05, 20.0)).collect();
        let mut tile = AnalogTile::new(
            w.clone(),
            Some(&s),
            TileConfig::ideal(),
            Rng::seed_from(seed ^ 1),
        );
        let y = tile.forward(&x);
        let reference = x.matmul(&w);
        let scale = reference
            .as_slice()
            .iter()
            .fold(1e-6f32, |m, &v| m.max(v.abs())) as f64;
        assert!(y.mse(&reference).sqrt() / scale < 1e-4);
    });
}

#[test]
fn tile_partitioning_reassembles_exactly() {
    for_cases(0x16, |rng| {
        let d_in = gen_range_u(rng, 2, 60);
        let d_out = gen_range_u(rng, 2, 40);
        let tile_rows = gen_range_u(rng, 2, 20);
        let tile_cols = gen_range_u(rng, 2, 20);
        let seed = rng.next_u64() % 500;
        let mut grng = Rng::seed_from(seed);
        let w = Matrix::random_normal(d_in, d_out, 0.0, 0.5, &mut grng);
        let x = Matrix::random_normal(2, d_in, 0.0, 1.0, &mut grng);
        let cfg = TileConfig::ideal().with_tile_size(tile_rows, tile_cols);
        let mut layer = AnalogLinear::new(w.clone(), None, cfg, seed);
        let y = layer.forward(&x);
        let reference = x.matmul(&w);
        let scale = reference
            .as_slice()
            .iter()
            .fold(1e-6f32, |m, &v| m.max(v.abs())) as f64;
        assert!(y.mse(&reference).sqrt() / scale < 1e-4);
    });
}

#[test]
fn pcm_drift_is_monotone_decreasing_in_time() {
    for_cases(0x17, |rng| {
        let g = rng.uniform(1.0, 25.0);
        let pcm = PcmModel::default();
        let cell = pcm.program(g, rng);
        let mut prev = f32::INFINITY;
        for &t in &[20.0, 100.0, 1000.0, 3600.0, 86_400.0] {
            let now = cell.drifted(&pcm, t);
            assert!(now <= prev + 1e-6);
            assert!(now >= 0.0);
            prev = now;
        }
    });
}

#[test]
fn matrix_transpose_is_involutive_and_matmul_matches_matvec() {
    for_cases(0x18, |rng| {
        let rows = gen_range_u(rng, 1, 12);
        let cols = gen_range_u(rng, 1, 12);
        let m = Matrix::random_normal(rows, cols, 0.0, 1.0, rng);
        assert_eq!(m.transpose().transpose(), m.clone());
        let x: Vec<f32> = (0..cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let via_matvec = m.matvec(&x);
        let xm = Matrix::from_vec(cols, 1, x);
        let via_matmul = m.matmul(&xm);
        for r in 0..rows {
            assert!((via_matvec[r] - via_matmul[(r, 0)]).abs() < 1e-4);
        }
    });
}

#[test]
fn rng_streams_are_reproducible() {
    for_cases(0x19, |rng| {
        let seed = rng.next_u64();
        let mut a = Rng::seed_from(seed);
        let mut b = Rng::seed_from(seed);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    });
}

#[test]
fn serializer_round_trips_random_architectures() {
    use nora::nn::serialize::{load, save, SavedMeta};
    use nora::nn::{ModelConfig, TransformerLm};
    // Exhaustive over the architecture grid the proptest strategy covered,
    // capped to keep runtime in check.
    for_cases(0x1a, |rng| {
        let vocab = gen_range_u(rng, 2, 24);
        let d_model = 2usize << (1 + rng.below(3) as u32); // {4, 8, 16}
        let layers = gen_range_u(rng, 1, 3);
        let seed = rng.next_u64() % 1000;
        let cfg = ModelConfig {
            vocab,
            max_seq: 8,
            d_model,
            heads: 2,
            d_ff: d_model * 2,
            layers,
        };
        let model = TransformerLm::new(cfg, &mut Rng::seed_from(seed));
        let mut buf = Vec::new();
        save(
            &model,
            SavedMeta {
                first_loss: 1.0,
                final_loss: 0.5,
            },
            &mut buf,
        )
        .unwrap();
        let (loaded, _) = load(buf.as_slice()).unwrap();
        let tokens: Vec<usize> = (0..6).map(|i| i % vocab).collect();
        assert_eq!(model.forward(&tokens), loaded.forward(&tokens));
    });
}

#[test]
fn corpus_episodes_always_well_formed() {
    use nora::nn::corpus::{Corpus, CorpusConfig, FIRST_CONTENT, KEY_MARK, QUERY_MARK};
    for_cases(0x1b, |rng| {
        let vocab = gen_range_u(rng, 8, 64);
        let seq_len = 1usize << (3 + rng.below(4) as u32); // {8..64}
        let seed = rng.next_u64() % 1000;
        let mut corpus = Corpus::new(CorpusConfig::new(vocab, seq_len, seed));
        for _ in 0..5 {
            let ep = corpus.episode();
            assert_eq!(ep.tokens.len(), seq_len);
            assert_eq!(ep.tokens[seq_len - 2], QUERY_MARK);
            assert_eq!(ep.tokens[seq_len - 1], ep.key);
            assert!(ep.key >= FIRST_CONTENT && ep.key < vocab);
            let key_pos = ep.tokens.iter().position(|&t| t == KEY_MARK);
            assert!(key_pos.is_some());
            assert_eq!(ep.tokens[key_pos.unwrap() + 1], ep.key);
            assert!(ep.tokens.iter().all(|&t| t < vocab));
        }
    });
}

#[test]
fn sliced_programming_never_hurts() {
    use nora::device::{program_matrix_sliced, read_sliced_mean, PcmModel};
    for_cases(0x1c, |rng| {
        let slices = 1 + rng.below(3) as u32;
        let seed = rng.next_u64() % 300;
        let mut grng = Rng::seed_from(seed);
        let w = Matrix::random_uniform(8, 8, -1.0, 1.0, &mut grng);
        let pcm = PcmModel::default();
        let mut prog_rng = Rng::seed_from(seed ^ 0xab);
        let sliced = program_matrix_sliced(&w, &pcm, slices, 8.0, &mut prog_rng);
        let back = read_sliced_mean(&sliced, &pcm, 0.0);
        let rmse = nora::tensor::stats::rmse(w.as_slice(), back.as_slice());
        // Single-slice PCM error is ~0.04 normalised; more slices only
        // improve on it. Allow generous slack for small-sample noise.
        let ceiling = 0.12 / (8.0f64).powi(slices as i32 - 1).min(64.0);
        assert!(rmse < ceiling.max(0.01), "slices {slices}: rmse {rmse}");
    });
}

#[test]
fn bit_serial_error_bounded_by_lsb() {
    use nora::cim::InputEncoding;
    for_cases(0x1d, |rng| {
        let bits = gen_range_u(rng, 3, 9) as u32;
        let seed = rng.next_u64() % 300;
        let mut grng = Rng::seed_from(seed);
        let w = Matrix::random_normal(12, 6, 0.0, 0.5, &mut grng);
        let x = Matrix::random_normal(2, 12, 0.0, 1.0, &mut grng);
        let mut cfg = TileConfig::ideal();
        cfg.input_encoding = InputEncoding::BitSerial { bits };
        let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(seed ^ 1));
        let y = tile.forward(&x);
        let reference = x.matmul(&w);
        // Quantization error per input ≤ α·LSB/2; through the GEMV the
        // worst case is Σ|ŵ| times that. Use a loose bound: rows · LSB.
        let alpha_max = x.row_abs_max().iter().fold(0.0f32, |m, &v| m.max(v));
        let lsb = 1.0 / ((1u32 << (bits - 1)) - 1) as f32;
        let bound = 12.0 * lsb * alpha_max;
        for (a, b) in y.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() <= bound, "err {} bound {bound}", (a - b).abs());
        }
    });
}
