//! Simulator-grade determinism: every stochastic component is seeded, so
//! identical inputs must produce bit-identical experiment results across
//! runs — the property that makes the `results/` files reproducible.

use nora::cim::{AnalogLinear, AnalogTile, FaultPlan, FaultTolerance, NonIdeality, TileConfig};
use nora::core::{calibrate, RescalePlan, SmoothingConfig};
use nora::eval::noise_level::{severity_for_mse, RefWorkload};
use nora::eval::tasks::analog_accuracy;
use nora::nn::zoo::{tiny_spec, ModelFamily};
use nora::parallel::with_threads;
use nora::tensor::rng::Rng;
use nora::tensor::Matrix;

#[test]
fn zoo_builds_are_bit_reproducible() {
    let a = tiny_spec(ModelFamily::OptLike, 404).build();
    let b = tiny_spec(ModelFamily::OptLike, 404).build();
    let tokens = [2usize, 5, 3, 7];
    assert_eq!(a.model.forward(&tokens), b.model.forward(&tokens));
    assert_eq!(a.report.losses, b.report.losses);
}

#[test]
fn full_experiment_row_is_reproducible() {
    let run = || {
        let mut zoo = tiny_spec(ModelFamily::MistralLike, 405).build();
        let calib_seqs: Vec<Vec<usize>> = (0..4).map(|_| zoo.corpus.episode().tokens).collect();
        let episodes = zoo.corpus.episodes(40);
        let calibration = calibrate(&zoo.model, &calib_seqs);
        let plan = RescalePlan::nora(&zoo.model, &calibration, SmoothingConfig::default());
        let mut analog = plan.deploy(&zoo.model, TileConfig::paper_default(), 42);
        analog_accuracy(&mut analog, &episodes)
    };
    assert_eq!(run(), run());
}

#[test]
fn severity_calibration_is_reproducible() {
    let w1 = RefWorkload::new(16, 64, 64, 7);
    let w2 = RefWorkload::new(16, 64, 64, 7);
    for noise in [
        NonIdeality::AdditiveOutputNoise,
        NonIdeality::AdcQuantization,
    ] {
        assert_eq!(
            severity_for_mse(noise, 1e-3, &w1),
            severity_for_mse(noise, 1e-3, &w2),
            "{noise} severity differs between identical workloads"
        );
    }
}

#[test]
fn different_deployment_seeds_give_different_noise() {
    let mut zoo = tiny_spec(ModelFamily::OptLike, 406).build();
    let episodes = zoo.corpus.episodes(40);
    let acc = |seed: u64| {
        let mut analog = RescalePlan::naive().deploy(&zoo.model, TileConfig::paper_default(), seed);
        // Collect raw logits of one episode, which are noise-dependent.
        analog.forward(&episodes[0].tokens)
    };
    assert_ne!(acc(1), acc(2), "deployment seeds must decorrelate noise");
}

// ---- parallel execution: bit-identity at any thread count ---------------

/// The layer fans tile forwards across worker threads; each tile owns its
/// RNG stream, so a noisy multi-tile forward must be bit-identical at any
/// thread count.
#[test]
fn multi_tile_forward_bit_identical_across_thread_counts() {
    let mut rng = Rng::seed_from(500);
    let w = Matrix::random_normal(96, 96, 0.0, 0.3, &mut rng);
    let x = Matrix::random_normal(8, 96, 0.0, 1.0, &mut rng);
    let cfg = TileConfig::paper_default().with_tile_size(32, 32); // 3×3 grid
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut layer = AnalogLinear::new(w.clone(), None, cfg.clone(), 501);
            layer.forward(&x)
        })
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(serial, run(threads), "threads={threads}");
    }
}

/// Same property under an active fault plan: recovery (re-program → remap →
/// digital fallback) is serialized in grid order after the parallel fan-out,
/// so outputs, the event log, tile health, and spare usage must all match
/// the single-threaded run exactly.
#[test]
fn faulty_protected_run_identical_across_thread_counts() {
    let mut rng = Rng::seed_from(502);
    let w = Matrix::random_normal(64, 64, 0.0, 0.3, &mut rng);
    let x = Matrix::random_normal(32, 64, 0.0, 1.0, &mut rng);
    let mut cfg = TileConfig::paper_default().with_tile_size(32, 33);
    cfg.fault_plan = Some(FaultPlan {
        seed: 2,
        stuck_low: 0.02,
        stuck_high: 0.02,
        ..FaultPlan::none()
    });
    cfg.fault_tolerance = FaultTolerance::protected();
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut layer = AnalogLinear::new(w.clone(), None, cfg.clone(), 503);
            let y = layer.forward(&x);
            (
                y,
                layer.events().to_vec(),
                layer.tile_health(),
                layer.spares_used(),
            )
        })
    };
    let serial = run(1);
    assert!(
        !serial.1.is_empty(),
        "4% stuck cells must trigger recovery events"
    );
    for threads in [2, 4, 8] {
        let par = run(threads);
        assert_eq!(serial.0, par.0, "outputs, threads={threads}");
        assert_eq!(serial.1, par.1, "event log, threads={threads}");
        assert_eq!(serial.2, par.2, "tile health, threads={threads}");
        assert_eq!(serial.3, par.3, "spares used, threads={threads}");
    }
}

/// Model-level check: full transformer logits through a NORA deployment are
/// unchanged by the thread count.
#[test]
fn model_logits_bit_identical_across_thread_counts() {
    let zoo = tiny_spec(ModelFamily::OptLike, 504).build();
    let tokens = [1usize, 4, 2, 9, 3];
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut analog =
                RescalePlan::naive().deploy(&zoo.model, TileConfig::paper_default(), 505);
            analog.forward(&tokens)
        })
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(serial, run(threads), "threads={threads}");
    }
}

/// Deployment programs whole layers at once through
/// `AnalogLinear::try_with_smoothing_batch`, fanned across the pool. Each
/// layer draws only from its own layer seed and keeps its own spares,
/// events and health, and results merge in id order, so everything a
/// deployment exports, and the first error of a strict deploy, must be the
/// same at any thread count: for a NORA deployment, a protected one that
/// remaps, a lenient one that degrades layers, and `try_new` on it.
#[test]
fn deployment_fan_out_identical_across_thread_counts() {
    use nora::cim::CimError;
    use nora::nn::deploy::AnalogTransformerLm;
    use nora::nn::{LinearId, LinearKind, ModelConfig, TransformerLm};
    let config = ModelConfig {
        vocab: 16,
        max_seq: 16,
        d_model: 32,
        heads: 2,
        d_ff: 64,
        layers: 2,
    };
    let model = TransformerLm::new(config, &mut Rng::seed_from(530));
    let mut rng = Rng::seed_from(531);
    let calib: Vec<Vec<usize>> = (0..4)
        .map(|_| (0..12).map(|_| rng.below(16)).collect())
        .collect();
    let plan = RescalePlan::nora(
        &model,
        &calibrate(&model, &calib),
        SmoothingConfig::default(),
    );
    let tokens = [1usize, 4, 2, 9, 3];
    let observe = |threads: usize, cfg: &TileConfig| {
        with_threads(threads, || {
            let mut analog =
                AnalogTransformerLm::new(&model, cfg.clone(), plan.smoothing_map(), 532);
            (
                analog.forward(&tokens),
                analog.fault_events(),
                analog.tile_health(),
                analog.spares_used(),
                analog.digital_fallback_count(),
                analog.degraded_layers().to_vec(),
                analog.per_layer_stats(),
            )
        })
    };
    let check = |cfg: &TileConfig| {
        let serial = observe(1, cfg);
        for threads in [2, 4, 8] {
            let par = observe(threads, cfg);
            assert_eq!(serial.0, par.0, "logits, threads={threads}");
            assert_eq!(serial.1, par.1, "fault events, threads={threads}");
            assert_eq!(serial.2, par.2, "tile health, threads={threads}");
            assert_eq!(serial.3, par.3, "spares used, threads={threads}");
            assert_eq!(serial.4, par.4, "digital fallbacks, threads={threads}");
            assert_eq!(serial.5, par.5, "degraded layers, threads={threads}");
            assert_eq!(serial.6, par.6, "per-layer stats, threads={threads}");
        }
        serial
    };

    // The NORA deployment, as `RescalePlan::deploy` builds it.
    let nora = check(&TileConfig::paper_default());
    assert_eq!(nora.6.len(), 12, "every linear is analog");

    // ABFT (one checksum column of 33), two spares and digital fallback,
    // under stuck cells and programming failures.
    let mut protected = TileConfig::paper_default().with_tile_size(32, 33);
    protected.fault_plan = Some(FaultPlan {
        seed: 3,
        stuck_low: 0.02,
        stuck_high: 0.02,
        programming_failure: 0.3,
        ..FaultPlan::none()
    });
    protected.fault_tolerance = FaultTolerance::protected();
    let remapped = check(&protected);
    let remaps: u32 = remapped
        .2
        .iter()
        .flat_map(|(_, health)| health.iter().map(|h| h.remaps))
        .sum();
    assert!(remaps >= 1, "the fault plan must force a remap");

    // No recovery policy: a layer with a tile that fails to program is
    // left digital. Defect maps follow the physical tile index, so with
    // 32×32 tiles the fault plan fails tile 1 and spares tile 0: the
    // one-tile attention projections program and the two-tile FFN
    // linears degrade.
    let mut failing = TileConfig::paper_default().with_tile_size(32, 32);
    failing.fault_plan = Some(FaultPlan {
        seed: 4,
        programming_failure: 0.5,
        ..FaultPlan::none()
    });
    let lenient = check(&failing);
    let degraded: Vec<_> = lenient.5.iter().map(|(id, _)| *id).collect();
    let ffn = |block| {
        [
            LinearId::new(block, LinearKind::Fc1),
            LinearId::new(block, LinearKind::Fc2),
        ]
    };
    assert_eq!(degraded, [ffn(0), ffn(1)].concat(), "in id order");
    assert!(lenient
        .5
        .iter()
        .all(|(_, e)| matches!(e, CimError::ProgrammingFailed { .. })));
    // The strict constructor returns the first of those errors, in id
    // order, at every thread count.
    for threads in [1, 2, 4, 8] {
        let strict = with_threads(threads, || {
            AnalogTransformerLm::try_new(&model, failing.clone(), plan.smoothing_map(), 532)
        });
        assert_eq!(
            strict.err(),
            Some(lenient.5[0].1.clone()),
            "threads={threads}"
        );
    }
}

/// Per-tile RNG streams are forked from the layer seed, not drawn from a
/// shared sequence — so the order in which tiles execute cannot leak into
/// the noise. Run two noisy tiles in both orders and compare.
#[test]
fn tile_rng_streams_independent_of_execution_order() {
    let mut rng = Rng::seed_from(506);
    let w1 = Matrix::random_normal(32, 32, 0.0, 0.3, &mut rng);
    let w2 = Matrix::random_normal(32, 32, 0.0, 0.3, &mut rng);
    let x = Matrix::random_normal(4, 32, 0.0, 1.0, &mut rng);
    let mut root = Rng::seed_from(507);
    let mut a1 = AnalogTile::new(w1, None, TileConfig::paper_default(), root.fork(1));
    let mut b1 = AnalogTile::new(w2, None, TileConfig::paper_default(), root.fork(2));
    let (mut a2, mut b2) = (a1.clone(), b1.clone());
    // Order A then B…
    let (ya1, yb1) = (a1.forward(&x), b1.forward(&x));
    // …vs B then A.
    let (yb2, ya2) = (b2.forward(&x), a2.forward(&x));
    assert_eq!(ya1, ya2, "tile A output depends on execution order");
    assert_eq!(yb1, yb2, "tile B output depends on execution order");
}

/// Serving-engine check: a batched analog decode — continuous batching over
/// a NORA deployment with noisy tiles, sliding windows engaged — yields the
/// same token streams and tile statistics at any thread count. In keyed
/// mode (the default) the slots themselves fan out in parallel: every noise
/// draw is derived from `(deployment, tile, request seed, position)` and
/// the deferred tile statistics are absorbed in slot order afterwards.
#[test]
fn batched_analog_decode_bit_identical_across_thread_counts() {
    use nora::nn::generate::Sampling;
    use nora::serve::{AnalogBackend, EngineConfig, GenRequest, GenerationEngine};
    let zoo = tiny_spec(ModelFamily::OptLike, 510).build();
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut analog =
                RescalePlan::naive().deploy(&zoo.model, TileConfig::paper_default(), 511);
            let mut engine = GenerationEngine::new(
                AnalogBackend::new(&mut analog),
                EngineConfig::with_max_batch(8),
            );
            for i in 0..10u64 {
                engine.submit(
                    GenRequest::new(vec![1 + (i as usize) % 6], 20)
                        .with_sampling(Sampling::Temperature(1.3))
                        .with_seed(600 + i),
                );
            }
            let tokens: Vec<Vec<usize>> = engine
                .run_to_completion()
                .into_iter()
                .map(|r| r.tokens)
                .collect();
            drop(engine);
            (tokens, analog.stats())
        })
    };
    let serial = run(1);
    assert_eq!(serial.0.len(), 10);
    for threads in [2, 4, 8] {
        let par = run(threads);
        assert_eq!(serial.0, par.0, "token streams, threads={threads}");
        assert_eq!(serial.1, par.1, "tile stats, threads={threads}");
    }
}

// ---- observability: recording must never perturb the computation --------

/// Attaching observation to the analog pipeline — exporting per-tile
/// conversion stats into a metrics registry and emitting them through a
/// recording [`nora::obs::Recorder`] — must leave the forward outputs
/// bit-identical, and the registry itself (counters *and* the deterministic
/// rate histograms) must compare equal at every thread count.
#[test]
fn observed_analog_forward_identical_across_thread_counts() {
    use nora::obs::{MemoryRecorder, Metrics};
    let mut rng = Rng::seed_from(520);
    let w = Matrix::random_normal(96, 96, 0.0, 0.3, &mut rng);
    let x = Matrix::random_normal(8, 96, 0.0, 1.0, &mut rng);
    let cfg = TileConfig::paper_default().with_tile_size(32, 32); // 3×3 grid
    let run = |threads: usize, observe: bool| {
        with_threads(threads, || {
            let mut layer = AnalogLinear::new(w.clone(), None, cfg.clone(), 521);
            let y = layer.forward(&x);
            let metrics = observe.then(|| {
                let mut m = Metrics::new();
                layer.export_metrics(&mut m);
                let mut rec = MemoryRecorder::default();
                m.emit(&mut rec);
                assert_eq!(
                    rec.counters.get("cim.dac.total_inputs"),
                    Some(&m.counter("cim.dac.total_inputs"))
                );
                m
            });
            (y, metrics)
        })
    };
    let (y_plain, _) = run(1, false);
    let (y_serial, metrics_serial) = run(1, true);
    assert_eq!(y_plain, y_serial, "observation changed the outputs");
    let metrics_serial = metrics_serial.unwrap();
    assert!(metrics_serial.counter("cim.forward.samples") > 0);
    for threads in [2, 4, 8] {
        let (y, metrics) = run(threads, true);
        assert_eq!(y_plain, y, "outputs, threads={threads}");
        assert_eq!(
            metrics_serial,
            metrics.unwrap(),
            "metrics registry, threads={threads}"
        );
    }
}

/// Serving-engine contract: attaching a recording [`nora::obs::Recorder`]
/// must leave every generated token stream bit-identical, and the engine's
/// aggregated counters (requests, tokens, rounds — not the wall-clock
/// histograms, which are telemetry) must agree at every thread count,
/// observed or not.
#[test]
fn observed_serving_identical_across_thread_counts() {
    use nora::nn::generate::Sampling;
    use nora::obs::MemoryRecorder;
    use nora::serve::{AnalogBackend, EngineConfig, GenRequest, GenerationEngine};
    let zoo = tiny_spec(ModelFamily::OptLike, 522).build();
    let run = |threads: usize, observe: bool| {
        with_threads(threads, || {
            let mut analog =
                RescalePlan::naive().deploy(&zoo.model, TileConfig::paper_default(), 523);
            let mut engine = GenerationEngine::new(
                AnalogBackend::new(&mut analog),
                EngineConfig::with_max_batch(4),
            );
            if observe {
                engine.set_recorder(Box::new(MemoryRecorder::default()));
            }
            for i in 0..8u64 {
                engine.submit(
                    GenRequest::new(vec![1 + (i as usize) % 5], 16)
                        .with_sampling(Sampling::Temperature(1.3))
                        .with_seed(700 + i),
                );
            }
            let tokens: Vec<Vec<usize>> = engine
                .run_to_completion()
                .into_iter()
                .map(|r| r.tokens)
                .collect();
            (tokens, engine.metrics().counter_snapshot())
        })
    };
    let (tokens_plain, counters_plain) = run(1, false);
    let (tokens_serial, counters_serial) = run(1, true);
    assert_eq!(tokens_plain, tokens_serial, "recorder changed the tokens");
    assert_eq!(
        counters_plain, counters_serial,
        "recorder changed the aggregated counters"
    );
    assert!(counters_serial
        .iter()
        .any(|(name, value)| name == "serve.requests" && *value == 8));
    for threads in [2, 4, 8] {
        let (tokens, counters) = run(threads, true);
        assert_eq!(tokens_plain, tokens, "token streams, threads={threads}");
        assert_eq!(counters_serial, counters, "counters, threads={threads}");
    }
}

/// Sparse digital serving: a 2:4-pruned model decoding through the packed
/// N:M kernels must emit bit-identical token streams at any thread count —
/// and exactly the streams of the dense reference kernel on the same
/// masked weights (the sparse path skips only exact-zero terms).
#[test]
fn sparse_digital_serving_bit_identical_across_thread_counts() {
    use nora::core::SparsityPlan;
    use nora::nn::generate::Sampling;
    use nora::serve::{DigitalBackend, EngineConfig, GenRequest, GenerationEngine};
    use nora::tensor::NmPattern;
    let zoo = tiny_spec(ModelFamily::OptLike, 530).build();
    let mut sparse = zoo.model.clone();
    SparsityPlan::uniform(&sparse, NmPattern::N2M4).apply(&mut sparse, None);
    let mut dense_ref = sparse.clone();
    for id in dense_ref.linear_ids() {
        dense_ref.linear_mut(id).sparse = None;
    }
    let run = |model: &nora::nn::TransformerLm, threads: usize| {
        with_threads(threads, || {
            let mut engine =
                GenerationEngine::new(DigitalBackend::new(model), EngineConfig::with_max_batch(4));
            for i in 0..8u64 {
                engine.submit(
                    GenRequest::new(vec![1 + (i as usize) % 5], 16)
                        .with_sampling(Sampling::Temperature(1.3))
                        .with_seed(800 + i),
                );
            }
            engine
                .run_to_completion()
                .into_iter()
                .map(|r| r.tokens)
                .collect::<Vec<_>>()
        })
    };
    let serial = run(&sparse, 1);
    assert_eq!(serial.len(), 8);
    for threads in [2, 4, 8] {
        assert_eq!(serial, run(&sparse, threads), "threads={threads}");
    }
    assert_eq!(
        serial,
        run(&dense_ref, 1),
        "sparse decode diverged from the dense reference"
    );
}

// ---- STE hardware-aware training: deploy conformance + determinism ------

/// The STE training forward's input fake-quantization must be bit-identical
/// to the deploy path's DAC conversion on the same inputs: same `α` law,
/// same mid-rise grid, via the *shared* [`TileConfig::input_dac`]
/// constructor — no duplicated constants.
#[test]
fn ste_fake_quantize_bit_identical_to_deploy_dac() {
    use nora::nn::ste::SteQuant;
    let cfg = TileConfig::paper_default();
    let sq = SteQuant::from_tile(&cfg);
    let mut rng = Rng::seed_from(540);
    let x = Matrix::random_normal(6, 32, 0.0, 2.0, &mut rng);
    let fq = sq.fake_quantize(&x);
    let dac = cfg.input_dac();
    for i in 0..x.rows() {
        let alpha = cfg.noise_management.alpha(x.row(i));
        let mut row: Vec<f32> = x.row(i).iter().map(|v| v / alpha).collect();
        dac.convert_slice(&mut row);
        for (c, &converted) in row.iter().enumerate() {
            assert_eq!(
                fq[(i, c)].to_bits(),
                (converted * alpha).to_bits(),
                "row {i} col {c}: training grid diverged from deploy DAC"
            );
        }
    }
}

/// The STE training forward's weight view must be bit-identical to what the
/// tile actually programs: per-column `γ` normalisation and the shared
/// [`TileConfig::weight_quantizer`] grid. With an ideal (zero-error) weight
/// source the programmed conductances *are* the quantized weights, so the
/// comparison is exact.
#[test]
fn ste_weight_grid_bit_identical_to_programmed_tile() {
    use nora::cim::{Resolution, WeightSource};
    let mut cfg = TileConfig::paper_default().with_tile_size(64, 64);
    cfg.weight_source = WeightSource::Ideal;
    cfg.weight_quant = Resolution::bits(6);
    let mut rng = Rng::seed_from(541);
    let w = Matrix::random_normal(32, 24, 0.0, 0.3, &mut rng);
    let tile = AnalogTile::new(w.clone(), None, cfg.clone(), Rng::seed_from(542));

    // The training-side transform (noise off): γ-normalise columns, snap to
    // the shared programming grid.
    let gamma = w.col_abs_max();
    let mut train_view = w.clone();
    for (j, &g) in gamma.iter().enumerate() {
        if g > 0.0 {
            train_view.scale_col(j, 1.0 / g);
        }
    }
    cfg.weight_quantizer()
        .expect("finite weight grid")
        .quantize_slice(train_view.as_mut_slice());

    assert_eq!(tile.gamma(), gamma.as_slice(), "γ law diverged");
    assert_eq!(
        tile.effective_weights().as_slice(),
        train_view.as_slice(),
        "training weight grid diverged from the programmed tile"
    );
}

/// Hardware-aware STE training is bit-identical at any `NORA_THREADS`
/// setting (the per-step noise comes from counter-keyed streams, a pure
/// function of `(seed, step, layer)`), and attaching observation around the
/// run does not perturb it: final parameters and the full loss trace
/// compare bitwise.
#[test]
fn ste_training_bit_identical_across_thread_counts() {
    use nora::nn::corpus::{Corpus, CorpusConfig};
    use nora::nn::ste::{train_ste, SteConfig};
    use nora::nn::trainer::TrainConfig;
    use nora::nn::{ModelConfig, TransformerLm};
    use nora::obs::{MemoryRecorder, Metrics};

    let run = |threads: usize, observe: bool| {
        with_threads(threads, || {
            let mut corpus = Corpus::new(CorpusConfig::new(16, 16, 9));
            let mut model =
                TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(42));
            let cfg = SteConfig {
                base: TrainConfig {
                    steps: 12,
                    ..TrainConfig::default()
                },
                ..SteConfig::default()
            };
            let report = train_ste(&mut model, &mut corpus, &cfg, 17);
            if observe {
                // Recording around the run must be inert.
                let mut m = Metrics::new();
                m.add("test.ste.steps", report.losses.len() as u64);
                let mut rec = MemoryRecorder::default();
                m.emit(&mut rec);
                assert_eq!(rec.counters.get("test.ste.steps"), Some(&12));
            }
            let params: Vec<Vec<u32>> = model
                .params()
                .iter()
                .map(|p| p.value.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect();
            (params, report.losses)
        })
    };
    let serial = run(1, false);
    assert_eq!(serial, run(1, true), "recorder perturbed STE training");
    for threads in [2, 4, 8] {
        assert_eq!(serial, run(threads, true), "threads={threads}");
    }
}

/// Eval sweeps run points in parallel but merge rows in task order: a small
/// drift study must produce identical rows at 1 and 4 threads.
#[test]
fn eval_sweep_rows_identical_across_thread_counts() {
    use nora::eval::runner::{drift_study, prepare, DriftConfig};
    let prepared = vec![prepare(&tiny_spec(ModelFamily::OptLike, 508), 30, 3)];
    let cfg = DriftConfig {
        times: vec![20.0, 3600.0],
        tile: TileConfig::paper_default().with_tile_size(64, 64),
        seed: 509,
    };
    let serial = with_threads(1, || drift_study(&prepared, &cfg));
    let par = with_threads(4, || drift_study(&prepared, &cfg));
    assert_eq!(serial, par);
}
