//! Set-up: from the checkpoint on disk to a model ready to serve or sweep.
//!
//! One set-up takes milliseconds, so a single vCPU preemption (about 5 ms
//! on the development host) could decide any one timing of it. Set-up
//! therefore runs in blocks of a fixed number of repetitions, each block
//! lasting about [`BLOCK_SECS`]: a block's time divided by its count is one
//! sample, and `setup_s` is the median over [`BLOCKS`] blocks. No
//! repetition trains a model or touches the zoo model cache.

use crate::inputs::Inputs;
use crate::report::Report;
use crate::stats;
use crate::trace::Trace;
use nora_cim::TileConfig;
use nora_core::{calibrate, RescalePlan, SmoothingConfig};
use nora_nn::deploy::AnalogTransformerLm;
use nora_nn::TransformerLm;
use nora_serve::{AnalogBackend, DigitalBackend, EngineConfig, GenerationEngine};
use std::time::Instant;

/// Blocks per run.
pub const BLOCKS: usize = 5;

/// Target length of one block, in seconds.
pub const BLOCK_SECS: f64 = 1.0;

/// Untimed set-ups before the blocks: the first warms the page cache and
/// the allocator, the fastest sizes the blocks.
const WARM_UP: usize = 3;

/// How far set-up goes before the workload is ready.
#[derive(Debug, Clone)]
pub enum Stage {
    /// Load, calibrate and build the NORA plan (eval-sweep deploys per
    /// grid point).
    Plan,
    /// Load, calibrate, plan, deploy onto tiles, and build an engine over
    /// the deployment.
    Deploy {
        /// Tile configuration of the deployment.
        tile: Box<TileConfig>,
        /// Deployment seed.
        seed: u64,
        /// Engine configuration.
        engine: EngineConfig,
    },
    /// Load and build an engine over the FP32 model.
    Digital {
        /// Engine configuration.
        engine: EngineConfig,
    },
}

/// A ready workload state.
pub struct Ready {
    /// The loaded model.
    pub model: TransformerLm,
    /// The NORA plan, when the stage calibrates.
    pub plan: Option<RescalePlan>,
    /// The deployment, when the stage deploys.
    pub analog: Option<AnalogTransformerLm>,
}

/// Set-up timings of one run, in seconds per set-up.
#[derive(Debug, Clone, Default)]
pub struct Times {
    /// Mean untraced set-up time within each block.
    pub untraced: Vec<f64>,
    /// Traced runs: mean load + calibrate + plan + deploy span sum of the
    /// traced set-ups within each block.
    pub traced_parts: Vec<f64>,
    /// Set-ups per block.
    pub reps: usize,
}

impl Times {
    /// Adds `setup_s`, the median block mean, to `report`.
    pub fn report(&self, report: &mut Report) {
        report.notes.push(format!(
            "setup_s: median over {} blocks of {} set-ups (block means {:.6} .. {:.6} s)",
            self.untraced.len(),
            self.reps,
            stats::percentile(&self.untraced, 0.0).map_or(f64::NAN, |v| v.0),
            stats::percentile(&self.untraced, 100.0).map_or(f64::NAN, |v| v.0),
        ));
        report.metric(
            "setup_s",
            stats::median(&self.untraced),
            "s",
            self.untraced.len(),
        );
    }
}

/// One set-up; `span` is called after each layer call with its name and
/// start.
fn once(
    stage: &Stage,
    inputs: &Inputs,
    span: &mut dyn FnMut(&'static str, Instant),
) -> Result<Ready, String> {
    let t = Instant::now();
    let model = crate::model::load()?;
    span("nn.load", t);

    let mut plan = None;
    if !matches!(stage, Stage::Digital { .. }) {
        let t = Instant::now();
        let calibration = calibrate(&model, &inputs.calib);
        span("core.calibrate", t);
        let t = Instant::now();
        plan = Some(RescalePlan::nora(
            &model,
            &calibration,
            SmoothingConfig::default(),
        ));
        span("core.plan", t);
    }

    let mut analog = None;
    match stage {
        Stage::Plan => {}
        Stage::Deploy { tile, seed, engine } => {
            let t = Instant::now();
            let mut deployed = plan
                .as_ref()
                .expect("the deploy stage builds a plan")
                .deploy(&model, (**tile).clone(), *seed);
            span("cim.deploy", t);
            drop(GenerationEngine::new(
                AnalogBackend::new(&mut deployed),
                engine.clone(),
            ));
            analog = Some(deployed);
        }
        Stage::Digital { engine } => {
            drop(GenerationEngine::new(
                DigitalBackend::new(&model),
                engine.clone(),
            ));
        }
    }
    Ok(Ready {
        model,
        plan,
        analog,
    })
}

/// Runs the warm-up set-ups, then [`BLOCKS`] timed blocks, and returns
/// the last set-up's state. With a trace, every other set-up of a block
/// records a span per layer call and the others are timed one by one, so
/// traced and untraced set-ups interleave and share the host's conditions;
/// a block's samples are then the means over each kind.
///
/// # Errors
///
/// Returns a message when the checkpoint fails to load or has the wrong
/// architecture.
pub fn run(
    stage: &Stage,
    inputs: &Inputs,
    mut trace: Option<&mut Trace>,
) -> Result<(Ready, Times), String> {
    let mut fastest = f64::INFINITY;
    let mut ready = None;
    for _ in 0..WARM_UP {
        let t = Instant::now();
        ready = Some(once(stage, inputs, &mut |_, _| {})?);
        fastest = fastest.min(t.elapsed().as_secs_f64());
    }
    // At least two, so a traced block holds both kinds.
    let reps = ((BLOCK_SECS / fastest).ceil() as usize).max(2);
    let mut times = Times {
        reps,
        ..Times::default()
    };
    let traced_run = trace.is_some();
    for block in 0..BLOCKS {
        let (mut untraced, mut parts) = (0.0, 0.0);
        let start = Instant::now();
        for rep in 0..reps {
            let traced = traced_run && rep % 2 == 1;
            let id = (block * reps + rep) as u64;
            let t = traced_run.then(Instant::now);
            let mut span = |name: &'static str, t: Instant| {
                if let Some(tr) = trace.as_deref_mut().filter(|_| traced) {
                    parts += tr.record(name, id, t).as_secs_f64();
                }
            };
            ready = Some(once(stage, inputs, &mut span)?);
            if let Some(t) = t.filter(|_| !traced) {
                untraced += t.elapsed().as_secs_f64();
            }
        }
        if traced_run {
            times.untraced.push(untraced / reps.div_ceil(2) as f64);
            times.traced_parts.push(parts / (reps / 2) as f64);
        } else {
            times
                .untraced
                .push(start.elapsed().as_secs_f64() / reps as f64);
        }
    }
    Ok((ready.expect("at least one set-up"), times))
}
