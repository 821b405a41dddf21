//! Pins every reachable exit of the tile-programming ladder, bit for bit.
//!
//! The ladder runs in three places: construction programs each slot,
//! `forward` recovers a flagged slot inline, and `rotate_tile` re-programs
//! a slot in the background. Each scenario below reaches one or more of
//! their exits and records, after every step, the new events, every
//! slot's health, the spares used, the slots on digital fallback and a
//! hash of the layer's output bits. The expected transcripts were taken
//! from a run of the code; any change to the ladder's order, generator
//! use, labels or bookkeeping shows up as a line that differs.

use nora::cim::{
    AnalogLinear, CimError, DriftCompensation, FaultTolerance, HealthState, TileConfig,
    TileEventKind,
};
use nora::device::FaultPlan;
use nora::tensor::{rng::Rng, Matrix};

/// A 64×64 layer (a 2×2 grid of 32×33 tiles once the checksum column is
/// added) and a 32-row batch.
fn setup() -> (Matrix, Matrix) {
    let mut rng = Rng::seed_from(3);
    let w = Matrix::random_normal(64, 64, 0.0, 0.3, &mut rng);
    let x = Matrix::random_normal(32, 64, 0.0, 1.0, &mut rng);
    (w, x)
}

fn cfg(plan: FaultPlan, policy: FaultTolerance) -> TileConfig {
    TileConfig::paper_default()
        .with_tile_size(32, 33)
        .with_fault_plan(plan)
        .with_fault_tolerance(policy)
}

fn no_fallback() -> FaultTolerance {
    FaultTolerance {
        digital_fallback: false,
        ..FaultTolerance::protected()
    }
}

fn programming_failures(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan {
        seed,
        programming_failure: rate,
        ..FaultPlan::none()
    }
}

/// FNV-1a over the bits of `y`.
fn bits(y: &Matrix) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in y.as_slice() {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Records the layer's ladder-visible state after each step, listing only
/// the events raised since the previous step.
#[derive(Default)]
struct Transcript {
    seen: usize,
    lines: Vec<String>,
}

impl Transcript {
    fn step(&mut self, what: &str, layer: &AnalogLinear, y: Option<&Matrix>) {
        let events: Vec<String> = layer.events()[self.seen..]
            .iter()
            .map(|e| {
                let kind = match e.kind {
                    TileEventKind::Flagged {
                        violations,
                        rows,
                        silent,
                    } => format!("F{}{violations}/{rows}", if silent { "s" } else { "" }),
                    TileEventKind::ProgrammingFailed { attempt } => format!("P{attempt}"),
                    TileEventKind::Reprogrammed { attempt } => format!("R{attempt}"),
                    TileEventKind::Remapped { spare_id } => format!("M{spare_id}"),
                    TileEventKind::DigitalFallback => "D".into(),
                    TileEventKind::Unrecovered => "U".into(),
                };
                format!("{}@{}:{kind}", e.grid_index, e.physical_id)
            })
            .collect();
        self.seen = layer.events().len();
        let health: Vec<String> = layer
            .tile_health()
            .iter()
            .map(|h| {
                let state = match h.state {
                    HealthState::Healthy => 'H',
                    HealthState::Suspect => 'S',
                    HealthState::Condemned => 'C',
                };
                format!("{state}{}/{}/{}", h.flags, h.programming_attempts, h.remaps)
            })
            .collect();
        self.lines.push(format!(
            "{what}: [{}] health [{}] spares {} fallback {} y {}",
            events.join(" "),
            health.join(" "),
            layer.spares_used(),
            layer.digital_fallback_count(),
            y.map_or("-".into(), bits)
        ));
    }

    fn check(&self, expected: &[&str]) {
        assert_eq!(self.lines, expected, "\n{}", self.lines.join("\n"));
    }
}

/// Builds a layer and runs `forwards` batches through it.
fn run_forwards(config: TileConfig, forwards: usize) -> Transcript {
    let (w, x) = setup();
    let mut layer = AnalogLinear::new(w, None, config, 4);
    let mut t = Transcript::default();
    t.step("built", &layer, None);
    for i in 1..=forwards {
        let y = layer.forward(&x);
        t.step(&format!("forward {i}"), &layer, Some(&y));
    }
    t
}

#[test]
fn construction_exits_retry_spare_and_fallback() {
    // Programming failures only: slot 1 succeeds on a retry, slots 0 and 2
    // on a spare, and slot 3 finds the pool empty and falls back.
    run_forwards(
        cfg(programming_failures(35, 0.7), FaultTolerance::protected()),
        1,
    )
    .check(&[
        "built: [0@0:P0 0@0:P1 0@0:P2 0@4:P3 0@4:M4 1@1:P0 1@1:P1 1@1:R2 2@2:P0 2@2:P1 2@2:P2 2@5:P3 2@5:M5 3@3:P0 3@3:P1 3@3:P2 3@3:D] health [H0/5/1 H0/3/0 H0/5/1 C0/3/0] spares 2 fallback 1 y -",
        "forward 1: [] health [H0/5/1 H0/3/0 H0/5/1 C0/3/0] spares 2 fallback 1 y 8771a26b1ea4c816",
    ]);
}

#[test]
fn construction_exits_after_failed_self_tests() {
    // Stuck cells fail the construction self-test: flagged retries, spares
    // and fallbacks, each flag recorded.
    run_forwards(
        cfg(FaultPlan::uniform(0.01, 0.0, 14), FaultTolerance::protected()),
        1,
    )
    .check(&[
        "built: [0@0:F4/16 0@0:F4/16 0@0:F5/16 0@4:F2/16 0@4:F1/16 0@4:M4 1@1:F16/16 1@1:F16/16 1@1:F16/16 1@5:F12/16 1@5:F13/16 1@5:F12/16 1@5:D 3@3:F12/16 3@3:F12/16 3@3:F12/16 3@3:D] health [S5/6/1 C6/6/1 H0/1/0 C3/3/0] spares 2 fallback 2 y -",
        "forward 1: [0@4:F19/32 0@4:D 2@2:F1/32 2@2:R1] health [C6/9/1 C6/6/1 S1/2/0 C3/3/0] spares 2 fallback 3 y 803653bd6fbd385d",
    ]);
}

#[test]
fn construction_without_fallback_is_an_error() {
    let (w, _) = setup();
    let err = |policy| {
        AnalogLinear::try_new(
            w.clone(),
            None,
            cfg(programming_failures(1, 1.0), policy),
            4,
        )
        .unwrap_err()
    };
    // The protected ladder walks three arrays of three attempts each.
    assert_eq!(
        err(no_fallback()),
        CimError::ProgrammingFailed {
            physical_id: 5,
            attempt: 8
        }
    );
    // With the policy off there is one attempt and no spare.
    assert_eq!(
        err(FaultTolerance::off()),
        CimError::ProgrammingFailed {
            physical_id: 0,
            attempt: 0
        }
    );
}

#[test]
fn inline_recovery_reprograms_the_current_array() {
    run_forwards(
        cfg(FaultPlan::uniform(0.002, 0.002, 60), FaultTolerance::protected()),
        2,
    )
    .check(&[
        "built: [] health [H0/1/0 H0/1/0 H0/1/0 H0/1/0] spares 0 fallback 0 y -",
        "forward 1: [1@1:F1/32 1@1:R1] health [H0/1/0 S1/2/0 H0/1/0 H0/1/0] spares 0 fallback 0 y 8f58416f0423c033",
        "forward 2: [] health [H0/1/0 S1/2/0 H0/1/0 H0/1/0] spares 0 fallback 0 y 1d3c5f6ad9341294",
    ]);
}

#[test]
fn inline_recovery_remaps_to_a_spare() {
    run_forwards(
        cfg(FaultPlan::uniform(0.002, 0.002, 71), FaultTolerance::protected()),
        2,
    )
    .check(&[
        "built: [0@0:F4/16 0@0:F1/16 0@0:R2] health [S2/3/0 H0/1/0 H0/1/0 H0/1/0] spares 0 fallback 0 y -",
        "forward 1: [0@0:F1/32 0@4:M4] health [S3/7/1 H0/1/0 H0/1/0 H0/1/0] spares 1 fallback 0 y 35c40f5c1f0aeb71",
        "forward 2: [] health [S3/7/1 H0/1/0 H0/1/0 H0/1/0] spares 1 fallback 0 y 267b8d245f276846",
    ]);
}

#[test]
fn inline_recovery_falls_back_or_passes_the_fault_on() {
    let plan = FaultPlan::uniform(0.01, 0.0, 5);
    run_forwards(cfg(plan.clone(), FaultTolerance::protected()), 2).check(&[
        "built: [0@0:F16/16 0@0:F16/16 0@0:F16/16 0@4:F3/16 0@4:F4/16 0@4:F3/16 0@5:M5] health [S6/7/2 H0/1/0 H0/1/0 H0/1/0] spares 2 fallback 0 y -",
        "forward 1: [2@2:F1/32 2@2:D] health [S6/7/2 H0/1/0 C1/4/0 H0/1/0] spares 2 fallback 1 y 72b893bed2dc78b4",
        "forward 2: [] health [S6/7/2 H0/1/0 C1/4/0 H0/1/0] spares 2 fallback 1 y da3d906c1ed21be5",
    ]);
    run_forwards(cfg(plan, no_fallback()), 2).check(&[
        "built: [0@0:F16/16 0@0:F16/16 0@0:F16/16 0@4:F3/16 0@4:F4/16 0@4:F3/16 0@5:M5] health [S6/7/2 H0/1/0 H0/1/0 H0/1/0] spares 2 fallback 0 y -",
        "forward 1: [2@2:F1/32 2@2:U] health [S6/7/2 H0/1/0 C1/4/0 H0/1/0] spares 2 fallback 0 y 2a29e317c24e0afe",
        "forward 2: [2@2:F1/32 2@2:U] health [S6/7/2 H0/1/0 C2/7/0 H0/1/0] spares 2 fallback 0 y f295474a8f88e926",
    ]);
}

#[test]
fn inline_recovery_on_a_slot_remapped_earlier() {
    // Slot 0 took a spare at construction. Its inline incident re-programs
    // that spare and takes no new one, yet is labelled a remap.
    run_forwards(
        cfg(FaultPlan::uniform(0.01, 0.0, 57), FaultTolerance::protected()),
        2,
    )
    .check(&[
        "built: [0@0:F9/16 0@0:F9/16 0@0:F9/16 0@4:F1/16 0@4:F2/16 0@4:M4 2@2:F8/16 2@2:F8/16 2@2:F8/16 2@5:F8/16 2@5:F8/16 2@5:F8/16 2@5:D 3@3:F2/16 3@3:F2/16 3@3:F2/16 3@3:D] health [S5/6/1 H0/1/0 C6/6/1 C3/3/0] spares 2 fallback 2 y -",
        "forward 1: [0@4:F1/32 0@4:M4] health [S6/7/1 H0/1/0 C6/6/1 C3/3/0] spares 2 fallback 2 y cd8db233f9691280",
        "forward 2: [] health [S6/7/1 H0/1/0 C6/6/1 C3/3/0] spares 2 fallback 2 y bfcf0befe8b71ad2",
    ]);
}

/// Builds a one-slot layer, rotates its slot at `now` as often as asked,
/// and after each rotation reads the layer one drift step later, so the
/// programming epoch and probe reference a rotation stamps are pinned too.
fn run_rotations(config: TileConfig, rotations: usize) -> Transcript {
    let mut rng = Rng::seed_from(3);
    let w = Matrix::random_normal(32, 32, 0.0, 0.3, &mut rng);
    let x = Matrix::random_normal(8, 32, 0.0, 1.0, &mut rng);
    let mut layer = AnalogLinear::new(w, None, config, 4);
    let mut t = Transcript::default();
    t.step("built", &layer, None);
    for i in 1..=rotations {
        let now = 100.0 * i as f64;
        let restored = layer.rotate_tile(0, now);
        layer.drift_to(now + 50.0, DriftCompensation::None);
        let recal = layer.recalibrate().map(|r| (r.alpha.to_bits(), r.probed));
        let y = layer.forward(&x);
        t.step(
            &format!("rotate {i} -> {restored} recal {recal:?}"),
            &layer,
            Some(&y),
        );
    }
    t
}

#[test]
fn rotation_takes_a_spare_then_reprograms_once_spares_run_out() {
    // The first spare fails to program and the second is accepted; the
    // second rotation finds the pool empty and re-programs in place.
    run_rotations(
        cfg(programming_failures(19, 0.6), FaultTolerance::protected()),
        2,
    )
    .check(&[
        "built: [] health [H0/1/0] spares 0 fallback 0 y -",
        "rotate 1 -> true recal Some((1065721752, 1)): [0@1:P1 0@2:M2] health [H0/3/2] spares 2 fallback 0 y 658cbfbd0eab9cab",
        "rotate 2 -> true recal Some((1065709666, 1)): [0@2:P3 0@2:R4] health [H0/5/2] spares 2 fallback 0 y 5d73ea15e2a4eaf2",
    ]);
    // Both spares fail within one rotation, then the array re-programs.
    run_rotations(
        cfg(programming_failures(0, 0.6), FaultTolerance::protected()),
        1,
    )
    .check(&[
        "built: [] health [H0/1/0] spares 0 fallback 0 y -",
        "rotate 1 -> true recal Some((1065724930, 1)): [0@1:P1 0@2:P2 0@2:P3 0@2:P4 0@2:R5] health [H0/6/2] spares 2 fallback 0 y f14c6c3ce7aa587e",
    ]);
}

#[test]
fn rotation_exhausted_falls_back_or_passes_the_fault_on() {
    run_rotations(
        cfg(programming_failures(45, 0.6), FaultTolerance::protected()),
        1,
    )
    .check(&[
        "built: [] health [H0/1/0] spares 0 fallback 0 y -",
        "rotate 1 -> false recal None: [0@1:P1 0@2:P2 0@2:P3 0@2:P4 0@2:P5 0@2:D] health [C0/6/2] spares 2 fallback 1 y 019b4e2c0eb6ab83",
    ]);
    run_rotations(cfg(programming_failures(45, 0.6), no_fallback()), 1).check(&[
        "built: [] health [H0/1/0] spares 0 fallback 0 y -",
        "rotate 1 -> false recal None: [0@1:P1 0@2:P2 0@2:P3 0@2:P4 0@2:P5 0@2:U] health [C0/6/2] spares 2 fallback 0 y 89dd25875d581ae5",
    ]);
}

#[test]
fn deferred_flags_then_rotation_restores_the_slot() {
    // Deferred mode records the flag and serves the faulty sums; the
    // rotation drains the suspect list.
    let (w, x) = setup();
    let config = cfg(
        FaultPlan::uniform(0.002, 0.002, 60),
        FaultTolerance::protected(),
    );
    let mut layer = AnalogLinear::new(w, None, config, 4);
    layer.set_deferred_recovery(true);
    let mut t = Transcript::default();
    let y = layer.forward(&x);
    t.step("deferred forward", &layer, Some(&y));
    let suspects = layer.suspect_tiles();
    for (i, &idx) in suspects.iter().enumerate() {
        let now = 3600.0 * (i + 1) as f64;
        let restored = layer.rotate_tile(idx, now);
        layer.drift_to(now + 600.0, DriftCompensation::GlobalScale);
        let recal = layer.recalibrate().map(|r| (r.alpha.to_bits(), r.probed));
        let y = layer.forward(&x);
        t.step(
            &format!("rotate {idx} -> {restored} recal {recal:?}"),
            &layer,
            Some(&y),
        );
    }
    t.check(&[
        "deferred forward: [1@1:F1/32] health [H0/1/0 S1/1/0 H0/1/0 H0/1/0] spares 0 fallback 0 y 37dc25d1e10bdd09",
        "rotate 1 -> true recal Some((1065392899, 1)): [1@4:M4] health [H0/1/0 H1/2/1 H0/1/0 H0/1/0] spares 1 fallback 0 y 9be7d1d3ed3a325a",
    ]);
}
