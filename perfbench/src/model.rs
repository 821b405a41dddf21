//! The model under test: the `opt-2.7b-sim` zoo preset, loaded from the
//! checkpoint committed next to this crate.
//!
//! Training the preset takes most of a minute, so no benchmark run trains
//! it and none touches the zoo model cache: the weights are a fixed input,
//! regenerated only by the `regen-model` binary. Every run checks the file
//! against [`MODEL_FNV1A64`] and the preset's architecture before using it.

use nora_nn::serialize::{self, SavedMeta};
use nora_nn::zoo::{opt_presets, ZooSpec};
use nora_nn::TransformerLm;
use std::path::PathBuf;

/// Zoo preset whose trained weights the benchmark serves and evaluates.
pub const PRESET: &str = "opt-2.7b-sim";

/// FNV-1a 64 hash of the committed checkpoint file.
pub const MODEL_FNV1A64: u64 = 0xa6d9_5fda_7c8e_34d9;

/// Path of the committed checkpoint.
pub fn model_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("model")
        .join(format!("{PRESET}.nora"))
}

/// The preset's build specification.
pub fn preset() -> ZooSpec {
    opt_presets()
        .into_iter()
        .find(|s| s.name == PRESET)
        .expect("the zoo defines the benchmark preset")
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks the committed checkpoint's content hash.
///
/// # Errors
///
/// Returns a message when the file is unreadable or its hash differs from
/// [`MODEL_FNV1A64`].
pub fn verify_checkpoint() -> Result<(), String> {
    let path = model_path();
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let hash = fnv1a64(&bytes);
    if hash != MODEL_FNV1A64 {
        return Err(format!(
            "{} has FNV-1a {hash:#018x}, expected {MODEL_FNV1A64:#018x}; \
             regenerate it with the regen-model binary",
            path.display()
        ));
    }
    Ok(())
}

/// Loads the checkpoint (the `nn.load` layer call) and checks that its
/// architecture is the preset's.
///
/// # Errors
///
/// Returns a message on an I/O or format error or an architecture mismatch.
pub fn load() -> Result<TransformerLm, String> {
    let path = model_path();
    let (model, _) =
        serialize::load_from_path(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    check_config(&model)?;
    Ok(model)
}

/// Checks that `model` has the preset's architecture.
///
/// # Errors
///
/// Returns a message naming both configurations on a mismatch.
pub fn check_config(model: &TransformerLm) -> Result<(), String> {
    let want = preset().model;
    if *model.config() != want {
        return Err(format!(
            "checkpoint config {:?} differs from the {PRESET} preset {want:?}",
            model.config()
        ));
    }
    Ok(())
}

/// Trains the preset through [`ZooSpec::build`] and writes the checkpoint,
/// returning the new file's hash.
///
/// # Errors
///
/// Returns a message on a write error.
pub fn regenerate() -> Result<u64, String> {
    let zoo = preset().build();
    let path = model_path();
    let meta = SavedMeta {
        first_loss: zoo.report.first_loss,
        final_loss: zoo.report.final_loss,
    };
    serialize::save_to_path(&zoo.model, meta, &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(fnv1a64(&bytes))
}
