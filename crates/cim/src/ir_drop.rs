//! IR-drop along crossbar bitlines.
//!
//! The read current of every cell in a column flows through the same metal
//! bitline; finite wire resistance makes the voltage seen by cells far from
//! the sense amplifier sag, reducing their effective contribution. The net
//! effect, to first order, is a multiplicative droop on each column's
//! accumulated output that grows with
//!
//! * the total conductance programmed on the column (more current),
//! * the input activity level (more current), and
//! * the square of the array height (longer wire × more current).
//!
//! We use the first-order closed-form used by array-level simulators:
//!
//! ```text
//! z'_ij = z_ij · (1 − droop_ij)
//! droop_ij = scale · κ · ḡ_j · ū_i · (rows / rows_ref)²
//! ```
//!
//! where `ḡ_j` is the column's mean relative conductance, `ū_i` the mean
//! absolute normalised input of the sample, and `κ` calibrates the nominal
//! (scale = 1) droop to the sub-percent level measured on 512-row PCM
//! arrays — consistent with the paper's finding that transformers are
//! robust to IR-drop at nominal scale (Fig. 3e).

/// First-order IR-drop model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrDropModel {
    /// User-facing scale (Table II `ir_drop`, 1.0 nominal, 0 disables).
    pub scale: f32,
    /// Nominal droop coefficient at full conductance/activity on a
    /// reference-height array.
    pub kappa: f32,
    /// Reference array height for which `kappa` is calibrated.
    pub rows_ref: usize,
}

impl IrDropModel {
    /// Creates a model with the nominal κ calibration.
    pub fn new(scale: f32) -> Self {
        Self {
            scale,
            kappa: 0.03,
            rows_ref: 512,
        }
    }

    /// Whether the model is a no-op.
    pub fn is_off(&self) -> bool {
        self.scale <= 0.0
    }

    /// Per-column droop factors (excluding the input-activity term).
    ///
    /// `col_mean_rel_conductance[j]` is the column's mean conductance
    /// relative to `g_max`, in `[0, 1]` for single-cell encodings (the
    /// differential pair contributes `|w|`, so the mean of `|ŵ_j|` is the
    /// right input).
    pub fn column_factors(&self, col_mean_rel_conductance: &[f32], rows: usize) -> Vec<f32> {
        let height = (rows as f32 / self.rows_ref as f32).powi(2);
        col_mean_rel_conductance
            .iter()
            .map(|&g| (self.scale * self.kappa * g.max(0.0) * height).min(0.9))
            .collect()
    }

    /// Applies the droop to one output row in place.
    ///
    /// `mean_abs_input` is `ū_i`, the mean absolute normalised DAC input of
    /// the sample.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != column_factors.len()`.
    pub fn apply(&self, z: &mut [f32], column_factors: &[f32], mean_abs_input: f32) {
        assert_eq!(
            z.len(),
            column_factors.len(),
            "ir-drop factor length mismatch"
        );
        if self.is_off() {
            return;
        }
        let u = mean_abs_input.clamp(0.0, 1.0);
        for (v, &f) in z.iter_mut().zip(column_factors) {
            *v *= Self::droop_multiplier(f, u);
        }
    }

    /// The multiplicative droop [`apply`](IrDropModel::apply) would use for
    /// one column at activity `mean_abs_input` — exposed so a fused
    /// conversion epilogue can apply the droop per element instead of in a
    /// dedicated sweep. Returns 1 when the model is off.
    #[inline(always)]
    pub fn multiplier(&self, column_factor: f32, mean_abs_input: f32) -> f32 {
        if self.is_off() {
            return 1.0;
        }
        Self::droop_multiplier(column_factor, mean_abs_input.clamp(0.0, 1.0))
    }

    /// Shared per-element droop expression of `apply`/`multiplier`
    /// (`u` pre-clamped to `[0, 1]`).
    #[inline(always)]
    fn droop_multiplier(column_factor: f32, u: f32) -> f32 {
        1.0 - (column_factor * u).min(0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_scale_is_noop() {
        let m = IrDropModel::new(0.0);
        assert!(m.is_off());
        let f = m.column_factors(&[0.5, 1.0], 512);
        let mut z = [1.0f32, 2.0];
        m.apply(&mut z, &f, 0.5);
        assert_eq!(z, [1.0, 2.0]);
    }

    #[test]
    fn nominal_droop_is_sub_percent_scale() {
        let m = IrDropModel::new(1.0);
        let f = m.column_factors(&[0.25], 512);
        // typical column: ≤ 1% droop before activity scaling
        assert!(f[0] < 0.01, "factor {}", f[0]);
        assert!(f[0] > 0.0);
    }

    #[test]
    fn droop_grows_with_conductance_and_height() {
        let m = IrDropModel::new(1.0);
        let low = m.column_factors(&[0.1], 512)[0];
        let high = m.column_factors(&[0.9], 512)[0];
        assert!(high > low);
        let short = m.column_factors(&[0.5], 128)[0];
        let tall = m.column_factors(&[0.5], 1024)[0];
        assert!(tall > short);
        assert!((tall / short - 64.0).abs() < 1e-3); // (1024/128)² = 64
    }

    #[test]
    fn apply_reduces_magnitude_only() {
        let m = IrDropModel::new(10.0);
        let f = m.column_factors(&[1.0, 1.0], 512);
        let mut z = [4.0f32, -4.0];
        m.apply(&mut z, &f, 1.0);
        assert!(z[0] > 0.0 && z[0] < 4.0);
        assert!(z[1] < 0.0 && z[1] > -4.0);
        assert_eq!(z[0], -z[1]);
    }

    #[test]
    fn droop_is_capped() {
        let m = IrDropModel::new(1e6);
        let f = m.column_factors(&[1.0], 512);
        assert!(f[0] <= 0.9);
        let mut z = [1.0f32];
        m.apply(&mut z, &f, 1.0);
        assert!(z[0] >= 0.1 - 1e-6);
    }

    #[test]
    fn activity_scales_droop() {
        let m = IrDropModel::new(5.0);
        let f = m.column_factors(&[0.8], 512);
        let mut quiet = [1.0f32];
        let mut busy = [1.0f32];
        m.apply(&mut quiet, &f, 0.1);
        m.apply(&mut busy, &f, 1.0);
        assert!(busy[0] < quiet[0]);
    }
}
