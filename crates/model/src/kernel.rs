//! The batched, allocation-free evaluation kernel of the closed-form
//! model (Equations 2–11).
//!
//! The design-space explorers evaluate the same `ModelParams` against tens
//! of thousands of `(H, W, L, B_ADC)` points, yet the historical scalar
//! path re-derived every parameter-only quantity — validation, the
//! `10·log10(k3/C_o)` dB term, the per-precision ADC energy and cycle
//! time — on every call.  This module splits the work by what it depends
//! on:
//!
//! * [`ModelInvariants`] — everything that depends **only on the
//!   parameters**, computed once per problem: validation, hoisted
//!   constants, and per-`B_ADC` tables over the discrete `1..=8` precision
//!   grid (the full `adc_energy(B)` and `cycle_time(B)` results, `6·B`,
//!   `B·A_DFF`).  Memoizing a whole function result over its exact integer
//!   domain is bit-identical by construction — no floating-point operation
//!   is reordered.
//! * [`SpecBatch`] — a reusable struct-of-arrays scratch buffer the
//!   explorers decode whole cohorts into, so the per-genome path touches
//!   no allocator.
//! * [`ModelInvariants::evaluate_spec`] /
//!   [`ModelInvariants::evaluate_batch`] — the per-design remainder:
//!   a handful of flops per objective, guaranteed bit-identical to
//!   [`crate::objectives::evaluate`] (the equivalence proptests in
//!   `tests/properties.rs` pin this for the whole discrete grid).
//!
//! # Table-vs-`powf` policy
//!
//! A transcendental call is only replaced by a table when the table entry
//! is produced by *the same call on the same input* (`adc_energy(B)` for
//! the eight valid precisions, `log10(2^k)` via [`crate::math::log10_int`]).
//! Rewrites that change results, such as a reciprocal multiply in place of
//! the throughput division, are not used.

use acim_arch::spec::MAX_ADC_BITS;
use acim_arch::AcimSpec;

use crate::error::ModelError;
use crate::math::log10_int;
use crate::objectives::DesignMetrics;
use crate::params::ModelParams;

/// Table length for per-`B_ADC` lookups: precisions `1..=MAX_ADC_BITS`,
/// index 0 unused.
const B_TABLE: usize = MAX_ADC_BITS as usize + 1;

/// Every parameter-only quantity of the closed-form model, hoisted out of
/// the per-design path.
///
/// Construction runs the full parameter validation (and costs more than a
/// single scalar evaluation — build one per problem or batch, never per
/// design); afterwards evaluation is infallible, because every input that
/// could fail has already been checked.
#[derive(Debug, Clone)]
pub struct ModelInvariants {
    /// Hoisted SNR constant `10·log10(k3/C_o)` (Equation 11).
    log_term_db: f64,
    /// SNR offset `k4` (Equation 11).
    k4: f64,
    /// `6·B` per ADC precision (Equation 11).
    six_b: [f64; B_TABLE],
    /// Conversion-cycle time in **picoseconds** per ADC precision
    /// (`cycle_time(B)`), for [`ModelInvariants::cycle_time_ns`].
    cycle_ps: [f64; B_TABLE],
    /// Conversion-cycle time in **seconds** per ADC precision
    /// (Equation 7): `cycle_time(B) · 1e-12`.
    cycle_s: [f64; B_TABLE],
    /// Full ADC conversion energy `adc_energy(B)` in fJ per precision
    /// (Equation 9).
    adc_fj: [f64; B_TABLE],
    /// `E_compute + E_control` in fJ (Equation 8).
    e_static_fj: f64,
    /// `A_SRAM` in F² (Equation 10).
    a_sram: f64,
    /// `A_LC` in F² (Equation 10).
    a_lc: f64,
    /// `A_COMP` in F² (Equation 10).
    a_comp: f64,
    /// `B · A_DFF` in F² per ADC precision (Equation 10).
    b_a_dff: [f64; B_TABLE],
}

impl ModelInvariants {
    /// Validates `params` and hoists every parameter-only quantity.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the parameter set fails validation —
    /// the same failures the scalar path reports per call.
    pub fn new(params: &ModelParams) -> Result<Self, ModelError> {
        params.validate()?;
        let timing = &params.timing;
        let mut six_b = [0.0; B_TABLE];
        let mut cycle_ps = [0.0; B_TABLE];
        let mut cycle_s = [0.0; B_TABLE];
        let mut adc_fj = [0.0; B_TABLE];
        let mut b_a_dff = [0.0; B_TABLE];
        for b in 1..=MAX_ADC_BITS {
            let i = b as usize;
            six_b[i] = 6.0 * f64::from(b);
            cycle_ps[i] = timing.cycle_time(b).value();
            cycle_s[i] = cycle_ps[i] * 1e-12;
            adc_fj[i] = params.energy.adc_energy(b)?.value();
            b_a_dff[i] = f64::from(b) * params.area.a_dff.value();
        }
        Ok(Self {
            log_term_db: 10.0 * (params.snr.k3 / params.snr.c_o.value()).log10(),
            k4: params.snr.k4,
            six_b,
            cycle_ps,
            cycle_s,
            adc_fj,
            e_static_fj: (params.energy.e_compute + params.energy.e_control).value(),
            a_sram: params.area.a_sram.value(),
            a_lc: params.area.a_lc.value(),
            a_comp: params.area.a_comp.value(),
            b_a_dff,
        })
    }

    /// Evaluates one design through the hoisted invariants — bit-identical
    /// to [`crate::objectives::evaluate`], but infallible and with no
    /// per-parameter work left on the path.
    pub fn evaluate_spec(&self, spec: &AcimSpec) -> DesignMetrics {
        self.evaluate_dims(
            spec.height(),
            spec.width(),
            spec.local_array(),
            spec.adc_bits(),
        )
    }

    /// Evaluates a whole struct-of-arrays batch into `out` (cleared
    /// first), one [`DesignMetrics`] per design **in input order**.
    ///
    /// The only allocation is `out`'s growth beyond its retained capacity;
    /// a reused output buffer makes the loop allocation-free.
    pub fn evaluate_batch(&self, batch: &SpecBatch, out: &mut Vec<DesignMetrics>) {
        out.clear();
        out.reserve(batch.len());
        for i in 0..batch.len() {
            out.push(self.evaluate_dims(
                batch.height[i] as usize,
                batch.width[i] as usize,
                batch.local[i] as usize,
                batch.adc_bits[i],
            ));
        }
    }

    /// The shared per-design kernel over raw, pre-validated dimensions.
    ///
    /// Every expression keeps the operand order and association of the
    /// scalar path (`snr.rs` / `acim-arch` timing + energy / `area.rs`) —
    /// hoisting moved work, it did not reassociate it.
    #[inline]
    fn evaluate_dims(
        &self,
        height: usize,
        width: usize,
        local: usize,
        adc_bits: u32,
    ) -> DesignMetrics {
        let b = adc_bits as usize;
        debug_assert!((1..B_TABLE).contains(&b), "B_ADC={adc_bits} out of range");
        let n = height / local;
        let n_f = n as f64;
        let h_f = height as f64;
        let l_f = local as f64;

        // Equation 11 (snr_simplified_db minus the per-call validation).
        let snr_db = self.six_b[b] - 10.0 * log10_int(n) - self.log_term_db + self.k4;

        // Equation 7 (TimingModel::throughput_ops / 1e12).
        let macs_f = (n * width) as f64;
        let throughput_tops = 2.0 * macs_f / self.cycle_s[b] / 1e12;

        // Equations 8–9 (EnergyModelParams::energy_per_mac / tops_per_watt).
        let energy_per_mac_fj = self.e_static_fj + self.adc_fj[b] / n_f;
        let tops_per_watt = 2.0 / energy_per_mac_fj * 1000.0;

        // Equation 10 (area_f2_per_bit minus the per-call validation).
        let area_f2_per_bit =
            self.a_sram + self.a_lc / l_f + self.a_comp / h_f + self.b_a_dff[b] / h_f;

        DesignMetrics {
            snr_db,
            throughput_tops,
            energy_per_mac_fj,
            tops_per_watt,
            area_f2_per_bit,
        }
    }

    /// Conversion-cycle time in nanoseconds for a precision (the hoisted
    /// [`crate::throughput::cycle_time_ns`]).
    pub fn cycle_time_ns(&self, adc_bits: u32) -> f64 {
        self.cycle_ps[adc_bits as usize] / 1000.0
    }
}

/// A reusable struct-of-arrays buffer of decoded `(H, W, L, B_ADC)`
/// design points.
///
/// The explorers decode a whole cohort into one `SpecBatch` (retaining
/// capacity across generations via [`SpecBatch::clear`]) and hand it to
/// [`ModelInvariants::evaluate_batch`], keeping the hot loop free of both
/// `AcimSpec` re-validation and allocator traffic.
#[derive(Debug, Clone, Default)]
pub struct SpecBatch {
    height: Vec<u32>,
    width: Vec<u32>,
    local: Vec<u32>,
    adc_bits: Vec<u32>,
}

impl SpecBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `capacity` designs.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            height: Vec::with_capacity(capacity),
            width: Vec::with_capacity(capacity),
            local: Vec::with_capacity(capacity),
            adc_bits: Vec::with_capacity(capacity),
        }
    }

    /// Appends one validated design point.
    pub fn push_spec(&mut self, spec: &AcimSpec) {
        self.height.push(spec.height() as u32);
        self.width.push(spec.width() as u32);
        self.local.push(spec.local_array() as u32);
        self.adc_bits.push(spec.adc_bits());
    }

    /// Number of buffered designs.
    pub fn len(&self) -> usize {
        self.height.len()
    }

    /// Returns `true` when no designs are buffered.
    pub fn is_empty(&self) -> bool {
        self.height.is_empty()
    }

    /// Empties the batch, retaining the allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.height.clear();
        self.width.clear();
        self.local.clear();
        self.adc_bits.clear();
    }
}

/// Evaluates a whole struct-of-arrays batch with freshly hoisted
/// invariants — the one-shot convenience over
/// [`ModelInvariants::evaluate_batch`].  Long-lived problems should hoist
/// [`ModelInvariants`] once at construction instead.
///
/// # Errors
///
/// Returns [`ModelError`] when the parameter set fails validation.
pub fn evaluate_batch(
    params: &ModelParams,
    batch: &SpecBatch,
    out: &mut Vec<DesignMetrics>,
) -> Result<(), ModelError> {
    ModelInvariants::new(params)?.evaluate_batch(batch, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::evaluate;

    fn spec(h: usize, w: usize, l: usize, b: u32) -> AcimSpec {
        AcimSpec::from_dimensions(h, w, l, b).unwrap()
    }

    fn assert_bit_identical(a: &DesignMetrics, b: &DesignMetrics) {
        assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits());
        assert_eq!(a.throughput_tops.to_bits(), b.throughput_tops.to_bits());
        assert_eq!(a.energy_per_mac_fj.to_bits(), b.energy_per_mac_fj.to_bits());
        assert_eq!(a.tops_per_watt.to_bits(), b.tops_per_watt.to_bits());
        assert_eq!(a.area_f2_per_bit.to_bits(), b.area_f2_per_bit.to_bits());
    }

    #[test]
    fn invariant_path_matches_scalar_path_bitwise() {
        let params = ModelParams::s28_default();
        let inv = ModelInvariants::new(&params).unwrap();
        for (h, w, l, b) in [
            (128usize, 128usize, 2usize, 3u32),
            (128, 128, 8, 3),
            (64, 256, 8, 3),
            (512, 32, 2, 8),
            (1024, 16, 4, 8),
            (64, 64, 32, 1),
        ] {
            let s = spec(h, w, l, b);
            let scalar = evaluate(&s, &params).unwrap();
            assert_bit_identical(&inv.evaluate_spec(&s), &scalar);
        }
    }

    #[test]
    fn batch_matches_scalar_in_order() {
        let params = ModelParams::s28_default();
        let specs = [
            spec(128, 128, 2, 3),
            spec(128, 128, 8, 3),
            spec(512, 32, 2, 8),
        ];
        let mut batch = SpecBatch::with_capacity(specs.len());
        for s in &specs {
            batch.push_spec(s);
        }
        assert_eq!(batch.len(), 3);
        let mut out = Vec::new();
        evaluate_batch(&params, &batch, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        for (s, batched) in specs.iter().zip(&out) {
            assert_bit_identical(batched, &evaluate(s, &params).unwrap());
        }
        // Clearing retains capacity and empties the batch.
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn batch_output_buffer_is_reusable() {
        let params = ModelParams::s28_default();
        let inv = ModelInvariants::new(&params).unwrap();
        let mut batch = SpecBatch::new();
        batch.push_spec(&spec(128, 128, 8, 3));
        let mut out = Vec::new();
        inv.evaluate_batch(&batch, &mut out);
        let first = out[0];
        batch.clear();
        batch.push_spec(&spec(128, 128, 8, 3));
        batch.push_spec(&spec(64, 256, 8, 3));
        inv.evaluate_batch(&batch, &mut out);
        assert_eq!(out.len(), 2);
        assert_bit_identical(&out[0], &first);
    }

    #[test]
    fn cycle_time_matches_scalar_helper() {
        let params = ModelParams::s28_default();
        let inv = ModelInvariants::new(&params).unwrap();
        for b in 1..=MAX_ADC_BITS {
            let s = spec(1024, 16, 2, b);
            assert_eq!(
                inv.cycle_time_ns(b).to_bits(),
                crate::throughput::cycle_time_ns(&s, &params).to_bits()
            );
        }
    }

    #[test]
    fn invalid_params_fail_at_hoist_time() {
        let mut params = ModelParams::s28_default();
        params.snr.k3 = -1.0;
        assert!(ModelInvariants::new(&params).is_err());
        let mut params = ModelParams::s28_default();
        params.timing.t_compute = acim_tech::Picosecond::new(0.0);
        assert!(ModelInvariants::new(&params).is_err());
        let mut params = ModelParams::s28_default();
        params.energy.vdd = -0.5;
        assert!(ModelInvariants::new(&params).is_err());
    }
}
