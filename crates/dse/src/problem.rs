//! The ACIM design problem as an [`acim_moga::Problem`].

use acim_arch::AcimSpec;
use acim_model::{ModelInvariants, ModelParams, SpecBatch};
use acim_moga::{Evaluation, Problem};
use rayon::prelude::*;

use crate::encoding::{Candidate, DesignEncoding};
use crate::error::DseError;
use crate::explorer::SearchSpace;
use crate::solution::DesignPoint;

/// The four-objective, constrained ACIM parameter-selection problem of
/// Equation 12, evaluated with the analytic estimation model.
#[derive(Debug, Clone)]
pub struct AcimDesignProblem {
    encoding: DesignEncoding,
    params: ModelParams,
    // Every per-ModelParams quantity of Equations 7-11, hoisted once at
    // construction so the per-genome path is pure arithmetic.
    invariants: ModelInvariants,
}

impl AcimDesignProblem {
    /// Creates the problem for one array size.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] when the encoding cannot be built
    /// or the model parameters are invalid.
    pub fn new(
        array_size: usize,
        min_height: usize,
        max_height: usize,
        params: ModelParams,
    ) -> Result<Self, DseError> {
        let invariants = ModelInvariants::new(&params)?;
        let encoding = DesignEncoding::new(array_size, min_height, max_height)?;
        Ok(Self {
            encoding,
            params,
            invariants,
        })
    }

    /// The genome encoding in use.
    pub fn encoding(&self) -> &DesignEncoding {
        &self.encoding
    }

    /// The model parameters in use.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The canonical cache key of a genome: its decode-bucket indices.
    /// Every genome landing in the same (H, L, B_ADC) design shares one
    /// key, so a memoizing wrapper ([`acim_moga::CachedProblem`]) never
    /// re-evaluates a re-sampled design.
    pub fn cache_key(&self, genes: &[f64]) -> Vec<i64> {
        self.encoding.bucket_indices(genes)
    }

    /// Decodes a genome into a full [`DesignPoint`] when it is feasible.
    pub fn decode_point(&self, genes: &[f64]) -> Option<DesignPoint> {
        let candidate = self.encoding.decode(genes);
        let spec = candidate.into_spec(self.encoding.array_size()).ok()?;
        let metrics = self.invariants.evaluate_spec(&spec);
        Some(DesignPoint::new(spec, metrics))
    }
}

impl Problem for AcimDesignProblem {
    fn num_variables(&self) -> usize {
        self.encoding.num_genes()
    }

    fn num_objectives(&self) -> usize {
        4
    }

    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        let candidate = self.encoding.decode(genes);
        match candidate.into_spec(self.encoding.array_size()) {
            Ok(spec) => {
                Evaluation::unconstrained(self.invariants.evaluate_spec(&spec).objective_array())
            }
            Err(violation) => Evaluation::new([f64::MAX; 4], violation),
        }
    }

    /// Population-parallel batch evaluation, borrowed straight from the
    /// caller's slice — the work-stealing tasks reference the genomes in
    /// place (scoped executor), so the batch path allocates nothing per
    /// genome.
    ///
    /// The genomes are decoded in parallel (`with_max_len(1)`, so one slow
    /// decode cannot stall a chunk) and every feasible spec then flows
    /// through the struct-of-arrays batch kernel
    /// ([`ModelInvariants::evaluate_batch`]) in one pass.  Input order is
    /// preserved and the result is bit-identical to the serial map —
    /// seeded explorations stay deterministic.
    fn evaluate_batch(&self, genomes: &[Vec<f64>]) -> Vec<Evaluation> {
        let decoded: Vec<Result<AcimSpec, f64>> = genomes
            .par_iter()
            .with_max_len(1)
            .map(|genes| {
                self.encoding
                    .decode(genes)
                    .into_spec(self.encoding.array_size())
            })
            .collect();
        let mut batch = SpecBatch::with_capacity(genomes.len());
        for spec in decoded.iter().flatten() {
            batch.push_spec(spec);
        }
        let mut metrics = Vec::with_capacity(batch.len());
        self.invariants.evaluate_batch(&batch, &mut metrics);
        let mut metrics = metrics.into_iter();
        decoded
            .into_iter()
            .map(|result| match result {
                Ok(_) => {
                    let m = metrics.next().expect("one metric per feasible spec");
                    Evaluation::unconstrained(m.objective_array())
                }
                Err(violation) => Evaluation::new([f64::MAX; 4], violation),
            })
            .collect()
    }

    fn name(&self) -> &str {
        "easyacim design-space exploration"
    }
}

impl SearchSpace for AcimDesignProblem {
    type Point = DesignPoint;

    fn genome_key(&self) -> impl Fn(&[f64]) -> Vec<i64> + Send + Sync + 'static {
        // Only the encoding, not a clone of the whole problem.
        let encoding = self.encoding.clone();
        move |genes| encoding.bucket_indices(genes)
    }

    fn encode_point(&self, point: &DesignPoint) -> Option<Vec<f64>> {
        self.encoding.encode(&Candidate {
            height: point.spec.height(),
            width: point.spec.width(),
            local_array: point.spec.local_array(),
            adc_bits: point.spec.adc_bits(),
        })
    }

    fn decode_points(&self, genomes: &[Vec<f64>]) -> Vec<DesignPoint> {
        genomes
            .iter()
            .filter_map(|genes| self.decode_point(genes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> AcimDesignProblem {
        AcimDesignProblem::new(16 * 1024, 16, 1024, ModelParams::s28_default()).unwrap()
    }

    #[test]
    fn problem_shape() {
        let p = problem();
        assert_eq!(p.num_variables(), 3);
        assert_eq!(p.num_objectives(), 4);
        assert!(p.name().contains("easyacim"));
    }

    #[test]
    fn feasible_genome_evaluates_to_finite_objectives() {
        let p = problem();
        let genes = p
            .encoding()
            .encode(&crate::encoding::Candidate {
                height: 128,
                width: 128,
                local_array: 8,
                adc_bits: 3,
            })
            .unwrap();
        let eval = p.evaluate(&genes);
        assert!(eval.is_feasible());
        assert!(eval.objectives.iter().all(|o| o.is_finite()));
        let point = p.decode_point(&genes).expect("feasible point decodes");
        assert_eq!(point.spec.local_array(), 8);
    }

    #[test]
    fn infeasible_genome_reports_violation() {
        let p = problem();
        // L = 32 with B = 8 violates the CDAC constraint for every height of
        // a 16 kb array except very tall ones; pick H = 32 explicitly.
        let genes = p
            .encoding()
            .encode(&crate::encoding::Candidate {
                height: 32,
                width: 512,
                local_array: 32,
                adc_bits: 8,
            })
            .unwrap();
        let eval = p.evaluate(&genes);
        assert!(!eval.is_feasible());
        assert!(p.decode_point(&genes).is_none());
    }

    #[test]
    fn parallel_batch_matches_serial_in_order() {
        let p = problem();
        let genomes: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                let x = f64::from(i) / 31.0;
                vec![x, (x * 7.3) % 1.0, (x * 3.1) % 1.0]
            })
            .collect();
        let batch = p.evaluate_batch(&genomes);
        assert_eq!(batch.len(), genomes.len());
        for (genes, eval) in genomes.iter().zip(&batch) {
            assert_eq!(eval, &p.evaluate(genes));
        }
    }

    #[test]
    fn invalid_model_params_rejected_up_front() {
        let mut params = ModelParams::s28_default();
        params.snr.k3 = -1.0;
        assert!(AcimDesignProblem::new(16 * 1024, 16, 1024, params).is_err());
    }
}
