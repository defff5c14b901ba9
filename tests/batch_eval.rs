//! Cross-crate tests of the batch evaluation engine: property tests that
//! batch evaluation is order-preserving and bit-identical to serial
//! evaluation for the macro and chip problems, equivalence of the batched
//! NSGA-II loop with a forced-serial evaluation path, and determinism of
//! seeded explorations under population-parallel (and cached) evaluation.

use acim_dse::{AcimDesignProblem, ChipDseConfig, ChipExplorer, DesignSpaceExplorer, DseConfig};
use acim_model::ModelParams;
use acim_moga::{CachedProblem, Evaluation, Nsga2, Nsga2Config, Problem};
use proptest::prelude::*;

fn macro_problem() -> AcimDesignProblem {
    AcimDesignProblem::new(16 * 1024, 16, 1024, ModelParams::s28_default()).unwrap()
}

fn chip_config(heterogeneous: bool) -> ChipDseConfig {
    use acim_chip::Network;
    ChipDseConfig {
        population_size: 24,
        generations: 8,
        grid_rows: vec![1, 2],
        grid_cols: vec![1, 2],
        buffer_kib: vec![8, 32],
        heterogeneous,
        ..ChipDseConfig::for_network(Network::edge_cnn(1))
    }
}

/// Forces the serial evaluation path: forwards `evaluate` only, so the
/// trait-default (serial map) batch implementation is used.  This is the
/// pre-refactor behaviour the parallel path must reproduce bit-for-bit.
struct ForcedSerial<P>(P);

impl<P: Problem> Problem for ForcedSerial<P> {
    fn num_variables(&self) -> usize {
        self.0.num_variables()
    }
    fn num_objectives(&self) -> usize {
        self.0.num_objectives()
    }
    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        self.0.evaluate(genes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn macro_batch_is_order_preserving_and_bit_identical(
        genomes in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 3), 1..40)
    ) {
        let problem = macro_problem();
        let batch = problem.evaluate_batch(&genomes);
        prop_assert_eq!(batch.len(), genomes.len());
        for (genes, eval) in genomes.iter().zip(&batch) {
            prop_assert_eq!(eval, &problem.evaluate(genes));
        }
    }

    #[test]
    fn uniform_chip_batch_is_order_preserving_and_bit_identical(
        genomes in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 6), 1..24)
    ) {
        let problem = acim_dse::ChipDesignProblem::new(&chip_config(false)).unwrap();
        let batch = problem.evaluate_batch(&genomes);
        prop_assert_eq!(batch.len(), genomes.len());
        for (genes, eval) in genomes.iter().zip(&batch) {
            prop_assert_eq!(eval, &problem.evaluate(genes));
        }
    }

    #[test]
    fn heterogeneous_chip_batch_is_order_preserving_and_bit_identical(
        genomes in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 15), 1..16)
    ) {
        let problem = acim_dse::ChipDesignProblem::new(&chip_config(true)).unwrap();
        prop_assert_eq!(problem.num_variables(), 15);
        let batch = problem.evaluate_batch(&genomes);
        prop_assert_eq!(batch.len(), genomes.len());
        for (genes, eval) in genomes.iter().zip(&batch) {
            prop_assert_eq!(eval, &problem.evaluate(genes));
        }
    }

    #[test]
    fn cached_batch_is_bit_identical_to_uncached(
        genomes in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 3), 1..40)
    ) {
        let problem = macro_problem();
        let keyed = problem.clone();
        let cached = CachedProblem::with_key_fn(
            problem.clone(),
            move |genes| keyed.cache_key(genes),
        );
        // Evaluate the list twice: the second pass is all cache hits and
        // must still be bit-identical.
        let uncached = problem.evaluate_batch(&genomes);
        prop_assert_eq!(&cached.evaluate_batch(&genomes), &uncached);
        prop_assert_eq!(&cached.evaluate_batch(&genomes), &uncached);
        prop_assert!(cached.stats().hits >= genomes.len());
    }
}

#[test]
fn batched_nsga2_matches_forced_serial_path_on_the_macro_problem() {
    let config = Nsga2Config {
        population_size: 24,
        generations: 12,
        ..Default::default()
    };
    for seed in [7u64, 99, 0xACE5] {
        let parallel = Nsga2::new(macro_problem(), config.clone())
            .with_seed(seed)
            .run();
        let serial = Nsga2::new(ForcedSerial(macro_problem()), config.clone())
            .with_seed(seed)
            .run();
        assert_eq!(parallel.evaluations(), serial.evaluations());
        assert_eq!(parallel.pareto_objectives(), serial.pareto_objectives());
        for (a, b) in parallel.population.iter().zip(&serial.population) {
            assert_eq!(a.genes, b.genes);
            assert_eq!(a.objectives, b.objectives);
        }
    }
}

#[test]
fn batched_nsga2_matches_forced_serial_path_on_the_chip_problem() {
    let config = Nsga2Config {
        population_size: 16,
        generations: 6,
        ..Default::default()
    };
    let problem = acim_dse::ChipDesignProblem::new(&chip_config(false)).unwrap();
    let parallel = Nsga2::new(&problem, config.clone()).with_seed(41).run();
    let serial = Nsga2::new(ForcedSerial(&problem), config)
        .with_seed(41)
        .run();
    assert_eq!(parallel.pareto_objectives(), serial.pareto_objectives());
    for (a, b) in parallel.population.iter().zip(&serial.population) {
        assert_eq!(a.genes, b.genes);
        assert_eq!(a.objectives, b.objectives);
    }
}

#[test]
fn soa_batched_exploration_reproduces_the_scalar_path_front() {
    // The macro problem routes whole cohorts through the struct-of-arrays
    // batch kernel; `ForcedSerial` forwards only `evaluate`, so the
    // trait's default batch sends every genome down the per-genome scalar
    // route instead.  A seeded exploration must produce a bit-identical
    // Pareto front either way — the SoA kernel is only allowed to be
    // faster, never different.
    let config = Nsga2Config {
        population_size: 24,
        generations: 10,
        ..Default::default()
    };
    for seed in [3u64, 0xF00D] {
        let soa = Nsga2::new(macro_problem(), config.clone())
            .with_seed(seed)
            .run();
        let scalar = Nsga2::new(ForcedSerial(macro_problem()), config.clone())
            .with_seed(seed)
            .run();
        assert_eq!(soa.pareto_objectives(), scalar.pareto_objectives());
        for (a, b) in soa.population.iter().zip(&scalar.population) {
            assert_eq!(a.genes, b.genes);
            assert_eq!(a.objectives, b.objectives);
        }
    }
}

#[test]
fn cached_nsga2_produces_the_same_front_as_uncached() {
    let config = Nsga2Config {
        population_size: 24,
        generations: 12,
        ..Default::default()
    };
    let problem = macro_problem();
    let keyed = problem.clone();
    let cached = CachedProblem::with_key_fn(&problem, move |genes| keyed.cache_key(genes));
    let plain_run = Nsga2::new(&problem, config.clone()).with_seed(5).run();
    let cached_run = Nsga2::new(&cached, config).with_seed(5).run();
    assert_eq!(
        plain_run.pareto_objectives(),
        cached_run.pareto_objectives()
    );
    let stats = cached.stats();
    assert_eq!(stats.total(), cached_run.evaluations());
    assert!(stats.hits > 0, "discrete space must re-sample designs");
}

#[test]
fn seeded_macro_exploration_archives_are_identical_across_runs() {
    let config = DseConfig {
        population_size: 32,
        generations: 15,
        ..Default::default()
    };
    let explorer = DesignSpaceExplorer::new(config).unwrap();
    let a = explorer.explore().unwrap();
    let b = explorer.explore().unwrap();
    assert_eq!(a.len(), b.len());
    assert_eq!(a.engine.evaluations, b.engine.evaluations);
    assert_eq!(a.engine.cache, b.engine.cache);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.objective_vector(), y.objective_vector());
    }
}

#[test]
fn seeded_chip_exploration_archives_are_identical_across_runs() {
    for heterogeneous in [false, true] {
        let explorer = ChipExplorer::new(chip_config(heterogeneous)).unwrap();
        let a = explorer.explore().unwrap();
        let b = explorer.explore().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.engine.evaluations, b.engine.evaluations);
        assert_eq!(a.engine.cache, b.engine.cache);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.chip, y.chip);
            assert_eq!(x.objective_vector(), y.objective_vector());
        }
    }
}

#[test]
fn heterogeneous_genome_space_contains_the_uniform_space() {
    // Every uniform chip is encodable in the heterogeneous genome and
    // decodes to the same design point.
    let uniform = acim_dse::ChipDesignProblem::new(&chip_config(false)).unwrap();
    let hetero = acim_dse::ChipDesignProblem::new(&chip_config(true)).unwrap();
    let candidate = acim_dse::encoding::Candidate {
        height: 128,
        width: 32,
        local_array: 4,
        adc_bits: 3,
    };
    let genes_u = uniform.encode(&candidate, 2, 2, 32).unwrap();
    let genes_h = hetero.encode(&candidate, 2, 2, 32).unwrap();
    let point_u = uniform.decode_point(&genes_u).unwrap();
    let point_h = hetero.decode_point(&genes_h).unwrap();
    assert_eq!(point_u.chip, point_h.chip);
    assert_eq!(point_u.objective_vector(), point_h.objective_vector());
}
