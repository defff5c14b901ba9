//! The MOGA-based design-space explorer (Figure 4, "MOGA-based Design Space
//! Explorer (NSGA-II)").
//!
//! One NSGA-II driver serves every design space: the macro space
//! ([`AcimDesignProblem`], driven by [`DesignSpaceExplorer`]) and the chip
//! space (`ChipDesignProblem`, driven by `ChipExplorer`) differ only in
//! their genome, their cache key and the point a genome decodes to.
//!
//! Long-lived callers (the `easyacim` `ExplorationService`) drive the
//! explorers through `explore_with`, which accepts [`ExploreOptions`] — a
//! shared evaluation-cache store amortised across requests and a
//! warm-start seed population from a previous run's archive — plus a
//! per-generation progress callback.  The plain `explore` remains the
//! cold single-run path and is bit-identical to what it produced before
//! these injection points existed.

use std::ops::ControlFlow;

use acim_model::ModelParams;
use acim_moga::{
    CacheStore, CachedProblem, CancelToken, EvalStats, Individual, Nsga2, Nsga2Config,
    ParetoArchive, PoolStats, Problem,
};

use crate::error::DseError;
use crate::problem::AcimDesignProblem;
use crate::solution::DesignPoint;

/// Injection points a long-lived caller can thread into an exploration
/// run.  The default (no cache handles, no warm-start genomes) reproduces
/// a cold, self-contained run exactly.
#[derive(Debug, Clone, Default)]
pub struct ExploreOptions {
    /// Shared evaluation-cache store.  `None` gives the run a fresh
    /// private cache; `Some` makes it read and write entries other runs
    /// over the **same design space** produced — the store trusts its
    /// keys, so handing it to a run over a different space poisons it.
    pub cache: Option<CacheStore>,
    /// Warm-start genomes, typically a previous run's Pareto archive over
    /// the same design space: they seed the initial NSGA-II population
    /// (see [`Nsga2Config::initial_population`]) and are pre-inserted
    /// into the run's archive, so the warm frontier can never be worse
    /// than the seeds it started from.
    pub warm_start: Vec<Vec<f64>>,
    /// Cooperative cancellation handle, polled after every generation's
    /// environmental selection.  When it trips, the run stops at that
    /// generation boundary and returns [`DseError::Cancelled`] /
    /// [`DseError::DeadlineExceeded`] carrying the partial progress.  A
    /// token that never trips is unobservable: the run (RNG stream, cache
    /// fills, frontier) is bit-identical to one without a token.
    pub cancel: Option<CancelToken>,
}

/// Configuration of one exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// User-defined array size (`H · W`).
    pub array_size: usize,
    /// Smallest array height considered.
    pub min_height: usize,
    /// Largest array height considered.
    pub max_height: usize,
    /// NSGA-II population size.
    pub population_size: usize,
    /// NSGA-II generation count.
    pub generations: usize,
    /// RNG seed (exploration is deterministic per seed).
    pub seed: u64,
    /// Estimation-model parameters.
    pub params: ModelParams,
}

impl Default for DseConfig {
    fn default() -> Self {
        Self {
            array_size: 16 * 1024,
            min_height: 16,
            max_height: 1024,
            population_size: 80,
            generations: 60,
            seed: 0xACE5,
            params: ModelParams::s28_default(),
        }
    }
}

/// The Pareto set produced by an exploration run: every feasible, mutually
/// non-dominated design encountered during the search.
#[derive(Debug, Clone)]
pub struct ParetoSet<P> {
    points: Vec<P>,
    /// Evaluation-engine statistics of the run: evaluations requested,
    /// cache hit/miss counters (hits are designs the optimiser re-sampled
    /// and the engine did not re-evaluate), and wall-clock breakdown.
    pub engine: EvalStats,
}

/// The frontier of a macro exploration.
pub type ParetoFrontierSet = ParetoSet<DesignPoint>;

impl<P> ParetoSet<P> {
    /// The frontier design points.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Number of frontier points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the frontier points.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        self.points.iter()
    }

    /// Consumes the set and returns the points.
    pub fn into_points(self) -> Vec<P> {
        self.points
    }

    /// The point with the best (largest) value of a metric selected by
    /// `key`, if the frontier is non-empty.
    pub fn best_by<F: Fn(&P) -> f64>(&self, key: F) -> Option<&P> {
        self.points.iter().max_by(|a, b| {
            key(a)
                .partial_cmp(&key(b))
                .expect("metrics must not be NaN")
        })
    }
}

/// A design space the shared NSGA-II driver can explore.
pub(crate) trait SearchSpace: Problem {
    /// The decoded design a frontier holds.
    type Point;

    /// A self-contained genome → cache-key function: every genome that
    /// decodes to the same design shares one key.
    fn genome_key(&self) -> impl Fn(&[f64]) -> Vec<i64> + Send + Sync + 'static;

    /// Re-encodes a point into a genome; `None` when it lies outside the
    /// space's catalogue.
    fn encode_point(&self, point: &Self::Point) -> Option<Vec<f64>>;

    /// Decodes genomes into points in input order, dropping infeasible
    /// ones.
    fn decode_points(&self, genomes: &[Vec<f64>]) -> Vec<Self::Point>;
}

/// The NSGA-II run parameters the explorer configurations share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunShape {
    /// Reported by [`DseError::EmptyDesignSpace`].
    pub(crate) array_size: usize,
    pub(crate) population_size: usize,
    pub(crate) generations: usize,
    pub(crate) seed: u64,
}

/// The population/generation check both explorer constructors run.
pub(crate) fn check_run_shape(population_size: usize, generations: usize) -> Result<(), DseError> {
    if population_size < 4 || !population_size.is_multiple_of(2) {
        return Err(DseError::InvalidConfig(
            "population size must be an even number >= 4".into(),
        ));
    }
    if generations == 0 {
        return Err(DseError::InvalidConfig(
            "generation count must be at least 1".into(),
        ));
    }
    Ok(())
}

/// Re-encodes frontier points into warm-start genomes for a follow-up run
/// over the same space, skipping points outside its catalogue.
pub(crate) fn session_genomes<S: SearchSpace>(space: &S, points: &[S::Point]) -> Vec<Vec<f64>> {
    points
        .iter()
        .filter_map(|point| space.encode_point(point))
        .collect()
}

/// Archives every feasible individual against the objectives NSGA-II
/// already computed; points are decoded only once the archive settles.
fn archive_feasible(archive: &mut ParetoArchive<Vec<f64>>, population: &[Individual]) {
    for individual in population {
        if individual.is_feasible() {
            archive.insert(individual.objectives.clone(), individual.genes.clone());
        }
    }
}

/// The NSGA-II exploration driver: runs `run` over `space` with the
/// caller's [`ExploreOptions`], invoking `progress(generation)` after every
/// generation's environmental selection.
///
/// The space is wrapped in a memoizing cache keyed by its decode buckets:
/// the bucketed genome re-samples identical designs constantly, and the
/// cache answers those re-evaluations for free while its batch path fans
/// the unique misses out across cores.  Every feasible genome of every
/// generation is archived, so the frontier is not limited to the final
/// population.
///
/// # Errors
///
/// Returns [`DseError::EmptyDesignSpace`] when the optimiser never found a
/// feasible design, [`DseError::InvalidConfig`] when a warm-start genome
/// does not match the genome length, or [`DseError::Cancelled`] /
/// [`DseError::DeadlineExceeded`] when the injected [`CancelToken`]
/// tripped before the run finished.
pub(crate) fn explore<S: SearchSpace>(
    space: &S,
    run: RunShape,
    options: &ExploreOptions,
    mut progress: impl FnMut(usize),
) -> Result<ParetoSet<S::Point>, DseError> {
    let n_var = space.num_variables();
    for genome in &options.warm_start {
        if genome.len() != n_var {
            return Err(DseError::InvalidConfig(format!(
                "warm-start genome has {} genes, design space has {n_var}",
                genome.len()
            )));
        }
    }
    // A token that tripped before any work ran: stop before the initial
    // population is even evaluated.
    if let Some(reason) = options.cancel.as_ref().and_then(CancelToken::status) {
        return Err(DseError::from_cancel(reason, 0, run.generations));
    }
    let cached = CachedProblem::with_key_fn(space, space.genome_key())
        .with_shared_store(options.cache.clone().unwrap_or_default());
    let mut archive = ParetoArchive::new();
    // Warm-start seeds are archived up front (feasible ones only), so the
    // warm frontier dominates-or-equals the one it was seeded from.
    // Scoring them goes through the cache: when the seeds came from a
    // request sharing this store, every one is a hit.
    if !options.warm_start.is_empty() {
        let evals = cached.evaluate_batch(&options.warm_start);
        for (genome, eval) in options.warm_start.iter().zip(evals) {
            if eval.is_feasible() {
                archive.insert(eval.objectives, genome.clone());
            }
        }
    }
    let nsga_config = Nsga2Config {
        population_size: run.population_size,
        generations: run.generations,
        initial_population: options.warm_start.clone(),
        ..Default::default()
    };
    let pool_before = rayon::pool_metrics();
    let result = Nsga2::new(&cached, nsga_config)
        .with_seed(run.seed)
        .run_with_observer(|generation, population| {
            archive_feasible(&mut archive, population);
            progress(generation);
            // Cooperative cancellation: the completed generation is
            // already archived and its cache fills are in the shared
            // store, so stopping here leaves every shared structure in
            // the exact state of an uninterrupted run's prefix.
            match options.cancel.as_ref().map(CancelToken::is_triggered) {
                Some(true) => ControlFlow::Break(()),
                _ => ControlFlow::Continue(()),
            }
        });
    if result.generations < run.generations {
        let reason = options
            .cancel
            .as_ref()
            .and_then(CancelToken::status)
            // The loop only breaks early when the token tripped; a token
            // cannot un-trip (cancel is sticky, deadlines only move
            // further into the past).
            .expect("early NSGA-II stop without a tripped cancel token");
        return Err(DseError::from_cancel(
            reason,
            result.generations,
            run.generations,
        ));
    }
    // The final population may contain points the observer never saw at
    // an archive-worthy moment; fold it in too.
    archive_feasible(&mut archive, &result.population);

    let genomes: Vec<Vec<f64>> = archive
        .into_entries()
        .into_iter()
        .map(|entry| entry.payload)
        .collect();
    let points = space.decode_points(&genomes);
    if points.is_empty() {
        return Err(DseError::EmptyDesignSpace {
            array_size: run.array_size,
        });
    }
    let delta = rayon::pool_metrics().delta_since(&pool_before);
    let mut engine = result.engine;
    engine.cache = cached.stats();
    engine.pool = PoolStats {
        tasks_executed: delta.tasks_executed(),
        steals: delta.steals(),
        tasks_per_worker: delta.tasks_per_slot,
    };
    Ok(ParetoSet { points, engine })
}

/// The design-space explorer: NSGA-II over [`AcimDesignProblem`] with a
/// global archive of every feasible non-dominated design evaluated.
#[derive(Debug, Clone)]
pub struct DesignSpaceExplorer {
    config: DseConfig,
    problem: AcimDesignProblem,
}

impl DesignSpaceExplorer {
    /// Creates an explorer.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] when the configuration is
    /// inconsistent (no valid heights, zero population, …), or
    /// [`DseError::Model`] when the model parameters are invalid.
    pub fn new(config: DseConfig) -> Result<Self, DseError> {
        check_run_shape(config.population_size, config.generations)?;
        let problem = AcimDesignProblem::new(
            config.array_size,
            config.min_height,
            config.max_height,
            config.params,
        )?;
        Ok(Self { config, problem })
    }

    /// The configuration.
    pub fn config(&self) -> &DseConfig {
        &self.config
    }

    /// The underlying problem (exposes the genome encoding, used e.g. to
    /// re-encode frontier points into warm-start genomes).
    pub fn problem(&self) -> &AcimDesignProblem {
        &self.problem
    }

    /// Runs a cold, self-contained exploration and returns the
    /// Pareto-frontier set.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptyDesignSpace`] when the optimiser never found
    /// a feasible design (which indicates an over-constrained array size).
    pub fn explore(&self) -> Result<ParetoFrontierSet, DseError> {
        self.explore_with(&ExploreOptions::default(), |_| {})
    }

    /// Runs the exploration with caller-injected [`ExploreOptions`] (shared
    /// cache, warm-start seeds), invoking `progress(generation)` after every
    /// generation's environmental selection.
    ///
    /// With default options this is exactly [`DesignSpaceExplorer::explore`]:
    /// same RNG stream, bit-identical frontier.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptyDesignSpace`] when the optimiser never
    /// found a feasible design, [`DseError::InvalidConfig`] when a
    /// warm-start genome does not match the problem's genome length, or
    /// [`DseError::Cancelled`] / [`DseError::DeadlineExceeded`] when the
    /// injected [`CancelToken`] tripped before the run finished.
    pub fn explore_with<F>(
        &self,
        options: &ExploreOptions,
        progress: F,
    ) -> Result<ParetoFrontierSet, DseError>
    where
        F: FnMut(usize),
    {
        let run = RunShape {
            array_size: self.config.array_size,
            population_size: self.config.population_size,
            generations: self.config.generations,
            seed: self.config.seed,
        };
        explore(&self.problem, run, options, progress)
    }

    /// Re-encodes frontier points into warm-start genomes for a follow-up
    /// run over the same design space (points outside this problem's
    /// catalogue are skipped).
    pub fn session_genomes(&self, points: &[DesignPoint]) -> Vec<Vec<f64>> {
        session_genomes(&self.problem, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_moga::dominates;
    use acim_tech::{Femtojoule, Picosecond};

    fn quick_config() -> DseConfig {
        DseConfig {
            population_size: 32,
            generations: 20,
            ..Default::default()
        }
    }

    #[test]
    fn exploration_finds_a_diverse_frontier() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let frontier = explorer.explore().unwrap();
        assert!(
            frontier.len() >= 5,
            "only {} frontier points",
            frontier.len()
        );
        // Frontier must be mutually non-dominated.
        for a in frontier.iter() {
            for b in frontier.iter() {
                if a.spec != b.spec {
                    assert!(!dominates(&a.objective_vector(), &b.objective_vector()));
                }
            }
        }
        // It should span multiple ADC precisions (diversity across the
        // SNR/energy trade-off).
        let precisions: std::collections::BTreeSet<u32> =
            frontier.iter().map(|p| p.spec.adc_bits()).collect();
        assert!(precisions.len() >= 3, "precisions found: {precisions:?}");
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let a = explorer.explore().unwrap();
        let b = explorer.explore().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.engine.evaluations, b.engine.evaluations);
        assert_eq!(a.engine.cache, b.engine.cache);
    }

    #[test]
    fn cache_absorbs_resampled_designs() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let frontier = explorer.explore().unwrap();
        let engine = &frontier.engine;
        assert_eq!(engine.cache.total(), engine.evaluations);
        // The discrete (H, L, B) space has only a few hundred designs, so a
        // 32x20 run must re-sample heavily.
        assert!(
            engine.cache.hits > engine.evaluations / 4,
            "cache stats: {}",
            engine.cache
        );
        assert_eq!(engine.generation_seconds.len(), 20);
        assert!(engine.evaluations_per_second() >= 0.0);
    }

    #[test]
    fn every_frontier_point_respects_constraints() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let frontier = explorer.explore().unwrap();
        for p in frontier.iter() {
            assert_eq!(p.spec.array_size(), 16 * 1024);
            assert!(p.spec.height() >= p.spec.local_array());
            assert!(p.spec.capacitors_per_column() >= 1 << p.spec.adc_bits());
        }
    }

    #[test]
    fn best_by_selects_extremes() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let frontier = explorer.explore().unwrap();
        let best_throughput = frontier
            .best_by(|p| p.metrics.throughput_tops)
            .unwrap()
            .metrics
            .throughput_tops;
        for p in frontier.iter() {
            assert!(p.metrics.throughput_tops <= best_throughput + 1e-12);
        }
    }

    #[test]
    fn explore_with_default_options_matches_explore() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let cold = explorer.explore().unwrap();
        let mut generations = Vec::new();
        let injected = explorer
            .explore_with(&ExploreOptions::default(), |generation| {
                generations.push(generation)
            })
            .unwrap();
        assert_eq!(cold.len(), injected.len());
        for (a, b) in cold.iter().zip(injected.iter()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.objective_vector(), b.objective_vector());
        }
        assert_eq!(generations, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn shared_cache_turns_a_replayed_run_into_pure_hits() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let store = acim_moga::CacheStore::new();
        let options = ExploreOptions {
            cache: Some(store.clone()),
            ..Default::default()
        };
        let first = explorer.explore_with(&options, |_| {}).unwrap();
        assert!(first.engine.cache.misses > 0);
        let entries_after_first = store.len();
        assert_eq!(entries_after_first, first.engine.cache.misses);

        // Same seed, same space, shared store: the replay's every
        // evaluation is a cross-run hit, and the frontier is unchanged.
        let replay = explorer.explore_with(&options, |_| {}).unwrap();
        assert_eq!(replay.engine.cache.misses, 0);
        assert_eq!(replay.engine.cache.hits, replay.engine.evaluations);
        assert_eq!(store.len(), entries_after_first);
        assert_eq!(first.len(), replay.len());
        for (a, b) in first.iter().zip(replay.iter()) {
            assert_eq!(a.spec, b.spec);
        }
    }

    #[test]
    fn warm_start_seeds_archive_and_population() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let cold = explorer.explore().unwrap();
        let seeds = explorer.session_genomes(cold.points());
        assert_eq!(seeds.len(), cold.len());
        let options = ExploreOptions {
            warm_start: seeds,
            ..Default::default()
        };
        let warm_a = explorer.explore_with(&options, |_| {}).unwrap();
        let warm_b = explorer.explore_with(&options, |_| {}).unwrap();
        // Warm runs are deterministic…
        assert_eq!(warm_a.len(), warm_b.len());
        for (a, b) in warm_a.iter().zip(warm_b.iter()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.objective_vector(), b.objective_vector());
        }
        // …and every cold frontier point is matched-or-dominated in the
        // warm frontier (the seeds were archived up front).
        for cold_point in cold.iter() {
            let c = cold_point.objective_vector();
            assert!(
                warm_a.iter().any(|w| {
                    let w = w.objective_vector();
                    w == c || dominates(&w, &c)
                }),
                "cold frontier point lost by the warm run"
            );
        }
    }

    #[test]
    fn cancel_token_stops_the_run_at_a_generation_boundary() {
        use acim_moga::CancelToken;

        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let token = CancelToken::new();
        let options = ExploreOptions {
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let mut seen = 0usize;
        let err = explorer
            .explore_with(&options, |generation| {
                seen = generation + 1;
                if generation == 4 {
                    token.cancel();
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            DseError::Cancelled {
                completed: 5,
                total: 20
            }
        );
        assert_eq!(seen, 5, "no generation ran after the cancel");
    }

    #[test]
    fn pre_tripped_token_stops_before_any_evaluation() {
        use acim_moga::{CacheStore, CancelToken};

        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let store = CacheStore::new();
        let options = ExploreOptions {
            cache: Some(store.clone()),
            cancel: Some(token),
            ..Default::default()
        };
        let err = explorer.explore_with(&options, |_| {}).unwrap_err();
        assert_eq!(
            err,
            DseError::Cancelled {
                completed: 0,
                total: 20
            }
        );
        assert_eq!(store.len(), 0, "no evaluation reached the shared store");
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        use acim_moga::CancelToken;
        use std::time::{Duration, Instant};

        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let options = ExploreOptions {
            cancel: Some(CancelToken::with_deadline(
                Instant::now() - Duration::from_millis(1),
            )),
            ..Default::default()
        };
        match explorer.explore_with(&options, |_| {}) {
            Err(DseError::DeadlineExceeded { completed, total }) => {
                assert_eq!(completed, 0);
                assert_eq!(total, 20);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn untripped_token_is_unobservable() {
        use acim_moga::CancelToken;

        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let plain = explorer.explore().unwrap();
        let options = ExploreOptions {
            cancel: Some(CancelToken::new()),
            ..Default::default()
        };
        let with_token = explorer.explore_with(&options, |_| {}).unwrap();
        assert_eq!(plain.len(), with_token.len());
        for (a, b) in plain.iter().zip(with_token.iter()) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.objective_vector(), b.objective_vector());
        }
    }

    #[test]
    fn wrong_length_warm_genome_is_rejected() {
        let explorer = DesignSpaceExplorer::new(quick_config()).unwrap();
        let options = ExploreOptions {
            warm_start: vec![vec![0.5; 7]],
            ..Default::default()
        };
        assert!(explorer.explore_with(&options, |_| {}).is_err());
    }

    #[test]
    fn non_finite_k4_is_rejected_before_exploring() {
        let mut config = quick_config();
        config.params.snr.k4 = f64::NAN;
        match DesignSpaceExplorer::new(config) {
            Err(DseError::Model(acim_model::ModelError::InvalidParameter { name, .. })) => {
                assert_eq!(name, "k4");
            }
            other => panic!("expected an invalid k4, got {other:?}"),
        }
        assert!(DesignSpaceExplorer::new(quick_config()).is_ok());
    }

    #[test]
    fn nan_timing_and_energy_parameters_are_rejected_before_exploring() {
        type Setter = fn(&mut ModelParams);
        let cases: [(&str, Setter); 8] = [
            ("t_compute", |p| {
                p.timing.t_compute = Picosecond::new(f64::NAN)
            }),
            ("tau", |p| p.timing.tau = Picosecond::new(f64::NAN)),
            ("t_conv_per_bit", |p| {
                p.timing.t_conv_per_bit = Picosecond::new(f64::NAN)
            }),
            ("vdd", |p| p.energy.vdd = f64::NAN),
            ("e_compute", |p| {
                p.energy.e_compute = Femtojoule::new(f64::NAN)
            }),
            ("e_control", |p| {
                p.energy.e_control = Femtojoule::new(f64::NAN)
            }),
            ("k1", |p| p.energy.k1 = Femtojoule::new(f64::NAN)),
            ("k2", |p| p.energy.k2 = Femtojoule::new(f64::NAN)),
        ];
        for (field, set) in cases {
            let mut config = quick_config();
            set(&mut config.params);
            match DesignSpaceExplorer::new(config) {
                Err(DseError::Model(acim_model::ModelError::InvalidParameter { name, .. })) => {
                    assert_eq!(name, field);
                }
                other => panic!("expected an invalid {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut config = quick_config();
        config.population_size = 7;
        assert!(DesignSpaceExplorer::new(config).is_err());
        let mut config = quick_config();
        config.generations = 0;
        assert!(DesignSpaceExplorer::new(config).is_err());
        let mut config = quick_config();
        config.array_size = 9973;
        assert!(DesignSpaceExplorer::new(config).is_err());
    }
}
