//! Small numeric helpers: percentiles, seed derivation, the output digest,
//! the frontier quality figure and the process's peak memory.

use acim_chip::ChipSpec;
use acim_dse::{ChipDesignPoint, ChipDesignProblem};
use acim_moga::{dominates, hypervolume_monte_carlo};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: derives an independent seed for sub-stream `tag` of `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a digest of everything an op produced, fed field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Monte-Carlo sample count and seed of [`frontier_quality`]; constants
/// so the figure is comparable between commits.
const HV_SAMPLES: usize = 4096;
const HV_SEED: u64 = 0x4856_5345_4544;

/// Fixed normalisation of one objective onto `[0, 1]`, 0 being best.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    /// A value in dB to maximise (stored negated in the objective vector),
    /// mapped linearly from `[lo, hi]` dB.
    Decibel { lo: f64, hi: f64 },
    /// A positive value to maximise (stored negated), mapped by
    /// `log10` from `[10^lo, 10^hi]`.
    LogMax { lo: f64, hi: f64 },
    /// A positive value to minimise, mapped by `log10` from
    /// `[10^lo, 10^hi]`.
    LogMin { lo: f64, hi: f64 },
}

impl Axis {
    fn normalise(self, objective: f64) -> f64 {
        let unit = match self {
            Axis::Decibel { lo, hi } => (hi + objective) / (hi - lo),
            Axis::LogMax { lo, hi } => (hi - (-objective).max(1e-300).log10()) / (hi - lo),
            Axis::LogMin { lo, hi } => (objective.max(1e-300).log10() - lo) / (hi - lo),
        };
        unit.clamp(0.0, 1.0)
    }
}

/// Macro objectives `[−SNR dB, −TOPS, fJ/MAC, F²/bit]`.
pub const MACRO_AXES: [Axis; 4] = [
    Axis::Decibel {
        lo: -20.0,
        hi: 40.0,
    },
    Axis::LogMax { lo: -3.0, hi: 2.0 },
    Axis::LogMin { lo: 0.0, hi: 2.0 },
    Axis::LogMin { lo: 3.0, hi: 4.0 },
];

/// Chip objectives `[−accuracy dB, −TOPS, pJ/inference, mF²]`.
pub const CHIP_AXES: [Axis; 4] = [
    Axis::Decibel {
        lo: -20.0,
        hi: 40.0,
    },
    Axis::LogMax { lo: -3.0, hi: 2.0 },
    Axis::LogMin { lo: 1.0, hi: 6.0 },
    Axis::LogMin { lo: 0.0, hi: 3.0 },
];

/// Normalised hypervolume of a frontier against the reference point
/// `[1, 1, 1, 1]` after mapping each objective with `axes`: the share of
/// the unit box the frontier dominates.  Higher is better.
pub fn frontier_quality(front: &[Vec<f64>], axes: &[Axis; 4]) -> f64 {
    let normalised: Vec<Vec<f64>> = front
        .iter()
        .map(|point| {
            point
                .iter()
                .zip(axes)
                .map(|(&v, a)| a.normalise(v))
                .collect()
        })
        .collect();
    if normalised.is_empty() {
        return 0.0;
    }
    hypervolume_monte_carlo(&normalised, &[1.0; 4], HV_SAMPLES, HV_SEED)
}

/// Checks that a frontier is non-empty and mutually non-dominated.
pub fn check_frontier(front: &[Vec<f64>]) -> Result<(), String> {
    if front.is_empty() {
        return Err("empty frontier".into());
    }
    for (i, a) in front.iter().enumerate() {
        for b in &front[i + 1..] {
            if dominates(a, b) || dominates(b, a) {
                return Err(format!("frontier points {a:?} and {b:?} dominate"));
            }
        }
    }
    Ok(())
}

/// The process's high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("reading /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The objective vectors a chip exploration optimised, one per frontier
/// point.  For a single network they equal each point's reported
/// `objective_vector`; for a multi-tenant mix see [`mix_objectives`].
pub fn chip_front(
    problem: &ChipDesignProblem,
    points: &[ChipDesignPoint],
) -> Result<Vec<Vec<f64>>, String> {
    if problem.mix().len() == 1 {
        return Ok(points
            .iter()
            .map(ChipDesignPoint::objective_vector)
            .collect());
    }
    mix_objectives(problem, points.iter().map(|p| &p.chip))
}

/// The mix objectives (e.g. worst tenant) of each chip.  The explorer of
/// a multi-tenant mix ranks chips by these, while a point's reported
/// vector is the combined mix-level view, so the frontier is checked on
/// the problem's own `MixMetrics::objectives`.
pub fn mix_objectives<'a>(
    problem: &ChipDesignProblem,
    chips: impl IntoIterator<Item = &'a ChipSpec>,
) -> Result<Vec<Vec<f64>>, String> {
    chips
        .into_iter()
        .map(|chip| {
            problem
                .evaluate_chip_mix(chip)
                .map(|m| m.objectives(problem.objective()).to_vec())
                .map_err(|e| e.to_string())
        })
        .collect()
}
