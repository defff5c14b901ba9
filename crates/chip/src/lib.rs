//! # acim-chip
//!
//! Chip-level multi-macro accelerator model for the EasyACIM
//! reproduction.
//!
//! The paper's flow produces *one* distilled ACIM macro, but the
//! applications that motivate it (Figure 1's transformers, CNNs and SNNs)
//! never fit a single array.  This crate composes distilled macros into a
//! full accelerator and turns per-macro figures of merit into end-to-end
//! network objectives:
//!
//! * [`grid`] — a mesh of (possibly heterogeneous) macro instances,
//! * [`network`] — whole-network workloads and multi-tenant
//!   [`WorkloadMix`]es (re-exported from `acim-workloads`),
//! * [`partition`] — deterministic least-finish-time tiling of every
//!   layer across the grid, co-scheduling the streams of a mix round by
//!   round (the multi-macro generalisation of `acim-workloads::mapping`),
//! * [`interconnect`] — mesh, global-buffer and digital-accumulation cost
//!   parameters,
//! * [`evaluate`] — the analytic chip evaluator: throughput, energy per
//!   inference, area and an accuracy proxy of a chip under a workload mix,
//!   with a rayon-parallel (and bit-deterministic) batch over chips,
//! * [`simulate`] — the behavioural validation path, driving one
//!   `acim_arch::AcimMacro` per grid position.
//!
//! `acim-dse` builds a `ChipDesignProblem` on top of this crate so NSGA-II
//! can co-explore macro shape × macro count × buffer sizing, and
//! `easyacim` exposes it as a `ChipFlow` stage.
//!
//! # Example
//!
//! ```
//! use acim_arch::AcimSpec;
//! use acim_chip::{ChipEvaluator, ChipSpec, MacroGrid, Network, WorkloadMix};
//!
//! # fn main() -> Result<(), acim_chip::ChipError> {
//! let spec = AcimSpec::from_dimensions(128, 32, 4, 4)?;
//! let chip = ChipSpec::new(MacroGrid::uniform(2, 2, spec)?, 64)?;
//! let mix = WorkloadMix::single(Network::edge_cnn(2));
//! let metrics = ChipEvaluator::s28_default().evaluate(&chip, &mix)?.combined();
//! assert!(metrics.throughput_tops > 0.0);
//! assert!(metrics.layers.len() == 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod evaluate;
pub mod grid;
pub mod interconnect;
pub mod network;
pub mod partition;
pub mod simulate;

pub use error::ChipError;
pub use evaluate::{
    ChipEvaluator, ChipMetrics, ChipSpec, LayerCost, MixMetrics, MixObjective, TenantMetrics,
};
pub use grid::MacroGrid;
pub use interconnect::{AccumulatorParams, BufferParams, ChipCostParams, InterconnectParams};
pub use network::{LayerKind, Network, NetworkLayer, Tenant, TenantQuant, WorkloadMix};
pub use partition::{
    partition_mix, partition_network, partition_streams, LayerPartition, MixPartition, Partition,
    RoundPartition, StreamSpec, TileAssignment,
};
pub use simulate::{
    simulate_mix, simulate_network, ChipSimReport, LayerSimReport, MixSimReport, TenantSimReport,
};
