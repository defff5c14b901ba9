//! Golden bit-identity regressions for seeded exploration frontiers.
//!
//! The 14 objective rows of `GOLDEN_FRONTIER` are the sorted `to_bits()`
//! images of the quick seeded NSGA-II chip frontier captured on the last
//! single-network-only revision (commit before the `WorkloadMix`
//! refactor).  The same exploration must keep reproducing them bit-exactly
//! — whether configured through the legacy `for_network` constructor or as
//! a mix of one tenant, and regardless of the (single-tenant-degenerate)
//! aggregation objective.
//!
//! The in-order pins below (`MACRO_COLD`, `MACRO_WARM`, `CHIP_MIX_WARM`)
//! were captured before the macro and chip explorers shared one NSGA-II
//! driver.  They are compared row by row, unsorted, so a driver that
//! reorders the archive, drops a warm-start seed or alters a cached
//! objective fails them.

use acim_chip::{MixObjective, Network, WorkloadMix};
use acim_dse::{
    CacheStore, ChipDseConfig, ChipExplorer, DesignSpaceExplorer, DseConfig, ExploreOptions,
};

/// Sorted `(−acc, −thr, energy, area)` rows of the golden frontier.
const GOLDEN_FRONTIER: &[(u64, u64, u64, u64)] = &[
    (
        0x40066d0c23c74d8d,
        0xbfdbbe5ad6136a36,
        0x4059c8785ad08f8a,
        0x403ec5e0b4e11dbd,
    ),
    (
        0x40150b14cf67a940,
        0xbfdbead8f304c819,
        0x405be74765995b8c,
        0x4041f8da3c21187e,
    ),
    (
        0xbfe7a75984c2b604,
        0xbfdd1b30f09506a5,
        0x405d2bd4b13e4202,
        0x40479752977c88e8,
    ),
    (
        0xc00992f3dc38b273,
        0xbfdaf5bb4095b4e8,
        0x405d11857e5831b4,
        0x403ecf67b1c0010c,
    ),
    (
        0xc00992f3dc38b273,
        0xbfdd2574cb5124bf,
        0x40605a7a7acd27f6,
        0x40531b25f633ce64,
    ),
    (
        0xc01648c306b1bbbb,
        0xbfd9a8bdee36cc9d,
        0x4061c0e25eb9ea3d,
        0x4043474107314ca9,
    ),
    (
        0xc01f534f191567fb,
        0xbfd4a0cb013737a3,
        0x40676832ae479716,
        0x404e748e4755ffe7,
    ),
    (
        0xc02264bcf70e2c9d,
        0xbfdaeb535c4ea8db,
        0x40629b4cc029d372,
        0x405324acf312b1b3,
    ),
    (
        0xc0242eed95bc8a1e,
        0xbfbf0a850d5ac1a4,
        0x4071017e9c1d30fe,
        0x4033fcc9ea9a3d2e,
    ),
    (
        0xc0242eed95bc8a1e,
        0xbfc87a83e8af24ec,
        0x40719a0c674c6ed9,
        0x404d2999567dbb17,
    ),
    (
        0xc028b4339eee603c,
        0xbfb8885061439909,
        0x40821385dbd87e53,
        0x4035b44e50c5eb31,
    ),
    (
        0xc02ba9a78c8ab3fc,
        0xbfd1603db1df44f4,
        0x406eed19272f56d0,
        0x404e879c4113c686,
    ),
    (
        0xc0301776cade450e,
        0xbfc1f6ac68c877d7,
        0x4078f6ff34dede5c,
        0x403ef2e05ccc89b1,
    ),
    (
        0xc033d4d3c64559fe,
        0xbfcb85fd8a016cbc,
        0x40894d1c1267e934,
        0x404f2773e24febd1,
    ),
];

fn quick(mut config: ChipDseConfig) -> ChipDseConfig {
    config.population_size = 16;
    config.generations = 5;
    config.grid_rows = vec![1, 2];
    config.grid_cols = vec![1, 2];
    config.buffer_kib = vec![8, 32];
    config
}

/// Runs `config` and returns its frontier's objective rows, sorted.
fn frontier_bits(config: ChipDseConfig) -> Vec<(u64, u64, u64, u64)> {
    let explorer = ChipExplorer::new(config).unwrap();
    let front = explorer.explore().unwrap();
    let mut rows: Vec<(u64, u64, u64, u64)> = front
        .points()
        .iter()
        .map(|p| {
            let o = p.metrics.objective_array();
            (
                o[0].to_bits(),
                o[1].to_bits(),
                o[2].to_bits(),
                o[3].to_bits(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn for_network_frontier_matches_pre_refactor_golden_bits() {
    let config = quick(ChipDseConfig::for_network(Network::edge_cnn(1)));
    assert_eq!(frontier_bits(config), GOLDEN_FRONTIER);
}

#[test]
fn mix_of_one_frontier_matches_pre_refactor_golden_bits() {
    let config = quick(ChipDseConfig::for_mix(WorkloadMix::single(
        Network::edge_cnn(1),
    )));
    assert_eq!(frontier_bits(config), GOLDEN_FRONTIER);
}

#[test]
fn aggregation_objective_is_irrelevant_for_a_single_tenant() {
    // Worst-tenant and weighted-mean reduce to the same arithmetic when
    // there is only one tenant, so both reproduce the golden frontier.
    for objective in [MixObjective::WorstTenant, MixObjective::WeightedMean] {
        let mut config = quick(ChipDseConfig::for_network(Network::edge_cnn(1)));
        config.objective = objective;
        assert_eq!(frontier_bits(config), GOLDEN_FRONTIER, "{objective:?}");
    }
}

/// In-order `(−SNR, −thr, energy, area)` rows of a cold 4 Ki macro run.
#[rustfmt::skip]
const MACRO_COLD: &[[u64; 4]] = &[
    [0xc013c0b791a9f684, 0xbff1e4ef56011e4f, 0x400c01612257fa7c, 0x40b185d800000000],
    [0x3ff0fd21b95825f0, 0xbfdc1cd0bc5aa9bb, 0x40080c80ac60fd5a, 0x40a22bd600000000],
    [0xc03fe844d69fbc71, 0xbfd6809d844e9e27, 0x4034af793acf01b6, 0x40b0623c00000000],
    [0xc01fcb43a40da2c2, 0xbfb1e4ef56011e4f, 0x40119afabbf19415, 0x409c55ac00000000],
    [0xc039f2d0e90368b0, 0xbfb11ec346e36092, 0x40271a50b87e519f, 0x409fb1dc00000000],
    [0xc036f573ed9c53c0, 0xbfe4b9375edff17e, 0x40280950c00a278a, 0x40b62dc000000000],
    [0xc02be5a1d206d161, 0xbfea3f7cc290332e, 0x40162e7c93cd889d, 0x40b3070800000000],
    [0xc030f573ed9c53c0, 0xbfea3f7cc290332e, 0x4020fb49609a556a, 0x40b5e51000000000],
    [0xc030f02de46a7da1, 0xbfb4b9375edff17e, 0x4013d1752cd1e092, 0x409edf1800000000],
    [0xbfff2d0e90368b08, 0xbfdc1cd0bc5aa9bb, 0x400b4c348bf52de6, 0x40a2d12c00000000],
    [0x401049d480b9b5bc, 0xbfec1cd0bc5aa9bb, 0x40066ca6bc96e513, 0x40a71a5600000000],
    [0xc01fcb43a40da2c2, 0xbff1e4ef56011e4f, 0x40119afabbf19415, 0x40b2e2b000000000],
    [0xc025e05bc8d4fb42, 0xbfea3f7cc290332e, 0x40104a717d19f782, 0x40b1980400000000],
    [0xc0417573ed9c53c0, 0xbfc6809d844e9e27, 0x404362ac6e0234e9, 0x40a6e77800000000],
    [0x3ff0fd21b95825f0, 0xbfec1cd0bc5aa9bb, 0x40080c80ac60fd5a, 0x40a7bfac00000000],
    [0xc033f2d0e90368b0, 0xbfb4b9375edff17e, 0x401d3c83f33d5abe, 0x409f9fb000000000],
    [0xc039e844d69fbc71, 0xbfd967ce24483f34, 0x401da16ef43ee4d4, 0x40b05ff680000000],
    [0xbffed8adfd192910, 0xbff1e4ef56011e4f, 0x40086716f79263a4, 0x40b0d76c00000000],
];

/// In-order rows of a macro run warm-started from the cold run's
/// frontier, over a shared genome cache.  They were captured with a
/// macro-metric cache attached as well; that cache never changed a value.
#[rustfmt::skip]
const MACRO_WARM: &[[u64; 4]] = &[
    [0xc013c0b791a9f684, 0xbff1e4ef56011e4f, 0x400c01612257fa7c, 0x40b185d800000000],
    [0x3ff0fd21b95825f0, 0xbfdc1cd0bc5aa9bb, 0x40080c80ac60fd5a, 0x40a22bd600000000],
    [0xc03fe844d69fbc71, 0xbfd6809d844e9e27, 0x4034af793acf01b6, 0x40b0623c00000000],
    [0xc01fcb43a40da2c2, 0xbfb1e4ef56011e4f, 0x40119afabbf19415, 0x409c55ac00000000],
    [0xc039f2d0e90368b0, 0xbfb11ec346e36092, 0x40271a50b87e519f, 0x409fb1dc00000000],
    [0xc036f573ed9c53c0, 0xbfe4b9375edff17e, 0x40280950c00a278a, 0x40b62dc000000000],
    [0xc02be5a1d206d161, 0xbfea3f7cc290332e, 0x40162e7c93cd889d, 0x40b3070800000000],
    [0xc030f573ed9c53c0, 0xbfea3f7cc290332e, 0x4020fb49609a556a, 0x40b5e51000000000],
    [0xc030f02de46a7da1, 0xbfb4b9375edff17e, 0x4013d1752cd1e092, 0x409edf1800000000],
    [0xbfff2d0e90368b08, 0xbfdc1cd0bc5aa9bb, 0x400b4c348bf52de6, 0x40a2d12c00000000],
    [0x401049d480b9b5bc, 0xbfec1cd0bc5aa9bb, 0x40066ca6bc96e513, 0x40a71a5600000000],
    [0xc01fcb43a40da2c2, 0xbff1e4ef56011e4f, 0x40119afabbf19415, 0x40b2e2b000000000],
    [0xc025e05bc8d4fb42, 0xbfea3f7cc290332e, 0x40104a717d19f782, 0x40b1980400000000],
    [0xc0417573ed9c53c0, 0xbfc6809d844e9e27, 0x404362ac6e0234e9, 0x40a6e77800000000],
    [0x3ff0fd21b95825f0, 0xbfec1cd0bc5aa9bb, 0x40080c80ac60fd5a, 0x40a7bfac00000000],
    [0xc033f2d0e90368b0, 0xbfb4b9375edff17e, 0x401d3c83f33d5abe, 0x409f9fb000000000],
    [0xc039e844d69fbc71, 0xbfd967ce24483f34, 0x401da16ef43ee4d4, 0x40b05ff680000000],
    [0xbffed8adfd192910, 0xbff1e4ef56011e4f, 0x40086716f79263a4, 0x40b0d76c00000000],
    [0xc039f2d0e90368b0, 0xbfc11ec346e36092, 0x40271a50b87e519f, 0x40a319dc00000000],
    [0xc03fed8adfd19291, 0xbfb967ce24483f34, 0x4035d4a227721808, 0x40a1f46d00000000],
    [0xc0417573ed9c53c0, 0xbfd6809d844e9e27, 0x404362ac6e0234e9, 0x40b09b7800000000],
    [0xc03ceae7db38a781, 0xbfc967ce24483f34, 0x40286e3bc10bb1a1, 0x40a6e2ed00000000],
    [0x401c5460931d61fc, 0xbfec1cd0bc5aa9bb, 0x40059cb9c4b1d8f0, 0x40a6c7ab00000000],
    [0xc01fcb43a40da2c2, 0xbfd1e4ef56011e4f, 0x40119afabbf19415, 0x40a2e35800000000],
];

/// In-order combined `(−acc, −thr, energy, area)` rows of a two-tenant
/// chip run warm-started from its own cold frontier.
#[rustfmt::skip]
const CHIP_MIX_WARM: &[[u64; 4]] = &[
    [0xc00992f3dc38b273, 0xbfdbfb4e42dee307, 0x4065c5187d5a5704, 0x403ecf67b1c0010c],
    [0xc028b4339eee603c, 0xbfb5a2c449bb88b7, 0x408fd24d8c96d3d6, 0x4035b44e50c5eb31],
    [0xc00992f3dc38b273, 0xbfde54a97595105e, 0x4067aa5f41c25f18, 0x40531b25f633ce64],
    [0xbfe7a75984c2b604, 0xbfddf73b7f638651, 0x40653084556e6a72, 0x40479752977c88e8],
    [0xc033d4d3c64559fe, 0xbfd18fb2c5116cd7, 0x40964562981d2a3d, 0x4055faa4766c6de7],
    [0xc02264bcf70e2c9d, 0xbfddd9ad59bf4e3c, 0x406ad4334691d1b0, 0x405324acf312b1b3],
    [0xc01648c306b1bbbb, 0xbfdd88c2ef834549, 0x406a94f7a1726fbe, 0x4043474107314ca9],
    [0x40150b14cf67a940, 0xbfde3d1783fd8537, 0x4063cf7c6abe5dcf, 0x40478dcb9a9da598],
    [0xc01f534f191567fb, 0xbfd830bb17e24d9d, 0x4071a2182e463c1e, 0x4040b1572580c309],
    [0xc00992f3dc38b273, 0xbfdd8f2bee85a92e, 0x40658afe078d4b4c, 0x40426b7ed41b75a7],
    [0xc0242eed95bc8a1e, 0xbfc04d0b1f0104d0, 0x4079747694c91c26, 0x4033fcc9ea9a3d2e],
    [0xc033d4d3c64559fe, 0xbfc89bf1c0a9eec7, 0x40961346977a5bdf, 0x404f2773e24febd1],
    [0xc0242eed95bc8a1e, 0xbfc97a8133a87860, 0x407a917619f15c02, 0x403eccc46950fc72],
    [0xc0105ddb2b79143b, 0xbfc99c00c7a33f6f, 0x406ffed13b0dfa7d, 0x4033e9bbf0dc768e],
    [0x40066d0c23c74d8d, 0xbfded3ab8d5924a9, 0x4064e8f8d57cbb9e, 0x40486006d0d4994a],
    [0xbffd4d3c64559fec, 0xbfcbe71b988f7a9e, 0x4065da26f87b8c06, 0x40331780baa582dc],
    [0xc02ba9a78c8ab3fc, 0xbfd482839399ff53, 0x408fd38c14dd233b, 0x4055d48882f0e0a8],
    [0x3fdb73cf94e44450, 0xbfdb7e0fe5603149, 0x40621546798f3a4c, 0x40346275ab7dc7ac],
];

fn row_bits(rows: impl Iterator<Item = [f64; 4]>) -> Vec<[u64; 4]> {
    rows.map(|o| o.map(f64::to_bits)).collect()
}

#[test]
fn macro_cold_and_warm_frontiers_match_golden_bits_in_order() {
    let explorer = DesignSpaceExplorer::new(DseConfig {
        array_size: 4 * 1024,
        population_size: 16,
        generations: 8,
        ..Default::default()
    })
    .unwrap();
    let cold = explorer.explore().unwrap();
    assert_eq!(
        row_bits(cold.iter().map(|p| p.metrics.objective_array())),
        MACRO_COLD
    );
    let warm = explorer
        .explore_with(
            &ExploreOptions {
                cache: Some(CacheStore::new()),
                warm_start: explorer.session_genomes(cold.points()),
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(
        row_bits(warm.iter().map(|p| p.metrics.objective_array())),
        MACRO_WARM
    );
}

#[test]
fn warm_two_tenant_chip_frontier_matches_golden_bits_in_order() {
    let mix = WorkloadMix::new("duo")
        .with_tenant(Network::edge_cnn(1), 1.0)
        .with_tenant(Network::transformer_block(), 2.0);
    let explorer = ChipExplorer::new(ChipDseConfig {
        population_size: 16,
        generations: 6,
        grid_rows: vec![1, 2],
        grid_cols: vec![1, 2],
        buffer_kib: vec![8, 32],
        ..ChipDseConfig::for_mix(mix)
    })
    .unwrap();
    let cold = explorer.explore().unwrap();
    let warm = explorer
        .explore_with(
            &ExploreOptions {
                warm_start: explorer.session_genomes(cold.points()),
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(
        row_bits(warm.iter().map(|p| p.metrics.objective_array())),
        CHIP_MIX_WARM
    );
}
