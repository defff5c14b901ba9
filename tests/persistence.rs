//! Acceptance tests of the persistence tier: snapshot → restore round
//! trips are semantically lossless (bit-identical frontiers, real cache
//! reuse), merges are first-wins, and every corrupted or foreign snapshot
//! degrades to a typed error plus a clean cold start — never a panic,
//! never a partial merge.

use std::fs;
use std::path::PathBuf;

use acim_persist::{ArchiveRecord, PersistError, Snapshot};
use easyacim::prelude::*;
use easyacim::service::{ExplorationRequest, ExplorationService};

fn quick_chip_config() -> ChipFlowConfig {
    let mut config = ChipFlowConfig::for_network(Network::edge_cnn(1));
    config.dse.population_size = 16;
    config.dse.generations = 6;
    config.dse.grid_rows = vec![1, 2];
    config.dse.grid_cols = vec![1, 2];
    config.dse.buffer_kib = vec![8, 32];
    config.validate_best = false;
    config
}

fn quick_flow_config() -> FlowConfig {
    let mut config = FlowConfig::new(4 * 1024);
    config.dse.population_size = 24;
    config.dse.generations = 10;
    config.max_layouts = 1;
    config
}

fn assert_same_chip_frontier(a: &[ChipDesignPoint], b: &[ChipDesignPoint]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.chip, y.chip);
        assert_eq!(x.objective_vector(), y.objective_vector());
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("easyacim_persistence_tests");
    fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

fn assert_cold(service: &ExplorationService) {
    assert!(service.archives().is_empty());
    assert!(service.spaces().is_empty());
    assert_eq!(service.cached_evaluations(), 0);
}

#[test]
fn restored_service_is_bit_identical_to_the_warm_original() {
    let path = temp_path("round-trip.snap");
    let original = ExplorationService::new();
    let cold = original
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    let space = cold.session.space().to_string();

    let report = original.snapshot(&path).unwrap();
    assert_eq!(report.archives, 1);
    assert_eq!(report.genomes, cold.session.len());
    assert_eq!(report.evaluations, original.cached_evaluations());
    assert!(report.evaluations > 0);
    assert_eq!(report.bytes, fs::metadata(&path).unwrap().len());

    // A fresh process: restore, then warm-start from the restored archive.
    let restored = ExplorationService::new();
    let restore = restored.restore(&path).unwrap();
    assert_eq!(restore.archives, 1);
    assert_eq!(restore.evaluations, report.evaluations);
    assert_eq!(restore.skipped_evaluations, 0);
    assert_eq!(restore.bytes, report.bytes);
    assert_eq!(restored.cached_evaluations(), original.cached_evaluations());

    let archive = restored.archive(&space).expect("archive restored");
    assert_eq!(archive.space(), cold.session.space());

    // The same warm request on the original and the restored service:
    // identical seeds + identical caches = bit-identical frontiers.
    let warm_original = original
        .run(ExplorationRequest::chip_space(quick_chip_config()).warm_start(cold.session.clone()))
        .unwrap()
        .into_chip()
        .unwrap();
    let warm_restored = restored
        .run(ExplorationRequest::chip_space(quick_chip_config()).warm_start(archive))
        .unwrap()
        .into_chip()
        .unwrap();
    assert_same_chip_frontier(&warm_original.result.front, &warm_restored.result.front);
    assert!(
        warm_restored.result.engine.cache.hits > 0,
        "restored cache produced no hits"
    );
    assert_eq!(
        warm_restored.result.engine.cache.misses,
        warm_original.result.engine.cache.misses
    );

    // The restore counters surface through exposition.
    let text = easyacim::prometheus_text(&restored.telemetry());
    assert!(text.contains("service_restored_archives 1"));
    assert!(text.contains(&format!(
        "service_restored_evaluations {}",
        restore.evaluations
    )));
    assert!(text.contains("service_restore_seconds"));

    fs::remove_file(&path).unwrap();
}

#[test]
fn restoring_into_a_live_service_is_first_wins() {
    let path = temp_path("first-wins.snap");
    let service = ExplorationService::new();
    service
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    let before = service.cached_evaluations();
    service.snapshot(&path).unwrap();

    // Restoring a service's own snapshot into itself merges nothing: every
    // entry is already live, and live entries win.
    let report = service.restore(&path).unwrap();
    assert_eq!(report.archives, 0);
    assert_eq!(report.skipped_archives, 1);
    assert_eq!(report.evaluations, 0);
    assert_eq!(report.skipped_evaluations, before);
    assert_eq!(service.cached_evaluations(), before);

    fs::remove_file(&path).unwrap();
}

#[test]
fn corrupted_and_version_skewed_snapshots_reject_with_a_clean_cold_start() {
    let path = temp_path("donor.snap");
    let donor = ExplorationService::new();
    donor
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    donor.snapshot(&path).unwrap();
    let bytes = fs::read(&path).unwrap();
    fs::remove_file(&path).unwrap();

    let corrupted_path = temp_path("corrupted.snap");
    let restore_err = |corrupted: &[u8]| -> PersistError {
        fs::write(&corrupted_path, corrupted).unwrap();
        let victim = ExplorationService::new();
        let err = victim.restore(&corrupted_path).unwrap_err();
        // Rejection happens before any merge: the victim stays cold and
        // keeps working (a request still runs fine below).
        assert_cold(&victim);
        let text = easyacim::prometheus_text(&victim.telemetry());
        assert!(
            text.contains(&format!(
                "service_restore_rejected_total{{reason=\"{}\"}} 1",
                err.reason()
            )),
            "missing rejection counter for {err:?}"
        );
        err
    };

    // Truncation at every kind of boundary.
    for cut in [0, 7, 12, 20, bytes.len() / 2, bytes.len() - 1] {
        let err = restore_err(&bytes[..cut]);
        assert!(
            !matches!(err, PersistError::Io { .. }),
            "truncation at {cut} produced an Io error"
        );
    }
    // Flipped bytes in the magic, the header, and the payloads.
    for position in [0, 9, 17, bytes.len() / 2, bytes.len() - 1] {
        let mut corrupted = bytes.clone();
        corrupted[position] ^= 0x20;
        restore_err(&corrupted);
    }
    // A future format version is reported honestly, not as corruption.
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&(acim_persist::FORMAT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        restore_err(&future),
        PersistError::UnsupportedVersion { .. }
    ));
    // A missing file is a typed I/O error.
    fs::remove_file(&corrupted_path).unwrap();
    let victim = ExplorationService::new();
    assert!(matches!(
        victim.restore(&corrupted_path).unwrap_err(),
        PersistError::Io { op: "read", .. }
    ));
    assert_cold(&victim);

    // After all of that, the victim still serves requests from cold.
    let response = victim
        .run(ExplorationRequest::chip_space(quick_chip_config()))
        .unwrap()
        .into_chip()
        .unwrap();
    assert!(!response.result.front.is_empty());
}

#[test]
fn foreign_signatures_are_rejected_before_any_merge() {
    let path = temp_path("foreign.snap");
    let mut snapshot = Snapshot::new();
    snapshot.archives.push(ArchiveRecord {
        space: "not-a-namespace".into(),
        genomes: vec![vec![0.5, 0.5]],
    });
    snapshot.write(&path).unwrap();

    let service = ExplorationService::new();
    let err = service.restore(&path).unwrap_err();
    assert!(matches!(err, PersistError::BadSignature { .. }));
    assert_eq!(err.reason(), "bad_signature");
    assert_cold(&service);

    // FlowError carries the typed persistence error for flow-level callers.
    let flow_err: easyacim::FlowError = err.into();
    assert!(flow_err.to_string().contains("persistence failed"));

    fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_after_three_jobs_captures_every_space() {
    let path = temp_path("multi-space.snap");
    let service = ExplorationService::new();

    // Three jobs over three distinct design spaces: two chip variants and
    // one macro flow.
    let chip_a = quick_chip_config();
    let mut chip_b = quick_chip_config();
    chip_b.dse.buffer_kib = vec![16, 64];
    let handles = [
        service
            .submit(ExplorationRequest::chip_space(chip_a))
            .unwrap(),
        service
            .submit(ExplorationRequest::chip_space(chip_b))
            .unwrap(),
        service
            .submit(ExplorationRequest::macro_space(quick_flow_config()))
            .unwrap(),
    ];
    let mut spaces: Vec<String> = handles.iter().map(|h| h.space().to_string()).collect();
    for handle in handles {
        handle.join().unwrap();
    }
    spaces.sort();
    spaces.dedup();
    assert_eq!(spaces.len(), 3, "expected three distinct spaces");

    let archives = service.archives();
    assert_eq!(archives.len(), 3);
    let archived: Vec<&str> = archives.iter().map(SessionArchive::space).collect();
    assert_eq!(
        archived,
        spaces.iter().map(String::as_str).collect::<Vec<_>>()
    );
    for space in &spaces {
        assert!(service.archive(space).is_some());
        assert!(!service.archive(space).unwrap().is_empty());
    }
    assert!(service.archive("chip/nonexistent").is_none());

    let report = service.snapshot(&path).unwrap();
    assert_eq!(report.archives, 3);
    assert_eq!(report.eval_caches, 3);

    // The restored registry holds exactly the same three archives.
    let restored = ExplorationService::new();
    restored.restore(&path).unwrap();
    assert_eq!(restored.archives().len(), 3);
    for (a, b) in service.archives().iter().zip(restored.archives().iter()) {
        assert_eq!(a.space(), b.space());
        assert_eq!(a.genomes(), b.genomes());
    }

    fs::remove_file(&path).unwrap();
}
