//! The typed snapshot payload: session archives and genome-level
//! evaluation caches — everything the exploration service accumulates
//! toward design reuse, as plain data.
//!
//! The records here are deliberately *plain* (strings, integer words,
//! `f64`s): this crate knows the wire shapes, the `easyacim` service owns
//! the conversion to and from its domain types.  That keeps the
//! persistence tier dependency-free and means the on-disk format cannot
//! silently change when a domain struct grows a field — growing a record
//! here is an explicit [`crate::FORMAT_VERSION`] bump.
//!
//! Floats travel as IEEE-754 bit patterns, so a snapshot → restore round
//! trip reproduces every genome and objective **bit-exactly** — the
//! property that lets a restored service replay a warm request to the
//! bit-identical frontier.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::container::{self, Section};
use crate::error::PersistError;
use crate::wire::{Reader, Writer};

const SECTION_ARCHIVE: u32 = 1;
const SECTION_EVAL_CACHE: u32 = 2;
/// Per-parameter-set macro-metric caches, written by older builds.  The
/// reader verifies their checksum and skips them; nothing writes them.
const SECTION_RETIRED_MACRO_CACHE: u32 = 3;

/// One warm-start session archive: the design-space signature and the
/// frontier re-encoded as a uniform-width genome matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArchiveRecord {
    /// The design-space signature the archive was recorded over
    /// (`macro/…` or `chip/…`).
    pub space: String,
    /// The archived frontier genomes; every row must share one width.
    pub genomes: Vec<Vec<f64>>,
}

/// One cached evaluation: the quantized genome key, the objective
/// vector, and the aggregate constraint violation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalEntry {
    /// The quantized genome the store keys on.
    pub key: Vec<i64>,
    /// The objective values, all minimised.
    pub objectives: Vec<f64>,
    /// The aggregate constraint violation (`0.0` = feasible; never
    /// negative or NaN — decoding enforces this).
    pub constraint_violation: f64,
}

/// The contents of one per-design-space evaluation cache.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalCacheRecord {
    /// The design-space signature the store belongs to.
    pub space: String,
    /// The cached entries.
    pub entries: Vec<EvalEntry>,
}

/// Everything one service snapshot carries.  Section order is preserved
/// through a round trip, so a writer that sorts its registries gets
/// byte-deterministic files.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// One warm-start archive per design space.
    pub archives: Vec<ArchiveRecord>,
    /// One record per genome-level evaluation cache.
    pub eval_caches: Vec<EvalCacheRecord>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` when the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.archives.is_empty() && self.eval_caches.is_empty()
    }

    /// Total archived genomes across every archive.
    pub fn genome_count(&self) -> usize {
        self.archives.iter().map(|a| a.genomes.len()).sum()
    }

    /// Total cached evaluations across every evaluation-cache record.
    pub fn evaluation_count(&self) -> usize {
        self.eval_caches.iter().map(|c| c.entries.len()).sum()
    }

    /// Serializes the snapshot into one self-verifying byte container.
    ///
    /// # Errors
    ///
    /// [`PersistError::InvalidRecord`] when a record is unencodable (a
    /// ragged genome matrix, or one too large for the wire's counters).
    pub fn to_bytes(&self) -> Result<Vec<u8>, PersistError> {
        let mut sections = Vec::new();
        for archive in &self.archives {
            sections.push(Section {
                kind: SECTION_ARCHIVE,
                payload: encode_archive(archive)?,
            });
        }
        for cache in &self.eval_caches {
            sections.push(Section {
                kind: SECTION_EVAL_CACHE,
                payload: encode_eval_cache(cache)?,
            });
        }
        Ok(container::encode(&sections))
    }

    /// Verifies and fully decodes a snapshot; on any failure nothing is
    /// returned — there is no partially decoded state to leak.
    ///
    /// # Errors
    ///
    /// One typed [`PersistError`] per defect class: truncation, wrong
    /// magic, future version, checksum mismatches, malformed sections.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut snapshot = Snapshot::new();
        for (index, (kind, payload)) in container::decode(bytes)?.into_iter().enumerate() {
            let corrupt = |detail: String| PersistError::SectionCorrupt { index, detail };
            match kind {
                SECTION_ARCHIVE => snapshot
                    .archives
                    .push(decode_archive(payload).map_err(corrupt)?),
                SECTION_EVAL_CACHE => snapshot
                    .eval_caches
                    .push(decode_eval_cache(payload).map_err(corrupt)?),
                // Its checksum matched in `container::decode`; the cache
                // it carried no longer exists.
                SECTION_RETIRED_MACRO_CACHE => {}
                unknown => {
                    // Unknown kinds under the *current* version are
                    // corruption, not forward compatibility — new kinds
                    // come with a version bump (see the crate docs).
                    return Err(corrupt(format!("unknown section kind {unknown}")));
                }
            }
        }
        Ok(snapshot)
    }

    /// Writes the snapshot to `path` atomically: the bytes go to a
    /// sibling temporary file, are flushed to disk, and are renamed over
    /// `path` — a crash mid-write leaves either the old snapshot or none,
    /// never a torn one.  Returns the byte size written.
    ///
    /// # Errors
    ///
    /// [`PersistError::InvalidRecord`] for unencodable records,
    /// [`PersistError::Io`] for OS failures (the temporary file is
    /// removed on a failed rename).
    pub fn write(&self, path: impl AsRef<Path>) -> Result<u64, PersistError> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        let mut tmp_name = path
            .file_name()
            .ok_or_else(|| PersistError::Io {
                op: "write",
                path: path.display().to_string(),
                message: "path has no file name".into(),
            })?
            .to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let write_tmp = |bytes: &[u8]| -> std::io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            // Durability before the rename: the new bytes must be on disk
            // before they can replace the old snapshot.
            file.sync_all()
        };
        write_tmp(&bytes).map_err(|err| PersistError::io("write", &tmp, &err))?;
        fs::rename(&tmp, path).map_err(|err| {
            let _ = fs::remove_file(&tmp);
            PersistError::io("rename", path, &err)
        })?;
        Ok(bytes.len() as u64)
    }

    /// Reads and fully verifies a snapshot file.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] for OS failures, otherwise exactly the
    /// [`Snapshot::from_bytes`] errors.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let bytes = fs::read(path).map_err(|err| PersistError::io("read", path, &err))?;
        Self::from_bytes(&bytes)
    }
}

fn checked_u32(len: usize, what: &str) -> Result<u32, PersistError> {
    u32::try_from(len).map_err(|_| PersistError::InvalidRecord {
        detail: format!("{what} count {len} exceeds the wire's u32 counter"),
    })
}

fn encode_archive(record: &ArchiveRecord) -> Result<Vec<u8>, PersistError> {
    let width = record.genomes.first().map_or(0, Vec::len);
    if let Some(ragged) = record.genomes.iter().find(|g| g.len() != width) {
        return Err(PersistError::InvalidRecord {
            detail: format!(
                "ragged genome matrix in `{}`: expected width {width}, found {}",
                record.space,
                ragged.len()
            ),
        });
    }
    let mut writer = Writer::new();
    writer.put_str(&record.space);
    writer.put_u32(checked_u32(record.genomes.len(), "genome")?);
    writer.put_u32(checked_u32(width, "genome width")?);
    for genome in &record.genomes {
        for &gene in genome {
            writer.put_f64(gene);
        }
    }
    Ok(writer.into_bytes())
}

fn decode_archive(payload: &[u8]) -> Result<ArchiveRecord, String> {
    let mut reader = Reader::new(payload);
    let space = reader.take_str()?;
    let count = reader.take_u32()? as usize;
    let width = reader.take_u32()? as usize;
    let mut genomes = Vec::new();
    for _ in 0..count {
        let mut genome = Vec::with_capacity(width.min(reader.remaining() / 8));
        for _ in 0..width {
            genome.push(reader.take_f64()?);
        }
        genomes.push(genome);
    }
    reader.finish()?;
    Ok(ArchiveRecord { space, genomes })
}

fn encode_eval_cache(record: &EvalCacheRecord) -> Result<Vec<u8>, PersistError> {
    let mut writer = Writer::new();
    writer.put_str(&record.space);
    writer.put_u32(checked_u32(record.entries.len(), "evaluation")?);
    for entry in &record.entries {
        writer.put_u32(checked_u32(entry.key.len(), "key word")?);
        for &word in &entry.key {
            writer.put_i64(word);
        }
        writer.put_u32(checked_u32(entry.objectives.len(), "objective")?);
        for &objective in &entry.objectives {
            writer.put_f64(objective);
        }
        writer.put_f64(entry.constraint_violation);
    }
    Ok(writer.into_bytes())
}

fn decode_eval_cache(payload: &[u8]) -> Result<EvalCacheRecord, String> {
    let mut reader = Reader::new(payload);
    let space = reader.take_str()?;
    let count = reader.take_u32()? as usize;
    let mut entries = Vec::new();
    for _ in 0..count {
        let key_len = reader.take_u32()? as usize;
        let mut key = Vec::with_capacity(key_len.min(reader.remaining() / 8));
        for _ in 0..key_len {
            key.push(reader.take_i64()?);
        }
        let obj_len = reader.take_u32()? as usize;
        let mut objectives = Vec::with_capacity(obj_len.min(reader.remaining() / 8));
        for _ in 0..obj_len {
            objectives.push(reader.take_f64()?);
        }
        let constraint_violation = reader.take_f64()?;
        // The Evaluation contract: violations are non-negative and never
        // NaN.  A hand-crafted file (valid CRCs, bad values) must not
        // plant a value the in-memory type forbids.
        if constraint_violation.is_nan() || constraint_violation < 0.0 {
            return Err(format!(
                "constraint violation {constraint_violation} is negative or NaN"
            ));
        }
        entries.push(EvalEntry {
            key,
            objectives,
            constraint_violation,
        });
    }
    reader.finish()?;
    Ok(EvalCacheRecord { space, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_snapshot() -> Snapshot {
        Snapshot {
            archives: vec![ArchiveRecord {
                space: "chip/edge_cnn/…#0123456789abcdef".into(),
                genomes: vec![vec![0.25, -0.0, 1.0], vec![f64::MIN_POSITIVE, 0.5, 0.75]],
            }],
            eval_caches: vec![EvalCacheRecord {
                space: "chip/edge_cnn/…#0123456789abcdef".into(),
                entries: vec![
                    EvalEntry {
                        key: vec![1, -2, 3],
                        objectives: vec![-31.5, -2.25, 140.0, 950.0],
                        constraint_violation: 0.0,
                    },
                    EvalEntry {
                        key: vec![0, 0, 0],
                        objectives: vec![0.0],
                        constraint_violation: 2.5,
                    },
                ],
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.to_bytes().unwrap();
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded.genome_count(), 2);
        assert_eq!(decoded.evaluation_count(), 2);
        assert!(!decoded.is_empty());
        assert!(Snapshot::new().is_empty());
        // Encoding is deterministic: same snapshot, same bytes.
        assert_eq!(snapshot.to_bytes().unwrap(), bytes);
    }

    /// A macro-metric cache section as older builds wrote it: the
    /// parameter signature, the entry count, then per entry the four
    /// `(H, W, L, B_ADC)` words and six `f64` metrics.
    fn retired_macro_cache_payload() -> Vec<u8> {
        let mut writer = Writer::new();
        writer.put_str("params/#fedcba9876543210");
        writer.put_u32(1);
        for word in [128, 32, 4, 3] {
            writer.put_u32(word);
        }
        for value in [31.4, 2.2, 140.0, 7.1, 950.0, 4.4] {
            writer.put_f64(value);
        }
        writer.into_bytes()
    }

    #[test]
    fn older_macro_cache_sections_are_verified_then_skipped() {
        let sample = sample_snapshot();
        let bytes = container::encode(&[
            Section {
                kind: SECTION_ARCHIVE,
                payload: encode_archive(&sample.archives[0]).unwrap(),
            },
            Section {
                kind: SECTION_RETIRED_MACRO_CACHE,
                payload: retired_macro_cache_payload(),
            },
            Section {
                kind: SECTION_EVAL_CACHE,
                payload: encode_eval_cache(&sample.eval_caches[0]).unwrap(),
            },
        ]);
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), sample);
        // The writer never emits the retired kind.
        let written = sample.to_bytes().unwrap();
        assert!(container::decode(&written)
            .unwrap()
            .iter()
            .all(|(kind, _)| *kind != SECTION_RETIRED_MACRO_CACHE));
        // Its payload is still checksummed like any other section.
        let payload_at = bytes.len() - encode_eval_cache(&sample.eval_caches[0]).unwrap().len() - 1;
        let mut flipped = bytes.clone();
        flipped[payload_at] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&flipped),
            Err(PersistError::SectionChecksum { index: 1, kind: 3 })
        ));
    }

    #[test]
    fn unknown_section_kinds_are_corrupt() {
        for kind in [4, 5, u32::MAX] {
            let bytes = container::encode(&[Section {
                kind,
                payload: Vec::new(),
            }]);
            assert!(matches!(
                Snapshot::from_bytes(&bytes),
                Err(PersistError::SectionCorrupt { index: 0, .. })
            ));
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bytes = Snapshot::new().to_bytes().unwrap();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), Snapshot::new());
    }

    #[test]
    fn ragged_genomes_are_an_invalid_record_not_a_panic() {
        let snapshot = Snapshot {
            archives: vec![ArchiveRecord {
                space: "macro/x".into(),
                genomes: vec![vec![0.0, 1.0], vec![0.5]],
            }],
            ..Snapshot::new()
        };
        assert!(matches!(
            snapshot.to_bytes(),
            Err(PersistError::InvalidRecord { .. })
        ));
    }

    #[test]
    fn negative_or_nan_violation_is_rejected_at_decode() {
        for bad in [-1.0, f64::NAN] {
            let snapshot = Snapshot {
                eval_caches: vec![EvalCacheRecord {
                    space: "chip/x".into(),
                    entries: vec![EvalEntry {
                        key: vec![1],
                        objectives: vec![0.0],
                        constraint_violation: bad,
                    }],
                }],
                ..Snapshot::new()
            };
            // The writer is trusting; the reader is not.
            let bytes = snapshot.to_bytes().unwrap();
            assert!(matches!(
                Snapshot::from_bytes(&bytes),
                Err(PersistError::SectionCorrupt { .. })
            ));
        }
    }

    #[test]
    fn every_truncation_and_byte_flip_of_a_real_snapshot_fails_typed() {
        let bytes = sample_snapshot().to_bytes().unwrap();
        for len in 0..bytes.len() {
            Snapshot::from_bytes(&bytes[..len]).expect_err("truncation must fail");
        }
        for at in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[at] ^= 0x01;
            Snapshot::from_bytes(&corrupted).expect_err("flip must fail");
            let mut corrupted = bytes.clone();
            corrupted[at] ^= 0x80;
            Snapshot::from_bytes(&corrupted).expect_err("flip must fail");
        }
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let dir = std::env::temp_dir().join("acim_persist_unit");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.snap");
        let snapshot = sample_snapshot();
        let bytes = snapshot.write(&path).unwrap();
        assert_eq!(bytes, fs::metadata(&path).unwrap().len());
        assert_eq!(Snapshot::read(&path).unwrap(), snapshot);
        // The temporary never outlives a successful write.
        assert!(!dir.join("unit.snap.tmp").exists());
        // Overwriting an existing snapshot goes through the same rename.
        let empty = Snapshot::new();
        empty.write(&path).unwrap();
        assert_eq!(Snapshot::read(&path).unwrap(), empty);
        fs::remove_file(&path).unwrap();
        // A missing file is a typed I/O error.
        assert!(matches!(
            Snapshot::read(&path),
            Err(PersistError::Io { op: "read", .. })
        ));
        // An unwritable destination is a typed I/O error.
        assert!(matches!(
            snapshot.write(dir.join("missing-dir").join("x.snap")),
            Err(PersistError::Io { .. })
        ));
    }
}
