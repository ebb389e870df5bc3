//! JSONL run manifests.
//!
//! A manifest journals one orchestrated run as newline-delimited JSON:
//! the first line is a [`ManifestHeader`] naming the experiment and its
//! verbatim parameter JSON (enough for `tempriv resume` to rebuild the
//! job list), and each subsequent line is a [`JobRecord`] appended — and
//! flushed — the moment that job finishes. A crash therefore leaves a
//! readable prefix; [`ManifestReader`] tolerates a torn final line.

use crate::telemetry::Blob;
use serde::value::{Error, Value};
use serde::{Deserialize, Serialize};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// How a job's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// The job function actually ran.
    Computed,
    /// The result came out of the cache; no new simulation happened.
    Cached,
}

/// The first line of a manifest: what ran and with which parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestHeader {
    /// Experiment kind (e.g. `"fig2"`), dispatched on by `resume`.
    pub experiment: String,
    /// The experiment's parameters, as the verbatim JSON the caller
    /// serialized (kept as a string so the runtime stays generic).
    pub params_json: String,
    /// Total number of jobs in the run.
    pub jobs: usize,
    /// Disk cache directory the run used, if any — `resume` reattaches
    /// to the same cache.
    pub cache_dir: Option<String>,
}

/// One finished job.
///
/// Serializes as a flat object: the five fixed fields, then one field
/// per [`Blob`] family named by [`Blob::name`], in [`Blob::ALL`] order,
/// `null` when absent. A line that omits a blob field (written before
/// that family existed) reads it as `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job index within the run (also the output row position).
    pub index: usize,
    /// Content-addressed cache key of the job.
    pub key: String,
    /// Computed or served from cache.
    pub status: JobStatus,
    /// Wall-clock time spent on the job, in milliseconds.
    pub wall_ms: u64,
    /// Digest of the serialized outcome (same content-identity family as
    /// the cache keys), for cheap cross-run comparisons.
    pub outcome_digest: String,
    /// Per-job telemetry blobs (JSON), indexed by [`Blob::index`].
    /// Attached only when the run collected that family and the job was
    /// actually computed: cache-served jobs carry none.
    pub blobs: [Option<String>; Blob::COUNT],
}

impl JobRecord {
    /// The job's `blob`, if one was journaled.
    #[must_use]
    pub fn blob(&self, blob: Blob) -> Option<&str> {
        self.blobs[blob.index()].as_deref()
    }
}

impl Serialize for JobRecord {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("index".to_string(), self.index.to_value()),
            ("key".to_string(), self.key.to_value()),
            ("status".to_string(), self.status.to_value()),
            ("wall_ms".to_string(), self.wall_ms.to_value()),
            ("outcome_digest".to_string(), self.outcome_digest.to_value()),
        ];
        fields.extend(
            Blob::ALL.map(|blob| (blob.name().to_string(), self.blobs[blob.index()].to_value())),
        );
        Value::Map(fields)
    }
}

impl Deserialize for JobRecord {
    fn from_value(v: &Value) -> Result<Self, Error> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, Error> {
            v.get(name)
                .map(|x| {
                    T::from_value(x)
                        .map_err(|e| e.context(&format!("field `{name}` of `JobRecord`")))
                })
                .transpose()
        }
        fn required<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
            field(v, name)?
                .ok_or_else(|| Error::new(format!("missing field `{name}` in `JobRecord`")))
        }
        let mut blobs: [Option<String>; Blob::COUNT] = Default::default();
        for blob in Blob::ALL {
            blobs[blob.index()] = field::<Option<String>>(v, blob.name())?.flatten();
        }
        Ok(JobRecord {
            index: required(v, "index")?,
            key: required(v, "key")?,
            status: required(v, "status")?,
            wall_ms: required(v, "wall_ms")?,
            outcome_digest: required(v, "outcome_digest")?,
            blobs,
        })
    }
}

/// An append-only, line-buffered manifest writer (thread-safe: jobs
/// finish on pool workers).
///
/// Every record is serialized to a complete line first and handed to the
/// OS in a single `write_all` + flush, so a reader never observes a
/// partially written record from a *live* writer — only a hard kill mid
/// `write_all` can tear a line, and [`ManifestReader`] tolerates that.
/// Dropping the writer flushes any buffered bytes as a last resort, so a
/// panic that unwinds through a pool worker still lands the records that
/// were already accepted.
#[derive(Debug)]
pub struct ManifestWriter {
    file: Mutex<BufWriter<std::fs::File>>,
    path: PathBuf,
}

impl ManifestWriter {
    /// Creates (truncating) a manifest at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created or written.
    pub fn create(path: impl Into<PathBuf>, header: &ManifestHeader) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = BufWriter::new(std::fs::File::create(&path)?);
        let mut line = serde_json::to_string(header).expect("header serializes");
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()?;
        Ok(ManifestWriter {
            file: Mutex::new(file),
            path,
        })
    }

    /// Appends one job record and flushes it to disk immediately.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the line cannot be written.
    pub fn record(&self, record: &JobRecord) -> std::io::Result<()> {
        let mut line = serde_json::to_string(record).expect("record serializes");
        line.push('\n');
        let mut file = self.file.lock().expect("manifest lock");
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Where this manifest lives.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ManifestWriter {
    fn drop(&mut self) {
        // Best-effort flush on shutdown/unwind; each record already
        // flushes itself, this only matters if a future edit buffers.
        if let Ok(mut file) = self.file.lock() {
            let _ = file.flush();
        }
    }
}

/// A parsed manifest: header plus every intact job record.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestReader {
    /// The run header.
    pub header: ManifestHeader,
    /// Every fully written job record, in file order.
    pub records: Vec<JobRecord>,
}

impl ManifestReader {
    /// Reads a manifest, tolerating a truncated (torn) final line.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read or its header line
    /// is missing/corrupt — a torn *job* line is skipped, a torn header
    /// is fatal.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
        let mut lines = text.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| format!("manifest {} is empty", path.display()))?;
        let header: ManifestHeader = serde_json::from_str(header_line)
            .map_err(|e| format!("manifest {} has a corrupt header: {e}", path.display()))?;
        let mut records = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JobRecord>(line) {
                Ok(record) => records.push(record),
                // A torn trailing line from an interrupted run: ignore it;
                // the job will simply be re-run (or served from cache).
                Err(_) => break,
            }
        }
        Ok(ManifestReader { header, records })
    }

    /// Indices of jobs the manifest records as finished.
    #[must_use]
    pub fn completed_indices(&self) -> Vec<usize> {
        self.records.iter().map(|r| r.index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ManifestHeader {
        ManifestHeader {
            experiment: "fig2".to_string(),
            params_json: "{\"seed\":2007}".to_string(),
            jobs: 3,
            cache_dir: None,
        }
    }

    fn record(index: usize) -> JobRecord {
        JobRecord {
            index,
            key: format!("key{index}"),
            status: JobStatus::Computed,
            wall_ms: 12,
            outcome_digest: "00ff".to_string(),
            blobs: Default::default(),
        }
    }

    /// Verbatim job lines in the field-per-family format manifests have
    /// always used: every blob set, every blob `null`, and a line written
    /// before any blob family existed.
    const ALL_BLOBS_LINE: &str = r#"{"index":3,"key":"k3","status":"Computed","wall_ms":41,"outcome_digest":"ab12","telemetry":"{\"scenarios\":[]}","trace":"{\"scenarios\":[]}","privacy":"{\"scenarios\":[]}","spans":"{\"spans\":[],\"profiles\":[]}","audit":"{\"scenarios\":[],\"root\":\"00\"}","mem":"{\"scenarios\":[]}"}"#;
    const NULL_BLOBS_LINE: &str = r#"{"index":0,"key":"k0","status":"Cached","wall_ms":0,"outcome_digest":"cd34","telemetry":null,"trace":null,"privacy":null,"spans":null,"audit":null,"mem":null}"#;
    const PRE_TELEMETRY_LINE: &str =
        r#"{"index":0,"key":"k","status":"Computed","wall_ms":5,"outcome_digest":"ab"}"#;

    #[test]
    fn current_format_lines_parse_and_reserialize_byte_identically() {
        let full: JobRecord = serde_json::from_str(ALL_BLOBS_LINE).unwrap();
        assert_eq!(full.index, 3);
        assert_eq!(full.status, JobStatus::Computed);
        assert_eq!(full.blob(Blob::Telemetry), Some("{\"scenarios\":[]}"));
        assert_eq!(
            full.blob(Blob::Spans),
            Some("{\"spans\":[],\"profiles\":[]}")
        );
        assert_eq!(
            full.blob(Blob::Audit),
            Some("{\"scenarios\":[],\"root\":\"00\"}")
        );
        assert!(Blob::ALL.iter().all(|&b| full.blob(b).is_some()));
        assert_eq!(serde_json::to_string(&full).unwrap(), ALL_BLOBS_LINE);

        let empty: JobRecord = serde_json::from_str(NULL_BLOBS_LINE).unwrap();
        assert_eq!(empty.status, JobStatus::Cached);
        assert!(Blob::ALL.iter().all(|&b| empty.blob(b).is_none()));
        assert_eq!(serde_json::to_string(&empty).unwrap(), NULL_BLOBS_LINE);
    }

    #[test]
    fn pre_telemetry_records_still_parse() {
        // Manifests written before any blob field existed must stay
        // readable: every family defaults to None when absent.
        let old: JobRecord = serde_json::from_str(PRE_TELEMETRY_LINE).unwrap();
        assert!(Blob::ALL.iter().all(|&b| old.blob(b).is_none()));
        assert_eq!(old.index, 0);
        assert_eq!(old.outcome_digest, "ab");
    }

    #[test]
    fn malformed_records_are_rejected() {
        let missing = r#"{"index":0,"status":"Computed","wall_ms":5,"outcome_digest":"ab"}"#;
        assert!(serde_json::from_str::<JobRecord>(missing).is_err());
        let bad_blob = r#"{"index":0,"key":"k","status":"Computed","wall_ms":5,"outcome_digest":"ab","trace":7}"#;
        assert!(serde_json::from_str::<JobRecord>(bad_blob).is_err());
        assert!(serde_json::from_str::<JobRecord>("[1,2]").is_err());
    }

    #[test]
    fn every_blob_round_trips_alone() {
        for blob in Blob::ALL {
            let mut r = record(blob.index());
            r.blobs[blob.index()] = Some(format!("{{\"{}\":[]}}", blob.name()));
            let line = serde_json::to_string(&r).unwrap();
            let back: JobRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r, "{blob:?}");
            assert_eq!(back.blob(blob), r.blob(blob));
            for other in Blob::ALL.into_iter().filter(|&b| b != blob) {
                assert_eq!(back.blob(other), None, "{blob:?} leaked into {other:?}");
            }
        }
    }

    #[test]
    fn manifest_round_trips() {
        let path = std::env::temp_dir().join("tempriv_runtime_manifest_test.jsonl");
        let writer = ManifestWriter::create(&path, &header()).unwrap();
        writer.record(&record(0)).unwrap();
        writer.record(&record(1)).unwrap();
        drop(writer);
        let back = ManifestReader::read(&path).unwrap();
        assert_eq!(back.header, header());
        assert_eq!(back.records, vec![record(0), record(1)]);
        assert_eq!(back.completed_indices(), vec![0, 1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = std::env::temp_dir().join("tempriv_runtime_manifest_torn_test.jsonl");
        let writer = ManifestWriter::create(&path, &header()).unwrap();
        writer.record(&record(0)).unwrap();
        drop(writer);
        // Simulate a crash mid-write of the second record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"index\":1,\"key\":\"ke");
        std::fs::write(&path, text).unwrap();
        let back = ManifestReader::read(&path).unwrap();
        assert_eq!(back.records, vec![record(0)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_header_is_fatal() {
        let path = std::env::temp_dir().join("tempriv_runtime_manifest_bad_header.jsonl");
        std::fs::write(&path, "{\"experiment\":").unwrap();
        assert!(ManifestReader::read(&path).unwrap_err().contains("header"));
        let _ = std::fs::remove_file(&path);
    }
}
