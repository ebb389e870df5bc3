//! # tempriv-runtime — deterministic experiment orchestration
//!
//! Every figure in this repository is a sweep of independent simulations.
//! This crate runs those jobs on a **bounded worker pool** instead of one
//! thread per job, memoizes finished jobs in a **content-addressed result
//! cache**, journals progress into **JSONL run manifests** that support
//! resuming interrupted runs, and reports liveness through a pluggable
//! **observer** hook.
//!
//! The crate is deliberately generic — it knows nothing about sensor
//! networks. A job is an index plus a stable cache key; its output is any
//! `serde`-serializable value. `tempriv-core` layers the experiment
//! semantics (sweep kinds, config digests) on top.
//!
//! Determinism contract: jobs must be pure functions of their index (no
//! shared mutable state, no ambient randomness). The pool then guarantees
//! bit-for-bit identical output vectors for any worker count, because
//! results are reassembled in index order no matter which worker computed
//! them or when.
//!
//! ```
//! use tempriv_runtime::{Runtime, WorkerPool};
//!
//! let runtime = Runtime::new(WorkerPool::with_workers(4));
//! let keys: Vec<String> = (0..8).map(|i| format!("square:{i}")).collect();
//! let squares = runtime.run("squares", "{}", &keys, |i| (i as u64) * (i as u64));
//! assert_eq!(squares[7], 49);
//! // A second run with the same keys is served from the cache.
//! let again = runtime.run("squares", "{}", &keys, |_| unreachable!("cached"));
//! assert_eq!(squares, again);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod manifest;
pub mod observer;
pub mod pool;
pub mod runner;
pub mod telemetry;

pub use cache::{content_digest, ResultCache};
pub use manifest::{JobRecord, JobStatus, ManifestHeader, ManifestReader, ManifestWriter};
pub use observer::{CountingObserver, NullObserver, RunObserver, StderrReporter};
pub use pool::WorkerPool;
pub use runner::{Runtime, RuntimeBuilder};
pub use telemetry::{Blob, TelemetrySink};
