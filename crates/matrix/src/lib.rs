//! # sparseopt-matrix
//!
//! Synthetic sparse matrix generators, the paper's evaluation/training
//! suites, Matrix Market I/O, and Table I structural feature extraction.
//!
//! The generators replace the University of Florida Sparse Matrix Collection
//! (which cannot ship with the repository) with structurally equivalent
//! synthetic matrices; see `DESIGN.md` for the substitution argument and
//! [`suite`] for the per-matrix mapping.

#![warn(missing_docs)]

pub mod features;
pub mod fingerprint;
pub mod generators;
pub mod io;
pub mod reorder;
pub mod shard;
pub mod suite;

pub use features::{FeatureSet, KeyFeatures, MatrixFeatures, ELEMS_PER_CACHE_LINE};
pub use fingerprint::{MatrixFingerprint, FINGERPRINT_VERSION};
pub use reorder::{bandwidth, reverse_cuthill_mckee, Permutation};
pub use shard::{write_shard_file, ShardError, ShardMeta, ShardStore, SHARD_FORMAT_VERSION};
pub use suite::{
    by_name, paper_suite, spd_suite, streaming_suite, suite_names, training_suite, Category,
    SuiteMatrix,
};
