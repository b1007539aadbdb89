//! Quantized structural fingerprints — the plan-cache key.
//!
//! The tuning service (see `sparseopt-optimizer`'s `tuner` module) caches
//! measured plan winners across processes, keyed by matrix *structure*
//! rather than identity: two matrices whose quantized feature signatures
//! coincide bottleneck the same way and want the same plan, so a winner
//! tuned on one is reused for the other. This is the production answer to
//! "millions of matrices, each seen repeatedly" — the fleet of matrices
//! collapses onto a small set of structural buckets.
//!
//! The fingerprint quantizes the cheap end of the Table I feature record:
//!
//! * `nrows` / `nnz` — log₂ size buckets (working-set scale);
//! * row-length moments — mean and coefficient of variation, on a
//!   quarter-log₂ grid (regular vs skewed vs heavy-tailed rows);
//! * `symmetry_share` — sixteenths (separates symmetric matrices, the only
//!   ones the pool offers `sym-compress`);
//! * `padding_overhead` — quarter-log₂ grid (cost side of the SELL-C-σ
//!   conversion).
//!
//! These are exactly the fields of [`KeyFeatures`], which skips the Table I
//! column pass: a plan-cache hit inspects the matrix no further.
//!
//! Quantization makes the key *stable*: features are computed from the
//! canonical CSR form (column-sorted rows), so any permutation of the
//! nonzero input order maps to the identical fingerprint, and the coarse
//! grids absorb last-bit float jitter. It also makes the key *collision
//! seeking* by design — nearby structures sharing a bucket is the feature
//! that lets a second matrix skip straight to the tuned plan.
//!
//! ```
//! use sparseopt_core::prelude::*;
//! use sparseopt_matrix::MatrixFingerprint;
//!
//! // The same structure assembled in a different nonzero order — a
//! // permuted COO stream — quantizes to the identical key.
//! let mut fwd = CooMatrix::new(4, 4);
//! let mut rev = CooMatrix::new(4, 4);
//! for i in 0..4 {
//!     fwd.push(i, i, 2.0);
//!     rev.push(3 - i, 3 - i, 2.0);
//! }
//! let llc = 1 << 20;
//! let a = MatrixFingerprint::extract(&CsrMatrix::from_coo(&fwd), llc);
//! let b = MatrixFingerprint::extract(&CsrMatrix::from_coo(&rev), llc);
//! assert_eq!(a.key(), b.key());
//! assert!(a.key().starts_with("v1:"));
//! ```

use crate::features::{KeyFeatures, MatrixFeatures};
use sparseopt_core::csr::CsrMatrix;
use std::fmt;

/// Fingerprint schema version, embedded in every key: bumping the
/// quantization grid invalidates old cache entries by construction (the
/// keys simply stop matching) instead of silently mis-binning them.
pub const FINGERPRINT_VERSION: u32 = 1;

/// A quantized structural signature of one matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatrixFingerprint {
    /// log₂ bucket of the row count (bit length of `nrows`).
    pub nrows_bucket: u32,
    /// log₂ bucket of the nonzero count.
    pub nnz_bucket: u32,
    /// Mean row length on a quarter-log₂ grid: `round(4·log₂(1 + nnz_avg))`.
    pub row_avg_q: u32,
    /// Row-length coefficient of variation (`nnz_sd / nnz_avg`) on the same
    /// quarter-log₂ grid — separates regular, skewed, and heavy-tailed rows.
    pub row_cv_q: u32,
    /// `symmetry_share` in sixteenths (`16` ⇔ exactly symmetric).
    pub symmetry_q: u32,
    /// SELL-C-σ `padding_overhead` on the quarter-log₂ grid.
    pub padding_q: u32,
}

/// Bit length of `x` (`0 → 0`), the log₂ size bucket.
fn log2_bucket(x: usize) -> u32 {
    usize::BITS - x.leading_zeros()
}

/// `round(4·log₂(1 + v))` — a quarter-log₂ grid: fine enough to separate
/// structural regimes, coarse enough to absorb float jitter.
fn qlog(v: f64) -> u32 {
    (4.0 * (1.0 + v.max(0.0)).log2()).round() as u32
}

impl MatrixFingerprint {
    /// Quantizes an already-extracted feature record.
    pub fn from_features(f: &MatrixFeatures) -> Self {
        Self::from_key_features(&KeyFeatures {
            nrows: f.nrows,
            nnz: f.nnz,
            nnz_min: f.nnz_min,
            nnz_max: f.nnz_max,
            nnz_avg: f.nnz_avg,
            nnz_sd: f.nnz_sd,
            symmetry_share: f.symmetry_share,
            padding_overhead: f.padding_overhead,
        })
    }

    /// Quantizes the fields the key reads.
    pub fn from_key_features(f: &KeyFeatures) -> Self {
        let cv = if f.nnz_avg > 0.0 {
            f.nnz_sd / f.nnz_avg
        } else {
            0.0
        };
        Self {
            nrows_bucket: log2_bucket(f.nrows),
            nnz_bucket: log2_bucket(f.nnz),
            row_avg_q: qlog(f.nnz_avg),
            row_cv_q: qlog(cv),
            symmetry_q: (f.symmetry_share.clamp(0.0, 1.0) * 16.0).round() as u32,
            padding_q: qlog(f.padding_overhead),
        }
    }

    /// Extracts the [`KeyFeatures`] and quantizes them in one step; equal to
    /// [`Self::from_features`] of the full record. `llc_bytes` is unused:
    /// the fingerprint reads no platform-dependent feature, so the same
    /// matrix fingerprints identically on every host.
    pub fn extract(csr: &CsrMatrix, _llc_bytes: usize) -> Self {
        Self::from_key_features(&KeyFeatures::extract(csr))
    }

    /// The stable string key the plan cache files use, e.g.
    /// `v1:r15:z18:a13:d0:s16:p0`.
    pub fn key(&self) -> String {
        format!(
            "v{FINGERPRINT_VERSION}:r{}:z{}:a{}:d{}:s{}:p{}",
            self.nrows_bucket,
            self.nnz_bucket,
            self.row_avg_q,
            self.row_cv_q,
            self.symmetry_q,
            self.padding_q
        )
    }
}

impl fmt::Display for MatrixFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators as g;

    const LLC: usize = 32 * 1024 * 1024;

    #[test]
    fn key_embeds_the_schema_version() {
        let m = CsrMatrix::from_coo(&g::banded(1000, 2));
        let fp = MatrixFingerprint::extract(&m, LLC);
        assert!(fp.key().starts_with(&format!("v{FINGERPRINT_VERSION}:")));
    }

    #[test]
    fn same_structure_same_key_different_structure_different_key() {
        let a = MatrixFingerprint::extract(&CsrMatrix::from_coo(&g::banded(8000, 3)), LLC);
        let b = MatrixFingerprint::extract(&CsrMatrix::from_coo(&g::banded(8000, 3)), LLC);
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());

        let hub =
            MatrixFingerprint::extract(&CsrMatrix::from_coo(&g::power_law_hub(8000, 2, 7)), LLC);
        assert_ne!(a.key(), hub.key(), "band vs hub must separate");
    }

    #[test]
    fn symmetry_separates_otherwise_identical_bands() {
        let asym = MatrixFingerprint::extract(&CsrMatrix::from_coo(&g::banded(4000, 3)), LLC);
        let sym =
            MatrixFingerprint::extract(&CsrMatrix::from_coo(&g::symmetric_banded(4000, 3)), LLC);
        assert_eq!(sym.symmetry_q, 16);
        assert_ne!(asym.key(), sym.key());
    }

    #[test]
    fn llc_size_does_not_enter_the_fingerprint() {
        let m = CsrMatrix::from_coo(&g::random_uniform(4000, 8, 3));
        let small = MatrixFingerprint::extract(&m, 1024);
        let big = MatrixFingerprint::extract(&m, 1 << 30);
        assert_eq!(small, big, "fingerprints must be host-portable");
    }

    #[test]
    fn empty_matrix_fingerprints_without_panicking() {
        let m = CsrMatrix::from_coo(&sparseopt_core::coo::CooMatrix::new(4, 4));
        let fp = MatrixFingerprint::extract(&m, LLC);
        assert_eq!(fp.nnz_bucket, 0);
        assert_eq!(fp.row_avg_q, 0);
    }
}
