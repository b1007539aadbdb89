//! Structural feature extraction — Table I of the paper.
//!
//! Features feed the feature-guided classifier. Extraction cost matters (it
//! is the classifier's online overhead), so features are grouped by
//! complexity tier exactly as in Table IV: an `O(N)` set that only touches
//! `rowptr`, and an `O(NNZ)` set that also scans `colind`.
//!
//! Definitions (for row `i` with `nnz_i` nonzeros):
//! - `bw_i` — column span between first and last nonzero (`last − first + 1`
//!   for nonempty rows, 0 for empty ones);
//! - `scatter_i = nnz_i / bw_i` (the paper also calls this *dispersion*);
//! - `clustering_i = ngroups_i / nnz_i` where `ngroups_i` counts maximal runs
//!   of consecutive column indices;
//! - `misses_i` — nonzeros whose column distance from their predecessor in
//!   the row exceeds the elements per cache line (naive cache-miss proxy).
//!
//! Beyond Table I, the record carries the **symmetry features**:
//! `symmetry_share` (fraction of off-diagonal nonzeros with an exact
//! transposed partner) and the derived binary `is_symmetric`. The pool
//! offers `sym-compress` only to symmetric matrices, and the sim prices its
//! halved SSS stream; on the host that plan builds SELL-C-σ (there is no
//! SSS SpMV operator), so the feature steers the plan, not the format.
//!
//! Extraction is split in two. [`KeyFeatures`] holds what the plan-cache
//! fingerprint reads — sizes, row-length moments, the symmetry share and
//! the SELL padding — and costs one pass over `rowptr` plus the symmetry
//! loop; a cache hit needs nothing more. [`MatrixFeatures::complete`]
//! adds the rest of Table I with one pass over `colind`.

use sparseopt_core::csr::CsrMatrix;

/// Cache-line-resident doubles used for the `misses` feature (64-byte lines).
pub const ELEMS_PER_CACHE_LINE: usize = 8;

/// The full Table I feature record.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixFeatures {
    /// 1 if the SpMV working set fits in the last-level cache, else 0 (Θ(1)).
    pub size_fits_llc: f64,
    /// `NNZ / N²` (Θ(1)).
    pub density: f64,
    /// Matrix dimension (rows).
    pub nrows: usize,
    /// Nonzero count.
    pub nnz: usize,
    /// Minimum row nonzero count `min(nnz_i)` (Θ(N)).
    pub nnz_min: f64,
    /// Maximum row nonzero count `max(nnz_i)` (Θ(N)).
    pub nnz_max: f64,
    /// Mean row nonzero count (Θ(N)).
    pub nnz_avg: f64,
    /// Standard deviation of `nnz_i` (Θ(N)).
    pub nnz_sd: f64,
    /// Minimum row bandwidth `min(bw_i)` (first/last column per row —
    /// O(N) array reads given CSR).
    pub bw_min: f64,
    /// Maximum row bandwidth `max(bw_i)`.
    pub bw_max: f64,
    /// Mean row bandwidth.
    pub bw_avg: f64,
    /// Standard deviation of `bw_i`.
    pub bw_sd: f64,
    /// Mean of `scatter_i` (a.k.a. dispersion).
    pub scatter_avg: f64,
    /// Standard deviation of `scatter_i`.
    pub scatter_sd: f64,
    /// mean of `clustering_i` (Θ(NNZ)).
    pub clustering_avg: f64,
    /// mean of `misses_i` (Θ(NNZ)).
    pub misses_avg: f64,
    /// Fraction of off-diagonal nonzeros whose exact symmetric partner
    /// exists (`Θ(NNZ · log max_nnz_i)`; 0 for non-square matrices, 1 for
    /// symmetric ones) — see [`sparseopt_core::sss::symmetry_share`].
    pub symmetry_share: f64,
    /// 1 if the matrix is square and exactly symmetric, else 0. Gates the
    /// `sym-compress` plan (MB class).
    pub is_symmetric: f64,
    /// SELL-C-σ padding overhead at the library's default `(C, σ)`:
    /// `padded_slots / nnz − 1`, i.e. the fraction of extra value/index
    /// slots the sliced-ELLPACK layout stores as explicit zeros. Near 0 for
    /// regular row lengths, grows with row-length variance — the cost side
    /// of the vectorization (CMP) optimization's format trade.
    pub padding_overhead: f64,
}

/// The fields of [`MatrixFeatures`] the plan-cache fingerprint reads
/// ([`crate::MatrixFingerprint::from_key_features`]), extracted without the
/// Table I column pass. Each field equals its namesake in the full record
/// bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyFeatures {
    /// Matrix dimension (rows).
    pub nrows: usize,
    /// Nonzero count.
    pub nnz: usize,
    /// Minimum row nonzero count.
    pub nnz_min: f64,
    /// Maximum row nonzero count.
    pub nnz_max: f64,
    /// Mean row nonzero count.
    pub nnz_avg: f64,
    /// Standard deviation of the row nonzero counts.
    pub nnz_sd: f64,
    /// See [`MatrixFeatures::symmetry_share`].
    pub symmetry_share: f64,
    /// See [`MatrixFeatures::padding_overhead`].
    pub padding_overhead: f64,
}

impl KeyFeatures {
    /// One pass over `rowptr`, the symmetry loop
    /// ([`sparseopt_core::sss::symmetry_share`]) and the SELL padding count.
    pub fn extract(csr: &CsrMatrix) -> Self {
        let nnz = csr.nnz();
        let mut lens = Stats::new();
        for i in 0..csr.nrows() {
            lens.push(csr.row_nnz(i) as f64);
        }
        let padded = sparseopt_core::sell::sell_padded_slots(csr, sparseopt_core::sell::SELL_SIGMA);
        Self {
            nrows: csr.nrows(),
            nnz,
            nnz_min: lens.min(),
            nnz_max: lens.max(),
            nnz_avg: lens.mean(),
            nnz_sd: lens.sd(),
            symmetry_share: sparseopt_core::sss::symmetry_share(csr),
            padding_overhead: if nnz == 0 {
                0.0
            } else {
                padded as f64 / nnz as f64 - 1.0
            },
        }
    }
}

impl MatrixFeatures {
    /// Extracts all features. `llc_bytes` parameterizes the `size` feature
    /// (pass the target platform's last-level cache capacity).
    pub fn extract(csr: &CsrMatrix, llc_bytes: usize) -> Self {
        Self::complete(csr, &KeyFeatures::extract(csr), llc_bytes)
    }

    /// Completes the record from `key`, which must have been extracted from
    /// this `csr`, with one pass over `colind` for the bandwidth, scatter,
    /// clustering and misses features.
    pub fn complete(csr: &CsrMatrix, key: &KeyFeatures, llc_bytes: usize) -> Self {
        let n = csr.nrows();
        let mut bw_stats = Stats::new();
        let mut scatter_stats = Stats::new();
        let mut clustering_sum = 0.0f64;
        let mut misses_sum = 0.0f64;

        for i in 0..n {
            let cols = csr.row_cols(i);
            let len = cols.len();
            let bw = if len == 0 {
                0.0
            } else {
                (cols[len - 1] - cols[0]) as f64 + 1.0
            };
            bw_stats.push(bw);
            scatter_stats.push(if bw > 0.0 { len as f64 / bw } else { 0.0 });

            if len > 0 {
                let mut groups = 1usize;
                let mut misses = 0usize;
                for w in cols.windows(2) {
                    let gap = (w[1] - w[0]) as usize;
                    if gap > 1 {
                        groups += 1;
                    }
                    if gap > ELEMS_PER_CACHE_LINE {
                        misses += 1;
                    }
                }
                clustering_sum += groups as f64 / len as f64;
                misses_sum += misses as f64;
            }
        }

        // Working set: matrix footprint + x + y vectors.
        let working_set = csr.footprint_bytes() + (csr.ncols() + csr.nrows()) * 8;
        Self {
            size_fits_llc: if working_set <= llc_bytes { 1.0 } else { 0.0 },
            density: if n == 0 {
                0.0
            } else {
                key.nnz as f64 / (n as f64 * csr.ncols() as f64)
            },
            nrows: key.nrows,
            nnz: key.nnz,
            nnz_min: key.nnz_min,
            nnz_max: key.nnz_max,
            nnz_avg: key.nnz_avg,
            nnz_sd: key.nnz_sd,
            bw_min: bw_stats.min(),
            bw_max: bw_stats.max(),
            bw_avg: bw_stats.mean(),
            bw_sd: bw_stats.sd(),
            scatter_avg: scatter_stats.mean(),
            scatter_sd: scatter_stats.sd(),
            clustering_avg: if n == 0 {
                0.0
            } else {
                clustering_sum / n as f64
            },
            misses_avg: if n == 0 { 0.0 } else { misses_sum / n as f64 },
            symmetry_share: key.symmetry_share,
            is_symmetric: if n == csr.ncols() && key.symmetry_share == 1.0 {
                1.0
            } else {
                0.0
            },
            padding_overhead: key.padding_overhead,
        }
    }

    /// The named feature vector for a Table IV feature set.
    pub fn vector(&self, set: FeatureSet) -> Vec<f64> {
        set.names()
            .iter()
            .map(|name| {
                self.get(name)
                    .expect("FeatureSet::names only lists canonical Table I names")
            })
            .collect()
    }

    /// Looks a feature up by its Table I name; `None` for names outside the
    /// table (callers with user-supplied names decide how to react —
    /// formerly this panicked).
    pub fn get(&self, name: &str) -> Option<f64> {
        Some(match name {
            "size" => self.size_fits_llc,
            "density" => self.density,
            "nnz_min" => self.nnz_min,
            "nnz_max" => self.nnz_max,
            "nnz_avg" => self.nnz_avg,
            "nnz_sd" => self.nnz_sd,
            "bw_min" => self.bw_min,
            "bw_max" => self.bw_max,
            "bw_avg" => self.bw_avg,
            "bw_sd" => self.bw_sd,
            "scatter_avg" | "dispersion_avg" => self.scatter_avg,
            "scatter_sd" | "dispersion_sd" => self.scatter_sd,
            "clustering_avg" => self.clustering_avg,
            "misses_avg" => self.misses_avg,
            "symmetry_share" => self.symmetry_share,
            "is_symmetric" => self.is_symmetric,
            "padding_overhead" => self.padding_overhead,
            _ => return None,
        })
    }
}

/// The two feature sets reported in Table IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureSet {
    /// `O(N)` tier: `nnz{min,max,sd}, bw_avg, dispersion{avg,sd}` —
    /// "80% exact / 95% partial" in the paper.
    LinearInRows,
    /// `O(NNZ)` tier: `size, bw{avg,sd}, nnz{min,max,avg,sd}, misses_avg,
    /// dispersion_sd` — "84% exact / 100% partial" in the paper.
    LinearInNnz,
}

impl FeatureSet {
    /// Ordered feature names of the set.
    pub fn names(self) -> &'static [&'static str] {
        match self {
            FeatureSet::LinearInRows => &[
                "nnz_min",
                "nnz_max",
                "nnz_sd",
                "bw_avg",
                "dispersion_avg",
                "dispersion_sd",
            ],
            FeatureSet::LinearInNnz => &[
                "size",
                "bw_avg",
                "bw_sd",
                "nnz_min",
                "nnz_max",
                "nnz_avg",
                "nnz_sd",
                "misses_avg",
                "dispersion_sd",
                // Beyond Table IV: the symmetry feature (same Θ(NNZ)-ish
                // tier) lets the trained tree separate symmetric MB
                // matrices, whose remediation is SSS storage rather than
                // delta compression.
                "symmetry_share",
                // Likewise beyond Table IV: the SELL-C-σ padding overhead
                // (computed from the actual layout in the same Θ(NNZ) tier)
                // tells the tree when the vectorization remediation's
                // format trade is cheap (regular rows) vs costly (high
                // row-length variance).
                "padding_overhead",
            ],
        }
    }

    /// Table IV complexity label.
    pub fn complexity(self) -> &'static str {
        match self {
            FeatureSet::LinearInRows => "O(N)",
            FeatureSet::LinearInNnz => "O(NNZ)",
        }
    }
}

/// Streaming min/max/mean/sd accumulator.
struct Stats {
    n: usize,
    min: f64,
    max: f64,
    sum: f64,
    sumsq: f64,
}

impl Stats {
    fn new() -> Self {
        Self {
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            sumsq: 0.0,
        }
    }

    fn push(&mut self, v: f64) {
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.sumsq += v * v;
    }

    fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    fn sd(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sumsq / self.n as f64 - mean * mean).max(0.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use sparseopt_core::coo::CooMatrix;

    const LLC: usize = 32 * 1024 * 1024;

    #[test]
    fn dense_matrix_features() {
        let m = CsrMatrix::from_coo(&generators::dense(16));
        let f = MatrixFeatures::extract(&m, LLC);
        assert_eq!(f.density, 1.0);
        assert_eq!(f.nnz_min, 16.0);
        assert_eq!(f.nnz_max, 16.0);
        assert_eq!(f.nnz_sd, 0.0);
        assert_eq!(f.bw_avg, 16.0);
        assert_eq!(f.scatter_avg, 1.0);
        assert_eq!(f.clustering_avg, 1.0 / 16.0);
        assert_eq!(f.misses_avg, 0.0);
        assert_eq!(f.size_fits_llc, 1.0);
    }

    #[test]
    fn diagonal_matrix_features() {
        let m = CsrMatrix::from_coo(&generators::diagonal(100));
        let f = MatrixFeatures::extract(&m, LLC);
        assert_eq!(f.nnz_avg, 1.0);
        assert_eq!(f.bw_avg, 1.0);
        assert_eq!(f.scatter_avg, 1.0);
        assert_eq!(f.clustering_avg, 1.0);
    }

    #[test]
    fn misses_counts_large_gaps() {
        // Row 0: columns 0 and 100 — one gap > 8.
        let mut coo = CooMatrix::new(2, 128);
        coo.push(0, 0, 1.0);
        coo.push(0, 100, 1.0);
        coo.push(1, 0, 1.0);
        let m = CsrMatrix::from_coo(&coo);
        let f = MatrixFeatures::extract(&m, LLC);
        assert_eq!(f.misses_avg, 0.5);
        assert_eq!(f.clustering_avg, (2.0 / 2.0 + 1.0) / 2.0);
    }

    #[test]
    fn skewed_matrix_has_high_nnz_sd() {
        let m = CsrMatrix::from_coo(&generators::few_dense_rows(400, 2, 2, 3));
        let f = MatrixFeatures::extract(&m, LLC);
        assert!(f.nnz_max > 20.0 * f.nnz_avg);
        assert!(f.nnz_sd > f.nnz_avg);
    }

    #[test]
    fn size_feature_flips_with_llc() {
        let m = CsrMatrix::from_coo(&generators::banded(2000, 2));
        let f_small = MatrixFeatures::extract(&m, 1024);
        let f_big = MatrixFeatures::extract(&m, 1 << 30);
        assert_eq!(f_small.size_fits_llc, 0.0);
        assert_eq!(f_big.size_fits_llc, 1.0);
    }

    #[test]
    fn feature_sets_resolve_all_names() {
        let m = CsrMatrix::from_coo(&generators::banded(64, 3));
        let f = MatrixFeatures::extract(&m, LLC);
        for set in [FeatureSet::LinearInRows, FeatureSet::LinearInNnz] {
            let v = f.vector(set);
            assert_eq!(v.len(), set.names().len());
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn unknown_feature_name_is_none_not_a_panic() {
        let m = CsrMatrix::from_coo(&generators::banded(8, 1));
        let f = MatrixFeatures::extract(&m, LLC);
        assert_eq!(f.get("no_such_feature"), None);
        assert_eq!(f.get(""), None);
        assert_eq!(f.get("density"), Some(f.density));
        assert_eq!(f.get("dispersion_avg"), Some(f.scatter_avg));
    }

    #[test]
    fn symmetry_features_separate_symmetric_from_general() {
        // Poisson stencils are exactly symmetric; the banded generator's
        // hashed values are not (same pattern, mismatched values).
        let sym = CsrMatrix::from_coo(&generators::poisson2d(20, 20));
        let f = MatrixFeatures::extract(&sym, LLC);
        assert_eq!(f.symmetry_share, 1.0);
        assert_eq!(f.is_symmetric, 1.0);
        assert_eq!(f.get("is_symmetric"), Some(1.0));

        let gen = CsrMatrix::from_coo(&generators::banded(200, 2));
        let f = MatrixFeatures::extract(&gen, LLC);
        assert!(f.is_symmetric == 0.0 && f.symmetry_share < 1.0);

        let explicit = CsrMatrix::from_coo(&generators::symmetric_banded(200, 2));
        let f = MatrixFeatures::extract(&explicit, LLC);
        assert_eq!(f.is_symmetric, 1.0);
        // The O(NNZ) feature set carries the symmetry signal.
        assert!(FeatureSet::LinearInNnz.names().contains(&"symmetry_share"));
    }

    #[test]
    fn padding_overhead_tracks_row_length_variance() {
        // Uniform row lengths pad nothing; a hub row in an otherwise sparse
        // matrix pads its chunk and the overhead shows.
        let regular = CsrMatrix::from_coo(&generators::banded(2000, 3));
        let f = MatrixFeatures::extract(&regular, LLC);
        assert!(
            f.padding_overhead < 0.05,
            "banded matrix should barely pad: {}",
            f.padding_overhead
        );

        let skewed = CsrMatrix::from_coo(&generators::few_dense_rows(400, 2, 2, 3));
        let f = MatrixFeatures::extract(&skewed, LLC);
        assert!(
            f.padding_overhead > 0.05,
            "skewed rows must pad: {}",
            f.padding_overhead
        );
        assert_eq!(f.get("padding_overhead"), Some(f.padding_overhead));
        assert!(FeatureSet::LinearInNnz
            .names()
            .contains(&"padding_overhead"));
    }

    #[test]
    fn empty_matrix_is_all_zeros() {
        let m = CsrMatrix::from_coo(&CooMatrix::new(4, 4));
        let f = MatrixFeatures::extract(&m, LLC);
        assert_eq!(f.nnz_avg, 0.0);
        assert_eq!(f.bw_avg, 0.0);
        assert_eq!(f.misses_avg, 0.0);
    }
}
