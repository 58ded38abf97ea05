//! # dfp-select — discriminative feature selection over frequent patterns
//!
//! Step 2 of the framework (paper §3.3): "not every frequent pattern is
//! equally useful … it is necessary to perform feature selection to single
//! out a subset of discriminative features and remove non-discriminative
//! ones."
//!
//! * [`mod@mmrfs`] — the paper's **MMRFS** algorithm (Algorithm 1): maximal
//!   marginal relevance selection with the Jaccard-weighted redundancy
//!   (Eq. 9), gain `g(α) = S(α) − max_{β ∈ Fs} R(α, β)` (Eq. 10), and the
//!   database-coverage stopping rule (each training instance correctly
//!   covered δ times), run as an exact lazy greedy over a max-heap of
//!   stale gains;
//! * [`reference`] — the eager full-rescan MMRFS, kept as the test oracle
//!   the lazy loop is checked against;
//! * [`baseline`] — top-k-by-relevance and seeded random selection, used by
//!   the selection-ablation benchmarks;
//! * [`transform`] — maps the dataset into the extended binary feature space
//!   `I ∪ Fs` (paper §2), producing the sparse matrices the classifiers
//!   consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod mmrfs;
pub mod reference;
pub mod transform;

pub use mmrfs::{mmrfs, MmrfsConfig, SelectionResult};
pub use transform::FeatureSpace;
