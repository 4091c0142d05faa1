//! Execution backends for the captured DAG.
//!
//! * [`pandas`] — the baseline: eager dataframe execution + in-process
//!   sklearn, with mlinspect-style annotation columns for lineage.
//! * [`sql`] — the paper's contribution: every operator becomes a CTE/view
//!   in generated SQL, executed by the `sqlengine` substrate.
//!
//! Both backends consume the same [`crate::dag::Dag`] and produce the same
//! [`RunArtifacts`], which is what the equivalence tests compare.

pub mod pandas;
pub mod sql;

use crate::dag::NodeId;
use crate::error::{MlError, Result};
use crate::inspection::{Inspection, InspectionResults};
use etypes::Value;
use std::collections::HashMap;

/// Prefix of the hidden lineage columns both backends thread through every
/// operator (`__ctid_<read-node-id>`), mirroring the paper's
/// `<view-name>_ctid` convention.
pub const CTID_PREFIX: &str = "__ctid_";

/// Name of the hidden lineage column for a given read node.
pub fn ctid_column(read_node: NodeId) -> String {
    format!("{CTID_PREFIX}{read_node}")
}

/// The deterministic train/test partition both backends share: a tuple goes
/// to the *test* set iff `split_hash(ctid, seed) < test_percent`. The
/// multiplier is Knuth's 2^32 golden-ratio constant; since
/// `gcd(2654435761 mod 100, 100) = 1` the residues cycle through all of
/// 0..100, giving an exact test fraction on contiguous identifiers.
pub fn split_hash(ctid: i64, seed: u64) -> i64 {
    (ctid * 2_654_435_761 + (seed as i64 % 1_000_003)).rem_euclid(100)
}

/// Simulated CPython-side costs of the baseline (same philosophy as the
/// engine profiles' I/O latency: we do not run a Python interpreter, so the
/// per-row interpretation overhead that the paper's SQL off-loading
/// eliminates is charged explicitly, with calibrated constants).
///
/// * `sklearn_nanos_per_cell` — scikit-learn + monkey-patching overhead per
///   transformed cell. mlinspect-patched fit/transform iterates Python-level
///   rows; the paper's §6.2 factors (×40 … ×5·10³ at 10⁶ tuples) imply tens
///   of microseconds per cell.
/// * `inspect_nanos_per_row` — mlinspect's inspection iterators are pure
///   Python generators over every row of every operator output (§6.3).
///
/// Set both to zero to benchmark the raw Rust dataframe instead of the
/// modelled pandas/mlinspect baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineCosts {
    /// Nanoseconds charged per transformed cell in FeatureTransform.
    pub sklearn_nanos_per_cell: u64,
    /// Nanoseconds charged per row whenever a histogram is measured.
    pub inspect_nanos_per_row: u64,
}

impl Default for BaselineCosts {
    fn default() -> Self {
        BaselineCosts {
            sklearn_nanos_per_cell: 50_000,
            inspect_nanos_per_row: 50_000,
        }
    }
}

impl BaselineCosts {
    /// No simulated overhead: the raw Rust substrate.
    pub fn zero() -> BaselineCosts {
        BaselineCosts {
            sklearn_nanos_per_cell: 0,
            inspect_nanos_per_row: 0,
        }
    }

    /// Busy-wait for `units * nanos_per_unit`.
    pub fn charge(nanos_per_unit: u64, units: usize) {
        if nanos_per_unit == 0 || units == 0 {
            return;
        }
        let target = std::time::Duration::from_nanos(nanos_per_unit * units as u64);
        let start = std::time::Instant::now();
        while start.elapsed() < target {
            std::hint::spin_loop();
        }
    }
}

/// Run options shared by both backends.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Requested inspections.
    pub inspections: Vec<Inspection>,
    /// Keep every operator's full output relation in the artifacts
    /// (equivalence tests); off for benchmarks.
    pub keep_relations: bool,
    /// Force terminal frame outputs to be computed even when no inspection
    /// or training consumes them (benchmarks of preprocessing-only phases:
    /// the SQL backend is lazy, the paper's measurements are not).
    pub force_outputs: bool,
    /// Simulated CPython overhead of the baseline backend.
    pub baseline_costs: BaselineCosts,
}

impl RunConfig {
    /// The sensitive columns of a `HistogramForColumns` inspection, if any.
    pub fn sensitive_columns(&self) -> Vec<String> {
        for i in &self.inspections {
            if let Inspection::HistogramForColumns(cols) = i {
                return cols.clone();
            }
        }
        Vec::new()
    }

    /// Sample size of `RowLineage`, if requested.
    pub fn lineage_k(&self) -> Option<usize> {
        self.inspections.iter().find_map(|i| match i {
            Inspection::RowLineage(k) => Some(*k),
            _ => None,
        })
    }

    /// Sample size of `MaterializeFirstOutputRows`, if requested.
    pub fn first_rows_k(&self) -> Option<usize> {
        self.inspections.iter().find_map(|i| match i {
            Inspection::MaterializeFirstOutputRows(k) => Some(*k),
            _ => None,
        })
    }
}

/// A materialized operator output (visible columns only), used by the
/// equivalence tests and `MaterializeFirstOutputRows`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRelation {
    /// Visible column names.
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<Value>>,
}

impl NodeRelation {
    /// Rows sorted for order-insensitive comparison.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }
}

/// What a backend run produces.
#[derive(Debug, Clone, Default)]
pub struct RunArtifacts {
    /// Inspection measurements per node.
    pub inspections: InspectionResults,
    /// Accuracy of every `ModelScore` node, in DAG order.
    pub accuracies: Vec<f64>,
    /// Full relations per frame node (only when `keep_relations`).
    pub relations: HashMap<NodeId, NodeRelation>,
    /// Wall-clock per operator, in DAG order (Figure 10's breakdown).
    pub op_timings: Vec<(NodeId, String, std::time::Duration)>,
    /// Time the SQL backend spent dropping the run's scratch relations
    /// (zero on the baseline, which creates none).
    pub scratch_drop: std::time::Duration,
}

impl RunArtifacts {
    /// The single score of a pipeline that scores exactly once.
    pub fn accuracy(&self) -> Result<f64> {
        match self.accuracies.as_slice() {
            [a] => Ok(*a),
            other => Err(MlError::Internal(format!(
                "expected exactly one model score, found {}",
                other.len()
            ))),
        }
    }
}

/// Labels as f64 0/1 from a value column.
pub fn labels_to_f64(values: &[Value]) -> Result<Vec<f64>> {
    values
        .iter()
        .map(|v| match v {
            Value::Bool(b) => Ok(*b as i64 as f64),
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(MlError::Internal(format!("non-numeric label {other}"))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_hash_is_an_exact_partition() {
        // Over any 100 contiguous ctids, exactly `test_percent` land below
        // the threshold.
        for seed in [0u64, 1, 42] {
            let test = (0..100).filter(|i| split_hash(*i, seed) < 25).count();
            assert_eq!(test, 25, "seed {seed}");
        }
    }

    #[test]
    fn split_hash_differs_by_seed() {
        let a: Vec<i64> = (0..20).map(|i| split_hash(i, 1)).collect();
        let b: Vec<i64> = (0..20).map(|i| split_hash(i, 2)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn labels_coercion() {
        assert_eq!(
            labels_to_f64(&[Value::Bool(true), Value::Int(0), Value::Float(1.0)]).unwrap(),
            vec![1.0, 0.0, 1.0]
        );
        assert!(labels_to_f64(&[Value::Null]).is_err());
    }
}
