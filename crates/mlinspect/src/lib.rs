#![warn(missing_docs)]
//! The paper's primary contribution: inspection and execution of ML
//! preprocessing pipelines in SQL.
//!
//! The flow mirrors the mlinspect architecture with the paper's SQL backend:
//!
//! ```text
//! Python source ──pyparser──▶ AST ──capture──▶ operator DAG
//!      DAG ──backends::pandas──▶ dataframe ops + sklearn      (baseline)
//!      DAG ──backends::sql────▶ sqlgen ─▶ CTE/VIEW SQL ─▶ sqlengine
//!      after every operator: HistogramForColumns over each sensitive column
//!      (restored through the propagated ctid when projected away),
//!      NoBiasIntroducedFor compares ratios against a threshold.
//! ```
//!
//! Quick start:
//!
//! ```
//! use mlinspect::{PipelineInspector, SqlMode};
//! use sqlengine::{Engine, EngineProfile};
//!
//! let source = r#"
//! data = pd.read_csv("toy.csv", na_values='?')
//! data = data[data['age'] > 30]
//! "#;
//! let csv = "age,race\n25,r1\n35,r2\n45,r2\n";
//! let mut engine = Engine::new(EngineProfile::in_memory());
//! let result = PipelineInspector::on_pipeline(source)
//!     .with_file("toy.csv", csv)
//!     .no_bias_introduced_for(&["race"], 0.3)
//!     .execute_in_sql(&mut engine, SqlMode::Cte, false)
//!     .unwrap();
//! assert!(result.check_results.len() == 1);
//! ```

pub mod api;
pub mod backends;
pub mod capture;
pub mod checks;
pub mod dag;
pub mod error;
pub mod inspection;
pub mod pipelines;
pub mod sqlgen;

pub use api::{
    inspect_pipeline_in_sql, inspect_registered, InspectionReport, InspectorResult, OpBiasVerdict,
    PipelineInspector, SqlMode,
};
pub use checks::{CheckOutcome, CheckResult};
pub use dag::{Dag, DagNode, OpKind};
pub use error::{MlError, Result};
pub use inspection::{ColumnHistogram, HistogramChange};
