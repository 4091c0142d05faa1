#![warn(missing_docs)]
//! An embeddable SQL engine with PostgreSQL- and Umbra-like execution
//! profiles.
//!
//! This crate is the database substrate of the reproduction: the paper runs
//! its generated queries on PostgreSQL 12 (disk-based, with the CTE
//! optimization fence) and on Umbra (beyond-main-memory, compiling). We model
//! both with one engine and two [`EngineProfile`]s:
//!
//! * [`EngineProfile::disk_based`] — CTEs referenced by a query are
//!   **materialized** (PostgreSQL 12 semantics without `NOT MATERIALIZED`),
//!   and base-table / materialized-view scans pay a simulated per-page I/O
//!   latency through a buffer-pool accounting layer.
//! * [`EngineProfile::in_memory`] — CTEs and views are always inlined into
//!   one holistically optimized plan and scans run at memory speed.
//!
//! Feature coverage follows the paper's generated SQL (§3, §5): DDL,
//! `COPY ... FROM` CSV, CTEs, (materialized) views, inner/left/right/cross
//! joins with null-safe join predicates, grouped aggregation
//! (`count/sum/avg/min/max/stddev_pop/median/array_agg`), `DISTINCT`,
//! uncorrelated scalar subqueries, `unnest`, `ROW_NUMBER() OVER (ORDER BY)`,
//! `CASE`/`COALESCE`/`LEAST`/`GREATEST`/`array_fill`/`regexp_replace`, array
//! concatenation, `IN` lists, `ORDER BY` / `LIMIT`, and the `ctid` virtual
//! column that the paper's tuple tracking is built on.

pub mod ast;
pub mod binder;
pub mod cache;
pub mod catalog;
pub mod colexec;
pub mod deps;
pub mod durable;
pub mod engine;
pub mod error;
pub mod exec;
pub mod explain;
pub mod functions;
pub mod fuzz;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod profile;
pub mod storage;
pub mod token;
pub mod trace;

pub use cache::{PlanCache, PlanCacheStats};
pub use deps::{parse_fragments, parse_sql, statement_deps, StatementDeps};
pub use engine::{Engine, EngineStats, ExecOutcome, Health};
pub use error::{Result, SqlError};
pub use parser::parse_param_values;
pub use profile::EngineProfile;
pub use storage::{Relation, ResultSet};
pub use trace::{EngineTrace, OpProfile, Phase, QueryProfile};

// Storage types surface through the engine API (recovery reports, fsync
// policies), so re-export them: dependents need no direct `elephant-store`
// dependency.
pub use elephant_store::{
    CheckpointStats, FsyncPolicy, RecoveryReport, StoreStats, TableImage, TxnDecisionLog,
    WalHandle, WalRecord, WalStats, TXN_LOG_FILE,
};
