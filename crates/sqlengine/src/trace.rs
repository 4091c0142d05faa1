//! Engine-side tracing: per-phase latency histograms and per-operator
//! runtime profiles (`EXPLAIN ANALYZE`).
//!
//! Tracing is *always-on-cheap*: with tracing enabled (the default) each
//! engine call pays a couple of `Instant::now()` reads and histogram bucket
//! increments per phase — no allocation, no locks (the engine is
//! single-threaded). Operator profiling is heavier (one timestamp per plan
//! node) and therefore opt-in: it only runs under `EXPLAIN ANALYZE` and
//! [`crate::Engine::query_profiled`].
//!
//! The lex, parse, bind and optimize histograms record real frontend work
//! only: a SELECT text found in the plan cache ([`crate::cache`]) runs its
//! cached plan and adds an execute sample, nothing else.

use etypes::{Histogram, TraceContext};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The phases of one engine call, each with its own histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenizing SQL text.
    Lex,
    /// Token stream → AST.
    Parse,
    /// Name resolution and plan construction.
    Bind,
    /// Plan rewrites (pushdown, pruning).
    Optimize,
    /// Plan execution (the query hot path).
    Execute,
    /// Appending mutation records to the WAL (durable engines only).
    WalAppend,
    /// Time inside `fsync` while appending (durable engines only).
    Fsync,
    /// Encoding a result set for the client (recorded by the server through
    /// [`crate::Engine::record_phase`]).
    Encode,
}

impl Phase {
    /// Every phase, in pipeline order (the write path, then encoding).
    pub const ALL: [Phase; 8] = [
        Phase::Lex,
        Phase::Parse,
        Phase::Bind,
        Phase::Optimize,
        Phase::Execute,
        Phase::WalAppend,
        Phase::Fsync,
        Phase::Encode,
    ];

    /// Stable lowercase name (used in `STATS` keys).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Bind => "bind",
            Phase::Optimize => "optimize",
            Phase::Execute => "execute",
            Phase::WalAppend => "wal_append",
            Phase::Fsync => "fsync",
            Phase::Encode => "encode",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Lex => 0,
            Phase::Parse => 1,
            Phase::Bind => 2,
            Phase::Optimize => 3,
            Phase::Execute => 4,
            Phase::WalAppend => 5,
            Phase::Fsync => 6,
            Phase::Encode => 7,
        }
    }
}

/// Accumulated per-phase timing for one engine.
///
/// When a [`TraceContext`] is installed (the server sets one per served
/// command), each phase sample is additionally captured as a per-statement
/// `(Phase, µs)` pair so the executor can attach engine-phase spans to the
/// command's distributed span tree.
#[derive(Debug, Clone)]
pub struct EngineTrace {
    enabled: bool,
    phases: [Histogram; Phase::ALL.len()],
    ctx: Option<TraceContext>,
    statement_spans: Vec<(Phase, u64)>,
    /// Samples past [`MAX_STATEMENT_SPANS`] since the context was installed.
    dropped_spans: u64,
}

/// Cap on captured per-statement phase samples (a multi-statement script
/// records several samples per phase; the tree stays bounded). Samples past
/// it are counted, and the server marks the cut with one `truncated` span.
const MAX_STATEMENT_SPANS: usize = 64;

impl Default for EngineTrace {
    fn default() -> Self {
        EngineTrace {
            enabled: true,
            phases: Default::default(),
            ctx: None,
            statement_spans: Vec::new(),
            dropped_spans: 0,
        }
    }
}

impl EngineTrace {
    /// True while phase spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn phase-span recording on or off (the overhead bench's baseline).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a phase timer; `None` when tracing is off, so the hot path
    /// pays only this branch.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record the elapsed time of a timer produced by [`EngineTrace::timer`].
    #[inline]
    pub fn record(&mut self, phase: Phase, timer: Option<Instant>) {
        if let Some(t) = timer {
            let us = t.elapsed().as_micros() as u64;
            self.phases[phase.index()].record_us(us);
            self.capture(phase, us);
        }
    }

    /// Record a raw duration (used when the duration is derived, e.g. the
    /// fsync share of a WAL append).
    #[inline]
    pub fn record_duration(&mut self, phase: Phase, d: Duration) {
        if self.enabled {
            let us = d.as_micros() as u64;
            self.phases[phase.index()].record_us(us);
            self.capture(phase, us);
        }
    }

    /// Record a raw microsecond sample.
    #[inline]
    pub fn record_us(&mut self, phase: Phase, us: u64) {
        if self.enabled {
            self.phases[phase.index()].record_us(us);
            self.capture(phase, us);
        }
    }

    #[inline]
    fn capture(&mut self, phase: Phase, us: u64) {
        if self.ctx.is_some() {
            if self.statement_spans.len() < MAX_STATEMENT_SPANS {
                self.statement_spans.push((phase, us));
            } else {
                self.dropped_spans += 1;
            }
        }
    }

    /// Install (or clear) the correlation context for the next command.
    /// Installing a context resets the per-statement capture buffer.
    pub fn set_context(&mut self, ctx: Option<TraceContext>) {
        self.ctx = ctx;
        self.statement_spans.clear();
        self.dropped_spans = 0;
    }

    /// The currently installed correlation context.
    pub fn context(&self) -> Option<TraceContext> {
        self.ctx
    }

    /// Drain the phase samples captured since the context was installed,
    /// with the number dropped past the cap.
    pub fn take_statement_spans(&mut self) -> (Vec<(Phase, u64)>, u64) {
        let dropped = std::mem::take(&mut self.dropped_spans);
        (std::mem::take(&mut self.statement_spans), dropped)
    }

    /// The histogram of one phase.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// Drop all recorded samples (between benchmark rounds).
    pub fn reset(&mut self) {
        self.phases = Default::default();
    }

    /// Render the phase breakdown as `key value` lines (the `STATS`
    /// extension): `phase_<name>_{count,total_us,p50_us,p95_us}` for every
    /// phase that recorded at least one sample.
    pub fn render_stats(&self) -> String {
        let mut out = String::new();
        for phase in Phase::ALL {
            let h = self.phase(phase);
            if h.count() == 0 {
                continue;
            }
            let name = phase.name();
            let _ = writeln!(out, "phase_{name}_count {}", h.count());
            let _ = writeln!(out, "phase_{name}_total_us {}", h.total_us());
            let _ = writeln!(out, "phase_{name}_p50_us {}", h.percentile(0.5));
            let _ = writeln!(out, "phase_{name}_p95_us {}", h.percentile(0.95));
        }
        out.pop();
        out
    }
}

/// One operator's runtime profile inside a [`QueryProfile`], in the plan's
/// pre-order rendering order (CTEs, init-plans, then the body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Indentation depth in the rendered tree.
    pub depth: usize,
    /// The operator's `EXPLAIN` line text (e.g. `Scan Table t cols=2`).
    pub label: String,
    /// Rows consumed from direct inputs (sum of the children's `rows`).
    pub rows_in: u64,
    /// Rows produced (the executed cardinality).
    pub rows: u64,
    /// Columnar batches produced (at least one per execution).
    pub batches: u64,
    /// Inclusive wall-clock time (children included), microseconds.
    pub time_us: u64,
    /// False when the operator never ran (e.g. an unused init-plan).
    pub executed: bool,
}

/// The runtime profile of one executed query: the plan tree annotated with
/// per-operator cardinalities and inclusive timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// Operators in rendering order.
    pub ops: Vec<OpProfile>,
    /// End-to-end execution time in microseconds.
    pub total_us: u64,
    /// Rows in the final result.
    pub result_rows: u64,
}

impl QueryProfile {
    /// First operator whose label starts with `prefix` (test helper).
    pub fn find(&self, prefix: &str) -> Option<&OpProfile> {
        self.ops.iter().find(|op| op.label.starts_with(prefix))
    }

    /// Render as the `EXPLAIN ANALYZE` body: the plan tree with
    /// `(rows=N batches=N time=Nus)` per operator and a trailing execution
    /// summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let pad = "  ".repeat(op.depth);
            if !op.executed {
                let _ = writeln!(out, "{pad}{} (never executed)", op.label);
            } else {
                let _ = writeln!(
                    out,
                    "{pad}{} (rows={} batches={} time={}us)",
                    op.label, op.rows, op.batches, op.time_us
                );
            }
        }
        let _ = write!(
            out,
            "Execution: rows={} time={}us",
            self.result_rows, self.total_us
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = EngineTrace::default();
        t.set_enabled(false);
        assert!(t.timer().is_none());
        t.record_us(Phase::Execute, 100);
        assert_eq!(t.phase(Phase::Execute).count(), 0);
        assert!(t.render_stats().is_empty());
    }

    #[test]
    fn enabled_trace_accumulates_per_phase() {
        let mut t = EngineTrace::default();
        let timer = t.timer();
        assert!(timer.is_some());
        t.record(Phase::Parse, timer);
        t.record_us(Phase::Execute, 50);
        t.record_us(Phase::Execute, 60);
        assert_eq!(t.phase(Phase::Parse).count(), 1);
        assert_eq!(t.phase(Phase::Execute).count(), 2);
        assert_eq!(t.phase(Phase::Execute).total_us(), 110);
        let stats = t.render_stats();
        assert!(stats.contains("phase_parse_count 1"), "{stats}");
        assert!(stats.contains("phase_execute_total_us 110"), "{stats}");
        assert!(!stats.contains("phase_lex"), "{stats}");
        t.reset();
        assert_eq!(t.phase(Phase::Execute).count(), 0);
    }

    #[test]
    fn profile_renders_tree_and_summary() {
        let p = QueryProfile {
            ops: vec![
                OpProfile {
                    depth: 0,
                    label: "Aggregate groups=1 aggs=[count(*)]".into(),
                    rows_in: 4,
                    rows: 2,
                    batches: 1,
                    time_us: 120,
                    executed: true,
                },
                OpProfile {
                    depth: 1,
                    label: "Scan Table t cols=1".into(),
                    rows_in: 0,
                    rows: 4,
                    batches: 1,
                    time_us: 80,
                    executed: true,
                },
                OpProfile {
                    depth: 0,
                    label: "InitPlan $0".into(),
                    rows_in: 0,
                    rows: 0,
                    batches: 0,
                    time_us: 0,
                    executed: false,
                },
            ],
            total_us: 150,
            result_rows: 2,
        };
        let text = p.render();
        assert!(text.contains("Aggregate groups=1 aggs=[count(*)] (rows=2 batches=1 time=120us)"));
        assert!(text.contains("  Scan Table t cols=1 (rows=4 batches=1 time=80us)"));
        assert!(text.contains("InitPlan $0 (never executed)"));
        assert!(text.ends_with("Execution: rows=2 time=150us"));
        assert_eq!(p.find("Scan").unwrap().rows, 4);
    }
}
