//! Per-layer figures derived from what the engine hands back: the
//! executor's per-operator `QueryTrace`, the optimizer's per-node
//! estimates, and the cost ledger's charges.

use crate::report::{median, ratio, Outcome};
use fj_core::optimizer::EstNode;
use fj_core::{LedgerSnapshot, QueryTrace, TraceNode};
use std::collections::BTreeMap;

/// An operator class: the first word of the node's EXPLAIN label
/// (`HashJoin`, `SemiHashJoin`, `SeqScan`, ...).
fn class(node: &TraceNode) -> &str {
    node.stats
        .label
        .split_whitespace()
        .next()
        .unwrap_or("Unknown")
}

/// Executor figures accumulated over many traced queries.
#[derive(Default)]
pub struct ExecFigures {
    execute_ms: Vec<f64>,
    wall_ns: f64,
    tuple_ops: u64,
    page_ios: u64,
    queries: u64,
    /// Per class: (self nanoseconds, rows handled).
    by_class: BTreeMap<String, (f64, u64)>,
}

impl ExecFigures {
    /// Adds one traced execution and its ledger charges.
    pub fn add(&mut self, trace: &QueryTrace, charges: &LedgerSnapshot) {
        self.execute_ms.push(trace.total_wall_micros as f64 / 1e3);
        self.wall_ns += trace.total_wall_micros as f64 * 1e3;
        self.tuple_ops += charges.tuple_ops;
        self.page_ios += charges.page_ios();
        self.queries += 1;
        trace.root.walk(&mut |n| {
            let children: u64 = n.children.iter().map(|c| c.stats.wall_micros).sum();
            let self_ns = n.stats.wall_micros.saturating_sub(children) as f64 * 1e3;
            let rows = n.stats.rows_in.max(n.stats.rows_out);
            let e = self
                .by_class
                .entry(class(n).to_string())
                .or_insert((0.0, 0));
            e.0 += self_ns;
            e.1 += rows;
        });
    }

    /// `exec.execute_ms` (median), `exec.ns_per_tuple_op`,
    /// `exec.tuple_ops` and `exec.page_ios` (per query), and
    /// `exec.op.<class>.ns_per_row` (self time per row handled, rows
    /// handled being the larger of rows in and rows out).
    pub fn report(&self, out: &mut Outcome) {
        out.metric("exec.execute_ms", median(&self.execute_ms), "ms");
        out.metric(
            "exec.ns_per_tuple_op",
            ratio(self.wall_ns, self.tuple_ops as f64),
            "ns",
        );
        let q = self.queries.max(1) as f64;
        out.metric("exec.tuple_ops", self.tuple_ops as f64 / q, "count");
        out.metric("exec.page_ios", self.page_ios as f64 / q, "pages");
        for (class, (ns, rows)) in &self.by_class {
            if *rows > 0 {
                out.metric(
                    format!("exec.op.{class}.ns_per_row"),
                    ns / *rows as f64,
                    "ns",
                );
            }
        }
    }
}

/// Row-estimate quality per operator class: the q-error
/// `max(est/actual, actual/est)` of every node (both sides floored at
/// one row), summarised as a geometric mean per class.
#[derive(Default)]
pub struct QError {
    /// Per class: (sum of ln q-error, nodes).
    by_class: BTreeMap<String, (f64, u64)>,
}

impl QError {
    /// Zips the estimate tree with the trace tree of the same plan.
    pub fn add(&mut self, est: &EstNode, actual: &TraceNode) {
        let e = est.est_rows.max(1.0);
        let a = (actual.stats.rows_out as f64).max(1.0);
        let entry = self
            .by_class
            .entry(class(actual).to_string())
            .or_insert((0.0, 0));
        entry.0 += (e / a).max(a / e).ln();
        entry.1 += 1;
        for (ce, ca) in est.children.iter().zip(&actual.children) {
            self.add(ce, ca);
        }
    }

    /// `optimizer.rows_q_error.<class>`.
    pub fn report(&self, out: &mut Outcome) {
        for (class, (ln_sum, n)) in &self.by_class {
            out.metric(
                format!("optimizer.rows_q_error.{class}"),
                (ln_sum / *n as f64).exp(),
                "ratio",
            );
        }
    }
}
