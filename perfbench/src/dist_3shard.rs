//! `dist-3shard`: a `DistCoordinator` over three in-process fj-net
//! shards with one worker each, running Emp ⋈ Dept with selective
//! predicates under the `Auto` shipping strategy, so the strategy
//! choice and the scatter/semijoin/fragment/gather frames are on the
//! measured path. Answers are checked against a plain-Rust join.

use crate::data::{dept_table, emp_dept, emp_table, Dept, Emp, EmpDept};
use crate::report::{
    end_to_end, median, ms, ratio, run_rounds, timed_setups, work_dir, BenchResult, Latencies,
    Outcome, SETUPS,
};
use crate::spans::Spans;
use crate::Args;
use fj_core::{col, lit, Catalog, FromItem, JoinQuery, OptimizerConfig, Tuple};
use fj_dist::{DistConfig, DistCoordinator, ShardMap, ShipStrategy};
use fj_net::{Server, ServerConfig};
use fj_runtime::ServiceConfig;
use std::time::Instant;

const N_EMPS: usize = 20_000;
const N_DEPTS: usize = 1_000;
const FRAC_BIG: f64 = 0.05;
const SHARDS: u32 = 3;

/// `SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D WHERE E.did =
/// D.did AND D.budget > budget_gt [AND E.age < age_lt] [AND E.sal >
/// sal_gt]`.
#[derive(Clone, Copy)]
struct Selective {
    budget_gt: i64,
    age_lt: Option<i64>,
    sal_gt: Option<i64>,
}

/// One round of queries: a few hundred rows each out of 20k employees.
const ROUND: [Selective; 3] = [
    Selective {
        budget_gt: 100_000,
        age_lt: Some(30),
        sal_gt: None,
    },
    Selective {
        budget_gt: 100_000,
        age_lt: None,
        sal_gt: Some(5_000),
    },
    Selective {
        budget_gt: 200_000,
        age_lt: Some(45),
        sal_gt: None,
    },
];

impl Selective {
    fn query(&self) -> JoinQuery {
        let mut pred = col("E.did")
            .eq(col("D.did"))
            .and(col("D.budget").gt(lit(self.budget_gt)));
        if let Some(a) = self.age_lt {
            pred = pred.and(col("E.age").lt(lit(a)));
        }
        if let Some(s) = self.sal_gt {
            pred = pred.and(col("E.sal").gt(lit(s)));
        }
        JoinQuery::new(vec![FromItem::new("Emp", "E"), FromItem::new("Dept", "D")])
            .with_predicate(pred)
            .with_projection(vec![
                (col("E.eid"), "eid".into()),
                (col("E.sal"), "sal".into()),
                (col("D.budget"), "budget".into()),
            ])
    }

    /// The join evaluated directly: `(eid, sal, budget)`, sorted.
    fn answer(&self, emps: &[Emp], depts: &[Dept]) -> Vec<(i64, f64, f64)> {
        let budget: std::collections::BTreeMap<i64, f64> = depts
            .iter()
            .filter(|d| d.budget > self.budget_gt as f64)
            .map(|d| (d.did, d.budget))
            .collect();
        let mut rows: Vec<(i64, f64, f64)> = emps
            .iter()
            .filter(|e| self.age_lt.is_none_or(|a| e.age < a))
            .filter(|e| self.sal_gt.is_none_or(|s| e.sal > s as f64))
            .filter_map(|e| budget.get(&e.did).map(|&b| (e.eid, e.sal, b)))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        rows
    }
}

fn same_rows(got: &[Tuple], want: &[(i64, f64, f64)]) -> bool {
    let mut rows = Vec::with_capacity(got.len());
    for t in got {
        match (
            t.value(0).as_int(),
            t.value(1).as_double(),
            t.value(2).as_double(),
        ) {
            (Some(eid), Some(sal), Some(budget)) if t.arity() == 3 => rows.push((eid, sal, budget)),
            _ => return false,
        }
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    rows == want
}

struct Setup {
    servers: Vec<Server>,
    coordinator: DistCoordinator,
    build_ms: f64,
}

fn teardown(s: Setup) {
    drop(s.coordinator);
    for server in s.servers {
        server.shutdown();
    }
}

fn setup(data: &EmpDept, warm: &JoinQuery) -> BenchResult<Setup> {
    let t0 = Instant::now();
    let emp = emp_table("Emp", &data.emps);
    let dept = dept_table("Dept", &data.depts);
    let build_ms = ms(t0.elapsed());
    let mut cat = Catalog::new();
    cat.add_table(emp.into_ref());
    cat.add_table(dept.into_ref());
    let servers = (0..SHARDS)
        .map(|_| {
            let config = ServerConfig {
                max_connections: 8,
                service: ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
                ..ServerConfig::default()
            };
            Server::bind("127.0.0.1:0", Catalog::new(), config).map_err(|e| format!("bind: {e}"))
        })
        .collect::<BenchResult<Vec<_>>>()?;
    let addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
    let coordinator =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, SHARDS, 1), DistConfig::default())
            .map_err(|e| format!("deploy: {e}"))?;
    coordinator
        .execute_with_config(warm, OptimizerConfig::default(), ShipStrategy::Auto)
        .map_err(|e| format!("warm-up query failed: {e}"))?;
    Ok(Setup {
        servers,
        coordinator,
        build_ms,
    })
}

pub fn run(args: &Args) -> BenchResult<Outcome> {
    let data = emp_dept(N_EMPS, N_DEPTS, FRAC_BIG, args.seed);
    let queries: Vec<JoinQuery> = ROUND.iter().map(Selective::query).collect();
    let expected: Vec<_> = ROUND
        .iter()
        .map(|q| q.answer(&data.emps, &data.depts))
        .collect();
    let mut build_ms = Vec::new();
    let (setup_s, s) = timed_setups(
        SETUPS,
        || {
            let s = setup(&data, &queries[0])?;
            build_ms.push(s.build_ms);
            Ok(s)
        },
        teardown,
    )?;

    let mut out = Outcome::new();
    let mut spans = Spans::new(args.trace);
    let mut lat = Latencies::default();
    let mut model_cost = 0.0;
    let mut wire_bytes = 0u64;
    let mut messages = 0u64;
    let mut predicted_bytes = 0.0;
    let mut strategies = std::collections::BTreeMap::new();
    let result = run_rounds(args.run_for, || {
        for (i, q) in queries.iter().enumerate() {
            spans.next_op();
            out.attempted += 1;
            let call = spans.enter("dist.execute");
            let t0 = Instant::now();
            let r = s.coordinator.execute_with_config(
                q,
                OptimizerConfig::default(),
                ShipStrategy::Auto,
            );
            let took = t0.elapsed();
            spans.exit(&call);
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: distributed query {i} failed: {e}");
                    continue;
                }
            };
            lat.push(took);
            model_cost += r.result.measured_cost;
            wire_bytes += r.stats.total_bytes();
            messages += r.stats.messages;
            predicted_bytes += r.predicted.map_or(0.0, |p| p.bytes);
            *strategies.entry(r.strategy.name()).or_insert(0u64) += 1;
            if !same_rows(&r.result.rows, &expected[i]) {
                out.mismatch(format!(
                    "dist-3shard query {i}: answer differs from the oracle"
                ));
            }
        }
        Ok(())
    });
    teardown(s);
    let peak_rss_mb = result?;

    let done = lat.ms.len().max(1) as f64;
    if args.trace {
        out.metric(
            "dist.execute_ms",
            median(&spans.durations_ms("dist.execute")),
            "ms",
        );
        out.metric("dist.messages", messages as f64 / done, "count");
        out.metric("dist.bytes", wire_bytes as f64 / done, "bytes");
        out.metric(
            "dist.bytes_predicted_ratio",
            ratio(wire_bytes as f64, predicted_bytes),
            "ratio",
        );
        out.metric("storage.build_ms", median(&build_ms), "ms");
        eprintln!(
            "perfbench: traced p50 {:.3} ms, strategies run {strategies:?}",
            median(&lat.ms)
        );
        spans
            .write(&work_dir("spans").join(format!("dist-3shard-seed{}.jsonl", args.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        end_to_end(
            &mut out,
            lat.ms.len() as u64,
            lat.busy_s,
            &lat,
            model_cost / done,
            setup_s,
            peak_rss_mb,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_oracle_matches_a_hand_count() {
        let emps = [
            Emp {
                eid: 1,
                did: 0,
                sal: 6_000.0,
                age: 25,
            },
            Emp {
                eid: 2,
                did: 0,
                sal: 4_000.0,
                age: 50,
            },
            Emp {
                eid: 3,
                did: 1,
                sal: 9_000.0,
                age: 22,
            },
        ];
        let depts = [
            Dept {
                did: 0,
                budget: 150_000.0,
            },
            Dept {
                did: 1,
                budget: 50_000.0,
            },
        ];
        assert_eq!(
            ROUND[0].answer(&emps, &depts),
            vec![(1, 6_000.0, 150_000.0)]
        );
        assert_eq!(
            ROUND[1].answer(&emps, &depts),
            vec![(1, 6_000.0, 150_000.0)]
        );
        assert!(ROUND[2].answer(&emps, &depts).is_empty());
    }
}
