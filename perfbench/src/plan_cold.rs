//! `plan-cold`: distinct multi-way joins over small tables, each
//! optimized from scratch and executed once under `LeftDeep` and once
//! under `Bushy` — no plan cache anywhere. Chains of 5 and 6 relations,
//! selective stars of 5 and 6, snowflakes with 2 and 3 arms, and the
//! paper query. Optimization is most of the work, the reverse of
//! `fig1-hot`.
//!
//! Each round also re-checks the full-scale star
//! `star_selective(4, 120000, 100, 15, 11)` — a fixed input, not
//! drawn from the seed — on which the bushy winner is predicted costlier
//! than the left-deep one. That operation fails every time today and is
//! counted in `failed`.

use crate::layers::ExecFigures;
use crate::report::{
    end_to_end, median, ratio, run_rounds, timed_setups, work_dir, BenchResult, Latencies, Outcome,
    SETUPS,
};
use crate::spans::Spans;
use crate::Args;
use fj_bench::workloads::{chain, emp_dept, snowflake, star_selective, EmpDeptConfig};
use fj_core::{
    Catalog, Database, ExecCtx, JoinQuery, LedgerSnapshot, Optimizer, OptimizerConfig, PlanShape,
    QueryTrace, TraceCollector, Tuple,
};
use std::sync::Arc;
use std::time::Instant;

const SHAPES: [PlanShape; 2] = [PlanShape::LeftDeep, PlanShape::Bushy];

struct Case {
    name: String,
    db: Database,
    catalog: Arc<Catalog>,
    query: JoinQuery,
}

impl Case {
    fn new(name: String, (cat, query): (Catalog, JoinQuery)) -> Case {
        Case {
            name,
            catalog: Arc::new(cat.clone()),
            db: Database::with_catalog(cat),
            query,
        }
    }
}

struct Setup {
    cases: Vec<Case>,
    star: Case,
}

/// Seeded small catalogs, one query each.
fn setup(seed: u64) -> Setup {
    let s = |k: u64| seed.wrapping_mul(1_000).wrapping_add(k);
    let paper = emp_dept(EmpDeptConfig {
        n_emps: 2_000,
        n_depts: 100,
        frac_big: 0.3,
        frac_young: 0.3,
        seed: s(7),
    });
    let cases = vec![
        Case::new("chain5".into(), chain(5, 300, s(1))),
        Case::new("chain6".into(), chain(6, 300, s(2))),
        Case::new("star5".into(), star_selective(5, 2_000, 100, 15, s(3))),
        Case::new("star6".into(), star_selective(6, 2_000, 100, 15, s(4))),
        Case::new("snowflake2".into(), snowflake(2, 2_000, 100, 50, 15, s(5))),
        Case::new("snowflake3".into(), snowflake(3, 2_000, 100, 50, 15, s(6))),
        Case::new("paper".into(), (paper, fj_bench::workloads::paper_query())),
    ];
    Setup {
        cases,
        star: Case::new(
            "star_selective(4, 120000, 100, 15, 11)".into(),
            star_selective(4, 120_000, 100, 15, 11),
        ),
    }
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

fn config(shape: PlanShape) -> OptimizerConfig {
    OptimizerConfig::default().with_shape(shape)
}

/// Predicted cost of the best plan under each shape.
fn predicted(case: &Case) -> BenchResult<[f64; 2]> {
    let mut cost = [0.0; 2];
    for (i, shape) in SHAPES.into_iter().enumerate() {
        cost[i] = Optimizer::new(Arc::clone(&case.catalog), config(shape))
            .optimize(&case.query)
            .map_err(|e| format!("{}: optimize failed: {e}", case.name))?
            .cost;
    }
    Ok(cost)
}

/// Bushy plans are a superset of left-deep plans, so the bushy winner
/// must not be predicted costlier (up to rounding).
fn bushy_no_worse(cost: [f64; 2]) -> bool {
    cost[1] <= cost[0] * (1.0 + 1e-9)
}

pub fn run(args: &Args) -> BenchResult<Outcome> {
    let (setup_s, s) = timed_setups(SETUPS, || Ok(setup(args.seed)), drop)?;
    let oracle: Vec<Vec<Tuple>> = s
        .cases
        .iter()
        .map(|c| {
            c.db.run_logical(&c.query.to_plan())
                .map(|r| sorted(r.rows))
                .map_err(|e| format!("{}: oracle failed: {e}", c.name))
        })
        .collect::<BenchResult<_>>()?;

    let mut out = Outcome::new();
    let mut spans = Spans::new(args.trace);
    let mut lat = Latencies::default();
    let mut busy_s = 0.0;
    let mut model_cost = 0.0;
    let mut estimated_cost = 0.0;
    let mut plans_considered = 0u64;
    let mut nested = 0u64;
    let mut exec = ExecFigures::default();

    let peak_rss_mb = run_rounds(args.run_for, || {
        for (case, want) in s.cases.iter().zip(&oracle) {
            let mut cost = [0.0; 2];
            for (i, shape) in SHAPES.into_iter().enumerate() {
                spans.next_op();
                out.attempted += 1;
                let t0 = Instant::now();
                let result = if args.trace {
                    traced_execute(case, shape, &mut spans)
                } else {
                    execute(case, shape)
                };
                let took = t0.elapsed();
                let r = match result {
                    Ok(r) => r,
                    Err(e) => {
                        out.failed += 1;
                        busy_s += took.as_secs_f64();
                        eprintln!("perfbench: {e}");
                        continue;
                    }
                };
                lat.push(took);
                busy_s += took.as_secs_f64();
                model_cost += r.measured_cost;
                plans_considered += r.plans_considered;
                nested += r.nested_invocations;
                cost[i] = r.estimated_cost;
                estimated_cost += cost[i];
                if let Some(trace) = &r.trace {
                    exec.add(trace, &r.charges);
                }
                if sorted(r.rows) != *want {
                    out.mismatch(format!(
                        "plan-cold {} ({shape:?}): answer differs from run_logical",
                        case.name
                    ));
                }
            }
            if !bushy_no_worse(cost) {
                out.mismatch(format!(
                    "plan-cold {}: bushy predicted {} above left-deep {}",
                    case.name, cost[1], cost[0]
                ));
            }
        }
        // The known fault, kept visible: one failed operation a round.
        spans.next_op();
        out.attempted += 1;
        let t0 = Instant::now();
        let check = spans.enter("optimizer.star_check");
        let star = predicted(&s.star);
        spans.exit(&check);
        busy_s += t0.elapsed().as_secs_f64();
        let star = star?;
        if !bushy_no_worse(star) {
            out.failed += 1;
        }
        Ok(())
    })?;

    if args.trace {
        let opt_ms = spans.durations_ms("optimizer.optimize");
        let ops = opt_ms.len().max(1) as f64;
        out.metric("optimizer.optimize_ms", median(&opt_ms), "ms");
        out.metric(
            "optimizer.plans_considered",
            plans_considered as f64 / ops,
            "count",
        );
        out.metric(
            "optimizer.us_per_plan",
            ratio(opt_ms.iter().sum::<f64>() * 1e3, plans_considered as f64),
            "us",
        );
        out.metric("optimizer.nested_invocations", nested as f64 / ops, "count");
        out.metric(
            "optimizer.cost_ratio",
            ratio(model_cost, estimated_cost),
            "ratio",
        );
        exec.report(&mut out);
        eprintln!("perfbench: traced p50 {:.3} ms", median(&lat.ms));
        spans
            .write(&work_dir("spans").join(format!("plan-cold-seed{}.jsonl", args.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        let done = lat.ms.len() as u64;
        end_to_end(
            &mut out,
            done,
            busy_s,
            &lat,
            model_cost / done.max(1) as f64,
            setup_s,
            peak_rss_mb,
        );
    }
    Ok(out)
}

/// One executed query, as the loop checks and measures it.
struct Executed {
    rows: Vec<Tuple>,
    measured_cost: f64,
    estimated_cost: f64,
    charges: LedgerSnapshot,
    trace: Option<QueryTrace>,
    plans_considered: u64,
    nested_invocations: u64,
}

/// The facade a user calls: optimize and execute in one call.
fn execute(case: &Case, shape: PlanShape) -> BenchResult<Executed> {
    let r = case
        .db
        .execute_with_config(&case.query, config(shape))
        .map_err(|e| format!("{}: {e}", case.name))?;
    Ok(Executed {
        rows: r.rows,
        measured_cost: r.measured_cost,
        estimated_cost: r.estimated_cost.unwrap_or(f64::NAN),
        charges: r.charges,
        trace: None,
        plans_considered: 0,
        nested_invocations: 0,
    })
}

/// What `Database::execute_with_config` does, one layer call at a time
/// under its own span: optimize, then execute with the operator tracer
/// on.
fn traced_execute(case: &Case, shape: PlanShape, spans: &mut Spans) -> BenchResult<Executed> {
    let cfg = config(shape);
    let o = spans.enter("optimizer.optimize");
    let plan = Optimizer::new(Arc::clone(&case.catalog), cfg).optimize(&case.query);
    spans.exit(&o);
    let plan = plan.map_err(|e| format!("{}: optimize failed: {e}", case.name))?;
    let collector = Arc::new(TraceCollector::new());
    let ctx = ExecCtx::new(Arc::clone(&case.catalog)).with_tracer(Arc::clone(&collector));
    let before = ctx.ledger.snapshot();
    let x = spans.enter("exec.execute");
    let rel = plan.phys.execute(&ctx);
    spans.exit(&x);
    let rel = rel.map_err(|e| format!("{}: execute failed: {e}", case.name))?;
    let charges = ctx.ledger.snapshot().delta(&before);
    Ok(Executed {
        rows: rel.rows,
        measured_cost: charges.weighted(
            cfg.params.cpu_weight,
            cfg.params.network.per_byte,
            cfg.params.network.per_message,
        ),
        estimated_cost: plan.cost,
        charges,
        trace: collector.finish(),
        plans_considered: plan.plans_considered,
        nested_invocations: plan.nested_invocations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cases_agree_with_the_oracle_under_both_shapes() {
        let s = setup(1);
        for case in &s.cases {
            let want = sorted(case.db.run_logical(&case.query.to_plan()).unwrap().rows);
            for shape in SHAPES {
                let got = execute(case, shape).unwrap();
                assert_eq!(sorted(got.rows), want, "{} {shape:?}", case.name);
                let mut spans = Spans::new(true);
                let traced = traced_execute(case, shape, &mut spans).unwrap();
                assert_eq!(sorted(traced.rows), want, "{} {shape:?} traced", case.name);
                assert_eq!(traced.measured_cost, got.measured_cost, "{}", case.name);
            }
            assert!(bushy_no_worse(predicted(case).unwrap()), "{}", case.name);
        }
    }
}
