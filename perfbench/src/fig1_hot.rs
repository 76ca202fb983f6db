//! `fig1-hot`: the Figure-1 query at 20k employees and 1k departments,
//! at three fractions of big departments (0.05, 0.3, 0.7), through an
//! in-process `QueryService` with one worker whose plan cache is warm.
//! The sweep straddles the magic crossover, so Filter-Join plans and
//! plain plans both execute; execution is nearly all of the work.

use crate::data::{
    add_paper_schema, dept_table, emp_dept, emp_table, paper_answer, paper_query,
    same_paper_answer, EmpDept, PaperRow,
};
use crate::layers::{ExecFigures, QError};
use crate::report::{
    end_to_end, median, ms, ratio, run_rounds, timed_setups, work_dir, BenchResult, Latencies,
    Outcome, SETUPS,
};
use crate::spans::Spans;
use crate::Args;
use fj_core::optimizer::{estimate_phys_plan, fingerprint};
use fj_core::{Catalog, JoinQuery, OptimizerConfig};
use fj_runtime::{QueryService, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_EMPS: usize = 20_000;
const N_DEPTS: usize = 1_000;
const FRAC_BIG: [f64; 3] = [0.05, 0.3, 0.7];

struct Setup {
    service: QueryService,
    catalog: Arc<Catalog>,
    build_ms: f64,
}

fn setup(data: &[EmpDept], queries: &[JoinQuery]) -> BenchResult<Setup> {
    let mut cat = Catalog::new();
    let mut build = Duration::ZERO;
    for (i, d) in data.iter().enumerate() {
        let t0 = Instant::now();
        let emp = emp_table(&format!("Emp{i}"), &d.emps);
        let dept = dept_table(&format!("Dept{i}"), &d.depts);
        build += t0.elapsed();
        add_paper_schema(&mut cat, &i.to_string(), emp, dept);
    }
    let service = QueryService::start(
        cat,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    // Fill the plan cache: the measured loop runs hot.
    for q in queries {
        service
            .execute(q.clone())
            .map_err(|e| format!("warm-up query failed: {e}"))?;
    }
    let catalog = service.catalog();
    Ok(Setup {
        service,
        catalog,
        build_ms: ms(build),
    })
}

pub fn run(args: &Args) -> BenchResult<Outcome> {
    let data: Vec<EmpDept> = FRAC_BIG
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            emp_dept(
                N_EMPS,
                N_DEPTS,
                f,
                args.seed.wrapping_mul(31).wrapping_add(i as u64),
            )
        })
        .collect();
    let queries: Vec<JoinQuery> = (0..data.len())
        .map(|i| paper_query(&i.to_string()))
        .collect();
    let expected: Vec<Vec<PaperRow>> = data
        .iter()
        .map(|d| paper_answer(&d.emps, &d.depts))
        .collect();

    let mut build_ms = Vec::new();
    let (setup_s, s) = timed_setups(
        SETUPS,
        || {
            let s = setup(&data, &queries)?;
            build_ms.push(s.build_ms);
            Ok(s)
        },
        |s| s.service.shutdown(),
    )?;

    let mut out = Outcome::new();
    let mut spans = Spans::new(args.trace);
    let config = OptimizerConfig::default();
    let mut lat = Latencies::default();
    let mut model_cost = 0.0;
    let mut estimated_cost = 0.0;
    let mut queue_wait_ms = Vec::new();
    let mut cache_hits = 0u64;
    let mut exec = ExecFigures::default();
    let mut qerr = QError::default();

    let peak_rss_mb = run_rounds(args.run_for, || {
        for (i, q) in queries.iter().enumerate() {
            spans.next_op();
            out.attempted += 1;
            let call = spans.enter("runtime.execute");
            let t0 = Instant::now();
            let reply = s
                .service
                .submit_with_options(q.clone(), config, args.trace)
                .and_then(|t| t.wait());
            let took = t0.elapsed();
            spans.exit(&call);
            let r = match reply {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: query {i} failed: {e}");
                    continue;
                }
            };
            lat.push(took);
            model_cost += r.measured_cost;
            if !same_paper_answer(&r.rows, &expected[i]) {
                out.mismatch(format!(
                    "fig1-hot query {i}: answer differs from the oracle"
                ));
            }
            if !args.trace {
                continue;
            }
            queue_wait_ms.push(ms(took) - r.latency_micros as f64 / 1e3);
            cache_hits += u64::from(r.cache_hit);
            estimated_cost += r.estimated_cost.unwrap_or(0.0);
            let f = spans.enter("optimizer.fingerprint");
            std::hint::black_box(fingerprint(&s.catalog, q, &config));
            spans.exit(&f);
            let Some(trace) = &r.trace else {
                return Err("traced query returned no trace".into());
            };
            spans.import(
                &call,
                "exec.execute",
                Duration::from_micros(trace.total_wall_micros),
            );
            exec.add(trace, &r.charges);
            let e = spans.enter("optimizer.estimate_phys_plan");
            let est = estimate_phys_plan(&s.catalog, config.params, &r.plan);
            spans.exit(&e);
            qerr.add(&est, &trace.root);
        }
        Ok(())
    })?;
    s.service.shutdown();

    let done = lat.ms.len() as u64;
    if args.trace {
        let lookups = done.max(1) as f64;
        out.metric(
            "runtime.cache_hit_rate",
            cache_hits as f64 / lookups,
            "ratio",
        );
        out.metric("runtime.queue_wait_ms", median(&queue_wait_ms), "ms");
        let fp_us: Vec<f64> = spans
            .durations_ms("optimizer.fingerprint")
            .iter()
            .map(|m| m * 1e3)
            .collect();
        out.metric("optimizer.fingerprint_us", median(&fp_us), "us");
        out.metric(
            "optimizer.cost_ratio",
            ratio(model_cost, estimated_cost),
            "ratio",
        );
        qerr.report(&mut out);
        exec.report(&mut out);
        out.metric("storage.build_ms", median(&build_ms), "ms");
        eprintln!("perfbench: traced p50 {:.3} ms", median(&lat.ms));
        spans
            .write(&work_dir("spans").join(format!("fig1-hot-seed{}.jsonl", args.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        end_to_end(
            &mut out,
            done,
            lat.busy_s,
            &lat,
            model_cost / done.max(1) as f64,
            setup_s,
            peak_rss_mb,
        );
    }
    Ok(out)
}
