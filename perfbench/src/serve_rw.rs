//! `serve-rw`: one fj-net connection over loopback to an in-process
//! server in `StorageMode::Disk`, whose buffer pool is smaller than the
//! tables. Reads of the paper query are interleaved with single-row
//! INSERT, UPDATE and DELETE on Emp — one operation in five is a write.
//! Every write commits through the WAL, rebuilds Emp, and invalidates
//! the cached plans that read it.
//!
//! The benchmark applies each mutation to its own copy of Emp (plain
//! vector edits, not `Mutation::apply`) and checks `rows_affected`, the
//! row count, and every later read against that copy.

use crate::data::{
    add_paper_schema, dept_table, emp_dept, emp_table, emp_values, paper_answer, paper_query,
    random_emp, same_paper_answer, Emp, EmpDept,
};
use crate::report::{
    end_to_end, median, ms, ratio, run_rounds, timed_setups, work_dir, BenchResult, Latencies,
    Outcome, SETUPS,
};
use crate::spans::Spans;
use crate::Args;
use fj_core::{Catalog, Tuple, Value};
use fj_net::{codec, Client, Mutation, QueryOptions, Server, ServerConfig};
use fj_runtime::{ServiceConfig, StorageMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const N_EMPS: usize = 20_000;
const N_DEPTS: usize = 1_000;
const FRAC_BIG: f64 = 0.3;
/// Buffer-pool pages: Emp alone spans several times this many.
const POOL_PAGES: usize = 32;
/// One round: four reads before each of the three kinds of write.
const ROUND: [Op; 15] = {
    use Op::*;
    [
        Read, Read, Read, Read, Insert, Read, Read, Read, Read, Update, Read, Read, Read, Read,
        Delete,
    ]
};

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Read,
    Insert,
    Update,
    Delete,
}

struct Setup {
    server: Server,
    client: Client,
    dir: PathBuf,
    build_ms: f64,
}

fn teardown(s: Setup) {
    drop(s.client);
    s.server.shutdown();
    let _ = std::fs::remove_dir_all(&s.dir);
}

fn setup(data: &EmpDept, dir: PathBuf) -> BenchResult<Setup> {
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let emp = emp_table("Emp", &data.emps);
    let dept = dept_table("Dept", &data.depts);
    let build_ms = ms(t0.elapsed());
    let mut cat = Catalog::new();
    add_paper_schema(&mut cat, "", emp, dept);
    let config = ServerConfig {
        max_connections: 4,
        service: ServiceConfig {
            workers: 1,
            storage: StorageMode::Disk {
                dir: dir.clone(),
                pool_pages: POOL_PAGES,
            },
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cat, config).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .query(&paper_query(""))
        .map_err(|e| format!("warm-up query failed: {e}"))?;
    Ok(Setup {
        server,
        client,
        dir,
        build_ms,
    })
}

/// The benchmark's own copy of Emp and the mutation stream.
struct Model {
    emps: Vec<Emp>,
    rng: StdRng,
    next_eid: i64,
}

impl Model {
    /// The next write of kind `op`, the rows it should affect, and the
    /// bytes of the row image it changes.
    fn write(&mut self, op: Op) -> (Mutation, u64, usize) {
        let pick = |m: &mut Model| m.emps[m.rng.gen_range(0..m.emps.len())];
        let width = |e: &Emp| Tuple::new(emp_values(e)).wire_width();
        match op {
            Op::Insert => {
                let e = random_emp(&mut self.rng, self.next_eid, N_DEPTS);
                self.next_eid += 1;
                self.emps.push(e);
                let m = Mutation::Insert {
                    table: "Emp".into(),
                    rows: vec![emp_values(&e)],
                };
                (m, 1, width(&e))
            }
            Op::Update => {
                let victim = pick(self);
                let sal = self.rng.gen_range(1_000i64..10_000) as f64;
                let mut hit = 0;
                for e in self.emps.iter_mut().filter(|e| e.eid == victim.eid) {
                    e.sal = sal;
                    hit += 1;
                }
                let m = Mutation::Update {
                    table: "Emp".into(),
                    set: vec![("sal".into(), Value::Double(sal))],
                    where_col: "eid".into(),
                    where_value: Value::Int(victim.eid),
                };
                (m, hit, width(&victim))
            }
            Op::Delete => {
                let victim = pick(self);
                let before = self.emps.len();
                self.emps.retain(|e| e.eid != victim.eid);
                let m = Mutation::Delete {
                    table: "Emp".into(),
                    where_col: "eid".into(),
                    where_value: Value::Int(victim.eid),
                };
                (m, (before - self.emps.len()) as u64, width(&victim))
            }
            Op::Read => unreachable!("reads are not writes"),
        }
    }
}

/// Per-layer figures of the traced run.
#[derive(Default)]
struct Layers {
    reply_wait_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    mutate_ms: Vec<f64>,
    cache_hits: u64,
    pool_hits: u64,
    pool_lookups: u64,
    physical_reads: u64,
    wal_bytes: u64,
    user_bytes: u64,
}

pub fn run(args: &Args) -> BenchResult<Outcome> {
    let data = emp_dept(N_EMPS, N_DEPTS, FRAC_BIG, args.seed);
    let base = work_dir(&format!("serve-rw-{}", std::process::id()));
    let mut build_ms = Vec::new();
    let mut n = 0;
    let (setup_s, mut s) = timed_setups(
        SETUPS,
        || {
            n += 1;
            let s = setup(&data, base.join(n.to_string()))?;
            build_ms.push(s.build_ms);
            Ok(s)
        },
        teardown,
    )?;
    let result = measure(args, &data, &mut s, setup_s, median(&build_ms));
    teardown(s);
    let _ = std::fs::remove_dir_all(&base);
    result
}

fn measure(
    args: &Args,
    data: &EmpDept,
    s: &mut Setup,
    setup_s: f64,
    build_ms: f64,
) -> BenchResult<Outcome> {
    let query = paper_query("");
    let mut model = Model {
        emps: data.emps.clone(),
        rng: StdRng::seed_from_u64(args.seed ^ 0x5e7e_5eed),
        next_eid: N_EMPS as i64,
    };
    let mut expected = paper_answer(&model.emps, &data.depts);
    let wal = s.dir.join("wal.fj");
    let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());

    let mut out = Outcome::new();
    let mut spans = Spans::new(args.trace);
    let mut reads = Latencies::default();
    let mut writes = Latencies::default();
    let mut model_cost = 0.0;
    let mut lay = Layers::default();
    let wire_before = s.server.stats();
    let store_before = s.server.store_stats();

    let peak_rss_mb = run_rounds(args.run_for, || {
        for op in ROUND {
            spans.next_op();
            out.attempted += 1;
            if op == Op::Read {
                let io_before = args.trace.then(|| s.server.store_stats());
                let call = spans.enter("net.query");
                let t0 = Instant::now();
                let reply = s.client.query_with_raw(&query, &QueryOptions::default());
                let took = t0.elapsed();
                spans.exit(&call);
                let (reply, raw) = match reply {
                    Ok(r) => r,
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("perfbench: read failed: {e}");
                        continue;
                    }
                };
                reads.push(took);
                model_cost += reply.measured_cost;
                if !same_paper_answer(&reply.rows, &expected) {
                    out.mismatch("serve-rw read: answer differs from the oracle");
                }
                let Some(io_before) = io_before else {
                    continue;
                };
                let io = s.server.store_stats();
                lay.pool_hits += io.pool_hits - io_before.pool_hits;
                lay.pool_lookups +=
                    (io.pool_hits + io.pool_misses) - (io_before.pool_hits + io_before.pool_misses);
                lay.physical_reads += io.physical_reads - io_before.physical_reads;
                let server = Duration::from_micros(reply.latency_micros);
                spans.import(&call, "runtime.execute", server);
                lay.reply_wait_ms.push(ms(took.saturating_sub(server)));
                lay.cache_hits += u64::from(reply.cache_hit);
                let d = spans.enter("net.decode_reply");
                let decoded = codec::decode_reply(&raw);
                lay.decode_us.push(spans.exit(&d).as_secs_f64() * 1e6);
                decoded.map_err(|e| format!("re-decoding a reply: {e}"))?;
                let e = spans.enter("net.encode_reply");
                let encoded = codec::encode_reply_parts(
                    &reply.schema,
                    &reply.rows,
                    reply.measured_cost,
                    reply.estimated_cost,
                    reply.cache_hit,
                    reply.latency_micros,
                );
                lay.encode_us.push(spans.exit(&e).as_secs_f64() * 1e6);
                if encoded.map_err(|e| format!("re-encoding a reply: {e}"))? != raw {
                    out.mismatch("serve-rw: re-encoded reply differs from the wire bytes");
                }
                continue;
            }
            let (mutation, affected, user_bytes) = model.write(op);
            let before = args
                .trace
                .then(|| (s.server.metrics().latency.sum_micros, wal_len()));
            let call = spans.enter("net.mutate");
            let t0 = Instant::now();
            let reply = s.client.mutate(&mutation);
            let took = t0.elapsed();
            spans.exit(&call);
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: {} failed: {e}", mutation.verb());
                    continue;
                }
            };
            writes.push(took);
            if reply.rows_affected != affected || reply.row_count != model.emps.len() as u64 {
                out.mismatch(format!(
                    "serve-rw {}: {} rows affected, {} rows left; the copy says {affected} and {}",
                    mutation.verb(),
                    reply.rows_affected,
                    reply.row_count,
                    model.emps.len()
                ));
            }
            expected = paper_answer(&model.emps, &data.depts);
            if let Some((micros, wal_before)) = before {
                let server = s.server.metrics().latency.sum_micros - micros;
                spans.import(&call, "store.mutate", Duration::from_micros(server));
                lay.mutate_ms.push(server as f64 / 1e3);
                lay.wal_bytes += wal_len().saturating_sub(wal_before);
                lay.user_bytes += user_bytes as u64;
            }
        }
        Ok(())
    })?;

    let wire = s.server.stats();
    let store = s.server.store_stats();
    let ops = (reads.ms.len() + writes.ms.len()) as u64;
    let wire_bytes =
        (wire.bytes_in + wire.bytes_out) - (wire_before.bytes_in + wire_before.bytes_out);
    if args.trace {
        let n_reads = reads.ms.len().max(1) as f64;
        out.metric(
            "runtime.cache_hit_rate",
            lay.cache_hits as f64 / n_reads,
            "ratio",
        );
        out.metric("net.reply_wait_ms", median(&lay.reply_wait_ms), "ms");
        out.metric("net.encode_reply_us", median(&lay.encode_us), "us");
        out.metric("net.decode_reply_us", median(&lay.decode_us), "us");
        out.metric(
            "net.bytes_per_op",
            ratio(wire_bytes as f64, ops as f64),
            "bytes",
        );
        out.metric("net.mutate_ms", median(&writes.ms), "ms");
        out.metric("store.mutate_ms", median(&lay.mutate_ms), "ms");
        out.metric(
            "store.fsyncs_per_commit",
            ratio(
                (store.wal_fsyncs - store_before.wal_fsyncs) as f64,
                (store.mutations_applied - store_before.mutations_applied) as f64,
            ),
            "count",
        );
        out.metric(
            "store.wal_bytes_per_user_byte",
            ratio(lay.wal_bytes as f64, lay.user_bytes as f64),
            "ratio",
        );
        out.metric(
            "store.pool_hit_rate",
            ratio(lay.pool_hits as f64, lay.pool_lookups as f64),
            "ratio",
        );
        out.metric(
            "store.physical_reads_per_query",
            lay.physical_reads as f64 / n_reads,
            "count",
        );
        out.metric("storage.build_ms", build_ms, "ms");
        eprintln!(
            "perfbench: traced p50 {:.3} ms, write p50 {:.3} ms",
            median(&reads.ms),
            median(&writes.ms)
        );
        spans
            .write(&work_dir("spans").join(format!("serve-rw-seed{}.jsonl", args.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        end_to_end(
            &mut out,
            ops,
            reads.busy_s + writes.busy_s,
            &reads,
            model_cost / reads.ms.len().max(1) as f64,
            setup_s,
            peak_rss_mb,
        );
    }
    Ok(out)
}
