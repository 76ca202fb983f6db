//! Seeded Emp/Dept inputs and the plain-Rust oracles the answers are
//! checked against. The oracles share no code with the engine: they
//! evaluate the queries over the generated rows with ordinary loops
//! and maps.

use fj_core::{
    col, lit, AggCall, AggFunc, Catalog, DataType, FromItem, JoinQuery, LogicalPlan, Schema, Table,
    TableBuilder, Tuple, Value, ViewDef,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Emp {
    pub eid: i64,
    pub did: i64,
    pub sal: f64,
    pub age: i64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dept {
    pub did: i64,
    pub budget: f64,
}

/// The scaled paper instance: `frac_big` of the departments have a
/// budget above 100 000, and 30% of the employees are under 30.
/// Salaries and budgets are whole numbers, so every sum the engine and
/// the oracle form is exact whatever the order of addition.
pub struct EmpDept {
    pub emps: Vec<Emp>,
    pub depts: Vec<Dept>,
}

/// Budget above which a department is "big" (the paper query's filter).
pub const BIG_BUDGET: i64 = 100_000;

pub fn emp_dept(n_emps: usize, n_depts: usize, frac_big: f64, seed: u64) -> EmpDept {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_big = (n_depts as f64 * frac_big).round() as usize;
    let depts = (0..n_depts)
        .map(|d| Dept {
            did: d as i64,
            budget: if d < n_big {
                rng.gen_range(150_000i64..250_000) as f64
            } else {
                rng.gen_range(20_000i64..80_000) as f64
            },
        })
        .collect();
    let emps = (0..n_emps)
        .map(|e| random_emp(&mut rng, e as i64, n_depts))
        .collect();
    EmpDept { emps, depts }
}

/// One employee with the instance's distributions.
pub fn random_emp(rng: &mut StdRng, eid: i64, n_depts: usize) -> Emp {
    let did = rng.gen_range(0..n_depts as i64);
    let age = if rng.gen_bool(0.3) {
        rng.gen_range(21..30)
    } else {
        rng.gen_range(30..65)
    };
    Emp {
        eid,
        did,
        sal: rng.gen_range(1_000i64..10_000) as f64,
        age,
    }
}

pub fn emp_values(e: &Emp) -> Vec<Value> {
    vec![
        Value::Int(e.eid),
        Value::Int(e.did),
        Value::Double(e.sal),
        Value::Int(e.age),
    ]
}

pub fn emp_table(name: &str, emps: &[Emp]) -> Table {
    TableBuilder::new(name)
        .column("eid", DataType::Int)
        .column("did", DataType::Int)
        .column("sal", DataType::Double)
        .column("age", DataType::Int)
        .rows(emps.iter().map(emp_values))
        .build()
        .expect("generated Emp conforms")
}

pub fn dept_table(name: &str, depts: &[Dept]) -> Table {
    TableBuilder::new(name)
        .column("did", DataType::Int)
        .column("budget", DataType::Double)
        .rows(
            depts
                .iter()
                .map(|d| vec![Value::Int(d.did), Value::Double(d.budget)]),
        )
        .build()
        .expect("generated Dept conforms")
}

/// Registers `Emp{suffix}`, `Dept{suffix}` and the view
/// `DepAvgSal{suffix}` (average salary per department over `Emp{suffix}`).
pub fn add_paper_schema(cat: &mut Catalog, suffix: &str, emp: Table, dept: Table) {
    cat.add_table(emp.into_ref());
    cat.add_table(dept.into_ref());
    let plan = LogicalPlan::scan(format!("Emp{suffix}"), "E")
        .aggregate(
            vec!["E.did".into()],
            vec![AggCall::new(AggFunc::Avg, "E.sal", "avgsal")],
        )
        .project(vec![
            (col("E.did"), "did".into()),
            (col("avgsal"), "avgsal".into()),
        ]);
    cat.add_view(ViewDef {
        name: format!("DepAvgSal{suffix}"),
        plan: plan.into_ref(),
        schema: Schema::from_pairs(&[("did", DataType::Int), ("avgsal", DataType::Double)])
            .into_ref(),
    });
}

/// The Figure 1 query over the tables of [`add_paper_schema`]: young
/// employees of big departments earning above their department's
/// average, projected to `(did, sal, avgsal)`.
pub fn paper_query(suffix: &str) -> JoinQuery {
    JoinQuery::new(vec![
        FromItem::new(format!("Emp{suffix}"), "E"),
        FromItem::new(format!("Dept{suffix}"), "D"),
        FromItem::new(format!("DepAvgSal{suffix}"), "V"),
    ])
    .with_predicate(
        col("E.did")
            .eq(col("D.did"))
            .and(col("E.did").eq(col("V.did")))
            .and(col("E.sal").gt(col("V.avgsal")))
            .and(col("E.age").lt(lit(30)))
            .and(col("D.budget").gt(lit(BIG_BUDGET))),
    )
    .with_projection(vec![
        (col("E.did"), "did".into()),
        (col("E.sal"), "sal".into()),
        (col("V.avgsal"), "avgsal".into()),
    ])
}

/// One answer row of the paper query: `(did, sal, avgsal)`.
pub type PaperRow = (i64, f64, f64);

/// The paper query evaluated directly, with the employee ids of the
/// qualifying rows; sorted by `(did, sal, eid)`.
pub fn paper_answer_with_eids(emps: &[Emp], depts: &[Dept]) -> Vec<(i64, PaperRow)> {
    let mut sums: BTreeMap<i64, (f64, u64)> = BTreeMap::new();
    for e in emps {
        let s = sums.entry(e.did).or_insert((0.0, 0));
        s.0 += e.sal;
        s.1 += 1;
    }
    let big: BTreeSet<i64> = depts
        .iter()
        .filter(|d| d.budget > BIG_BUDGET as f64)
        .map(|d| d.did)
        .collect();
    let mut out = Vec::new();
    for e in emps.iter().filter(|e| e.age < 30 && big.contains(&e.did)) {
        let (sum, n) = sums[&e.did];
        let avg = sum / n as f64;
        if e.sal > avg {
            out.push((e.eid, (e.did, e.sal, avg)));
        }
    }
    out.sort_by(|a, b| cmp_row(&a.1, &b.1).then(a.0.cmp(&b.0)));
    out
}

/// The paper query evaluated directly, sorted.
pub fn paper_answer(emps: &[Emp], depts: &[Dept]) -> Vec<PaperRow> {
    paper_answer_with_eids(emps, depts)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

fn cmp_row(a: &PaperRow, b: &PaperRow) -> std::cmp::Ordering {
    a.0.cmp(&b.0)
        .then(a.1.total_cmp(&b.1))
        .then(a.2.total_cmp(&b.2))
}

/// Whether the engine's `(did, sal, avgsal)` rows equal `want` as a
/// multiset; averages may differ in the last bits.
pub fn same_paper_answer(got: &[Tuple], want: &[PaperRow]) -> bool {
    let mut rows = Vec::with_capacity(got.len());
    for t in got {
        match (
            t.value(0).as_int(),
            t.value(1).as_double(),
            t.value(2).as_double(),
        ) {
            (Some(did), Some(sal), Some(avg)) if t.arity() == 3 => rows.push((did, sal, avg)),
            _ => return false,
        }
    }
    rows.sort_by(cmp_row);
    rows.len() == want.len()
        && rows.iter().zip(want).all(|(g, w)| {
            g.0 == w.0 && g.1 == w.1 && (g.2 - w.2).abs() <= 1e-9 * w.2.abs().max(1.0)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_core::{fixtures, Database};

    fn fixture_rows(cat: &Catalog) -> (Vec<Emp>, Vec<Dept>) {
        let emps = cat
            .table("Emp")
            .unwrap()
            .rows()
            .iter()
            .map(|t| Emp {
                eid: t.value(0).as_int().unwrap(),
                did: t.value(1).as_int().unwrap(),
                sal: t.value(2).as_double().unwrap(),
                age: t.value(3).as_int().unwrap(),
            })
            .collect();
        let depts = cat
            .table("Dept")
            .unwrap()
            .rows()
            .iter()
            .map(|t| Dept {
                did: t.value(0).as_int().unwrap(),
                budget: t.value(1).as_double().unwrap(),
            })
            .collect();
        (emps, depts)
    }

    #[test]
    fn oracle_answers_the_hand_checked_fixture() {
        let cat = fixtures::paper_catalog();
        let (emps, depts) = fixture_rows(&cat);
        let answer = paper_answer_with_eids(&emps, &depts);
        let eids: Vec<i64> = answer.iter().map(|(eid, _)| *eid).collect();
        assert_eq!(eids, vec![1, 5]);
        assert_eq!(
            paper_answer(&emps, &depts),
            vec![(10, 9000.0, 5000.0), (30, 4000.0, 3000.0)]
        );
        let engine = Database::with_catalog(cat)
            .execute(&fixtures::paper_query())
            .unwrap();
        assert!(same_paper_answer(
            &engine.rows,
            &paper_answer(&emps, &depts)
        ));
    }

    #[test]
    fn oracle_agrees_with_the_engine_on_a_generated_instance() {
        let data = emp_dept(2_000, 100, 0.3, 7);
        let mut cat = Catalog::new();
        add_paper_schema(
            &mut cat,
            "_t",
            emp_table("Emp_t", &data.emps),
            dept_table("Dept_t", &data.depts),
        );
        let want = paper_answer(&data.emps, &data.depts);
        assert!(!want.is_empty());
        let got = Database::with_catalog(cat)
            .execute(&paper_query("_t"))
            .unwrap();
        assert!(same_paper_answer(&got.rows, &want));
        assert!(!same_paper_answer(&got.rows[1..], &want));
    }

    #[test]
    fn generation_repeats_per_seed() {
        let a = emp_dept(500, 50, 0.1, 3);
        let b = emp_dept(500, 50, 0.1, 3);
        assert_eq!(a.emps, b.emps);
        assert_eq!(a.depts, b.depts);
        assert_ne!(a.emps, emp_dept(500, 50, 0.1, 4).emps);
    }
}
