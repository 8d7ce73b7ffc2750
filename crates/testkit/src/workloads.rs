//! Parameterised workloads for the test suites: stores of a requested
//! size over the paper's schemas, plus query families whose cost scales
//! with a knob.

use crate::fixtures::{jack_jill, persons_employees, Fixture};
use ioql_ast::{Query, Value};
use ioql_rng::SmallRng;

/// A `jack_jill`-schema store with `n` `P` objects (names drawn from a
/// seeded RNG) and an empty `F` extent.
pub fn p_store(n: usize, seed: u64) -> Fixture {
    // Start from a clean slate: the jack_jill schema without its two
    // named objects.
    let mut fx = jack_jill();
    fx.store = {
        let mut s = ioql_store::Store::new();
        for (e, c) in fx.schema.extents() {
            s.declare_extent(e.clone(), c.clone());
        }
        s
    };
    fx.oids.clear();
    // Distinct names (shuffled): several workloads rely on the objects
    // being observably different.
    let mut names: Vec<i64> = (1..=n as i64).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..names.len()).rev() {
        let j = rng.gen_range(0..=i);
        names.swap(i, j);
    }
    for name in names {
        fx.create("P", vec![("name", Value::Int(name))], None);
    }
    fx
}

/// A `persons_employees` store with `np` persons and `ne` employees.
pub fn person_store(np: usize, ne: usize, seed: u64) -> Fixture {
    let mut fx = persons_employees();
    let mut s = ioql_store::Store::new();
    for (e, c) in fx.schema.extents() {
        s.declare_extent(e.clone(), c.clone());
    }
    fx.store = s;
    fx.oids.clear();
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..np {
        fx.create(
            "Person",
            vec![
                ("name", Value::Int(rng.gen_range(0..1000))),
                ("address", Value::Int(rng.gen_range(0..100))),
            ],
            None,
        );
    }
    for _ in 0..ne {
        fx.create(
            "Employee",
            vec![
                ("name", Value::Int(rng.gen_range(0..1000))),
                ("address", Value::Int(rng.gen_range(0..100))),
            ],
            None,
        );
    }
    fx
}

/// `{ x.name | x <- Ps }` — the linear scan.
pub fn scan_query(fx: &Fixture) -> Query {
    fx.query("{ x.name | x <- Ps }")
}

/// `{ x.name | x <- Ps, x.name < k }` — scan with a filter.
pub fn filter_query(fx: &Fixture, k: i64) -> Query {
    fx.query(&format!("{{ x.name | x <- Ps, x.name < {k} }}"))
}

/// A cross-product with a late predicate — the shape the optimizer's
/// predicate promotion improves from O(|Ps|²) head work to O(|Ps|).
pub fn late_filter_join(fx: &Fixture, k: i64) -> Query {
    fx.query(&format!(
        "{{ x.name + y.name | x <- Ps, y <- Ps, x.name < {k} }}"
    ))
}

/// The §1 interfering query over whatever store it is run against.
pub fn interfering_query(fx: &Fixture) -> Query {
    fx.query(crate::fixtures::jack_jill_query())
}

/// A deeply right-nested arithmetic expression of `n` additions — pure
/// reduction-machine overhead, no store traffic.
pub fn arithmetic_chain(n: usize) -> Query {
    let mut q = Query::int(0);
    for i in 0..n {
        q = q.add(Query::int(i as i64));
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_store_sizes() {
        let fx = p_store(10, 1);
        assert_eq!(fx.extent_len("Ps"), 10);
        assert_eq!(fx.extent_len("Fs"), 0);
        // Reproducible.
        let fx2 = p_store(10, 1);
        assert_eq!(fx.store, fx2.store);
    }

    #[test]
    fn person_store_sizes() {
        let fx = person_store(5, 3, 7);
        assert_eq!(fx.extent_len("Persons"), 5);
        assert_eq!(fx.extent_len("Employees"), 3);
    }

    #[test]
    fn queries_build() {
        let fx = p_store(4, 2);
        let _ = scan_query(&fx);
        let _ = filter_query(&fx, 3);
        let _ = late_filter_join(&fx, 3);
        let _ = interfering_query(&fx);
        assert_eq!(arithmetic_chain(3).size(), 7);
    }
}
