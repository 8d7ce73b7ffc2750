//! Seeded data and request generation.
//!
//! Everything the system receives is text produced here: the load
//! batches (`struct(…)` sets fed through `new` comprehensions) and the
//! request sequences. Every request carries the answer the generator
//! expects, computed from the generator's own data — never from the
//! engine under test.

use std::collections::BTreeMap;

/// The benchmark schema: departments, persons, employees (with a
/// method) and an append-only event log.
pub const DDL: &str = "
class Dept extends Object (extent Depts) {
    attribute int code;
    attribute int budget;
}
class Person extends Object (extent Persons) {
    attribute int name;
    attribute int age;
}
class Employee extends Person (extent Employees) {
    attribute int salary;
    attribute Dept dept;
    int net(int rate) { return this.salary * (100 - rate); }
}
class Event extends Object (extent Events) {
    attribute int who;
    attribute int kind;
}
";

/// Employee names start here, so person and employee names never clash.
pub const EMPLOYEE_BASE: i64 = 1_000_000;

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

/// How big a workload's store is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Departments.
    pub depts: i64,
    /// Persons (the `Persons` extent; employees have their own).
    pub persons: i64,
    /// Employees.
    pub employees: i64,
    /// Events loaded before the request sequence starts.
    pub events: i64,
    /// Objects per load batch.
    pub batch: usize,
}

/// One employee row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Emp {
    /// Unique name (`EMPLOYEE_BASE + i`).
    pub name: i64,
    /// Age, `0..90`.
    pub age: i64,
    /// Salary, `100..2100`.
    pub salary: i64,
    /// Department code.
    pub dept: i64,
}

/// The generated store contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Data {
    /// `(code, budget)`.
    pub depts: Vec<(i64, i64)>,
    /// Persons, `(name, age)`.
    pub persons: Vec<(i64, i64)>,
    /// Employees, sorted by department.
    pub employees: Vec<Emp>,
    /// Preloaded events, `(who, kind)`; `kind` is a unique serial.
    pub events: Vec<(i64, i64)>,
}

impl Data {
    /// Generates the store for `sizes` from `seed`.
    pub fn generate(sizes: Sizes, seed: u64) -> Data {
        let mut rng = Rng::new(seed, 1);
        let depts = (0..sizes.depts)
            .map(|c| (c, rng.range(1_000, 100_000)))
            .collect();
        let persons = (0..sizes.persons).map(|n| (n, rng.range(0, 90))).collect();
        let mut employees: Vec<Emp> = (0..sizes.employees)
            .map(|i| Emp {
                name: EMPLOYEE_BASE + i,
                age: rng.range(18, 90),
                salary: rng.range(100, 2_100),
                dept: rng.range(0, sizes.depts),
            })
            .collect();
        employees.sort_by_key(|e| (e.dept, e.name));
        let events = (0..sizes.events)
            .map(|k| (rng.range(0, EVENT_WHO), k))
            .collect();
        Data {
            depts,
            persons,
            employees,
            events,
        }
    }

    /// Objects in the `Persons` extent. A `new Employee` joins only the
    /// `Employees` extent (the paper's rule: no inherited extents).
    pub fn person_count(&self) -> usize {
        self.persons.len()
    }

    /// The load batches, in load order. Each is a `size(…)` of a `new`
    /// comprehension, so its answer is the batch's object count.
    pub fn load_script(&self, batch: usize) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let items: Vec<String> = self
            .depts
            .iter()
            .map(|(c, b)| format!("struct(c: {c}, b: {b})"))
            .collect();
        for chunk in items.chunks(batch) {
            out.push(load(
                "{ new Dept(code: s.c, budget: s.b) | s <- {ITEMS} }",
                chunk,
            ));
        }
        let items: Vec<String> = self
            .persons
            .iter()
            .map(|(n, a)| format!("struct(n: {n}, a: {a})"))
            .collect();
        for chunk in items.chunks(batch) {
            out.push(load(
                "{ new Person(name: s.n, age: s.a) | s <- {ITEMS} }",
                chunk,
            ));
        }
        // Employees are grouped by department inside a batch, so each
        // group meets `Depts` once instead of once per employee.
        for chunk in self.employees.chunks(batch) {
            let groups: Vec<String> = chunk
                .chunk_by(|a, b| a.dept == b.dept)
                .map(|g| {
                    let items: Vec<String> = g
                        .iter()
                        .map(|e| format!("struct(n: {}, a: {}, s: {})", e.name, e.age, e.salary))
                        .collect();
                    format!("struct(d: {}, xs: {{{}}})", g[0].dept, items.join(", "))
                })
                .collect();
            out.push((
                format!(
                    "size({{ new Employee(name: s.n, age: s.a, salary: s.s, dept: d) \
                     | g <- {{{}}}, d <- Depts, d.code = g.d, s <- g.xs }})",
                    groups.join(", ")
                ),
                chunk.len().to_string(),
            ));
        }
        let items: Vec<String> = self
            .events
            .iter()
            .map(|(w, k)| format!("struct(w: {w}, k: {k})"))
            .collect();
        for chunk in items.chunks(batch) {
            out.push(load(
                "{ new Event(who: s.w, kind: s.k) | s <- {ITEMS} }",
                chunk,
            ));
        }
        out
    }
}

fn load(template: &str, items: &[String]) -> (String, String) {
    (
        format!("size({})", template.replace("ITEMS", &items.join(", "))),
        items.len().to_string(),
    )
}

/// Events' `who` keys are drawn from `0..EVENT_WHO`.
pub const EVENT_WHO: i64 = 400;

/// How a request is classed for latency reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// A key lookup (equality filter on a key).
    Read,
    /// A query that visits an extent: ranges, projections, joins,
    /// aggregates, method calls.
    Scan,
    /// A commit: `new` objects into `Events`.
    Write,
}

impl Label {
    /// Lower-case name, as used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Label::Read => "read",
            Label::Scan => "scan",
            Label::Write => "write",
        }
    }
}

/// What a correct answer looks like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The rendered value, exactly.
    Value(String),
    /// A set of exactly `n` fresh object identifiers.
    NewOids(usize),
}

impl Expect {
    /// Whether `rendered` (a value's `Display` text) is a correct answer.
    pub fn matches(&self, rendered: &str) -> bool {
        match self {
            Expect::Value(v) => v == rendered,
            Expect::NewOids(n) => {
                let Some(inner) = rendered.strip_prefix('{').and_then(|r| r.strip_suffix('}'))
                else {
                    return false;
                };
                let oids: Vec<&str> = inner.split(", ").filter(|s| !s.is_empty()).collect();
                oids.len() == *n
                    && oids.iter().all(|o| {
                        o.strip_prefix('@')
                            .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
                    })
            }
        }
    }
}

/// One request of a workload's sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Latency class.
    pub label: Label,
    /// Shape name (for per-shape reporting and the traced run).
    pub shape: &'static str,
    /// The query text sent to the system.
    pub text: String,
    /// The expected answer.
    pub expect: Expect,
}

/// Renders a set of integers the way the engine does.
pub fn int_set(mut v: Vec<i64>) -> String {
    v.sort_unstable();
    v.dedup();
    let items: Vec<String> = v.iter().map(i64::to_string).collect();
    format!("{{{}}}", items.join(", "))
}

/// Answers about the generated store, for building expectations.
pub struct Oracle<'a> {
    data: &'a Data,
    by_dept: BTreeMap<i64, Vec<Emp>>,
}

impl<'a> Oracle<'a> {
    /// Indexes `data`.
    pub fn new(data: &'a Data) -> Oracle<'a> {
        let mut by_dept: BTreeMap<i64, Vec<Emp>> = BTreeMap::new();
        for e in &data.employees {
            by_dept.entry(e.dept).or_default().push(*e);
        }
        Oracle { data, by_dept }
    }

    /// Every member of `Persons` as `(name, age)`.
    fn all_persons(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.data.persons.iter().copied()
    }

    fn dept(&self, code: i64) -> &[Emp] {
        self.by_dept.get(&code).map_or(&[], Vec::as_slice)
    }

    /// The name of the `i`-th person.
    pub fn person_name(&self, i: usize) -> i64 {
        self.data.persons[i].0
    }

    /// `{ p.age | p <- Persons, p.name = k }`.
    pub fn lookup_name(&self, k: i64) -> Request {
        let ages = self
            .all_persons()
            .filter(|p| p.0 == k)
            .map(|p| p.1)
            .collect();
        Request {
            label: Label::Read,
            shape: "lookup_name",
            text: format!("{{ p.age | p <- Persons, p.name = {k} }}"),
            expect: Expect::Value(int_set(ages)),
        }
    }

    /// `{ e.name | e <- Employees, e.dept.code = k }`.
    pub fn lookup_dept(&self, k: i64) -> Request {
        let names = self.dept(k).iter().map(|e| e.name).collect();
        Request {
            label: Label::Read,
            shape: "lookup_dept",
            text: format!("{{ e.name | e <- Employees, e.dept.code = {k} }}"),
            expect: Expect::Value(int_set(names)),
        }
    }

    /// `{ p.name | p <- Persons, lo < p.name, p.name < hi }`.
    pub fn range_names(&self, lo: i64, hi: i64) -> Request {
        let names = self
            .all_persons()
            .filter(|p| lo < p.0 && p.0 < hi)
            .map(|p| p.0)
            .collect();
        Request {
            label: Label::Scan,
            shape: "range",
            text: format!("{{ p.name | p <- Persons, {lo} < p.name, p.name < {hi} }}"),
            expect: Expect::Value(int_set(names)),
        }
    }

    /// `{ p.age + c | p <- Persons }` — a whole-extent projection whose
    /// constant keeps every instance distinct.
    pub fn projection(&self, c: i64) -> Request {
        let v = self.all_persons().map(|p| p.1 + c).collect();
        Request {
            label: Label::Scan,
            shape: "projection",
            text: format!("{{ p.age + {c} | p <- Persons }}"),
            expect: Expect::Value(int_set(v)),
        }
    }

    /// `size({ e | e <- Employees, e.age < a, e.salary < s })`.
    pub fn size_filtered(&self, a: i64, s: i64) -> Request {
        let n = self
            .data
            .employees
            .iter()
            .filter(|e| e.age < a && e.salary < s)
            .count();
        Request {
            label: Label::Scan,
            shape: "size",
            text: format!("size({{ e | e <- Employees, e.age < {a}, e.salary < {s} }})"),
            expect: Expect::Value(n.to_string()),
        }
    }

    /// `sum({ e.salary | e <- Employees, e.dept.code = k })` — over the
    /// *set* of salaries, so duplicates count once.
    pub fn sum_salaries(&self, k: i64) -> Request {
        let mut s: Vec<i64> = self.dept(k).iter().map(|e| e.salary).collect();
        s.sort_unstable();
        s.dedup();
        Request {
            label: Label::Scan,
            shape: "sum",
            text: format!("sum({{ e.salary | e <- Employees, e.dept.code = {k} }})"),
            expect: Expect::Value(s.iter().sum::<i64>().to_string()),
        }
    }

    /// The Dept×Employee reference join for department `k`.
    pub fn join(&self, k: i64) -> Request {
        let mut names: Vec<i64> = self.dept(k).iter().map(|e| e.name).collect();
        names.sort_unstable();
        let items: Vec<String> = names.iter().map(|n| format!("<d: {k}, e: {n}>")).collect();
        Request {
            label: Label::Scan,
            shape: "join",
            text: format!(
                "{{ struct(d: d.code, e: e.name) | d <- Depts, d.code = {k}, \
                 e <- Employees, e.dept == d }}"
            ),
            expect: Expect::Value(format!("{{{}}}", items.join(", "))),
        }
    }

    /// `{ e.net(30) | e <- Employees, e.salary = s }` — a method call per
    /// matching row.
    pub fn method(&self, s: i64) -> Request {
        let v = self
            .data
            .employees
            .iter()
            .filter(|e| e.salary == s)
            .map(|e| e.salary * 70)
            .collect();
        Request {
            label: Label::Scan,
            shape: "method",
            text: format!("{{ e.net(30) | e <- Employees, e.salary = {s} }}"),
            expect: Expect::Value(int_set(v)),
        }
    }

    /// A salary some employee has.
    pub fn some_salary(&self, rng: &mut Rng) -> i64 {
        self.data.employees[rng.below(self.data.employees.len() as u64) as usize].salary
    }

    /// The method probe pair of the traced run: the same filter with a
    /// method call per row and with a plain attribute read per row, and
    /// the number of rows the filter passes.
    pub fn method_probe(&self) -> (String, String, usize) {
        let depts = (self.data.depts.len() as i64 / 4).max(1);
        let rows = self
            .data
            .employees
            .iter()
            .filter(|e| e.dept < depts)
            .count();
        (
            format!("{{ e.net(30) | e <- Employees, e.dept.code < {depts} }}"),
            format!("{{ e.salary | e <- Employees, e.dept.code < {depts} }}"),
            rows,
        )
    }
}

/// The event log as the generator has committed it so far.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    by_who: BTreeMap<i64, Vec<i64>>,
    kinds: Vec<i64>,
    first_kind: i64,
    next_kind: i64,
}

impl EventLog {
    /// Starts from the preloaded events.
    pub fn new(data: &Data) -> EventLog {
        let mut log = EventLog {
            next_kind: data.events.len() as i64,
            ..EventLog::default()
        };
        for &(w, k) in &data.events {
            log.by_who.entry(w).or_default().push(k);
            log.kinds.push(k);
        }
        log
    }

    /// Continues the `kind` serials from `next` (for a second writer).
    pub fn set_next_kind(&mut self, next: i64) {
        self.first_kind = next;
        self.next_kind = next;
    }

    /// The next `kind` serial.
    pub fn next_kind(&self) -> i64 {
        self.next_kind
    }

    /// The first `kind` serial.
    pub fn first_kind(&self) -> i64 {
        self.first_kind
    }

    /// Events committed so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether no event is committed.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Sum of every committed `kind` (kinds are unique serials).
    pub fn kind_sum(&self) -> i64 {
        self.kinds.iter().sum()
    }

    /// Inserts one event per `who`, as one commit.
    pub fn insert(&mut self, whos: &[i64]) -> Request {
        let mut items = Vec::new();
        for &w in whos {
            let k = self.next_kind;
            self.next_kind += 1;
            self.by_who.entry(w).or_default().push(k);
            self.kinds.push(k);
            items.push(format!("struct(w: {w}, k: {k})"));
        }
        if let [w] = whos {
            let k = self.next_kind - 1;
            return Request {
                label: Label::Write,
                shape: "insert",
                text: format!("{{ new Event(who: {w}, kind: {k}) }}"),
                expect: Expect::NewOids(1),
            };
        }
        Request {
            label: Label::Write,
            shape: "insert_batch",
            text: format!(
                "size({{ new Event(who: s.w, kind: s.k) | s <- {{{}}} }})",
                items.join(", ")
            ),
            expect: Expect::Value(whos.len().to_string()),
        }
    }

    /// `{ x.kind | x <- Events, x.who = w }`.
    pub fn lookup(&self, w: i64) -> Request {
        Request {
            label: Label::Read,
            shape: "events_lookup",
            text: format!("{{ x.kind | x <- Events, x.who = {w} }}"),
            expect: Expect::Value(int_set(self.by_who.get(&w).cloned().unwrap_or_default())),
        }
    }

    /// `{ x.who | x <- Events, lo <= x.kind, x.kind < lo + width }`.
    pub fn range(&self, lo: i64, width: i64) -> Request {
        let v = self
            .by_who
            .iter()
            .filter(|(_, ks)| ks.iter().any(|k| lo <= *k && *k < lo + width))
            .map(|(w, _)| *w)
            .collect();
        Request {
            label: Label::Scan,
            shape: "events_range",
            text: format!(
                "{{ x.who | x <- Events, {lo} <= x.kind, x.kind < {} }}",
                lo + width
            ),
            expect: Expect::Value(int_set(v)),
        }
    }

    /// `size(Events)`.
    pub fn size(&self) -> Request {
        events_checks(self.len(), self.kind_sum())[0].clone()
    }
}

/// The checks of a whole event log: `size(Events)` and
/// `sum({ x.kind | x <- Events })` (every `kind` is a unique serial, so
/// the sum pins down which events are there).
pub fn events_checks(count: usize, kind_sum: i64) -> [Request; 2] {
    [
        Request {
            label: Label::Scan,
            shape: "events_size",
            text: "size(Events)".into(),
            expect: Expect::Value(count.to_string()),
        },
        Request {
            label: Label::Scan,
            shape: "events_checksum",
            text: "sum({ x.kind | x <- Events })".into(),
            expect: Expect::Value(kind_sum.to_string()),
        },
    ]
}

/// A skewed key picker: with probability 9/10 a key from a small hot set
/// (which fits the result cache), otherwise a uniform key.
pub struct Skewed {
    hot: Vec<usize>,
    n: usize,
}

impl Skewed {
    /// Picks `hot` hot keys out of `0..n`.
    pub fn new(rng: &mut Rng, n: usize, hot: usize) -> Skewed {
        let hot = (0..hot.min(n))
            .map(|_| rng.below(n as u64) as usize)
            .collect();
        Skewed { hot, n }
    }

    /// The next key.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        if rng.below(10) < 9 {
            self.hot[rng.below(self.hot.len() as u64) as usize]
        } else {
            rng.below(self.n as u64) as usize
        }
    }
}
