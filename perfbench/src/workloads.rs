//! The three workloads: their stores, their fixed request sequences, and
//! the untraced run that produces the end-to-end metrics.

use crate::gen::{
    events_checks, Data, EventLog, Expect, Label, Oracle, Request, Rng, Sizes, Skewed, EVENT_WHO,
};
use crate::stats::{latency_pair, median, Metric};
use crate::system::{ms, open_db, secs, wire_admin, wire_query, Server, ServerKind, TempDir};
use std::collections::HashSet;
use std::time::Instant;

/// A workload: a store and a fixed, seeded request sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two wire clients against the shipped binary (`--serve --compile
    /// --durable`), in a closed loop.
    ServeMixed,
    /// One embedded caller through `Database::query`; no wire, scheduler
    /// or WAL; every query distinct, so the cache never hits.
    EmbeddedAnalytics,
    /// One embedded `Session` on a `Commit` WAL: batched inserts beside
    /// reads of the same extent, then a reopen.
    DurableIngest,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeMixed,
        Workload::EmbeddedAnalytics,
        Workload::DurableIngest,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve-mixed",
            Workload::EmbeddedAnalytics => "embedded-analytics",
            Workload::DurableIngest => "durable-ingest",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The store size; `tiny` is the smoke-test size.
    pub fn sizes(self, tiny: bool) -> Sizes {
        if tiny {
            return Sizes {
                depts: 4,
                persons: 40,
                employees: 20,
                events: if self == Workload::DurableIngest {
                    12
                } else {
                    0
                },
                batch: 16,
            };
        }
        match self {
            Workload::ServeMixed => Sizes {
                depts: 25,
                persons: 16_000,
                employees: 4_000,
                events: 0,
                batch: 1_000,
            },
            Workload::EmbeddedAnalytics => Sizes {
                depts: 20,
                persons: 50_000,
                employees: 20_000,
                events: 0,
                batch: 2_000,
            },
            Workload::DurableIngest => Sizes {
                depts: 20,
                persons: 1_500,
                employees: 500,
                events: 2_000,
                batch: 500,
            },
        }
    }

    /// Whether the system under test runs inside this process (so an
    /// unmeasured warm-up round can settle its heap before timing).
    pub fn in_process(self) -> bool {
        self != Workload::ServeMixed
    }

    /// Client connections (one for the embedded workloads).
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            _ => 1,
        }
    }

    /// Timed store loads per round, each into a fresh system; the last
    /// one serves the round's sequence. The embedded load is CPU-bound
    /// parse and evaluation, whose speed on a shared host drifts from
    /// second to second, so it is sampled twice per round.
    pub fn loads(self) -> usize {
        match self {
            Workload::EmbeddedAnalytics => 2,
            _ => 1,
        }
    }

    /// Timed restarts (each checked) at the end of every round.
    pub fn restarts(self) -> usize {
        match self {
            Workload::ServeMixed => 20,
            Workload::EmbeddedAnalytics => 8,
            Workload::DurableIngest => 3,
        }
    }

    /// Nominal seconds of sequence per round on the reference host; the
    /// round count for a run of `--seconds s` is `max(3, ceil(s / this))`.
    pub fn round_secs(self) -> f64 {
        match self {
            Workload::ServeMixed => 4.0,
            Workload::EmbeddedAnalytics => 2.0,
            Workload::DurableIngest => 1.5,
        }
    }

    /// Rounds in a run of `seconds` — fixed for a given `seconds`, so
    /// every run of a workload makes the same number of requests.
    pub fn rounds(self, seconds: f64) -> usize {
        ((seconds / self.round_secs()).ceil() as usize).max(3)
    }

    /// Whether a single-event insert follows every request of the mix.
    /// An insert that follows an extent-sized query runs on a cold CPU
    /// cache and costs about twice one that follows another insert, so
    /// randomly placed inserts made the two kinds' shares, and with them
    /// the write percentiles, move with the seed; one insert after every
    /// query keeps every insert of the same kind.
    fn trailing_insert(self) -> bool {
        self == Workload::EmbeddedAnalytics
    }

    /// Per-round request mix: `(shape, count)` per client.
    fn mix(self, tiny: bool) -> &'static [(&'static str, usize)] {
        match (self, tiny) {
            (Workload::ServeMixed, false) => &[
                ("lookup_name", 14),
                ("lookup_dept", 14),
                ("events_lookup", 2),
                ("range", 2),
                ("size", 1),
                ("sum", 1),
                ("projection", 1),
                ("insert", 8),
            ],
            (Workload::ServeMixed, true) => &[
                ("lookup_name", 2),
                ("lookup_dept", 1),
                ("events_lookup", 2),
                ("range", 1),
                ("size", 1),
                ("sum", 1),
                ("projection", 1),
                ("insert", 2),
            ],
            (Workload::EmbeddedAnalytics, false) => &[
                ("lookup_name", 14),
                ("lookup_dept", 6),
                ("range", 8),
                ("projection", 5),
                ("join", 5),
                ("method", 5),
                ("sum", 2),
                ("size", 1),
            ],
            (Workload::EmbeddedAnalytics, true) => &[
                ("lookup_name", 1),
                ("lookup_dept", 1),
                ("range", 1),
                ("projection", 1),
                ("join", 1),
                ("method", 1),
                ("sum", 1),
                ("size", 1),
            ],
            (Workload::DurableIngest, false) => &[
                ("insert_batch", 900),
                ("events_lookup", 216),
                ("events_range", 60),
                ("events_size", 24),
            ],
            (Workload::DurableIngest, true) => &[
                ("insert_batch", 6),
                ("events_lookup", 2),
                ("events_range", 1),
                ("events_size", 1),
            ],
        }
    }
}

/// Events per commit in `durable-ingest`.
pub const INGEST_BATCH: usize = 10;

/// Everything one round of a workload sends, with expected answers.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The workload.
    pub workload: Workload,
    /// The generated store.
    pub data: Data,
    /// Load batches and their expected answers.
    pub load: Vec<(String, String)>,
    /// One request list per client connection, in send order.
    pub clients: Vec<Vec<Request>>,
    /// Checks after the sequence.
    pub finals: Vec<Request>,
    /// Checks after a restart.
    pub recovery: Vec<Request>,
    /// The WAL payloads of the sequence's commits, in commit order.
    pub writes: Vec<String>,
}

impl Scenario {
    /// Builds the scenario of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, tiny: bool) -> Scenario {
        let sizes = workload.sizes(tiny);
        let data = Data::generate(sizes, seed);
        let load = data.load_script(sizes.batch);
        let oracle = Oracle::new(&data);
        let mut rng = Rng::new(seed, 2);
        let people = data.person_count();
        let hot_people = Skewed::new(&mut rng, people, 6);
        let hot_depts = Skewed::new(&mut rng, sizes.depts as usize, 3);
        let mut seen: HashSet<String> = HashSet::new();
        let mut logs = Vec::new();
        let mut clients = Vec::new();
        let who_span = EVENT_WHO / workload.clients() as i64;
        for c in 0..workload.clients() {
            let mut log = EventLog::new(&data);
            if c > 0 {
                log.set_next_kind(10_000_000 * c as i64);
            }
            let whos = (c as i64 * who_span)..((c as i64 + 1) * who_span);
            // Jittered, evenly spread order: the i-th of a shape's n requests
            // lands at (i + u) / n of the round, so every seed puts each
            // shape at the same store sizes while the order stays random.
            let mut slots: Vec<(f64, &'static str)> = Vec::new();
            for &(shape, n) in workload.mix(tiny) {
                for i in 0..n {
                    let u = rng.below(1 << 24) as f64 / (1u64 << 24) as f64;
                    slots.push(((i as f64 + u) / n as f64, shape));
                }
            }
            slots.sort_by(|a, b| a.0.total_cmp(&b.0));
            let trailing = workload.trailing_insert().then_some("insert");
            let slots = slots
                .into_iter()
                .flat_map(|(_, shape)| std::iter::once(shape).chain(trailing));
            let mut list = Vec::new();
            for shape in slots {
                // Embedded analytics never repeats a query text, so the
                // result cache never hits; the served mix draws skewed
                // keys so a hot set does.
                let distinct = workload == Workload::EmbeddedAnalytics;
                let req = loop {
                    let req = match shape {
                        "lookup_name" => {
                            let i = if distinct {
                                rng.below(people as u64) as usize
                            } else {
                                hot_people.pick(&mut rng)
                            };
                            oracle.lookup_name(oracle.person_name(i))
                        }
                        "lookup_dept" => {
                            let k = if distinct {
                                rng.below(sizes.depts as u64) as i64
                            } else {
                                hot_depts.pick(&mut rng) as i64
                            };
                            oracle.lookup_dept(k)
                        }
                        "range" => {
                            let lo = rng.range(0, sizes.persons.max(2));
                            oracle.range_names(lo, lo + 60)
                        }
                        "projection" => oracle.projection(rng.range(1, 1_000_000)),
                        "size" => oracle.size_filtered(rng.range(20, 80), rng.range(200, 2_000)),
                        "sum" => oracle.sum_salaries(rng.range(0, sizes.depts)),
                        "join" => oracle.join(rng.range(0, sizes.depts)),
                        "method" => oracle.method(oracle.some_salary(&mut rng)),
                        "insert" => log.insert(&[rng.range(whos.start, whos.end)]),
                        "insert_batch" => {
                            let ws: Vec<i64> = (0..INGEST_BATCH)
                                .map(|_| rng.range(whos.start, whos.end))
                                .collect();
                            log.insert(&ws)
                        }
                        "events_lookup" => log.lookup(rng.range(whos.start, whos.end)),
                        "events_range" => {
                            let hi = log.next_kind().max(1);
                            log.range(rng.range(log.first_kind(), hi), 50)
                        }
                        "events_size" => log.size(),
                        other => unreachable!("unknown shape {other}"),
                    };
                    if !distinct || req.label == Label::Write || seen.insert(req.text.clone()) {
                        break req;
                    }
                };
                list.push(req);
            }
            logs.push(log);
            clients.push(list);
        }
        // Every client's log starts from the same preload.
        let preload = EventLog::new(&data);
        let count = preload.len() + logs.iter().map(|l| l.len() - preload.len()).sum::<usize>();
        let kind_sum = preload.kind_sum()
            + logs
                .iter()
                .map(|l| l.kind_sum() - preload.kind_sum())
                .sum::<i64>();
        let events = events_checks(count, kind_sum);
        let persons_size = Request {
            label: Label::Scan,
            shape: "persons_size",
            text: "size(Persons)".into(),
            expect: Expect::Value(people.to_string()),
        };
        let finals = events.to_vec();
        let recovery = [vec![persons_size], events.to_vec()].concat();
        let writes = clients
            .iter()
            .flatten()
            .filter(|r| r.label == Label::Write)
            .map(|r| r.text.clone())
            .collect();
        Scenario {
            workload,
            data,
            load,
            clients,
            finals,
            recovery,
            writes,
        }
    }

    /// Requests in one round's sequence.
    pub fn len(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The clients' lists merged into one sequence, alternating — the
    /// order the traced run replays them in on one thread.
    pub fn interleaved(&self) -> Vec<Request> {
        let longest = self.clients.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| self.clients.iter().filter_map(move |c| c.get(i)))
            .cloned()
            .collect()
    }
}

/// One timed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Latency class.
    pub label: Label,
    /// Request shape.
    pub shape: &'static str,
    /// Caller-observed latency.
    pub ms: f64,
    /// Whether it succeeded with the expected answer.
    pub ok: bool,
}

/// What one round produced.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Store loads (+ server start and connect), one per
    /// [`Workload::loads`]; the benchmark's own generation of the data
    /// and the expected answers is not timed.
    pub setups: Vec<f64>,
    /// Wall time of the request sequence.
    pub wall_s: f64,
    /// The sequence's requests.
    pub samples: Vec<Sample>,
    /// Reopen (+ replay) times, one per restart.
    pub recovery_s: Vec<f64>,
    /// Check requests made / failed (finals and post-recovery).
    pub checks: usize,
    /// Failed checks.
    pub checks_failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Round {
    fn check(&mut self, req: &Request, got: Result<String, String>) {
        self.checks += 1;
        if let Some(e) = failure(req, &got) {
            self.checks_failed += 1;
            self.note(e);
        }
    }

    fn note(&mut self, error: String) {
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }
}

/// Why `got` is not a correct answer to `req`, or `None` when it is.
fn failure(req: &Request, got: &Result<String, String>) -> Option<String> {
    let what = match got {
        Ok(v) if req.expect.matches(v) => return None,
        Ok(v) => format!("expected {:?}, got {}", req.expect, clip(v)),
        Err(e) => format!("error {e}"),
    };
    Some(format!("{} `{}`: {what}", req.shape, clip(&req.text)))
}

/// Shortens long texts for messages.
pub fn clip(s: &str) -> String {
    if s.len() <= 160 {
        s.to_string()
    } else {
        let mut end = 160;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Runs one round of `workload`, untraced.
pub fn run_round(
    workload: Workload,
    seed: u64,
    tiny: bool,
    server: &ServerKind,
    tag: &str,
) -> Result<Round, String> {
    match workload {
        Workload::ServeMixed => serve_round(seed, tiny, server, tag),
        Workload::EmbeddedAnalytics => analytics_round(seed, tiny, tag),
        Workload::DurableIngest => ingest_round(seed, tiny, tag),
    }
}

fn run_list<F>(list: &[Request], mut call: F) -> Vec<(Sample, Option<String>)>
where
    F: FnMut(&str) -> Result<String, String>,
{
    list.iter()
        .map(|req| {
            let t = Instant::now();
            let got = call(&req.text);
            let elapsed = ms(t.elapsed());
            let err = failure(req, &got);
            let sample = Sample {
                label: req.label,
                shape: req.shape,
                ms: elapsed,
                ok: err.is_none(),
            };
            (sample, err)
        })
        .collect()
}

fn absorb(round: &mut Round, results: Vec<(Sample, Option<String>)>) {
    for (sample, err) in results {
        round.samples.push(sample);
        if let Some(e) = err {
            round.note(e);
        }
    }
}

fn load_check(
    load: &[(String, String)],
    mut call: impl FnMut(&str) -> Result<String, String>,
) -> Result<(), String> {
    for (q, want) in load {
        let got = call(q)?;
        if &got != want {
            return Err(format!("load batch answered {got}, expected {want}"));
        }
    }
    Ok(())
}

fn serve_round(seed: u64, tiny: bool, kind: &ServerKind, tag: &str) -> Result<Round, String> {
    let mut round = Round::default();
    let sc = Scenario::generate(Workload::ServeMixed, seed, tiny);
    let t = Instant::now();
    let dir = TempDir::new(tag)?;
    let mut server = Server::start(kind, dir.path())?;
    let mut clients = (0..sc.clients.len())
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    load_check(&sc.load, |q| wire_query(&mut clients[0], q))?;
    // The loaded store becomes the checkpoint, so a restart loads it and
    // replays only the sequence's commits. Replaying the bulk load's query
    // text instead made every restart re-run the most host-sensitive work
    // of the benchmark, and the restarts of whole runs moved by a third.
    wire_admin(&mut clients[0], ":checkpoint")?;
    round.setups.push(secs(t.elapsed()));

    let t = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&sc.clients)
            .map(|(client, list)| s.spawn(move || run_list(list, |q| wire_query(client, q))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    round.wall_s = secs(t.elapsed());
    for r in results {
        absorb(&mut round, r);
    }
    for req in &sc.finals {
        let got = wire_query(&mut clients[0], &req.text);
        round.check(req, got);
    }
    drop(clients);
    server.stop();

    for _ in 0..Workload::ServeMixed.restarts() {
        let t = Instant::now();
        let mut server = Server::start(kind, dir.path())?;
        let mut client = server.connect()?;
        round.recovery_s.push(secs(t.elapsed()));
        for req in &sc.recovery {
            let got = wire_query(&mut client, &req.text);
            round.check(req, got);
        }
        drop(client);
        server.stop();
    }
    Ok(round)
}

fn analytics_round(seed: u64, tiny: bool, tag: &str) -> Result<Round, String> {
    let mut round = Round::default();
    let sc = Scenario::generate(Workload::EmbeddedAnalytics, seed, tiny);
    let mut loaded = None;
    for _ in 0..Workload::EmbeddedAnalytics.loads() {
        // The previous load's store is freed before the clock starts.
        drop(loaded.take());
        let t = Instant::now();
        let mut db = open_db(None)?;
        load_check(&sc.load, |q| {
            db.query(q)
                .map(|r| r.value.to_string())
                .map_err(|e| e.to_string())
        })?;
        round.setups.push(secs(t.elapsed()));
        loaded = Some(db);
    }
    let mut db = loaded.expect("at least one load per round");

    let t = Instant::now();
    let results = run_list(&sc.clients[0], |q| {
        db.query(q)
            .map(|r| r.value.to_string())
            .map_err(|e| e.to_string())
    });
    round.wall_s = secs(t.elapsed());
    absorb(&mut round, results);
    for req in &sc.finals {
        let got = db
            .query(&req.text)
            .map(|r| r.value.to_string())
            .map_err(|e| e.to_string());
        round.check(req, got);
    }

    // The embedded path has no WAL: its restart is a reload of the
    // saved dump into a fresh database.
    let dir = TempDir::new(tag)?;
    let dump = dir.path().join("store.dump");
    db.save_to(&dump).map_err(|e| format!("save: {e}"))?;
    drop(db);
    for _ in 0..Workload::EmbeddedAnalytics.restarts() {
        let t = Instant::now();
        let mut db = open_db(None)?;
        db.load_from(&dump).map_err(|e| format!("load: {e}"))?;
        round.recovery_s.push(secs(t.elapsed()));
        for req in &sc.recovery {
            let got = db
                .query(&req.text)
                .map(|r| r.value.to_string())
                .map_err(|e| e.to_string());
            round.check(req, got);
        }
    }
    Ok(round)
}

fn ingest_round(seed: u64, tiny: bool, tag: &str) -> Result<Round, String> {
    let mut round = Round::default();
    let sc = Scenario::generate(Workload::DurableIngest, seed, tiny);
    let t = Instant::now();
    let dir = TempDir::new(tag)?;
    let wal = dir.path().join("wal");
    let db = open_db(Some(&wal))?;
    let mut session = db.session("ingest");
    load_check(&sc.load, |q| {
        session
            .query(q)
            .map(|r| r.value.to_string())
            .map_err(|e| e.to_string())
    })?;
    round.setups.push(secs(t.elapsed()));

    let t = Instant::now();
    let results = run_list(&sc.clients[0], |q| {
        session
            .query(q)
            .map(|r| r.value.to_string())
            .map_err(|e| e.to_string())
    });
    round.wall_s = secs(t.elapsed());
    absorb(&mut round, results);
    for req in &sc.finals {
        let got = session
            .query(&req.text)
            .map(|r| r.value.to_string())
            .map_err(|e| e.to_string());
        round.check(req, got);
    }
    drop(session);
    drop(db);

    for _ in 0..Workload::DurableIngest.restarts() {
        let t = Instant::now();
        let mut db = open_db(Some(&wal))?;
        round.recovery_s.push(secs(t.elapsed()));
        for req in &sc.recovery {
            let got = db
                .query(&req.text)
                .map(|r| r.value.to_string())
                .map_err(|e| e.to_string());
            round.check(req, got);
        }
    }
    Ok(round)
}

/// The end-to-end metrics of a run's rounds.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setups.iter().copied())
        .collect();
    let recoveries: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.recovery_s.iter().copied())
        .collect();
    let requests: usize = rounds.iter().map(|r| r.samples.len()).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let (attempted, failed) = attempted_failed(rounds);
    let mut out = vec![
        Metric::new("setup_s", "s", median(&setups).unwrap_or(0.0))
            .with_note(format!("median of {} setups", setups.len())),
        Metric::new("throughput_ops_s", "1/s", requests as f64 / wall.max(1e-9))
            .with_note(format!("{requests} requests in {wall:.3} s")),
    ];
    for label in [Label::Read, Label::Scan, Label::Write] {
        let v: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.samples)
            .filter(|s| s.label == label)
            .map(|s| s.ms)
            .collect();
        out.extend(latency_pair(label.name(), &v));
    }
    // A restart takes a fraction of a second, short enough that the
    // fastest of many restarts spread over the run is the restart cost
    // without the shared host's interference; their median moved with
    // the host from run to run by more than the metric's bound.
    let fastest = recoveries.iter().copied().reduce(f64::min).unwrap_or(0.0);
    out.push(
        Metric::new("recovery_s", "s", fastest)
            .with_note(format!("min of {} restarts", recoveries.len())),
    );
    out.push(
        Metric::new(
            "success_ratio",
            "ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        )
        .with_note(format!("{failed} failed of {attempted}")),
    );
    out
}

/// Per request shape: (count, p50 ms), for the report.
pub fn shape_p50s(rounds: &[Round]) -> Vec<(&'static str, usize, f64)> {
    let mut by_shape: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for s in rounds.iter().flat_map(|r| &r.samples) {
        by_shape.entry(s.shape).or_default().push(s.ms);
    }
    by_shape
        .into_iter()
        .map(|(shape, v)| (shape, v.len(), median(&v).unwrap_or(0.0)))
        .collect()
}

/// Attempted and failed requests (sequence plus checks) over `rounds`.
pub fn attempted_failed(rounds: &[Round]) -> (usize, usize) {
    let attempted = rounds.iter().map(|r| r.samples.len() + r.checks).sum();
    let failed = rounds
        .iter()
        .map(|r| r.samples.iter().filter(|s| !s.ok).count() + r.checks_failed)
        .sum();
    (attempted, failed)
}
