//! A multi-client TCP query server over one shared kernel.
//!
//! Hand-rolled on `std::net` — no dependencies, no async runtime: one
//! accept loop, one thread and one [`Session`] per connection, the
//! admission controller ([`crate::sched`]) doing the actual
//! multiplexing. Write-free queries from different clients run
//! genuinely in parallel against version-stamped snapshots; writers
//! serialize in arrival order; with `--durable`, the WAL's group
//! commit is the shared ack point for every client's mutations.
//!
//! ## Wire protocol
//!
//! Line-oriented and human-typeable (`nc`-able). The client sends one
//! request per line:
//!
//! * `define …;` — register definitions (serialized, like any write).
//! * `:stats`, `:metrics`, `:wal status`, `:checkpoint` — admin
//!   commands, same output as the REPL's.
//! * `:trace last [N]`, `:trace seq <S>` — flight-recorder retrieval
//!   (requires the server to run with `trace_capacity > 0`).
//! * `:quit` — close the connection.
//! * anything else — an IOQL query. A query (or `define`) may be
//!   prefixed with `trace=<id> ` to stamp the client's trace ID into
//!   the query's flight-recorder record; the ID is echoed back in the
//!   status line so a caller can correlate across systems.
//!
//! Every server→client message is a **frame**: one status line, zero
//! or more payload lines, then a line containing a single `.`. Payload
//! lines that start with `.` are dot-stuffed (doubled) à la SMTP; the
//! client undoes it. Status lines:
//!
//! * `ok seq=<n> mode=<snapshot|serialized> cached=<bool>` — a query
//!   result. `mode=snapshot` means the query was admitted concurrently
//!   and `seq` stamps the snapshot it saw (the effects of commits
//!   `1..=seq` and nothing else); `mode=serialized` means it took the
//!   write path and `seq` is its position in the kernel's total commit
//!   order. Payload: the value, then `: <type>`, and for serialized
//!   queries the interference `witness: (…)` that refused concurrency.
//!   When the request carried `trace=<id>`, the status line ends with
//!   ` wait_ns=<n> trace=<id>` — the scheduler-wait observation and the
//!   echoed ID. (These tokens appear **only** for traced requests, so
//!   untraced traffic stays byte-identical run to run.)
//! * `ok <word>` — an admin command succeeded; payload varies.
//! * `err <message>` — the request failed; the session stays usable.
//!
//! The greeting on connect is a frame too:
//! `ok ioql-server proto=1 session=<label>`.

use crate::database::{Database, DbOptions, RunArgs};
use crate::kernel::DbKernel;
use crate::sched::Admitted;
use crate::session::Session;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A running server: its bound address and shutdown/join controls.
/// Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (port 0 resolves here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Already
    /// established connections finish their in-flight request and are
    /// closed when the client disconnects.
    pub fn shutdown(&mut self) {
        self.running.store(false, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (the foreground `--serve` mode).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

/// Per-connection bookkeeping shared with `:stats`: the latest
/// [`Session::describe`] line of every session this server has seen.
type SessionBoard = Arc<Mutex<BTreeMap<String, String>>>;

/// Starts a server over `kernel` on `addr` (e.g. `127.0.0.1:7583`, or
/// port `0` to pick a free one — read it back from
/// [`ServerHandle::addr`]). Each connection gets a [`Session`] built
/// from `options`, labelled `client-N`.
pub fn serve(
    kernel: Arc<DbKernel>,
    options: DbOptions,
    addr: &str,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let running = Arc::new(AtomicBool::new(true));
    let board: SessionBoard = Arc::new(Mutex::new(BTreeMap::new()));
    let next_client = Arc::new(AtomicU64::new(0));
    let accept = {
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if !running.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let n = next_client.fetch_add(1, Ordering::Relaxed) + 1;
                let session =
                    Session::new(Arc::clone(&kernel), options.clone(), format!("client-{n}"));
                let board = Arc::clone(&board);
                // Connection threads are not joined: they exit when
                // their client disconnects, and they touch nothing the
                // accept loop owns.
                std::thread::spawn(move || {
                    let _ = handle_client(stream, session, board);
                });
            }
        })
    };
    Ok(ServerHandle {
        addr,
        running,
        accept: Some(accept),
    })
}

impl Database {
    /// Serves this database's kernel on `addr` — see [`crate::server`].
    /// Sessions start from this handle's current options (engine,
    /// durability, [`DbOptions::session_budget`], …).
    pub fn serve(&self, addr: &str) -> std::io::Result<ServerHandle> {
        serve(Arc::clone(self.kernel()), self.options(), addr)
    }
}

/// Writes one protocol frame: status line, dot-stuffed payload, `.`.
fn frame(out: &mut impl Write, status: &str, payload: &str) -> std::io::Result<()> {
    writeln!(out, "{status}")?;
    for line in payload.lines() {
        if line.starts_with('.') {
            writeln!(out, ".{line}")?;
        } else {
            writeln!(out, "{line}")?;
        }
    }
    writeln!(out, ".")?;
    out.flush()
}

fn one_line(msg: impl std::fmt::Display) -> String {
    msg.to_string().replace('\n', "; ")
}

fn handle_client(
    stream: TcpStream,
    mut session: Session,
    board: SessionBoard,
) -> std::io::Result<()> {
    let mut out = stream.try_clone()?;
    let reader = BufReader::new(stream);
    frame(
        &mut out,
        &format!("ok ioql-server proto=1 session={}", session.label()),
        "",
    )?;
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            frame(&mut out, "ok bye", "")?;
            break;
        }
        let result = run_request(&mut session, &board, line);
        // Publish this session's line for every client's `:stats`.
        board
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(session.label().to_string(), session.describe());
        match result {
            Ok((status, payload)) => frame(&mut out, &status, &payload)?,
            Err(msg) => frame(&mut out, &format!("err {}", one_line(msg)), "")?,
        }
    }
    Ok(())
}

/// Runs one request line; returns `(status line, payload)`.
fn run_request(
    session: &mut Session,
    board: &SessionBoard,
    line: &str,
) -> Result<(String, String), String> {
    if line == ":stats" {
        let kernel = Arc::clone(session.kernel());
        let (commits, inflight, max_inflight, witnesses) = kernel.sched_snapshot();
        let m = &kernel.metrics().sched;
        let mut payload = format!(
            "sched: {} committed writer(s), {} in-flight reader(s), max concurrent {}, \
             admitted {}, serialized {}\n",
            commits,
            inflight,
            max_inflight,
            m.admitted.get(),
            m.serialized.get(),
        );
        if !witnesses.is_empty() {
            payload.push_str(&format!("recent witnesses: {}\n", witnesses.join(" ")));
        }
        let dm = kernel.metrics();
        payload.push_str(&format!(
            "snapshot: {} acquire(s) in {} ns, chunks shared {}, copied {}\n",
            m.snapshot_ns.count(),
            m.snapshot_ns.sum_ns(),
            dm.snapshot_chunks_shared.get(),
            dm.snapshot_chunks_copied.get(),
        ));
        // Every session this server has seen, own line freshest.
        let mut entries = board.lock().unwrap_or_else(|e| e.into_inner()).clone();
        entries.insert(session.label().to_string(), session.describe());
        for line in entries.values() {
            payload.push_str(line);
            payload.push('\n');
        }
        return Ok(("ok stats".into(), payload));
    }
    if line == ":metrics" {
        let text = session.kernel().metrics().registry().render_prometheus();
        return Ok(("ok metrics".into(), text));
    }
    if line == ":wal status" {
        let durability = session.options().durability;
        let payload = match session.kernel().wal_status(durability) {
            Some(status) => format!("{status}\n"),
            None => "wal: off (start with --durable <dir> to enable)\n".into(),
        };
        return Ok(("ok wal".into(), payload));
    }
    if line == ":checkpoint" {
        let durability = session.options().durability;
        session.kernel().checkpoint(durability).map_err(one_line)?;
        return Ok(("ok checkpointed".into(), String::new()));
    }
    if let Some(rest) = line.strip_prefix(":trace") {
        let rest = rest.trim();
        if rest == "last" || rest.starts_with("last ") || rest.starts_with("seq ") {
            let Some(recorder) = session.kernel().recorder() else {
                return Err("flight recorder off (start the server with tracing on)".into());
            };
            let records = if let Some(s) = rest.strip_prefix("seq ") {
                let seq: u64 = s
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad sequence number {:?}", s.trim()))?;
                recorder.by_seq(seq).into_iter().collect::<Vec<_>>()
            } else {
                let n: usize = match rest.strip_prefix("last").map(str::trim) {
                    Some("") | None => 1,
                    Some(s) => s.parse().map_err(|_| format!("bad count {s:?}"))?,
                };
                recorder.last(n)
            };
            if records.is_empty() {
                return Err("no matching trace record".into());
            }
            let payload = records
                .iter()
                .map(|r| r.render())
                .collect::<Vec<_>>()
                .join("\n");
            return Ok((format!("ok traces count={}", records.len()), payload));
        }
    }
    // A `trace=<id>` prefix stamps the client's trace ID into the
    // request's flight-recorder record and switches the status line to
    // the traced form (wait_ns + echoed ID).
    let (trace_id, line) = match line
        .strip_prefix("trace=")
        .and_then(|rest| rest.split_once(char::is_whitespace))
    {
        Some((id, rest)) if !id.is_empty() => (Some(id), rest.trim_start()),
        _ => (None, line),
    };
    if line.starts_with("define ") {
        let seq = session.define(line).map_err(one_line)?;
        let trace = match trace_id {
            Some(id) => format!(" trace={id}"),
            None => String::new(),
        };
        return Ok((
            format!(
                "ok seq={} mode=serialized cached=false{trace}",
                seq.unwrap_or(0)
            ),
            "defined.\n".into(),
        ));
    }
    let args = RunArgs {
        trace_id,
        ..RunArgs::default()
    };
    let r = session.run(line, args).map_err(one_line)?;
    let (seq, mode, witness) = match &r.admitted {
        Some(Admitted::Concurrent { snapshot_seq }) => (*snapshot_seq, "snapshot", None),
        Some(Admitted::Serialized {
            commit_seq,
            witness,
        }) => (*commit_seq, "serialized", Some(witness.clone())),
        None => (0, "exclusive", None),
    };
    let mut payload = format!("{}\n: {}\n", r.value, r.ty);
    if let Some((a, b)) = witness {
        payload.push_str(&format!("witness: ({a}, {b})\n"));
    }
    // The traced tokens are appended only when the client asked for
    // them: untraced responses must stay byte-identical across runs
    // (and across tracing on/off), and `wait_ns` is wall-clock jitter.
    let trace = match trace_id {
        Some(id) => format!(" wait_ns={} trace={id}", r.wait.as_nanos()),
        None => String::new(),
    };
    Ok((
        format!("ok seq={seq} mode={mode} cached={}{trace}", r.cached),
        payload,
    ))
}

/// A minimal blocking client for the wire protocol — used by the tests
/// and handy for scripting. Reads one greeting frame on connect.
#[derive(Debug)]
pub struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One response frame, parsed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// The status line (`ok …` / `err …`).
    pub status: String,
    /// Payload lines, dot-unstuffed.
    pub lines: Vec<String>,
}

impl Frame {
    /// Whether the status line starts with `ok`.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("ok")
    }

    /// Parses `key=value` tokens out of the status line.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.status
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
    }
}

impl Client {
    /// Connects and consumes the greeting frame.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        let reader = BufReader::new(out.try_clone()?);
        let mut c = Client { out, reader };
        c.read_frame()?; // greeting
        Ok(c)
    }

    /// Sends one request line and reads its response frame.
    pub fn request(&mut self, line: &str) -> std::io::Result<Frame> {
        writeln!(self.out, "{line}")?;
        self.out.flush()?;
        self.read_frame()
    }

    fn read_frame(&mut self) -> std::io::Result<Frame> {
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = status.trim_end().to_string();
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            let line = line.trim_end_matches('\n');
            if line == "." {
                break;
            }
            let line = line.strip_prefix('.').unwrap_or(line);
            lines.push(line.to_string());
        }
        Ok(Frame { status, lines })
    }
}
