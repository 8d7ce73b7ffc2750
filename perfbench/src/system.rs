//! The system under test, configured as it ships, plus the host record.

use crate::gen::DDL;
use ioql::{Client, Database, DbOptions, Durability, Engine, ServerHandle};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The pinned configuration, rendered into every output.
pub const CONFIG: &str = "engine=Plan compile=true parallelism=0 optimize=false \
telemetry=true trace_capacity=256 cache_capacity=1024 durability=Commit(where a WAL is attached)";

/// The options the shipped `ioql --compile [--durable DIR]` binary runs
/// with, set field by field so `IOQL_PARALLELISM` / `IOQL_COMPILE` in the
/// environment cannot change the measured program.
pub fn shipped_options(durable: bool) -> DbOptions {
    DbOptions {
        engine: Engine::Plan,
        compile: true,
        parallelism: 0,
        optimize: false,
        telemetry: true,
        trace_capacity: 256,
        cache_capacity: 1024,
        durability: if durable {
            Durability::Commit
        } else {
            Durability::Off
        },
        ..DbOptions::default()
    }
}

/// A fresh in-process database with the shipped options; with `wal`,
/// attached (and recovered) from that directory.
pub fn open_db(wal: Option<&Path>) -> Result<Database, String> {
    let mut db = Database::from_ddl_with(DDL, shipped_options(wal.is_some()))
        .map_err(|e| format!("schema: {e}"))?;
    if let Some(dir) = wal {
        db.attach_durable(dir)
            .map_err(|e| format!("attach_durable {}: {e}", dir.display()))?;
    }
    Ok(db)
}

/// How the served workload gets its server.
#[derive(Clone, Debug)]
pub enum ServerKind {
    /// The shipped `ioql` binary at this path, started with
    /// `--serve 127.0.0.1:0 --compile --parallelism 0 --durable DIR`.
    Binary(PathBuf),
    /// The same server code, started in this process (used by the
    /// benchmark's own tests, which have no binary to spawn).
    InProcess,
}

enum Running {
    /// The child process and its stdout, kept open while it runs.
    Child(Child, #[allow(dead_code)] BufReader<ChildStdout>),
    InProcess(Box<Database>, ServerHandle),
}

/// A running server.
pub struct Server {
    /// The address it listens on.
    pub addr: SocketAddr,
    running: Option<Running>,
}

impl Server {
    /// Starts a durable server whose WAL and schema live in `dir`.
    pub fn start(kind: &ServerKind, dir: &Path) -> Result<Server, String> {
        let wal = dir.join("wal");
        match kind {
            ServerKind::Binary(bin) => {
                let schema = dir.join("schema.odl");
                std::fs::write(&schema, DDL).map_err(|e| format!("write schema: {e}"))?;
                let mut child = Command::new(bin)
                    .arg(&schema)
                    .args(["--serve", "127.0.0.1:0", "--compile", "--parallelism", "0"])
                    .arg("--durable")
                    .arg(&wal)
                    .env_remove("IOQL_PARALLELISM")
                    .env_remove("IOQL_COMPILE")
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
                let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
                let mut line = String::new();
                loop {
                    line.clear();
                    let n = out.read_line(&mut line).unwrap_or(0);
                    if n == 0 {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err("server exited before announcing its address".into());
                    }
                    if let Some(a) = line.trim().strip_prefix("serving on ") {
                        let addr = a.parse().map_err(|e| format!("bad address {a:?}: {e}"))?;
                        return Ok(Server {
                            addr,
                            running: Some(Running::Child(child, out)),
                        });
                    }
                }
            }
            ServerKind::InProcess => {
                let db = open_db(Some(&wal))?;
                let handle = db.serve("127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
                Ok(Server {
                    addr: handle.addr(),
                    running: Some(Running::InProcess(Box::new(db), handle)),
                })
            }
        }
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Stops the server and waits until it has ended.
    pub fn stop(&mut self) {
        match self.running.take() {
            Some(Running::Child(mut child, _)) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Some(Running::InProcess(db, mut handle)) => {
                handle.shutdown();
                drop(db);
            }
            None => {}
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sends one request and returns the rendered value (first payload
/// line) of an `ok` frame.
pub fn wire_query(client: &mut Client, text: &str) -> Result<String, String> {
    let frame = client.request(text).map_err(|e| format!("wire: {e}"))?;
    if !frame.is_ok() {
        return Err(format!("wire status `{}`", frame.status));
    }
    frame
        .lines
        .first()
        .cloned()
        .ok_or_else(|| "empty payload".to_string())
}

/// Sends an admin command (such as `:checkpoint`) whose answer is a status
/// line with no payload; fails unless the status is `ok`.
pub fn wire_admin(client: &mut Client, command: &str) -> Result<(), String> {
    let frame = client.request(command).map_err(|e| format!("wire: {e}"))?;
    if frame.is_ok() {
        Ok(())
    } else {
        Err(format!("`{command}`: wire status `{}`", frame.status))
    }
}

/// A scratch directory under `.bench_tmp` in the working directory, removed on
/// drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.bench_tmp/<pid>-<tag>` (emptied first if it exists).
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let path = Path::new(".bench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once the last run's directory is gone.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// The host record: reported with every output, never gated.
#[derive(Clone, Debug)]
pub struct Host {
    /// Logical CPUs as the launcher counted them (0 when not given).
    pub cpus: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// A fixed integer loop, in nanoseconds per iteration.
    pub calibration_ns_per_iter: f64,
}

impl Host {
    /// Measures the host.
    pub fn measure(cpus: usize) -> Host {
        Host {
            cpus,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            calibration_ns_per_iter: calibrate(),
        }
    }
}

/// Median of five passes of a fixed 4M-iteration xorshift loop.
pub fn calibrate() -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[2]
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
