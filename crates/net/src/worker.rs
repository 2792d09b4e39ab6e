//! The worker client: connect, claim shards, run them, upload artifacts.
//!
//! The worker is transport-only — the actual campaign execution is the
//! caller's `runner` callback, which receives the [`JobSpec`] and a
//! progress hook and returns the encoded shard artifact. That keeps this
//! crate free of workload knowledge and lets tests drive the protocol
//! with synthetic runners (slow ones, failing ones).
//!
//! Fault tolerance:
//!
//! - every (re)connection gets [`WorkerOpts::retry_max`] attempts with
//!   exponential backoff (100 ms doubling, capped at 5 s);
//! - a finished artifact survives a connection loss: it is kept as
//!   `pending_upload` and re-sent after the reconnect handshake, so a
//!   coordinator restart never costs a computed shard;
//! - a dedicated heartbeat thread sends BEAT every
//!   [`WorkerOpts::heartbeat_ms`] while the runner computes, sharing the
//!   write side behind a mutex so frames never interleave. It waits on a
//!   stop channel rather than sleeping, so closing the connection ends
//!   it at once instead of on its next beat.

use crate::env::{DEFAULT_HEARTBEAT_MS, DEFAULT_RETRY_MAX};
use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{hello, JobSpec, Message};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker client parameters.
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// BEAT interval in milliseconds.
    pub heartbeat_ms: u64,
    /// Maximum attempts per (re)connection.
    pub retry_max: u32,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            heartbeat_ms: DEFAULT_HEARTBEAT_MS,
            retry_max: DEFAULT_RETRY_MAX,
        }
    }
}

/// What a worker did over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Artifacts the coordinator accepted.
    pub completed: usize,
    /// Artifacts the coordinator discarded as duplicates (a reassigned
    /// twin finished first).
    pub duplicates: usize,
    /// Reconnections survived.
    pub reconnects: usize,
}

/// The progress hook a runner drives: `(completed runs, total runs)`.
pub type ProgressFn<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// Shared write side of one connection: the main thread's replies and the
/// heartbeat thread's BEATs go through the same lock.
struct WriteHandle {
    stream: Mutex<TcpStream>,
}

impl WriteHandle {
    fn send(&self, msg: &Message) -> Result<(), String> {
        let mut s = self.stream.lock().expect("write lock");
        write_frame(&mut *s, &msg.encode()).map_err(|e| format!("send: {e}"))
    }
}

fn connect_with_backoff(addr: &str, retry_max: u32) -> Result<TcpStream, String> {
    let mut delay = Duration::from_millis(100);
    let mut last = String::new();
    for attempt in 0..retry_max {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < retry_max {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_secs(5));
        }
    }
    Err(format!(
        "cannot connect to {addr} after {retry_max} attempt(s): {last}"
    ))
}

/// One established, handshaken connection.
struct Conn {
    reader: TcpStream,
    writer: Arc<WriteHandle>,
    /// Dropping this sender stops the heartbeat thread.
    beat_stop: Option<mpsc::Sender<()>>,
    beat: Option<std::thread::JoinHandle<()>>,
}

impl Conn {
    fn establish(addr: &str, opts: &WorkerOpts) -> Result<(Conn, usize), String> {
        let stream = connect_with_backoff(addr, opts.retry_max)?;
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let writer = Arc::new(WriteHandle {
            stream: Mutex::new(stream),
        });
        let mut conn = Conn {
            reader,
            writer,
            beat_stop: None,
            beat: None,
        };
        conn.writer.send(&hello())?;
        let shards = match conn.recv()? {
            Message::Welcome { shards } => shards,
            Message::Error { msg } => return Err(format!("coordinator refused: {msg}")),
            other => return Err(format!("expected WELCOME, got {other:?}")),
        };
        // Heartbeats start only after a successful handshake.
        let hb_writer = Arc::clone(&conn.writer);
        let (stop, stopped) = mpsc::channel::<()>();
        let interval = Duration::from_millis(opts.heartbeat_ms);
        conn.beat_stop = Some(stop);
        conn.beat = Some(std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                if hb_writer.send(&Message::Beat).is_err() {
                    break;
                }
            }
        }));
        Ok((conn, shards))
    }

    fn recv(&mut self) -> Result<Message, String> {
        let payload = read_frame(&mut self.reader).map_err(|e| match e {
            FrameError::Io(ref io) if e.is_clean_eof() => format!("coordinator closed: {io}"),
            other => format!("recv: {other}"),
        })?;
        Message::decode(&payload)
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Disconnecting the stop channel wakes the beat thread at once.
        self.beat_stop = None;
        if let Ok(s) = self.writer.stream.lock() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.beat.take() {
            let _ = h.join();
        }
    }
}

/// Runs the worker protocol against the coordinator at `addr` until the
/// campaign is complete ([`Message::Done`]) or an unrecoverable error.
///
/// `runner` executes one assignment and returns the encoded shard
/// artifact; its progress hook streams `(completed, total)` to the
/// coordinator (also serving as liveness). A runner error is fatal to
/// *this worker* — it exits loudly and the coordinator reassigns — but a
/// transport error is not: the worker reconnects with backoff and re-sends
/// any artifact it had finished in the meantime.
pub fn run_worker<F>(addr: &str, opts: &WorkerOpts, mut runner: F) -> Result<WorkerSummary, String>
where
    F: FnMut(&JobSpec, ProgressFn<'_>) -> Result<String, String>,
{
    if opts.heartbeat_ms == 0 {
        return Err("heartbeat interval must be positive".to_string());
    }
    let mut summary = WorkerSummary::default();
    let mut pending_upload: Option<(usize, String)> = None;
    let mut first = true;

    'session: loop {
        if !first {
            summary.reconnects += 1;
        }
        first = false;
        let (mut conn, _shards) = Conn::establish(addr, opts)?;

        // A computed artifact from before the reconnect goes out first.
        if let Some((shard, body)) = pending_upload.clone() {
            match upload(&mut conn, shard, body)? {
                Upload::Accepted => summary.completed += 1,
                Upload::Duplicate => summary.duplicates += 1,
                Upload::ConnectionLost => continue 'session,
            }
            pending_upload = None;
        }

        loop {
            if conn.writer.send(&Message::Next).is_err() {
                continue 'session;
            }
            let reply = match conn.recv() {
                Ok(m) => m,
                Err(_) => continue 'session,
            };
            match reply {
                Message::Job(spec) => {
                    let writer = Arc::clone(&conn.writer);
                    let shard = spec.shard;
                    let progress = move |completed: usize, total: usize| {
                        // Fire-and-forget: a lost progress frame never
                        // fails a run (the upload path handles the loss).
                        let _ = writer.send(&Message::Progress {
                            shard,
                            completed,
                            total,
                        });
                    };
                    let body = runner(&spec, &progress)?;
                    pending_upload = Some((shard, body.clone()));
                    match upload(&mut conn, shard, body)? {
                        Upload::Accepted => summary.completed += 1,
                        Upload::Duplicate => summary.duplicates += 1,
                        Upload::ConnectionLost => continue 'session,
                    }
                    pending_upload = None;
                }
                Message::Wait { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Message::Done => return Ok(summary),
                Message::Error { msg } => return Err(format!("coordinator: {msg}")),
                other => return Err(format!("unexpected reply {other:?}")),
            }
        }
    }
}

enum Upload {
    Accepted,
    Duplicate,
    ConnectionLost,
}

/// Sends one artifact and interprets the reply. `Err` is reserved for
/// protocol-level failures (the coordinator explicitly rejected the
/// artifact); transport loss returns [`Upload::ConnectionLost`] so the
/// caller can reconnect and re-send.
fn upload(conn: &mut Conn, shard: usize, body: String) -> Result<Upload, String> {
    if conn
        .writer
        .send(&Message::Artifact { shard, body })
        .is_err()
    {
        return Ok(Upload::ConnectionLost);
    }
    match conn.recv() {
        Ok(Message::ArtifactOk { .. }) => Ok(Upload::Accepted),
        Ok(Message::ArtifactDup { .. }) => Ok(Upload::Duplicate),
        Ok(Message::Error { msg }) => Err(format!("artifact rejected: {msg}")),
        Ok(other) => Err(format!("unexpected artifact reply {other:?}")),
        Err(_) => Ok(Upload::ConnectionLost),
    }
}
