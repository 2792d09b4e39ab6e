//! The TCP coordinator: accepts workers, dispatches shards, persists
//! artifacts, survives worker loss.
//!
//! One thread per connection; all dispatch state lives in a shared
//! [`ShardLedger`] behind a mutex. The failure/reassignment state machine
//! is the ledger's (see `idld_campaign::ledger`); this module adds the
//! transport-level triggers:
//!
//! - a connection error or EOF **releases** the worker's in-flight shards
//!   back to the head of the queue;
//! - a worker silent for [`STALE_BEATS`](crate::env::STALE_BEATS)
//!   heartbeat intervals loses its claim to the next worker that asks —
//!   even with the connection nominally open (hung host, dead NAT entry);
//! - a `NEXT` that finds nothing claimable is held, not answered with
//!   `WAIT`: the handler sleeps on the ledger's condition variable, which
//!   every completion, release and disconnect signals, and re-claims on
//!   each wake-up and at least once per heartbeat (the staleness bound
//!   is time-driven, so only the timeout can make a silent worker's
//!   shard stealable);
//! - an uploaded artifact is decoded and validated *before* the shard is
//!   counted done, and persisted to `dir/shard-<i>.part` under the ledger
//!   lock, so a `.part` file on disk is always a complete, decodable
//!   artifact and a killed coordinator resumes from exactly the set of
//!   persisted shards.
//!
//! The coordinator never runs campaign jobs itself; it is I/O-bound and
//! cheap, which is what lets a loopback deployment pin every core to
//! workers.

use crate::env::STALE_BEATS;
use crate::frame::{read_frame, write_frame};
use crate::proto::{JobSpec, Message, PROTO_VERSION};
use idld_campaign::ledger::{part_path, Claim, ShardLedger};
use idld_campaign::{decode_shard, SHARD_MAGIC};
use idld_obs::MetricsRegistry;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Coordinator parameters.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// The campaign every JOB assignment describes. `base.shards` is the
    /// authoritative shard count; `base.shard` is overwritten per
    /// assignment.
    pub base: JobSpec,
    /// Directory artifacts are persisted into (`shard-<i>.part`).
    pub dir: PathBuf,
    /// Heartbeat interval workers are expected to honor; the staleness
    /// bound is [`STALE_BEATS`] multiples of it.
    pub heartbeat_ms: u64,
    /// Mark shards whose persisted artifact already decodes cleanly as
    /// done instead of re-dispatching them.
    pub resume: bool,
    /// Echo worker progress to stderr.
    pub verbose: bool,
}

/// What a completed serve reports.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Shards satisfied from persisted artifacts before dispatch began.
    pub resumed: usize,
    /// Coordinator-side service metrics: `shards_dispatched`,
    /// `shards_retried`, `shards_resumed`, `artifacts_accepted`,
    /// `artifacts_duplicate`, `workers_connected`, `workers_lost`,
    /// `heartbeats`, and the `shard_wall_us` per-shard worker wall
    /// histogram.
    pub metrics: MetricsRegistry,
}

struct Shared {
    ledger: Mutex<ShardLedger>,
    /// Signalled whenever the ledger or `active` changes in a way a
    /// waiter might be waiting for: a shard completes or is released, or
    /// a connection ends.
    changed: Condvar,
    dir: PathBuf,
    base: JobSpec,
    heartbeat_ms: u64,
    verbose: bool,
    /// Live connection handlers; decremented only under the ledger lock
    /// so a waiter on `changed` cannot miss the last one.
    active: AtomicUsize,
    next_worker: AtomicU64,
}

impl Shared {
    fn stale_after(&self) -> Duration {
        Duration::from_millis(self.heartbeat_ms * STALE_BEATS as u64)
    }

    fn lock(&self) -> MutexGuard<'_, ShardLedger> {
        self.ledger.lock().expect("ledger lock")
    }

    /// Waits on `changed` for at most `timeout`, returning the re-taken
    /// guard.
    fn wait<'a>(
        &self,
        ledger: MutexGuard<'a, ShardLedger>,
        timeout: Duration,
    ) -> MutexGuard<'a, ShardLedger> {
        self.changed
            .wait_timeout(ledger, timeout)
            .expect("ledger lock")
            .0
    }

    /// Answers a `NEXT`: `Some(shard)` to run, or `None` once every
    /// shard is done. Until either holds, the request is held and
    /// re-claimed on every wake-up — a completion or release wakes it at
    /// once, and the heartbeat timeout lets a shard that has just gone
    /// stale be stolen within one interval of the staleness bound.
    fn claim_held(&self, worker: u64) -> Option<usize> {
        let heartbeat = Duration::from_millis(self.heartbeat_ms);
        let mut ledger = self.lock();
        loop {
            match ledger.claim(worker, Instant::now(), self.stale_after()) {
                Claim::Assign(shard) => return Some(shard),
                Claim::Finished => return None,
                Claim::Wait => ledger = self.wait(ledger, heartbeat),
            }
        }
    }

    /// A connection handler is finished: requeue whatever its worker
    /// still held and wake every waiter.
    fn disconnect(&self, worker: u64) {
        let mut ledger = self.lock();
        let released = ledger.release(worker);
        self.active.fetch_sub(1, Ordering::SeqCst);
        drop(ledger);
        self.changed.notify_all();
        if !released.is_empty() {
            eprintln!("netd: worker {worker} lost; shard(s) {released:?} requeued");
        }
    }
}

/// How often `serve` looks for a new connection while it waits.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Runs a campaign's dispatch loop on `listener` until every shard has a
/// persisted artifact, then returns. Workers may connect, die, and
/// reconnect in any order; the set of `.part` files under `opts.dir` is
/// complete when this returns.
///
/// # Errors
///
/// Configuration and listener-level failures only — worker failures are
/// absorbed by reassignment.
pub fn serve(listener: TcpListener, opts: ServeOpts) -> Result<ServeOutcome, String> {
    opts.base
        .validate_as_template()
        .map_err(|e| format!("job template: {e}"))?;
    if opts.heartbeat_ms == 0 {
        return Err("heartbeat interval must be positive".to_string());
    }
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;

    let mut ledger = ShardLedger::new(opts.base.shards);
    let resumed = if opts.resume {
        ledger.resume_from_dir(&opts.dir)
    } else {
        0
    };
    if opts.verbose && resumed > 0 {
        eprintln!(
            "netd: resumed {resumed}/{} shard(s) from {}",
            opts.base.shards,
            opts.dir.display()
        );
    }

    let shared = Arc::new(Shared {
        ledger: Mutex::new(ledger),
        changed: Condvar::new(),
        dir: opts.dir,
        base: opts.base,
        heartbeat_ms: opts.heartbeat_ms,
        verbose: opts.verbose,
        active: AtomicUsize::new(0),
        next_worker: AtomicU64::new(1),
    });

    // The standard library has no way to wait on a listener and a
    // condition variable at once, so new connections are polled for
    // between waits; the last completion still ends the loop at once.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener nonblocking: {e}"))?;
    while !shared.lock().all_done() {
        match listener.accept() {
            Ok((stream, peer)) => {
                let worker = shared.next_worker.fetch_add(1, Ordering::Relaxed);
                if shared.verbose {
                    eprintln!("netd: worker {worker} connected from {peer}");
                }
                let sh = Arc::clone(&shared);
                sh.active.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    handle(&sh, stream, worker);
                    sh.disconnect(worker);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let ledger = shared.lock();
                if !ledger.all_done() {
                    drop(shared.wait(ledger, ACCEPT_POLL));
                }
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    drop(listener);

    // Grace period: let connected workers collect their DONE before the
    // handler threads are abandoned (they hold no ledger state by now —
    // every shard is complete).
    let deadline =
        Instant::now() + Duration::from_millis(shared.heartbeat_ms * 4).max(Duration::from_secs(2));
    let mut ledger = shared.lock();
    while shared.active.load(Ordering::SeqCst) > 0 {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        ledger = shared.wait(ledger, left);
    }

    Ok(ServeOutcome {
        resumed,
        metrics: ledger.metrics().clone(),
    })
}

/// One connection's message loop. On return, [`Shared::disconnect`]
/// releases the worker's claims; replies are only ever written from this
/// thread, so frames never interleave.
fn handle(sh: &Shared, mut stream: TcpStream, worker: u64) {
    let _ = stream.set_nodelay(true);
    // Generous read timeout: a healthy worker produces traffic every
    // heartbeat interval, so double the staleness bound means the peer is
    // gone for good (its shards were stealable long before this fires).
    let _ = stream.set_read_timeout(Some(sh.stale_after() * 2));

    let send = |stream: &mut TcpStream, msg: &Message| -> bool {
        write_frame(stream, &msg.encode()).is_ok()
    };

    // Handshake: the first frame must be a HELLO with matching grammar
    // and artifact-format versions.
    match read_frame(&mut stream)
        .map_err(|e| e.to_string())
        .and_then(|p| Message::decode(&p))
    {
        Ok(Message::Hello { proto, magic }) => {
            let mismatch = if proto != PROTO_VERSION {
                Some(format!(
                    "protocol mismatch: worker speaks {proto:?}, coordinator {PROTO_VERSION:?}"
                ))
            } else if magic != SHARD_MAGIC {
                Some(format!(
                    "artifact format mismatch: worker emits {magic:?}, coordinator merges {SHARD_MAGIC:?}"
                ))
            } else {
                None
            };
            if let Some(msg) = mismatch {
                eprintln!("netd: refusing worker {worker}: {msg}");
                send(&mut stream, &Message::Error { msg });
                return;
            }
        }
        Ok(other) => {
            send(
                &mut stream,
                &Message::Error {
                    msg: format!("expected HELLO, got {other:?}"),
                },
            );
            return;
        }
        Err(e) => {
            eprintln!("netd: worker {worker} handshake failed: {e}");
            return;
        }
    }
    {
        let mut ledger = sh.lock();
        ledger.metrics_mut().incr("workers_connected");
    }
    if !send(
        &mut stream,
        &Message::Welcome {
            shards: sh.base.shards,
        },
    ) {
        return;
    }

    loop {
        let msg = match read_frame(&mut stream) {
            Ok(payload) => match Message::decode(&payload) {
                Ok(m) => m,
                Err(e) => {
                    send(&mut stream, &Message::Error { msg: e });
                    break;
                }
            },
            Err(e) => {
                if sh.verbose && !e.is_clean_eof() {
                    eprintln!("netd: worker {worker} connection lost: {e}");
                }
                break;
            }
        };
        match msg {
            Message::Next => {
                let reply = match sh.claim_held(worker) {
                    Some(shard) => {
                        if sh.verbose {
                            eprintln!("netd: shard {shard} -> worker {worker}");
                        }
                        let mut spec = sh.base.clone();
                        spec.shard = shard;
                        Message::Job(spec)
                    }
                    None => Message::Done,
                };
                if !send(&mut stream, &reply) {
                    break;
                }
            }
            Message::Beat => {
                let mut ledger = sh.lock();
                ledger.beat(worker, Instant::now());
                ledger.metrics_mut().incr("heartbeats");
            }
            Message::Progress {
                shard,
                completed,
                total,
            } => {
                sh.lock().beat(worker, Instant::now());
                if sh.verbose {
                    eprintln!("netd: worker {worker} shard {shard}: {completed}/{total} runs");
                }
            }
            Message::Artifact { shard, body } => {
                let reply = accept_artifact(sh, worker, shard, &body);
                let fatal = matches!(reply, Message::Error { .. });
                if !send(&mut stream, &reply) || fatal {
                    break;
                }
            }
            other => {
                send(
                    &mut stream,
                    &Message::Error {
                        msg: format!("unexpected message {other:?}"),
                    },
                );
                break;
            }
        }
    }
}

/// Validates, persists, and records an uploaded artifact. The decode
/// happens outside the ledger lock (it is the expensive part); the
/// done-check, file write, and completion are atomic under it, so a
/// `.part` file on disk always corresponds to a shard the ledger counts
/// done — and only the first of two racing twins ever writes.
fn accept_artifact(sh: &Shared, worker: u64, shard: usize, body: &str) -> Message {
    let art = match decode_shard(body) {
        Ok(a) => a,
        Err(e) => {
            return Message::Error {
                msg: format!("artifact for shard {shard} does not decode: {e}"),
            }
        }
    };
    if art.shard != shard || art.shards != sh.base.shards || shard >= sh.base.shards {
        return Message::Error {
            msg: format!(
                "artifact labeled shard {}/{} but the assignment was {shard}/{}",
                art.shard, art.shards, sh.base.shards
            ),
        };
    }
    let mut ledger = sh.lock();
    if ledger.is_done(shard) {
        ledger.complete(shard, art.wall_us); // counts the duplicate
        if sh.verbose {
            eprintln!("netd: duplicate artifact for shard {shard} from worker {worker} discarded");
        }
        return Message::ArtifactDup { shard };
    }
    let path = part_path(&sh.dir, shard);
    if let Err(e) = std::fs::write(&path, body) {
        return Message::Error {
            msg: format!("cannot persist {}: {e}", path.display()),
        };
    }
    ledger.complete(shard, art.wall_us);
    drop(ledger);
    sh.changed.notify_all();
    if sh.verbose {
        eprintln!(
            "netd: shard {shard} complete ({} records, worker {worker}) -> {}",
            art.records.len(),
            path.display()
        );
    }
    Message::ArtifactOk { shard }
}
