//! `fractal client`: the submit/status/cancel/result side of the job
//! server protocol.
//!
//! A client connection is a plain frame stream: `Hello{Client}` ⇄
//! `Hello{Driver}`, then requests. The same connection doubles as the
//! event stream for every job submitted on it, so replies to explicit
//! requests (`Status`, `Result`, …) can interleave with pushed
//! [`Frame::JobEvent`]s; the helpers below skip events they are not
//! waiting for.
//!
//! Degraded links: [`Client::wait_resumable`] survives transient
//! disconnects. Every event carries its position in the job's event log
//! (`event_seq`); the client remembers the last position it delivered,
//! reconnects with capped exponential backoff plus deterministic jitter,
//! and re-subscribes with [`Frame::Watch`]`{ after_seq }` so the daemon
//! replays exactly the missed suffix — no event lost, none duplicated.

use crate::blob::{self, AppSpec};
use crate::frame::{expect_hello, read_frame, write_frame, EventKind, Frame, Role};
use crate::invalid;
use fractal_runtime::fault::splitmix64;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A job's terminal outcome as observed by [`Client::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobTerminal {
    /// Finished; fetch the payload with [`Client::fetch_result`].
    Done {
        count: u64,
    },
    Cancelled,
    Failed(String),
}

impl JobTerminal {
    /// The outcome a job event announces; `None` for a non-terminal event.
    fn from_event(kind: EventKind, detail: String, value: u64) -> Option<JobTerminal> {
        match kind {
            EventKind::Done => Some(JobTerminal::Done { count: value }),
            EventKind::Cancelled => Some(JobTerminal::Cancelled),
            EventKind::Failed | EventKind::Rejected => Some(JobTerminal::Failed(detail)),
            _ => None,
        }
    }
}

/// How [`Client::wait_resumable`] rides out a flaky or restarting
/// server: capped exponential backoff with deterministic jitter between
/// reconnect attempts, and a per-frame read deadline so a silently dead
/// link is detected rather than waited on forever.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// First retry delay; doubles per failed attempt within one outage.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Consecutive failed reconnect attempts before giving up.
    pub max_attempts: u32,
    /// Jitter seed (deterministic per client; varies per attempt).
    pub seed: u64,
    /// Per-frame read deadline while waiting on the event stream. A
    /// timeout counts as a disconnect and triggers a reconnect.
    pub read_timeout: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(2000),
            max_attempts: 60,
            seed: 0x5EED_C11E_47FA_u64,
            read_timeout: Duration::from_secs(30),
        }
    }
}

impl ReconnectPolicy {
    /// The delay before reconnect attempt `attempt` (0-based):
    /// `min(base << attempt, cap)` plus up to 25% deterministic jitter.
    fn delay(&self, attempt: u32) -> Duration {
        let base = self.base_delay.as_micros() as u64;
        let cap = self.max_delay.as_micros() as u64;
        let exp = base
            .checked_shl(attempt.min(20))
            .unwrap_or(u64::MAX)
            .min(cap)
            .max(1);
        let jitter = splitmix64(self.seed ^ u64::from(attempt)) % (exp / 4 + 1);
        Duration::from_micros(exp + jitter)
    }
}

/// One connection to a serve daemon.
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    seq: u32,
    /// The daemon's address, for reconnects.
    peer: Option<SocketAddr>,
    /// Successful reconnects performed by [`Client::wait_resumable`].
    reconnects: u64,
}

impl Client {
    /// Connects and handshakes as a client.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let peer = writer.peer_addr().ok();
        let reader = writer.try_clone()?;
        let mut c = Client {
            reader,
            writer,
            seq: 0,
            peer,
            reconnects: 0,
        };
        c.handshake()?;
        Ok(c)
    }

    fn handshake(&mut self) -> io::Result<()> {
        self.send(&Frame::hello(Role::Client, 0))?;
        expect_hello(read_frame(&mut self.reader), Role::Driver).map(drop)
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        write_frame(&mut self.writer, seq, frame)
    }

    fn recv(&mut self) -> io::Result<Frame> {
        read_frame(&mut self.reader).map(|(_, f)| f)
    }

    /// Successful reconnects performed so far (feeds the
    /// `client_reconnects` metric).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Submits a job. Returns the assigned job id, or an error carrying
    /// the daemon's rejection reason. `token` is the client-generated
    /// idempotency token — resubmitting the same token after an
    /// ambiguous failure returns the originally admitted job id.
    pub fn submit(
        &mut self,
        tenant: &str,
        priority: u8,
        snapshot: &str,
        app: &AppSpec,
        token: &str,
    ) -> io::Result<u64> {
        self.send(&Frame::Submit {
            tenant: tenant.to_string(),
            priority,
            snapshot: snapshot.to_string(),
            app: blob::encode_app_spec(app),
            token: token.to_string(),
        })?;
        loop {
            match self.recv()? {
                Frame::JobEvent {
                    kind: EventKind::Accepted,
                    value,
                    ..
                } => return Ok(value),
                Frame::JobEvent {
                    kind: EventKind::Rejected,
                    detail,
                    ..
                } => return Err(io::Error::other(detail)),
                // Events for other jobs on this connection.
                _ => {}
            }
        }
    }

    /// Blocks until `job` reaches a terminal state, invoking `on_event`
    /// for every event observed for it along the way. Dies on the first
    /// disconnect; [`Client::wait_resumable`] is the robust variant.
    pub fn wait_with(
        &mut self,
        job: u64,
        on_event: impl FnMut(EventKind, &str, u64),
    ) -> io::Result<JobTerminal> {
        self.follow(job, None, on_event)
    }

    /// [`Client::wait_with`] without an event callback.
    pub fn wait(&mut self, job: u64) -> io::Result<JobTerminal> {
        self.wait_with(job, |_, _, _| {})
    }

    /// Like [`Client::wait_with`], but survives transient disconnects
    /// (including a daemon restart): on any stream error or read-deadline
    /// expiry it reconnects with capped exponential backoff + jitter and
    /// resumes the event stream from the last event it delivered, via
    /// [`Frame::Watch`]. Sequenced events (`event_seq > 0`) are
    /// deduplicated across reconnects, so the callback sees each of them
    /// at most once per daemon epoch; unsequenced events pass through.
    pub fn wait_resumable(
        &mut self,
        job: u64,
        policy: &ReconnectPolicy,
        on_event: impl FnMut(EventKind, &str, u64),
    ) -> io::Result<JobTerminal> {
        // Subscribe explicitly: unlike `wait_with`, this path must work
        // on a connection that did not submit the job (post-restart).
        self.reader.set_read_timeout(Some(policy.read_timeout)).ok();
        self.send(&Frame::Watch { job, after_seq: 0 })
            .or_else(|_| self.reconnect_and_watch(job, 0, policy))?;
        self.follow(job, Some(policy), on_event)
    }

    /// Reads `job`'s events until a terminal one. With a `policy`, a
    /// disconnect or an expired read deadline reconnects and resumes after
    /// the last sequenced event delivered; without one it is an error.
    fn follow(
        &mut self,
        job: u64,
        policy: Option<&ReconnectPolicy>,
        mut on_event: impl FnMut(EventKind, &str, u64),
    ) -> io::Result<JobTerminal> {
        let mut last_seq = 0u64;
        loop {
            let frame = match (self.recv(), policy) {
                (Ok(frame), _) => frame,
                (Err(e), None) => return Err(e),
                (Err(_), Some(policy)) => {
                    self.reconnect_and_watch(job, last_seq, policy)?;
                    continue;
                }
            };
            let Frame::JobEvent {
                job: j,
                kind,
                detail,
                value,
                event_seq,
            } = frame
            else {
                continue;
            };
            // A sequenced event at or before `last_seq` is a replayed
            // duplicate.
            if j != job || (event_seq > 0 && event_seq <= last_seq) {
                continue;
            }
            last_seq = last_seq.max(event_seq);
            on_event(kind, &detail, value);
            if let Some(terminal) = JobTerminal::from_event(kind, detail, value) {
                return Ok(terminal);
            }
        }
    }

    /// Re-dials the daemon (backoff per `policy`), re-handshakes and
    /// re-subscribes with `Watch { after_seq }`. On success the client's
    /// streams are replaced in place.
    fn reconnect_and_watch(
        &mut self,
        job: u64,
        after_seq: u64,
        policy: &ReconnectPolicy,
    ) -> io::Result<()> {
        let peer = self
            .peer
            .ok_or_else(|| invalid("cannot reconnect: unknown peer address"))?;
        let mut last_err = io::Error::new(io::ErrorKind::NotConnected, "no attempts");
        for attempt in 0..policy.max_attempts {
            std::thread::sleep(policy.delay(attempt));
            match Client::connect(peer) {
                Ok(fresh) => {
                    self.reader = fresh.reader;
                    self.writer = fresh.writer;
                    self.seq = fresh.seq;
                    self.reconnects += 1;
                    self.reader.set_read_timeout(Some(policy.read_timeout)).ok();
                    match self.send(&Frame::Watch { job, after_seq }) {
                        Ok(()) => return Ok(()),
                        Err(e) => last_err = e, // raced a dying server; retry
                    }
                }
                Err(e) => last_err = e,
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "gave up after {} reconnect attempts: {last_err}",
                policy.max_attempts
            ),
        ))
    }

    /// Asks for `job`'s current lifecycle state.
    pub fn status(&mut self, job: u64) -> io::Result<(EventKind, String, u64)> {
        self.send(&Frame::Status { job })?;
        self.next_event_for(job)
    }

    /// Requests cancellation; the reply reflects the state at receipt
    /// (queued jobs cancel immediately, running jobs asynchronously, and a
    /// job whose admission is still being journaled once it is).
    pub fn cancel(&mut self, job: u64) -> io::Result<(EventKind, String, u64)> {
        self.send(&Frame::Cancel { job })?;
        self.next_event_for(job)
    }

    /// Fetches a finished job's result: `(count, agg blob, report blob)`.
    /// Errors if the job is not in the `Done` state.
    pub fn fetch_result(&mut self, job: u64) -> io::Result<(u64, Vec<u8>, Vec<u8>)> {
        self.send(&Frame::Result {
            job,
            count: 0,
            agg: Vec::new(),
            report: Vec::new(),
        })?;
        loop {
            match self.recv()? {
                Frame::Result {
                    job: j,
                    count,
                    agg,
                    report,
                } if j == job => return Ok((count, agg, report)),
                Frame::JobEvent {
                    job: j,
                    kind,
                    detail,
                    ..
                } if j == job && kind.is_terminal() => {
                    return Err(invalid(format!(
                        "job {job} has no result: {kind:?} {detail}"
                    )))
                }
                Frame::JobEvent { job: j, kind, .. } if j == job => {
                    return Err(invalid(format!("job {job} not finished: {kind:?}")))
                }
                _ => {} // events for other jobs
            }
        }
    }

    fn next_event_for(&mut self, job: u64) -> io::Result<(EventKind, String, u64)> {
        loop {
            if let Frame::JobEvent {
                job: j,
                kind,
                detail,
                value,
                ..
            } = self.recv()?
            {
                if j == job {
                    return Ok((kind, detail, value));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered_deterministically() {
        let p = ReconnectPolicy::default();
        let d0 = p.delay(0);
        assert!(d0 >= p.base_delay);
        assert_eq!(p.delay(0), d0, "jitter must be deterministic");
        // The exponential part saturates at the cap (+ ≤25% jitter).
        let late = p.delay(30);
        assert!(late <= p.max_delay + p.max_delay / 4 + Duration::from_micros(1));
        // Attempts produce distinct jitter.
        assert_ne!(p.delay(1), p.delay(2));
    }
}
