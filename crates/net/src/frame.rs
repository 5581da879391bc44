//! The wire frame protocol of the cluster substrate (DESIGN.md §10).
//!
//! Every message between driver and workers is one *frame*:
//!
//! ```text
//! magic u16 (0xF2AC) | version u8 | type u8 | seq u32 | payload_len u32
//! | payload (payload_len bytes) | checksum u64 (FNV-1a over all prior bytes)
//! ```
//!
//! All integers are big-endian. `payload_len` is capped at
//! [`MAX_PAYLOAD`]; a peer announcing more is treated as protocol
//! corruption before any allocation happens, so a hostile or corrupted
//! length field cannot OOM the receiver. The trailing checksum covers the
//! header *and* payload — the same FNV-1a the in-process steal protocol
//! uses for its unit encoding, promoted to every frame.
//!
//! Frames carry opaque byte blobs (job spec, aggregation maps, reports)
//! whose encodings live in [`crate::blob`]; the frame layer only frames,
//! checks and routes them.

use fractal_runtime::steal::{encode_unit, StolenUnit};
use fractal_runtime::wire::{self, unseal, Reader, Writer};
use std::io::{self, Read, Write};

/// Frame magic: the first two wire bytes of every fractal-net message.
pub const MAGIC: u16 = 0xF2AC;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Hard cap on a frame's payload length (64 MiB).
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Fixed header size: magic + version + type + seq + payload_len.
pub const HEADER_LEN: usize = 12;
/// Trailing checksum size.
pub const CHECKSUM_LEN: usize = 8;
/// `Done { round: SHUTDOWN_ROUND }` is the session-shutdown sentinel.
pub const SHUTDOWN_ROUND: u32 = u32::MAX;
/// `StealReply { word: MISS_WORD, unit: None }` marks a steal miss.
pub const MISS_WORD: u64 = u64::MAX;

/// Who is speaking in a `Hello`. The discriminant is the wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The driver process.
    Driver = 0,
    /// A worker process.
    Worker = 1,
    /// A `fractal client` submitting jobs to a `fractal serve` daemon.
    Client = 2,
}

/// What a [`Frame::JobEvent`] announces about a job's lifecycle. The
/// discriminant is the wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Admission succeeded; `value` is the assigned job id.
    Accepted = 0,
    /// Admission failed (queue full, tenant over quota); `detail` says why.
    Rejected = 1,
    /// The job is waiting in the dispatch queue; `value` is its rank in
    /// dispatch order (1 = next).
    Queued = 2,
    /// The job started executing on the worker pool.
    Running = 3,
    /// Partial progress: `value` root words completed this round so far.
    Progress = 4,
    /// The job finished; its result can be fetched with `Result`.
    Done = 5,
    /// The job was cancelled before completing.
    Cancelled = 6,
    /// The job failed; `detail` carries the error text.
    Failed = 7,
}

impl EventKind {
    fn from_code(code: u8) -> Result<Self, FrameError> {
        use EventKind::*;
        let all = [
            Accepted, Rejected, Queued, Running, Progress, Done, Cancelled, Failed,
        ];
        let kind = all.get(usize::from(code)).copied();
        kind.ok_or(FrameError::Malformed("event kind"))
    }

    /// Whether this event ends the job's lifecycle.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            EventKind::Rejected | EventKind::Done | EventKind::Cancelled | EventKind::Failed
        )
    }
}

/// One protocol message. See DESIGN.md §10 for the full grammar and the
/// failure semantics of each type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Session opener, both directions: who am I, how many cores.
    Hello { role: Role, cores: u32 },
    /// Driver → worker: run `roots` for `round`. The first Assign of a
    /// session carries the job blob (graph + app spec); iterative apps
    /// ship the previous round's merged aggregation as `seed`.
    /// `recovery` passes re-execute a dead worker's words after the round
    /// was already declared done.
    Assign {
        round: u32,
        recovery: bool,
        job: Option<Vec<u8>>,
        seed: Option<Vec<u8>>,
        roots: Vec<u64>,
    },
    /// Thief worker → driver: give me work. Driver → victim worker:
    /// relayed on behalf of a thief (the driver mediates all steals).
    StealRequest { round: u32 },
    /// Victim worker → driver → thief worker. `word` names the
    /// transferred root explicitly so the driver records the ownership
    /// transfer without decoding `unit`; a miss is
    /// `word == MISS_WORD, unit == None`. The unit payload itself is the
    /// checksummed `encode_unit` format of the in-process steal protocol.
    StealReply {
        round: u32,
        word: u64,
        unit: Option<Vec<u8>>,
    },
    /// Thief → driver: the stolen unit decoded cleanly (metrics only).
    Ack { round: u32, word: u64 },
    /// Thief → driver: the unit payload was corrupt; the driver re-owns
    /// the word and serves it to another puller.
    Nack { round: u32, word: u64 },
    /// Worker → driver at end of round: local result count, the
    /// unfinalized aggregation blob and the worker's metrics report.
    AggFlush {
        round: u32,
        count: u64,
        agg: Vec<u8>,
        report: Vec<u8>,
    },
    /// Worker → driver, periodic: liveness plus the root words completed
    /// since the last beat.
    Heartbeat { round: u32, completed: Vec<u64> },
    /// Driver → workers: the round's words are all complete — drain and
    /// flush. `round == SHUTDOWN_ROUND` ends the session.
    Done { round: u32 },
    /// Client → serve daemon: run `app` (a [`crate::blob`] app-spec blob)
    /// against the registered graph `snapshot` on behalf of `tenant` at
    /// the given `priority` (higher runs first among queued jobs).
    /// `token` is a client-generated idempotency token: resubmitting the
    /// same token after an ambiguous failure returns the original job
    /// instead of double-admitting.
    Submit {
        tenant: String,
        priority: u8,
        snapshot: String,
        app: Vec<u8>,
        token: String,
    },
    /// Client → serve daemon: what state is job `job` in? Answered with a
    /// [`Frame::JobEvent`] describing the current lifecycle state.
    Status { job: u64 },
    /// Client → serve daemon: stop job `job`. Queued jobs are dropped;
    /// running jobs are interrupted at the next round boundary check.
    Cancel { job: u64 },
    /// Job result, both directions: a client sends `Result` with empty
    /// blobs to fetch; the daemon replies with the federated result —
    /// `count` plus the app-specific aggregation (`agg`) and the
    /// `fractal-metrics/1` job report (`report`) as blobs.
    Result {
        job: u64,
        count: u64,
        agg: Vec<u8>,
        report: Vec<u8>,
    },
    /// Serve daemon → client: a job lifecycle event (admission verdicts,
    /// queue position, progress, terminal states). `detail`/`value` are
    /// interpreted per [`EventKind`]. `event_seq` is the event's 1-based
    /// position in the job's event log within the daemon's current epoch
    /// (0 = unsequenced: always deliver); a reconnecting client resumes
    /// with `Watch { after_seq }` to skip events it already saw.
    JobEvent {
        job: u64,
        kind: EventKind,
        detail: String,
        value: u64,
        event_seq: u64,
    },
    /// Multiplexing envelope for shared worker sessions: `inner` is one
    /// complete encoded frame belonging to job `job`. The receiving side
    /// demultiplexes by job id onto per-job virtual sessions, so several
    /// concurrent jobs share one physical worker connection.
    Mux { job: u64, inner: Vec<u8> },
    /// Client → serve daemon: subscribe this connection to `job`'s event
    /// stream, replaying buffered events with `event_seq > after_seq`
    /// first. The reconnect primitive behind `fractal client --wait`:
    /// after a disconnect the client re-sends `Watch` with the last
    /// sequence number it saw and loses nothing.
    Watch { job: u64, after_seq: u64 },
    /// Worker → driver: a unit of round `round` panicked with no retries
    /// left, so the round cannot flush. `message` is the panic's. The
    /// driver fails the job naming it.
    UnitFailed { round: u32, message: String },
}

impl Frame {
    /// A session opener from `role`.
    pub fn hello(role: Role, cores: u32) -> Frame {
        Frame::Hello { role, cores }
    }

    /// The steal reply that carries no work.
    pub fn miss(round: u32) -> Frame {
        Frame::StealReply {
            round,
            word: MISS_WORD,
            unit: None,
        }
    }

    /// The steal reply that hands over root word `word`: a root unit has
    /// an empty prefix, so the driver can encode one as well as a worker.
    pub fn root_unit(round: u32, word: u64) -> Frame {
        let unit = encode_unit(&StolenUnit {
            prefix: Vec::new(),
            word,
        });
        Frame::StealReply {
            round,
            word,
            unit: Some(unit),
        }
    }

    fn type_code(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Assign { .. } => 2,
            Frame::StealRequest { .. } => 3,
            Frame::StealReply { .. } => 4,
            Frame::Ack { .. } => 5,
            Frame::Nack { .. } => 6,
            Frame::AggFlush { .. } => 7,
            Frame::Heartbeat { .. } => 8,
            Frame::Done { .. } => 9,
            Frame::Submit { .. } => 10,
            Frame::Status { .. } => 11,
            Frame::Cancel { .. } => 12,
            Frame::Result { .. } => 13,
            Frame::JobEvent { .. } => 14,
            Frame::Mux { .. } => 15,
            Frame::Watch { .. } => 16,
            Frame::UnitFailed { .. } => 17,
        }
    }
}

/// Why a frame failed to decode. Every variant is reachable from
/// adversarial input without panicking or allocating unboundedly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header + payload + checksum require.
    Truncated,
    /// First two bytes are not [`MAGIC`].
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame type code.
    UnknownType(u8),
    /// Announced payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The trailing FNV-1a checksum does not match.
    ChecksumMismatch,
    /// Payload parsed but bytes were left over.
    TrailingBytes,
    /// Structurally invalid payload (bad flag, inner length overrun, …).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            FrameError::Oversized(n) => write!(f, "payload length {n} exceeds cap"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after payload"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<wire::Error> for FrameError {
    fn from(e: wire::Error) -> Self {
        match e {
            wire::Error::Truncated => FrameError::Truncated,
            wire::Error::TrailingBytes => FrameError::TrailingBytes,
            wire::Error::BadUtf8 => FrameError::Malformed("utf-8 string"),
        }
    }
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut p = Writer::new();
    match frame {
        Frame::Hello { role, cores } => {
            p.u8(*role as u8);
            p.u32(*cores);
        }
        Frame::Assign {
            round,
            recovery,
            job,
            seed,
            roots,
        } => {
            p.u32(*round);
            let mut flags = 0u8;
            if *recovery {
                flags |= 1;
            }
            if job.is_some() {
                flags |= 2;
            }
            if seed.is_some() {
                flags |= 4;
            }
            p.u8(flags);
            if let Some(j) = job {
                p.bytes(j);
            }
            if let Some(s) = seed {
                p.bytes(s);
            }
            p.words(roots);
        }
        Frame::StealRequest { round } => p.u32(*round),
        Frame::StealReply { round, word, unit } => {
            p.u32(*round);
            p.u64(*word);
            match unit {
                Some(u) => {
                    p.u8(1);
                    p.bytes(u);
                }
                None => p.u8(0),
            }
        }
        Frame::Ack { round, word } | Frame::Nack { round, word } => {
            p.u32(*round);
            p.u64(*word);
        }
        Frame::AggFlush {
            round,
            count,
            agg,
            report,
        } => {
            p.u32(*round);
            p.u64(*count);
            p.bytes(agg);
            p.bytes(report);
        }
        Frame::Heartbeat { round, completed } => {
            p.u32(*round);
            p.words(completed);
        }
        Frame::Done { round } => p.u32(*round),
        Frame::Submit {
            tenant,
            priority,
            snapshot,
            app,
            token,
        } => {
            p.str(tenant);
            p.u8(*priority);
            p.str(snapshot);
            p.bytes(app);
            p.str(token);
        }
        Frame::Status { job } => p.u64(*job),
        Frame::Cancel { job } => p.u64(*job),
        Frame::Result {
            job,
            count,
            agg,
            report,
        } => {
            p.u64(*job);
            p.u64(*count);
            p.bytes(agg);
            p.bytes(report);
        }
        Frame::JobEvent {
            job,
            kind,
            detail,
            value,
            event_seq,
        } => {
            p.u64(*job);
            p.u8(*kind as u8);
            p.str(detail);
            p.u64(*value);
            p.u64(*event_seq);
        }
        Frame::Mux { job, inner } => {
            p.u64(*job);
            p.bytes(inner);
        }
        Frame::Watch { job, after_seq } => {
            p.u64(*job);
            p.u64(*after_seq);
        }
        Frame::UnitFailed { round, message } => {
            p.u32(*round);
            p.str(message);
        }
    }
    p.finish()
}

fn decode_payload(ty: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Reader::new(payload);
    let frame = match ty {
        1 => {
            let all = [Role::Driver, Role::Worker, Role::Client];
            let role = all.get(usize::from(c.u8()?)).copied();
            let role = role.ok_or(FrameError::Malformed("hello role"))?;
            Frame::Hello {
                role,
                cores: c.u32()?,
            }
        }
        2 => {
            let round = c.u32()?;
            let flags = c.u8()?;
            if flags & !7 != 0 {
                return Err(FrameError::Malformed("assign flags"));
            }
            let job = if flags & 2 != 0 {
                Some(c.bytes()?)
            } else {
                None
            };
            let seed = if flags & 4 != 0 {
                Some(c.bytes()?)
            } else {
                None
            };
            Frame::Assign {
                round,
                recovery: flags & 1 != 0,
                job,
                seed,
                roots: c.words()?,
            }
        }
        3 => Frame::StealRequest { round: c.u32()? },
        4 => {
            let round = c.u32()?;
            let word = c.u64()?;
            let unit = match c.u8()? {
                0 => None,
                1 => Some(c.bytes()?),
                _ => return Err(FrameError::Malformed("steal reply flag")),
            };
            Frame::StealReply { round, word, unit }
        }
        5 => Frame::Ack {
            round: c.u32()?,
            word: c.u64()?,
        },
        6 => Frame::Nack {
            round: c.u32()?,
            word: c.u64()?,
        },
        7 => Frame::AggFlush {
            round: c.u32()?,
            count: c.u64()?,
            agg: c.bytes()?,
            report: c.bytes()?,
        },
        8 => Frame::Heartbeat {
            round: c.u32()?,
            completed: c.words()?,
        },
        9 => Frame::Done { round: c.u32()? },
        10 => Frame::Submit {
            tenant: c.str()?,
            priority: c.u8()?,
            snapshot: c.str()?,
            app: c.bytes()?,
            token: c.str()?,
        },
        11 => Frame::Status { job: c.u64()? },
        12 => Frame::Cancel { job: c.u64()? },
        13 => Frame::Result {
            job: c.u64()?,
            count: c.u64()?,
            agg: c.bytes()?,
            report: c.bytes()?,
        },
        14 => Frame::JobEvent {
            job: c.u64()?,
            kind: EventKind::from_code(c.u8()?)?,
            detail: c.str()?,
            value: c.u64()?,
            event_seq: c.u64()?,
        },
        15 => Frame::Mux {
            job: c.u64()?,
            inner: c.bytes()?,
        },
        16 => Frame::Watch {
            job: c.u64()?,
            after_seq: c.u64()?,
        },
        17 => Frame::UnitFailed {
            round: c.u32()?,
            message: c.str()?,
        },
        other => return Err(FrameError::UnknownType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Encodes one frame with the given sequence number into its full wire
/// representation (header + payload + checksum).
pub fn encode_frame(seq: u32, frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    let mut out = Writer::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.u16(MAGIC);
    out.u8(VERSION);
    out.u8(frame.type_code());
    out.u32(seq);
    out.bytes(&payload);
    out.seal()
}

/// Checks a frame header and returns `(type, seq, payload_len)`. The
/// length is capped here, before anything is allocated for it.
fn decode_header(header: &[u8]) -> Result<(u8, u32, usize), FrameError> {
    let mut h = Reader::new(header);
    let (magic, version, ty, seq, len) = (h.u16()?, h.u8()?, h.u8()?, h.u32()?, h.u32()?);
    if magic != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    Ok((ty, seq, len as usize))
}

/// Decodes one complete frame from a buffer. The buffer must contain
/// exactly one frame; extra bytes are [`FrameError::TrailingBytes`].
pub fn decode_frame(buf: &[u8]) -> Result<(u32, Frame), FrameError> {
    let (ty, seq, len) = decode_header(buf)?;
    let total = HEADER_LEN + len + CHECKSUM_LEN;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    if buf.len() > total {
        return Err(FrameError::TrailingBytes);
    }
    let (body, carried, computed) = unseal(buf)?;
    if carried != computed {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((seq, decode_payload(ty, &body[HEADER_LEN..])?))
}

/// Reads one frame from a stream. Returns `UnexpectedEof` when the peer
/// closed the connection (cleanly between frames or mid-frame) and
/// `InvalidData` on protocol corruption.
/// Checks that a session opened with `role`'s `Hello` and returns the
/// cores it announced.
pub fn expect_hello(opened: io::Result<(u32, Frame)>, role: Role) -> io::Result<u32> {
    match opened? {
        (_, Frame::Hello { role: r, cores }) if r == role => Ok(cores),
        _ => Err(crate::invalid(format!("expected {role:?} Hello"))),
    }
}

pub fn read_frame(r: &mut impl Read) -> io::Result<(u32, Frame)> {
    let invalid = |e: FrameError| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut buf = vec![0u8; HEADER_LEN];
    r.read_exact(&mut buf)?;
    let (_, _, len) = decode_header(&buf).map_err(invalid)?;
    buf.resize(HEADER_LEN + len + CHECKSUM_LEN, 0);
    r.read_exact(&mut buf[HEADER_LEN..])?;
    decode_frame(&buf).map_err(invalid)
}

/// Writes one frame to a stream.
pub fn write_frame(w: &mut impl Write, seq: u32, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(seq, frame))
}

// ---- transport abstraction ----

/// The receiving half of a frame transport. A TCP stream is the physical
/// implementation; the serve daemon and the multiplexed worker sessions
/// implement it over in-process channels that carry demultiplexed
/// [`Frame::Mux`] payloads, so the driver and worker session loops run
/// unchanged over either.
pub trait FrameSource: Send {
    /// Blocks for the next frame. An `Err` means the transport is dead
    /// (peer hung up, channel closed); callers treat it as a disconnect.
    fn recv(&mut self) -> io::Result<(u32, Frame)>;
}

/// The sending half of a frame transport.
pub trait FrameSink: Send {
    /// Writes one frame. An `Err` marks the transport dead.
    fn send(&mut self, seq: u32, frame: &Frame) -> io::Result<()>;
    /// Best-effort teardown: unblock the peer's reader if possible.
    fn close(&mut self);
}

impl FrameSource for std::net::TcpStream {
    fn recv(&mut self) -> io::Result<(u32, Frame)> {
        read_frame(self)
    }
}

impl FrameSink for std::net::TcpStream {
    fn send(&mut self, seq: u32, frame: &Frame) -> io::Result<()> {
        write_frame(self, seq, frame)
    }
    fn close(&mut self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// A [`FrameSource`] over an in-process channel: the receiving end of one
/// job's demultiplexed [`Frame::Mux`] traffic. Dropping the sender is the
/// channel's EOF — `recv` then errors like a closed socket.
pub struct ChannelSource(pub std::sync::mpsc::Receiver<(u32, Frame)>);

impl FrameSource for ChannelSource {
    fn recv(&mut self) -> io::Result<(u32, Frame)> {
        self.0
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "mux channel closed"))
    }
}

/// The sending twin of [`ChannelSource`]: a sink unit tests read back
/// frame by frame.
#[cfg(test)]
pub(crate) struct ChannelSink(pub std::sync::mpsc::Sender<(u32, Frame)>);

#[cfg(test)]
impl FrameSink for ChannelSink {
    fn send(&mut self, seq: u32, frame: &Frame) -> io::Result<()> {
        self.0
            .send((seq, frame.clone()))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "receiver gone"))
    }
    fn close(&mut self) {}
}

/// A [`FrameSink`] that wraps every frame in a [`Frame::Mux`] envelope for
/// one job and writes it to a *shared* physical sink. The physical
/// sequence counter is shared across all jobs on the connection; per-job
/// sequence numbers live inside the envelope, so each virtual session
/// keeps its own uninterrupted seq space.
pub struct MuxSink<K: FrameSink> {
    job: u64,
    physical: std::sync::Arc<fractal_runtime::sync::Mutex<K>>,
    physical_seq: std::sync::Arc<fractal_runtime::sync::AtomicU32>,
}

impl<K: FrameSink> MuxSink<K> {
    pub fn new(
        job: u64,
        physical: std::sync::Arc<fractal_runtime::sync::Mutex<K>>,
        physical_seq: std::sync::Arc<fractal_runtime::sync::AtomicU32>,
    ) -> Self {
        MuxSink {
            job,
            physical,
            physical_seq,
        }
    }
}

impl<K: FrameSink> FrameSink for MuxSink<K> {
    fn send(&mut self, seq: u32, frame: &Frame) -> io::Result<()> {
        let env = Frame::Mux {
            job: self.job,
            inner: encode_frame(seq, frame),
        };
        // ordering: Relaxed — the physical sequence number only needs
        // fetch_add uniqueness; the envelope write is serialized by the
        // physical sink's lock.
        let pseq = self
            .physical_seq
            .fetch_add(1, fractal_runtime::sync::Ordering::Relaxed);
        let mut w = self.physical.lock();
        w.send(pseq, &env)
    }
    fn close(&mut self) {
        // The physical connection is shared with other jobs; closing a
        // virtual session must not tear it down.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_runtime::steal::corrupt_payload;
    use fractal_runtime::wire::fnv1a64;

    /// `samples! { Variant {fields}, {fields}; ... }` lists each variant's
    /// samples. The expansion matches exhaustively on the listed variants,
    /// so a `Frame` variant without a sample does not compile.
    macro_rules! samples {
        ($($variant:ident $($fields:tt),+;)+) => {{
            fn _every_variant_sampled(f: &Frame) {
                match f {
                    $(Frame::$variant { .. } => {})+
                }
            }
            vec![$($(Frame::$variant $fields),+),+]
        }};
    }

    fn sample_frames() -> Vec<Frame> {
        samples! {
            Hello { role: Role::Worker, cores: 8 }, { role: Role::Driver, cores: 0 },
                { role: Role::Client, cores: 0 };
            Assign {
                round: 0,
                recovery: false,
                job: Some(vec![1, 2, 3]),
                seed: None,
                roots: vec![5, 9, 13],
            }, {
                round: 3,
                recovery: true,
                job: None,
                seed: Some(vec![0xAA; 17]),
                roots: vec![],
            };
            StealRequest { round: 2 };
            StealReply { round: 2, word: 77, unit: Some(vec![9; 20]) },
                { round: 2, word: MISS_WORD, unit: None };
            Ack { round: 1, word: 42 };
            Nack { round: 1, word: 43 };
            AggFlush { round: 4, count: 1234, agg: vec![7; 33], report: vec![8; 9] };
            Heartbeat { round: 4, completed: vec![1, 2, 3, u64::MAX - 1] },
                { round: 4, completed: vec![] };
            Done { round: 5 }, { round: SHUTDOWN_ROUND };
            Submit {
                tenant: "acme".into(),
                priority: 7,
                snapshot: "gen:mico:200:1".into(),
                app: vec![1, 2, 3, 4],
                token: "acme-42-a9".into(),
            }, {
                tenant: String::new(),
                priority: 0,
                snapshot: String::new(),
                app: vec![],
                token: String::new(),
            };
            Status { job: 42 };
            Cancel { job: u64::MAX };
            Result { job: 3, count: 0, agg: vec![], report: vec![] },
                { job: 9, count: 123_456, agg: vec![5; 21], report: vec![6; 13] };
            JobEvent {
                job: 9,
                kind: EventKind::Progress,
                detail: "round 2".into(),
                value: 17,
                event_seq: 3,
            }, {
                job: 10,
                kind: EventKind::Rejected,
                detail: "tenant quota".into(),
                value: 0,
                event_seq: 0,
            };
            Mux { job: 4, inner: encode_frame(11, &Frame::Done { round: 1 }) };
            Watch { job: 12, after_seq: 5 }, { job: 0, after_seq: 0 };
            UnitFailed { round: 3, message: "filter rejects subgraph".into() };
        }
    }

    #[test]
    fn round_trip_every_frame_type() {
        for (i, f) in sample_frames().into_iter().enumerate() {
            let seq = 100 + i as u32;
            let wire = encode_frame(seq, &f);
            let (got_seq, got) = decode_frame(&wire).expect("decode");
            assert_eq!(got_seq, seq);
            assert_eq!(got, f, "frame {i}");
            // And through the stream reader.
            let mut cursor = std::io::Cursor::new(wire);
            let (s2, f2) = read_frame(&mut cursor).expect("stream decode");
            assert_eq!((s2, f2), (seq, f));
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error() {
        for f in sample_frames() {
            let wire = encode_frame(7, &f);
            for cut in 0..wire.len() {
                let err = decode_frame(&wire[..cut]).unwrap_err();
                assert!(
                    matches!(err, FrameError::Truncated | FrameError::ChecksumMismatch),
                    "cut at {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        for f in sample_frames() {
            let mut wire = encode_frame(3, &f);
            if wire.len() > HEADER_LEN + CHECKSUM_LEN {
                corrupt_payload(&mut wire[HEADER_LEN..]);
            } else {
                wire[HEADER_LEN] ^= 0x40; // flip a checksum byte
            }
            assert!(decode_frame(&wire).is_err());
        }
    }

    #[test]
    fn bad_magic_version_and_type_rejected() {
        let mut wire = encode_frame(1, &Frame::Done { round: 0 });
        wire[0] ^= 0xFF;
        assert_eq!(decode_frame(&wire).unwrap_err(), FrameError::BadMagic);

        let mut wire = encode_frame(1, &Frame::Done { round: 0 });
        wire[2] = 99;
        assert_eq!(decode_frame(&wire).unwrap_err(), FrameError::BadVersion(99));

        let mut wire = encode_frame(1, &Frame::Done { round: 0 });
        wire[3] = 200;
        // Checksum covers the type byte, so recompute it to reach the
        // type check.
        let n = wire.len();
        let sum = fnv1a64(&wire[..n - CHECKSUM_LEN]);
        wire[n - CHECKSUM_LEN..].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(
            decode_frame(&wire).unwrap_err(),
            FrameError::UnknownType(200)
        );
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut wire = encode_frame(1, &Frame::Done { round: 0 });
        wire[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert_eq!(
            decode_frame(&wire).unwrap_err(),
            FrameError::Oversized(MAX_PAYLOAD + 1)
        );
        // Stream path too: the reader must error out, not allocate 4 GiB.
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = encode_frame(1, &Frame::StealRequest { round: 9 });
        wire.push(0);
        assert_eq!(decode_frame(&wire).unwrap_err(), FrameError::TrailingBytes);
    }

    /// Builds a frame's wire bytes from a raw payload, checksummed, so
    /// payload-level malformations survive the outer checks.
    fn frame_with_payload(ty: u8, payload: Writer) -> Vec<u8> {
        let mut wire = Writer::new();
        wire.u16(MAGIC);
        wire.u8(VERSION);
        wire.u8(ty);
        wire.u32(1);
        wire.bytes(&payload.finish());
        wire.seal()
    }

    #[test]
    fn inner_word_count_cannot_overallocate() {
        // A Heartbeat whose word count claims far more words than the
        // payload holds.
        let mut payload = Writer::new();
        payload.u32(4); // round
        payload.u32(u32::MAX); // claimed word count
        assert_eq!(
            decode_frame(&frame_with_payload(8, payload)).unwrap_err(),
            FrameError::Truncated
        );
    }

    #[test]
    fn bad_event_kind_rejected() {
        let mut payload = Writer::new();
        payload.u64(1); // job
        payload.u8(99); // invalid kind
        payload.str("x");
        payload.u64(0);
        payload.u64(0); // event_seq
        assert_eq!(
            decode_frame(&frame_with_payload(14, payload)).unwrap_err(),
            FrameError::Malformed("event kind")
        );
    }

    #[test]
    fn non_utf8_strings_rejected() {
        // A Submit whose tenant bytes are invalid UTF-8.
        let mut payload = Writer::new();
        payload.bytes(&[0xFF, 0xFE, 0x80]); // tenant
        payload.u8(0); // priority
        payload.str("snap");
        payload.bytes(&[]); // app
        payload.str("tok");
        assert_eq!(
            decode_frame(&frame_with_payload(10, payload)).unwrap_err(),
            FrameError::Malformed("utf-8 string")
        );
    }

    #[test]
    fn bad_hello_client_role_byte_rejected() {
        let mut payload = Writer::new();
        payload.u8(3); // only 0/1/2 are valid roles
        payload.u32(4);
        assert_eq!(
            decode_frame(&frame_with_payload(1, payload)).unwrap_err(),
            FrameError::Malformed("hello role")
        );
    }

    #[test]
    fn mux_envelope_round_trips_inner_frame() {
        let inner = Frame::AggFlush {
            round: 2,
            count: 7,
            agg: vec![1, 2],
            report: vec![3],
        };
        let env = Frame::Mux {
            job: 99,
            inner: encode_frame(5, &inner),
        };
        let wire = encode_frame(1, &env);
        let (_, got) = decode_frame(&wire).expect("outer decode");
        match got {
            Frame::Mux { job, inner: bytes } => {
                assert_eq!(job, 99);
                let (iseq, iframe) = decode_frame(&bytes).expect("inner decode");
                assert_eq!((iseq, iframe), (5, inner));
            }
            other => panic!("expected Mux, got {other:?}"),
        }
    }
}
