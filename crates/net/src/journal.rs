//! Write-ahead job journal: the serve daemon's crash-consistency spine.
//!
//! Every admission-control decision and every flush-is-commit boundary
//! is recorded as a checksummed, versioned, append-only record and
//! fsynced before the daemon acts on it. On restart the daemon replays
//! the journal, re-admits incomplete jobs in their original
//! priority/FIFO order and resumes each from its last committed
//! word-set, so a SIGKILL mid-job loses at most the uncommitted tail of
//! work — never a whole job, and never exactly-once-ness of results.
//!
//! Record wire format (big-endian, mirroring the frame protocol):
//!
//! ```text
//! | magic u32 | version u8 | type u8 | payload_len u32 |
//! | payload (payload_len bytes) | checksum u64 (FNV-1a over all prior) |
//! ```
//!
//! Replay is torn-write tolerant: decoding stops at the first record
//! that is truncated or fails its checksum, keeping the longest valid
//! prefix. Opening the journal for append truncates the file back to
//! that prefix so a torn tail can never be extended into a valid-looking
//! record by later appends.

use crate::frame::MAX_PAYLOAD;
use fractal_runtime::wire::{unseal, Reader, Writer};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

/// Journal record magic ("FJ" + record-format tag).
pub const JOURNAL_MAGIC: u32 = 0xF24A_4E01;
/// Journal format version.
pub const JOURNAL_VERSION: u8 = 1;
/// Fixed header size: magic + version + type + payload_len.
pub const RECORD_HEADER_LEN: usize = 10;
/// Trailing checksum size.
pub const RECORD_CHECKSUM_LEN: usize = 8;
/// The journal file inside `--journal <dir>`.
pub const JOURNAL_FILE: &str = "jobs.journal";

/// One durable event in a job's lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// The admission decision: written (and fsynced) *before* the client
    /// sees `Accepted`, so an acknowledged job can never be lost.
    JobAdmitted {
        job: u64,
        /// Client-generated idempotency token: a retry of the same
        /// logical submission after an ambiguous failure re-uses the
        /// token and must not double-admit.
        token: String,
        tenant: String,
        priority: u8,
        /// Original FIFO position; replay re-admits in this order.
        submit_seq: u64,
        snapshot: String,
        /// Encoded [`crate::blob::AppSpec`].
        app: Vec<u8>,
    },
    /// The scheduler dispatched the job.
    JobStarted { job: u64 },
    /// A flush-is-commit boundary: the driver merged every worker's
    /// `AggFlush` for a round. Carries the *cumulative* resume state so
    /// only the latest record matters for recovery.
    WordSetCommitted {
        job: u64,
        /// Rounds fully committed (resume starts at this round index).
        rounds_done: u32,
        /// Cumulative count through the committed rounds.
        count: u64,
        /// Cumulative aggregation state (app-specific blob).
        agg: Vec<u8>,
    },
    /// Terminal: finished, with the full result payload so a restarted
    /// daemon can still serve `Result` fetches.
    JobFinished {
        job: u64,
        count: u64,
        agg: Vec<u8>,
        report: Vec<u8>,
    },
    /// Terminal: cancelled.
    JobCancelled { job: u64 },
    /// Terminal: failed.
    JobFailed { job: u64, error: String },
}

impl Record {
    fn type_code(&self) -> u8 {
        match self {
            Record::JobAdmitted { .. } => 1,
            Record::JobStarted { .. } => 2,
            Record::WordSetCommitted { .. } => 3,
            Record::JobFinished { .. } => 4,
            Record::JobCancelled { .. } => 5,
            Record::JobFailed { .. } => 6,
        }
    }
}

fn encode_payload(r: &Record) -> Vec<u8> {
    let mut out = Writer::new();
    match r {
        Record::JobAdmitted {
            job,
            token,
            tenant,
            priority,
            submit_seq,
            snapshot,
            app,
        } => {
            out.u64(*job);
            out.str(token);
            out.str(tenant);
            out.u8(*priority);
            out.u64(*submit_seq);
            out.str(snapshot);
            out.bytes(app);
        }
        Record::JobStarted { job } => out.u64(*job),
        Record::WordSetCommitted {
            job,
            rounds_done,
            count,
            agg,
        } => {
            out.u64(*job);
            out.u32(*rounds_done);
            out.u64(*count);
            out.bytes(agg);
        }
        Record::JobFinished {
            job,
            count,
            agg,
            report,
        } => {
            out.u64(*job);
            out.u64(*count);
            out.bytes(agg);
            out.bytes(report);
        }
        Record::JobCancelled { job } => out.u64(*job),
        Record::JobFailed { job, error } => {
            out.u64(*job);
            out.str(error);
        }
    }
    out.finish()
}

fn decode_payload(code: u8, payload: &[u8]) -> Option<Record> {
    let mut r = Reader::new(payload);
    let rec = match code {
        1 => Record::JobAdmitted {
            job: r.u64().ok()?,
            token: r.str().ok()?,
            tenant: r.str().ok()?,
            priority: r.u8().ok()?,
            submit_seq: r.u64().ok()?,
            snapshot: r.str().ok()?,
            app: r.bytes().ok()?,
        },
        2 => Record::JobStarted { job: r.u64().ok()? },
        3 => Record::WordSetCommitted {
            job: r.u64().ok()?,
            rounds_done: r.u32().ok()?,
            count: r.u64().ok()?,
            agg: r.bytes().ok()?,
        },
        4 => Record::JobFinished {
            job: r.u64().ok()?,
            count: r.u64().ok()?,
            agg: r.bytes().ok()?,
            report: r.bytes().ok()?,
        },
        5 => Record::JobCancelled { job: r.u64().ok()? },
        6 => Record::JobFailed {
            job: r.u64().ok()?,
            error: r.str().ok()?,
        },
        _ => return None,
    };
    r.finish().ok()?;
    Some(rec)
}

/// Encodes one record into its durable representation (header + payload
/// + checksum).
pub fn encode_record(r: &Record) -> Vec<u8> {
    let payload = encode_payload(r);
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    let mut out = Writer::with_capacity(RECORD_HEADER_LEN + payload.len() + RECORD_CHECKSUM_LEN);
    out.u32(JOURNAL_MAGIC);
    out.u8(JOURNAL_VERSION);
    out.u8(r.type_code());
    out.bytes(&payload);
    out.seal()
}

/// Attempts to decode one record at the start of `buf`. Returns the
/// record and the bytes it consumed, or `None` if the prefix is
/// truncated, torn, or corrupt — the replay stop condition.
pub fn decode_record(buf: &[u8]) -> Option<(Record, usize)> {
    let mut h = Reader::new(buf);
    let (magic, version, code, len) = (h.u32().ok()?, h.u8().ok()?, h.u8().ok()?, h.u32().ok()?);
    if magic != JOURNAL_MAGIC || version != JOURNAL_VERSION || len > MAX_PAYLOAD {
        return None;
    }
    let total = RECORD_HEADER_LEN + len as usize + RECORD_CHECKSUM_LEN;
    let (body, carried, computed) = unseal(buf.get(..total)?).ok()?;
    if carried != computed {
        return None;
    }
    let rec = decode_payload(code, &body[RECORD_HEADER_LEN..])?;
    Some((rec, total))
}

/// Replays `bytes`, returning every record of the longest valid prefix
/// plus that prefix's byte length.
pub fn replay_prefix(bytes: &[u8]) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut pos = 0;
    while let Some((rec, used)) = decode_record(&bytes[pos..]) {
        records.push(rec);
        pos += used;
    }
    (records, pos)
}

/// How a job ended. The serve daemon's job table and journal replay share
/// it; each variant is journaled as one terminal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminal {
    Finished {
        count: u64,
        agg: Vec<u8>,
        report: Vec<u8>,
    },
    Cancelled,
    Failed(String),
}

impl Terminal {
    /// The record that journals `job` ending this way.
    pub fn record(&self, job: u64) -> Record {
        match self {
            Terminal::Finished { count, agg, report } => Record::JobFinished {
                job,
                count: *count,
                agg: agg.clone(),
                report: report.clone(),
            },
            Terminal::Cancelled => Record::JobCancelled { job },
            Terminal::Failed(error) => Record::JobFailed {
                job,
                error: error.clone(),
            },
        }
    }
}

/// One job's folded journal history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayJob {
    pub token: String,
    pub tenant: String,
    pub priority: u8,
    pub submit_seq: u64,
    pub snapshot: String,
    /// Encoded [`crate::blob::AppSpec`].
    pub app: Vec<u8>,
    /// How many `JobStarted` records were journaled (one per dispatch:
    /// more than one means the daemon crashed mid-run and restarted the
    /// job). Doubles as the event-stream epoch: each restart re-emits
    /// lifecycle events under a higher epoch so sequence numbers never
    /// move backwards across a daemon restart.
    pub starts: u64,
    /// Latest committed word-set: `(rounds_done, cumulative count,
    /// cumulative agg blob)`. Later commits supersede earlier ones.
    pub committed: Option<(u32, u64, Vec<u8>)>,
    pub terminal: Option<Terminal>,
}

impl ReplayJob {
    /// Incomplete jobs are re-admitted on restart.
    pub fn incomplete(&self) -> bool {
        self.terminal.is_none()
    }
}

/// The daemon-relevant result of replaying a journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Valid records replayed (drives the `journal_replayed` counter).
    pub replayed: u64,
    /// Byte length of the valid prefix (the torn tail starts here).
    pub valid_len: u64,
    /// Per-job folded state, keyed by job id (iteration is id-ordered).
    pub jobs: BTreeMap<u64, ReplayJob>,
}

impl Replay {
    /// Folds a record stream into per-job state. Records for jobs with
    /// no preceding `JobAdmitted` are tolerated and dropped: the
    /// write-ahead discipline makes them impossible to *write*, but a
    /// hand-edited or partially-copied journal must still replay.
    pub fn fold(records: Vec<Record>, valid_len: usize) -> Replay {
        let mut rep = Replay {
            replayed: records.len() as u64,
            valid_len: valid_len as u64,
            jobs: BTreeMap::new(),
        };
        for rec in records {
            let (job, terminal) = match rec {
                Record::JobAdmitted {
                    job,
                    token,
                    tenant,
                    priority,
                    submit_seq,
                    snapshot,
                    app,
                } => {
                    rep.jobs.entry(job).or_insert(ReplayJob {
                        token,
                        tenant,
                        priority,
                        submit_seq,
                        snapshot,
                        app,
                        starts: 0,
                        committed: None,
                        terminal: None,
                    });
                    continue;
                }
                Record::JobStarted { job } => {
                    if let Some(j) = rep.jobs.get_mut(&job) {
                        j.starts += 1;
                    }
                    continue;
                }
                Record::WordSetCommitted {
                    job,
                    rounds_done,
                    count,
                    agg,
                } => {
                    if let Some(j) = rep.jobs.get_mut(&job) {
                        j.committed = Some((rounds_done, count, agg));
                    }
                    continue;
                }
                Record::JobFinished {
                    job,
                    count,
                    agg,
                    report,
                } => (job, Terminal::Finished { count, agg, report }),
                Record::JobCancelled { job } => (job, Terminal::Cancelled),
                Record::JobFailed { job, error } => (job, Terminal::Failed(error)),
            };
            if let Some(j) = rep.jobs.get_mut(&job) {
                j.terminal = Some(terminal);
            }
        }
        rep
    }
}

/// An open, append-only journal. Every [`Journal::append`] is fsynced
/// before it returns: callers act on journaled state only after the
/// record is durable (write-ahead).
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, replays the
    /// existing contents, truncates any torn tail, and returns the
    /// journal positioned for append plus the replay result.
    pub fn open(dir: &Path) -> io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = replay_prefix(&bytes);
        if valid_len < bytes.len() {
            // Torn tail: cut it off so appends extend the valid prefix.
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        use std::io::Seek as _;
        file.seek(io::SeekFrom::Start(valid_len as u64))?;
        let replay = Replay::fold(records, valid_len);
        Ok((Journal { file }, replay))
    }

    /// Appends one record and fsyncs it. On return the record is durable.
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        let bytes = encode_record(rec);
        self.file.write_all(&bytes)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::JobAdmitted {
                job: 1,
                token: "tok-a".into(),
                tenant: "acme".into(),
                priority: 3,
                submit_seq: 0,
                snapshot: "gen:mico:300:11".into(),
                app: vec![1, 2, 3],
            },
            Record::JobStarted { job: 1 },
            Record::WordSetCommitted {
                job: 1,
                rounds_done: 1,
                count: 42,
                agg: vec![9, 9],
            },
            Record::JobFinished {
                job: 1,
                count: 99,
                agg: vec![4],
                report: vec![5, 6],
            },
            Record::JobCancelled { job: 2 },
            Record::JobFailed {
                job: 3,
                error: "no live workers".into(),
            },
        ]
    }

    #[test]
    fn record_round_trip() {
        for rec in sample_records() {
            let bytes = encode_record(&rec);
            let (back, used) = decode_record(&bytes).expect("decode");
            assert_eq!(back, rec);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn replay_stops_at_torn_tail() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&encode_record(r));
        }
        let full_len = bytes.len();
        // Whole stream replays.
        let (replayed, len) = replay_prefix(&bytes);
        assert_eq!(replayed, recs);
        assert_eq!(len, full_len);
        // Chop mid-final-record: everything before it survives.
        bytes.truncate(full_len - 3);
        let (replayed, len) = replay_prefix(&bytes);
        assert_eq!(replayed.len(), recs.len() - 1);
        assert!(len <= bytes.len());
    }

    #[test]
    fn replay_stops_at_corrupt_record() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        let mut offsets = Vec::new();
        for r in &recs {
            offsets.push(bytes.len());
            bytes.extend_from_slice(&encode_record(r));
        }
        // Flip one byte inside the third record's payload.
        bytes[offsets[2] + RECORD_HEADER_LEN] ^= 0xFF;
        let (replayed, len) = replay_prefix(&bytes);
        assert_eq!(replayed.len(), 2, "replay must stop at the corruption");
        assert_eq!(len, offsets[2]);
    }

    #[test]
    fn fold_builds_job_state_machine() {
        let rep = Replay::fold(sample_records(), 123);
        assert_eq!(rep.replayed, 6);
        assert_eq!(rep.valid_len, 123);
        let j1 = &rep.jobs[&1];
        assert_eq!(j1.starts, 1);
        assert_eq!(j1.committed.as_ref().unwrap().0, 1);
        assert!(matches!(
            j1.terminal,
            Some(Terminal::Finished { count: 99, .. })
        ));
        // A folded terminal journals as the record it was folded from.
        assert_eq!(j1.terminal.as_ref().unwrap().record(1), sample_records()[3]);
        assert!(!j1.incomplete());
        // Orphan terminal records (no JobAdmitted) are dropped.
        assert!(!rep.jobs.contains_key(&2));
        assert!(!rep.jobs.contains_key(&3));
    }

    #[test]
    fn open_truncates_torn_tail_and_appends() {
        let dir = std::env::temp_dir().join(format!(
            "fractal-journal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut j, rep) = Journal::open(&dir).expect("open fresh");
            assert_eq!(rep.replayed, 0);
            for r in sample_records() {
                j.append(&r).expect("append");
            }
        }
        // Tear the tail: append garbage plus a partial record.
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&encode_record(&Record::JobStarted { job: 9 })[..7]);
        std::fs::write(&path, &bytes).unwrap();
        {
            let (mut j, rep) = Journal::open(&dir).expect("reopen");
            assert_eq!(rep.replayed, 6);
            assert_eq!(rep.valid_len as usize, good_len);
            // The torn bytes are gone from disk…
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, good_len);
            // …and a fresh append lands after the valid prefix.
            j.append(&Record::JobStarted { job: 9 }).expect("append");
        }
        let (_, rep) = Journal::open(&dir).expect("final open");
        assert_eq!(rep.replayed, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
