//! The link-degradation fault envelope: deterministic delay / duplicate
//! / reorder faults injected at the [`FrameSource`]/[`FrameSink`]
//! transport layer, plus the receive-side duplicate suppression that
//! makes the degraded link safe to run real jobs over.
//!
//! Model: an armed link is *at-least-once with bounded reordering* —
//! frames may arrive late, twice, or one position out of order, but are
//! never corrupted (corruption is the frame checksum's job) and never
//! silently dropped. Receivers restore exactly-once delivery with a
//! sliding window over `(sequence number, content hash)` pairs. Sequence
//! numbers alone are NOT unique on a session link: steal replies echo
//! the *requester's* seq so the driver can match them, and that space
//! overlaps the session's own monotonic counter — but an injected
//! duplicate is a byte-identical copy of a recent frame, so the pair
//! identifies it exactly while echoed-seq coincidences (different bytes)
//! pass through. The driver's merge paths (`AggFlush` in particular) are
//! not idempotent, which is exactly why dedup is part of the envelope
//! contract and not optional.
//!
//! All decisions come from [`fractal_runtime::LinkFaultInjector`] —
//! seeded, budgeted, deterministic — so chaos runs replay exactly.

use crate::frame::{encode_frame, Frame, FrameSink, FrameSource};
use fractal_runtime::wire::fnv1a64;
use fractal_runtime::{LinkFaultAction, LinkFaultInjector};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

/// How many recent sequence numbers the duplicate filter remembers.
/// Reordering is hold-back-one, so duplicates land within a couple of
/// frames of the original; 16 leaves a wide margin.
pub const DEDUP_WINDOW: usize = 16;

/// A [`FrameSink`] wrapper that degrades the link per its injector's
/// deterministic plan: delays, duplicates, or holds back one frame until
/// its successor is sent. `close` flushes any held-back frame so the
/// envelope never *loses* traffic.
pub struct FaultySink<K: FrameSink> {
    inner: K,
    injector: Arc<LinkFaultInjector>,
    stash: Option<(u32, Frame)>,
}

impl<K: FrameSink> FaultySink<K> {
    pub fn new(inner: K, injector: Arc<LinkFaultInjector>) -> Self {
        FaultySink {
            inner,
            injector,
            stash: None,
        }
    }

    fn flush_stash(&mut self) -> io::Result<()> {
        if let Some((seq, frame)) = self.stash.take() {
            self.inner.send(seq, &frame)?;
        }
        Ok(())
    }
}

impl<K: FrameSink> FrameSink for FaultySink<K> {
    fn send(&mut self, seq: u32, frame: &Frame) -> io::Result<()> {
        // While a frame is held back, pass traffic through unfaulted:
        // one reorder in flight at a time keeps the displacement bounded
        // (and the dedup window small).
        let action = if self.stash.is_some() {
            LinkFaultAction::None
        } else {
            self.injector.on_send()
        };
        match action {
            LinkFaultAction::Reorder => {
                self.stash = Some((seq, frame.clone()));
                Ok(())
            }
            LinkFaultAction::Duplicate => {
                self.inner.send(seq, frame)?;
                self.inner.send(seq, frame)?;
                self.flush_stash()
            }
            LinkFaultAction::DelayUs(us) => {
                std::thread::sleep(std::time::Duration::from_micros(us));
                self.inner.send(seq, frame)?;
                self.flush_stash()
            }
            LinkFaultAction::None => {
                self.inner.send(seq, frame)?;
                self.flush_stash()
            }
        }
    }

    fn close(&mut self) {
        // A held-back final frame must still go out (e.g. the session's
        // AggFlush); losing it would turn a "degraded" link into a
        // "lossy" one and break the flush-is-commit contract.
        let _ = self.flush_stash();
        self.inner.close();
    }
}

/// The receive-side duplicate filter: remembers the last
/// [`DEDUP_WINDOW`] `(seq, content hash)` pairs of one session and
/// reports whether a frame is fresh. The content hash is essential: the
/// seq space alone is shared between a session's own counter and echoed
/// steal-reply seqs (see the module doc), so seq-only dedup would drop
/// legitimate traffic. Shared by [`DedupSource`] and the serve daemon's
/// per-job router demux.
#[derive(Debug, Default)]
pub struct DedupWindow {
    recent: VecDeque<(u32, u64)>,
}

impl DedupWindow {
    pub fn new() -> Self {
        DedupWindow::default()
    }

    /// True when the `(seq, content_hash)` pair has not been seen
    /// recently (and records it).
    pub fn fresh(&mut self, seq: u32, content_hash: u64) -> bool {
        if self.recent.contains(&(seq, content_hash)) {
            return false;
        }
        if self.recent.len() == DEDUP_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back((seq, content_hash));
        true
    }

    /// The canonical content hash of a decoded frame: FNV-1a over its
    /// wire encoding (the encoding is canonical, so re-encoding a decoded
    /// frame reproduces the sender's bytes exactly).
    pub fn content_hash(seq: u32, frame: &Frame) -> u64 {
        fnv1a64(&encode_frame(seq, frame))
    }
}

/// A [`FrameSource`] wrapper applying [`DedupWindow`] suppression:
/// injected duplicates are dropped before the session logic sees them.
pub struct DedupSource<S: FrameSource> {
    inner: S,
    window: DedupWindow,
}

impl<S: FrameSource> DedupSource<S> {
    pub fn new(inner: S) -> Self {
        DedupSource {
            inner,
            window: DedupWindow::new(),
        }
    }
}

impl<S: FrameSource> FrameSource for DedupSource<S> {
    fn recv(&mut self) -> io::Result<(u32, Frame)> {
        loop {
            let (seq, frame) = self.inner.recv()?;
            let hash = DedupWindow::content_hash(seq, &frame);
            if self.window.fresh(seq, hash) {
                return Ok((seq, frame));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ChannelSink, ChannelSource};
    use fractal_runtime::LinkFaultConfig;
    use std::sync::mpsc::channel;

    fn beat(completed: u64) -> Frame {
        Frame::Heartbeat {
            round: 0,
            completed: vec![completed],
        }
    }

    #[test]
    fn faulty_sink_never_loses_frames_and_dedup_restores_stream() {
        let (tx, rx) = channel();
        let injector = Arc::new(LinkFaultInjector::new(LinkFaultConfig::flaky(1234)));
        let mut sink = FaultySink::new(ChannelSink(tx), Arc::clone(&injector));
        let n = 300u64;
        for i in 0..n {
            sink.send(i as u32, &beat(i)).expect("send");
        }
        sink.close();
        drop(sink);

        assert!(injector.injected() > 0, "flaky plan must actually fire");

        // Replay the degraded stream through the dedup filter.
        let mut source = DedupSource::new(ChannelSource(rx));
        let mut got = Vec::new();
        while let Ok((seq, frame)) = source.recv() {
            got.push((seq, frame));
        }
        // Exactly-once: every frame arrives exactly one time…
        assert_eq!(got.len() as u64, n);
        let mut seqs: Vec<u32> = got.iter().map(|(s, _)| *s).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..n as u32).collect::<Vec<_>>());
        // …and payloads still pair with their sequence numbers.
        for (seq, frame) in &got {
            assert_eq!(frame, &beat(*seq as u64));
        }
    }

    #[test]
    fn close_flushes_a_held_back_frame() {
        // A reorder-only plan with period 1 holds the first frame back.
        let cfg = LinkFaultConfig {
            seed: 0,
            delay_period: 0,
            delay_us: 0,
            dup_period: 0,
            dup_budget: 0,
            reorder_period: 1,
            reorder_budget: 1,
        };
        let (tx, rx) = channel();
        let injector = Arc::new(LinkFaultInjector::new(cfg));
        let mut sink = FaultySink::new(ChannelSink(tx), injector);
        sink.send(0, &beat(0)).expect("send");
        assert!(rx.try_recv().is_err(), "frame should be held back");
        sink.close();
        assert_eq!(rx.try_recv().expect("flushed").0, 0);
    }

    #[test]
    fn dedup_window_is_bounded() {
        let mut w = DedupWindow::new();
        for seq in 0..(DEDUP_WINDOW as u32 * 3) {
            assert!(w.fresh(seq, 7));
            assert!(!w.fresh(seq, 7), "immediate repeat must be suppressed");
        }
        // Pairs far outside the window are treated as fresh again — fine
        // in practice: a duplicate lands within a frame of its original.
        assert!(w.fresh(0, 7));
    }

    #[test]
    fn same_seq_different_content_is_not_a_duplicate() {
        // Steal replies echo the requester's seq, which can collide with
        // the session's own counter — the content hash must tell those
        // apart while still catching byte-identical injected duplicates.
        let mut w = DedupWindow::new();
        let a = DedupWindow::content_hash(3, &beat(1));
        let b = DedupWindow::content_hash(3, &beat(2));
        assert_ne!(a, b);
        assert!(w.fresh(3, a));
        assert!(w.fresh(3, b), "distinct payload on a reused seq is fresh");
        assert!(!w.fresh(3, a), "true duplicate is still suppressed");
    }
}
