//! Offline stand-in for [`crossbeam`](https://crates.io/crates/crossbeam).
//!
//! Only the `channel` module surface used by `fractal-runtime` is provided:
//! `unbounded`/`bounded` constructors, cloneable senders, blocking receives
//! with timeout, and the matching error enums. Implemented over
//! `std::sync::mpsc` (see `crates/compat/README.md` for why these shims
//! exist).

#![forbid(unsafe_code)]

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Error returned by [`Sender::send`] when the receiver disconnected.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Upstream prints "SendError(..)" without requiring `T: Debug`; callers
    // rely on that to `unwrap()` sends of non-Debug payloads.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is currently empty.
        Empty,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    /// The sending half of a channel. Cloneable for either flavour.
    #[derive(Debug)]
    pub enum Sender<T> {
        /// Sender of an unbounded channel.
        Unbounded(mpsc::Sender<T>),
        /// Sender of a bounded channel (blocks when full).
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            match self {
                Sender::Unbounded(s) => Sender::Unbounded(s.clone()),
                Sender::Bounded(s) => Sender::Bounded(s.clone()),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking if a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match self {
                Sender::Unbounded(s) => s.send(value).map_err(|e| SendError(e.0)),
                Sender::Bounded(s) => s.send(value).map_err(|e| SendError(e.0)),
            }
        }
    }

    /// The receiving half of a channel.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Returns a queued message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
    }

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender::Unbounded(tx), Receiver(rx))
    }

    /// Creates a channel that holds at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender::Bounded(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn unbounded_roundtrip() {
        let (tx, rx) = unbounded();
        tx.clone().send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_timeout_and_disconnect() {
        let (tx, rx) = bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }
}
