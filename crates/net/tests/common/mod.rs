//! Helpers shared by this crate's integration tests.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::thread;
use std::time::Duration;

/// Runs `f` on a thread of its own and returns what it returns, but fails
/// the test if it takes longer than `secs`: a hung worker thread must fail
/// fast, not wedge the suite. A panic in `f` is raised again here, with
/// its own message.
pub fn within_secs<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(Ok(value)) => value,
        Ok(Err(panic)) => resume_unwind(panic),
        Err(_) => panic!("operation timed out after {secs} s"),
    }
}
