//! Tty-aware progress reporting.
//!
//! Long-running searches used to issue raw `eprint!("...\r")` rewrites,
//! which garble piped or teed logs (`run_experiments.sh | tee run.log`
//! captures one kilometer-long line of carriage returns). [`Progress`]
//! resolves the destination once: when stderr is a terminal, updates rewrite
//! one status line in place; otherwise every update is an ordinary newline
//! record, so logs stay greppable.
//!
//! There is only one physical status line — stderr — so the rewrite state
//! (`last written width`, `line still open`) is process-global rather than
//! per-reporter. That is what lets *other* stderr writers cooperate: an
//! exporter calls [`interrupt`] before printing,
//! which terminates any in-flight CR-rewritten line with a newline instead
//! of splicing its output into the middle of a half-drawn sweep status.
//!
//! The reporter is internally synchronized — worker threads finishing
//! parallel candidates may call [`Progress::update`] concurrently — and is
//! an observer only: it never gates or reorders the computation it reports.

use std::io::{IsTerminal, Write};
use std::sync::Mutex;

/// Process-global state of the single in-place stderr status line.
#[derive(Debug, Default)]
struct LineState {
    /// Width of the last in-place rewrite, so shorter messages blank the
    /// tail of longer ones.
    last_len: usize,
    /// Whether an unterminated in-place line is on screen.
    dirty: bool,
}

static LINE: Mutex<LineState> = Mutex::new(LineState {
    last_len: 0,
    dirty: false,
});

fn line_state() -> std::sync::MutexGuard<'static, LineState> {
    LINE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Terminates any in-flight CR-rewritten progress line with a newline, so
/// the caller's subsequent stderr output starts at column 0 of a fresh line
/// instead of overprinting a half-drawn status. A no-op when no line is
/// open. Every exporter that writes to stderr calls this first.
pub fn interrupt() {
    let mut state = line_state();
    if state.dirty {
        let _ = writeln!(std::io::stderr().lock());
        state.dirty = false;
        state.last_len = 0;
    }
}

/// Whether an unterminated in-place status line is currently on screen
/// (i.e. [`interrupt`] would emit a newline). Exposed for tests.
pub fn line_is_dirty() -> bool {
    line_state().dirty
}

/// A single status line on stderr (or a stream of log records when stderr
/// is not a terminal). Call [`update`](Progress::update) as work completes
/// and [`finish`](Progress::finish) (or drop) to terminate the line.
#[derive(Debug)]
pub struct Progress {
    tty: bool,
}

impl Progress {
    /// A reporter writing to stderr, resolving tty-ness now.
    pub fn stderr() -> Self {
        Progress {
            tty: std::io::stderr().is_terminal(),
        }
    }

    /// A reporter with the destination mode pinned (tests).
    pub fn with_tty(tty: bool) -> Self {
        Progress { tty }
    }

    /// Whether updates rewrite in place (stderr is a terminal).
    pub fn is_tty(&self) -> bool {
        self.tty
    }

    /// Reports `msg`: an in-place rewrite on a terminal, a newline record
    /// otherwise.
    pub fn update(&self, msg: &str) {
        if self.tty {
            let mut state = line_state();
            let mut err = std::io::stderr().lock();
            let pad = state.last_len.saturating_sub(msg.chars().count());
            let _ = write!(err, "\r{msg}{}", " ".repeat(pad));
            let _ = err.flush();
            state.last_len = msg.chars().count();
            state.dirty = true;
        } else {
            let _ = writeln!(std::io::stderr().lock(), "{msg}");
        }
    }

    /// Terminates an in-place line with a newline (no-op when nothing is on
    /// screen or stderr is not a terminal).
    pub fn finish(&self) {
        if self.tty {
            interrupt();
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn non_tty_mode_emits_records_without_state() {
        let _g = test_lock::hold();
        interrupt();
        let p = Progress::with_tty(false);
        assert!(!p.is_tty());
        p.update("step 1");
        p.update("step 2");
        // nothing dirty: finish must be a no-op
        assert!(!line_is_dirty());
        p.finish();
    }

    #[test]
    fn tty_mode_tracks_line_width_and_finishes_once() {
        let _g = test_lock::hold();
        interrupt();
        let p = Progress::with_tty(true);
        p.update("a long progress message");
        assert!(line_is_dirty());
        p.update("short");
        p.finish();
        assert!(!line_is_dirty());
    }

    #[test]
    fn interrupt_terminates_an_in_flight_line() {
        let _g = test_lock::hold();
        interrupt();
        let p = Progress::with_tty(true);
        p.update("sweep 3/114");
        assert!(line_is_dirty());
        // an exporter about to write to stderr closes the line first
        interrupt();
        assert!(!line_is_dirty());
        // idempotent: a second interrupt has nothing to do
        interrupt();
        assert!(!line_is_dirty());
        // the reporter's own finish afterwards is also a no-op
        p.finish();
        assert!(!line_is_dirty());
    }

    #[test]
    fn stderr_constructor_resolves_some_mode() {
        let _g = test_lock::hold();
        // under `cargo test` stderr is usually captured (not a tty), but
        // either way construction and an update must not panic
        let p = Progress::stderr();
        p.update("probe");
        p.finish();
    }

    #[test]
    fn updates_are_callable_from_many_threads() {
        let _g = test_lock::hold();
        let p = Progress::with_tty(true);
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                s.spawn(move || {
                    for i in 0..8 {
                        p.update(&format!("worker {t} step {i}"));
                    }
                });
            }
        });
        p.finish();
        assert!(!line_is_dirty());
    }
}
