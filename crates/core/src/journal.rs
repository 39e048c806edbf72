//! Write-ahead search journal: crash-resumable candidate bookkeeping for
//! the Fig. 4 selection search.
//!
//! A Table I/II run evaluates hundreds of attack configurations over hours;
//! an interruption used to restart the whole sweep. The journal records one
//! JSON line per *completed* candidate evaluation — keyed by the candidate's
//! identity, carrying the outcome as exact `f32` bit patterns — under
//! `results/` (or wherever [`SelectionConfig::journal`] points). A rerun
//! with the same search fingerprint replays completed candidates from the
//! file instead of re-evaluating them, and the bit-exact payload makes the
//! resumed result identical to an uninterrupted run.
//!
//! The file is self-describing and append-only during a run:
//!
//! ```text
//! {"fingerprint":"v2 arch=vgg19 classes=10 sites=21 ..."}
//! {"key":"sweep site=3 six_t=5","clean_bits":1061997773,"adv_bits":1056964608,"clean":0.75,"adv":0.5}
//! ```
//!
//! Every line is valid JSON (non-finite `clean`/`adv` are written as
//! `null`; only the `_bits` fields are read back) and is read with
//! [`ahw_telemetry::json`]. A fingerprint mismatch (different model state,
//! data, or search configuration) discards the stale journal and starts a
//! fresh one — resuming across *different* searches would silently splice
//! wrong numbers into a table.
//!
//! [`SelectionConfig::journal`]: crate::selection::SelectionConfig::journal

use ahw_attacks::AttackOutcome;
use ahw_nn::NnError;
use ahw_telemetry::json::{self, Value};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

fn io_err(context: &str, e: &std::io::Error) -> NnError {
    NnError::BadConfig(format!("search journal {context}: {e}"))
}

/// Crash-resumable record of completed candidate evaluations.
///
/// Thread-safe: parallel candidates record through a shared reference. A
/// journal without a backing file (path `None`) is a pure in-memory memo —
/// the search code path is identical either way.
#[derive(Debug)]
pub struct SearchJournal {
    file: Option<Mutex<File>>,
    done: Mutex<HashMap<String, AttackOutcome>>,
    /// Candidates loaded from a previous run's file.
    resumed: usize,
}

impl SearchJournal {
    /// An in-memory journal (no persistence, nothing to resume).
    pub fn in_memory() -> Self {
        SearchJournal {
            file: None,
            done: Mutex::new(HashMap::new()),
            resumed: 0,
        }
    }

    /// Opens (or creates) the journal at `path`, replaying completed
    /// candidates when the stored fingerprint matches and discarding the
    /// file when it does not.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] wrapping the I/O failure.
    pub fn open(path: &Path, fingerprint: &str) -> Result<Self, NnError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", &e))?;
            }
        }
        let mut done = HashMap::new();
        let mut resumed = 0;
        let mut compatible = false;
        let mut ends_on_newline = true;
        if let Ok(text) = std::fs::read_to_string(path) {
            let mut lines = text.lines();
            compatible = lines
                .next()
                .and_then(|l| json::parse(l).ok())
                .is_some_and(|header| {
                    header.get("fingerprint").and_then(Value::as_str) == Some(fingerprint)
                });
            ends_on_newline = text.is_empty() || text.ends_with('\n');
            if compatible {
                for line in lines {
                    if let Some((key, outcome)) = parse_record(line) {
                        done.insert(key, outcome);
                        resumed += 1;
                    }
                }
            }
        }
        let mut file = if compatible {
            let mut f = OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(|e| io_err("open for append", &e))?;
            if !ends_on_newline {
                // a kill mid-write left a partial trailing line; terminate
                // it so the next record doesn't merge into it
                writeln!(f).map_err(|e| io_err("terminate partial line", &e))?;
            }
            f
        } else {
            let mut f = File::create(path).map_err(|e| io_err("create", &e))?;
            writeln!(f, "{{\"fingerprint\":{}}}", json::quote(fingerprint))
                .map_err(|e| io_err("write header", &e))?;
            f
        };
        file.flush().map_err(|e| io_err("flush", &e))?;
        Ok(SearchJournal {
            file: Some(Mutex::new(file)),
            done: Mutex::new(done),
            resumed,
        })
    }

    /// The outcome recorded for `key`, if that candidate already completed.
    pub fn lookup(&self, key: &str) -> Option<AttackOutcome> {
        self.done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .copied()
    }

    /// Records a completed candidate: remembered in memory and appended
    /// (with an immediate flush — this is the write-ahead guarantee) to the
    /// backing file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] wrapping the I/O failure.
    pub fn record(&self, key: &str, outcome: AttackOutcome) -> Result<(), NnError> {
        self.done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key.to_string(), outcome);
        if let Some(file) = &self.file {
            let line = format!(
                "{{\"key\":{},\"clean_bits\":{},\"adv_bits\":{},\"clean\":{},\"adv\":{}}}",
                json::quote(key),
                outcome.clean_accuracy.to_bits(),
                outcome.adversarial_accuracy.to_bits(),
                json::number(outcome.clean_accuracy),
                json::number(outcome.adversarial_accuracy),
            );
            let mut f = file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            writeln!(f, "{line}").map_err(|e| io_err("append", &e))?;
            f.flush().map_err(|e| io_err("flush", &e))?;
        }
        Ok(())
    }

    /// Number of candidates replayed from a previous run's file.
    pub fn resumed_candidates(&self) -> usize {
        self.resumed
    }
}

/// Parses one candidate record; `None` for malformed lines. A kill
/// mid-write leaves at most one partial trailing line, which fails to parse
/// and is simply re-evaluated.
fn parse_record(line: &str) -> Option<(String, AttackOutcome)> {
    let record = json::parse(line).ok()?;
    let bits = |field: &str| {
        Some(f32::from_bits(
            record.get(field)?.as_u64()?.try_into().ok()?,
        ))
    };
    Some((
        record.get("key")?.as_str()?.to_string(),
        AttackOutcome {
            clean_accuracy: bits("clean_bits")?,
            adversarial_accuracy: bits("adv_bits")?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(clean: f32, adv: f32) -> AttackOutcome {
        AttackOutcome {
            clean_accuracy: clean,
            adversarial_accuracy: adv,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ahw_journal_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn in_memory_memoizes_without_a_file() {
        let j = SearchJournal::in_memory();
        assert!(j.lookup("a").is_none());
        j.record("a", outcome(0.5, 0.25)).unwrap();
        assert_eq!(j.lookup("a").unwrap(), outcome(0.5, 0.25));
        assert_eq!(j.resumed_candidates(), 0);
    }

    #[test]
    fn records_survive_reopen_bit_exactly() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        // awkward values: subnormal-adjacent fractions that don't round-trip
        // through decimal printing
        let o = outcome(0.1 + 0.2, 1.0 / 3.0);
        {
            let j = SearchJournal::open(&path, "fp v1").unwrap();
            j.record("sweep site=3 six_t=5", o).unwrap();
            j.record("combo sites=1,4", outcome(0.75, 0.5)).unwrap();
        }
        let j = SearchJournal::open(&path, "fp v1").unwrap();
        assert_eq!(j.resumed_candidates(), 2);
        let back = j.lookup("sweep site=3 six_t=5").unwrap();
        assert_eq!(back.clean_accuracy.to_bits(), o.clean_accuracy.to_bits());
        assert_eq!(
            back.adversarial_accuracy.to_bits(),
            o.adversarial_accuracy.to_bits()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_discards_stale_journal() {
        let path = temp_path("fp");
        let _ = std::fs::remove_file(&path);
        {
            let j = SearchJournal::open(&path, "fp old").unwrap();
            j.record("a", outcome(1.0, 1.0)).unwrap();
        }
        let j = SearchJournal::open(&path, "fp new").unwrap();
        assert_eq!(j.resumed_candidates(), 0);
        assert!(j.lookup("a").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_trailing_line_is_skipped() {
        let path = temp_path("trunc");
        let _ = std::fs::remove_file(&path);
        {
            let j = SearchJournal::open(&path, "fp").unwrap();
            j.record("a", outcome(0.5, 0.5)).unwrap();
            j.record("b", outcome(0.25, 0.125)).unwrap();
        }
        // simulate a kill mid-append: chop the file inside the last record
        // (mid-number — the missing brace is what marks it incomplete)
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 30]).unwrap();
        let j = SearchJournal::open(&path, "fp").unwrap();
        assert_eq!(j.resumed_candidates(), 1);
        assert!(j.lookup("a").is_some());
        assert!(j.lookup("b").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keys_with_escapes_round_trip() {
        assert_eq!(json::quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        let line = format!(
            "{{\"key\":{},\"clean_bits\":0,\"adv_bits\":0}}",
            json::quote("a\"b\\c\td")
        );
        assert_eq!(parse_record(&line).unwrap().0, "a\"b\\c\td");
    }

    #[test]
    fn non_finite_outcomes_write_valid_json_and_reopen_bit_exactly() {
        let path = temp_path("nonfinite");
        let _ = std::fs::remove_file(&path);
        let o = outcome(f32::NAN, f32::NEG_INFINITY);
        SearchJournal::open(&path, "fp")
            .unwrap()
            .record("nan", o)
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            assert!(json::parse(line).is_ok(), "invalid JSON line {line:?}");
        }
        assert!(text.contains("\"clean\":null,\"adv\":null"));
        let back = SearchJournal::open(&path, "fp").unwrap().lookup("nan");
        let _ = std::fs::remove_file(&path);
        let back = back.expect("record resumed");
        assert_eq!(back.clean_accuracy.to_bits(), o.clean_accuracy.to_bits());
        assert_eq!(
            back.adversarial_accuracy.to_bits(),
            o.adversarial_accuracy.to_bits()
        );
    }
}
