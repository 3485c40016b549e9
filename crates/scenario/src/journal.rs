//! The append-only canonical-JSONL journal shared by the campaign
//! manifests (`hotnoc-campaign-manifest-v1`, whole run and shard) and the
//! serving daemon's result journal (`hotnoc-serve-journal-v1`).
//!
//! Line 1 is a header binding the file to one owner; every further line is
//! one record, written by [`Journal::append`] as a single `write_all` of the
//! line plus its newline, then flushed.
//!
//! # Recovery
//!
//! [`Journal::open`] applies one policy to every journal:
//!
//! * **Header binding.** A missing or empty file gets the header. A first
//!   line that is not exactly the expected header is a
//!   [`JournalError::Mismatch`]; the caller decides what that means (a
//!   campaign restarts its manifest with [`Journal::create`], the daemon
//!   refuses the file).
//! * **Skip rejected lines.** Every complete line is parsed and offered to
//!   the caller's verifier; a line that does not parse or that the
//!   verifier rejects is skipped, and the records after it still count.
//! * **Truncate a torn tail.** A final fragment without its newline (a kill
//!   mid-write) is truncated away before anything is appended.
//!
//! # Durability
//!
//! Appends are flushed, never `fsync`ed: a journal survives `kill -9` of
//! its process but not a power loss. A per-record `sync_data` would put a
//! disk flush on every campaign job and every serve miss.

use crate::json::Json;
use crate::outcome::ScenarioOutcome;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Why [`Journal::open`] did not open a journal.
#[derive(Debug)]
pub enum JournalError {
    /// The file's first line is not the expected header: the journal
    /// belongs to another owner (or another schema).
    Mismatch,
    /// Filesystem trouble.
    Io(std::io::Error),
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// An open journal, appendable from many threads.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Starts a journal at `path` holding only `header`, replacing any file
    /// already there.
    ///
    /// # Errors
    ///
    /// Propagates filesystem trouble.
    pub fn create(path: &Path, header: &Json) -> std::io::Result<Journal> {
        let journal = Journal {
            file: Mutex::new(File::create(path)?),
        };
        journal.append(header)?;
        Ok(journal)
    }

    /// Opens the journal at `path` bound to `header` and recovers its
    /// records: each complete line after the header that parses is handed
    /// to `verify`, and the values it accepts are returned in file order.
    /// A missing or empty file is created with the header; a torn final
    /// fragment is truncated away.
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] when the first line is not exactly
    /// `header`; [`JournalError::Io`] for filesystem trouble.
    pub fn open<T>(
        path: &Path,
        header: &Json,
        mut verify: impl FnMut(&Json) -> Option<T>,
    ) -> Result<(Journal, Vec<T>), JournalError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        if bytes.is_empty() {
            return Ok((Journal::create(path, header)?, Vec::new()));
        }
        // Complete lines end at a newline; anything after the last one is a
        // torn fragment.
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut lines = bytes[..complete].split(|&b| b == b'\n').map(|l| {
            std::str::from_utf8(l)
                .ok()
                .and_then(|l| Json::parse(l).ok())
        });
        if lines.next().flatten().as_ref() != Some(header) {
            return Err(JournalError::Mismatch);
        }
        let records = lines.flatten().filter_map(|j| verify(&j)).collect();
        let file = OpenOptions::new().append(true).open(path)?;
        if complete < bytes.len() {
            file.set_len(complete as u64)?;
        }
        Ok((
            Journal {
                file: Mutex::new(file),
            },
            records,
        ))
    }

    /// Appends one record: the line and its newline in a single
    /// `write_all`, then a flush. Safe to call from many threads.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn append(&self, record: &Json) -> std::io::Result<()> {
        let mut line = record.to_string();
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

/// Decodes a journaled outcome, accepting it only if it re-serializes to
/// exactly the journaled value. A record written by an older binary may
/// decode leniently (e.g. traffic quantile fields defaulting to 0); trusting
/// it would break byte identity with a fresh computation, so it is rejected
/// and the work redone.
pub fn canonical_outcome(raw: &Json) -> Option<ScenarioOutcome> {
    ScenarioOutcome::from_json(raw)
        .ok()
        .filter(|outcome| outcome.to_json() == *raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hotnoc-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    fn header() -> Json {
        Json::object(vec![("schema", Json::str("test-journal-v1"))])
    }

    fn record(n: u64) -> Json {
        Json::object(vec![("n", Json::int(n))])
    }

    /// Accepts records with an `n` field, returning it.
    fn numbers(j: &Json) -> Option<u64> {
        j.get("n").and_then(Json::as_u64)
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_and_a_later_append_is_recovered() {
        let path = tmp_file("torn");
        let (journal, _) = Journal::open(&path, &header(), numbers).unwrap();
        journal.append(&record(1)).unwrap();
        drop(journal);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"n\": 2, \"half-wri").unwrap();
        drop(f);

        let (journal, got) = Journal::open(&path, &header(), numbers).unwrap();
        assert_eq!(got, vec![1]);
        journal.append(&record(3)).unwrap();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("half-wri"), "torn tail survived: {text}");

        let (_, got) = Journal::open(&path, &header(), numbers).unwrap();
        assert_eq!(
            got,
            vec![1, 3],
            "the record appended after the tear was lost"
        );
        cleanup(&path);
    }

    #[test]
    fn header_mismatch_is_reported_as_mismatch_not_io() {
        let path = tmp_file("mismatch");
        std::fs::write(&path, "{\"schema\": \"someone-else-v1\"}\n{\"n\": 1}\n").unwrap();
        let err = Journal::open(&path, &header(), numbers).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch), "{err:?}");
        // A header cut short by a kill is no header either.
        std::fs::write(&path, "{\"schema\": \"test-journal-v1\"}").unwrap();
        let err = Journal::open(&path, &header(), numbers).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch), "{err:?}");
        cleanup(&path);
    }

    #[test]
    fn missing_or_empty_file_gets_exactly_the_header_line() {
        let path = tmp_file("fresh");
        let want = format!("{}\n", header());
        let (_, got) = Journal::open(&path, &header(), numbers).unwrap();
        assert!(got.is_empty());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            want,
            "missing file"
        );
        std::fs::write(&path, "").unwrap();
        let (_, got) = Journal::open(&path, &header(), numbers).unwrap();
        assert!(got.is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want, "empty file");
        cleanup(&path);
    }

    #[test]
    fn rejected_middle_line_does_not_hide_later_records() {
        let path = tmp_file("rejected");
        std::fs::write(
            &path,
            format!(
                "{}\n{}\n{{\"other\": true}}\nnot json\n\n{}\n",
                header(),
                record(1),
                record(2)
            ),
        )
        .unwrap();
        let (_, got) = Journal::open(&path, &header(), numbers).unwrap();
        assert_eq!(got, vec![1, 2]);
        cleanup(&path);
    }
}
