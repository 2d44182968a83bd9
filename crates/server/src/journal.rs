//! Write-ahead journal of committed replies, and the line log format
//! the intake log shares with it.
//!
//! Every reply the server acknowledges is appended here — checksummed,
//! flushed, and (when `sync` is on) fsynced — *before* the bytes go to
//! the client. An acknowledged reply is therefore durable by
//! construction: `kill -9` can lose work in flight, never work the
//! client saw.
//!
//! File format: a version line, then one entry per line:
//!
//! ```text
//! icmlog v2\n
//! <checksum64-hex16> <seq> <reply-line>\n
//! ```
//!
//! The checksum is [`checksum64`] (XXH64) of `"<seq> <reply-line>"`.
//! Recovery reads entries in order and stops at the first damaged line
//! (torn tail after a crash), truncating the file there so the resumed
//! server appends exactly where the uninterrupted run would have —
//! journals stay byte-identical across kills. A file without the
//! version line — one written before the line was introduced, framed
//! with `fnv1a64`, or no log at all — is refused and left as it is; a
//! file cut inside the version line can only come from a crash while
//! it was being created, and counts as empty.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use icm_json::fs::checksum64;

/// The first line of every log: the format name and its version. The
/// version is 2 because the logs before it (version 1) carried no
/// version line and framed entries with `fnv1a64`.
const HEADER: &[u8] = b"icmlog v2\n";

/// Bytes before an entry's `<seq>`: the checksum and its space.
const CHECKSUM_FIELD: usize = 17;

/// One recovered journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Commit sequence number, 1-based and contiguous.
    pub seq: u64,
    /// The reply line exactly as it was acknowledged (no newline).
    pub reply_line: String,
}

/// Log I/O or integrity failure, naming the log's path.
#[derive(Debug)]
pub struct JournalError {
    path: PathBuf,
    message: String,
}

impl JournalError {
    fn new(path: &Path, message: impl std::fmt::Display) -> Self {
        Self {
            path: path.to_path_buf(),
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for JournalError {}

/// An append-only line log: the committed-reply journal, or the
/// intake log of accepted frames.
#[derive(Debug)]
pub struct LineJournal {
    path: PathBuf,
    file: File,
    next_seq: u64,
    sync: bool,
}

impl LineJournal {
    /// Opens (or creates) the log at `path`, recovering every intact
    /// entry and truncating a torn tail.
    ///
    /// `sync` controls fsync-per-commit: on for real daemons, off for
    /// in-process load drivers and benches where the filesystem is
    /// scratch.
    ///
    /// # Errors
    ///
    /// I/O failure, a file without this build's version line, or a
    /// *mid-file* integrity break (damage that is not a torn tail means
    /// the file was edited or rotted — refusing is safer than silently
    /// dropping committed history). Every error names `path`, and a
    /// refused file is left untouched.
    pub fn open(path: &Path, sync: bool) -> Result<(Self, Vec<JournalEntry>), JournalError> {
        Self::open_at(path, sync).map_err(|e| JournalError::new(path, e))
    }

    fn open_at(path: &Path, sync: bool) -> io::Result<(Self, Vec<JournalEntry>)> {
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let (entries, good_bytes) = recover(&bytes)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(good_bytes as u64)?;
        file.seek(SeekFrom::End(0))?;
        if good_bytes == 0 {
            file.write_all(HEADER)?;
        }
        if sync {
            file.sync_all()?;
        }
        let next_seq = entries.len() as u64 + 1;
        Ok((
            Self {
                path: path.to_path_buf(),
                file,
                next_seq,
                sync,
            },
            entries,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next commit will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Durably appends `reply_line` as the next committed entry and
    /// returns its sequence number. The caller must only release the
    /// reply to the client *after* this returns.
    ///
    /// # Errors
    ///
    /// I/O failure; the entry must then be treated as not committed.
    pub fn commit(&mut self, reply_line: &str) -> Result<u64, JournalError> {
        let seq = self.next_seq;
        // One buffer per line: a checksum placeholder, then the body,
        // then the checksum of the body written over the placeholder.
        let mut line = Vec::with_capacity(reply_line.len() + 40);
        writeln!(line, "{:016x} {seq} {reply_line}", 0).expect("writing to a Vec cannot fail");
        let checksum = checksum64(&line[CHECKSUM_FIELD..line.len() - 1]);
        write!(&mut line[..CHECKSUM_FIELD - 1], "{checksum:016x}")
            .expect("16 hex digits fill the placeholder");
        let written = self.file.write_all(&line).and_then(|()| {
            if self.sync {
                self.file.sync_data()
            } else {
                self.file.flush()
            }
        });
        written.map_err(|e| JournalError::new(&self.path, e))?;
        self.next_seq += 1;
        Ok(seq)
    }
}

/// The intact entries of a log's bytes and the length of the prefix
/// that holds them (zero when the version line must still be written).
fn recover(bytes: &[u8]) -> io::Result<(Vec<JournalEntry>, usize)> {
    let Some(body) = bytes.strip_prefix(HEADER) else {
        if HEADER.starts_with(bytes) {
            return Ok((Vec::new(), 0));
        }
        let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        let first = String::from_utf8_lossy(&first[..first.len().min(32)]);
        return Err(damage(if first.starts_with("icmlog ") {
            format!("unknown log version line {first:?} (this build reads icmlog v2)")
        } else {
            format!(
                "no icmlog v2 version line (found {first:?}): the log predates the \
                 versioned format or is not a log"
            )
        }));
    };
    let mut entries = Vec::new();
    let mut good_bytes = HEADER.len();
    for line in body.split_inclusive(|&b| b == b'\n') {
        // An unterminated final line is a torn write even when its
        // checksum holds: the newline never hit the disk.
        let entry = line
            .strip_suffix(b"\n")
            .and_then(|line| parse_entry(line, entries.len() as u64 + 1));
        match entry {
            Some(entry) => entries.push(entry),
            // Only a *tail* (one final damaged line) may be truncated;
            // content after the damaged line would be committed history
            // beyond a hole, and dropping it silently loses ACKed
            // replies.
            None if good_bytes + line.len() < bytes.len() => {
                return Err(damage(format!(
                    "mid-file damage at byte {good_bytes}: intact entries follow the \
                     damaged line"
                )));
            }
            None => break,
        }
        good_bytes += line.len();
    }
    Ok((entries, good_bytes))
}

fn damage(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn parse_entry(line: &[u8], expected_seq: u64) -> Option<JournalEntry> {
    let line = std::str::from_utf8(line).ok()?;
    let (checksum_hex, body) = line.split_once(' ')?;
    // Exactly the digits `commit` writes: any other spelling of the
    // same number is damage too.
    let lowercase_hex = |b| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    if checksum_hex.len() != CHECKSUM_FIELD - 1 || !checksum_hex.bytes().all(lowercase_hex) {
        return None;
    }
    let checksum = u64::from_str_radix(checksum_hex, 16).ok()?;
    if checksum64(body.as_bytes()) != checksum {
        return None;
    }
    let (seq_text, reply_line) = body.split_once(' ')?;
    let seq: u64 = seq_text.parse().ok()?;
    if seq != expected_seq {
        return None;
    }
    Some(JournalEntry {
        seq,
        reply_line: reply_line.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("icm-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    #[test]
    fn commits_are_recovered_in_order() {
        let path = scratch("order");
        {
            let (mut journal, entries) = LineJournal::open(&path, false).unwrap();
            assert!(entries.is_empty());
            assert_eq!(journal.commit(r#"{"id":"a"}"#).unwrap(), 1);
            assert_eq!(journal.commit(r#"{"id":"b"}"#).unwrap(), 2);
        }
        let (journal, entries) = LineJournal::open(&path, false).unwrap();
        assert_eq!(journal.next_seq(), 3);
        assert_eq!(
            entries,
            vec![
                JournalEntry {
                    seq: 1,
                    reply_line: r#"{"id":"a"}"#.into()
                },
                JournalEntry {
                    seq: 2,
                    reply_line: r#"{"id":"b"}"#.into()
                },
            ]
        );
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_torn_tail_is_truncated_and_appending_continues_cleanly() {
        let path = scratch("torn");
        {
            let (mut journal, _) = LineJournal::open(&path, false).unwrap();
            journal.commit("alpha").unwrap();
            journal.commit("beta").unwrap();
        }
        // Tear the tail mid-entry.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut journal, entries) = LineJournal::open(&path, false).unwrap();
        assert_eq!(entries.len(), 1, "torn second entry is dropped");
        assert_eq!(journal.next_seq(), 2);
        journal.commit("beta").unwrap();
        drop(journal);
        // The recovered-and-reappended journal is byte-identical to an
        // uninterrupted one.
        let reference = scratch("torn-ref");
        let (mut journal, _) = LineJournal::open(&reference, false).unwrap();
        journal.commit("alpha").unwrap();
        journal.commit("beta").unwrap();
        drop(journal);
        assert_eq!(fs::read(&path).unwrap(), fs::read(&reference).unwrap());
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
        fs::remove_dir_all(reference.parent().unwrap()).unwrap();
    }

    #[test]
    fn mid_file_damage_is_refused_not_skipped() {
        let path = scratch("midfile");
        {
            let (mut journal, _) = LineJournal::open(&path, false).unwrap();
            journal.commit("alpha").unwrap();
            journal.commit("beta").unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        // Corrupt the FIRST entry while the second stays intact.
        bytes[HEADER.len()] = b'z';
        fs::write(&path, &bytes).unwrap();
        let err = LineJournal::open(&path, false).unwrap_err();
        assert!(err.to_string().contains("mid-file damage"), "{err}");
        assert!(err.to_string().contains("journal.log"), "{err}");
        assert_eq!(
            fs::read(&path).unwrap(),
            bytes,
            "a refused log is left as it is"
        );
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_log_starts_with_its_version_line() {
        let path = scratch("header");
        let (mut journal, _) = LineJournal::open(&path, false).unwrap();
        assert_eq!(fs::read(&path).unwrap(), HEADER);
        journal.commit("alpha").unwrap();
        drop(journal);
        let text = fs::read_to_string(&path).unwrap();
        let checksum = checksum64(b"1 alpha");
        assert_eq!(text, format!("icmlog v2\n{checksum:016x} 1 alpha\n"));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_log_cut_inside_its_version_line_counts_as_empty() {
        let path = scratch("torn-header");
        for cut in 0..HEADER.len() {
            fs::write(&path, &HEADER[..cut]).unwrap();
            let (mut journal, entries) = LineJournal::open(&path, false).unwrap();
            assert!(entries.is_empty(), "cut at {cut}");
            journal.commit("alpha").unwrap();
            drop(journal);
            let (_, entries) = LineJournal::open(&path, false).unwrap();
            assert_eq!(entries.len(), 1, "cut at {cut}");
        }
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn logs_without_this_version_line_are_refused_untouched() {
        let path = scratch("old-format");
        // The framing before the version line: fnv1a64 per entry, no
        // header. A one-line file would otherwise read as a torn tail.
        let fnv_era = |bodies: &[&str]| -> Vec<u8> {
            let lines = bodies.iter().map(|body| {
                let checksum = icm_json::fs::fnv1a64(body.as_bytes());
                format!("{checksum:016x} {body}\n")
            });
            lines.collect::<String>().into_bytes()
        };
        let unknown_version = b"icmlog v9\n".to_vec();
        for (bytes, says) in [
            (fnv_era(&["1 alpha"]), "no icmlog v2 version line"),
            (
                fnv_era(&["1 alpha", "2 beta", "3 gamma"]),
                "no icmlog v2 version line",
            ),
            (unknown_version, "unknown log version line \"icmlog v9\""),
        ] {
            fs::write(&path, &bytes).unwrap();
            let err = LineJournal::open(&path, false).unwrap_err();
            let message = err.to_string();
            assert!(message.contains(says), "{message}");
            assert!(message.contains("journal.log"), "{message}");
            assert_eq!(fs::read(&path).unwrap(), bytes, "{message}");
        }
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Writes `lines` to a fresh log at `path` and returns its bytes.
    fn written(path: &Path, lines: &[&str]) -> Vec<u8> {
        let _ = fs::remove_file(path);
        let (mut journal, _) = LineJournal::open(path, false).unwrap();
        for line in lines {
            journal.commit(line).unwrap();
        }
        drop(journal);
        fs::read(path).unwrap()
    }

    #[test]
    fn every_single_byte_flip_ends_in_refusal_or_a_replayable_tail() {
        let dir = scratch("flips");
        let dir = dir.parent().unwrap();
        let journal = [
            r#"{"id":"a","status":"ok"}"#,
            r#"{"id":"b","status":"overloaded"}"#,
            r#"{"status":"error"}"#,
        ];
        let intake = [
            r#"{"kind":"predict","data":"a"}"#,
            r#"{"kind":"status","data":"b"}"#,
        ];
        let (mut refused, mut truncated) = (0, 0);
        for (name, lines) in [("journal.log", &journal[..]), ("intake.log", &intake[..])] {
            let path = dir.join(name);
            let original = written(&path, lines);
            for at in 0..original.len() {
                for mask in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
                    let mut damaged = original.clone();
                    damaged[at] ^= mask;
                    fs::write(&path, &damaged).unwrap();
                    let context = format!("{name} byte {at} ^ {mask:#04x}");
                    match LineJournal::open(&path, false) {
                        Err(err) => {
                            assert!(err.to_string().contains(name), "{context}: {err}");
                            assert_eq!(fs::read(&path).unwrap(), damaged, "{context}");
                            refused += 1;
                        }
                        Ok((mut log, entries)) => {
                            // Whatever was accepted is what was written,
                            // and replaying the rest restores every byte.
                            let texts: Vec<&str> =
                                entries.iter().map(|e| e.reply_line.as_str()).collect();
                            assert_eq!(texts, lines[..texts.len()], "{context}");
                            for line in &lines[texts.len()..] {
                                log.commit(line).unwrap();
                            }
                            drop(log);
                            assert_eq!(fs::read(&path).unwrap(), original, "{context}");
                            truncated += 1;
                        }
                    }
                }
            }
        }
        assert!(
            refused > 0 && truncated > 0,
            "{refused} refused, {truncated} truncated"
        );
        fs::remove_dir_all(dir).unwrap();
    }
}
