//! A fingerprinted, append-only line journal: the crash-safe storage under
//! the benchmark grid's checkpoints and the job service's job journals.
//!
//! The first line is a header that must match the run exactly; a journal
//! with any other header is discarded on resume. Every appended line is
//! fsynced before the append returns, so a crash can tear at most the line
//! being written, and resuming drops a torn tail and compacts the file
//! atomically.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// An append-only checkpoint journal. `append` is `&self` (cells finish on
/// worker threads); each line is fsynced (`sync_data`) before `append`
/// returns, so a kill — or a whole host power loss — can tear at most the
/// line being written, and every line the journal acknowledged is durable.
///
/// The journal tracks its on-disk size so owners can bound growth:
/// [`Journal::bytes`] after each append, [`Journal::lines`] to read the
/// current complete entries back, and [`Journal::rewrite`] to atomically
/// replace the file with a compacted form (temp file + rename + directory
/// fsync — crash-safe at any instant: a kill mid-compaction leaves either
/// the old complete journal or the new complete journal, never a mix).
pub struct Journal {
    inner: Mutex<JournalFile>,
}

struct JournalFile {
    file: fs::File,
    path: std::path::PathBuf,
    bytes: u64,
}

/// Best-effort fsync of a directory, making a just-created or just-renamed
/// entry durable. Not every platform allows opening a directory for sync,
/// so failures are ignored — the journal degrades to flush-on-append.
fn sync_dir(dir: Option<&Path>) {
    if let Some(d) = dir.filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(f) = fs::File::open(d) {
            let _ = f.sync_all();
        }
    }
}

impl Journal {
    /// Start a fresh journal at `path`, truncating anything there. The
    /// parent directory is fsynced so the file itself survives a crash
    /// immediately after creation.
    pub fn create(path: &Path, header: &str) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut file = fs::File::create(path)?;
        writeln!(file, "{header}")?;
        file.sync_data()?;
        sync_dir(path.parent());
        let bytes = header.len() as u64 + 1;
        Ok(Journal {
            inner: Mutex::new(JournalFile { file, path: path.to_path_buf(), bytes }),
        })
    }

    /// Resume from `path`: if the file exists and its header matches, the
    /// surviving complete lines (validated by `valid`) are returned and the
    /// journal is compacted (torn tail dropped, rewritten atomically, with
    /// the parent directory fsynced after the rename) before reopening for
    /// append. A missing file or a fingerprint mismatch starts fresh with
    /// no lines. The benchmark grid journal and the `ccdp-serve` job
    /// journal each layer their own line shape on top.
    pub fn resume_lines(
        path: &Path,
        header: &str,
        valid: impl Fn(&str) -> bool,
    ) -> std::io::Result<(Journal, Vec<String>)> {
        // Read as bytes: a line torn mid-multibyte-character is invalid
        // UTF-8, and that must drop the torn tail, not the whole journal.
        // (Complete lines were written from Rust strings and are always
        // valid, so lossy conversion can only mangle the torn tail, which
        // the `valid` filter then rejects.)
        let text = match fs::read(path) {
            Ok(t) => String::from_utf8_lossy(&t).into_owned(),
            Err(_) => return Ok((Journal::create(path, header)?, Vec::new())),
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(first) if first == header => {}
            _ => {
                eprintln!(
                    "journal {} does not match this run's configuration; starting fresh",
                    path.display()
                );
                return Ok((Journal::create(path, header)?, Vec::new()));
            }
        }
        let mut entries = Vec::new();
        for line in lines {
            if !valid(line) {
                // A torn or foreign line: everything after it is suspect.
                break;
            }
            entries.push(line.to_string());
        }
        let mut compact = header.to_string();
        compact.push('\n');
        for line in &entries {
            compact.push_str(line);
            compact.push('\n');
        }
        // write_atomic syncs the rewritten file and the directory entry, so
        // the compacted journal is durable before we append to it.
        let bytes = compact.len() as u64;
        ccdp_json::write_atomic(path, &compact)?;
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok((
            Journal {
                inner: Mutex::new(JournalFile { file, path: path.to_path_buf(), bytes }),
            },
            entries,
        ))
    }

    /// Append one raw journal line (no trailing newline), fsynced before
    /// returning — once this returns `Ok`, the line survives `kill -9` and
    /// power loss.
    pub fn append_line(&self, line: &str) -> std::io::Result<()> {
        let mut j = self.inner.lock().expect("journal file lock");
        writeln!(j.file, "{line}")?;
        j.file.sync_data()?;
        j.bytes += line.len() as u64 + 1;
        Ok(())
    }

    /// Current on-disk size in bytes (header + every acknowledged line).
    pub fn bytes(&self) -> u64 {
        self.inner.lock().expect("journal file lock").bytes
    }

    /// Read the complete entry lines currently on disk (everything after
    /// the header), under the append lock. Used by owners to compute a
    /// compacted rewrite.
    pub fn lines(&self) -> std::io::Result<Vec<String>> {
        let j = self.inner.lock().expect("journal file lock");
        let text = fs::read_to_string(&j.path)?;
        Ok(text.lines().skip(1).map(str::to_string).collect())
    }

    /// Atomically replace the journal with `header` + `lines` and reopen
    /// for append. Crash-safe mid-compaction: the new content is written to
    /// a temp file, fsynced, renamed over the old journal, and the parent
    /// directory is fsynced — at every instant the path holds one complete,
    /// parseable journal.
    pub fn rewrite(&self, header: &str, lines: &[String]) -> std::io::Result<()> {
        let mut j = self.inner.lock().expect("journal file lock");
        let mut text = String::with_capacity(
            header.len() + 1 + lines.iter().map(|l| l.len() + 1).sum::<usize>(),
        );
        text.push_str(header);
        text.push('\n');
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        ccdp_json::write_atomic(&j.path, &text)?;
        // The old handle points at the unlinked pre-compaction inode;
        // re-open so appends land in the live file.
        j.file = fs::OpenOptions::new().append(true).open(&j.path)?;
        j.bytes = text.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    /// The torn-final-line recovery contract, end to end: every line
    /// acknowledged by `append_line` is fsynced and survives; a crash can
    /// tear only the very last line; recovery drops exactly that tail —
    /// even when the tear landed mid-multibyte-character — compacts the
    /// file, and appending afterwards resumes cleanly.
    #[test]
    fn torn_line_recovery_path_via_generic_lines() {
        let dir = std::env::temp_dir().join(format!("ccdp-torn-generic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let header = r#"{"kind":"header","tool":"ccdpd","schema":7}"#;
        let j = Journal::create(&path, header).unwrap();
        j.append_line(r#"{"kind":"job","id":1}"#).unwrap();
        j.append_line(r#"{"kind":"job","id":2}"#).unwrap();
        drop(j);
        // Crash artifact 1: a torn ASCII tail.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(br#"{"kind":"job","#);
        // Crash artifact 2: the tear splits a multibyte character ("é").
        bytes.extend_from_slice(&[0xC3]);
        fs::write(&path, &bytes).unwrap();
        let is_job = |l: &str| ccdp_json::parse(l).is_ok();
        let (j, lines) = Journal::resume_lines(&path, header, is_job).unwrap();
        assert_eq!(lines.len(), 2, "complete lines survive, torn tail dropped");
        assert_eq!(lines[0], r#"{"kind":"job","id":1}"#);
        // Compaction removed the torn bytes from disk.
        let on_disk = fs::read(&path).unwrap();
        assert!(!on_disk.contains(&0xC3));
        // The journal stays appendable after recovery.
        j.append_line(r#"{"kind":"job","id":3}"#).unwrap();
        drop(j);
        let (_j, lines) = Journal::resume_lines(&path, header, is_job).unwrap();
        assert_eq!(lines.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_compacts_atomically_and_stays_appendable() {
        let dir = std::env::temp_dir().join(format!("ccdp-rewrite-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let header = r#"{"kind":"header","tool":"t","schema":1}"#;
        let j = Journal::create(&path, header).unwrap();
        assert_eq!(j.bytes(), header.len() as u64 + 1);
        for i in 0..8 {
            j.append_line(&format!(r#"{{"kind":"x","i":{i}}}"#)).unwrap();
        }
        let before = j.bytes();
        assert_eq!(before, fs::metadata(&path).unwrap().len(), "bytes tracks disk");
        assert_eq!(j.lines().unwrap().len(), 8);
        // Compact to the last two lines.
        let keep: Vec<String> = j.lines().unwrap().into_iter().skip(6).collect();
        j.rewrite(header, &keep).unwrap();
        assert!(j.bytes() < before);
        assert_eq!(j.bytes(), fs::metadata(&path).unwrap().len());
        // Appends after a rewrite land in the live (renamed-over) file.
        j.append_line(r#"{"kind":"x","i":99}"#).unwrap();
        drop(j);
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 kept + 1 appended
        assert_eq!(lines[0], header);
        assert!(lines[3].contains("99"));
        fs::remove_dir_all(&dir).ok();
    }
}
