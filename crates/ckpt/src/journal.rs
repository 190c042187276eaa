//! The workspace's one crash-resumable text journal.
//!
//! The sweep supervisor, the fleet comparison and the chaos sweep each
//! journal completed units of work so a killed run can resume. They share
//! this layer and keep only their own line encoders, decoders and replay
//! filters. A journal is a text file:
//!
//! ```text
//! <header line>
//! <entry line>*
//! ```
//!
//! One entry line per completed unit, appended and flushed as the unit
//! completes, so a SIGKILL loses at most the line being written. Floats
//! travel as fixed-width (16-digit) hex IEEE-754 bit patterns
//! ([`parse_hex_f64`]), so replay is bit-exact and a line cut short never
//! decodes: each format is designed so that no strict prefix of a valid
//! line parses.
//!
//! Opening with `resume` replays every line the caller's decoder accepts,
//! later lines winning for a repeated key, and then **heals** the file by
//! rewriting it to the header plus the surviving lines. A torn,
//! newline-less tail is thereby dropped instead of corrupting the next
//! append. Journaling is best-effort: any I/O error prints one warning
//! and disables the journal, and the run itself carries on.
//!
//! The journals stay text rather than [`crate`] frames because tooling
//! outside the workspace (the benchmark's journal checks, CI's greps)
//! reads them line by line.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// An open, append-only line journal.
#[derive(Debug)]
pub struct LineJournal {
    path: PathBuf,
    /// `None` once an I/O error has disabled journaling.
    file: Mutex<Option<File>>,
}

impl LineJournal {
    /// Opens the journal at `path`, creating its directory if needed.
    ///
    /// With `resume` set, every line for which `decode` returns an entry
    /// is replayed into the returned map, a later line replacing an
    /// earlier one with the same key. `decode` is also the replay filter:
    /// it returns `None` for comments, blanks, torn or malformed lines and
    /// entries that belong to another run. The file is then rewritten to
    /// `header` (given without its newline) plus the surviving lines in
    /// their original order. Without `resume` any old file is truncated
    /// to the header and nothing is replayed.
    ///
    /// I/O failures never fail the caller: they print a warning and
    /// return a disabled journal whose appends do nothing.
    pub fn open<K: Ord, V>(
        path: PathBuf,
        header: &str,
        resume: bool,
        mut decode: impl FnMut(&str) -> Option<(K, V)>,
    ) -> (LineJournal, BTreeMap<K, V>) {
        let mut prefix = format!("{header}\n");
        let mut winners: BTreeMap<K, (usize, V)> = BTreeMap::new();
        if resume {
            let old = fs::read_to_string(&path).unwrap_or_default();
            let lines: Vec<&str> = old.lines().collect();
            for (index, line) in lines.iter().enumerate() {
                if let Some((key, value)) = decode(line) {
                    winners.insert(key, (index, value));
                }
            }
            let mut survivors: Vec<usize> = winners.values().map(|&(index, _)| index).collect();
            survivors.sort_unstable();
            for index in survivors {
                prefix.push_str(lines[index]);
                prefix.push('\n');
            }
        }
        let entries = winners.into_iter().map(|(key, (_, value))| (key, value)).collect();
        let file = create_with(&path, &prefix);
        let journal = LineJournal {
            path,
            file: Mutex::new(file),
        };
        (journal, entries)
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `line` (given without its newline) and flushes.
    /// Thread-safe: concurrent callers append whole lines in some order.
    /// A write error prints one warning and disables the journal.
    pub fn append(&self, line: &str) {
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(file) = guard.as_mut() {
            let mut buf = String::with_capacity(line.len() + 1);
            buf.push_str(line);
            buf.push('\n');
            if let Err(err) = file.write_all(buf.as_bytes()).and_then(|()| file.flush()) {
                eprintln!("warning: journal write failed ({err}); journaling disabled");
                *guard = None;
            }
        }
    }
}

/// Creates (or truncates) `path` holding exactly `contents`; `None`, with
/// a warning, if that fails.
fn create_with(path: &Path, contents: &str) -> Option<File> {
    if let Some(dir) = path.parent() {
        if let Err(err) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create journal dir {}: {err}", dir.display());
            return None;
        }
    }
    let mut file = match File::create(path) {
        Ok(file) => file,
        Err(err) => {
            eprintln!(
                "warning: cannot open journal {}: {err}; journaling disabled",
                path.display()
            );
            return None;
        }
    };
    match file.write_all(contents.as_bytes()).and_then(|()| file.flush()) {
        Ok(()) => Some(file),
        Err(err) => {
            eprintln!("warning: journal write failed ({err}); journaling disabled");
            None
        }
    }
}

/// Parses a full-width (16-digit) hex `u64`. The fixed width is what
/// makes SIGKILL truncation detectable: a token cut short never parses.
pub fn parse_hex_u64(token: &str) -> Option<u64> {
    if token.len() != 16 {
        return None;
    }
    u64::from_str_radix(token, 16).ok()
}

/// Parses a full-width hex `f64` bit pattern, rejecting non-finite
/// values (a NaN or infinite measurement is never journaled).
pub fn parse_hex_f64(token: &str) -> Option<f64> {
    let value = f64::from_bits(parse_hex_u64(token)?);
    value.is_finite().then_some(value)
}

/// Renders an optional float as a full-width hex bit pattern, or `-`
/// when absent.
pub fn encode_opt_f64(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{:016x}", v.to_bits()),
        None => "-".to_string(),
    }
}

/// Parses [`encode_opt_f64`]'s rendering back; `None` if malformed.
pub fn parse_opt_f64(token: &str) -> Option<Option<f64>> {
    match token {
        "-" => Some(None),
        hex => Some(Some(parse_hex_f64(hex)?)),
    }
}

/// Keep-last-K retention for a journal directory (`--journal-gc K`):
/// deletes `*.journal` files beyond the `keep` most recently modified,
/// except that a file whose name embeds any of `active_fingerprints` (as
/// 16 hex digits, the form every journal file name uses) is **never**
/// deleted, no matter how old. Garbage collection must not eat the
/// journal the current run is appending to or about to resume from.
/// Returns how many files were removed; I/O errors are best-effort
/// skips, so a GC pass can never fail a run.
pub fn gc_journals(dir: &Path, keep: usize, active_fingerprints: &[u64]) -> usize {
    let active: Vec<String> = active_fingerprints
        .iter()
        .map(|fp| format!("{fp:016x}"))
        .collect();
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    // simlint::allow(D1): file mtimes order GC candidates only; no
    // simulated result ever observes them.
    let mut journals: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let name = path.file_name()?.to_str()?;
            if !name.ends_with(".journal") {
                return None;
            }
            if active.iter().any(|hex| name.contains(hex.as_str())) {
                return None;
            }
            let modified = entry.metadata().ok()?.modified().ok()?;
            Some((modified, path))
        })
        .collect();
    // Newest first; ties break on the path so the order is total.
    journals.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut removed = 0;
    for (_, path) in journals.into_iter().skip(keep) {
        if fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}
