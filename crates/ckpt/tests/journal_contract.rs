//! The contract of `dimetrodon_ckpt::journal`, the line journal the sweep,
//! fleet and chaos journals are built on. Each family keeps its own
//! line-format round-trip and truncation tests; this suite pins the shared
//! open/heal/append behaviour once:
//!
//! * a fresh open writes exactly the header;
//! * resuming after a torn, newline-less tail heals the file to the header
//!   plus its valid lines, and the next append decodes;
//! * a repeated key's later line wins;
//! * opening without resume truncates;
//! * an unusable path disables journaling instead of panicking;
//! * concurrent appends from several threads all land as whole lines.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use dimetrodon_ckpt::journal::{
    encode_opt_f64, gc_journals, parse_hex_f64, parse_hex_u64, parse_opt_f64, LineJournal,
};

const HEADER: &str = "# test journal v1";

/// A scratch directory unique to this process and `tag`, emptied first.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dimetrodon-line-journal-{}-{tag}",
        std::process::id()
    ));
    drop(fs::remove_dir_all(&dir));
    dir
}

/// The test format: `entry <key> <value as 16 hex digits>`. The
/// fixed-width value makes every strict prefix of a line undecodable,
/// like the real formats.
fn encode(key: u64, value: u64) -> String {
    format!("entry {key} {value:016x}")
}

fn decode(line: &str) -> Option<(u64, u64)> {
    let mut tokens = line.split_whitespace();
    if tokens.next()? != "entry" {
        return None;
    }
    let key = tokens.next()?.parse().ok()?;
    let value = parse_hex_u64(tokens.next()?)?;
    tokens.next().is_none().then_some((key, value))
}

fn open(path: &Path, resume: bool) -> (LineJournal, BTreeMap<u64, u64>) {
    LineJournal::open(path.to_path_buf(), HEADER, resume, decode)
}

fn text(path: &Path) -> String {
    fs::read_to_string(path).expect("journal readable")
}

#[test]
fn a_fresh_open_writes_exactly_the_header() {
    let dir = scratch("fresh");
    let path = dir.join("fresh.journal");
    let (journal, entries) = open(&path, false);
    assert!(entries.is_empty());
    assert_eq!(journal.path(), path.as_path());
    assert_eq!(text(&path), format!("{HEADER}\n"));

    // Resuming a journal that does not exist yet is a fresh open too.
    let missing = dir.join("missing.journal");
    let (_journal, entries) = open(&missing, true);
    assert!(entries.is_empty());
    assert_eq!(text(&missing), format!("{HEADER}\n"));
    drop(fs::remove_dir_all(&dir));
}

#[test]
fn resume_after_a_torn_tail_heals_to_header_plus_valid_lines() {
    let dir = scratch("torn");
    fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("torn.journal");
    let third = encode(3, 0x3333);
    let torn = format!(
        "# an older header\n{}\nnot an entry\n{}\n{}",
        encode(1, 0x1111),
        encode(2, 0x2222),
        &third[..third.len() - 4]
    );
    fs::write(&path, torn).expect("write torn journal");

    let (journal, entries) = open(&path, true);
    assert_eq!(entries, BTreeMap::from([(1, 0x1111), (2, 0x2222)]));
    assert_eq!(
        text(&path),
        format!("{HEADER}\n{}\n{}\n", encode(1, 0x1111), encode(2, 0x2222)),
        "healing keeps the header and the decodable lines only"
    );

    // The next append lands on a line boundary and decodes.
    journal.append(&third);
    drop(journal);
    let (_journal, entries) = open(&path, true);
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[&3], 0x3333);
    drop(fs::remove_dir_all(&dir));
}

#[test]
fn a_repeated_key_replays_its_later_line() {
    let dir = scratch("dup");
    fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("dup.journal");
    fs::write(
        &path,
        format!(
            "{HEADER}\n{}\n{}\n{}\n",
            encode(1, 0xa),
            encode(2, 0xb),
            encode(1, 0xc)
        ),
    )
    .expect("write journal");

    let (_journal, entries) = open(&path, true);
    assert_eq!(entries, BTreeMap::from([(1, 0xc), (2, 0xb)]));
    assert_eq!(
        text(&path),
        format!("{HEADER}\n{}\n{}\n", encode(2, 0xb), encode(1, 0xc)),
        "the superseded line is dropped; survivors keep their order"
    );
    drop(fs::remove_dir_all(&dir));
}

#[test]
fn opening_without_resume_truncates() {
    let dir = scratch("trunc");
    let path = dir.join("trunc.journal");
    let (journal, _) = open(&path, false);
    journal.append(&encode(7, 0x77));
    drop(journal);

    let (journal, entries) = open(&path, false);
    assert!(entries.is_empty(), "a fresh open replays nothing");
    assert_eq!(text(&path), format!("{HEADER}\n"));
    drop(journal);
    drop(fs::remove_dir_all(&dir));
}

#[test]
fn an_unusable_path_disables_journaling_without_panicking() {
    let dir = scratch("blocked");
    fs::create_dir_all(&dir).expect("scratch dir");
    // The journal's directory is really a regular file.
    let blocker = dir.join("blocker");
    fs::write(&blocker, "not a directory").expect("write blocker");
    for resume in [false, true] {
        let path = blocker.join("sub").join("x.journal");
        let (journal, entries) = open(&path, resume);
        assert!(entries.is_empty());
        journal.append(&encode(1, 1));
        assert!(!path.exists());
    }
    assert_eq!(text(&blocker), "not a directory");
    drop(fs::remove_dir_all(&dir));
}

#[test]
fn concurrent_appends_all_decode() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50;
    let dir = scratch("threads");
    let path = dir.join("threads.journal");
    let (journal, _) = open(&path, false);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let journal = &journal;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let key = t * PER_THREAD + i;
                    journal.append(&encode(key, key.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
                }
            });
        }
    });
    drop(journal);

    let written = text(&path);
    assert_eq!(written.lines().count() as u64, 1 + THREADS * PER_THREAD);
    assert!(written.lines().skip(1).all(|line| decode(line).is_some()));
    let (_journal, entries) = open(&path, true);
    assert_eq!(entries.len() as u64, THREADS * PER_THREAD);
    for (key, value) in entries {
        assert_eq!(value, key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    drop(fs::remove_dir_all(&dir));
}

#[test]
fn hex_tokens_are_fixed_width_finite_and_bit_exact() {
    for value in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 5e-324, -1.0e300] {
        let token = format!("{:016x}", f64::to_bits(value));
        let parsed = parse_hex_f64(&token).expect("finite value parses");
        assert_eq!(parsed.to_bits(), value.to_bits());
        for cut in 0..token.len() {
            assert!(parse_hex_f64(&token[..cut]).is_none(), "cut at {cut} parsed");
        }
        assert_eq!(parse_opt_f64(&encode_opt_f64(Some(value))), Some(Some(parsed)));
    }
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(parse_hex_f64(&format!("{:016x}", value.to_bits())).is_none());
    }
    assert_eq!(encode_opt_f64(None), "-");
    assert_eq!(parse_opt_f64("-"), Some(None));
    assert_eq!(parse_opt_f64("x"), None);
    assert_eq!(parse_hex_u64("00000000000000ff"), Some(255));
    assert_eq!(parse_hex_u64("ff"), None);
    assert_eq!(parse_hex_u64("000000000000000g"), None);
}

#[test]
fn journal_gc_keeps_last_k_and_never_deletes_active_fingerprints() {
    let dir = scratch("gc");
    fs::create_dir_all(&dir).expect("create dir");
    let active_fp: u64 = 0xA11CE;
    let name = |family: &str, fp: u64| dir.join(format!("{family}-{fp:016x}.journal"));
    // The active journal is the OLDEST file — worst case for an
    // mtime-ordered GC.
    let mut paths = vec![name("sweep", active_fp)];
    for fp in 1..=4u64 {
        paths.push(name("fleet", fp));
    }
    paths.push(dir.join("not-a-journal.txt"));
    let base = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
    for (age, path) in paths.iter().enumerate() {
        fs::write(path, "journal\n").expect("write");
        let file = fs::File::options().write(true).open(path).expect("open");
        file.set_modified(base + Duration::from_secs(age as u64))
            .expect("set mtime");
    }

    let removed = gc_journals(&dir, 2, &[active_fp]);
    assert_eq!(removed, 2, "4 inactive journals, keep 2");
    assert!(
        name("sweep", active_fp).exists(),
        "GC must never delete the active fingerprint's journal"
    );
    assert!(dir.join("not-a-journal.txt").exists(), "non-journals untouched");
    // The two newest inactive journals survive, the two oldest are gone.
    assert!(!name("fleet", 1).exists());
    assert!(!name("fleet", 2).exists());
    assert!(name("fleet", 3).exists());
    assert!(name("fleet", 4).exists());

    assert_eq!(gc_journals(&dir, 2, &[active_fp]), 0, "GC is idempotent");
    drop(fs::remove_dir_all(&dir));
}
