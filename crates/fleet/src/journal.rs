//! The per-shard durable update journal (`SNVJ`).
//!
//! The router appends one record *at admission time* for every request it
//! forwards into a shard — session creation descriptors, seq-stamped
//! update submissions, and close tombstones — flushing after each record
//! so a shard crash loses nothing that was acknowledged. On failover the
//! survivors replay the dead shard's journal suffix (every update past
//! the latest checkpoint), which is what turns "a shard died" into "zero
//! admitted updates lost".
//!
//! # On-disk format
//!
//! ```text
//! header:  "SNVJ" | version u16 LE | shard u64 LE
//! record:  len u32 LE | payload (len bytes)
//! payload: tag u8 | fields (all LE)
//!   tag 0 create:     session u64 | kind u8 | steps u32 | seed u64
//!   tag 1 update:     session u64 | seq u64 | deadline u64
//!   tag 2 tombstone:  session u64 | seq u64   (seq = updates admitted)
//!   tag 3 checkpoint: session u64 | floor u64 (updates below `floor` are
//!                     superseded by a durable checkpoint the router
//!                     holds; compaction may drop them)
//! ```
//!
//! Version 2 added the checkpoint-floor record (tag 3); version-1 files
//! are refused with a typed error rather than read with silently wrong
//! floors.
//!
//! Reading is panic-free and *truncated-tail tolerant*: a crash can leave
//! a half-written final record, so the reader returns every complete
//! record and reports how many trailing bytes it ignored. Corruption
//! anywhere else (bad magic, unknown version or tag, lying lengths)
//! surfaces as a typed [`JournalError`]. [`JournalWriter::open_append`]
//! is the restart path: it re-validates the header, truncates a torn
//! tail, and resumes appending where the last complete record ended.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal file magic.
pub const JOURNAL_MAGIC: [u8; 4] = *b"SNVJ";
/// Journal format version this build writes and reads.
pub const JOURNAL_VERSION: u16 = 2;
/// Cap on one record's payload — far above any legal record, so a lying
/// length cannot drive a huge allocation.
pub const MAX_RECORD_BYTES: usize = 1 << 16;

const TAG_CREATE: u8 = 0;
const TAG_UPDATE: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

/// One journaled admission event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalEntry {
    /// A session was admitted to the shard with this replay descriptor.
    Create {
        /// Fleet-global session id.
        session: u64,
        /// Dataset family code (see `supernova_serve::protocol::DatasetKind`).
        kind: u8,
        /// Online steps in the replayed trajectory.
        steps: u32,
        /// Generator seed.
        seed: u64,
    },
    /// One update was admitted into the session's queue.
    Update {
        /// Fleet-global session id.
        session: u64,
        /// Zero-based position of this update in the session's lifetime
        /// stream (the replay cursor before the submit).
        seq: u64,
        /// Logical deadline the update carried.
        deadline: u64,
    },
    /// The session closed cleanly after `seq` admitted updates; its
    /// journal history is dead weight from here on.
    Tombstone {
        /// Fleet-global session id.
        session: u64,
        /// Updates admitted over the session's lifetime.
        seq: u64,
    },
    /// The router holds a durable checkpoint of the session that has
    /// applied every update below `floor`: failover replay starts there,
    /// and compaction may drop this session's earlier update records.
    Checkpoint {
        /// Fleet-global session id.
        session: u64,
        /// The replay floor (updates `0..floor` are inside the checkpoint).
        floor: u64,
    },
}

/// A typed journal I/O or format failure. Decode paths never panic.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not open with [`JOURNAL_MAGIC`].
    BadMagic,
    /// The file's version is not [`JOURNAL_VERSION`].
    BadVersion(u16),
    /// A record declares a payload over [`MAX_RECORD_BYTES`].
    TooLarge(u32),
    /// A complete record's payload failed to parse.
    Malformed(&'static str),
    /// A journal reopened for append belongs to a different shard than
    /// the caller expected — the restart wiring is crossed.
    ShardMismatch {
        /// The shard id the caller expected.
        expected: u64,
        /// The shard id stamped in the file's header.
        found: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::BadMagic => write!(f, "not a SNVJ journal (bad magic)"),
            JournalError::BadVersion(v) => write!(
                f,
                "unsupported journal version {v} (this build reads {JOURNAL_VERSION})"
            ),
            JournalError::TooLarge(n) => write!(
                f,
                "journal record claims {n} bytes, cap is {MAX_RECORD_BYTES}"
            ),
            JournalError::Malformed(why) => write!(f, "malformed journal record: {why}"),
            JournalError::ShardMismatch { expected, found } => write!(
                f,
                "journal belongs to shard {found}, expected shard {expected}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Append-only writer over one shard's journal file. Every `record_*`
/// call writes a complete frame and flushes before returning, so an
/// acknowledged admission is durable.
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    records: u64,
}

impl JournalWriter {
    /// Creates (truncating) the journal at `path` and writes its header.
    pub fn create(path: &Path, shard: u64) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(14);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&shard.to_le_bytes());
        file.write_all(&header)?;
        file.flush()?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            records: 0,
        })
    }

    /// Reopens an existing journal for appending — the restart path.
    ///
    /// Validates the header (magic, version, shard id), truncates the
    /// torn tail a crash mid-append can leave (so the next record starts
    /// on a clean frame boundary), and resumes with the record counter
    /// set to the number of complete records already on disk.
    pub fn open_append(path: &Path, shard: u64) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let contents = read_journal_bytes(&bytes)?;
        if contents.shard != shard {
            return Err(JournalError::ShardMismatch {
                expected: shard,
                found: contents.shard,
            });
        }
        let valid_len = (bytes.len() - contents.truncated_tail) as u64;
        if contents.truncated_tail > 0 {
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            records: contents.entries.len() as u64,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one entry and flushes it to the OS.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), JournalError> {
        let mut payload = Vec::with_capacity(32);
        match entry {
            JournalEntry::Create {
                session,
                kind,
                steps,
                seed,
            } => {
                payload.push(TAG_CREATE);
                payload.extend_from_slice(&session.to_le_bytes());
                payload.push(*kind);
                payload.extend_from_slice(&steps.to_le_bytes());
                payload.extend_from_slice(&seed.to_le_bytes());
            }
            JournalEntry::Update {
                session,
                seq,
                deadline,
            } => {
                payload.push(TAG_UPDATE);
                payload.extend_from_slice(&session.to_le_bytes());
                payload.extend_from_slice(&seq.to_le_bytes());
                payload.extend_from_slice(&deadline.to_le_bytes());
            }
            JournalEntry::Tombstone { session, seq } => {
                payload.push(TAG_TOMBSTONE);
                payload.extend_from_slice(&session.to_le_bytes());
                payload.extend_from_slice(&seq.to_le_bytes());
            }
            JournalEntry::Checkpoint { session, floor } => {
                payload.push(TAG_CHECKPOINT);
                payload.extend_from_slice(&session.to_le_bytes());
                payload.extend_from_slice(&floor.to_le_bytes());
            }
        }
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.records += 1;
        Ok(())
    }
}

/// The parse of one journal file.
#[derive(Debug)]
pub struct JournalContents {
    /// The shard id stamped in the header.
    pub shard: u64,
    /// Every complete record, in append order.
    pub entries: Vec<JournalEntry>,
    /// Trailing bytes ignored because the final record was incomplete
    /// (a crash mid-append). Zero on a clean file.
    pub truncated_tail: usize,
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.buf.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| {
            let mut b = [0u8; 4];
            b.copy_from_slice(s);
            u32::from_le_bytes(b)
        })
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        })
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

fn decode_entry(payload: &[u8]) -> Result<JournalEntry, JournalError> {
    let mut cur = Cursor {
        buf: payload,
        at: 0,
    };
    let tag = cur.u8().ok_or(JournalError::Malformed("empty payload"))?;
    let entry = match tag {
        TAG_CREATE => JournalEntry::Create {
            session: cur
                .u64()
                .ok_or(JournalError::Malformed("create: session"))?,
            kind: cur.u8().ok_or(JournalError::Malformed("create: kind"))?,
            steps: cur.u32().ok_or(JournalError::Malformed("create: steps"))?,
            seed: cur.u64().ok_or(JournalError::Malformed("create: seed"))?,
        },
        TAG_UPDATE => JournalEntry::Update {
            session: cur
                .u64()
                .ok_or(JournalError::Malformed("update: session"))?,
            seq: cur.u64().ok_or(JournalError::Malformed("update: seq"))?,
            deadline: cur
                .u64()
                .ok_or(JournalError::Malformed("update: deadline"))?,
        },
        TAG_TOMBSTONE => JournalEntry::Tombstone {
            session: cur
                .u64()
                .ok_or(JournalError::Malformed("tombstone: session"))?,
            seq: cur.u64().ok_or(JournalError::Malformed("tombstone: seq"))?,
        },
        TAG_CHECKPOINT => JournalEntry::Checkpoint {
            session: cur
                .u64()
                .ok_or(JournalError::Malformed("checkpoint: session"))?,
            floor: cur
                .u64()
                .ok_or(JournalError::Malformed("checkpoint: floor"))?,
        },
        _ => return Err(JournalError::Malformed("unknown record tag")),
    };
    if !cur.done() {
        return Err(JournalError::Malformed("trailing bytes in record"));
    }
    Ok(entry)
}

/// Parses the journal bytes at `path`. Complete records are returned in
/// order; an incomplete final record (crash mid-append) is tolerated and
/// reported via [`JournalContents::truncated_tail`]; everything else
/// malformed is a typed error. Never panics on hostile bytes.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    read_journal_bytes(&bytes)
}

/// [`read_journal`] over an in-memory byte image.
pub fn read_journal_bytes(bytes: &[u8]) -> Result<JournalContents, JournalError> {
    let mut cur = Cursor { buf: bytes, at: 0 };
    let magic = cur.take(4).ok_or(JournalError::BadMagic)?;
    if magic != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = cur
        .take(2)
        .map(|s| {
            let mut b = [0u8; 2];
            b.copy_from_slice(s);
            u16::from_le_bytes(b)
        })
        .ok_or(JournalError::BadVersion(0))?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::BadVersion(version));
    }
    let shard = cur
        .u64()
        .ok_or(JournalError::Malformed("header: shard id"))?;
    let mut entries = Vec::new();
    loop {
        let frame_start = cur.at;
        let Some(len) = cur.u32() else {
            return Ok(JournalContents {
                shard,
                entries,
                truncated_tail: bytes.len() - frame_start,
            });
        };
        let len = len as usize;
        if len > MAX_RECORD_BYTES {
            return Err(JournalError::TooLarge(len as u32));
        }
        let Some(payload) = cur.take(len) else {
            return Ok(JournalContents {
                shard,
                entries,
                truncated_tail: bytes.len() - frame_start,
            });
        };
        entries.push(decode_entry(payload)?);
        if cur.done() {
            return Ok(JournalContents {
                shard,
                entries,
                truncated_tail: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry::Create {
                session: 7,
                kind: 0,
                steps: 40,
                seed: 99,
            },
            JournalEntry::Update {
                session: 7,
                seq: 0,
                deadline: 10,
            },
            JournalEntry::Update {
                session: 7,
                seq: 1,
                deadline: 11,
            },
            JournalEntry::Checkpoint {
                session: 7,
                floor: 2,
            },
            JournalEntry::Tombstone { session: 7, seq: 2 },
        ]
    }

    fn write_image(entries: &[JournalEntry]) -> Vec<u8> {
        // One directory per call: tests run in parallel and each removes
        // its directory when done.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("snvj-test-{}-{call}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.snvj");
        let mut w = JournalWriter::create(&path, 3).expect("create journal");
        for e in entries {
            w.append(e).expect("append");
        }
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    #[test]
    fn round_trips_and_counts_records() {
        let entries = sample_entries();
        let bytes = write_image(&entries);
        let parsed = read_journal_bytes(&bytes).expect("parse");
        assert_eq!(parsed.shard, 3);
        assert_eq!(parsed.entries, entries);
        assert_eq!(parsed.truncated_tail, 0);
    }

    #[test]
    fn tolerates_a_truncated_tail() {
        let entries = sample_entries();
        let bytes = write_image(&entries);
        // Chop the file anywhere inside the final record: all earlier
        // records must still parse and the tail must be reported.
        let full = read_journal_bytes(&bytes).expect("full parse");
        let last_start = bytes.len() - 4 - 1 - 8 - 8; // tombstone frame
        for cut in last_start + 1..bytes.len() {
            let parsed = read_journal_bytes(&bytes[..cut]).expect("truncated parse");
            assert_eq!(parsed.entries.len(), full.entries.len() - 1, "cut {cut}");
            assert_eq!(parsed.truncated_tail, cut - last_start, "cut {cut}");
        }
    }

    #[test]
    fn header_and_payload_corruption_is_typed_not_a_panic() {
        let bytes = write_image(&sample_entries());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_journal_bytes(&bad),
            Err(JournalError::BadMagic)
        ));
        let mut bad = bytes.clone();
        bad[4] = 0xEE;
        assert!(matches!(
            read_journal_bytes(&bad),
            Err(JournalError::BadVersion(_))
        ));
        // Unknown tag in the first record.
        let mut bad = bytes.clone();
        bad[14 + 4] = 0x7F;
        assert!(matches!(
            read_journal_bytes(&bad),
            Err(JournalError::Malformed(_))
        ));
        // A lying length cannot drive a huge allocation.
        let mut bad = bytes;
        bad[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_journal_bytes(&bad),
            Err(JournalError::TooLarge(_))
        ));
    }

    #[test]
    fn open_append_resumes_where_create_left_off() {
        let dir = std::env::temp_dir().join(format!("snvj-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.snvj");
        let entries = sample_entries();
        {
            let mut w = JournalWriter::create(&path, 5).expect("create");
            for e in &entries[..2] {
                w.append(e).expect("append");
            }
        }
        let mut w = JournalWriter::open_append(&path, 5).expect("reopen");
        assert_eq!(w.records(), 2);
        for e in &entries[2..] {
            w.append(e).expect("append after reopen");
        }
        drop(w);
        let parsed = read_journal(&path).expect("parse");
        assert_eq!(parsed.entries, entries);
        assert_eq!(parsed.truncated_tail, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_truncates_a_torn_tail_and_rejects_foreign_shards() {
        let dir = std::env::temp_dir().join(format!("snvj-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.snvj");
        let entries = sample_entries();
        {
            let mut w = JournalWriter::create(&path, 5).expect("create");
            for e in &entries {
                w.append(e).expect("append");
            }
        }
        // Model a crash mid-append: chop the file inside the final record.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("chop");
        assert!(matches!(
            JournalWriter::open_append(&path, 9),
            Err(JournalError::ShardMismatch {
                expected: 9,
                found: 5
            })
        ));
        let mut w = JournalWriter::open_append(&path, 5).expect("reopen torn");
        assert_eq!(w.records(), entries.len() as u64 - 1);
        w.append(entries.last().expect("non-empty"))
            .expect("re-append");
        drop(w);
        let parsed = read_journal(&path).expect("parse");
        assert_eq!(parsed.entries, entries);
        assert_eq!(parsed.truncated_tail, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        let bytes = write_image(&sample_entries());
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                let _ = read_journal_bytes(&bad); // must not panic
            }
        }
    }
}
