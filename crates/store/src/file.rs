//! The file-backed backend: segmented, length-prefixed, CRC-checked
//! logs with torn-tail truncation on open.
//!
//! A store directory holds `seg-NNNNNN.log` files (see [`crate::record`]
//! for the byte layout).  Writes go to the highest-numbered segment
//! until it holds `records_per_segment` records, then a new segment is
//! started.  On open, every segment is scanned front to back; the first
//! record that fails its length or CRC check marks the end of the valid
//! prefix — the segment is truncated there, any later segments are
//! removed, and the damage is *reported* in an [`OpenReport`] rather
//! than panicking.  The crash model is process death: writes reach the
//! OS on every append, and durability across power loss (fsync policy)
//! is explicitly out of scope for this simulation-first store.

use crate::record::{
    decode_record, encode_event, encode_snapshot, header_is_valid, segment_header, Decoded,
    LogRecord, SEGMENT_HEADER_LEN,
};
use crate::{Accepted, JournalCore, SnapshotRecord, Store, StoreError, StoreResult};
use gridflow_telemetry::TraceRecord;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Default record-count capacity of one segment.
pub const DEFAULT_RECORDS_PER_SEGMENT: usize = 1024;

/// What `FileStore::open` found — and what it had to discard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenReport {
    /// Number of segment files scanned (including any removed).
    pub segments: usize,
    /// Valid event records recovered.
    pub events: usize,
    /// Valid snapshot records recovered.
    pub snapshots: usize,
    /// Bytes discarded as torn or corrupt (truncated tails plus any
    /// whole segments dropped after the corruption point).
    pub discarded_bytes: u64,
    /// Whole segment files removed (corrupt header, or stranded after
    /// a truncation in an earlier segment).
    pub discarded_segments: usize,
    /// Did open have to truncate or remove anything?
    pub truncated: bool,
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

/// A file-backed [`Store`].
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    records_per_segment: usize,
    core: JournalCore,
    current_index: u64,
    current_records: usize,
}

impl FileStore {
    /// Open (or create) the store in `dir`, recovering whatever valid
    /// prefix the segments hold and truncating any torn tail.  Returns
    /// the store plus a report of what was found and discarded.
    pub fn open(
        dir: impl Into<PathBuf>,
        records_per_segment: usize,
    ) -> StoreResult<(FileStore, OpenReport)> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        let mut indices: Vec<u64> = fs::read_dir(&dir)
            .map_err(io_err)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let idx = name.strip_prefix("seg-")?.strip_suffix(".log")?;
                idx.parse().ok()
            })
            .collect();
        indices.sort_unstable();

        let mut report = OpenReport {
            segments: indices.len(),
            ..OpenReport::default()
        };
        let mut events = Vec::new();
        let mut snapshots = Vec::new();
        let mut current_index = 0u64;
        let mut current_records = 0usize;
        let mut corrupted = false;

        for (pos, &index) in indices.iter().enumerate() {
            let path = segment_path(&dir, index);
            if corrupted {
                // Everything past the corruption point is stranded:
                // keeping it would leave a hole in the event sequence.
                let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                report.discarded_bytes += len;
                report.discarded_segments += 1;
                fs::remove_file(&path).map_err(io_err)?;
                continue;
            }
            let bytes = fs::read(&path).map_err(io_err)?;
            if !header_is_valid(&bytes) {
                // The segment cannot be read at all.  Drop it (and
                // everything after it) and let writes restart here.
                report.discarded_bytes += bytes.len() as u64;
                report.discarded_segments += 1;
                fs::remove_file(&path).map_err(io_err)?;
                corrupted = true;
                current_index = index;
                current_records = 0;
                continue;
            }
            let mut offset = SEGMENT_HEADER_LEN;
            let mut records_here = 0usize;
            loop {
                match decode_record(&bytes, offset) {
                    Decoded::End => break,
                    Decoded::Torn => {
                        report.discarded_bytes += (bytes.len() - offset) as u64;
                        let file = fs::OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(io_err)?;
                        file.set_len(offset as u64).map_err(io_err)?;
                        corrupted = true;
                        break;
                    }
                    Decoded::Record {
                        record,
                        next_offset,
                    } => {
                        match record {
                            LogRecord::Event(r) => {
                                report.events += 1;
                                events.push(r);
                            }
                            LogRecord::Snapshot(s) => {
                                report.snapshots += 1;
                                snapshots.push(s);
                            }
                        }
                        records_here += 1;
                        offset = next_offset;
                    }
                }
            }
            current_index = index;
            current_records = records_here;
            // A full segment that was the last one: further writes
            // must rotate.  Handled uniformly by append's rotation
            // check.
            let _ = pos;
        }
        report.truncated = corrupted;
        let store = FileStore {
            dir,
            records_per_segment: records_per_segment.max(1),
            core: JournalCore::from_parts(events, snapshots),
            current_index,
            current_records,
        };
        Ok((store, report))
    }

    /// Open the store and discard the report (fresh-directory callers).
    pub fn create(dir: impl Into<PathBuf>, records_per_segment: usize) -> StoreResult<FileStore> {
        Ok(Self::open(dir, records_per_segment)?.0)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Start a new segment if the current one is full.
    fn make_room(&mut self) {
        if self.current_records >= self.records_per_segment {
            self.current_index += 1;
            self.current_records = 0;
        }
    }

    /// Append `records` framed records, `bytes` back to back, to the
    /// current segment with one write (plus the header, if the segment
    /// is new).
    fn write_records(&mut self, bytes: &[u8], records: usize) -> StoreResult<()> {
        if records == 0 {
            return Ok(());
        }
        let path = segment_path(&self.dir, self.current_index);
        let mut file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(io_err)?;
        if file.metadata().map_err(io_err)?.len() == 0 {
            file.write_all(&segment_header()).map_err(io_err)?;
        }
        file.write_all(bytes).map_err(io_err)?;
        self.current_records += records;
        Ok(())
    }
}

impl Store for FileStore {
    /// Encodes the call's newly stored records into one buffer and
    /// writes it once per segment it lands in.  Records the core
    /// accepted before a rejection are written before the error
    /// returns, so the files always hold what the core holds.
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()> {
        let mut batch = Vec::new();
        let mut pending = 0;
        let mut verdict = Ok(());
        for record in events {
            match self.core.accept_event(record) {
                Ok(Accepted::Stored) => {
                    if self.current_records + pending >= self.records_per_segment {
                        self.write_records(&batch, pending)?;
                        batch.clear();
                        pending = 0;
                        self.make_room();
                    }
                    batch.extend_from_slice(&encode_event(record));
                    pending += 1;
                }
                Ok(Accepted::Duplicate) => {}
                Err(e) => {
                    verdict = Err(e);
                    break;
                }
            }
        }
        self.write_records(&batch, pending)?;
        verdict
    }

    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()> {
        if self.core.accept_snapshot(&snap)? == Accepted::Stored {
            self.make_room();
            self.write_records(&encode_snapshot(&snap), 1)?;
        }
        Ok(())
    }

    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>> {
        Ok(self.core.events_from(seq))
    }

    fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>> {
        self.core.latest_snapshot()
    }

    fn next_seq(&self) -> u64 {
        self.core.next_seq()
    }

    fn snapshot_count(&self) -> usize {
        self.core.snapshot_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_telemetry::TraceEvent;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory under the system temp dir, cleaned up
    /// on drop.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("gridflow-store-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn event(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            tick: seq,
            at_s: seq as f64 * 0.5,
            source: "engine".into(),
            event: TraceEvent::TickStarted { tick: seq },
        }
    }

    fn snap(next_tick: u64, journal_seq: u64) -> SnapshotRecord {
        SnapshotRecord::new(
            next_tick,
            journal_seq,
            next_tick,
            0.0,
            format!("state-{next_tick}").into_bytes(),
        )
    }

    #[test]
    fn reopen_recovers_everything_written() {
        let tmp = TempDir::new("reopen");
        {
            let mut store = FileStore::create(tmp.path(), 3).unwrap();
            store.append(&[event(0), event(1), event(2)]).unwrap();
            store.snapshot(snap(3, 3)).unwrap();
            store.append(&[event(3), event(4)]).unwrap();
        }
        let (store, report) = FileStore::open(tmp.path(), 3).unwrap();
        assert_eq!(report.events, 5);
        assert_eq!(report.snapshots, 1);
        assert!(!report.truncated);
        assert_eq!(store.next_seq(), 5);
        assert_eq!(
            store.replay_from(0).unwrap(),
            vec![event(0), event(1), event(2), event(3), event(4)]
        );
        let latest = store.latest_snapshot().unwrap().unwrap();
        assert_eq!((latest.next_tick, latest.journal_seq), (3, 3));
    }

    #[test]
    fn segments_rotate_by_record_count() {
        let tmp = TempDir::new("rotate");
        {
            let mut store = FileStore::create(tmp.path(), 2).unwrap();
            store
                .append(&[event(0), event(1), event(2), event(3), event(4)])
                .unwrap();
        }
        let mut names: Vec<String> = fs::read_dir(tmp.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["seg-000000.log", "seg-000001.log", "seg-000002.log"]
        );
        let (store, report) = FileStore::open(tmp.path(), 2).unwrap();
        assert_eq!(report.segments, 3);
        assert_eq!(store.next_seq(), 5);
        // Writes continue in the half-full last segment, then rotate.
        let mut store = store;
        store.append(&[event(5), event(6)]).unwrap();
        assert!(segment_path(tmp.path(), 3).exists());
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let tmp = TempDir::new("torn");
        {
            let mut store = FileStore::create(tmp.path(), 100).unwrap();
            store.append(&[event(0), event(1), event(2)]).unwrap();
        }
        // Tear the last record in half.
        let path = segment_path(tmp.path(), 0);
        let bytes = fs::read(&path).unwrap();
        let torn_len = bytes.len() - 5;
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(torn_len as u64)
            .unwrap();
        let (store, report) = FileStore::open(tmp.path(), 100).unwrap();
        assert!(report.truncated);
        assert_eq!(report.events, 2);
        assert!(report.discarded_bytes > 0);
        assert_eq!(store.next_seq(), 2);
        // The truncated store accepts fresh appends of the lost suffix.
        let mut store = store;
        store.append(&[event(2), event(3)]).unwrap();
        let (reread, report) = FileStore::open(tmp.path(), 100).unwrap();
        assert_eq!(reread.next_seq(), 4);
        assert!(!report.truncated);
    }

    /// Every segment file in `dir`, by name, with its bytes.
    fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().into_string().unwrap(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn one_batched_append_writes_the_bytes_of_single_appends() {
        let events: Vec<TraceRecord> = (0..10).map(event).collect();
        let batched = TempDir::new("batched");
        FileStore::create(batched.path(), 3)
            .unwrap()
            .append(&events)
            .unwrap();
        let single = TempDir::new("single");
        {
            let mut store = FileStore::create(single.path(), 3).unwrap();
            for e in &events {
                store.append(std::slice::from_ref(e)).unwrap();
            }
        }
        let files = segment_files(batched.path());
        assert_eq!(files.len(), 4, "10 records at 3 per segment");
        assert_eq!(files, segment_files(single.path()));

        // Reopen reads every record back.
        let (store, report) = FileStore::open(batched.path(), 3).unwrap();
        assert!(!report.truncated);
        assert_eq!((report.segments, report.events), (4, 10));
        assert_eq!(store.replay_from(0).unwrap(), events);

        // Tear the last record of the batch: reopen keeps the records
        // before it, whole.
        let last = segment_path(batched.path(), 3);
        let len = fs::metadata(&last).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&last)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (store, report) = FileStore::open(batched.path(), 3).unwrap();
        assert!(report.truncated);
        assert_eq!(report.events, 9);
        assert_eq!(store.replay_from(0).unwrap(), events[..9]);
        assert_eq!(
            fs::metadata(&last).unwrap().len(),
            SEGMENT_HEADER_LEN as u64,
            "the torn record is cut off at the segment header"
        );
    }

    #[test]
    fn corruption_in_an_early_segment_drops_later_segments() {
        let tmp = TempDir::new("cascade");
        {
            let mut store = FileStore::create(tmp.path(), 2).unwrap();
            store
                .append(&[event(0), event(1), event(2), event(3), event(4)])
                .unwrap();
        }
        // Flip a byte inside the first segment's second record body.
        let path = segment_path(tmp.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (store, report) = FileStore::open(tmp.path(), 2).unwrap();
        assert!(report.truncated);
        assert_eq!(report.discarded_segments, 2);
        assert!(report.events < 2);
        assert!(store.next_seq() < 2);
        assert!(!segment_path(tmp.path(), 1).exists());
        assert!(!segment_path(tmp.path(), 2).exists());
    }

    #[test]
    fn corrupt_header_discards_the_segment_but_not_the_log_prefix() {
        let tmp = TempDir::new("header");
        {
            let mut store = FileStore::create(tmp.path(), 2).unwrap();
            store.append(&[event(0), event(1), event(2)]).unwrap();
        }
        let path = segment_path(tmp.path(), 1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (store, report) = FileStore::open(tmp.path(), 2).unwrap();
        assert!(report.truncated);
        assert_eq!(report.events, 2);
        assert_eq!(report.discarded_segments, 1);
        assert_eq!(store.next_seq(), 2);
    }
}
