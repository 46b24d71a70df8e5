//! Durable replica state: an append-only write-ahead log plus snapshot
//! files, consumed by the `rsoc_transport` serve loop.
//!
//! The protocol cores are sans-io: they emit
//! [`DurableEvent`]s describing what
//! must survive a crash, and this crate is the only code that turns those
//! into bytes on disk. The layout reuses the
//! [`Wire`] encoding — digesting, socket framing,
//! and disk persistence share one byte layout — wrapped in a CRC-framed
//! record so damage is *detected*, never interpreted:
//!
//! ```text
//! wal-<k>.log    record*            (k = segment index, dense)
//! record         = len:u32 LE | crc32(payload):u32 LE | payload
//! payload        = RECORD_VERSION | WalRecord         (versioned)
//! snap-<seq>.bin = one record whose payload is a SnapshotRecord
//! ```
//!
//! **Crash model.** The store is built for *process* crashes (SIGKILL,
//! panic, OOM-kill) — the fault the paper's rejuvenation cycle induces on
//! purpose. Appends reach the kernel page cache before the serve loop
//! acks, which survives process death without per-record `fsync`;
//! snapshot files, which are allowed to be slow, are written
//! tmp-then-rename with `sync_all`. Power loss can tear the WAL tail —
//! and that is recoverable too: [`DataDir::open`] replays the longest
//! valid record prefix and truncates the rest, because a replica that
//! lost its tail is merely *behind* (collaborative state transfer closes
//! the gap), while a replica that trusts a torn record is *wrong*.
//!
//! **Everything read back is ingress.** A length field is checked against
//! the bytes actually read before it is used (the one bound writer and
//! reader share is the field's own `u32`), every payload must pass CRC and
//! versioned decode, and the first failure ends replay — later bytes, and
//! later segments, are discarded rather than resynchronized (a heuristic
//! resync could splice histories). The protocol core then re-verifies the
//! snapshot's certificate and the state rebuilt from its image; the WAL
//! replayed above the snapshot is CRC-checked, and each batch is sealed
//! from the bytes read (so it carries their digest), but it is not
//! certificate-checked — a commit record carries no quorum proof, and
//! never did. The store's CRC is a torn-write detector, not an
//! authenticator.
//!
//! **The WAL is the delta log.** A core does not hand over a
//! [`DurableEvent::Stable`] at every stable checkpoint, only once the
//! commits appended since the last image weigh as much as that image did
//! (see `rsoc_bft::durable`): until then a new image would save replaying
//! less than one image's worth of records and cost writing the whole
//! state. Images written therefore sum to at most the WAL written plus
//! one, whatever the checkpoint interval and however large the state.
//!
//! **Garbage collection.** Each snapshot written rolls the WAL to a fresh
//! segment and records the segment that was current when it was taken as
//! its `wal_start`: commits above the watermark that were appended before
//! the certificate stabilised still replay. Segments below `wal_start`
//! and snapshots below the newest valid one are deleted, so steady state
//! holds one snapshot and at most one image's worth of WAL above it (plus
//! the closed segment `wal_start` names).

use rsoc_bft::api::Batch;
use rsoc_bft::checkpoint::CheckpointCert;
use rsoc_bft::codec::{Crc32, Reader, Wire};
use rsoc_bft::durable::{DurableEvent, RecoveredState};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// CRC-32 (IEEE) — the per-record integrity check. Detects any
/// single-burst error shorter than 32 bits, which covers the torn and
/// bit-flipped tails the chaos harness injects.
pub use rsoc_bft::codec::crc32;

/// The version byte every record payload starts with. It moved with the
/// wire version through version 3 (certificates certify Merkle roots);
/// wire version 4 reframed only protocol messages, which never reach the
/// disk, so records stay at 3 and a data directory written before it
/// still opens.
pub const RECORD_VERSION: u8 = 3;

/// The length field of a record holding `payload` bytes. It is a `u32`,
/// and that is the only bound: writer and reader must agree on it, or a
/// record the writer accepted (and garbage-collected its predecessors
/// for) is one the reader refuses. The reader needs no tighter cap — it
/// parses a buffer it has already read, so a lying length is caught by
/// the bounds check, not by an allocation.
fn record_len(payload: usize) -> io::Result<u32> {
    u32::try_from(payload).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "record exceeds the u32 length field")
    })
}

/// One WAL record. Its `wire!` declaration is the disk layout (behind
/// [`RECORD_VERSION`]), so a layout change bumps the version and
/// invalidates old WALs explicitly instead of misreading them.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Agreement slot `seq` committed `batch`.
    Commit {
        /// Agreement sequence of the slot.
        seq: u64,
        /// The committed batch.
        batch: Arc<Batch>,
    },
    /// Highest USIG counter issued so far (MinBFT only).
    UsigCounter(u64),
}

rsoc_bft::wire! { enum WalRecord { 0 => Commit { seq, batch }, 1 => UsigCounter(counter) } }

/// The payload of a snapshot file: the stable certificate, the snapshot
/// it certifies, and the WAL segment replay must start from.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// The stable checkpoint certificate (re-verified by the core on
    /// recovery — the store does not hold MAC keys).
    pub cert: CheckpointCert,
    /// Committed-log length at the certificate watermark.
    pub log_len: u64,
    /// The certified snapshot bytes.
    pub bytes: Vec<u8>,
    /// First WAL segment not fully covered by this snapshot.
    pub wal_start: u64,
}

rsoc_bft::wire! { struct SnapshotRecord { cert, log_len, bytes, wal_start } }

/// Appends `value` to `out` as one on-disk record, `len | crc | payload`:
/// the payload is encoded in place behind a blank header, which is then
/// patched. A payload too long for the header leaves `out` as it was.
pub fn frame_record<T: Wire>(value: &T, out: &mut Vec<u8>) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    out.push(RECORD_VERSION);
    value.encode(out);
    let payload = &out[start + 8..];
    let (len, crc) = match record_len(payload.len()) {
        Ok(len) => (len, crc32(payload)),
        Err(e) => {
            out.truncate(start);
            return Err(e);
        }
    };
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// The bytes a snapshot file holds before and after `image`: the record
/// header and the [`SnapshotRecord`] fields around its `bytes`, so that
/// `head · image · tail` is exactly `frame_record(&SnapshotRecord { .. })`
/// without the state-sized image ever being copied. The checksum runs
/// over the three parts in turn.
fn snapshot_envelope(
    cert: &CheckpointCert,
    log_len: u64,
    image: &[u8],
    wal_start: u64,
) -> io::Result<[Vec<u8>; 2]> {
    let mut head = vec![0u8; 8];
    head.push(RECORD_VERSION);
    cert.encode(&mut head);
    log_len.encode(&mut head);
    (image.len() as u64).encode(&mut head);
    let mut tail = Vec::new();
    wal_start.encode(&mut tail);
    let len = record_len(head.len() - 8 + image.len() + tail.len())?;
    let mut crc = Crc32::new();
    crc.feed(&head[8..]);
    crc.feed(image);
    crc.feed(&tail);
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..8].copy_from_slice(&crc.finish().to_le_bytes());
    Ok([head, tail])
}

/// Parses the record at `bytes[off..]`. Returns the decoded value and
/// the offset one past it, or `None` on any framing, bounds, CRC, or
/// decode failure — the caller truncates there.
// Disk contents are adversarial ingress: every arithmetic step below is
// bounds-checked before it is used as a length or index.
// lint: ingress
fn parse_record<T: Wire>(bytes: &[u8], off: usize) -> Option<(T, usize)> {
    let header = bytes.get(off..off + 8)?;
    // bounds: `header` is exactly 8 bytes by the `get` range above
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    // bounds: indexes 4..8 of the same 8-byte slice
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let start = off + 8;
    let payload = bytes.get(start..start + len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((decode_record::<T>(payload)?, start + len as usize))
}

/// Decodes one record payload: [`RECORD_VERSION`], then exactly one value.
fn decode_record<T: Wire>(payload: &[u8]) -> Option<T> {
    let mut r = Reader::new(payload);
    if r.u8()? != RECORD_VERSION {
        return None;
    }
    let value = T::decode(&mut r)?;
    r.is_empty().then_some(value)
}
// lint: end

/// Parses `wal-<k>.log` / `snap-<seq>.bin` style names.
fn parse_index(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// A replica's durable state directory: snapshot files plus an
/// append-only segmented WAL.
pub struct DataDir {
    dir: PathBuf,
    /// Open append handle on the current segment.
    wal: File,
    /// Index of the current segment.
    seg: u64,
    /// Frames accumulated by [`persist`](Self::persist) between flushes.
    pending: Vec<u8>,
}

impl DataDir {
    /// Opens (or creates) `dir`, replaying whatever survived into a
    /// [`RecoveredState`]: the newest snapshot that passes CRC + decode,
    /// then the WAL record run up to the first damaged record — the tail
    /// past it is truncated on the spot, and stale files are deleted.
    // Recovery is ingress end to end — see the module docs.
    // lint: ingress
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<(Self, RecoveredState)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_index(name, "snap-", ".bin") {
                snaps.push((seq, entry.path()));
            } else if let Some(k) = parse_index(name, "wal-", ".log") {
                segs.push((k, entry.path()));
            }
        }
        snaps.sort_by_key(|s| std::cmp::Reverse(s.0));
        segs.sort_by_key(|s| s.0);

        // Newest snapshot that reads back cleanly wins; everything else
        // (older, or newer-but-damaged) is garbage-collected.
        let mut state = RecoveredState::default();
        let mut wal_start = 0u64;
        let mut chosen = false;
        for (_, path) in &snaps {
            if chosen {
                let _ = fs::remove_file(path);
                continue;
            }
            match fs::read(path).ok().and_then(|b| {
                let (rec, end) = parse_record::<SnapshotRecord>(&b, 0)?;
                (end == b.len()).then_some(rec)
            }) {
                Some(rec) => {
                    wal_start = rec.wal_start;
                    state.snapshot = Some((rec.cert, rec.log_len, rec.bytes));
                    chosen = true;
                }
                None => {
                    let _ = fs::remove_file(path);
                }
            }
        }

        // Replay segments from `wal_start`, dense: a missing segment is a
        // gap, and a damaged record ends replay — in both cases the rest
        // of the WAL is deleted rather than spliced across the hole.
        let mut live = 0u64;
        let mut have_live = false;
        let mut broken = false;
        for (k, path) in &segs {
            if *k < wal_start {
                let _ = fs::remove_file(path);
                continue;
            }
            let expected = if have_live { live + 1 } else { wal_start };
            if broken || *k != expected {
                broken = true;
                let _ = fs::remove_file(path);
                continue;
            }
            let bytes = fs::read(path)?;
            let mut off = 0usize;
            while off < bytes.len() {
                match parse_record::<WalRecord>(&bytes, off) {
                    Some((WalRecord::Commit { seq, batch }, end)) => {
                        state.commits.push((seq, batch));
                        off = end;
                    }
                    Some((WalRecord::UsigCounter(c), end)) => {
                        state.usig_counter = state.usig_counter.max(c);
                        off = end;
                    }
                    None => {
                        // Torn or corrupted tail: keep the valid prefix.
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(off as u64)?;
                        broken = true;
                        break;
                    }
                }
            }
            live = *k;
            have_live = true;
        }

        let seg = if have_live { live } else { wal_start };
        let wal = OpenOptions::new().create(true).append(true).open(segment_path(&dir, seg))?;
        Ok((DataDir { dir, wal, seg, pending: Vec::new() }, state))
    }
    // lint: end

    /// Persists `events` in order. Commits and USIG counters append to
    /// the current WAL segment; a stable checkpoint writes a snapshot
    /// file (tmp-then-rename, synced), rolls to a fresh segment, and
    /// garbage-collects what the snapshot covers. The call returns only
    /// once every byte is handed to the kernel — the serve loop acks
    /// after this, never before.
    pub fn persist(&mut self, events: &[DurableEvent]) -> io::Result<()> {
        for event in events {
            match event {
                DurableEvent::Commit { seq, batch } => {
                    let rec = WalRecord::Commit { seq: *seq, batch: batch.clone() };
                    frame_record(&rec, &mut self.pending)?;
                }
                DurableEvent::UsigCounter(c) => {
                    frame_record(&WalRecord::UsigCounter(*c), &mut self.pending)?;
                }
                DurableEvent::Stable { cert, log_len, snapshot } => {
                    self.flush_pending()?;
                    self.take_snapshot(cert, *log_len, snapshot)?;
                }
            }
        }
        self.flush_pending()
    }

    /// Writes the accumulated record frames to the current segment.
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.wal.write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    /// Writes `snap-<seq>.bin` for a stable certificate, rolls the WAL,
    /// and deletes covered segments and superseded snapshots.
    fn take_snapshot(
        &mut self,
        cert: &CheckpointCert,
        log_len: u64,
        snapshot: &[u8],
    ) -> io::Result<()> {
        // Commits above the watermark may already sit in the current
        // segment (they committed before the certificate stabilised), so
        // the snapshot points replay at the segment being closed, not the
        // fresh one. An image the record header cannot describe is refused
        // here, with the previous snapshot and its segments untouched.
        let [head, tail] = snapshot_envelope(cert, log_len, snapshot, self.seg)?;
        let tmp = self.dir.join("snap.tmp");
        let path = self.dir.join(format!("snap-{}.bin", cert.seq));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&head)?;
            f.write_all(snapshot)?;
            f.write_all(&tail)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;

        self.seg += 1;
        self.wal =
            OpenOptions::new().create(true).append(true).open(segment_path(&self.dir, self.seg))?;
        self.gc(cert.seq, self.seg.saturating_sub(1))?;
        Ok(())
    }

    /// Deletes snapshots below `keep_seq` and segments below `keep_seg`.
    fn gc(&self, keep_seq: u64, keep_seg: u64) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale =
                match (parse_index(name, "snap-", ".bin"), parse_index(name, "wal-", ".log")) {
                    (Some(seq), _) => seq < keep_seq,
                    (_, Some(k)) => k < keep_seg,
                    _ => false,
                };
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// The directory this store lives in.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

/// Path of WAL segment `k` under `dir`.
pub fn segment_path(dir: &Path, k: u64) -> PathBuf {
    dir.join(format!("wal-{k}.log"))
}

/// The WAL segment paths under `dir`, ascending by index — the chaos
/// harness polls the last one's size and mutates its tail.
pub fn wal_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(k) = name.to_str().and_then(|n| parse_index(n, "wal-", ".log")) {
            segs.push((k, entry.path()));
        }
    }
    segs.sort_by_key(|s| s.0);
    Ok(segs.into_iter().map(|(_, p)| p).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsoc_bft::api::{ClientId, OpId, Request};
    use rsoc_bft::checkpoint::CheckpointVoucher;
    use rsoc_crypto::{sha256, Tag};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique per-test scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let id = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("rsoc_store_test_{}_{id}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn req(client: u32, seq: u64, payload: Vec<u8>) -> Arc<Request> {
        Arc::new(Request { op: OpId { client: ClientId(client), seq }, payload })
    }

    fn commit(seq: u64, payload: Vec<u8>) -> DurableEvent {
        DurableEvent::Commit { seq, batch: Arc::new(Batch::single(req(1, seq, payload))) }
    }

    fn cert(seq: u64, snapshot: &[u8]) -> CheckpointCert {
        let digest = sha256(snapshot);
        CheckpointCert {
            seq,
            digest,
            vouchers: vec![CheckpointVoucher {
                seq,
                digest,
                from: rsoc_bft::api::ReplicaId(0),
                tag: Tag([9; 32]),
            }],
        }
    }

    fn stable(seq: u64, snapshot: Vec<u8>) -> DurableEvent {
        DurableEvent::Stable {
            cert: cert(seq, &snapshot),
            log_len: seq,
            snapshot: Arc::new(snapshot),
        }
    }

    /// `value`'s record payload is `golden` byte for byte, is as long as
    /// its `wire_len` says, decodes back, and every strict prefix of it is
    /// refused.
    fn check_layout<T: Wire + PartialEq + std::fmt::Debug>(value: &T, golden: &[u8]) {
        let mut record = Vec::new();
        frame_record(value, &mut record).expect("small record");
        let frame = &record[8..];
        assert_eq!(frame, golden, "{value:?}");
        assert_eq!(value.wire_len() + 1, frame.len(), "{value:?}: the version byte and the value");
        assert_eq!(decode_record::<T>(frame).as_ref(), Some(value));
        for cut in 0..frame.len() {
            assert!(decode_record::<T>(&frame[..cut]).is_none(), "prefix of {cut} bytes");
        }
    }

    /// The on-disk records, laid out by hand: a byte field is `count u64
    /// LE · bytes`, as it was when it crossed the codec one element at a
    /// time, so no WAL segment or snapshot file changes.
    #[test]
    fn records_are_their_hand_built_layouts() {
        let field = |b: &[u8]| [&(b.len() as u64).to_le_bytes()[..], b].concat();
        let batch = Arc::new(Batch::single(req(3, 9, b"SET k v".to_vec())));
        let request = [&3u32.to_le_bytes()[..], &9u64.to_le_bytes(), &field(b"SET k v")].concat();
        let commit = WalRecord::Commit { seq: 9, batch };
        let layout = [&[RECORD_VERSION, 0][..], &9u64.to_le_bytes(), &1u64.to_le_bytes(), &request];
        check_layout(&commit, &layout.concat());
        let counter = WalRecord::UsigCounter(77);
        check_layout(&counter, &[&[RECORD_VERSION, 1][..], &77u64.to_le_bytes()].concat());

        let image = b"CKIMG1 state".to_vec();
        let cert = cert(5, &image);
        let mut cert_layout = Vec::new();
        cert.encode(&mut cert_layout);
        let snapshot = SnapshotRecord { cert, log_len: 5, bytes: image.clone(), wal_start: 2 };
        let layout = [
            &[RECORD_VERSION][..],
            &cert_layout,
            &5u64.to_le_bytes(),
            &field(&image),
            &2u64.to_le_bytes(),
        ];
        check_layout(&snapshot, &layout.concat());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let scratch = Scratch::new();
        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        assert!(state.is_empty());
    }

    #[test]
    fn commits_and_counter_round_trip() {
        let scratch = Scratch::new();
        let events =
            vec![commit(1, b"a".to_vec()), DurableEvent::UsigCounter(4), commit(2, b"b".to_vec())];
        {
            let (mut store, state) = DataDir::open(&scratch.0).unwrap();
            assert!(state.is_empty());
            store.persist(&events).unwrap();
        }
        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        let written: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                DurableEvent::Commit { seq, batch } => Some((*seq, batch.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(state.commits, written);
        assert_eq!(state.usig_counter, 4);
        assert!(state.snapshot.is_none());
    }

    #[test]
    fn stable_checkpoint_rolls_segments_and_gcs() {
        let scratch = Scratch::new();
        {
            let (mut store, _) = DataDir::open(&scratch.0).unwrap();
            store.persist(&[commit(1, b"a".to_vec()), commit(2, b"b".to_vec())]).unwrap();
            store.persist(&[stable(2, b"state@2".to_vec())]).unwrap();
            store.persist(&[commit(3, b"c".to_vec())]).unwrap();
            store.persist(&[stable(3, b"state@3".to_vec())]).unwrap();
            store.persist(&[commit(4, b"d".to_vec())]).unwrap();
        }
        // One snapshot, and the two segments around it.
        let snaps: Vec<_> = fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().to_str().map(str::to_string))
            .filter(|n| n.starts_with("snap-"))
            .collect();
        assert_eq!(snaps, vec!["snap-3.bin".to_string()]);
        assert!(wal_segments(&scratch.0).unwrap().len() <= 2);

        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        let (c, log_len, bytes) = state.snapshot.expect("snapshot survived");
        assert_eq!((c.seq, log_len, bytes.as_slice()), (3, 3, b"state@3".as_slice()));
        // Segment 1 (closed by the seq-3 snapshot) still replays commit 3;
        // the core skips it as covered. Commit 4 is the live tail.
        assert_eq!(state.commits.last().unwrap().0, 4);
    }

    /// The snapshot file is streamed around the borrowed image; its bytes
    /// must stay exactly the framed [`SnapshotRecord`] `open` parses.
    #[test]
    fn snapshot_file_is_the_framed_record_byte_for_byte() {
        for image in [Vec::new(), b"state@7".to_vec(), vec![0xA5; 70_000]] {
            let scratch = Scratch::new();
            let (mut store, _) = DataDir::open(&scratch.0).unwrap();
            store.persist(&[commit(1, b"a".to_vec()), stable(7, image.clone())]).unwrap();
            let rec =
                SnapshotRecord { cert: cert(7, &image), log_len: 7, bytes: image, wal_start: 0 };
            let mut framed = Vec::new();
            frame_record(&rec, &mut framed).unwrap();
            assert_eq!(fs::read(scratch.0.join("snap-7.bin")).unwrap(), framed);
        }
    }

    /// What the writer accepts — and collects the older snapshot and
    /// segments for — the reader must read: an image above the socket
    /// frame cap of 64 MiB (≈ 4·10⁵ keys) is inside the one bound both
    /// sides share, the `u32` length field.
    #[test]
    fn a_snapshot_above_64_mib_reads_back() {
        let scratch = Scratch::new();
        let image = vec![0xA5u8; (64 << 20) + 1];
        let event = DurableEvent::Stable {
            cert: cert(2, b"not what is certified: the store never looks"),
            log_len: 2,
            snapshot: Arc::new(image),
        };
        {
            let (mut store, _) = DataDir::open(&scratch.0).unwrap();
            store.persist(&[commit(1, b"a".to_vec()), stable(1, b"state@1".to_vec())]).unwrap();
            store.persist(&[commit(2, b"b".to_vec()), event.clone()]).unwrap();
        }
        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        let (c, _, bytes) = state.snapshot.expect("the large snapshot survived");
        let DurableEvent::Stable { snapshot, .. } = event else { unreachable!() };
        assert!(c.seq == 2 && bytes == *snapshot);
    }

    #[test]
    fn a_record_the_length_field_cannot_describe_is_refused_before_anything_is_written() {
        assert_eq!(record_len(u32::MAX as usize).unwrap(), u32::MAX);
        let refused = record_len(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
    }

    /// Between two written images the segment now runs across skipped
    /// checkpoints; a tear inside it still costs only the torn record.
    #[test]
    fn torn_tail_above_a_snapshot_keeps_the_snapshot_and_the_valid_prefix() {
        let scratch = Scratch::new();
        {
            let (mut store, _) = DataDir::open(&scratch.0).unwrap();
            store.persist(&[commit(1, b"a".to_vec()), stable(1, b"state@1".to_vec())]).unwrap();
            for seq in 2..=9 {
                store.persist(&[commit(seq, vec![seq as u8; 40])]).unwrap();
            }
        }
        let seg = segment_path(&scratch.0, 1);
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 5).unwrap();

        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        assert_eq!(state.snapshot.expect("the snapshot is intact").0.seq, 1);
        let seqs: Vec<u64> = state.commits.iter().map(|c| c.0).collect();
        assert_eq!(seqs, [1, 2, 3, 4, 5, 6, 7, 8], "segment 0, then segment 1 up to the tear");
        let valid = fs::metadata(&seg).unwrap().len();
        assert!(valid < len - 5, "the torn record is gone from disk");
        // Appends resume behind the valid prefix.
        let (mut store, _) = DataDir::open(&scratch.0).unwrap();
        store.persist(&[commit(9, b"again".to_vec())]).unwrap();
        drop(store);
        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        assert_eq!(state.commits.last().map(|c| c.0), Some(9));
    }

    #[test]
    fn torn_tail_is_truncated_not_trusted() {
        let scratch = Scratch::new();
        {
            let (mut store, _) = DataDir::open(&scratch.0).unwrap();
            store.persist(&[commit(1, b"aa".to_vec()), commit(2, b"bb".to_vec())]).unwrap();
        }
        let seg = segment_path(&scratch.0, 0);
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 3).unwrap();

        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        assert_eq!(state.commits.len(), 1);
        assert_eq!(state.commits[0].0, 1);
        // The torn bytes are gone from disk too: a second open sees the
        // same prefix, not a previously-hidden half-record.
        assert!(fs::metadata(&seg).unwrap().len() < len - 3);
    }

    #[test]
    fn corrupt_record_ends_replay() {
        let scratch = Scratch::new();
        let written = write_commits(&scratch.0, &[b"aa".to_vec(), b"bb".to_vec(), b"cc".to_vec()]);
        let seg = segment_path(&scratch.0, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();

        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        // Whatever survived is a clean prefix of what was written.
        assert!(state.commits.len() < 3);
        assert_eq!(&state.commits[..], &written[..state.commits.len()]);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal() {
        let scratch = Scratch::new();
        {
            let (mut store, _) = DataDir::open(&scratch.0).unwrap();
            store.persist(&[commit(1, b"a".to_vec()), stable(1, b"state@1".to_vec())]).unwrap();
            store.persist(&[commit(2, b"b".to_vec())]).unwrap();
        }
        let snap = scratch.0.join("snap-1.bin");
        let mut bytes = fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&snap, &bytes).unwrap();

        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        assert!(state.snapshot.is_none(), "damaged snapshot must not load");
        assert!(!snap.exists(), "damaged snapshot is deleted");
        // The WAL still replays: segment 0 was closed by the snapshot but
        // retained as its wal_start, so commit 1 and 2 both survive.
        assert_eq!(state.commits.iter().map(|c| c.0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn missing_segment_stops_replay_at_the_gap() {
        let scratch = Scratch::new();
        {
            let (mut store, _) = DataDir::open(&scratch.0).unwrap();
            store.persist(&[commit(1, b"a".to_vec()), stable(1, b"s1".to_vec())]).unwrap();
            store.persist(&[commit(2, b"b".to_vec()), stable(2, b"s2".to_vec())]).unwrap();
            store.persist(&[commit(3, b"c".to_vec())]).unwrap();
        }
        // Remove the snapshot AND the middle segment: replay must stop at
        // the gap instead of splicing segment 2's commits after segment 0.
        let _ = fs::remove_file(scratch.0.join("snap-2.bin"));
        let _ = fs::remove_file(segment_path(&scratch.0, 1));
        let (_store, state) = DataDir::open(&scratch.0).unwrap();
        let seqs: Vec<u64> = state.commits.iter().map(|c| c.0).collect();
        assert!(!seqs.contains(&3), "commit past the gap must not replay: {seqs:?}");
    }

    /// Builds the WAL the proptests damage: `n` single-request commits
    /// with varied payloads, all in segment 0.
    fn write_commits(dir: &Path, payloads: &[Vec<u8>]) -> Vec<(u64, Arc<Batch>)> {
        let (mut store, _) = DataDir::open(dir).unwrap();
        let events: Vec<DurableEvent> =
            payloads.iter().enumerate().map(|(i, p)| commit(i as u64 + 1, p.clone())).collect();
        store.persist(&events).unwrap();
        events
            .iter()
            .map(|e| match e {
                DurableEvent::Commit { seq, batch } => (*seq, batch.clone()),
                _ => unreachable!(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary record streams round-trip byte-exactly.
        #[test]
        fn wal_round_trips(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 1..12),
        ) {
            let scratch = Scratch::new();
            let written = write_commits(&scratch.0, &payloads);
            let (_store, state) = DataDir::open(&scratch.0).unwrap();
            prop_assert_eq!(&state.commits, &written);
        }

        /// Any truncation of the WAL tail recovers the longest valid
        /// record prefix — without panicking, and without inventing
        /// records.
        #[test]
        fn truncation_recovers_longest_valid_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 1..12),
            cut in 1usize..64,
        ) {
            let scratch = Scratch::new();
            let written = write_commits(&scratch.0, &payloads);
            let seg = segment_path(&scratch.0, 0);
            let len = fs::metadata(&seg).unwrap().len();
            let keep = len.saturating_sub(cut as u64);
            OpenOptions::new().write(true).open(&seg).unwrap().set_len(keep).unwrap();

            let (_store, state) = DataDir::open(&scratch.0).unwrap();
            prop_assert!(state.commits.len() <= written.len());
            prop_assert_eq!(&state.commits[..], &written[..state.commits.len()]);
        }

        /// Any single-byte corruption anywhere in the WAL recovers a
        /// valid record prefix without panicking.
        #[test]
        fn bit_flip_recovers_a_valid_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 1..12),
            pos in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let scratch = Scratch::new();
            let written = write_commits(&scratch.0, &payloads);
            let seg = segment_path(&scratch.0, 0);
            let mut bytes = fs::read(&seg).unwrap();
            let at = (pos % bytes.len() as u64) as usize;
            bytes[at] ^= flip;
            fs::write(&seg, &bytes).unwrap();

            let (_store, state) = DataDir::open(&scratch.0).unwrap();
            prop_assert!(state.commits.len() < written.len() + 1);
            prop_assert_eq!(&state.commits[..], &written[..state.commits.len()]);
        }
    }
}
