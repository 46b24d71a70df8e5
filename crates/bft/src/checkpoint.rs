//! Certified checkpoints and collaborative state transfer (CST).
//!
//! The paper's resilience story depends on replicas being able to *leave
//! and come back*: rejuvenated or long-crashed tiles must re-join the
//! quorum with **verified** state, not be trusted or abandoned. This
//! module is the shared half of that machinery, used identically by all
//! three protocols so the certificate format cannot drift:
//!
//! * **Certified checkpoints** (Castro–Liskov): every `interval` executed
//!   watermark units (agreement slots for PBFT/MinBFT, log entries for
//!   passive) a replica digests its state machine and broadcasts a MAC'd
//!   [`CheckpointVoucher`]. `quorum` (= f+1) matching vouchers from
//!   distinct replicas form a [`CheckpointCert`] — proof that at least
//!   one *correct* replica vouches for that state.
//! * **Collaborative state transfer** (the febft CST shape): a replica
//!   that learns of a stable certificate ahead of its own execution
//!   requests `cert + image + log suffix` from its peers, rebuilds the
//!   state from the image bytes and cross-checks *its own* digest of the
//!   rebuilt state against `cert.digest` **before** installing
//!   ([`verify_image`]), replays the suffix, and rejoins live agreement.
//! * **Log truncation**: once a checkpoint is stable, everything below it
//!   is recoverable via CST, so retention rings (MinBFT `sent_ui`,
//!   passive `shipped`, the per-slot batch replay ring) and the committed
//!   log itself retire below the watermark — replica memory is bounded
//!   by inter-checkpoint traffic instead of run length.
//!
//! With `interval == 0` the subsystem is **disabled** and byte-invisible:
//! no messages, no timers, no RNG draws, no report changes — the
//! checkpoint-free campaign cells (all of BENCH_2 and BENCH_5, and every
//! BENCH_8 cell but `minbft_ring_aging`) stay byte-identical to the
//! checkpoint-less build. The client-session table ([`ClientSessions`],
//! the replica's one exactly-once table) is execution state, not part of
//! the subsystem: every execution writes it whatever the interval, and a
//! checkpoint certifies it with the state machine.
//!
//! # What a certificate certifies
//!
//! The state machine and the client-session table each live in a paged
//! Merkle tree (see [`KvStore`]; the sessions written since the last
//! checkpoint reach theirs when it is captured), and a voucher signs
//!
//! ```text
//! digest = sha256("CKROOT1\0" · kv_root · sessions_root)
//! ```
//!
//! — the *contents* of both, not a hash over a byte image. Taking a
//! checkpoint is therefore O(pages written since the last one): the two
//! roots rehash only dirty pages, and the retained [`CheckpointImage`] is
//! two `Arc` clones whose pages the live state copies on write. Bytes
//! exist only where bytes are needed — a served transfer, a persisted
//! stable checkpoint — in the `CKIMG3` framing ([`encode_image`]), built
//! at most once per checkpoint. Every consumer of such bytes goes through
//! [`verify_image`]: decode, rebuild both trees from scratch, recompute
//! the digest, compare with the certificate. `sha256(image) ==
//! cert.digest` is **not** the contract.
//!
//! # Trust boundary
//!
//! Vouchers are HMAC'd under per-replica keys provisioned from the run
//! seed ([`CkptKeys`]) — the same trusted key-distribution model as the
//! USIG [`rsoc_hybrid::KeyRing`]. A Byzantine replica cannot forge
//! another replica's voucher (no key), and a lone colluder vouching for a
//! fabricated digest never reaches the f+1 quorum. The post-checkpoint
//! *log suffix* of a transfer is cross-checked against **f+1 distinct
//! responders** before any of it replays (PR 9): the snapshot below the
//! watermark is certificate-verified as before, and above it a slot's
//! batch installs only when f+1 responders carried the same batch digest
//! for that slot — at least one of them honest. A lying responder can
//! therefore at worst *stall* a recovering replica (deny it a quorum for
//! the tail) but never *diverge* it; the requester keeps re-requesting
//! on the [`CST_BACKOFF`] cadence until honest responders form the
//! quorum. The responder's `view` claim remains trusted liveness-only
//! metadata, like the view claims in view-change votes.

use crate::api::{Batch, ClientId, LogEntry, OpId, ReplicaId};
use crate::dense::{IndexKey, Key, OpIndex, ReplicaSet, MAX_REPLICAS};
use crate::statemachine::{KvStore, StateMachine};
use crate::statetree::{read_varint, splice, varint, write_pair, StateTree};
use rsoc_crypto::{MacKey, Sha256, Tag};
use std::sync::{Arc, OnceLock};

/// Cycles a recovering replica waits between state-transfer requests
/// (mirrors the MinBFT `FillGap` backoff: one outstanding round per
/// backoff window, not a request per received message).
pub const CST_BACKOFF: u64 = 200;

/// Domain-separated MAC input for a checkpoint voucher: the watermark and
/// the state digest. The voucher's sender is bound by *which* key MACs it
/// (per-replica keys), not by the payload.
fn voucher_bytes(seq: u64, digest: &[u8; 32]) -> [u8; 48] {
    let mut b = [0u8; 48];
    b[..8].copy_from_slice(b"CKPTVCH\0");
    b[8..16].copy_from_slice(&seq.to_le_bytes());
    b[16..48].copy_from_slice(digest);
    b
}

/// Per-replica checkpoint MAC keys, provisioned from the run seed at
/// cluster construction — the trusted-key-distribution model shared with
/// the USIG key ring (a real SoC would hold these in the tile's trusted
/// perimeter).
#[derive(Debug)]
pub struct CkptKeys {
    keys: Vec<MacKey>,
}

impl CkptKeys {
    /// Derives one key per replica from `seed`.
    pub fn provision(seed: u64, n: usize) -> Arc<Self> {
        let keys =
            (0..n).map(|i| MacKey::derive(seed ^ ((i as u64) << 17), "rsoc-ckpt-key")).collect();
        Arc::new(CkptKeys { keys })
    }

    /// Signs a voucher as replica `from`. (The simulator holds all keys in
    /// one ring; honest replicas only ever sign as themselves.)
    pub fn sign(&self, from: ReplicaId, seq: u64, digest: [u8; 32]) -> CheckpointVoucher {
        let tag = self.keys[from.0 as usize].mac(&voucher_bytes(seq, &digest));
        CheckpointVoucher { seq, digest, from, tag }
    }

    /// Verifies a voucher against its claimed sender's key.
    pub fn verify(&self, v: &CheckpointVoucher) -> bool {
        match self.keys.get(v.from.0 as usize) {
            Some(key) => key.verify(&voucher_bytes(v.seq, &v.digest), &v.tag),
            None => false,
        }
    }
}

/// One replica's MAC'd claim "my state machine digested to `digest` after
/// executing watermark `seq`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointVoucher {
    /// Watermark in the protocol's agreement domain (slot seq for
    /// PBFT/MinBFT, log seq for passive).
    pub seq: u64,
    /// State-machine digest at the watermark.
    pub digest: [u8; 32],
    /// Vouching replica.
    pub from: ReplicaId,
    /// HMAC over `(seq, digest)` under the sender's checkpoint key.
    pub tag: Tag,
}

crate::wire! { struct CheckpointVoucher { seq, digest, from, tag } }

/// `quorum` matching vouchers from distinct replicas: the stable-checkpoint
/// certificate. Verifiable by anyone holding [`CkptKeys`], including a
/// freshly wiped replica — which is what makes certificate-gated re-join
/// possible after rejuvenation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointCert {
    /// Certified watermark.
    pub seq: u64,
    /// Certified state digest.
    pub digest: [u8; 32],
    /// The matching vouchers (distinct senders).
    pub vouchers: Vec<CheckpointVoucher>,
}

crate::wire! { struct CheckpointCert { seq, digest, vouchers } }

/// One peer's answer to a state-transfer request: the stable certificate,
/// the snapshot it certifies, and the committed tail above it.
///
/// The suffix is *slot-grained*: `(agreement seq, batch)` pairs starting
/// at `cert.seq + 1`, dense (passive uses its log seq as the slot
/// domain). Batches carry their own digest preimage (see
/// [`Batch`]), so a requester can compare suffixes from different
/// responders slot by slot and install only slots f+1 of them agree on —
/// the execution watermark and the per-request log entries are *derived*
/// from the voted slots, never taken from a responder's claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateTransfer {
    /// The stable checkpoint certificate the snapshot is checked against.
    pub cert: CheckpointCert,
    /// The checkpoint image ([`encode_image`] framing); the state rebuilt
    /// from it must digest to `cert.digest` ([`verify_image`]).
    pub snapshot: Arc<Vec<u8>>,
    /// Committed log length at the certificate watermark — replayed
    /// entries are numbered `log_base + 1 ..` (cross-checked against
    /// f+1 responders like the suffix).
    pub log_base: u64,
    /// Committed `(slot seq, batch)` pairs above the watermark, dense
    /// from `cert.seq + 1` in slot order.
    pub suffix: Arc<Vec<(u64, Arc<Batch>)>>,
    /// Responder's current view/epoch — liveness-only metadata, adopted
    /// from the install quorum's maximum so a laggard joins the view the
    /// cluster moved to while it was down.
    pub view: u64,
}

crate::wire! { struct StateTransfer { cert, snapshot, log_base, suffix, view } }

/// Counters the campaign rows record per replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Highest stable (certified) watermark known.
    pub stable_seq: u64,
    /// Completed state-transfer installs.
    pub transfers: u64,
    /// Vouchers/certificates/snapshots rejected by verification.
    pub rejected: u64,
    /// Times a `CheckpointHint` escalation fast-forwarded this replica
    /// past an aged-out retention ring (MinBFT only; stays 0 unless a
    /// run crosses the 512-counter ring).
    pub hint_resyncs: u64,
}

/// Domain tag of the certified digest (see the module docs).
const DIGEST_TAG: &[u8; 8] = b"CKROOT1\0";

/// The digest a voucher signs for this state machine and session table.
fn certified_digest(kv: &KvStore, sessions: &ClientSessions) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(DIGEST_TAG);
    h.update(&kv.state_digest());
    h.update(&sessions.tree.root());
    h.finalize()
}

/// The state a checkpoint covers, held structurally: O(1) clones of the
/// state machine and the session table, sharing every page with the live
/// state until it overwrites them.
#[derive(Debug)]
pub struct CheckpointImage {
    kv: KvStore,
    sessions: ClientSessions,
    /// The image bytes, built on first use.
    bytes: OnceLock<Arc<Vec<u8>>>,
}

impl CheckpointImage {
    /// Captures `kv` and `sessions` as they are now (syncing `sessions`).
    pub fn capture(kv: &KvStore, sessions: &mut ClientSessions) -> Self {
        sessions.sync();
        CheckpointImage { kv: kv.clone(), sessions: sessions.clone(), bytes: OnceLock::new() }
    }

    /// The digest a voucher for this state signs.
    pub fn digest(&self) -> [u8; 32] {
        certified_digest(&self.kv, &self.sessions)
    }

    /// The image in [`encode_image`] framing — O(state) the first time,
    /// shared afterwards.
    pub fn bytes(&self) -> Arc<Vec<u8>> {
        Arc::clone(self.bytes.get_or_init(|| {
            let kv = &self.kv;
            Arc::new(encode_image_with(
                kv.snapshot_len(),
                |out| kv.write_snapshot(out),
                &self.sessions,
            ))
        }))
    }
}

/// Own checkpoint taken at a watermark, retained until a certificate
/// forms (then only the stable one is kept, for serving transfers).
#[derive(Debug)]
struct LocalCheckpoint {
    seq: u64,
    log_len: u64,
    image: CheckpointImage,
}

/// Vouchers collected for one not-yet-stable watermark, grouped by the
/// digest they vouch for (honest replicas produce one group; a colluder
/// vouching for a fabricated digest sits alone in its own group).
#[derive(Debug)]
struct PendingCheckpoint {
    seq: u64,
    groups: Vec<([u8; 32], Vec<CheckpointVoucher>)>,
}

/// Per-replica checkpoint state: voucher collection, certificate
/// formation, own-snapshot retention, and the transfer-request backoff.
/// Shared by all three protocols.
#[derive(Debug)]
pub struct CheckpointStore {
    me: ReplicaId,
    /// Vouchers needed for a certificate (f+1; 2-of-2 for passive).
    quorum: usize,
    /// Watermark units between checkpoints; 0 disables the subsystem.
    interval: u64,
    keys: Arc<CkptKeys>,
    pending: Vec<PendingCheckpoint>,
    local: Vec<LocalCheckpoint>,
    stable: Option<CheckpointCert>,
    /// Certificates formed/adopted this run, in order: `(seq, digest)`.
    history: Vec<(u64, [u8; 32])>,
    transfers: u64,
    rejected: u64,
    hint_resyncs: u64,
    /// Next cycle a state-transfer request may be sent.
    transfer_req_at: u64,
}

impl CheckpointStore {
    /// A store for replica `me`; `interval == 0` makes every operation a
    /// no-op (the disabled, byte-invisible configuration).
    pub fn new(me: ReplicaId, quorum: usize, interval: u64, keys: Arc<CkptKeys>) -> Self {
        CheckpointStore {
            me,
            quorum: quorum.max(1),
            interval,
            keys,
            pending: Vec::new(),
            local: Vec::new(),
            stable: None,
            history: Vec::new(),
            transfers: 0,
            rejected: 0,
            hint_resyncs: 0,
            transfer_req_at: 0,
        }
    }

    /// Whether checkpointing is enabled at all.
    pub fn enabled(&self) -> bool {
        self.interval > 0
    }

    /// True when execution just crossed a watermark boundary.
    pub fn due(&self, exec_seq: u64) -> bool {
        self.interval > 0 && exec_seq > 0 && exec_seq.is_multiple_of(self.interval)
    }

    /// The stable certificate, if any.
    pub fn stable(&self) -> Option<&CheckpointCert> {
        self.stable.as_ref()
    }

    /// Stable watermark (0 before the first certificate).
    pub fn stable_seq(&self) -> u64 {
        self.stable.as_ref().map(|c| c.seq).unwrap_or(0)
    }

    /// Certificates formed or adopted this run, in order.
    pub fn history(&self) -> &[(u64, [u8; 32])] {
        &self.history
    }

    /// Campaign counters.
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            stable_seq: self.stable_seq(),
            transfers: self.transfers,
            rejected: self.rejected,
            hint_resyncs: self.hint_resyncs,
        }
    }

    /// Records this replica's own checkpoint at `seq`: retains the image
    /// (for serving transfers once certified) and returns the signed
    /// voucher to broadcast. The caller also feeds the voucher back
    /// through [`record`](Self::record) to count itself.
    pub fn record_local(
        &mut self,
        seq: u64,
        digest: [u8; 32],
        log_len: u64,
        image: CheckpointImage,
    ) -> CheckpointVoucher {
        self.local.retain(|l| l.seq != seq);
        self.local.push(LocalCheckpoint { seq, log_len, image });
        self.keys.sign(self.me, seq, digest)
    }

    // lint: ingress
    /// Ingests one voucher (adversarial input: sender, watermark, and tag
    /// are all attacker-controlled). Returns the newly stable watermark
    /// when this voucher completes a certificate.
    pub fn record(&mut self, v: &CheckpointVoucher) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        if !self.keys.verify(v) {
            self.rejected += 1;
            return None;
        }
        if v.seq <= self.stable_seq() {
            return None; // already covered by a stable certificate
        }
        let pending = match self.pending.iter_mut().find(|p| p.seq == v.seq) {
            Some(p) => p,
            None => {
                self.pending.push(PendingCheckpoint { seq: v.seq, groups: Vec::new() });
                // lint: allow(ingress-expect) -- entry pushed on the line above
                self.pending.last_mut().expect("just pushed")
            }
        };
        let group = match pending.groups.iter_mut().find(|(d, _)| *d == v.digest) {
            Some((_, g)) => g,
            None => {
                pending.groups.push((v.digest, Vec::new()));
                // lint: allow(ingress-expect) -- entry pushed on the line above
                &mut pending.groups.last_mut().expect("just pushed").1
            }
        };
        if group.iter().any(|existing| existing.from == v.from) {
            return None; // one voucher per replica per watermark
        }
        group.push(v.clone());
        if group.len() >= self.quorum {
            let cert =
                CheckpointCert { seq: v.seq, digest: v.digest, vouchers: std::mem::take(group) };
            self.make_stable(cert);
            return Some(self.stable_seq());
        }
        None
    }

    /// Verifies a full certificate: `quorum` vouchers from distinct
    /// senders, each MAC-valid and matching the certificate's watermark
    /// and digest. This is what makes a certificate self-contained — a
    /// wiped replica can validate one with nothing but its keys.
    pub fn verify_cert(&self, cert: &CheckpointCert) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut signers = ReplicaSet::new();
        for v in &cert.vouchers {
            let named = v.seq == cert.seq && v.digest == cert.digest && v.from.0 < MAX_REPLICAS;
            if !named || !self.keys.verify(v) {
                return false;
            }
            signers.insert(v.from);
        }
        signers.len() >= self.quorum
    }

    /// Adopts a certificate learned from a peer (FillGap answers, view
    /// changes, transfer responses). Verified before adoption; a bad
    /// certificate bumps `rejected`. Returns `true` if it advanced the
    /// stable watermark.
    pub fn adopt_cert(&mut self, cert: &CheckpointCert) -> bool {
        if cert.seq <= self.stable_seq() {
            return false;
        }
        if !self.verify_cert(cert) {
            if self.enabled() {
                self.rejected += 1;
            }
            return false;
        }
        self.make_stable(cert.clone());
        true
    }
    // lint: end

    fn make_stable(&mut self, cert: CheckpointCert) {
        let seq = cert.seq;
        self.history.push((seq, cert.digest));
        self.stable = Some(cert);
        self.pending.retain(|p| p.seq > seq);
        // Keep the snapshot the certificate covers (if we took one) plus
        // any newer ones still awaiting their own certificates — those are
        // exactly the snapshots future `make_stable` calls will need.
        self.local.retain(|l| l.seq >= seq);
    }

    /// Log length at the stable watermark, known only if this replica took
    /// that checkpoint itself — the bound its committed log and retention
    /// rings truncate below.
    pub fn stable_log_len(&self) -> Option<u64> {
        let stable = self.stable.as_ref()?;
        self.local.iter().find(|l| l.seq == stable.seq).map(|l| l.log_len)
    }

    /// The transfer a peer can serve: stable certificate plus the image
    /// it certifies, as bytes (materialised on the first call for this
    /// checkpoint). `None` while no certificate is stable or the image
    /// predates this replica's own participation (post-wipe).
    pub fn serve(&self) -> Option<(&CheckpointCert, u64, Arc<Vec<u8>>)> {
        let stable = self.stable.as_ref()?;
        let local = self.local.iter().find(|l| l.seq == stable.seq)?;
        Some((stable, local.log_len, local.image.bytes()))
    }

    /// Whether this replica is behind the stable checkpoint — committed
    /// material below the watermark has been truncated cluster-wide, so
    /// only state transfer can close the gap.
    pub fn behind(&self, exec_seq: u64) -> bool {
        self.stable_seq() > exec_seq
    }

    /// Rate limit for state-transfer requests: at most one broadcast per
    /// [`CST_BACKOFF`] window.
    pub fn may_request(&mut self, now: u64) -> bool {
        if now >= self.transfer_req_at {
            self.transfer_req_at = now.saturating_add(CST_BACKOFF);
            true
        } else {
            false
        }
    }

    /// Counts a completed snapshot install.
    pub fn note_transfer(&mut self) {
        self.transfers += 1;
    }

    /// Counts a rejected snapshot/certificate (verification failure on an
    /// ingress path that lives outside [`record`](Self::record)).
    pub fn note_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Counts a `CheckpointHint` fast-forward past an aged-out retention
    /// ring — the observable proof a run crossed the ring end-to-end.
    pub fn note_hint_resync(&mut self) {
        self.hint_resyncs += 1;
    }

    /// Rejuvenation wipe: volatile collection state is cleared. The stable
    /// certificate and the run counters survive — the certificate because
    /// it is self-verifying (re-checked from `CkptKeys` on every use) and
    /// in a real tile would live in the trusted persistent store, the
    /// counters because they are measurement, not protocol state. Keeping
    /// the certificate is what tells a wiped replica it is behind and must
    /// transfer *before* trusting its empty log.
    pub fn wipe(&mut self) {
        self.pending.clear();
        self.local.clear();
        self.transfer_req_at = 0;
    }
}

/// Executed ops whose replies a client's session keeps: the
/// [`SESSION_WINDOW`] highest seqs it executed. Every client's largest
/// span of ops in flight (its newest issued seq less its oldest
/// unanswered one, plus 1) is at most 7 in every campaign cell, ledger
/// workload and test, so a retry always finds its op in the window.
pub const SESSION_WINDOW: usize = 16;

/// The exactly-once table: per client, the `(seq, reply)` pairs of its
/// [`SESSION_WINDOW`] highest executed seqs.
///
/// Every execution writes it, live or replayed, whether checkpoints are
/// on or not, and every retry, seal filter and `has_executed` reads it.
/// An op below its client's window is unknown. A window is stored as its
/// pairs in ascending seq order, each framed `seq · reply_len · reply`
/// with both integers minimal LEB128 varints (the state tree's length
/// framing: a `(nil)` reply at a seq below 128 takes 7 bytes), so
/// the table costs O(clients × W) bytes whatever the run's length. The
/// certified windows live in a second instance of the state machine's
/// paged Merkle tree, one entry per client (keyed by the client id,
/// big-endian so tree order is client order), so they are digested
/// incrementally, cloned in O(1), and transferred with the KV: a replica
/// that installs an image or recovers one from disk answers every retry
/// its peers would. A window written since the last checkpoint's capture
/// waits in a flat per-client index in front of the tree: a tree write
/// costs a walk of cold pages and a hash-index write does not, and a
/// checkpoint then writes each client once, however many of its ops
/// executed since the last one. A window there is exactly its bytes, so
/// a client costs its 32-byte bucket and its window.
#[derive(Debug, Clone, Default)]
pub struct ClientSessions {
    /// The windows as of the last sync.
    tree: StateTree,
    /// The windows written since, keyed by client, each with its highest
    /// seq: a lookup of a newer op reads the index alone.
    written: OpIndex<(u64, Box<[u8]>), ClientId>,
}

/// The `(seq, reply)` pairs of a stored window, in ascending seq order,
/// each with the offset its framing ends at.
fn pairs(window: &[u8]) -> impl Iterator<Item = (u64, &[u8], usize)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let seq = read_varint(window, &mut at)?;
        let len = usize::try_from(read_varint(window, &mut at)?).ok()?;
        let reply = window.get(at..at.checked_add(len)?)?;
        at += len;
        Some((seq, reply, at))
    })
}

impl ClientSessions {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records executed `op`'s reply in its client's window. A seq already
    /// there takes the new reply; a window that is full drops its lowest
    /// seq for a higher one, and ignores a lower one.
    pub fn note(&mut self, op: OpId, result: &[u8]) {
        if !self.written.contains_key(&op.client) {
            let synced = self.tree.get(&op.client.0.to_be_bytes()).unwrap_or_default();
            let newest = pairs(synced).last().map_or(0, |(seq, ..)| seq);
            self.written.insert(op.client, (newest, synced.into()));
        }
        let Some((newest, window)) = self.written.get_mut(&op.client) else { return };
        // Byte offsets: where the new pair goes, the end of the pair it
        // replaces (one of the same seq), and the end of the lowest pair.
        let (mut count, mut end, mut lowest_end, mut place) = (0, 0, 0, None);
        for (seq, _, pair_end) in pairs(window) {
            let start = end;
            end = pair_end;
            count += 1;
            if count == 1 {
                lowest_end = end;
            }
            if place.is_none() && seq >= op.seq {
                place = Some((start, if seq == op.seq { end } else { start }));
            }
        }
        let (at, past) = place.unwrap_or((end, end));
        let evict = at == past && count >= SESSION_WINDOW;
        if evict && at == 0 {
            return; // below a full window
        }
        *newest = op.seq.max(*newest);
        // An evicted lowest pair lies below `at`; a full window that
        // trades it for a pair of its size is rewritten in place.
        let from = if evict { lowest_end } else { 0 };
        let (seq, len) = (varint(op.seq), varint(result.len() as u64));
        splice(window, from, at, past - at, &[&seq, &len, result]);
    }

    /// The reply of `op`, if it is in its client's window.
    pub fn get(&self, op: OpId) -> Option<&[u8]> {
        let window = match self.written.get(&op.client) {
            Some((newest, _)) if op.seq > *newest => return None,
            Some((_, window)) => window,
            None => self.tree.get(&op.client.0.to_be_bytes())?,
        };
        pairs(window).find(|(seq, ..)| *seq == op.seq).map(|(_, reply, _)| reply)
    }

    /// Writes the windows written since the last sync into the tree, which
    /// then holds every window: what a checkpoint digests and frames.
    fn sync(&mut self) {
        for (client, (_, window)) in self.written.iter() {
            self.tree.insert(&client.0.to_be_bytes(), window, |_| {});
        }
        self.written = OpIndex::new();
    }

    /// Visits every windowed `(client, seq, reply)` as of the last
    /// capture or image, in ascending `(client, seq)` order.
    pub fn for_each(&self, mut visit: impl FnMut(ClientId, u64, &[u8])) {
        self.tree.for_each(|key, window| {
            if let Ok(client) = key.try_into() {
                let client = ClientId(u32::from_be_bytes(client));
                pairs(window).for_each(|(seq, reply, _)| visit(client, seq, reply));
            }
        });
    }

    /// Bytes the table holds: the tree's (see `StateTree::footprint`), the
    /// index's buckets and the windows' bytes.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.tree.footprint()
            + self.written.footprint()
            + self.written.iter().map(|(_, (_, window))| window.len()).sum::<usize>()
    }
}

/// Leading magic of a checkpoint image (version 3: varint lengths in the
/// KV pages and the session windows; version 2 brought a session window
/// per client). An image of another version is refused, so a replica
/// skips an older snapshot on recovery and re-joins by state transfer.
pub const IMAGE_MAGIC: &[u8; 8] = b"CKIMG3\0\0";

/// Frames a KV snapshot and the client-session table into one checkpoint
/// image. This is what transfers and snapshot files carry (certificates
/// sign the state's Merkle roots, not these bytes — see the module docs):
/// `magic · kv_len · kv · n_pairs · [client · seq · reply_len · reply]*`
/// with every windowed pair in ascending `(client, seq)` order (all
/// integers little-endian), so identical state always produces identical
/// bytes. Syncs `sessions` first.
pub fn encode_image(kv: &[u8], sessions: &mut ClientSessions) -> Vec<u8> {
    sessions.sync();
    encode_image_with(kv.len(), |out| out.extend_from_slice(kv), sessions)
}

/// [`encode_image`] of synced `sessions`, with the `kv_len` KV bytes
/// appended by `write_kv` into the exactly-sized image, not copied from a
/// buffer.
pub(crate) fn encode_image_with(
    kv_len: usize,
    write_kv: impl FnOnce(&mut Vec<u8>),
    sessions: &ClientSessions,
) -> Vec<u8> {
    let (mut n_pairs, mut body) = (0u64, 0usize);
    sessions.for_each(|_, _, reply| {
        n_pairs += 1;
        body += 4 + 8 + 8 + reply.len();
    });
    let mut out = Vec::with_capacity(8 + 8 + kv_len + 8 + body);
    out.extend_from_slice(IMAGE_MAGIC);
    out.extend_from_slice(&(kv_len as u64).to_le_bytes());
    write_kv(&mut out);
    out.extend_from_slice(&n_pairs.to_le_bytes());
    sessions.for_each(|client, seq, reply| {
        out.extend_from_slice(&client.0.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(reply.len() as u64).to_le_bytes());
        out.extend_from_slice(reply);
    });
    out
}

// lint: ingress
/// Parses a checkpoint image received in a transfer (adversarial bytes —
/// the certificate pins the digest, but a *corrupt* image must still be
/// rejected, not panic). Returns the KV part and the session table, or
/// `None` on any framing violation: bad magic, truncation, trailing
/// bytes, pairs out of ascending `(client, seq)` order, or more than
/// [`SESSION_WINDOW`] pairs for one client.
pub fn decode_image(bytes: &[u8]) -> Option<(&[u8], ClientSessions)> {
    fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Option<&'a [u8]> {
        let end = at.checked_add(n)?;
        let part = bytes.get(*at..end)?;
        *at = end;
        Some(part)
    }
    fn take_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
        Some(u64::from_le_bytes(take(bytes, at, 8)?.try_into().ok()?))
    }
    let mut at = 0usize;
    if take(bytes, &mut at, 8)? != IMAGE_MAGIC {
        return None;
    }
    let kv_len = usize::try_from(take_u64(bytes, &mut at)?).ok()?;
    let kv = take(bytes, &mut at, kv_len)?;
    let n_pairs = take_u64(bytes, &mut at)?;
    // The session tree's snapshot, each client's window framed once from
    // its consecutive pairs.
    let (mut snapshot, mut window) = (Vec::new(), Vec::new());
    let close = |snapshot: &mut Vec<u8>, prev: Option<OpId>, window: &[u8]| {
        if let Some(p) = prev {
            write_pair(snapshot, &p.client.0.to_be_bytes(), window);
        }
    };
    let (mut prev, mut run): (Option<OpId>, usize) = (None, 0);
    for _ in 0..n_pairs {
        let client = ClientId(u32::from_le_bytes(take(bytes, &mut at, 4)?.try_into().ok()?));
        let op = OpId { client, seq: take_u64(bytes, &mut at)? };
        let same = prev.is_some_and(|p| p.client == client);
        run = if same { run + 1 } else { 1 };
        if prev.is_some_and(|p| p >= op) || run > SESSION_WINDOW {
            return None; // must be strictly ascending and windowed: canonical
        }
        if !same {
            close(&mut snapshot, prev, &window);
            window.clear();
        }
        prev = Some(op);
        let len = usize::try_from(take_u64(bytes, &mut at)?).ok()?;
        let reply = take(bytes, &mut at, len)?;
        window.extend_from_slice(&varint(op.seq));
        window.extend_from_slice(&varint(len as u64));
        window.extend_from_slice(reply);
    }
    if at != bytes.len() {
        return None; // trailing garbage
    }
    close(&mut snapshot, prev, &window);
    let tree = StateTree::from_snapshot(&snapshot)?;
    Some((kv, ClientSessions { tree, written: OpIndex::new() }))
}

/// The one check between "collaborative state transfer" and "installing
/// whatever a peer sent", and between a snapshot file and trusting the
/// disk: parses `image`, rebuilds the state machine and the session table
/// from its bytes, digests what was rebuilt, and returns it only if that
/// digest is the one `cert` certifies. The certificate's own vouchers are
/// the caller's to verify ([`CheckpointStore::verify_cert`]).
pub fn verify_image(cert: &CheckpointCert, image: &[u8]) -> Option<(KvStore, ClientSessions)> {
    let (kv, sessions) = decode_image(image)?;
    let kv = KvStore::install_snapshot(kv)?;
    (certified_digest(&kv, &sessions) == cert.digest).then_some((kv, sessions))
}
// lint: end

/// The cross-checked install a [`CstBuffer`] produces once enough
/// responders agree: certificate, snapshot, log numbering base, the
/// slot-by-slot voted suffix (dense from `cert.seq + 1`), and the install
/// quorum's maximum view claim.
#[derive(Debug, Clone)]
pub struct CstInstall {
    /// The certificate the quorum converged on.
    pub cert: CheckpointCert,
    /// The certified image (taken from any quorum member — all carry
    /// digest-identical state, pinned by the certificate).
    pub snapshot: Arc<Vec<u8>>,
    /// The state [`verify_image`] rebuilt from `snapshot` on admission.
    pub state: (KvStore, ClientSessions),
    /// Committed-log length at the watermark (quorum-agreed).
    pub log_base: u64,
    /// Slots with an f+1-matching batch digest, dense from
    /// `cert.seq + 1`; the install stops at the first non-quorate slot.
    pub suffix: Vec<(u64, Arc<Batch>)>,
    /// Maximum view claimed by the quorum (liveness-only metadata).
    pub view: u64,
}

// lint: ingress
/// Buffers *validated* transfer responses (certificate verified, image
/// rebuilt and digest-matched by [`verify_image`] — the caller's job),
/// each with the state rebuilt from it, until `quorum` distinct
/// responders agree on a `(cert.seq, log_base)` group, then
/// votes the suffix slot by slot.
///
/// This is the PR 9 closure of the single-responder CST residual: with
/// `quorum = f+1`, every installed slot was vouched for by at least one
/// honest responder, so a lying responder can deny progress (stall until
/// the backoff re-request reaches honest peers) but never make a
/// recovering replica execute a batch the cluster did not commit.
#[derive(Debug, Default)]
pub struct CstBuffer {
    pending: Vec<Admitted>,
}

/// A validated response, the replica whose link it arrived on, and the
/// state rebuilt from its image.
type Admitted = (StateTransfer, ReplicaId, (KvStore, ClientSessions));

impl CstBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all buffered responses (after an install, or on wipe).
    pub fn clear(&mut self) {
        self.pending.clear();
    }

    /// Buffered responses (observability/tests).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits one validated response from `responder`. One response per
    /// responder is kept (latest wins — re-requests refresh a peer's
    /// answer), so the buffer holds at most one per replica; responses at
    /// or below `floor` (the requester's execution watermark) are stale
    /// and dropped.
    pub fn admit(
        &mut self,
        responder: ReplicaId,
        st: StateTransfer,
        state: (KvStore, ClientSessions),
        floor: u64,
    ) {
        self.pending.retain(|(p, from, _)| *from != responder && p.cert.seq > floor);
        if st.cert.seq > floor {
            self.pending.push((st, responder, state));
        }
    }

    /// Returns the install once some `(cert.seq, log_base)` group has
    /// `quorum` distinct responders (the highest such watermark wins;
    /// deterministic across admission orders). `None` while no group is
    /// quorate.
    pub fn install_plan(&self, quorum: usize) -> Option<CstInstall> {
        let quorum = quorum.max(1);
        // Group keys, best watermark first.
        let mut keys: Vec<(u64, u64)> =
            self.pending.iter().map(|(p, ..)| (p.cert.seq, p.log_base)).collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        keys.dedup();
        for (seq, log_base) in keys {
            let group: Vec<&Admitted> = self
                .pending
                .iter()
                .filter(|(p, ..)| p.cert.seq == seq && p.log_base == log_base)
                .collect();
            if group.len() < quorum {
                continue;
            }
            return Some(Self::vote(&group, quorum, seq, log_base));
        }
        None
    }

    /// Votes the suffix of one quorate group slot by slot: a slot installs
    /// only when `quorum` members carry the same batch digest for it (at
    /// least one of them honest; a digest is its batch's content, see
    /// [`Batch`]), and the accepted run is dense from the watermark.
    fn vote(group: &[&Admitted], quorum: usize, seq: u64, log_base: u64) -> CstInstall {
        // bounds: install_plan only calls with group.len() >= quorum >= 1
        let (first, _, state) = group[0];
        let cert = first.cert.clone();
        let snapshot = Arc::clone(&first.snapshot);
        let state = state.clone();
        let view = group.iter().map(|(p, ..)| p.view).max().unwrap_or(0);
        let mut suffix = Vec::new();
        let mut slot = seq;
        'slots: loop {
            slot += 1;
            // Tally batch digests claimed for this slot across the group
            // (linear scans: suffixes are bounded by inter-checkpoint
            // traffic and groups by the cluster size).
            let mut tally: Vec<([u8; 32], usize, &Arc<Batch>)> = Vec::new();
            for (p, ..) in group {
                let Some((_, batch)) = p.suffix.iter().find(|(s, _)| *s == slot) else {
                    continue;
                };
                let digest = batch.digest();
                match tally.iter_mut().find(|(d, _, _)| *d == digest) {
                    Some((_, count, _)) => *count += 1,
                    None => tally.push((digest, 1, batch)),
                }
            }
            for (_, count, batch) in &tally {
                if *count >= quorum && !batch.is_empty() {
                    suffix.push((slot, Arc::clone(batch)));
                    continue 'slots;
                }
            }
            break; // first non-quorate slot ends the dense run
        }
        CstInstall { cert, snapshot, state, log_base, suffix, view }
    }
}

/// Byzantine responder helper shared by the protocols' `corrupt_suffix`
/// fault windows: tampers with a suffix about to be served. Replaces the
/// last slot's batch with content the cluster never committed, or
/// fabricates a slot above `after` when the suffix is empty — either way
/// the requester's f+1 cross-check must out-vote it.
pub fn tamper_suffix(suffix: &mut Vec<(u64, Arc<Batch>)>, after: u64) {
    use crate::api::Request;
    match suffix.last_mut() {
        Some((_, batch)) => {
            let evil: Vec<Arc<Request>> = batch
                .requests()
                .iter()
                .map(|r| {
                    let mut e = Request::clone(r);
                    e.payload.push(0xEE);
                    Arc::new(e)
                })
                .collect();
            *batch = Arc::new(Batch::new(evil));
        }
        None => {
            let op = OpId { client: ClientId(u32::MAX - 1), seq: after + 1 };
            let req = Arc::new(Request { op, payload: b"FABRICATED".to_vec() });
            suffix.push((after + 1, Arc::new(Batch::single(req))));
        }
    }
}
// lint: end

/// A committed log that can truncate below the stable checkpoint: the
/// retained ops are a contiguous *suffix* of the full history, `base`
/// counts the truncated prefix. `committed()` (= base + retained) is the
/// replica's total progress; the safety checker aligns replicas by entry
/// `seq`, so truncation at different watermarks stays comparable.
///
/// One agreement slot commits a whole batch under one digest, so the log
/// keeps that digest once per slot, not once per op, and an op's seq is
/// its position: 12 bytes per op (its id packed without padding) plus 40
/// per slot. [`view`](Self::view) reads it back as [`LogEntry`]s.
#[derive(Debug, Default)]
pub struct CommittedLog {
    base: u64,
    /// The retained ops, packed: `ops[i]` committed at seq `base + 1 + i`.
    ops: Vec<Key>,
    /// One `(first seq, batch digest)` per retained slot, ascending. The
    /// first slot may start at or below `base`: it straddles the
    /// watermark.
    slots: Vec<(u64, [u8; 32])>,
}

impl CommittedLog {
    /// An empty, untruncated log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one executed slot: its ops in execution order, each
    /// committed under the slot's batch `digest` at the next dense seq. A
    /// slot without ops leaves no record.
    pub fn append(&mut self, ops: impl IntoIterator<Item = OpId>, digest: [u8; 32]) {
        let first = self.committed() + 1;
        self.ops.extend(ops.into_iter().map(OpId::pack));
        if self.committed() >= first {
            self.slots.push((first, digest));
        }
    }

    /// Total committed operations, including the truncated prefix.
    pub fn committed(&self) -> u64 {
        self.base + self.ops.len() as u64
    }

    /// Sequence number of the first retained entry (== base + 1), or
    /// `committed() + 1` when no suffix is retained.
    pub fn first_retained(&self) -> u64 {
        self.base + 1
    }

    /// The retained suffix, in sequence order.
    pub fn view(&self) -> LogView<'_> {
        LogView { base: self.base, ops: &self.ops, slots: &self.slots }
    }

    /// Drops entries with `seq <= watermark` (no-op for watermarks at or
    /// below the current base; never truncates above what is committed),
    /// and every slot record but the one the first retained op belongs
    /// to.
    pub fn truncate_below(&mut self, watermark: u64) {
        let watermark = watermark.min(self.committed());
        if watermark <= self.base {
            return;
        }
        self.ops.drain(..(watermark - self.base) as usize);
        self.base = watermark;
        let stale = if self.ops.is_empty() {
            self.slots.len()
        } else {
            self.slots.partition_point(|&(first, _)| first <= watermark + 1) - 1
        };
        self.slots.drain(..stale);
    }

    /// Resets to a transferred base: the snapshot covers everything up to
    /// `base`; the caller replays the suffix via [`append`](Self::append).
    pub fn reset_to(&mut self, base: u64) {
        self.ops.clear();
        self.slots.clear();
        self.base = base;
    }

    /// Bytes the log holds: each vector's capacity × element size.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<Key>()
            + self.slots.capacity() * std::mem::size_of::<(u64, [u8; 32])>()
    }
}

/// A replica's retained committed log, read as [`LogEntry`]s (see
/// [`CommittedLog`]). Entries are dense in `seq`; every op of one slot
/// carries that slot's batch digest.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogView<'a> {
    base: u64,
    ops: &'a [Key],
    slots: &'a [(u64, [u8; 32])],
}

impl<'a> LogView<'a> {
    /// Retained entries.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The `index`-th retained entry (seq `first().seq + index`).
    pub fn get(&self, index: usize) -> Option<LogEntry> {
        let op = OpId::unpack(*self.ops.get(index)?);
        let seq = self.base + 1 + index as u64;
        let slot = self.slots.partition_point(|&(first, _)| first <= seq).checked_sub(1)?;
        let &(_, digest) = self.slots.get(slot)?;
        Some(LogEntry { seq, op, digest })
    }

    /// The first retained entry.
    pub fn first(&self) -> Option<LogEntry> {
        self.get(0)
    }

    /// The last retained entry.
    pub fn last(&self) -> Option<LogEntry> {
        self.get(self.len().checked_sub(1)?)
    }

    /// The retained entries in sequence order, walking ops and slots once.
    pub fn iter(&self) -> impl Iterator<Item = LogEntry> + 'a {
        let mut slots = self.slots;
        self.ops.iter().zip(self.base + 1..).map_while(move |(&op, seq)| {
            while let [_, rest @ ..] = slots {
                match rest.first() {
                    Some(&(first, _)) if first <= seq => slots = rest,
                    _ => break,
                }
            }
            let &(_, digest) = slots.first()?;
            Some(LogEntry { seq, op: OpId::unpack(op), digest })
        })
    }
}

/// Two views are equal when they retain the same entries.
impl PartialEq for LogView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClientId, OpId};
    use crate::statetree::hostile_varint_snapshots;
    use rsoc_crypto::sha256;

    /// A store holding `pairs` and a table with one session.
    fn state(pairs: &[(&str, &str)]) -> (KvStore, ClientSessions) {
        let mut kv = KvStore::new();
        for (k, v) in pairs {
            kv.apply(format!("SET {k} {v}").as_bytes());
        }
        let mut sessions = ClientSessions::new();
        sessions.note(OpId { client: ClientId(7), seq: 3 }, b"(nil)");
        (kv, sessions)
    }

    fn op(seq: u64) -> OpId {
        OpId { client: ClientId(1), seq }
    }

    /// Slot `slot`'s batch digest.
    fn digest(slot: u64) -> [u8; 32] {
        sha256(&slot.to_le_bytes())
    }

    /// The entry at `seq` of a log whose slot s holds seqs 2s-1 and 2s.
    fn entry(seq: u64) -> LogEntry {
        LogEntry { seq, op: op(seq), digest: digest(seq.div_ceil(2)) }
    }

    fn entries(log: &CommittedLog) -> Vec<LogEntry> {
        log.view().iter().collect()
    }

    fn store(me: u32, quorum: usize, interval: u64, keys: &Arc<CkptKeys>) -> CheckpointStore {
        CheckpointStore::new(ReplicaId(me), quorum, interval, Arc::clone(keys))
    }

    #[test]
    fn quorum_of_matching_vouchers_forms_a_certificate() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(0, 2, 4, &keys);
        let digest = sha256(b"state");
        assert!(s.record(&keys.sign(ReplicaId(1), 4, digest)).is_none());
        assert_eq!(s.record(&keys.sign(ReplicaId(2), 4, digest)), Some(4));
        assert_eq!(s.stable_seq(), 4);
        assert_eq!(s.history(), &[(4, digest)]);
        // The formed certificate verifies as self-contained.
        let cert = s.stable().unwrap().clone();
        assert!(s.verify_cert(&cert));
    }

    #[test]
    fn duplicate_and_stale_vouchers_do_not_count() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(0, 2, 4, &keys);
        let digest = sha256(b"state");
        let v = keys.sign(ReplicaId(1), 4, digest);
        assert!(s.record(&v).is_none());
        assert!(s.record(&v).is_none(), "same replica cannot vouch twice");
        assert_eq!(s.record(&keys.sign(ReplicaId(3), 4, digest)), Some(4));
        // Vouchers at or below the stable watermark are ignored.
        assert!(s.record(&keys.sign(ReplicaId(2), 4, digest)).is_none());
    }

    #[test]
    fn forged_vouchers_are_rejected_and_counted() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(0, 2, 4, &keys);
        let digest = sha256(b"state");
        let mut forged = keys.sign(ReplicaId(1), 4, digest);
        forged.tag = Tag([0xEE; 32]);
        assert!(s.record(&forged).is_none());
        assert_eq!(s.stats().rejected, 1);
        // A colluder's properly-MAC'd voucher for a *different* digest
        // lands in its own group and never reaches quorum alone.
        let lie = keys.sign(ReplicaId(1), 4, sha256(b"fabricated"));
        assert!(s.record(&lie).is_none());
        assert!(s.record(&keys.sign(ReplicaId(2), 4, digest)).is_none());
        assert_eq!(s.record(&keys.sign(ReplicaId(3), 4, digest)), Some(4));
        assert_eq!(s.stable().unwrap().digest, digest, "honest digest wins");
    }

    #[test]
    fn forged_certificates_are_rejected() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(0, 2, 4, &keys);
        let digest = sha256(b"state");
        let good = CheckpointCert {
            seq: 8,
            digest,
            vouchers: vec![keys.sign(ReplicaId(1), 8, digest), keys.sign(ReplicaId(2), 8, digest)],
        };
        assert!(s.adopt_cert(&good));
        assert_eq!(s.stable_seq(), 8);
        // Same voucher twice: not distinct senders.
        let dup = CheckpointCert {
            seq: 12,
            digest,
            vouchers: vec![
                keys.sign(ReplicaId(1), 12, digest),
                keys.sign(ReplicaId(1), 12, digest),
            ],
        };
        assert!(!s.adopt_cert(&dup));
        // Garbage MACs.
        let mut bad = keys.sign(ReplicaId(1), 12, digest);
        bad.tag = Tag([0; 32]);
        let forged = CheckpointCert {
            seq: 12,
            digest,
            vouchers: vec![bad, keys.sign(ReplicaId(2), 12, digest)],
        };
        assert!(!s.adopt_cert(&forged));
        assert_eq!(s.stable_seq(), 8, "stable watermark unchanged by forgeries");
        assert_eq!(s.stats().rejected, 2);
    }

    #[test]
    fn serving_requires_the_certified_snapshot() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(1, 2, 4, &keys);
        assert!(s.serve().is_none());
        let (kv, mut sessions) = state(&[("a", "1")]);
        let image = CheckpointImage::capture(&kv, &mut sessions);
        let digest = image.digest();
        let v = s.record_local(4, digest, 4, image);
        s.record(&v);
        assert!(s.serve().is_none(), "no certificate yet");
        s.record(&keys.sign(ReplicaId(2), 4, digest));
        let (cert, log_len, served) = s.serve().expect("stable + local image");
        assert_eq!((cert.seq, log_len), (4, 4));
        assert_eq!(*served, encode_image(&kv.snapshot(), &mut sessions));
        assert!(verify_image(cert, &served).is_some());
        // The bytes are built once per checkpoint, then shared.
        assert!(Arc::ptr_eq(&served, &s.serve().unwrap().2));
        // A replica that adopted a cert it never checkpointed (post-wipe)
        // has nothing to serve.
        let mut wiped = store(3, 2, 4, &keys);
        assert!(wiped.adopt_cert(&cert.clone()));
        assert!(wiped.serve().is_none());
        assert!(wiped.behind(0));
    }

    #[test]
    fn wipe_keeps_the_stable_certificate() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(0, 2, 4, &keys);
        let digest = sha256(b"state");
        let (kv, mut sessions) = state(&[]);
        let v = s.record_local(4, digest, 4, CheckpointImage::capture(&kv, &mut sessions));
        s.record(&v);
        s.record(&keys.sign(ReplicaId(2), 4, digest));
        s.wipe();
        assert_eq!(s.stable_seq(), 4, "certificate survives rejuvenation");
        assert!(s.serve().is_none(), "snapshot does not");
        assert!(s.behind(0));
    }

    #[test]
    fn request_backoff_limits_to_one_per_window() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(0, 2, 4, &keys);
        assert!(s.may_request(0));
        assert!(!s.may_request(CST_BACKOFF - 1));
        assert!(s.may_request(CST_BACKOFF));
    }

    #[test]
    fn disabled_store_is_inert() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(0, 2, 0, &keys);
        assert!(!s.enabled());
        assert!(!s.due(8));
        assert!(s.record(&keys.sign(ReplicaId(1), 4, sha256(b"x"))).is_none());
        assert_eq!(s.stats(), CheckpointStats::default());
    }

    #[test]
    fn committed_log_truncates_and_stays_seq_aligned() {
        let mut log = CommittedLog::new();
        for slot in 1..=5 {
            log.append([op(2 * slot - 1), op(2 * slot)], digest(slot));
        }
        // A slot without ops leaves no record.
        log.append([], digest(6));
        assert_eq!(log.committed(), 10);
        assert_eq!(log.first_retained(), 1);
        assert_eq!(entries(&log), (1..=10).map(entry).collect::<Vec<_>>());
        // Truncating inside slot 3 keeps its digest for the op it retains.
        log.truncate_below(5);
        assert_eq!(log.committed(), 10);
        assert_eq!(log.first_retained(), 6);
        let view = log.view();
        assert_eq!((view.len(), view.first(), view.last()), (5, Some(entry(6)), Some(entry(10))));
        assert_eq!(view.get(1), Some(entry(7)));
        assert_eq!(view.get(5), None);
        assert_eq!(entries(&log), (6..=10).map(entry).collect::<Vec<_>>());
        // Truncating below the base or above the head is clamped.
        log.truncate_below(2);
        assert_eq!(log.first_retained(), 6);
        log.truncate_below(99);
        assert_eq!(log.committed(), 10);
        assert!(log.view().is_empty() && log.view().first().is_none());
        log.append([op(11)], digest(6));
        assert_eq!(log.committed(), 11);
        assert_eq!(entries(&log), [entry(11)]);
        // Transfer install: base jumps, suffix replays on top.
        log.reset_to(20);
        assert_eq!(log.committed(), 20);
        assert!(log.view().is_empty());
        log.append([op(21), op(22)], digest(11));
        assert_eq!(log.committed(), 22);
        assert_eq!(entries(&log), [entry(21), entry(22)]);
        // A reset below the old head keeps no slot record from above it.
        log.reset_to(4);
        log.append([op(5), op(6)], digest(3));
        assert_eq!((log.view().first(), log.view().last()), (Some(entry(5)), Some(entry(6))));
        assert_eq!(entries(&log), [entry(5), entry(6)]);
    }

    /// One digest per slot and a packed 12-byte op id per op: 10⁵ ops in
    /// 8-request slots cost at most 24 bytes each (22.3; 27.5 with 16-byte
    /// op ids, and a [`LogEntry`] per op cost at least 56).
    #[test]
    fn the_committed_log_costs_at_most_24_bytes_per_op() {
        let mut log = CommittedLog::new();
        for slot in 0..12_500 {
            log.append((1..=8).map(|i| op(slot * 8 + i)), digest(slot));
        }
        assert_eq!(log.committed(), 100_000);
        let per_op = log.footprint() as f64 / 1e5;
        assert!(per_op <= 24.0, "{per_op:.1} bytes per op");
    }

    /// The certificate signs the state's roots, and only a state
    /// *rebuilt from the bytes* is ever compared with it.
    #[test]
    fn snapshot_cross_check() {
        let (kv, mut sessions) = state(&[("a", "1"), ("b", "2")]);
        let captured = CheckpointImage::capture(&kv, &mut sessions);
        let cert = CheckpointCert { seq: 1, digest: captured.digest(), vouchers: vec![] };
        let image = captured.bytes();
        let (kv2, mut sessions2) = verify_image(&cert, &image).expect("the certified state");
        assert_eq!(encode_image(&kv2.snapshot(), &mut sessions2), *image);
        // Not the flat hash of the image: that contract is gone.
        let flat = CheckpointCert { digest: sha256(&image), ..cert.clone() };
        assert!(verify_image(&flat, &image).is_none());
        // A flipped byte anywhere: malformed, or well-formed but not the
        // certified state. Either way, refused.
        for at in 0..image.len() {
            let mut flipped = (*image).clone();
            flipped[at] ^= 0x01;
            assert!(verify_image(&cert, &flipped).is_none(), "byte {at}");
        }
        // A well-formed image of *other* state under the honest
        // certificate: other pairs, or the same pairs and another session.
        let (other, _) = state(&[("a", "1"), ("b", "3")]);
        assert!(verify_image(&cert, &encode_image(&other.snapshot(), &mut sessions)).is_none());
        let mut replayed = sessions.clone();
        replayed.note(OpId { client: ClientId(7), seq: 4 }, b"1");
        assert!(verify_image(&cert, &encode_image(&kv.snapshot(), &mut replayed)).is_none());
    }

    /// A hostile varint in the KV part of an image is refused before
    /// anything is rebuilt — the non-minimal spelling of a certified state
    /// included, whose honest bytes pass under the same certificate.
    #[test]
    fn hostile_varints_in_an_image_are_refused() {
        let mut kv = KvStore::new();
        kv.apply(b"SET  1");
        let (mut sessions, honest) = (ClientSessions::new(), [0x00, 0x01, b'1']);
        assert_eq!(kv.snapshot(), honest);
        let captured = CheckpointImage::capture(&kv, &mut sessions);
        let cert = CheckpointCert { seq: 1, digest: captured.digest(), vouchers: vec![] };
        assert!(verify_image(&cert, &encode_image(&honest, &mut sessions)).is_some());
        for (what, bytes) in hostile_varint_snapshots() {
            let image = encode_image(&bytes, &mut sessions);
            assert!(decode_image(&image).is_some(), "{what}: the outer framing holds");
            assert!(verify_image(&cert, &image).is_none(), "{what}");
        }
    }

    fn at(client: u32, seq: u64) -> OpId {
        OpId { client: ClientId(client), seq }
    }

    #[test]
    fn sessions_keep_a_window_of_the_highest_seqs_per_client() {
        let mut s = ClientSessions::new();
        s.note(at(3, 2), b"r2");
        s.note(at(3, 1), b"r1");
        s.note(at(1, 5), b"r5");
        assert_eq!((s.get(at(3, 1)), s.get(at(3, 2))), (Some(&b"r1"[..]), Some(&b"r2"[..])));
        // A sync moves the windows into the tree; later writes start
        // from them.
        s.sync();
        assert_eq!((s.get(at(3, 1)), s.get(at(1, 5))), (Some(&b"r1"[..]), Some(&b"r5"[..])));
        assert_eq!(s.get(at(3, 3)), None, "never ran");
        // A seq already in the window takes its latest reply.
        s.note(at(3, 2), b"r2 again");
        assert_eq!(s.get(at(3, 2)), Some(&b"r2 again"[..]));
        // A full window drops its lowest seq for a higher one, in any
        // order, and ignores a lower one.
        let top = SESSION_WINDOW as u64 + 2;
        for seq in (3..=top).rev() {
            s.note(at(3, seq), format!("r{seq}").as_bytes());
        }
        assert_eq!((s.get(at(3, 1)), s.get(at(3, 2))), (None, None));
        s.note(at(3, 1), b"late");
        assert_eq!(s.get(at(3, 1)), None);
        let mut visited = Vec::new();
        s.sync();
        s.for_each(|client, seq, reply| visited.push((client.0, seq, reply.to_vec())));
        let mut expected = vec![(1, 5, b"r5".to_vec())];
        expected.extend((3..=top).map(|seq| (3, seq, format!("r{seq}").into_bytes())));
        assert_eq!(visited, expected, "ascending (client, seq) order");
    }

    #[test]
    fn image_roundtrip_is_canonical() {
        let mut s = ClientSessions::new();
        s.note(at(9, 4), b"ok 9.4");
        s.note(at(9, 2), b"ok 9.2");
        s.note(at(2, 1), b""); // empty replies survive
        let kv = b"KV k1 v1\nKV k2 v2\n";
        let image = encode_image(kv, &mut s);
        let (kv2, mut s2) = decode_image(&image).expect("well-formed image");
        assert_eq!(kv2, kv);
        assert_eq!((s2.get(at(9, 2)), s2.get(at(2, 1))), (Some(&b"ok 9.2"[..]), Some(&b""[..])));
        // Canonical: re-encoding the decoded table gives identical bytes.
        assert_eq!(encode_image(kv2, &mut s2), image);
        // Empty everything still frames.
        let empty = encode_image(b"", &mut ClientSessions::new());
        let (kv3, mut s3) = decode_image(&empty).unwrap();
        assert!(kv3.is_empty());
        assert_eq!(encode_image(b"", &mut s3), empty);
    }

    #[test]
    fn image_decode_rejects_malformed() {
        let mut s = ClientSessions::new();
        s.note(at(1, 1), b"r");
        let good = encode_image(b"kv", &mut s);
        assert!(decode_image(&good).is_some());
        assert!(decode_image(b"").is_none(), "empty");
        assert!(decode_image(b"NOTMAGIC").is_none(), "bad magic");
        for version in [b"CKIMG1\0\0", b"CKIMG2\0\0"] {
            let mut old = good.clone();
            old[..8].copy_from_slice(version);
            assert!(decode_image(&old).is_none(), "an older image: {version:?}");
        }
        assert!(decode_image(&good[..good.len() - 1]).is_none(), "truncated");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_image(&trailing).is_none(), "trailing bytes");
        // Absurd kv length claims must not panic or allocate.
        let mut huge = good.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_image(&huge).is_none(), "kv length overruns");
        // Pairs start after magic(8) + kv_len(8) + kv(0) + count(8) = 24;
        // each is 4 + 8 + 8 + 1 = 21 bytes. Swapping two of them breaks
        // ascending (client, seq) order, whether they differ in client or
        // in seq, and so does repeating one.
        let pair = |bytes: &[u8], i: usize| bytes[24 + 21 * i..24 + 21 * (i + 1)].to_vec();
        for (first, second) in [(at(1, 1), at(2, 1)), (at(1, 1), at(1, 2))] {
            let mut two = ClientSessions::new();
            two.note(first, b"a");
            two.note(second, b"b");
            let img = encode_image(b"", &mut two);
            assert!(decode_image(&img).is_some());
            let swapped = [&img[..24], &pair(&img, 1), &pair(&img, 0)].concat();
            assert!(decode_image(&swapped).is_none(), "descending: {first:?} {second:?}");
            let repeated = [&img[..24], &pair(&img, 0), &pair(&img, 0)].concat();
            assert!(decode_image(&repeated).is_none(), "repeated: {first:?}");
        }
        // More pairs for one client than its window holds.
        let mut full = ClientSessions::new();
        for seq in 1..=SESSION_WINDOW as u64 {
            full.note(at(1, seq), b"r");
        }
        let img = encode_image(b"", &mut full);
        assert!(decode_image(&img).is_some());
        let mut over = img.clone();
        over[16..24].copy_from_slice(&(SESSION_WINDOW as u64 + 1).to_le_bytes());
        over.extend_from_slice(&1u32.to_le_bytes());
        over.extend_from_slice(&(SESSION_WINDOW as u64 + 1).to_le_bytes());
        over.extend_from_slice(&1u64.to_le_bytes());
        over.push(b'r');
        assert!(decode_image(&over).is_none(), "an overfull window");
    }

    /// A client's unsynced window costs its 32-byte bucket and its bytes:
    /// 40 000 clients with one `(nil)` reply each cost at most 64 bytes a
    /// client (59.4; 86.7 with 48-byte buckets and growable windows).
    #[test]
    fn a_client_costs_at_most_64_bytes_of_session_table() {
        let mut s = ClientSessions::new();
        for client in 0..40_000 {
            s.note(at(client, 1), b"(nil)");
        }
        let per_client = s.footprint() as f64 / 4e4;
        assert!(per_client <= 64.0, "{per_client:.1} bytes per client");
        assert!((0..40_000).all(|client| s.get(at(client, 1)) == Some(&b"(nil)"[..])));
    }

    /// How the tree's nodes, the session index and the committed log are
    /// laid out in memory moves no byte a replica certifies or ships: a
    /// fixed state of 10⁴ keys and 600 clients' windows (each full, with
    /// evictions) keeps the KV root, the sessions root, the certified
    /// digest and the image it had before any of them changed.
    #[test]
    fn a_fixed_state_keeps_its_roots_digest_and_image() {
        let mut kv = KvStore::new();
        let mut sessions = ClientSessions::new();
        for i in 0..10_000u64 {
            let user = (i * 7_919) % 600;
            kv.apply(format!("SET k{user}.{i} v{i}").as_bytes());
            sessions.note(at(user as u32, i / 600 + 1), format!("ok {i}").as_bytes());
        }
        kv.apply(b"DEL k7.7");
        let image = CheckpointImage::capture(&kv, &mut sessions);
        let hex = |d: &[u8]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let bytes = image.bytes();
        assert_eq!(
            [hex(&kv.state_digest()), hex(&sessions.tree.root()), hex(&image.digest())],
            [
                "e529904d8d7a764086578d64033e7363baeecebad4a77ffa67aec0530084ac98",
                "55b8a0c30e61c4c91d314cb8dd181f47cdf1b2c988f2c6ae221def6adcf3144e",
                "41c7afb7407eb5db7e454fa3a37b6ee31c9199e9b037976fd7987968ed884df4",
            ]
        );
        assert_eq!(
            (bytes.len(), hex(&sha256(&bytes))),
            (414_572, "5411ac7d1b9e9865446b3690bdafe33aef6d9512ebeb7b4abe5ca31c773498b1".into())
        );
        // Decoded, the image rebuilds the same state and the same bytes.
        let (kv2, mut sessions2) = decode_image(&bytes).expect("own image");
        assert_eq!(sessions2.tree.root(), sessions.tree.root());
        assert_eq!(encode_image(kv2, &mut sessions2), *bytes);
    }

    #[test]
    fn hint_resyncs_counter_lands_in_stats() {
        let keys = CkptKeys::provision(7, 4);
        let mut s = store(0, 2, 4, &keys);
        assert_eq!(s.stats().hint_resyncs, 0);
        s.note_hint_resync();
        assert_eq!(s.stats().hint_resyncs, 1);
        s.wipe();
        assert_eq!(s.stats().hint_resyncs, 1, "counters are measurement, not protocol state");
    }
}
