//! The shared wire codec: one versioned, length-framed binary encoding
//! for every protocol message, used by *both* planes.
//!
//! The simulator never serializes (messages travel as in-memory values),
//! but its **digest path does**: [`crate::api::Batch`] identity is
//! a SHA-256 over a canonical length-framed byte layout. The TCP plane
//! (`rsoc_transport`) needs exactly such a layout for its socket frames.
//! This module is the single definition both consume:
//!
//! * [`request_fields`] emits the canonical bytes of one request — the
//!   batch digest hashes them incrementally (no allocation on the hot
//!   path), the [`Wire`] impl appends the very same bytes to a frame. A
//!   batch's frame encoding *is* its digest pre-image:
//!   `sha256(encode(batch)) == batch.digest()`.
//! * [`Wire`] is the encode/decode pair every wire-visible type
//!   implements; [`encode_frame`]/[`decode_frame`] add the format version
//!   byte. The socket layer's u32 length prefix lives in
//!   `rsoc_transport::frame` — framing is transport, content is here.
//! * A byte field (request payload, reply result, state image) is one
//!   length plus one copy: `count u64 LE · bytes`, appended with
//!   `extend_from_slice` and taken back as one slice. `u8` is not a
//!   [`Wire`] type, so no byte vector crosses the codec an element at a
//!   time.
//!
//! Decoding is total: it consumes attacker-controlled bytes and returns
//! `Option`, never panicking and never trusting a length field beyond the
//! bytes actually present (collection counts are sanity-checked against
//! the remaining input before any allocation). The decode path is an
//! ingress region under `rsoc_lint`.

use crate::api::{Batch, ClientId, Endpoint, OpId, ReplicaId, Reply, Request};
use crate::checkpoint::{CheckpointCert, CheckpointVoucher, StateTransfer};
use crate::minbft::{CommitVote, MinBftMsg};
use crate::passive::{PassiveMsg, Shipped};
use crate::pbft::PbftMsg;
use crate::shell::ShellMsg;
use crate::viewchange::VcVote;
use rsoc_crypto::Tag;
use rsoc_hybrid::{UsigId, UI};
use std::sync::Arc;

/// The checksum the planes put *around* an encoded frame (`rsoc_store`'s
/// on-disk record header), re-exported next to the encoding it guards so
/// a plane that frames these bytes needs no second path to the kernel.
pub use rsoc_crypto::{crc32, Crc32};

/// Wire format version, the first byte of every frame. Bumped on any
/// incompatible layout change; decoders reject other versions outright.
/// Version 2: `StateTransfer` carries a slot-grained batch suffix and no
/// longer an `exec_upto` claim (the receiver derives it from the voted
/// suffix). Version 3: no layout change, but `CheckpointCert::digest` now
/// certifies the state's Merkle roots instead of `sha256(image)` — a
/// version-2 peer or snapshot file would never match a version-3
/// certificate, so it is refused at the frame instead. Version 4: the
/// reply, checkpoint voucher, state request and state response are one
/// [`ShellMsg`], framed the same in every protocol — tag `0x80`, then a
/// one-byte inner tag — so each of them is a byte longer; requests and
/// ordering messages are unchanged.
pub const WIRE_VERSION: u8 = 4;

/// The tag of a [`ShellMsg`] in every protocol's frame, clear of the
/// protocols' own tags (which count up from 0).
pub(crate) const SHELL_TAG: u8 = 0x80;

/// Emits the canonical wire bytes of one request:
/// `client u32 LE | seq u64 LE | payload_len u64 LE | payload`.
///
/// The **single definition** of request framing: the batch digest hashes
/// these slices incrementally and the [`Wire`] impl appends them to a
/// frame, so the simulator's digest path and the socket framing cannot
/// drift apart.
pub fn request_fields(r: &Request, emit: &mut dyn FnMut(&[u8])) {
    emit(&r.op.client.0.to_le_bytes());
    emit(&r.op.seq.to_le_bytes());
    emit(&(r.payload.len() as u64).to_le_bytes());
    emit(&r.payload);
}

// lint: ingress
// (Everything below decodes attacker-controlled bytes: no panics, no
// unchecked indexing, no length field trusted beyond the bytes present.)

/// A bounds-checked cursor over an incoming byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Takes the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.buf.len() {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    /// Reads a `u32` (little-endian).
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a `u64` (little-endian).
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a 32-byte array (digests, tags).
    pub fn array32(&mut self) -> Option<[u8; 32]> {
        self.take(32)?.try_into().ok()
    }

    /// Reads a collection count and sanity-checks it against the input:
    /// every element encodes to at least one byte, so a count exceeding
    /// the remaining bytes is a lie — reject it *before* allocating.
    pub fn count(&mut self) -> Option<usize> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return None;
        }
        Some(n as usize)
    }
}

/// Versioned binary encoding of one wire-visible type.
///
/// `encode` appends to `buf` (frames are built incrementally, one
/// allocation per frame); `decode` consumes from a bounds-checked
/// [`Reader`] and returns `None` on any malformed input — short buffers,
/// unknown discriminants, lying length fields, content that fails
/// integrity checks. It must never panic.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes one value, advancing `r` past exactly the bytes consumed.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
    /// The bytes of client request, reply and state image this value
    /// carries — everything in a frame that is not a small fixed-size
    /// field. A frame buffer sized `FRAME_SLACK + payload_len()` is
    /// allocated once instead of doubling its way up; it is a sizing
    /// estimate only (a view-change vote's certificate and a passive
    /// update's results are not counted), and a buffer that is short
    /// simply grows.
    fn payload_len(&self) -> usize {
        0
    }
}

/// Room for a frame's version byte, envelope and fixed-size fields beside
/// its [`Wire::payload_len`]: every payload-free message of the three
/// protocols fits (the largest, a checkpoint voucher, is 85 bytes).
pub const FRAME_SLACK: usize = 128;

/// Encodes `value` as one versioned frame body (no length prefix — the
/// socket layer owns that).
pub fn encode_frame<T: Wire>(value: &T, buf: &mut Vec<u8>) {
    buf.push(WIRE_VERSION);
    value.encode(buf);
}

/// Decodes one versioned frame body. Rejects wrong versions, malformed
/// content, and trailing garbage (a frame must be exactly one value).
pub fn decode_frame<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut r = Reader::new(bytes);
    if r.u8()? != WIRE_VERSION {
        return None;
    }
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return None;
    }
    Some(value)
}

/// A byte field: one length, then one copy each way (see the module docs).
/// The layout is the one `Vec<T>` gives any element type; the count is
/// checked against the input before the copy is made.
impl Wire for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        buf.extend_from_slice(self);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.count()?;
        Some(r.take(n)?.to_vec())
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Wire for [u8; 32] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.array32()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Box::new(T::decode(r)?))
    }

    fn payload_len(&self) -> usize {
        (**self).payload_len()
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Arc::new(T::decode(r)?))
    }

    fn payload_len(&self) -> usize {
        (**self).payload_len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            v.encode(buf);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Some(out)
    }

    fn payload_len(&self) -> usize {
        self.iter().map(T::payload_len).sum()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }

    fn payload_len(&self) -> usize {
        self.0.payload_len() + self.1.payload_len()
    }
}

impl Wire for ReplicaId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(ReplicaId(r.u32()?))
    }
}

impl Wire for ClientId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(ClientId(r.u32()?))
    }
}

impl Wire for OpId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.seq.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(OpId { client: ClientId::decode(r)?, seq: r.u64()? })
    }
}

impl Wire for Endpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Endpoint::Replica(id) => {
                buf.push(0);
                id.encode(buf);
            }
            Endpoint::Client(id) => {
                buf.push(1);
                id.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(Endpoint::Replica(ReplicaId::decode(r)?)),
            1 => Some(Endpoint::Client(ClientId::decode(r)?)),
            _ => None,
        }
    }
}

impl Wire for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        request_fields(self, &mut |bytes| buf.extend_from_slice(bytes));
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let client = ClientId(r.u32()?);
        let seq = r.u64()?;
        let payload = Vec::<u8>::decode(r)?;
        Some(Request { op: OpId { client, seq }, payload })
    }

    fn payload_len(&self) -> usize {
        self.wire_len() as usize
    }
}

impl Wire for Batch {
    /// A batch encodes as `count u64 LE` + each request's canonical bytes
    /// — exactly the digest pre-image (see [`request_fields`]), so
    /// `sha256(encode(batch)) == batch.digest()`.
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for r in self.requests() {
            r.encode(buf);
        }
    }

    /// Reconstructs the batch through [`Batch::new`], which recomputes the
    /// digest from content: a decoded batch is always internally
    /// consistent. (The cached digest is a local optimization, never a
    /// wire field — transmitting it would only hand attackers a lying
    /// digest to splice.)
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let requests = Vec::<Arc<Request>>::decode(r)?;
        Some(Batch::new(requests))
    }

    fn payload_len(&self) -> usize {
        self.wire_len() as usize
    }
}

impl Wire for Reply {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.replica.encode(buf);
        self.op.encode(buf);
        self.result.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Reply {
            replica: ReplicaId::decode(r)?,
            op: OpId::decode(r)?,
            result: Arc::<Vec<u8>>::decode(r)?,
        })
    }

    fn payload_len(&self) -> usize {
        self.result.len()
    }
}

impl Wire for Tag {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Tag(r.array32()?))
    }
}

impl Wire for UI {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.0.encode(buf);
        self.counter.encode(buf);
        self.tag.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(UI { id: UsigId(r.u32()?), counter: r.u64()?, tag: Tag::decode(r)? })
    }
}

impl Wire for CheckpointVoucher {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.digest.encode(buf);
        self.from.encode(buf);
        self.tag.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(CheckpointVoucher {
            seq: r.u64()?,
            digest: r.array32()?,
            from: ReplicaId::decode(r)?,
            tag: Tag::decode(r)?,
        })
    }
}

impl Wire for CheckpointCert {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.digest.encode(buf);
        self.vouchers.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(CheckpointCert {
            seq: r.u64()?,
            digest: r.array32()?,
            vouchers: Vec::<CheckpointVoucher>::decode(r)?,
        })
    }
}

impl Wire for StateTransfer {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.cert.encode(buf);
        self.snapshot.encode(buf);
        self.log_base.encode(buf);
        self.suffix.encode(buf);
        self.view.encode(buf);
        self.from.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(StateTransfer {
            cert: CheckpointCert::decode(r)?,
            snapshot: Arc::<Vec<u8>>::decode(r)?,
            log_base: r.u64()?,
            suffix: Arc::<Vec<(u64, Arc<Batch>)>>::decode(r)?,
            view: r.u64()?,
            from: ReplicaId::decode(r)?,
        })
    }

    fn payload_len(&self) -> usize {
        self.snapshot.len() + self.suffix.payload_len()
    }
}

impl Wire for CommitVote {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.seq.encode(buf);
        self.batch.encode(buf);
        self.primary_ui.encode(buf);
        self.from.encode(buf);
        self.ui.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(CommitVote {
            view: r.u64()?,
            seq: r.u64()?,
            batch: Arc::<Batch>::decode(r)?,
            primary_ui: UI::decode(r)?,
            from: ReplicaId::decode(r)?,
            ui: UI::decode(r)?,
        })
    }

    fn payload_len(&self) -> usize {
        self.batch.payload_len()
    }
}

impl Wire for VcVote {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.new_view.encode(buf);
        self.from.encode(buf);
        self.prepared.encode(buf);
        self.executed_upto.encode(buf);
        self.cert.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(VcVote {
            new_view: r.u64()?,
            from: ReplicaId::decode(r)?,
            prepared: Vec::<(u64, Arc<Batch>)>::decode(r)?,
            executed_upto: r.u64()?,
            cert: Option::<Box<CheckpointCert>>::decode(r)?,
        })
    }

    fn payload_len(&self) -> usize {
        self.prepared.payload_len()
    }
}

impl Wire for ShellMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ShellMsg::Reply(reply) => {
                buf.push(0);
                reply.encode(buf);
            }
            ShellMsg::Checkpoint(voucher) => {
                buf.push(1);
                voucher.encode(buf);
            }
            ShellMsg::StateRequest { have, from } => {
                buf.push(2);
                have.encode(buf);
                from.encode(buf);
            }
            ShellMsg::StateResponse(st) => {
                buf.push(3);
                st.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => ShellMsg::Reply(Reply::decode(r)?),
            1 => ShellMsg::Checkpoint(Box::<CheckpointVoucher>::decode(r)?),
            2 => ShellMsg::StateRequest { have: r.u64()?, from: ReplicaId::decode(r)? },
            3 => ShellMsg::StateResponse(Box::<StateTransfer>::decode(r)?),
            _ => return None,
        })
    }

    fn payload_len(&self) -> usize {
        match self {
            ShellMsg::Reply(reply) => reply.payload_len(),
            ShellMsg::StateResponse(st) => st.payload_len(),
            ShellMsg::Checkpoint(_) | ShellMsg::StateRequest { .. } => 0,
        }
    }
}

impl Wire for PbftMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PbftMsg::Request(req) => {
                buf.push(0);
                req.encode(buf);
            }
            PbftMsg::PrePrepare { view, seq, batch } => {
                buf.push(1);
                view.encode(buf);
                seq.encode(buf);
                batch.encode(buf);
            }
            PbftMsg::Prepare { view, seq, digest, from } => {
                buf.push(2);
                view.encode(buf);
                seq.encode(buf);
                digest.encode(buf);
                from.encode(buf);
            }
            PbftMsg::Commit { view, seq, digest, from } => {
                buf.push(3);
                view.encode(buf);
                seq.encode(buf);
                digest.encode(buf);
                from.encode(buf);
            }
            PbftMsg::ViewChange(vote) => {
                buf.push(5);
                vote.encode(buf);
            }
            PbftMsg::NewView { view, preprepares } => {
                buf.push(6);
                view.encode(buf);
                preprepares.encode(buf);
            }
            PbftMsg::Shell(msg) => {
                buf.push(SHELL_TAG);
                msg.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => PbftMsg::Request(Arc::<Request>::decode(r)?),
            1 => PbftMsg::PrePrepare {
                view: r.u64()?,
                seq: r.u64()?,
                batch: Arc::<Batch>::decode(r)?,
            },
            2 => PbftMsg::Prepare {
                view: r.u64()?,
                seq: r.u64()?,
                digest: r.array32()?,
                from: ReplicaId::decode(r)?,
            },
            3 => PbftMsg::Commit {
                view: r.u64()?,
                seq: r.u64()?,
                digest: r.array32()?,
                from: ReplicaId::decode(r)?,
            },
            5 => PbftMsg::ViewChange(VcVote::decode(r)?),
            6 => PbftMsg::NewView {
                view: r.u64()?,
                preprepares: Vec::<(u64, Arc<Batch>)>::decode(r)?,
            },
            SHELL_TAG => PbftMsg::Shell(ShellMsg::decode(r)?),
            _ => return None,
        })
    }

    fn payload_len(&self) -> usize {
        match self {
            PbftMsg::Request(req) => req.payload_len(),
            PbftMsg::PrePrepare { batch, .. } => batch.payload_len(),
            PbftMsg::ViewChange(vote) => vote.payload_len(),
            PbftMsg::NewView { preprepares, .. } => preprepares.payload_len(),
            PbftMsg::Shell(msg) => msg.payload_len(),
            _ => 0,
        }
    }
}

impl Wire for MinBftMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            MinBftMsg::Request(req) => {
                buf.push(0);
                req.encode(buf);
            }
            MinBftMsg::Prepare { view, seq, batch, ui } => {
                buf.push(1);
                view.encode(buf);
                seq.encode(buf);
                batch.encode(buf);
                ui.encode(buf);
            }
            MinBftMsg::Commit(vote) => {
                buf.push(2);
                vote.encode(buf);
            }
            MinBftMsg::ReqViewChange(vote) => {
                buf.push(4);
                vote.encode(buf);
            }
            MinBftMsg::NewView { view, preprepares } => {
                buf.push(5);
                view.encode(buf);
                preprepares.encode(buf);
            }
            MinBftMsg::FillGap { sender, from_counter, upto, from } => {
                buf.push(6);
                sender.encode(buf);
                from_counter.encode(buf);
                upto.encode(buf);
                from.encode(buf);
            }
            MinBftMsg::CheckpointHint { cert, ring_base, from } => {
                buf.push(7);
                cert.encode(buf);
                ring_base.encode(buf);
                from.encode(buf);
            }
            MinBftMsg::Shell(msg) => {
                buf.push(SHELL_TAG);
                msg.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => MinBftMsg::Request(Arc::<Request>::decode(r)?),
            1 => MinBftMsg::Prepare {
                view: r.u64()?,
                seq: r.u64()?,
                batch: Arc::<Batch>::decode(r)?,
                ui: UI::decode(r)?,
            },
            2 => MinBftMsg::Commit(Arc::<CommitVote>::decode(r)?),
            4 => MinBftMsg::ReqViewChange(VcVote::decode(r)?),
            5 => MinBftMsg::NewView {
                view: r.u64()?,
                preprepares: Vec::<(u64, Arc<Batch>)>::decode(r)?,
            },
            6 => MinBftMsg::FillGap {
                sender: ReplicaId::decode(r)?,
                from_counter: r.u64()?,
                upto: r.u64()?,
                from: ReplicaId::decode(r)?,
            },
            7 => MinBftMsg::CheckpointHint {
                cert: Box::<CheckpointCert>::decode(r)?,
                ring_base: r.u64()?,
                from: ReplicaId::decode(r)?,
            },
            SHELL_TAG => MinBftMsg::Shell(ShellMsg::decode(r)?),
            _ => return None,
        })
    }

    fn payload_len(&self) -> usize {
        match self {
            MinBftMsg::Request(req) => req.payload_len(),
            MinBftMsg::Prepare { batch, .. } => batch.payload_len(),
            MinBftMsg::Commit(vote) => vote.payload_len(),
            MinBftMsg::ReqViewChange(vote) => vote.payload_len(),
            MinBftMsg::NewView { preprepares, .. } => preprepares.payload_len(),
            MinBftMsg::Shell(msg) => msg.payload_len(),
            _ => 0,
        }
    }
}

impl Wire for PassiveMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PassiveMsg::Request(req) => {
                buf.push(0);
                req.encode(buf);
            }
            PassiveMsg::StateUpdate { epoch, first_seq, ops } => {
                buf.push(1);
                epoch.encode(buf);
                first_seq.encode(buf);
                (ops.len() as u64).encode(buf); // as a `Vec` would
                ops.iter().for_each(|op| op.encode(buf));
            }
            PassiveMsg::Heartbeat { epoch, from, log_len } => {
                buf.push(2);
                epoch.encode(buf);
                from.encode(buf);
                log_len.encode(buf);
            }
            PassiveMsg::SyncRequest { from_seq, from } => {
                buf.push(3);
                from_seq.encode(buf);
                from.encode(buf);
            }
            PassiveMsg::Shell(msg) => {
                buf.push(SHELL_TAG);
                msg.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => PassiveMsg::Request(Arc::<Request>::decode(r)?),
            1 => PassiveMsg::StateUpdate {
                epoch: r.u64()?,
                first_seq: r.u64()?,
                ops: Vec::<Shipped>::decode(r)?.into(),
            },
            2 => PassiveMsg::Heartbeat {
                epoch: r.u64()?,
                from: ReplicaId::decode(r)?,
                log_len: r.u64()?,
            },
            3 => PassiveMsg::SyncRequest { from_seq: r.u64()?, from: ReplicaId::decode(r)? },
            SHELL_TAG => PassiveMsg::Shell(ShellMsg::decode(r)?),
            _ => return None,
        })
    }

    fn payload_len(&self) -> usize {
        match self {
            PassiveMsg::Request(req) => req.payload_len(),
            PassiveMsg::StateUpdate { ops, .. } => ops.iter().map(Wire::payload_len).sum(),
            PassiveMsg::Shell(msg) => msg.payload_len(),
            _ => 0,
        }
    }
}

// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsoc_crypto::sha256;

    fn req(client: u32, seq: u64, payload: Vec<u8>) -> Arc<Request> {
        Arc::new(Request { op: OpId { client: ClientId(client), seq }, payload })
    }

    fn ui(id: u32, counter: u64, fill: u8) -> UI {
        UI { id: UsigId(id), counter, tag: Tag([fill; 32]) }
    }

    fn voucher(seq: u64, from: u32, fill: u8) -> CheckpointVoucher {
        CheckpointVoucher { seq, digest: [fill; 32], from: ReplicaId(from), tag: Tag([!fill; 32]) }
    }

    fn cert(seq: u64) -> CheckpointCert {
        CheckpointCert {
            seq,
            digest: [7; 32],
            vouchers: vec![voucher(seq, 0, 1), voucher(seq, 2, 3)],
        }
    }

    fn transfer() -> StateTransfer {
        StateTransfer {
            cert: cert(8),
            snapshot: Arc::new(b"snapshot".to_vec()),
            log_base: 9,
            suffix: Arc::new(vec![(9u64, Arc::new(Batch::single(req(1, 9, b"op".to_vec()))))]),
            view: 2,
            from: ReplicaId(1),
        }
    }

    /// One of each shell message — further inputs to every protocol's
    /// round trip.
    fn shell_msgs() -> Vec<ShellMsg> {
        vec![
            ShellMsg::Reply(Reply {
                replica: ReplicaId(2),
                op: OpId { client: ClientId(1), seq: 1 },
                result: Arc::new(b"OK".to_vec()),
            }),
            ShellMsg::Reply(Reply {
                replica: ReplicaId(1),
                op: OpId { client: ClientId(2), seq: 5 },
                result: Arc::new(Vec::new()),
            }),
            ShellMsg::Checkpoint(Box::new(voucher(8, 1, 5))),
            ShellMsg::StateRequest { have: 4, from: ReplicaId(3) },
            ShellMsg::StateResponse(Box::new(transfer())),
        ]
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let mut buf = Vec::new();
        encode_frame(value, &mut buf);
        let back: T = decode_frame(&buf).expect("well-formed frame decodes");
        assert_eq!(&back, value);
        // The sizing estimate counts bytes that are really there.
        assert!(value.payload_len() < buf.len(), "{value:?} over-counts its payload");
        // Any strict prefix is a truncated frame and must be rejected:
        // every length field promises bytes the prefix no longer has.
        for cut in 0..buf.len() {
            assert!(decode_frame::<T>(&buf[..cut]).is_none(), "truncated at {cut}");
        }
        // Trailing garbage is rejected: one frame is exactly one value.
        buf.push(0);
        assert!(decode_frame::<T>(&buf).is_none());
    }

    /// A byte field as built by hand: `count u64 LE · bytes`.
    fn field(bytes: &[u8]) -> Vec<u8> {
        [&(bytes.len() as u64).to_le_bytes()[..], bytes].concat()
    }

    /// A request as built by hand: `client u32 LE · seq u64 LE · payload`.
    fn request_layout(client: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
        [&client.to_le_bytes()[..], &seq.to_le_bytes(), &field(payload)].concat()
    }

    /// `value`'s frame is `WIRE_VERSION · body` byte for byte, and it
    /// round-trips with every strict prefix refused.
    fn golden<T: Wire + PartialEq + std::fmt::Debug>(value: &T, body: &[u8]) {
        let mut frame = Vec::new();
        encode_frame(value, &mut frame);
        assert_eq!(frame, [&[WIRE_VERSION][..], body].concat(), "{value:?}");
        roundtrip(value);
    }

    /// Every value that carries bytes lays them out as one count and the
    /// bytes — the layout they had when they crossed the codec one element
    /// at a time, so no frame changes.
    #[test]
    fn byte_fields_are_a_count_then_the_bytes() {
        let payload = [0u8, 255, 7, b'S'];
        let request =
            Request { op: OpId { client: ClientId(9), seq: 3 }, payload: payload.to_vec() };
        golden(&request, &request_layout(9, 3, &payload));

        let reply = Reply {
            replica: ReplicaId(2),
            op: OpId { client: ClientId(1), seq: 4 },
            result: Arc::new(b"OK".to_vec()),
        };
        let layout = [&2u32.to_le_bytes()[..], &1u32.to_le_bytes(), &4u64.to_le_bytes()].concat();
        golden(&reply, &[&layout[..], &field(b"OK")].concat());

        let batch = Arc::new(Batch::new(vec![req(1, 1, b"ab".to_vec()), req(2, 5, Vec::new())]));
        let preprepare = PbftMsg::PrePrepare { view: 7, seq: 8, batch };
        let layout = [
            &[1u8][..],
            &7u64.to_le_bytes(),
            &8u64.to_le_bytes(),
            &2u64.to_le_bytes(),
            &request_layout(1, 1, b"ab"),
            &request_layout(2, 5, b""),
        ]
        .concat();
        golden(&preprepare, &layout);

        let mut cert_layout = Vec::new();
        cert(8).encode(&mut cert_layout);
        let layout = [
            &cert_layout[..],
            &field(b"snapshot"),
            &9u64.to_le_bytes(),
            &1u64.to_le_bytes(),
            &9u64.to_le_bytes(),
            &1u64.to_le_bytes(),
            &request_layout(1, 9, b"op"),
            &2u64.to_le_bytes(),
            &1u32.to_le_bytes(),
        ]
        .concat();
        golden(&transfer(), &layout);

        // A request frame is what it was before shell messages shared one
        // tag: tag 0 and the request, in every protocol.
        let request = req(9, 3, payload.to_vec());
        let layout = [&[0u8][..], &request_layout(9, 3, &payload)].concat();
        golden(&PbftMsg::Request(request.clone()), &layout);
        golden(&MinBftMsg::Request(request.clone()), &layout);
        golden(&PassiveMsg::Request(request), &layout);
        // A shell message is the shell tag, its own tag, then its fields.
        let ask = ShellMsg::StateRequest { have: 4, from: ReplicaId(3) };
        let layout = [&[SHELL_TAG, 2][..], &4u64.to_le_bytes(), &3u32.to_le_bytes()].concat();
        golden(&PbftMsg::Shell(ask.clone()), &layout);
        golden(&MinBftMsg::Shell(ask.clone()), &layout);
        golden(&PassiveMsg::Shell(ask), &layout);
    }

    #[test]
    fn batch_frame_is_the_digest_preimage() {
        // The satellite invariant: the socket framing and the simulator's
        // digest path share one definition, so hashing a batch's frame
        // encoding reproduces the cached digest exactly.
        let batch = Batch::new(vec![
            req(3, 1, b"SET k3.1 v1".to_vec()),
            req(4, 2, b"SET k4.2 v2".to_vec()),
        ]);
        let mut buf = Vec::new();
        batch.encode(&mut buf);
        assert_eq!(sha256(&buf), batch.digest());
    }

    #[test]
    fn pbft_variants_roundtrip() {
        let batch = Arc::new(Batch::single(req(1, 1, b"SET k1.1 v1".to_vec())));
        let msgs = [
            PbftMsg::Request(req(9, 3, vec![0, 255, 7])),
            PbftMsg::PrePrepare { view: 1, seq: 2, batch: batch.clone() },
            PbftMsg::Prepare { view: 1, seq: 2, digest: batch.digest(), from: ReplicaId(3) },
            PbftMsg::Commit { view: 1, seq: 2, digest: batch.digest(), from: ReplicaId(0) },
            PbftMsg::ViewChange(VcVote {
                new_view: 2,
                from: ReplicaId(1),
                prepared: vec![(2, batch.clone())],
                executed_upto: 1,
                cert: Some(Box::new(cert(4))),
            }),
            PbftMsg::ViewChange(VcVote {
                new_view: 3,
                from: ReplicaId(2),
                prepared: vec![],
                executed_upto: 0,
                cert: None,
            }),
            PbftMsg::NewView { view: 2, preprepares: vec![(3, batch.clone())] },
        ];
        for msg in msgs.into_iter().chain(shell_msgs().into_iter().map(PbftMsg::Shell)) {
            roundtrip(&msg);
        }
    }

    #[test]
    fn minbft_variants_roundtrip() {
        let batch = Arc::new(Batch::single(req(2, 5, b"SET k2.5 v5".to_vec())));
        let msgs = [
            MinBftMsg::Request(req(2, 5, vec![1, 2, 3])),
            MinBftMsg::Prepare { view: 0, seq: 5, batch: batch.clone(), ui: ui(0, 6, 9) },
            MinBftMsg::Commit(Arc::new(CommitVote {
                view: 0,
                seq: 5,
                batch: batch.clone(),
                primary_ui: ui(0, 6, 9),
                from: ReplicaId(1),
                ui: ui(1, 7, 11),
            })),
            MinBftMsg::ReqViewChange(VcVote {
                new_view: 1,
                from: ReplicaId(2),
                prepared: vec![(6, batch.clone())],
                executed_upto: 5,
                cert: Some(Box::new(cert(4))),
            }),
            MinBftMsg::NewView { view: 1, preprepares: vec![(6, batch.clone())] },
            MinBftMsg::FillGap {
                sender: ReplicaId(0),
                from_counter: 3,
                upto: 9,
                from: ReplicaId(2),
            },
            MinBftMsg::CheckpointHint {
                cert: Box::new(cert(12)),
                ring_base: 7,
                from: ReplicaId(0),
            },
        ];
        for msg in msgs.into_iter().chain(shell_msgs().into_iter().map(MinBftMsg::Shell)) {
            roundtrip(&msg);
        }
    }

    #[test]
    fn passive_variants_roundtrip() {
        let msgs = [
            PassiveMsg::Request(req(0, 1, b"SET k0.1 v1".to_vec())),
            PassiveMsg::StateUpdate {
                epoch: 1,
                first_seq: 4,
                ops: Box::new([(req(0, 4, b"SET k0.4 v4".to_vec()), Arc::new(b"OK".to_vec()))]),
            },
            PassiveMsg::Heartbeat { epoch: 1, from: ReplicaId(0), log_len: 9 },
            PassiveMsg::SyncRequest { from_seq: 5, from: ReplicaId(1) },
        ];
        for msg in msgs.into_iter().chain(shell_msgs().into_iter().map(PassiveMsg::Shell)) {
            roundtrip(&msg);
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Wrong version byte.
        let good = {
            let mut buf = Vec::new();
            let ask = ShellMsg::StateRequest { have: 1, from: ReplicaId(0) };
            encode_frame(&PbftMsg::Shell(ask), &mut buf);
            buf
        };
        let mut wrong_version = good.clone();
        wrong_version[0] = WIRE_VERSION.wrapping_add(1);
        assert!(decode_frame::<PbftMsg>(&wrong_version).is_none());
        // Unknown discriminant, and an unknown shell message behind the
        // shell tag.
        for (at, tag) in [(1, 0xEE), (2, 4), (2, 0xEE)] {
            let mut unknown = good.clone();
            unknown[at] = tag;
            assert!(decode_frame::<PbftMsg>(&unknown).is_none(), "tag {tag:#x} at {at}");
            assert!(decode_frame::<MinBftMsg>(&unknown).is_none(), "tag {tag:#x} at {at}");
            assert!(decode_frame::<PassiveMsg>(&unknown).is_none(), "tag {tag:#x} at {at}");
        }
        // Every strict prefix of every shell frame (the same bytes in every
        // protocol).
        for msg in shell_msgs() {
            let mut frame = Vec::new();
            encode_frame(&PbftMsg::Shell(msg.clone()), &mut frame);
            for cut in 0..frame.len() {
                assert!(decode_frame::<PbftMsg>(&frame[..cut]).is_none(), "{msg:?} at {cut}");
                assert!(decode_frame::<MinBftMsg>(&frame[..cut]).is_none(), "{msg:?} at {cut}");
                assert!(decode_frame::<PassiveMsg>(&frame[..cut]).is_none(), "{msg:?} at {cut}");
            }
        }
        // A lying collection count cannot force an allocation: count is
        // checked against the bytes actually present.
        let mut lying = vec![WIRE_VERSION, 5]; // ViewChange
        lying.extend_from_slice(&2u64.to_le_bytes()); // new_view
        lying.extend_from_slice(&1u32.to_le_bytes()); // from
        lying.extend_from_slice(&u64::MAX.to_le_bytes()); // prepared count: lie
        assert!(decode_frame::<PbftMsg>(&lying).is_none());
        // Empty input.
        assert!(decode_frame::<PbftMsg>(&[]).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn request_roundtrips(client in any::<u32>(), seq in any::<u64>(),
                              payload in proptest::collection::vec(any::<u8>(), 0..64)) {
            let r = Request { op: OpId { client: ClientId(client), seq }, payload };
            let mut buf = Vec::new();
            encode_frame(&r, &mut buf);
            prop_assert_eq!(decode_frame::<Request>(&buf), Some(r));
        }

        #[test]
        fn batch_digest_matches_frame_hash(
            seqs in proptest::collection::vec((any::<u32>(), any::<u64>()), 1..5),
            fill in any::<u8>(),
        ) {
            let requests: Vec<_> = seqs
                .iter()
                .map(|&(c, s)| req(c, s, vec![fill; (s % 17) as usize]))
                .collect();
            let batch = Batch::new(requests);
            let mut buf = Vec::new();
            batch.encode(&mut buf);
            prop_assert_eq!(sha256(&buf), batch.digest());
            prop_assert_eq!(batch.wire_len(), buf.len() as u64);
            let back: Batch = {
                let mut r = Reader::new(&buf);
                let b = Batch::decode(&mut r);
                prop_assert!(r.is_empty());
                prop_assert!(b.is_some());
                b.unwrap()
            };
            prop_assert_eq!(back.digest(), batch.digest());
        }

        /// One copy accepts and refuses exactly the inputs that one
        /// `u8` a time did, and consumes the same bytes.
        #[test]
        fn a_byte_field_decodes_as_it_did_per_element(
            count in 0u64..80,
            tail in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let input = [&count.to_le_bytes()[..], &tail].concat();
            let per_element = |r: &mut Reader<'_>| -> Option<Vec<u8>> {
                let n = r.count()?;
                (0..n).map(|_| r.u8()).collect()
            };
            let (mut one_copy, mut by_element) = (Reader::new(&input), Reader::new(&input));
            let got = Vec::<u8>::decode(&mut one_copy);
            prop_assert_eq!(&got, &per_element(&mut by_element));
            if got.is_some() {
                prop_assert_eq!(one_copy.remaining(), by_element.remaining());
            }
        }

        #[test]
        fn garbage_never_panics_and_rarely_decodes(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Totality: arbitrary input must never panic any decoder.
            let _ = decode_frame::<PbftMsg>(&bytes);
            let _ = decode_frame::<MinBftMsg>(&bytes);
            let _ = decode_frame::<PassiveMsg>(&bytes);
            let _ = decode_frame::<Request>(&bytes);
            let _ = decode_frame::<Reply>(&bytes);
            let _ = decode_frame::<StateTransfer>(&bytes);
        }

        #[test]
        fn minbft_commit_roundtrips(view in any::<u64>(), seq in any::<u64>(),
                                    c1 in any::<u64>(), c2 in any::<u64>()) {
            let batch = Arc::new(Batch::single(req(1, seq, b"SET".to_vec())));
            let vote = MinBftMsg::Commit(Arc::new(CommitVote {
                view,
                seq,
                batch,
                primary_ui: ui(0, c1, 1),
                from: ReplicaId(1),
                ui: ui(1, c2, 2),
            }));
            let mut buf = Vec::new();
            encode_frame(&vote, &mut buf);
            prop_assert_eq!(decode_frame::<MinBftMsg>(&buf), Some(vote));
        }
    }
}
