//! The shared wire codec: one versioned, length-framed binary encoding
//! for every protocol message, used by *both* planes.
//!
//! The simulator never serializes, but its **digest path does**: a
//! [`Batch`]'s identity is a SHA-256 over a canonical length-framed
//! layout, the one the TCP plane (`rsoc_transport`) puts on its sockets.
//! This module is the single definition both consume:
//!
//! * [`request_fields`] emits the canonical bytes of one request: the
//!   batch digest hashes them without allocating, the [`Wire`] impl
//!   appends them to a frame, so a batch's frame *is* its digest
//!   pre-image: `sha256(encode(batch)) == batch.digest()`.
//! * [`Wire`] is the encode/decode pair every wire-visible type
//!   implements, with [`Wire::wire_len`], the exact length of the
//!   encoding, so a frame is allocated once, at its size.
//!   [`encode_frame`]/[`decode_frame`] add the format version byte; the
//!   socket's u32 length prefix lives in `rsoc_transport::frame`.
//! * [`wire!`](crate::wire) declares a type once, beside its definition:
//!   a struct as its fields in wire order, an enum as a tag byte per
//!   variant. `encode`, `decode` and `wire_len` are generated from that
//!   one list. Only the primitives and containers, [`Request`] (its bytes
//!   are the digest pre-image) and [`Batch`] (sealed through
//!   [`Batch::new`]) implement [`Wire`] by hand.
//! * A byte field (request payload, reply result, state image) is
//!   `count u64 LE · bytes`, appended and taken back as one slice: `u8`
//!   is not a [`Wire`] type, so no byte vector crosses element by element.
//!
//! Decoding is total: it returns `Option`, never panics, and trusts no
//! count beyond the bytes present, nor reserves memory beyond them. The
//! decode path, the `wire!` macro included, is an `rsoc_lint` ingress
//! region.

use crate::api::{Batch, OpId, Request};
use rsoc_crypto::Tag;
use rsoc_hybrid::{UsigId, UI};
use std::sync::Arc;

/// The checksum the planes put *around* an encoded frame (`rsoc_store`'s
/// record header), re-exported next to the encoding it guards.
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
/// [`ShellMsg`](crate::ShellMsg), framed the same in every protocol — tag
/// `0x80`, then a one-byte inner tag — so each of them is a byte longer;
/// requests and ordering messages are unchanged. Version 5: a message
/// names a replica only where a key proves the name (`UI.id`, a voucher's
/// `from`) or a client reads it (`Reply.replica`); the sender fields of
/// PBFT `Prepare` / `Commit`, `VcVote`, MinBFT `CommitVote`, `FillGap` and
/// `CheckpointHint`, passive `Heartbeat` and `SyncRequest`, and the shell's
/// `StateRequest` and `StateTransfer` are gone — the link is the sender.
/// Version 6: two fields no receiver read are gone — passive
/// `StateUpdate.ops` ships requests without their results, and MinBFT
/// `NewView` carries only its view.
pub const WIRE_VERSION: u8 = 6;

/// The tag of a [`ShellMsg`](crate::ShellMsg) in every protocol's frame,
/// clear of the protocols' own tags (which count up from 0).
pub(crate) const SHELL_TAG: u8 = 0x80;

/// Emits the canonical wire bytes of one request:
/// `client u32 LE | seq u64 LE | payload length u64 LE | payload`.
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

    /// Reads `N` bytes as an array (integers, digests, tags).
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// Reads a collection count and sanity-checks it against the input:
    /// every element encodes to at least one byte, so a count exceeding
    /// the remaining bytes is a lie — reject it *before* allocating.
    pub fn count(&mut self) -> Option<usize> {
        let n = u64::from_le_bytes(self.array()?);
        if n > self.remaining() as u64 {
            return None;
        }
        Some(n as usize)
    }
}

/// Versioned binary encoding of one wire-visible type; a message type
/// declares it through [`wire!`](crate::wire).
///
/// `encode` appends to `buf`; `decode` consumes from a bounds-checked
/// [`Reader`] and returns `None` on any malformed input — short buffers,
/// unknown discriminants, lying length fields, content that fails
/// integrity checks. It must never panic.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes one value, advancing `r` past exactly the bytes consumed.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
    /// The exact number of bytes [`Wire::encode`] appends, computed
    /// without encoding: a frame buffer is allocated once, at its size.
    fn wire_len(&self) -> usize;
}

/// Encodes `value` as one versioned frame body (no length prefix — the
/// socket layer owns that). The frame is `1 + value.wire_len()` bytes.
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

/// Declares the [`Wire`] encoding of types, each once:
///
/// ```text
/// wire! {
///     struct ReplicaId(0)                // a newtype
///     struct OpId { client, seq }        // the fields, in wire order
///     enum Endpoint { 0 => Replica(id), 1 => Client(id) }
/// }
/// ```
///
/// An enum encodes its tag byte, then the variant's fields; `encode`,
/// `decode` and `wire_len` all walk the one list. A tag is a literal or a
/// `u8` constant in scope; an unlisted one decodes to `None`, a repeated
/// one draws an unreachable-pattern warning.
#[macro_export]
macro_rules! wire {
    () => {};
    (struct $name:ident ($($field:tt),*) $($rest:tt)*) => {
        $crate::wire! { struct $name { $($field),* } $($rest)* }
    };
    (struct $name:ident { $($field:tt),* } $($rest:tt)*) => {
        impl $crate::codec::Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::codec::Wire::encode(&self.$field, buf);)*
            }
            fn decode(r: &mut $crate::codec::Reader<'_>) -> Option<Self> {
                Some(Self { $($field: $crate::codec::Wire::decode(r)?),* })
            }
            fn wire_len(&self) -> usize {
                0 $(+ $crate::codec::Wire::wire_len(&self.$field))*
            }
        }
        $crate::wire! { $($rest)* }
    };
    (enum $name:ident $(<$($gen:ident),*>)? {
        $($tag:tt => $variant:ident $(($($tf:ident),*))? $({$($sf:ident),*})?),* $(,)?
    } $($rest:tt)*) => {
        impl$(<$($gen: $crate::codec::Wire),*>)? $crate::codec::Wire for $name$(<$($gen),*>)? {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $(($($tf),*))? $({$($sf),*})? => {
                        buf.push($tag);
                        $($($crate::codec::Wire::encode($tf, buf);)*)?
                        $($($crate::codec::Wire::encode($sf, buf);)*)?
                    })*
                }
            }
            fn decode(r: &mut $crate::codec::Reader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $($tag => {
                        $($(let $tf = $crate::codec::Wire::decode(r)?;)*)?
                        $($(let $sf = $crate::codec::Wire::decode(r)?;)*)?
                        Self::$variant $(($($tf),*))? $({$($sf),*})?
                    })*
                    _ => return None,
                })
            }
            fn wire_len(&self) -> usize {
                1 + match self {
                    $(Self::$variant $(($($tf),*))? $({$($sf),*})? => 0
                        $($(+ $crate::codec::Wire::wire_len($tf))*)?
                        $($(+ $crate::codec::Wire::wire_len($sf))*)?,)*
                }
            }
        }
        $crate::wire! { $($rest)* }
    };
}

/// A byte field: one length, then one copy each way (see the module docs),
/// laid out as `Vec<T>` lays out any element type.
impl Wire for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        buf.extend_from_slice(self);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.count()?;
        Some(r.take(n)?.to_vec())
    }

    fn wire_len(&self) -> usize {
        8 + self.len()
    }
}

/// Integers are their little-endian bytes.
macro_rules! le_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Option<Self> {
                Some(<$int>::from_le_bytes(r.array()?))
            }
            fn wire_len(&self) -> usize {
                std::mem::size_of::<$int>()
            }
        }
    )*};
}
le_int!(u32, u64);

impl Wire for [u8; 32] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.array()
    }

    fn wire_len(&self) -> usize {
        32
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(self.is_some()));
        self.iter().for_each(|v| v.encode(buf));
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }

    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_len)
    }
}

/// A pointer is laid out as what it points to.
macro_rules! pointer {
    ($($ptr:ident),*) => {$(
        impl<T: Wire> Wire for $ptr<T> {
            fn encode(&self, buf: &mut Vec<u8>) {
                (**self).encode(buf);
            }
            fn decode(r: &mut Reader<'_>) -> Option<Self> {
                Some($ptr::new(T::decode(r)?))
            }
            fn wire_len(&self) -> usize {
                (**self).wire_len()
            }
        }
    )*};
}
pointer!(Box, Arc);

/// A sequence's encoding: `count u64 LE`, then each element.
fn encode_seq<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u64).encode(buf);
    items.iter().for_each(|v| v.encode(buf));
}

/// The length of [`encode_seq`]'s output.
fn seq_len<T: Wire>(items: &[T]) -> usize {
    8 + items.iter().map(Wire::wire_len).sum::<usize>()
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_seq(self, buf);
    }

    /// An element can be larger in memory than on the wire: reserve no
    /// more than the remaining input, whatever the count claims.
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n.min(r.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Some(out)
    }

    fn wire_len(&self) -> usize {
        seq_len(self)
    }
}

/// A boxed slice is laid out as the `Vec` it was built from.
impl<T: Wire> Wire for Box<[T]> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_seq(self, buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Vec::decode(r).map(Vec::into_boxed_slice)
    }

    fn wire_len(&self) -> usize {
        seq_len(self)
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

    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len()
    }
}

impl Wire for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        request_fields(self, &mut |bytes| buf.extend_from_slice(bytes));
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Request { op: OpId::decode(r)?, payload: Vec::decode(r)? })
    }

    fn wire_len(&self) -> usize {
        4 + 8 + 8 + self.payload.len()
    }
}

impl Wire for Batch {
    /// The digest pre-image (see [`request_fields`]):
    /// `sha256(encode(batch)) == batch.digest()`.
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_seq(self.requests(), buf);
    }

    /// Seals the requests through [`Batch::new`], which recomputes the
    /// digest: the cached digest is never a wire field, so a decoded batch
    /// cannot carry a lying one.
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Batch::new(Vec::decode(r)?))
    }

    fn wire_len(&self) -> usize {
        seq_len(self.requests())
    }
}

// The USIG certificate and its MAC tag are defined in crates below this
// one, so they are declared here rather than beside their definitions.
crate::wire! {
    struct Tag(0)
    struct UsigId(0)
    struct UI { id, counter, tag }
}

// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClientId, ReplicaId, Reply};
    use crate::checkpoint::{CheckpointCert, CheckpointVoucher, StateTransfer};
    use crate::minbft::{CommitVote, MinBftMsg};
    use crate::passive::PassiveMsg;
    use crate::pbft::PbftMsg;
    use crate::shell::ShellMsg;
    use crate::viewchange::VcVote;
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
            ShellMsg::StateRequest { have: 4 },
            ShellMsg::StateResponse(Box::new(transfer())),
        ]
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let mut buf = Vec::new();
        encode_frame(value, &mut buf);
        let back: T = decode_frame(&buf).expect("well-formed frame decodes");
        assert_eq!(&back, value);
        // The length is exact: the frame is the version byte and the value.
        assert_eq!(value.wire_len() + 1, buf.len(), "{value:?}");
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
        ]
        .concat();
        golden(&transfer(), &layout);

        // A vote names no voter: its link is the sender.
        let digest = [9u8; 32];
        let prepare = PbftMsg::Prepare { view: 7, seq: 8, digest };
        let layout = [&[2u8][..], &7u64.to_le_bytes(), &8u64.to_le_bytes(), &digest].concat();
        golden(&prepare, &layout);

        // A request frame is what it was before shell messages shared one
        // tag: tag 0 and the request, in every protocol.
        let request = req(9, 3, payload.to_vec());
        let layout = [&[0u8][..], &request_layout(9, 3, &payload)].concat();
        golden(&PbftMsg::Request(request.clone()), &layout);
        golden(&MinBftMsg::Request(request.clone()), &layout);
        golden(&PassiveMsg::Request(request), &layout);
        // A shell message is the shell tag, its own tag, then its fields.
        let ask = ShellMsg::StateRequest { have: 4 };
        let layout = [&[SHELL_TAG, 2][..], &4u64.to_le_bytes()].concat();
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

    /// One of each PBFT message but the shell's, two view changes (with and
    /// without a certificate).
    fn pbft_msgs() -> Vec<PbftMsg> {
        let batch = Arc::new(Batch::single(req(1, 1, b"SET k1.1 v1".to_vec())));
        vec![
            PbftMsg::Request(req(9, 3, vec![0, 255, 7])),
            PbftMsg::PrePrepare { view: 1, seq: 2, batch: batch.clone() },
            PbftMsg::Prepare { view: 1, seq: 2, digest: batch.digest() },
            PbftMsg::Commit { view: 1, seq: 2, digest: batch.digest() },
            PbftMsg::ViewChange(VcVote {
                new_view: 2,
                prepared: vec![(2, batch.clone())],
                executed_upto: 1,
                cert: Some(Box::new(cert(4))),
            }),
            PbftMsg::ViewChange(VcVote {
                new_view: 3,
                prepared: vec![],
                executed_upto: 0,
                cert: None,
            }),
            PbftMsg::NewView { view: 2, preprepares: vec![(3, batch.clone())] },
        ]
    }

    /// One of each MinBFT message but the shell's.
    fn minbft_msgs() -> Vec<MinBftMsg> {
        let batch = Arc::new(Batch::single(req(2, 5, b"SET k2.5 v5".to_vec())));
        vec![
            MinBftMsg::Request(req(2, 5, vec![1, 2, 3])),
            MinBftMsg::Prepare { view: 0, seq: 5, batch: batch.clone(), ui: ui(0, 6, 9) },
            MinBftMsg::Commit(Arc::new(CommitVote {
                view: 0,
                seq: 5,
                batch: batch.clone(),
                primary_ui: ui(0, 6, 9),
                ui: ui(1, 7, 11),
            })),
            MinBftMsg::ReqViewChange(VcVote {
                new_view: 1,
                prepared: vec![(6, batch.clone())],
                executed_upto: 5,
                cert: Some(Box::new(cert(4))),
            }),
            MinBftMsg::NewView { view: 1 },
            MinBftMsg::FillGap { from_counter: 3, upto: 9 },
            MinBftMsg::CheckpointHint { cert: Box::new(cert(12)), ring_base: 7 },
        ]
    }

    /// One of each passive message but the shell's.
    fn passive_msgs() -> Vec<PassiveMsg> {
        vec![
            PassiveMsg::Request(req(0, 1, b"SET k0.1 v1".to_vec())),
            PassiveMsg::StateUpdate {
                epoch: 1,
                first_seq: 4,
                ops: Box::new([req(0, 4, b"SET k0.4 v4".to_vec())]),
            },
            PassiveMsg::Heartbeat { epoch: 1, log_len: 9 },
            PassiveMsg::SyncRequest { from_seq: 5 },
        ]
    }

    /// Every message of one protocol: its own, then each shell message.
    fn with_shell<M: From<ShellMsg>>(own: Vec<M>) -> impl Iterator<Item = M> {
        own.into_iter().chain(shell_msgs().into_iter().map(M::from))
    }

    /// [`with_shell`], encoded.
    fn frames<M: Wire + From<ShellMsg>>(own: Vec<M>) -> Vec<Vec<u8>> {
        with_shell(own)
            .map(|msg| {
                let mut frame = Vec::new();
                encode_frame(&msg, &mut frame);
                frame
            })
            .collect()
    }

    #[test]
    fn pbft_variants_roundtrip() {
        with_shell(pbft_msgs()).for_each(|msg| roundtrip(&msg));
    }

    #[test]
    fn minbft_variants_roundtrip() {
        with_shell(minbft_msgs()).for_each(|msg| roundtrip(&msg));
    }

    #[test]
    fn passive_variants_roundtrip() {
        with_shell(passive_msgs()).for_each(|msg| roundtrip(&msg));
    }

    /// Every tag byte in `0..=255` that no frame in `frames` carries at
    /// `at` — after checking that the tags they do carry are `used`.
    fn unused_tags(frames: &[Vec<u8>], at: usize, used: &[u8]) -> Vec<u8> {
        let carried: std::collections::BTreeSet<u8> = frames.iter().map(|f| f[at]).collect();
        assert_eq!(carried.into_iter().collect::<Vec<_>>(), used, "tags at byte {at}");
        (0..=255).filter(|t| !used.contains(t)).collect()
    }

    /// Each frame, with each of `tags` written over byte `at`, is refused.
    fn refuses_tags<M: Wire + std::fmt::Debug>(frames: &[Vec<u8>], at: usize, tags: &[u8]) {
        for frame in frames {
            for &tag in tags {
                let mut unknown = frame.clone();
                unknown[at] = tag;
                let got = decode_frame::<M>(&unknown);
                assert!(got.is_none(), "tag {tag:#x} at {at} decoded to {got:?}");
            }
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Wrong version byte.
        let good = {
            let mut buf = Vec::new();
            let ask = ShellMsg::StateRequest { have: 1 };
            encode_frame(&PbftMsg::Shell(ask), &mut buf);
            buf
        };
        let mut wrong_version = good.clone();
        wrong_version[0] = WIRE_VERSION.wrapping_add(1);
        assert!(decode_frame::<PbftMsg>(&wrong_version).is_none());
        // Every tag byte no variant uses, behind a frame of every variant.
        let pbft = frames(pbft_msgs());
        refuses_tags::<PbftMsg>(&pbft, 1, &unused_tags(&pbft, 1, &[0, 1, 2, 3, 5, 6, SHELL_TAG]));
        let minbft = frames(minbft_msgs());
        let tags = unused_tags(&minbft, 1, &[0, 1, 2, 4, 5, 6, 7, SHELL_TAG]);
        refuses_tags::<MinBftMsg>(&minbft, 1, &tags);
        let passive = frames(passive_msgs());
        let tags = unused_tags(&passive, 1, &[0, 1, 2, 3, SHELL_TAG]);
        refuses_tags::<PassiveMsg>(&passive, 1, &tags);
        // Every unknown shell message behind the shell tag, in every
        // protocol (the frames are the same bytes in all three).
        let shell = frames::<PbftMsg>(Vec::new());
        let tags = unused_tags(&shell, 2, &[0, 1, 2, 3]);
        refuses_tags::<PbftMsg>(&shell, 2, &tags);
        refuses_tags::<MinBftMsg>(&shell, 2, &tags);
        refuses_tags::<PassiveMsg>(&shell, 2, &tags);
        // Every strict prefix of every shell frame, in every protocol.
        for frame in &shell {
            for cut in 0..frame.len() {
                assert!(decode_frame::<PbftMsg>(&frame[..cut]).is_none(), "{frame:?} at {cut}");
                assert!(decode_frame::<MinBftMsg>(&frame[..cut]).is_none(), "{frame:?} at {cut}");
                assert!(decode_frame::<PassiveMsg>(&frame[..cut]).is_none(), "{frame:?} at {cut}");
            }
        }
        // A lying collection count cannot force an allocation: count is
        // checked against the bytes actually present.
        let mut lying = vec![WIRE_VERSION, 5]; // ViewChange
        lying.extend_from_slice(&2u64.to_le_bytes()); // new_view
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
            prop_assert_eq!(batch.wire_len(), buf.len());
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
                ui: ui(1, c2, 2),
            }));
            let mut buf = Vec::new();
            encode_frame(&vote, &mut buf);
            prop_assert_eq!(decode_frame::<MinBftMsg>(&buf), Some(vote));
        }
    }
}
