//! The transport-plane envelope: what actually crosses a TCP connection.
//!
//! Protocol messages are wrapped in an [`Envelope`] that adds the plane's
//! own concerns — who is speaking (hello handshakes), where a protocol
//! message came from, and the out-of-band digest/shutdown channel the
//! cluster client uses to check convergence. The envelope body is encoded
//! with the same versioned [`Wire`] codec as every protocol message, so
//! one `decode_frame` call validates the whole thing.

use rsoc_bft::api::Endpoint;
use rsoc_bft::codec::{decode_frame, encode_frame, Reader, Wire, FRAME_SLACK};

/// One transport-plane frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope<M> {
    /// First frame on a replica→replica connection: the dialer's id.
    HelloReplica(u32),
    /// First frame on a client-process connection: every client id the
    /// process will issue requests for. Replies to those ids route back
    /// over this connection.
    HelloClient {
        /// Client ids owned by the connecting process.
        ids: Vec<u32>,
    },
    /// A protocol message, tagged with its sender endpoint.
    Msg {
        /// Sending endpoint (replica or client).
        from: Endpoint,
        /// The protocol message.
        msg: M,
    },
    /// Client → replica: report your committed count and state digest.
    DigestQuery,
    /// Replica → client: the answer to a [`Envelope::DigestQuery`].
    DigestReply {
        /// Responding replica id.
        replica: u32,
        /// Total committed operations.
        committed: u64,
        /// SHA-256 state-machine digest.
        digest: [u8; 32],
    },
    /// Client → replica: the run is over; exit the serve loop.
    Shutdown,
}

/// Encodes an envelope into a versioned frame body (ready for
/// [`crate::frame::write_frame`]).
pub fn encode_envelope<M: Wire>(env: &Envelope<M>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_SLACK + env.payload_len());
    encode_frame(env, &mut buf);
    buf
}

/// Decodes a versioned frame body into an envelope. Total: `None` on any
/// malformed input.
pub fn decode_envelope<M: Wire>(body: &[u8]) -> Option<Envelope<M>> {
    decode_frame(body)
}

// Envelopes are decoded straight off the network; the decode path must
// reject malformed input without panicking.
// lint: ingress
impl<M: Wire> Wire for Envelope<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Envelope::HelloReplica(id) => {
                buf.push(0);
                id.encode(buf);
            }
            Envelope::HelloClient { ids } => {
                buf.push(1);
                ids.encode(buf);
            }
            Envelope::Msg { from, msg } => {
                buf.push(2);
                from.encode(buf);
                msg.encode(buf);
            }
            Envelope::DigestQuery => buf.push(3),
            Envelope::DigestReply { replica, committed, digest } => {
                buf.push(4);
                replica.encode(buf);
                committed.encode(buf);
                digest.encode(buf);
            }
            Envelope::Shutdown => buf.push(5),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => Envelope::HelloReplica(u32::decode(r)?),
            1 => Envelope::HelloClient { ids: Vec::<u32>::decode(r)? },
            2 => Envelope::Msg { from: Endpoint::decode(r)?, msg: M::decode(r)? },
            3 => Envelope::DigestQuery,
            4 => Envelope::DigestReply {
                replica: u32::decode(r)?,
                committed: u64::decode(r)?,
                digest: <[u8; 32]>::decode(r)?,
            },
            5 => Envelope::Shutdown,
            _ => return None,
        })
    }

    fn payload_len(&self) -> usize {
        match self {
            Envelope::Msg { msg, .. } => msg.payload_len(),
            _ => 0,
        }
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsoc_bft::api::ReplicaId;
    use rsoc_bft::pbft::PbftMsg;
    use std::sync::Arc;

    fn roundtrip(env: &Envelope<PbftMsg>) {
        let body = encode_envelope(env);
        let back: Envelope<PbftMsg> = decode_envelope(&body).expect("round trip");
        assert_eq!(&back, env);
        // Every strict prefix must be rejected, not mis-decoded.
        for cut in 0..body.len() {
            assert!(decode_envelope::<PbftMsg>(&body[..cut]).is_none(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn envelope_variants_round_trip() {
        roundtrip(&Envelope::HelloReplica(3));
        roundtrip(&Envelope::HelloClient { ids: vec![0, 1, 2, 3] });
        roundtrip(&Envelope::Msg {
            from: Endpoint::Replica(ReplicaId(1)),
            msg: PbftMsg::Request(Arc::new(rsoc_bft::Request {
                op: rsoc_bft::OpId { client: rsoc_bft::ClientId(7), seq: 9 },
                payload: b"SET k v".to_vec(),
            })),
        });
        roundtrip(&Envelope::DigestQuery);
        roundtrip(&Envelope::DigestReply { replica: 2, committed: 240, digest: [0x5A; 32] });
        roundtrip(&Envelope::Shutdown);
    }

    /// The frames that carry client bytes are allocated once: the buffer
    /// `encode_envelope` sized up front is the one it returns.
    #[test]
    fn payload_frames_are_sized_before_they_are_encoded() {
        let request = |seq: u64| {
            Arc::new(rsoc_bft::Request {
                op: rsoc_bft::OpId { client: rsoc_bft::ClientId(7), seq },
                payload: vec![0x5A; 600],
            })
        };
        let batch = Arc::new(rsoc_bft::api::Batch::new((1..=4).map(request).collect()));
        let from = Endpoint::Replica(ReplicaId(1));
        let reply = rsoc_bft::Reply {
            replica: ReplicaId(1),
            op: request(1).op,
            result: Arc::new(vec![1; 300]),
        };
        for msg in [
            PbftMsg::Request(request(1)),
            PbftMsg::PrePrepare { view: 0, seq: 1, batch: batch.clone() },
            PbftMsg::Prepare { view: 0, seq: 1, digest: batch.digest(), from: ReplicaId(1) },
            PbftMsg::Commit { view: 0, seq: 1, digest: batch.digest(), from: ReplicaId(1) },
            PbftMsg::Shell(rsoc_bft::ShellMsg::Reply(reply)),
        ] {
            let env = Envelope::Msg { from, msg };
            let body = encode_envelope(&env);
            assert_eq!(body.capacity(), FRAME_SLACK + env.payload_len(), "{env:?} grew");
            assert!(body.len() + FRAME_SLACK >= body.capacity(), "{env:?} over-allocated");
        }
    }

    #[test]
    fn unknown_discriminant_is_rejected() {
        let mut body = encode_envelope::<PbftMsg>(&Envelope::DigestQuery);
        *body.last_mut().unwrap() = 6; // past the last variant tag
        assert!(decode_envelope::<PbftMsg>(&body).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Garbage bodies never panic the decoder.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_envelope::<PbftMsg>(&bytes);
        }
    }
}
