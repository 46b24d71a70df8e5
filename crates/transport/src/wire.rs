//! The transport-plane envelope: what actually crosses a TCP connection.
//!
//! Protocol messages are wrapped in an [`Envelope`] that adds the plane's
//! own concerns — who is speaking (hello handshakes), where a protocol
//! message came from, and the out-of-band digest/shutdown channel the
//! cluster client uses to check convergence. The envelope is declared
//! through [`rsoc_bft::wire!`] like every protocol message, so one
//! `decode_frame` call validates the whole body, and [`encode_envelope`]
//! allocates each frame once, at its exact [`Wire::wire_len`].

use rsoc_bft::api::Endpoint;
use rsoc_bft::codec::{decode_frame, encode_frame, Wire};

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
/// [`crate::frame::write_frame`]), allocated once at its exact size: the
/// version byte and [`Wire::wire_len`].
pub fn encode_envelope<M: Wire>(env: &Envelope<M>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + env.wire_len());
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
rsoc_bft::wire! {
    enum Envelope<M> {
        0 => HelloReplica(id),
        1 => HelloClient { ids },
        2 => Msg { from, msg },
        3 => DigestQuery,
        4 => DigestReply { replica, committed, digest },
        5 => Shutdown,
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsoc_bft::api::{Batch, ClientId, OpId, ReplicaId, Reply, Request};
    use rsoc_bft::checkpoint::{CheckpointCert, CheckpointVoucher, StateTransfer};
    use rsoc_bft::minbft::{CommitVote, MinBftMsg};
    use rsoc_bft::passive::PassiveMsg;
    use rsoc_bft::pbft::PbftMsg;
    use rsoc_bft::viewchange::VcVote;
    use rsoc_bft::ShellMsg;
    use rsoc_crypto::Tag;
    use rsoc_hybrid::{UsigId, UI};
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
        for env in envelopes() {
            roundtrip(&env);
        }
    }

    fn request(seq: u64) -> Arc<Request> {
        Arc::new(Request { op: OpId { client: ClientId(7), seq }, payload: vec![0x5A; 600] })
    }

    /// A stable-checkpoint certificate of `2f + 1` vouchers.
    fn cert(f: u32) -> Box<CheckpointCert> {
        let voucher = |from| CheckpointVoucher {
            seq: 64,
            digest: [3; 32],
            from: ReplicaId(from),
            tag: Tag([4; 32]),
        };
        let vouchers = (0..=2 * f).map(voucher).collect();
        Box::new(CheckpointCert { seq: 64, digest: [3; 32], vouchers })
    }

    /// Each envelope's frame is allocated once, at exactly its length.
    fn sized_once<M: Wire + std::fmt::Debug>(envs: impl IntoIterator<Item = Envelope<M>>) {
        for env in envs {
            let body = encode_envelope(&env);
            assert_eq!(body.capacity(), body.len(), "{env:?}");
        }
    }

    /// Every frame is allocated once, at its size: every variant of the
    /// three protocols, every shell message, and the certificates a view
    /// change or a checkpoint hint carries at f = 1..=3.
    #[test]
    fn payload_frames_are_sized_before_they_are_encoded() {
        let batch = Arc::new(Batch::new((1..=4).map(request).collect()));
        let ui = UI { id: UsigId(1), counter: 9, tag: Tag([6; 32]) };
        let vote = |cert| VcVote {
            new_view: 2,
            prepared: vec![(1, batch.clone())],
            executed_upto: 0,
            cert,
        };
        let transfer = StateTransfer {
            cert: *cert(1),
            snapshot: Arc::new(vec![7; 900]),
            log_base: 64,
            suffix: Arc::new(vec![(65, batch.clone())]),
            view: 1,
        };
        let shell = [
            ShellMsg::Reply(Reply {
                replica: ReplicaId(1),
                op: request(1).op,
                result: Arc::new(vec![1; 300]),
            }),
            ShellMsg::Checkpoint(Box::new(cert(1).vouchers[0].clone())),
            ShellMsg::StateRequest { have: 4 },
            ShellMsg::StateResponse(Box::new(transfer)),
        ];
        let digest = batch.digest();
        let preprepares = vec![(1, batch.clone()), (2, batch.clone())];
        let pbft = [
            PbftMsg::Request(request(1)),
            PbftMsg::PrePrepare { view: 0, seq: 1, batch: batch.clone() },
            PbftMsg::Prepare { view: 0, seq: 1, digest },
            PbftMsg::Commit { view: 0, seq: 1, digest },
            PbftMsg::ViewChange(vote(None)),
            PbftMsg::NewView { view: 2, preprepares },
        ]
        .into_iter()
        .chain((1..=3).map(|f| PbftMsg::ViewChange(vote(Some(cert(f))))))
        .chain(shell.iter().cloned().map(PbftMsg::Shell));
        let commit = CommitVote { view: 0, seq: 1, batch: batch.clone(), primary_ui: ui, ui };
        let minbft = [
            MinBftMsg::Request(request(1)),
            MinBftMsg::Prepare { view: 0, seq: 1, batch: batch.clone(), ui },
            MinBftMsg::Commit(Arc::new(commit)),
            MinBftMsg::ReqViewChange(vote(Some(cert(1)))),
            MinBftMsg::NewView { view: 2 },
            MinBftMsg::FillGap { from_counter: 3, upto: 9 },
        ]
        .into_iter()
        .chain((1..=3).map(|f| MinBftMsg::CheckpointHint { cert: cert(f), ring_base: 7 }))
        .chain(shell.iter().cloned().map(MinBftMsg::Shell));
        let ops = (1..=4).map(request).collect();
        let passive = [
            PassiveMsg::Request(request(1)),
            PassiveMsg::StateUpdate { epoch: 1, first_seq: 1, ops },
            PassiveMsg::Heartbeat { epoch: 1, log_len: 9 },
            PassiveMsg::SyncRequest { from_seq: 5 },
        ]
        .into_iter()
        .chain(shell.iter().cloned().map(PassiveMsg::Shell));
        let from = Endpoint::Replica(ReplicaId(1));
        sized_once(pbft.map(|msg| Envelope::Msg { from, msg }));
        sized_once(minbft.map(|msg| Envelope::Msg { from, msg }));
        sized_once(passive.map(|msg| Envelope::Msg { from, msg }));
        sized_once(envelopes());
    }

    /// One envelope of each kind.
    fn envelopes() -> Vec<Envelope<PbftMsg>> {
        vec![
            Envelope::HelloReplica(3),
            Envelope::HelloClient { ids: vec![0, 1, 2, 3] },
            Envelope::Msg {
                from: Endpoint::Client(ClientId(7)),
                msg: PbftMsg::Request(request(9)),
            },
            Envelope::DigestQuery,
            Envelope::DigestReply { replica: 2, committed: 240, digest: [0x5A; 32] },
            Envelope::Shutdown,
        ]
    }

    /// Every tag byte no envelope uses, behind a frame of every kind, is
    /// refused.
    #[test]
    fn unknown_discriminant_is_rejected() {
        let frames: Vec<Vec<u8>> = envelopes().iter().map(encode_envelope).collect();
        let used: Vec<u8> = frames.iter().map(|f| f[1]).collect();
        assert_eq!(used, [0, 1, 2, 3, 4, 5]);
        for frame in &frames {
            for tag in (0..=255).filter(|t| !used.contains(t)) {
                let mut body = frame.clone();
                body[1] = tag;
                assert!(decode_envelope::<PbftMsg>(&body).is_none(), "tag {tag:#x}");
            }
        }
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
