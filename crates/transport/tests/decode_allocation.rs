//! One frame cannot make the decoder allocate more than its own length.
//!
//! A collection count is checked only against the bytes that follow it,
//! and an element can be larger in memory than on the wire (a batch slot
//! is 16 bytes in a `Vec`, a request pointer 8, a client id 4). A count as
//! large as the tail therefore asked the decoder to reserve up to that
//! many times the frame. This binary counts every allocation through its
//! own global allocator and feeds `decode_envelope` a frame whose count
//! lies, for each collection field a peer can reach — the very first frame
//! of a connection is decoded before it is checked to be a hello.
//!
//! It is one `#[test]`, so no other test thread allocates while a frame is
//! measured.

use rsoc_bft::codec::WIRE_VERSION;
use rsoc_bft::minbft::MinBftMsg;
use rsoc_bft::passive::PassiveMsg;
use rsoc_bft::pbft::PbftMsg;
use rsoc_bft::Wire;
use rsoc_transport::wire::decode_envelope;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest block it was asked for.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the wrapper only records a size.
unsafe impl GlobalAlloc for Largest {
    // SAFETY: the caller's `alloc` contract is passed through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: the caller's `alloc_zeroed` contract is passed through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from `System` through this wrapper.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` came from `System` through this wrapper.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Bytes of a tail no element decodes from: every count and tag in it is
/// `0xFF`, so the first element fails as soon as it reads one.
const TAIL: usize = 64 * 1024;

/// An envelope frame: version, then `fields`, then a collection count
/// equal to the `tail` bytes that follow it — a lie no larger than the
/// bytes present, so the count check passes.
fn lying(fields: &[&[u8]], tail: &[u8]) -> Vec<u8> {
    let count = (tail.len() as u64).to_le_bytes();
    [&[WIRE_VERSION][..], &fields.concat(), &count, tail].concat()
}

/// A protocol message from replica 1: the envelope's `Msg` tag and sender.
const MSG: &[u8] = &[2, 0, 1, 0, 0, 0];

/// A decoder measured by [`largest_allocation`].
type Decode = fn(&[u8]) -> usize;

/// Decodes `frame` as an envelope of `M` and returns the largest single
/// allocation made while doing so.
fn largest_allocation<M: Wire>(frame: &[u8]) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    let decoded = decode_envelope::<M>(frame);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(decoded.is_none(), "a lying count decoded");
    largest
}

#[test]
fn a_lying_count_costs_no_more_than_its_frame() {
    let ff = vec![0xFF; TAIL];
    let u64s = |n: u64| n.to_le_bytes();
    // A certificate with no vouchers, as a state transfer carries it.
    let empty_cert = [&u64s(8)[..], &[7; 32], &u64s(0)].concat();
    let (pbft, minbft, passive): (Decode, Decode, Decode) = (
        largest_allocation::<PbftMsg>,
        largest_allocation::<MinBftMsg>,
        largest_allocation::<PassiveMsg>,
    );
    let cases: Vec<(&str, Decode, Vec<u8>)> = vec![
        ("HelloClient.ids", pbft, lying(&[&[1]], &ff)),
        ("PrePrepare.batch", pbft, lying(&[MSG, &[1], &u64s(0), &u64s(1)], &ff)),
        ("ViewChange.prepared", pbft, lying(&[MSG, &[5], &u64s(2)], &ff)),
        ("NewView.preprepares", pbft, lying(&[MSG, &[6], &u64s(2)], &ff)),
        (
            "StateResponse.suffix",
            pbft,
            lying(&[MSG, &[0x80, 3], &empty_cert, &u64s(0), &u64s(8)], &ff),
        ),
        ("StateUpdate.ops", passive, lying(&[MSG, &[1], &u64s(1), &u64s(1)], &ff)),
        // A voucher is 76 bytes on the wire and 80 in memory, and any 76
        // bytes decode as one: a tail of whole vouchers decodes, honestly,
        // into more memory than it occupies. This tail holds one voucher
        // and part of a second, under a count of a hundred.
        (
            "ViewChange.cert.vouchers",
            pbft,
            lying(
                &[MSG, &[5], &u64s(2), &u64s(0), &u64s(1), &[1], &u64s(8), &[7; 32]],
                &[0xFF; 100],
            ),
        ),
        (
            "CheckpointHint.cert.vouchers",
            minbft,
            lying(&[MSG, &[7], &u64s(8), &[7; 32]], &[0xFF; 100]),
        ),
    ];
    for (field, decode, frame) in &cases {
        let largest = decode(frame);
        assert!(
            largest <= frame.len(),
            "{field}: a {}-byte frame allocated {largest} bytes at once",
            frame.len()
        );
    }
}
