//! Property tests for the wire frame codec: arbitrary frames of every
//! type round-trip bit-exactly; adversarial transformations of the wire
//! image (single-byte flips, truncations, random byte soup) never panic
//! and never silently alias to a different frame. Complements the
//! hand-built corruption cases in `frame.rs` with generated coverage.

use fractal_net::frame::{decode_frame, encode_frame, EventKind, Frame, Role};
use proptest::prelude::*;

fn arb_blob(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn arb_words(max: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..max)
}

/// Arbitrary string fields (tenant names, snapshot specs, event details):
/// includes the separator/spec characters the serve path actually uses,
/// plus a multi-byte codepoint to exercise UTF-8 on the wire.
fn arb_text() -> impl Strategy<Value = String> {
    const CHARS: [char; 12] = ['a', 'b', 'z', '0', '9', ':', '.', '_', '-', ' ', '/', 'é'];
    proptest::collection::vec(any::<u8>(), 0..24).prop_map(|bytes| {
        bytes
            .iter()
            .map(|&b| CHARS[b as usize % CHARS.len()])
            .collect()
    })
}

const EVENT_KINDS: [EventKind; 8] = [
    EventKind::Accepted,
    EventKind::Rejected,
    EventKind::Queued,
    EventKind::Running,
    EventKind::Progress,
    EventKind::Done,
    EventKind::Cancelled,
    EventKind::Failed,
];

/// An arbitrary frame spanning all eighteen wire types, including optional
/// blob presence/absence combinations and sentinel-adjacent integers.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..18, // variant selector
        any::<u32>(),
        any::<u64>(),
        (0u8..8, arb_blob(40), arb_blob(40)),
        arb_words(24),
        (arb_text(), arb_text()),
    )
        .prop_map(
            |(sel, round, word, (flags, blob_a, blob_b), words, (text_a, text_b))| match sel {
                0 => Frame::Hello {
                    role: match flags % 3 {
                        0 => Role::Driver,
                        1 => Role::Worker,
                        _ => Role::Client,
                    },
                    cores: round,
                },
                1 => Frame::Assign {
                    round,
                    recovery: flags & 1 != 0,
                    job: (flags & 2 != 0).then_some(blob_a),
                    seed: (flags & 4 != 0).then_some(blob_b),
                    roots: words,
                },
                2 => Frame::StealRequest { round },
                3 => Frame::StealReply {
                    round,
                    word,
                    unit: (flags & 1 != 0).then_some(blob_a),
                },
                4 => Frame::Ack { round, word },
                5 => Frame::Nack { round, word },
                6 => Frame::AggFlush {
                    round,
                    count: word,
                    agg: blob_a,
                    report: blob_b,
                },
                7 => Frame::Heartbeat {
                    round,
                    completed: words,
                },
                8 => Frame::Done { round },
                9 => Frame::Submit {
                    tenant: text_a.clone(),
                    priority: flags,
                    snapshot: text_b,
                    app: blob_a,
                    token: text_a,
                },
                10 => Frame::Status { job: word },
                11 => Frame::Cancel { job: word },
                12 => Frame::Result {
                    job: word,
                    count: round as u64,
                    agg: blob_a,
                    report: blob_b,
                },
                13 => Frame::JobEvent {
                    job: word,
                    kind: EVENT_KINDS[(flags % 8) as usize],
                    detail: text_a,
                    value: round as u64,
                    event_seq: word.wrapping_mul(31),
                },
                // A mux envelope's payload is an opaque byte string at
                // this layer — corruption inside it is caught by the
                // outer checksum, so arbitrary bytes are the right test.
                14 => Frame::Mux {
                    job: word,
                    inner: blob_a,
                },
                15 => Frame::Watch {
                    job: word,
                    after_seq: round as u64,
                },
                16 => Frame::UnitFailed {
                    round,
                    message: text_a,
                },
                _ => Frame::Forget { graph: word },
            },
        )
}

proptest! {
    #[test]
    fn arbitrary_frames_round_trip(seq in any::<u32>(), frame in arb_frame()) {
        let wire = encode_frame(seq, &frame);
        let (got_seq, got) = decode_frame(&wire).expect("round trip");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got, frame);
    }

    #[test]
    fn single_byte_flips_are_always_detected(
        frame in arb_frame(),
        pos_pick in any::<usize>(),
        xor in 1u8..=255,
    ) {
        // Any one-byte change is caught by the magic/version/type/length
        // checks or the trailing FNV-1a checksum — never a panic, never a
        // silently different frame.
        let mut wire = encode_frame(5, &frame);
        let pos = pos_pick % wire.len();
        wire[pos] ^= xor;
        prop_assert!(decode_frame(&wire).is_err());
    }

    #[test]
    fn every_truncation_is_an_error(frame in arb_frame(), cut_pick in any::<usize>()) {
        let wire = encode_frame(5, &frame);
        let cut = cut_pick % wire.len();
        prop_assert!(decode_frame(&wire[..cut]).is_err());
    }

    #[test]
    fn decoding_random_bytes_never_panics_and_is_canonical(bytes in arb_blob(200)) {
        // Whatever random bytes do, the decoder must not panic; and the
        // encoding is canonical, so anything that does decode must
        // re-encode to the identical wire image.
        if let Ok((seq, frame)) = decode_frame(&bytes) {
            prop_assert_eq!(encode_frame(seq, &frame), bytes);
        }
    }
}
