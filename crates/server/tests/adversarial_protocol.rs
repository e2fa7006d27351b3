//! Adversarial protocol tests: hostile bytes and misbehaving clients
//! must draw *typed* errors — never a panic, never a hang, and never a
//! change to service state — while well-behaved connections keep being
//! served.
//!
//! Split into two layers:
//!
//! * **codec-level** (no server): property tests feeding the frame
//!   decoder truncations, bit flips, random garbage and length-field
//!   lies, asserting every outcome is a typed [`FrameError`];
//! * **server-level**: a live loopback server fed garbage streams,
//!   duplicated/reordered sequence numbers, version mismatches and
//!   wrong-direction frames, asserting the typed error replies, that a
//!   parallel well-behaved connection still ingests, and that the
//!   service's end state is exactly what the clean traffic alone
//!   produces.

use proptest::prelude::*;

use pdp_cep::Pattern;
use pdp_core::{
    KeyedEvent, PpmKind, ServiceBuilder, ServiceConfig, ShardedService, StreamingConfig, SubjectId,
};
use pdp_dp::Epsilon;
use pdp_metrics::Alpha;
use pdp_server::frame::{fnv1a, read_frame, ErrorCode, FrameError, PROTOCOL_VERSION};
use pdp_server::{serve, Client, ClientError, Frame, ServerConfig};
use pdp_stream::{Event, EventType, TimeDelta, Timestamp};

// ---------------------------------------------------------------------------
// codec level
// ---------------------------------------------------------------------------

fn sample_frame(events: usize) -> Frame {
    Frame::PushBatch {
        seq: 1,
        events: (0..events)
            .map(|i| {
                KeyedEvent::new(
                    SubjectId(i as u64),
                    Event::new(EventType((i % 7) as u32), Timestamp(i as i64)),
                )
            })
            .collect(),
    }
}

proptest! {
    /// Any truncation of a valid envelope is a typed error (or clean
    /// EOF at offset 0), never a panic or success.
    #[test]
    fn truncations_are_typed(events in 0usize..20, cut_frac in 0.0f64..1.0) {
        let bytes = sample_frame(events).encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut cursor = &bytes[..cut.min(bytes.len() - 1)];
        let got = read_frame(&mut cursor);
        if cut == 0 {
            prop_assert_eq!(got, Ok(None));
        } else {
            prop_assert_eq!(got, Err(FrameError::Truncated));
        }
    }

    /// Any single corrupted byte in the envelope is a typed error or —
    /// when the corruption hits the length prefix in a way that still
    /// parses — at worst a different typed error. Never a panic, never
    /// a silent wrong decode that passes the checksum.
    #[test]
    fn bit_flips_never_decode_silently(events in 0usize..8, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = sample_frame(events).encode();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 1 << bit;
        let mut cursor = &corrupted[..];
        match read_frame(&mut cursor) {
            // a flip inside the length prefix can still frame a shorter
            // valid-looking body — the checksum then catches it; a flip
            // anywhere else is caught structurally
            Ok(Some(frame)) => prop_assert_eq!(frame, sample_frame(events), "flip decoded to a different frame"),
            Ok(None) => {}
            Err(_) => {}
        }
    }

    /// Pure garbage never panics the reader and always yields a typed
    /// error or clean EOF.
    #[test]
    fn garbage_is_typed(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut cursor = &bytes[..];
        match read_frame(&mut cursor) {
            Ok(_) | Err(_) => {}
        }
    }

    /// A length field lying upward past MAX_FRAME is rejected before
    /// allocation.
    #[test]
    fn oversized_lengths_rejected(extra in 1u32..u32::MAX - pdp_server::frame::MAX_FRAME) {
        let len = pdp_server::frame::MAX_FRAME + extra;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 32]);
        let mut cursor = &bytes[..];
        prop_assert_eq!(read_frame(&mut cursor), Err(FrameError::Oversized(len)));
    }
}

/// A forged envelope whose checksum matches but whose body announces a
/// wrong inner collection count is caught by the payload decoder.
#[test]
fn lying_collection_counts_are_typed() {
    // a PushBatch body claiming 1000 events but containing none
    let mut body = vec![PROTOCOL_VERSION, 0x02];
    body.extend_from_slice(&1u64.to_le_bytes()); // seq
    body.extend_from_slice(&1000u64.to_le_bytes()); // event count lie
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
    let mut cursor = &bytes[..];
    assert_eq!(read_frame(&mut cursor), Err(FrameError::Truncated));
}

// ---------------------------------------------------------------------------
// server level
// ---------------------------------------------------------------------------

const N_SUBJECTS: u64 = 16;

fn spawn_server() -> (pdp_server::ServerHandle, std::net::SocketAddr) {
    let mut builder = ServiceBuilder::new(ServiceConfig {
        n_shards: 2,
        n_types: 8,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(1.0).unwrap(),
        },
        streaming: StreamingConfig::tumbling(TimeDelta::from_millis(100)),
        max_delay: TimeDelta::from_millis(40),
        seed: 7,
        history_window: 0,
    })
    .unwrap();
    for s in 0..N_SUBJECTS {
        builder.register_subject(SubjectId(s));
    }
    builder.register_target_query("t0?", Pattern::single("t0", EventType(0)));
    let service = builder.build().unwrap();
    let handle = serve(service, &ServerConfig::default()).unwrap();
    let addr = handle.addr();
    (handle, addr)
}

fn clean_batch(n: usize) -> Vec<KeyedEvent> {
    (0..n)
        .map(|i| {
            KeyedEvent::new(
                SubjectId((i as u64) % N_SUBJECTS),
                Event::new(EventType((i % 8) as u32), Timestamp(i as i64)),
            )
        })
        .collect()
}

/// Drive the service to a clean end state through `well_behaved` while a
/// hostile closure does its worst on other connections; returns the
/// settled service for state assertions.
fn with_hostile<F: FnOnce(std::net::SocketAddr)>(hostile: F) -> ShardedService {
    let (handle, addr) = spawn_server();
    hostile(addr);
    // the well-behaved connection, after the hostility (each test's
    // final events_ingested assertion checks the exact total, clean
    // traffic plus whatever *valid* pushes the hostile closure made)
    let mut good = Client::connect(addr, "good").unwrap();
    good.push_batch(clean_batch(32)).unwrap();
    good.push_batch(clean_batch(32)).unwrap();
    good.shutdown().unwrap();
    handle.join()
}

#[test]
fn garbage_stream_draws_typed_error_and_only_closes_that_connection() {
    let service = with_hostile(|addr| {
        let mut evil = Client::connect(addr, "evil").unwrap();
        evil.send_bytes(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03])
            .unwrap();
        // the server must answer a typed BadFrame, then close
        match evil.read_raw() {
            Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected a typed BadFrame error, got {other:?}"),
        }
        match evil.read_raw() {
            Err(ClientError::Closed) => {}
            other => panic!("expected the hostile connection closed, got {other:?}"),
        }
    });
    assert_eq!(
        service.events_ingested(),
        64,
        "garbage must not reach the service"
    );
}

#[test]
fn duplicate_and_reordered_sequence_numbers_are_rejected_connection_survives() {
    let service = with_hostile(|addr| {
        let mut evil = Client::connect(addr, "evil").unwrap();
        // seq 1 is legitimate…
        evil.send_raw(&Frame::PushBatch {
            seq: 1,
            events: clean_batch(4),
        })
        .unwrap();
        match evil.read_raw() {
            Ok(Frame::Ack { seq: 1, .. }) => {}
            other => panic!("expected ack of seq 1, got {other:?}"),
        }
        // …a duplicate of it must be rejected without touching the service…
        evil.send_raw(&Frame::PushBatch {
            seq: 1,
            events: clean_batch(500),
        })
        .unwrap();
        match evil.read_raw() {
            Ok(Frame::Error { seq, code, .. }) => {
                assert_eq!(seq, Some(1));
                assert_eq!(code, ErrorCode::BadSequence);
            }
            other => panic!("expected BadSequence for the duplicate, got {other:?}"),
        }
        // …as must a skip-ahead (reorder)…
        evil.send_raw(&Frame::PushBatch {
            seq: 9,
            events: clean_batch(500),
        })
        .unwrap();
        match evil.read_raw() {
            Ok(Frame::Error { seq, code, .. }) => {
                assert_eq!(seq, Some(9));
                assert_eq!(code, ErrorCode::BadSequence);
            }
            other => panic!("expected BadSequence for the reorder, got {other:?}"),
        }
        // …and the connection is still usable at the correct next seq.
        evil.send_raw(&Frame::PushBatch {
            seq: 2,
            events: clean_batch(4),
        })
        .unwrap();
        match evil.read_raw() {
            Ok(Frame::Ack { seq: 2, .. }) => {}
            other => panic!("expected ack of seq 2, got {other:?}"),
        }
    });
    // 8 events through the evil connection's two *valid* pushes + 64 clean
    assert_eq!(service.events_ingested(), 72);
}

#[test]
fn version_mismatch_is_rejected() {
    let service = with_hostile(|addr| {
        let v1_batch = || Frame::PushBatch {
            seq: 1,
            events: clean_batch(4),
        };
        let fnv1a: fn(&[u8]) -> u64 = fnv1a;
        // a frame with a foreign version byte and a fixed-up checksum; and
        // a protocol-v1 peer, whose batch is rejected whole: on the
        // checksum (v1 framed with a non-standard FNV prime), and still on
        // the version byte had it hashed the body today's way
        for (frame, version, sum, why) in [
            (Frame::Health, PROTOCOL_VERSION + 1, fnv1a, "version"),
            (v1_batch(), 1, v1_checksum, "checksum"),
            (v1_batch(), 1, fnv1a, "version"),
        ] {
            let mut evil = Client::connect(addr, "evil").unwrap();
            let mut bytes = frame.encode();
            bytes[4] = version;
            let body_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            let sum = sum(&bytes[4..4 + body_len]);
            bytes[4 + body_len..4 + body_len + 8].copy_from_slice(&sum.to_le_bytes());
            evil.send_bytes(&bytes).unwrap();
            match evil.read_raw() {
                Ok(Frame::Error { code, message, .. }) => {
                    assert_eq!(code, ErrorCode::BadFrame);
                    assert!(message.contains(why), "message: {message}");
                }
                other => panic!("expected a {why} rejection, got {other:?}"),
            }
        }
    });
    assert_eq!(service.events_ingested(), 64, "no v1 event may be ingested");
}

/// The envelope hash protocol v1 shipped with: FNV-1a's loop around
/// 2^48 + 0x1b3 where the standard 64-bit prime is 2^40 + 0x1b3.
fn v1_checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3)
    })
}

#[test]
fn wrong_direction_frames_are_rejected_connection_survives() {
    let service = with_hostile(|addr| {
        let mut evil = Client::connect(addr, "evil").unwrap();
        evil.send_raw(&Frame::ShutdownAck { events_ingested: 0 })
            .unwrap();
        match evil.read_raw() {
            Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadDirection),
            other => panic!("expected BadDirection, got {other:?}"),
        }
        // a server-kind frame must not shut anything down or kill the conn
        evil.send_raw(&Frame::PushBatch {
            seq: 1,
            events: clean_batch(4),
        })
        .unwrap();
        match evil.read_raw() {
            Ok(Frame::Ack { seq: 1, .. }) => {}
            other => panic!("expected the connection still serving, got {other:?}"),
        }
    });
    assert_eq!(service.events_ingested(), 68);
}

/// A 0x86 body announcing a 2^28-type indicator vector (2^22 words)
/// and carrying none of its words. Every kind decodes before the server
/// checks direction, so any client can send one: the word count is
/// checked against the bytes left before the vector is allocated, and
/// the frame draws a typed BadFrame.
#[test]
fn unbacked_indicator_universe_is_a_bad_frame() {
    let mut body = vec![PROTOCOL_VERSION, 0x86];
    // index, start, epoch, two empty lists, n_types, n_words
    for field in [7u64, 0, 0, 0, 0, 1 << 28, 1 << 22] {
        body.extend_from_slice(&field.to_le_bytes());
    }
    assert_eq!(Frame::decode_body(&body), Err(FrameError::Truncated));
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
    let service = with_hostile(|addr| {
        let mut evil = Client::connect(addr, "evil").unwrap();
        evil.send_bytes(&bytes).unwrap();
        match evil.read_raw() {
            Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected a typed BadFrame error, got {other:?}"),
        }
    });
    assert_eq!(
        service.events_ingested(),
        64,
        "the hostile frame ingests nothing"
    );
}

#[test]
fn non_hello_first_frame_is_rejected() {
    let (handle, addr) = spawn_server();
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&Frame::Health.encode()).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        match read_frame(&mut reader) {
            Ok(Some(Frame::Error { code, .. })) => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected BadFrame for a missing Hello, got {other:?}"),
        }
        match read_frame(&mut reader) {
            Ok(None) | Err(_) => {}
            other => panic!("expected the connection closed, got {other:?}"),
        }
    }
    let mut good = Client::connect(addr, "good").unwrap();
    good.push_batch(clean_batch(8)).unwrap();
    good.shutdown().unwrap();
    assert_eq!(handle.join().events_ingested(), 8);
}

/// Random garbage hurled at a *live* server: every connection ends in a
/// typed error or a close, the server survives, and a clean connection
/// afterwards still ingests. (Bounded rounds keep this deterministic
/// and fast; the codec-level proptests carry the breadth.)
#[test]
fn garbage_fuzz_rounds_leave_the_server_serving() {
    use std::io::Write;
    let (handle, addr) = spawn_server();
    let mut rng = pdp_dp::DpRng::seed_from(1312);
    for round in 0..24 {
        // raw socket: garbage may form a plausible length prefix that
        // leaves the server waiting for a body — closing our write half
        // turns that wait into a typed Truncated, so nothing can hang
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(
            &Frame::Hello {
                client: format!("fuzz{round}"),
            }
            .encode(),
        )
        .unwrap();
        let len = rng.below(96) + 1;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        raw.write_all(&bytes).unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = std::io::BufReader::new(raw);
        loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::HelloAck { .. })) | Ok(Some(Frame::Error { .. })) => {}
                Ok(Some(other)) => panic!("round {round}: garbage produced {other:?}"),
                Ok(None) | Err(_) => break,
            }
        }
    }
    let mut good = Client::connect(addr, "good").unwrap();
    good.push_batch(clean_batch(16)).unwrap();
    good.shutdown().unwrap();
    assert_eq!(handle.join().events_ingested(), 16);
}
