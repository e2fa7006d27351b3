//! # `pdp-server` — the network service edge
//!
//! A framed TCP front over the sharded pattern-level-DP service
//! ([`pdp_core::ShardedService`]): clients push keyed event batches over
//! a length-prefixed, checksummed binary protocol, subscribed consumers
//! get protected releases pushed back, and an admin surface exposes
//! health, checkpointing and graceful shutdown. Everything is `std`-only
//! — `std::net` sockets and threads, no async runtime.
//!
//! ## Protocol specification
//!
//! Transport: TCP, framed. Every frame is
//!
//! ```text
//! [ body_len : u32 le ][ body ][ fnv1a(body) : u64 le ]
//! body = [ version : u8 = 2 ][ kind : u8 ][ payload ]
//! ```
//!
//! with `body_len ≤ 16 MiB` ([`frame::MAX_FRAME`]) and `fnv1a` the
//! standard FNV-1a 64 (offset basis `cbf29ce484222325`, prime
//! `100000001b3`; `fnv1a("a")` = `af63dc4c8601ec8c`). Payload fields use
//! the little-endian, length-prefixed encoding of [`pdp_core::codec`],
//! the same codec checkpoints and WAL records use. Any decode
//! failure is a typed [`frame::FrameError`]; the server answers
//! `Error(BadFrame)` and closes that connection — other connections and
//! the service itself are untouched.
//!
//! | kind | frame | direction | payload |
//! |------|-------|-----------|---------|
//! | `0x01` | `Hello` | C→S | client name |
//! | `0x02` | `PushBatch` | C→S | seq, events |
//! | `0x03` | `AdvanceWatermark` | C→S | seq, watermark |
//! | `0x04` | `Subscribe` | C→S | shard/answer/merged flags |
//! | `0x05` | `Health` | C→S | — |
//! | `0x06` | `Control` | C→S | seq, control command |
//! | `0x07` | `BeginEpoch` | C→S | seq |
//! | `0x08` | `Checkpoint` | C→S | seq |
//! | `0x09` | `Shutdown` | C→S | — |
//! | `0x81` | `HelloAck` | S→C | shards, parallel, epoch |
//! | `0x82` | `Ack` | S→C | seq, events, low watermark |
//! | `0x83` | `Error` | S→C | seq?, code, message |
//! | `0x84` | `DeliverShard` | S→C | shard, release record |
//! | `0x85` | `DeliverAnswer` | S→C | answer record |
//! | `0x86` | `DeliverMerged` | S→C | merged record |
//! | `0x87` | `HealthInfo` | S→C | health record |
//! | `0x88` | `ShutdownAck` | S→C | lifetime events |
//! | `0x89` | `CtrlOk` | S→C | seq, assigned id |
//!
//! **Handshake.** The first frame on a connection must be `Hello`; the
//! server answers `HelloAck`. Anything else is `Error(BadFrame)` + close.
//!
//! **Sequencing.** `PushBatch`, `AdvanceWatermark`, `Control`,
//! `BeginEpoch` and `Checkpoint` carry a per-connection client sequence
//! number, starting at 1 and strictly increasing. A duplicate or
//! reordered number draws `Error(BadSequence)` — the frame is dropped
//! *before* the service sees it and the connection stays open. Sequence
//! numbers order one connection's requests; requests of different
//! connections are serialized by the single service-owner thread in
//! arrival order.
//!
//! **Deliveries.** A `Subscribe` flags which push records this
//! connection receives. A call's deliveries are the releases its own
//! input caused, written before that call's `Ack` on the requesting
//! connection, preserving the
//! in-process [`pdp_core::ReleaseSink`] delivery-order contract per
//! connection. Release records carry only the public release fields —
//! the sealed pre-protection audit never crosses the wire.
//!
//! **Backpressure.** Every queue between a socket and the service is
//! bounded, so a slow consumer or a saturated pipeline turns into TCP
//! backpressure instead of unbounded buffering (the threading model is
//! documented in `src/server.rs`).
//!
//! **Shutdown.** `Shutdown` finishes the stream, delivers what that
//! releases, fsyncs the WAL ([`pdp_core::ShardedService::shutdown_into`]),
//! answers `ShutdownAck`, then closes every connection.
//!
//! ## Pieces
//!
//! * [`serve`] — the threaded TCP server over a service
//! * [`Client`] — the blocking client (also the test driver)
//! * [`run_load`] — the seeded multi-connection load generator (`pdp-load`)
//! * [`frame`] — the protocol

mod client;
pub mod frame;
mod load;
mod server;

pub use client::{AckInfo, Client, ClientError};
pub use frame::{Frame, FrameError, WireAnswer, WireCommand};
pub use load::{run_load, LoadConfig, LoadReport};
pub use server::{serve, ServerConfig, ServerHandle};
