//! Typed frames and the checksummed envelope they travel in.
//!
//! # Envelope
//!
//! ```text
//! [ body_len : u32 le ][ body : body_len bytes ][ fnv1a(body) : u64 le ]
//! body = [ version : u8 = 2 ][ kind : u8 ][ payload ]
//! ```
//!
//! `body_len` is bounded by [`MAX_FRAME`]; a longer announcement is a
//! typed [`FrameError::Oversized`] *before* any allocation, so a hostile
//! peer cannot make the server reserve gigabytes with four bytes. The
//! trailing FNV-1a checksum covers the whole body (same hash the WAL
//! frames use); a mismatch is [`FrameError::BadChecksum`]. Every decode
//! error is typed — malformed input never panics and never hangs a
//! reader thread.
//!
//! # Frame kinds
//!
//! Client → server kinds live below `0x80`, server → client kinds at
//! `0x80 |` — see [`Frame`] for the full protocol table and the crate
//! root for sequencing rules.

use std::io::{ErrorKind, Read, Write};

use pdp_cep::QueryId;
use pdp_core::codec::{ByteReader, ByteWriter, CodecError, Wire};
use pdp_core::{KeyedEvent, SubjectId};
use pdp_stream::{EventType, IndicatorVector, Timestamp};

/// Protocol version spoken by this build. A peer announcing any other
/// version is rejected with [`FrameError::BadVersion`] on its first
/// frame.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on one frame body. Large enough for a multi-thousand
/// event batch, small enough that a corrupted length cannot commit the
/// reader to a giant allocation.
pub const MAX_FRAME: u32 = 1 << 24;

/// The envelope checksum: standard FNV-1a 64, the same function the
/// durability layer frames checkpoints and WAL records with.
pub use pdp_core::fnv1a;

/// Every way a frame can fail to decode (or a connection fail to carry
/// one). All variants are recoverable by the server: a malformed frame
/// draws a typed [`Frame::Error`] reply and at worst closes that one
/// connection — service state is never touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload (or stream) ended before the announced length.
    Truncated,
    /// The payload decoded completely but left this many bytes unread.
    TrailingBytes(usize),
    /// The announced body length exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// The body checksum did not match.
    BadChecksum { expected: u64, actual: u64 },
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// The frame kind byte is not part of the protocol.
    UnknownKind(u8),
    /// A payload field is structurally invalid (bad tag, bad utf-8,
    /// indicator bits outside their universe, ...).
    Malformed(String),
    /// The underlying socket failed mid-frame.
    Io(ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            FrameError::Oversized(n) => write!(f, "announced body of {n} bytes exceeds MAX_FRAME"),
            FrameError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:#x}, body hashes to {actual:#x}"
                )
            }
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Malformed(why) => write!(f, "malformed payload: {why}"),
            FrameError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => FrameError::Truncated,
            CodecError::TrailingBytes(n) => FrameError::TrailingBytes(n),
            CodecError::Malformed(why) => FrameError::Malformed(why),
        }
    }
}

/// Encode a released indicator vector in the frame form: `n_types`, the
/// word count, then the raw words. (Checkpoints use the codec's
/// present-type list instead; see [`pdp_core::codec`].)
fn encode_indicator_words(iv: &IndicatorVector, w: &mut ByteWriter) {
    iv.n_types().encode(w);
    iv.words().len().encode(w);
    for word in iv.words() {
        word.encode(w);
    }
}

/// Decode [`encode_indicator_words`] output. The words are validated
/// against the bytes left before the vector is allocated, and bits past
/// `n_types` are rejected: a corrupted word must not smuggle presence
/// for types that do not exist.
fn decode_indicator_words(r: &mut ByteReader<'_>) -> Result<IndicatorVector, CodecError> {
    let n_types = usize::decode(r)?;
    let n_words = r.read_len()?;
    if n_words != n_types.div_ceil(64) {
        return Err(CodecError::Malformed(format!(
            "indicator vector of {n_types} types cannot have {n_words} words"
        )));
    }
    if n_words > r.remaining() / 8 {
        return Err(CodecError::Truncated);
    }
    let mut iv = IndicatorVector::empty(n_types);
    for wd in 0..n_words {
        let word = u64::decode(r)?;
        let valid = if (wd + 1) * 64 <= n_types {
            u64::MAX
        } else {
            (1u64 << (n_types - wd * 64)) - 1
        };
        if word & !valid != 0 {
            return Err(CodecError::Malformed(
                "indicator vector has bits past its type universe".into(),
            ));
        }
        iv.xor_word(wd, word);
    }
    Ok(iv)
}

/// A control-plane mutation carried over the wire (the `Control` frame's
/// payload) — the churn surface `pdp-load` exercises.
#[derive(Debug, Clone, PartialEq)]
pub enum WireCommand {
    /// Register a subject for ingestion (idempotent).
    RegisterSubject(SubjectId),
    /// Retire a subject; its events are rejected from the next batch.
    RetireSubject(SubjectId),
    /// Register a private pattern for one subject.
    RegisterPattern {
        /// Owning subject.
        subject: SubjectId,
        /// Pattern name (diagnostic only).
        name: String,
        /// The pattern's element sequence (non-empty).
        elements: Vec<EventType>,
    },
    /// Revoke a subject's private pattern by its returned id.
    RevokePattern {
        /// Owning subject.
        subject: SubjectId,
        /// The `PatternId` returned at registration, as its raw `u32`.
        pattern: u32,
    },
    /// Add a consumer target-pattern query.
    AddQuery {
        /// Query name (diagnostic only).
        name: String,
        /// The target pattern's element sequence (non-empty).
        elements: Vec<EventType>,
    },
    /// Remove a consumer query by stable id.
    RemoveQuery(QueryId),
}

impl Wire for WireCommand {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            WireCommand::RegisterSubject(s) => {
                0u8.encode(w);
                s.encode(w);
            }
            WireCommand::RetireSubject(s) => {
                1u8.encode(w);
                s.encode(w);
            }
            WireCommand::RegisterPattern {
                subject,
                name,
                elements,
            } => {
                2u8.encode(w);
                subject.encode(w);
                name.encode(w);
                elements.encode(w);
            }
            WireCommand::RevokePattern { subject, pattern } => {
                3u8.encode(w);
                subject.encode(w);
                pattern.encode(w);
            }
            WireCommand::AddQuery { name, elements } => {
                4u8.encode(w);
                name.encode(w);
                elements.encode(w);
            }
            WireCommand::RemoveQuery(q) => {
                5u8.encode(w);
                q.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => WireCommand::RegisterSubject(SubjectId::decode(r)?),
            1 => WireCommand::RetireSubject(SubjectId::decode(r)?),
            2 => WireCommand::RegisterPattern {
                subject: SubjectId::decode(r)?,
                name: String::decode(r)?,
                elements: Vec::decode(r)?,
            },
            3 => WireCommand::RevokePattern {
                subject: SubjectId::decode(r)?,
                pattern: u32::decode(r)?,
            },
            4 => WireCommand::AddQuery {
                name: String::decode(r)?,
                elements: Vec::decode(r)?,
            },
            5 => WireCommand::RemoveQuery(QueryId::decode(r)?),
            t => return Err(CodecError::Malformed(format!("invalid command tag {t}"))),
        })
    }
}

/// A typed answer on the wire — mirrors `pdp_core::Answer` exactly so the
/// equivalence anchor can compare field-by-field.
#[derive(Debug, Clone, PartialEq)]
pub enum WireAnswer {
    /// Binary pattern detection.
    Bool(bool),
    /// Trailing-window detection count.
    Count(u64),
    /// Categorical label.
    Categorical(String),
    /// Noisy-argmax label.
    Argmax(String),
}

impl Wire for WireAnswer {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            WireAnswer::Bool(b) => {
                0u8.encode(w);
                b.encode(w);
            }
            WireAnswer::Count(n) => {
                1u8.encode(w);
                n.encode(w);
            }
            WireAnswer::Categorical(s) => {
                2u8.encode(w);
                s.encode(w);
            }
            WireAnswer::Argmax(s) => {
                3u8.encode(w);
                s.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => WireAnswer::Bool(bool::decode(r)?),
            1 => WireAnswer::Count(u64::decode(r)?),
            2 => WireAnswer::Categorical(String::decode(r)?),
            3 => WireAnswer::Argmax(String::decode(r)?),
            t => return Err(CodecError::Malformed(format!("invalid answer tag {t}"))),
        })
    }
}

impl From<&pdp_core::Answer> for WireAnswer {
    fn from(a: &pdp_core::Answer) -> Self {
        match a {
            pdp_core::Answer::Bool(b) => WireAnswer::Bool(*b),
            pdp_core::Answer::Count(n) => WireAnswer::Count(*n as u64),
            pdp_core::Answer::Categorical(s) => WireAnswer::Categorical(s.clone()),
            pdp_core::Answer::Argmax(s) => WireAnswer::Argmax(s.clone()),
        }
    }
}

/// One shard's protected window release, as delivered to subscribers.
///
/// Deliberately **not** the in-process `WindowRelease`: that type seals
/// the raw pre-protection detections (`TrustedAudit`) behind the trusted
/// boundary, and the network edge must never carry them. This record
/// holds exactly the public fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseRecord {
    /// Sequential release index.
    pub index: u64,
    /// Start of the released window.
    pub start: Timestamp,
    /// The epoch whose plan protected and answered this window.
    pub epoch: u64,
    /// The protected indicator view — what consumers receive.
    pub protected: IndicatorVector,
    /// Typed answers, aligned with `query_ids`.
    pub answers: Vec<WireAnswer>,
    /// The stable ids `answers` is aligned with.
    pub query_ids: Vec<QueryId>,
}

impl Wire for ReleaseRecord {
    fn encode(&self, w: &mut ByteWriter) {
        self.index.encode(w);
        self.start.encode(w);
        self.epoch.encode(w);
        encode_indicator_words(&self.protected, w);
        self.answers.encode(w);
        self.query_ids.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ReleaseRecord {
            index: u64::decode(r)?,
            start: Timestamp::decode(r)?,
            epoch: u64::decode(r)?,
            protected: decode_indicator_words(r)?,
            answers: Vec::decode(r)?,
            query_ids: Vec::decode(r)?,
        })
    }
}

/// One merged (population-level) window release on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRecord {
    /// Window index.
    pub index: u64,
    /// Start of the window.
    pub start: Timestamp,
    /// The releasing epoch.
    pub epoch: u64,
    /// Per query (positional): any shard answered truthily.
    pub answers_any: Vec<bool>,
    /// Per query (positional): how many shards answered truthily.
    pub positive_shards: Vec<u64>,
    /// Per-type disjunction of every shard's protected view.
    pub protected_any: IndicatorVector,
    /// Id-keyed typed answers, ascending by [`QueryId`].
    pub typed: Vec<(QueryId, WireAnswer)>,
}

impl Wire for MergedRecord {
    fn encode(&self, w: &mut ByteWriter) {
        self.index.encode(w);
        self.start.encode(w);
        self.epoch.encode(w);
        self.answers_any.encode(w);
        self.positive_shards.encode(w);
        encode_indicator_words(&self.protected_any, w);
        self.typed.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(MergedRecord {
            index: u64::decode(r)?,
            start: Timestamp::decode(r)?,
            epoch: u64::decode(r)?,
            answers_any: Vec::decode(r)?,
            positive_shards: Vec::decode(r)?,
            protected_any: decode_indicator_words(r)?,
            typed: Vec::decode(r)?,
        })
    }
}

/// One id-keyed query answer on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerRecord {
    /// The stable query id.
    pub query: QueryId,
    /// The window index the answer belongs to.
    pub window: u64,
    /// The releasing epoch.
    pub epoch: u64,
    /// The typed answer.
    pub answer: WireAnswer,
}

impl Wire for AnswerRecord {
    fn encode(&self, w: &mut ByteWriter) {
        self.query.encode(w);
        self.window.encode(w);
        self.epoch.encode(w);
        self.answer.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(AnswerRecord {
            query: QueryId::decode(r)?,
            window: u64::decode(r)?,
            epoch: u64::decode(r)?,
            answer: WireAnswer::decode(r)?,
        })
    }
}

/// One shard's liveness row in a [`HealthRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealthRecord {
    /// Shard index.
    pub shard: u64,
    /// A live worker serves this shard.
    pub alive: bool,
    /// The shard's mutex is poisoned.
    pub poisoned: bool,
    /// Heals performed on this shard.
    pub heals: u32,
}

impl Wire for ShardHealthRecord {
    fn encode(&self, w: &mut ByteWriter) {
        self.shard.encode(w);
        self.alive.encode(w);
        self.poisoned.encode(w);
        self.heals.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ShardHealthRecord {
            shard: u64::decode(r)?,
            alive: bool::decode(r)?,
            poisoned: bool::decode(r)?,
            heals: u32::decode(r)?,
        })
    }
}

/// The service's supervision snapshot on the wire (the public subset of
/// `pdp_core::HealthReport`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthRecord {
    /// Rounds execute on worker threads.
    pub parallel: bool,
    /// The supervisor gave up on parallelism.
    pub degraded: bool,
    /// WAL append retries so far.
    pub wal_retries: u64,
    /// Total WAL append attempts.
    pub wal_appends: u64,
    /// Events accepted into the pipeline so far.
    pub events_ingested: u64,
    /// Current control-plane epoch.
    pub epoch: u64,
    /// Per-shard liveness.
    pub shards: Vec<ShardHealthRecord>,
}

impl Wire for HealthRecord {
    fn encode(&self, w: &mut ByteWriter) {
        self.parallel.encode(w);
        self.degraded.encode(w);
        self.wal_retries.encode(w);
        self.wal_appends.encode(w);
        self.events_ingested.encode(w);
        self.epoch.encode(w);
        self.shards.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(HealthRecord {
            parallel: bool::decode(r)?,
            degraded: bool::decode(r)?,
            wal_retries: u64::decode(r)?,
            wal_appends: u64::decode(r)?,
            events_ingested: u64::decode(r)?,
            epoch: u64::decode(r)?,
            shards: Vec::decode(r)?,
        })
    }
}

/// Typed error codes carried by [`Frame::Error`], so clients can react
/// without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame could not be decoded (codec-level). The server closes
    /// the connection after sending this — framing is lost.
    BadFrame,
    /// A sequenced frame arrived out of order (duplicate or reordered
    /// client sequence number). The connection stays open.
    BadSequence,
    /// The service rejected the request (typed `CoreError`, e.g. an
    /// unknown subject or a stale watermark). The connection stays open.
    Rejected,
    /// A frame kind arrived that this peer direction may not send.
    BadDirection,
}

impl Wire for ErrorCode {
    fn encode(&self, w: &mut ByteWriter) {
        let b: u8 = match self {
            ErrorCode::BadFrame => 0,
            ErrorCode::BadSequence => 1,
            ErrorCode::Rejected => 2,
            ErrorCode::BadDirection => 3,
        };
        b.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => ErrorCode::BadFrame,
            1 => ErrorCode::BadSequence,
            2 => ErrorCode::Rejected,
            3 => ErrorCode::BadDirection,
            t => return Err(CodecError::Malformed(format!("invalid error code {t}"))),
        })
    }
}

/// Every frame in the protocol. Kinds below `0x80` travel client →
/// server; kinds with the high bit set travel server → client. See the
/// crate root for the handshake and sequencing rules.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- client → server -------------------------------------------------
    /// `0x01` — handshake: must be the first frame on every connection.
    Hello {
        /// Free-form client name (diagnostics only).
        client: String,
    },
    /// `0x02` — ingest a batch of keyed events. `seq` must be strictly
    /// increasing per connection starting at 1.
    PushBatch {
        /// Per-connection client sequence number.
        seq: u64,
        /// The batch (may be empty).
        events: Vec<KeyedEvent>,
    },
    /// `0x03` — advance the service watermark (sequenced like a push).
    AdvanceWatermark {
        /// Per-connection client sequence number.
        seq: u64,
        /// The new watermark.
        watermark: Timestamp,
    },
    /// `0x04` — subscribe this connection to release deliveries.
    Subscribe {
        /// Receive per-shard releases ([`Frame::DeliverShard`]).
        shard_releases: bool,
        /// Receive id-keyed answers ([`Frame::DeliverAnswer`]).
        answers: bool,
        /// Receive merged windows ([`Frame::DeliverMerged`]).
        merged: bool,
    },
    /// `0x05` — request a [`Frame::HealthInfo`] snapshot.
    Health,
    /// `0x06` — a sequenced control-plane mutation.
    Control {
        /// Per-connection client sequence number.
        seq: u64,
        /// The mutation.
        command: WireCommand,
    },
    /// `0x07` — sequenced: compile staged control commands into a new
    /// epoch at the next window boundary.
    BeginEpoch {
        /// Per-connection client sequence number.
        seq: u64,
    },
    /// `0x08` — sequenced admin: image the service state (the
    /// checkpoint stays server-side).
    Checkpoint {
        /// Per-connection client sequence number.
        seq: u64,
    },
    /// `0x09` — graceful shutdown of the whole server: finishes the
    /// stream, delivers what that releases, fsyncs the WAL, then answers
    /// [`Frame::ShutdownAck`] and closes every connection.
    Shutdown,

    // ---- server → client -------------------------------------------------
    /// `0x81` — handshake reply.
    HelloAck {
        /// Shards behind this service.
        n_shards: u32,
        /// Whether rounds run on worker threads.
        parallel: bool,
        /// Current control-plane epoch.
        epoch: u64,
    },
    /// `0x82` — a sequenced frame was applied.
    Ack {
        /// Echo of the client sequence number.
        seq: u64,
        /// Total events the service has accepted so far.
        events_ingested: u64,
        /// The service's current low watermark.
        low_watermark: Option<Timestamp>,
    },
    /// `0x83` — a frame was rejected (typed; see [`ErrorCode`] for
    /// whether the connection survives).
    Error {
        /// Echo of the offending sequence number, when one was readable.
        seq: Option<u64>,
        /// What went wrong, typed.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// `0x84` — push: one shard's protected window release.
    DeliverShard {
        /// The releasing shard.
        shard: u64,
        /// The release (public fields only — the audit stays sealed
        /// server-side).
        record: ReleaseRecord,
    },
    /// `0x85` — push: one id-keyed query answer.
    DeliverAnswer {
        /// The answer.
        record: AnswerRecord,
    },
    /// `0x86` — push: one merged population-level window.
    DeliverMerged {
        /// The merged window.
        record: MergedRecord,
    },
    /// `0x87` — reply to [`Frame::Health`].
    HealthInfo {
        /// The supervision snapshot.
        record: HealthRecord,
    },
    /// `0x88` — the server finished its graceful teardown; the
    /// connection closes after this frame.
    ShutdownAck {
        /// Total events the service accepted over its lifetime.
        events_ingested: u64,
    },
    /// `0x89` — a sequenced control frame was applied.
    CtrlOk {
        /// Echo of the client sequence number.
        seq: u64,
        /// The id the control plane assigned (pattern / query /
        /// subject id as raw integer; 0 when the command returns none).
        id: u64,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::PushBatch { .. } => 0x02,
            Frame::AdvanceWatermark { .. } => 0x03,
            Frame::Subscribe { .. } => 0x04,
            Frame::Health => 0x05,
            Frame::Control { .. } => 0x06,
            Frame::BeginEpoch { .. } => 0x07,
            Frame::Checkpoint { .. } => 0x08,
            Frame::Shutdown => 0x09,
            Frame::HelloAck { .. } => 0x81,
            Frame::Ack { .. } => 0x82,
            Frame::Error { .. } => 0x83,
            Frame::DeliverShard { .. } => 0x84,
            Frame::DeliverAnswer { .. } => 0x85,
            Frame::DeliverMerged { .. } => 0x86,
            Frame::HealthInfo { .. } => 0x87,
            Frame::ShutdownAck { .. } => 0x88,
            Frame::CtrlOk { .. } => 0x89,
        }
    }

    /// True for kinds a client may send.
    pub fn is_client_kind(&self) -> bool {
        self.kind() < 0x80
    }

    /// The client sequence number, for sequenced kinds.
    pub fn seq(&self) -> Option<u64> {
        match self {
            Frame::PushBatch { seq, .. }
            | Frame::AdvanceWatermark { seq, .. }
            | Frame::Control { seq, .. }
            | Frame::BeginEpoch { seq }
            | Frame::Checkpoint { seq } => Some(*seq),
            _ => None,
        }
    }

    fn encode_payload(&self, w: &mut ByteWriter) {
        match self {
            Frame::Hello { client } => client.encode(w),
            Frame::PushBatch { seq, events } => {
                seq.encode(w);
                events.encode(w);
            }
            Frame::AdvanceWatermark { seq, watermark } => {
                seq.encode(w);
                watermark.encode(w);
            }
            Frame::Subscribe {
                shard_releases,
                answers,
                merged,
            } => {
                shard_releases.encode(w);
                answers.encode(w);
                merged.encode(w);
            }
            Frame::Health | Frame::Shutdown => {}
            Frame::Control { seq, command } => {
                seq.encode(w);
                command.encode(w);
            }
            Frame::BeginEpoch { seq } | Frame::Checkpoint { seq } => seq.encode(w),
            Frame::HelloAck {
                n_shards,
                parallel,
                epoch,
            } => {
                n_shards.encode(w);
                parallel.encode(w);
                epoch.encode(w);
            }
            Frame::Ack {
                seq,
                events_ingested,
                low_watermark,
            } => {
                seq.encode(w);
                events_ingested.encode(w);
                low_watermark.encode(w);
            }
            Frame::Error { seq, code, message } => {
                seq.encode(w);
                code.encode(w);
                message.encode(w);
            }
            Frame::DeliverShard { shard, record } => {
                shard.encode(w);
                record.encode(w);
            }
            Frame::DeliverAnswer { record } => record.encode(w),
            Frame::DeliverMerged { record } => record.encode(w),
            Frame::HealthInfo { record } => record.encode(w),
            Frame::ShutdownAck { events_ingested } => events_ingested.encode(w),
            Frame::CtrlOk { seq, id } => {
                seq.encode(w);
                id.encode(w);
            }
        }
    }

    fn decode_payload(kind: u8, r: &mut ByteReader<'_>) -> Result<Frame, FrameError> {
        Ok(match kind {
            0x01 => Frame::Hello {
                client: String::decode(r)?,
            },
            0x02 => Frame::PushBatch {
                seq: u64::decode(r)?,
                events: Vec::decode(r)?,
            },
            0x03 => Frame::AdvanceWatermark {
                seq: u64::decode(r)?,
                watermark: Timestamp::decode(r)?,
            },
            0x04 => Frame::Subscribe {
                shard_releases: bool::decode(r)?,
                answers: bool::decode(r)?,
                merged: bool::decode(r)?,
            },
            0x05 => Frame::Health,
            0x06 => Frame::Control {
                seq: u64::decode(r)?,
                command: WireCommand::decode(r)?,
            },
            0x07 => Frame::BeginEpoch {
                seq: u64::decode(r)?,
            },
            0x08 => Frame::Checkpoint {
                seq: u64::decode(r)?,
            },
            0x09 => Frame::Shutdown,
            0x81 => Frame::HelloAck {
                n_shards: u32::decode(r)?,
                parallel: bool::decode(r)?,
                epoch: u64::decode(r)?,
            },
            0x82 => Frame::Ack {
                seq: u64::decode(r)?,
                events_ingested: u64::decode(r)?,
                low_watermark: Option::decode(r)?,
            },
            0x83 => Frame::Error {
                seq: Option::decode(r)?,
                code: ErrorCode::decode(r)?,
                message: String::decode(r)?,
            },
            0x84 => Frame::DeliverShard {
                shard: u64::decode(r)?,
                record: ReleaseRecord::decode(r)?,
            },
            0x85 => Frame::DeliverAnswer {
                record: AnswerRecord::decode(r)?,
            },
            0x86 => Frame::DeliverMerged {
                record: MergedRecord::decode(r)?,
            },
            0x87 => Frame::HealthInfo {
                record: HealthRecord::decode(r)?,
            },
            0x88 => Frame::ShutdownAck {
                events_ingested: u64::decode(r)?,
            },
            0x89 => Frame::CtrlOk {
                seq: u64::decode(r)?,
                id: u64::decode(r)?,
            },
            k => return Err(FrameError::UnknownKind(k)),
        })
    }

    /// Encode this frame as a full envelope (length prefix + body +
    /// checksum), ready to write to a socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        PROTOCOL_VERSION.encode(&mut w);
        self.kind().encode(&mut w);
        self.encode_payload(&mut w);
        let body = w.into_bytes();
        debug_assert!(body.len() <= MAX_FRAME as usize);
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out
    }

    /// Decode one frame body (version + kind + payload — the envelope's
    /// middle section, after the checksum already verified).
    pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let mut r = ByteReader::new(body);
        let version = u8::decode(&mut r)?;
        if version != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind = u8::decode(&mut r)?;
        let frame = Frame::decode_payload(kind, &mut r)?;
        r.finish()?;
        Ok(frame)
    }
}

/// Write one frame to `w` (no internal buffering — callers batch writes
/// with a `BufWriter` when throughput matters).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), FrameError> {
    w.write_all(&frame.encode())?;
    Ok(())
}

/// Read one frame from `r`.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary*
/// (the peer closed between frames); EOF mid-frame is
/// [`FrameError::Truncated`]. The announced length is validated against
/// [`MAX_FRAME`] before any allocation, and the checksum before any
/// payload decoding.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // hand-rolled first read: distinguish clean EOF from truncation
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    read_fully(r, &mut body)?;
    let mut sum_bytes = [0u8; 8];
    read_fully(r, &mut sum_bytes)?;
    let expected = u64::from_le_bytes(sum_bytes);
    let actual = fnv1a(&body);
    if expected != actual {
        return Err(FrameError::BadChecksum { expected, actual });
    }
    Frame::decode_body(&body).map(Some)
}

fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_stream::{AttrValue, Event};

    /// A 130-type vector: three words, the last one partial.
    fn wide_vector() -> IndicatorVector {
        IndicatorVector::from_present([0, 63, 64, 100, 129].into_iter().map(EventType), 130)
    }

    /// One frame of every kind, in kind order; the batch carries every
    /// attribute kind and the releases every answer kind.
    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                client: "load-7".into(),
            },
            Frame::PushBatch {
                seq: 1,
                events: vec![
                    KeyedEvent::new(
                        SubjectId(4),
                        Event::new(EventType(2), Timestamp(-50))
                            .with_attr("int", AttrValue::Int(i64::MIN))
                            .with_attr("float", AttrValue::Float(-0.0))
                            .with_attr("str", AttrValue::Str("héllo".into()))
                            .with_attr("bool", AttrValue::Bool(true))
                            .with_attr("loc", AttrValue::Location(1.5, -2.25)),
                    ),
                    KeyedEvent::new(SubjectId(u64::MAX), Event::new(EventType(0), Timestamp(40))),
                ],
            },
            Frame::AdvanceWatermark {
                seq: 2,
                watermark: Timestamp(900),
            },
            Frame::Subscribe {
                shard_releases: true,
                answers: false,
                merged: true,
            },
            Frame::Health,
            Frame::Control {
                seq: 3,
                command: WireCommand::RegisterPattern {
                    subject: SubjectId(4),
                    name: "p".into(),
                    elements: vec![EventType(1), EventType(2)],
                },
            },
            Frame::BeginEpoch { seq: 4 },
            Frame::Checkpoint { seq: 5 },
            Frame::Shutdown,
            Frame::HelloAck {
                n_shards: 4,
                parallel: true,
                epoch: 2,
            },
            Frame::Ack {
                seq: 9,
                events_ingested: 512,
                low_watermark: Some(Timestamp(880)),
            },
            Frame::Error {
                seq: Some(10),
                code: ErrorCode::BadSequence,
                message: "expected 11".into(),
            },
            Frame::DeliverShard {
                shard: 2,
                record: ReleaseRecord {
                    index: 7,
                    start: Timestamp(700),
                    epoch: 1,
                    protected: wide_vector(),
                    answers: vec![
                        WireAnswer::Bool(true),
                        WireAnswer::Count(3),
                        WireAnswer::Categorical("c".into()),
                        WireAnswer::Argmax("a".into()),
                    ],
                    query_ids: vec![QueryId(0), QueryId(5), QueryId(6), QueryId(8)],
                },
            },
            Frame::DeliverAnswer {
                record: AnswerRecord {
                    query: QueryId(5),
                    window: 7,
                    epoch: 1,
                    answer: WireAnswer::Argmax("hot".into()),
                },
            },
            Frame::DeliverMerged {
                record: MergedRecord {
                    index: 7,
                    start: Timestamp(700),
                    epoch: 1,
                    answers_any: vec![true, false],
                    positive_shards: vec![3, 0],
                    protected_any: wide_vector(),
                    typed: vec![(QueryId(0), WireAnswer::Bool(true))],
                },
            },
            Frame::HealthInfo {
                record: HealthRecord {
                    parallel: true,
                    degraded: false,
                    wal_retries: 0,
                    wal_appends: 12,
                    events_ingested: 512,
                    epoch: 2,
                    shards: vec![ShardHealthRecord {
                        shard: 0,
                        alive: true,
                        poisoned: false,
                        heals: 0,
                    }],
                },
            },
            Frame::ShutdownAck {
                events_ingested: 512,
            },
            Frame::CtrlOk { seq: 3, id: 9 },
        ]
    }

    /// `fnv1a` of each sample frame's envelope, captured before the
    /// network and durability codecs were merged. Round trips pass for a
    /// codec that changes its encoder and decoder in step; this does not,
    /// so a layout change has to come with a new `PROTOCOL_VERSION`.
    const SAMPLE_DIGESTS: [u64; 18] = [
        0xca93_7c5c_a2ef_48f6,
        0x8226_476c_88cf_45c8,
        0xea2c_1639_8cb2_af89,
        0xc267_9df9_0f14_68fe,
        0x2fd6_6d4a_b503_accf,
        0x3064_31de_a0ba_48ff,
        0xd64e_2624_46cf_620c,
        0x6d27_b771_8f1d_032b,
        0xa6e5_1b8c_11b9_b0a6,
        0x6f2d_3d84_ba91_0212,
        0xbc57_09ca_1488_eb58,
        0x92d6_10d4_d382_0325,
        0x292b_4fdb_aa4e_446f,
        0xf177_35fe_2bac_3265,
        0x7085_d3be_fb8e_bbe5,
        0x7ac6_7329_4ae7_2f32,
        0xaa08_0abc_9219_426c,
        0xfc4a_1334_d938_6d55,
    ];

    #[test]
    fn every_frame_kind_keeps_its_bytes() {
        let digests: Vec<u64> = sample_frames().iter().map(|f| fnv1a(&f.encode())).collect();
        assert_eq!(digests, SAMPLE_DIGESTS);
    }

    #[test]
    fn every_frame_roundtrips_through_a_stream() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = &wire[..];
        for f in &frames {
            let back = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(&back, f);
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn indicator_vector_roundtrips() {
        for iv in [
            IndicatorVector::from_present(
                [EventType(0), EventType(63), EventType(64), EventType(99)],
                130,
            ),
            IndicatorVector::empty(0),
        ] {
            let mut w = ByteWriter::new();
            encode_indicator_words(&iv, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_indicator_words(&mut r).unwrap(), iv);
            r.finish().unwrap();
        }
    }

    #[test]
    fn out_of_universe_indicator_bits_are_typed() {
        let mut w = ByteWriter::new();
        3usize.encode(&mut w); // n_types = 3
        1usize.encode(&mut w); // one word
        0b1111u64.encode(&mut w); // bit 3 is past the universe
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_indicator_words(&mut ByteReader::new(&bytes)),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_streams_are_typed_not_hangs() {
        let bytes = Frame::Health.encode();
        // every strict prefix (except empty = clean EOF) is Truncated
        for cut in 1..bytes.len() {
            let mut cursor = &bytes[..cut];
            assert_eq!(
                read_frame(&mut cursor),
                Err(FrameError::Truncated),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = (MAX_FRAME + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 64]);
        let mut cursor = &bytes[..];
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized(MAX_FRAME + 1))
        );
    }

    #[test]
    fn corrupted_body_fails_the_checksum() {
        let mut bytes = Frame::Hello { client: "x".into() }.encode();
        bytes[5] ^= 0xFF; // flip a body byte; the trailing hash no longer matches
        let mut cursor = &bytes[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = Frame::Health.encode();
        bytes[4] = 1; // the version byte is the first body byte
                      // fix up the checksum so only the version is wrong
        let body_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let sum = fnv1a(&bytes[4..4 + body_len]);
        let sum_at = 4 + body_len;
        bytes[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor), Err(FrameError::BadVersion(1)));
    }

    #[test]
    fn unknown_kind_is_typed() {
        let mut bytes = Frame::Health.encode();
        bytes[5] = 0x7F; // kind byte
        let body_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let sum = fnv1a(&bytes[4..4 + body_len]);
        let sum_at = 4 + body_len;
        bytes[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor), Err(FrameError::UnknownKind(0x7F)));
    }

    #[test]
    fn trailing_payload_bytes_are_typed() {
        // a Health frame with one extra payload byte
        let body = vec![PROTOCOL_VERSION, 0x05, 0xAA];
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor), Err(FrameError::TrailingBytes(1)));
    }
}
