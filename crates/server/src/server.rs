//! The TCP service edge: per-connection reader/writer threads around a
//! single service-owner thread.
//!
//! # Threading model
//!
//! ```text
//! client ──TCP──▶ reader thread ──bounded sync_channel──▶ owner thread
//!                  (decode, seq        (Request queue)     (owns the
//!                   check, typed                            ShardedService)
//!                   protocol errors)                            │
//! client ◀──TCP── writer thread ◀──bounded sync_channel─────────┘
//!                  (drain bytes)       (per-connection out queue)
//! ```
//!
//! Exactly one thread — the owner — ever touches the [`ShardedService`];
//! there is no lock around service state and no way for two connections
//! to interleave mid-call. Readers validate framing and per-connection
//! sequencing *before* anything reaches the owner, so malformed input is
//! answered (typed [`Frame::Error`]) without the service seeing it.
//!
//! # Backpressure
//!
//! Every queue in the picture is bounded. When the owner falls behind,
//! the central request queue fills, readers block on `send`, the kernel
//! socket buffers fill, and the client's `write` blocks — ingest pressure
//! propagates to the producer as TCP backpressure, the same contract the
//! in-process pipeline makes with its bounded job queues. When a
//! *subscriber* falls behind, its out-queue fills and the owner blocks
//! delivering to it, which in turn stalls ingest: a slow consumer
//! throttles the pipeline rather than growing an unbounded buffer.
//!
//! # Shutdown
//!
//! A [`Frame::Shutdown`] makes the owner run
//! [`ShardedService::shutdown_into`] (finish the stream → deliver what
//! it releases → surface deferred errors → fsync the WAL), answer
//! [`Frame::ShutdownAck`], then drop every connection's out-queue sender.
//! The accept thread — woken by a loopback self-connect — shuts down the
//! *read* half of every live connection (waking readers parked in
//! `read_frame` with EOF, while queued replies still drain through the
//! untouched write half) and then joins every connection thread before
//! exiting. [`ServerHandle::join`] therefore returns only once every
//! writer has flushed and closed its socket: the ShutdownAck is on the
//! wire before a caller (such as the `pdp-server` binary's `main`) can
//! exit the process. The settled [`ShardedService`] comes back to the
//! caller — which is how the loopback equivalence test inspects post-run
//! budgets, watermarks and epochs.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pdp_cep::Pattern;
use pdp_cep::{PatternId, QueryId};
use pdp_core::{CoreError, MergedRelease, QueryAnswer, ReleaseSink, ShardRelease, ShardedService};

use crate::frame::{
    read_frame, AnswerRecord, ErrorCode, Frame, HealthRecord, MergedRecord, ReleaseRecord,
    ShardHealthRecord, WireCommand,
};

/// Tuning knobs of [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an ephemeral port; the bound
    /// address is on the returned handle).
    pub addr: String,
    /// Depth of the central request queue feeding the owner thread.
    pub request_queue: usize,
    /// Depth of each connection's outbound byte queue.
    pub out_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            request_queue: 64,
            out_queue: 256,
        }
    }
}

/// What a reader thread forwards to the owner.
enum Request {
    /// A connection completed its handshake.
    Connect { conn: u64, out: SyncSender<Vec<u8>> },
    /// A validated client frame.
    Apply { conn: u64, frame: Frame },
    /// The connection's socket closed (or its reader gave up on it).
    Disconnect { conn: u64 },
}

struct ConnState {
    out: SyncSender<Vec<u8>>,
    sub_shard: bool,
    sub_answers: bool,
    sub_merged: bool,
}

/// Running server. Dropping the handle does **not** stop the server —
/// send a [`Frame::Shutdown`] (e.g. [`crate::client::Client::shutdown`])
/// and then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    owner: JoinHandle<ShardedService>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to finish its graceful teardown (triggered by
    /// a client [`Frame::Shutdown`]) and take back the settled service.
    pub fn join(self) -> ShardedService {
        let service = self.owner.join().expect("owner thread panicked");
        self.accept.join().expect("accept thread panicked");
        service
    }
}

/// Start serving `service` on `config.addr`. Returns once the listener
/// is bound; the service moves onto the owner thread and comes back via
/// [`ServerHandle::join`] after a graceful shutdown.
pub fn serve(service: ShardedService, config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (req_tx, req_rx) = sync_channel::<Request>(config.request_queue.max(1));
    let out_queue = config.out_queue.max(1);

    // read halves of live connections, by conn id: at teardown the accept
    // thread shuts each down to wake readers parked in `read_frame`
    // (writes are untouched, so queued replies still drain); readers
    // deregister themselves on exit
    let streams: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));

    let accept = {
        let stop = Arc::clone(&stop);
        let streams = Arc::clone(&streams);
        std::thread::Builder::new()
            .name("pdp-accept".to_owned())
            .spawn(move || {
                let mut readers: Vec<JoinHandle<()>> = Vec::new();
                let mut next_conn = 0u64;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // reap finished connections: a joinable thread's
                    // stack is only reclaimed at join, so holding every
                    // handle until teardown would leak per past conn
                    let mut i = 0;
                    while i < readers.len() {
                        if readers[i].is_finished() {
                            let _ = readers.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    // Nagle + delayed ACK costs ~40 ms whenever two
                    // small server frames (delivery, then ack) land in
                    // separate segments; replies are flushed per frame
                    // on purpose, so disable coalescing
                    let _ = stream.set_nodelay(true);
                    next_conn += 1;
                    let conn = next_conn;
                    if let Ok(clone) = stream.try_clone() {
                        streams.lock().unwrap().insert(conn, clone);
                    }
                    let req_tx = req_tx.clone();
                    let registry = Arc::clone(&streams);
                    let spawned = std::thread::Builder::new()
                        .name(format!("pdp-conn-{conn}"))
                        .spawn(move || {
                            reader_loop(conn, stream, req_tx, out_queue);
                            registry.lock().unwrap().remove(&conn);
                        });
                    match spawned {
                        Ok(handle) => readers.push(handle),
                        Err(e) => {
                            // out of threads: the accepted stream was
                            // consumed by the dead closure, so the
                            // client sees a plain close
                            streams.lock().unwrap().remove(&conn);
                            eprintln!("pdp-accept: reader spawn for conn {conn} failed: {e}");
                        }
                    }
                }
                // teardown: wake every parked reader with read-EOF, then
                // wait for each connection's reader (which joins its
                // writer) — once this thread exits, every queued reply
                // has been flushed and every conn socket is closed
                for stream in streams.lock().unwrap().values() {
                    let _ = stream.shutdown(NetShutdown::Read);
                }
                for handle in readers {
                    let _ = handle.join();
                }
            })?
    };

    let owner = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("pdp-owner".to_owned())
            .spawn(move || owner_loop(service, req_rx, stop, addr))?
    };

    Ok(ServerHandle {
        addr,
        owner,
        accept,
    })
}

/// Send a typed protocol error straight from the reader (the service
/// never sees the offending frame).
fn proto_error(out: &SyncSender<Vec<u8>>, seq: Option<u64>, code: ErrorCode, message: String) {
    let _ = out.send(Frame::Error { seq, code, message }.encode());
}

fn reader_loop(conn: u64, stream: TcpStream, req_tx: SyncSender<Request>, out_queue: usize) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pdp-conn-{conn}: try_clone failed: {e}");
            return;
        }
    };
    let (out_tx, out_rx) = sync_channel::<Vec<u8>>(out_queue);
    let writer = std::thread::Builder::new()
        .name(format!("pdp-write-{conn}"))
        .spawn(move || writer_loop(write_half, out_rx));
    let writer = match writer {
        Ok(w) => w,
        Err(e) => {
            eprintln!("pdp-conn-{conn}: writer spawn failed: {e}");
            return;
        }
    };

    let mut reader = BufReader::new(stream);
    // handshake: the first frame must be Hello
    match read_frame(&mut reader) {
        Ok(Some(Frame::Hello { .. })) => {
            if req_tx
                .send(Request::Connect {
                    conn,
                    out: out_tx.clone(),
                })
                .is_err()
            {
                // owner already gone (post-shutdown race): drop the conn
                drop(out_tx);
                let _ = writer.join();
                return;
            }
        }
        Ok(Some(_)) => {
            proto_error(
                &out_tx,
                None,
                ErrorCode::BadFrame,
                "first frame must be Hello".to_owned(),
            );
            drop(out_tx);
            let _ = writer.join();
            return;
        }
        Ok(None) | Err(_) => {
            drop(out_tx);
            let _ = writer.join();
            return;
        }
    }

    // per-connection client sequence numbers start at 1 and must be
    // strictly increasing; duplicates and reorders are rejected here,
    // before the service can see them
    let mut expected_seq = 1u64;
    loop {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => {
                if !frame.is_client_kind() {
                    proto_error(
                        &out_tx,
                        None,
                        ErrorCode::BadDirection,
                        "server-to-client frame kind sent by client".to_owned(),
                    );
                    continue;
                }
                if let Some(seq) = frame.seq() {
                    if seq != expected_seq {
                        proto_error(
                            &out_tx,
                            Some(seq),
                            ErrorCode::BadSequence,
                            format!("expected seq {expected_seq}, got {seq}"),
                        );
                        continue;
                    }
                    expected_seq += 1;
                }
                let shutting_down = matches!(frame, Frame::Shutdown);
                if req_tx.send(Request::Apply { conn, frame }).is_err() || shutting_down {
                    break;
                }
            }
            Ok(None) => {
                // clean close between frames
                let _ = req_tx.send(Request::Disconnect { conn });
                break;
            }
            Err(err) => {
                // a codec error desynchronizes the stream: answer typed,
                // then close this connection (others are untouched)
                proto_error(&out_tx, None, ErrorCode::BadFrame, err.to_string());
                let _ = req_tx.send(Request::Disconnect { conn });
                break;
            }
        }
    }
    // the owner still holds (or already dropped) its out sender clone;
    // dropping ours lets the writer exit once the owner side is gone too
    drop(out_tx);
    let _ = writer.join();
}

fn writer_loop(stream: TcpStream, out_rx: Receiver<Vec<u8>>) {
    let mut w = BufWriter::new(stream);
    while let Ok(bytes) = out_rx.recv() {
        if w.write_all(&bytes).is_err() {
            break;
        }
        // flush when the queue is momentarily empty: coalesce bursts,
        // never sit on a reply
        if w.flush().is_err() {
            break;
        }
    }
    let _ = w.flush();
    if let Ok(stream) = w.into_inner() {
        let _ = stream.shutdown(NetShutdown::Both);
    }
}

/// The owner's delivery sink: encodes each release once and fans the
/// bytes out to every subscribed connection's out-queue (blocking sends
/// — a full subscriber queue stalls the pipeline, by design).
struct NetSink<'a> {
    conns: &'a HashMap<u64, ConnState>,
}

impl NetSink<'_> {
    fn fan_out<F: Fn(&ConnState) -> bool>(&self, wants: F, bytes: Vec<u8>) {
        let mut targets = self.conns.values().filter(|c| wants(c)).peekable();
        while let Some(c) = targets.next() {
            if targets.peek().is_some() {
                let _ = c.out.send(bytes.clone());
            } else {
                let _ = c.out.send(bytes);
                return;
            }
        }
    }
}

impl ReleaseSink for NetSink<'_> {
    fn wants(&self, _query: QueryId) -> bool {
        self.conns.values().any(|c| c.sub_answers)
    }

    fn shard_release(&mut self, release: ShardRelease) {
        if !self.conns.values().any(|c| c.sub_shard) {
            return;
        }
        let r = &release.release;
        let record = ReleaseRecord {
            index: r.index as u64,
            start: r.start,
            epoch: r.epoch,
            protected: r.protected.clone(),
            answers: r.answers.iter().map(Into::into).collect(),
            query_ids: r.query_ids.to_vec(),
        };
        let bytes = Frame::DeliverShard {
            shard: release.shard as u64,
            record,
        }
        .encode();
        self.fan_out(|c| c.sub_shard, bytes);
    }

    fn answer(&mut self, answer: QueryAnswer) {
        if !self.conns.values().any(|c| c.sub_answers) {
            return;
        }
        let bytes = Frame::DeliverAnswer {
            record: AnswerRecord {
                query: answer.query,
                window: answer.window as u64,
                epoch: answer.epoch,
                answer: (&answer.answer).into(),
            },
        }
        .encode();
        self.fan_out(|c| c.sub_answers, bytes);
    }

    fn merged_release(&mut self, release: MergedRelease) {
        if !self.conns.values().any(|c| c.sub_merged) {
            return;
        }
        let bytes = Frame::DeliverMerged {
            record: MergedRecord {
                index: release.index as u64,
                start: release.start,
                epoch: release.epoch,
                answers_any: release.answers_any.clone(),
                positive_shards: release.positive_shards.iter().map(|&n| n as u64).collect(),
                protected_any: release.protected_any.clone(),
                typed: release
                    .typed_answers()
                    .iter()
                    .map(|(q, a)| (*q, a.into()))
                    .collect(),
            },
        }
        .encode();
        self.fan_out(|c| c.sub_merged, bytes);
    }
}

fn reply(conns: &HashMap<u64, ConnState>, conn: u64, frame: Frame) {
    if let Some(c) = conns.get(&conn) {
        let _ = c.out.send(frame.encode());
    }
}

fn reject(conns: &HashMap<u64, ConnState>, conn: u64, seq: Option<u64>, err: &CoreError) {
    reply(
        conns,
        conn,
        Frame::Error {
            seq,
            code: ErrorCode::Rejected,
            message: format!("{err:?}"),
        },
    );
}

fn apply_command(service: &mut ShardedService, command: WireCommand) -> Result<u64, CoreError> {
    match command {
        WireCommand::RegisterSubject(s) => Ok(service.register_subject(s).0),
        WireCommand::RetireSubject(s) => {
            service.retire_subject(s)?;
            Ok(s.0)
        }
        WireCommand::RegisterPattern {
            subject,
            name,
            elements,
        } => {
            let pattern = Pattern::seq(&name, elements)
                .map_err(|_| CoreError::InvalidCommand("empty pattern".to_owned()))?;
            Ok(u64::from(
                service.register_private_pattern(subject, pattern).0,
            ))
        }
        WireCommand::RevokePattern { subject, pattern } => {
            service.revoke_private_pattern(subject, PatternId(pattern))?;
            Ok(u64::from(pattern))
        }
        WireCommand::AddQuery { name, elements } => {
            let pattern = Pattern::seq(&name, elements)
                .map_err(|_| CoreError::InvalidCommand("empty pattern".to_owned()))?;
            let (query, _) = service.add_consumer_query(&name, pattern);
            Ok(u64::from(query.0))
        }
        WireCommand::RemoveQuery(q) => {
            service.remove_consumer_query(q)?;
            Ok(u64::from(q.0))
        }
    }
}

fn health_record(service: &mut ShardedService) -> HealthRecord {
    let report = service.health();
    HealthRecord {
        parallel: report.parallel,
        degraded: report.degraded,
        wal_retries: report.wal_retries,
        wal_appends: report.wal_appends,
        events_ingested: service.events_ingested(),
        epoch: service.epoch(),
        shards: report
            .shards
            .iter()
            .map(|s| ShardHealthRecord {
                shard: s.shard as u64,
                alive: s.alive,
                poisoned: s.poisoned,
                heals: s.heals,
            })
            .collect(),
    }
}

fn owner_loop(
    mut service: ShardedService,
    req_rx: Receiver<Request>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
) -> ShardedService {
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    while let Ok(req) = req_rx.recv() {
        match req {
            Request::Connect { conn, out } => {
                let ack = Frame::HelloAck {
                    n_shards: service.n_shards() as u32,
                    parallel: service.is_parallel(),
                    epoch: service.epoch(),
                }
                .encode();
                let _ = out.send(ack);
                conns.insert(
                    conn,
                    ConnState {
                        out,
                        sub_shard: false,
                        sub_answers: false,
                        sub_merged: false,
                    },
                );
            }
            Request::Disconnect { conn } => {
                conns.remove(&conn);
            }
            Request::Apply { conn, frame } => match frame {
                Frame::Subscribe {
                    shard_releases,
                    answers,
                    merged,
                } => {
                    if let Some(c) = conns.get_mut(&conn) {
                        c.sub_shard = shard_releases;
                        c.sub_answers = answers;
                        c.sub_merged = merged;
                    }
                }
                Frame::PushBatch { seq, events } => {
                    let mut sink = NetSink { conns: &conns };
                    match service.push_batch_into(events, &mut sink) {
                        Ok(()) => reply(
                            &conns,
                            conn,
                            Frame::Ack {
                                seq,
                                events_ingested: service.events_ingested(),
                                low_watermark: None,
                            },
                        ),
                        Err(err) => reject(&conns, conn, Some(seq), &err),
                    }
                }
                Frame::AdvanceWatermark { seq, watermark } => {
                    let mut sink = NetSink { conns: &conns };
                    match service.advance_watermark_into(watermark, &mut sink) {
                        Ok(()) => {
                            let low = service.low_watermark();
                            reply(
                                &conns,
                                conn,
                                Frame::Ack {
                                    seq,
                                    events_ingested: service.events_ingested(),
                                    low_watermark: low,
                                },
                            );
                        }
                        Err(err) => reject(&conns, conn, Some(seq), &err),
                    }
                }
                Frame::Control { seq, command } => match apply_command(&mut service, command) {
                    Ok(id) => reply(&conns, conn, Frame::CtrlOk { seq, id }),
                    Err(err) => reject(&conns, conn, Some(seq), &err),
                },
                Frame::BeginEpoch { seq } => match service.begin_epoch() {
                    Ok(_) => reply(
                        &conns,
                        conn,
                        Frame::CtrlOk {
                            seq,
                            id: service.epoch(),
                        },
                    ),
                    Err(err) => reject(&conns, conn, Some(seq), &err),
                },
                Frame::Checkpoint { seq } => {
                    let mut sink = NetSink { conns: &conns };
                    match service.checkpoint_into(&mut sink) {
                        Ok(image) => reply(
                            &conns,
                            conn,
                            Frame::CtrlOk {
                                seq,
                                id: image.to_bytes().len() as u64,
                            },
                        ),
                        Err(err) => reject(&conns, conn, Some(seq), &err),
                    }
                }
                Frame::Health => {
                    let record = health_record(&mut service);
                    reply(&conns, conn, Frame::HealthInfo { record });
                }
                Frame::Shutdown => {
                    let mut sink = NetSink { conns: &conns };
                    // settle, flush, fsync — errors surface to the
                    // requester as a typed reject, but teardown proceeds
                    match service.shutdown_into(&mut sink) {
                        Ok(()) => reply(
                            &conns,
                            conn,
                            Frame::ShutdownAck {
                                events_ingested: service.events_ingested(),
                            },
                        ),
                        Err(err) => reject(&conns, conn, None, &err),
                    }
                    break;
                }
                // remaining client kinds carry no owner-side action
                Frame::Hello { .. } => {}
                _ => {}
            },
        }
    }
    // teardown: closing every out sender lets writers drain their queued
    // replies and exit; the self-connect wakes the accept loop, which
    // wakes parked readers (read-half shutdown) and joins every
    // connection thread before exiting
    stop.store(true, Ordering::SeqCst);
    conns.clear();
    let _ = TcpStream::connect(addr);
    service
}
