//! Length-prefixed binary framing over Unix-domain sockets: the cluster's real
//! multi-process transport.
//!
//! The in-process cluster ([`crate::cluster`]) moves sub-requests over shared-memory
//! queues, which is the deterministic reference — but a deployable iMARS cluster puts
//! each shard node in its own process. This module provides that transport while
//! keeping the router code identical on both paths:
//!
//! ```text
//! [u32 LE frame length][u8 kind][u32 LE shard][u64 LE tag][payload...]
//! ```
//!
//! The length prefix covers everything after itself (header + payload), so a reader
//! never needs to know a frame's kind to skip or buffer it, and the same framing works
//! over any byte stream (TCP included — nothing below is Unix-socket specific except
//! the connector). Frame kinds:
//!
//! | kind | name | payload |
//! |------|------|---------|
//! | 1 | `LOAD` | `elem_bytes u32, dim u32, count u32`, then `count ×` (`row u32` + row bytes) |
//! | 2 | `FETCH` | `trace u8` (trace-context flag), then `count × row u32`; the response echoes the tag |
//! | 3 | `ROWS` | requested rows' bytes concatenated in request order |
//! | 4 | `ERROR` | UTF-8 description; the connection is considered poisoned |
//! | 5 | `CHAOS` | `fault u8` ([`FaultKind`] wire code), `fire_after u64, param u64`: arm fault injection; an unknown code is a protocol violation |
//! | 6 | `SHUTDOWN` | empty; the node stops accepting and exits its accept loop |
//! | 7 | `CACHE` | `capacity u64, policy u8`; arm the node's hot-row cache |
//! | 8 | `STATS` | `hits, misses, insertions, evictions, rejections` (`u64` each): one fetch's node-cache counter deltas, sent before its `ROWS` frame |
//! | 9 | `NODE_SPAN` | `queue_wait, cache_probe, storage_read` (`f64` µs each): the node's server-side span for one traced fetch, sent before its `ROWS` frame |
//!
//! The shard node ([`run_shard_node`]) is the same `ShardNode` the in-process cluster
//! runs, over bytes: it stores rows as opaque byte blobs keyed by global row id
//! (`elem_bytes` comes from the `LOAD` frame) and serves them as a `ShardNode<u8>`
//! whose row width is the row's byte count, so one node binary serves fp32 and int8
//! tables alike and this module adds only the frame codec around `serve`. Multiple
//! connections share the node — the threaded runtime's per-worker router clones each
//! dial their own connection.
//!
//! The client side (`SocketLink`) gives the router queue-identical semantics:
//! a **bounded write-ahead queue** feeds a writer thread, so backpressure surfaces as
//! [`PushError::Full`] exactly like a shard queue at capacity — never as unbounded
//! buffering — and a reader thread decodes `ROWS` frames into the router's reply queue.
//! A dead node trips the link's `closed` flag (the fault-tolerant router polls it)
//! without ever closing the shared reply queue: one shard's death must not wedge
//! gathers from healthy shards.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cache::{CachePolicy, CacheStats, RowMap};
use crate::chaos::{ChaosPlan, FaultAction, FaultKind, FaultSpec};
use crate::clock::{Clock, WallClock};
use crate::cluster::{
    ClusterCounters, NodeCacheConfig, NodeRows, ShardNode, SubResponse, Unserved,
};
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::shard::Lane;
use crate::trace::NodeSpan;

/// `LOAD`: install a shard's resident rows.
pub(crate) const KIND_LOAD: u8 = 1;
/// `FETCH`: request rows by global id.
pub(crate) const KIND_FETCH: u8 = 2;
/// `ROWS`: a fetch response.
pub const KIND_ROWS: u8 = 3;
/// `ERROR`: the node rejected a frame.
pub(crate) const KIND_ERROR: u8 = 4;
/// `CHAOS`: arm fault injection on the node.
pub(crate) const KIND_CHAOS: u8 = 5;
/// `SHUTDOWN`: stop the node.
pub(crate) const KIND_SHUTDOWN: u8 = 6;
/// `CACHE`: arm the node's hot-row cache (capacity + policy).
pub(crate) const KIND_CACHE: u8 = 7;
/// `STATS`: one fetch's node-cache counter deltas (precedes its `ROWS` frame).
pub(crate) const KIND_STATS: u8 = 8;
/// `NODE_SPAN`: a traced fetch's server-side span (precedes its `ROWS` frame).
pub(crate) const KIND_NODE_SPAN: u8 = 9;

/// Upper bound on one frame's length field — a corrupt prefix must not allocate
/// gigabytes. 256 MiB comfortably holds the largest catalogue partition the
/// evaluation drivers load.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Bytes of frame header after the length prefix: kind + shard + tag.
const HEADER_BYTES: usize = 1 + 4 + 8;

/// Most payload bytes a reader makes room for before they have arrived. The length
/// prefix is four untrusted bytes; memory must follow what the peer actually sends.
const READ_STEP_BYTES: usize = 1 << 20;

/// How long a stalled peer may block the writer thread before the link declares the
/// write failed and closes (a stalled node stops draining its socket; the OS buffer
/// is finite, and the writer must not hang [`SocketLink`]'s drop path forever).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// One decoded transport frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// The shard the frame addresses (echoed in responses).
    pub shard: u32,
    /// Request/response correlation tag (fetch frames; zero elsewhere).
    pub tag: u64,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encode into length-prefixed wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.kind, self.shard, self.tag, &self.payload)
    }

    /// Read one frame off a byte stream.
    ///
    /// # Errors
    ///
    /// I/O errors from the stream, or [`io::ErrorKind::InvalidData`] when the length
    /// prefix is shorter than a header or larger than [`MAX_FRAME_BYTES`].
    pub fn read_from(reader: &mut impl Read) -> io::Result<Frame> {
        let mut head = [0u8; 4 + HEADER_BYTES];
        reader.read_exact(&mut head[..4])?;
        let length = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        if !(HEADER_BYTES..=MAX_FRAME_BYTES).contains(&length) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {length} outside [{HEADER_BYTES}, {MAX_FRAME_BYTES}]"),
            ));
        }
        reader.read_exact(&mut head[4..])?;
        // The payload is read in place, a bounded step at a time, so a prefix that
        // claims more than the stream holds fails after allocating one step.
        let mut payload = Vec::new();
        while payload.len() < length - HEADER_BYTES {
            let filled = payload.len();
            let step = (length - HEADER_BYTES - filled).min(READ_STEP_BYTES);
            payload.resize(filled + step, 0);
            reader.read_exact(&mut payload[filled..])?;
        }
        Ok(Frame {
            kind: head[4],
            shard: u32::from_le_bytes(head[5..9].try_into().expect("4 bytes")),
            tag: u64::from_le_bytes(head[9..17].try_into().expect("8 bytes")),
            payload,
        })
    }
}

/// The wire bytes of one frame: length prefix, header, payload.
fn encode_frame(kind: u8, shard: u32, tag: u64, payload: &[u8]) -> Vec<u8> {
    let body = HEADER_BYTES + payload.len();
    let mut out = Vec::with_capacity(4 + body);
    out.extend_from_slice(&(body as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode a `LOAD` frame carrying `resident` rows of the catalogue, read straight from
/// the shared [`RowArena`] (the encoder is the only copy the handshake makes — the
/// router keeps no per-shard row storage).
pub(crate) fn encode_load<T: Lane>(
    shard: u32,
    arena: &imars_recsys::arena::RowArena<T>,
    resident: &[u32],
) -> Vec<u8> {
    let dim = arena.dim();
    let mut payload = Vec::with_capacity(12 + resident.len() * (4 + dim * T::WIRE_BYTES));
    payload.extend_from_slice(&(T::WIRE_BYTES as u32).to_le_bytes());
    payload.extend_from_slice(&(dim as u32).to_le_bytes());
    payload.extend_from_slice(&(resident.len() as u32).to_le_bytes());
    for &row in resident {
        payload.extend_from_slice(&row.to_le_bytes());
        for &value in arena.row(row as usize) {
            value.to_wire(&mut payload);
        }
    }
    encode_frame(KIND_LOAD, shard, 0, &payload)
}

/// Encode a `FETCH` frame for `rows`. When `traced` is set the node measures its
/// server-side span (queue wait, cache probe, storage read) for this fetch and ships
/// it back on a `NODE_SPAN` frame ahead of the `ROWS` frame — the UDS trace context.
pub(crate) fn encode_fetch(shard: u32, tag: u64, rows: &[u32], traced: bool) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + rows.len() * 4);
    payload.push(traced as u8);
    for &row in rows {
        payload.extend_from_slice(&row.to_le_bytes());
    }
    encode_frame(KIND_FETCH, shard, tag, &payload)
}

/// Encode a `CHAOS` frame arming `fault` after `fire_after` served fetches.
pub(crate) fn encode_chaos(shard: u32, fault: FaultKind, fire_after: u64) -> Vec<u8> {
    let (code, param) = fault.wire_code();
    let mut payload = Vec::with_capacity(17);
    payload.push(code);
    payload.extend_from_slice(&fire_after.to_le_bytes());
    payload.extend_from_slice(&param.to_le_bytes());
    encode_frame(KIND_CHAOS, shard, 0, &payload)
}

/// Decode a `CHAOS` payload into the plan it arms on shard `shard` (`None` when
/// malformed or naming an unknown fault).
fn decode_chaos(shard: u32, payload: &[u8]) -> Option<ChaosPlan> {
    if payload.len() != 17 {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    let spec = FaultSpec {
        kind: FaultKind::from_wire(payload[0], word(9))?,
        shard: shard as usize,
    };
    Some(ChaosPlan::new(spec, word(1)))
}

/// Encode a `CACHE` frame arming the node's hot-row cache with `config`.
pub(crate) fn encode_cache_config(shard: u32, config: NodeCacheConfig) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9);
    payload.extend_from_slice(&(config.capacity as u64).to_le_bytes());
    payload.push(config.policy.wire_code());
    encode_frame(KIND_CACHE, shard, 0, &payload)
}

/// Decode a `CACHE` payload (`None` when malformed or naming an unknown policy).
fn decode_cache_config(payload: &[u8]) -> Option<NodeCacheConfig> {
    if payload.len() != 9 {
        return None;
    }
    Some(NodeCacheConfig {
        capacity: u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")) as usize,
        policy: CachePolicy::from_wire(payload[8])?,
    })
}

/// Encode a `STATS` frame reporting one fetch's node-cache counter deltas.
fn encode_stats(shard: u32, tag: u64, delta: &CacheStats) -> Vec<u8> {
    let mut payload = Vec::with_capacity(40);
    for value in [
        delta.hits,
        delta.misses,
        delta.insertions,
        delta.evictions,
        delta.rejections,
    ] {
        payload.extend_from_slice(&value.to_le_bytes());
    }
    encode_frame(KIND_STATS, shard, tag, &payload)
}

/// Encode a `NODE_SPAN` frame carrying one traced fetch's server-side span.
fn encode_node_span(shard: u32, tag: u64, span: &NodeSpan) -> Vec<u8> {
    let mut payload = Vec::with_capacity(24);
    for value in [
        span.queue_wait_us,
        span.cache_probe_us,
        span.storage_read_us,
    ] {
        payload.extend_from_slice(&value.to_le_bytes());
    }
    encode_frame(KIND_NODE_SPAN, shard, tag, &payload)
}

/// Decode a `NODE_SPAN` payload back into a span (`None` when malformed).
fn decode_node_span(payload: &[u8]) -> Option<NodeSpan> {
    if payload.len() != 24 {
        return None;
    }
    let field =
        |i: usize| f64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
    Some(NodeSpan {
        queue_wait_us: field(0),
        cache_probe_us: field(1),
        storage_read_us: field(2),
    })
}

/// Decode a `STATS` payload back into counter deltas (`None` when malformed).
fn decode_stats(payload: &[u8]) -> Option<CacheStats> {
    if payload.len() != 40 {
        return None;
    }
    let word =
        |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
    Some(CacheStats {
        hits: word(0),
        coalesced: 0,
        misses: word(1),
        insertions: word(2),
        evictions: word(3),
        rejections: word(4),
    })
}

/// Encode a `SHUTDOWN` frame.
pub(crate) fn encode_shutdown(shard: u32) -> Vec<u8> {
    encode_frame(KIND_SHUTDOWN, shard, 0, &[])
}

/// A socket node's rows: opaque wire bytes keyed by global row id, installed by a
/// `LOAD` frame. The node is type-agnostic, so it stores (and caches) wire bytes
/// exactly as received — a row is `row_bytes` values of `u8`. The rows sit back to
/// back in one buffer, in `LOAD` order, behind a row id → buffer offset map.
#[derive(Debug, Default)]
pub(crate) struct BlobRows {
    row_bytes: usize,
    bytes: Vec<u8>,
    offsets: RowMap<usize>,
}

impl BlobRows {
    pub(crate) fn decode(payload: &[u8]) -> io::Result<Self> {
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed LOAD payload");
        if payload.len() < 12 {
            return Err(bad());
        }
        let elem_bytes = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")) as usize;
        let dim = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")) as usize;
        let count = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
        // The three header words are untrusted: a size that overflows is malformed.
        let row_bytes = elem_bytes.checked_mul(dim).ok_or_else(bad)?;
        let expected_len = row_bytes
            .checked_add(4)
            .and_then(|entry_bytes| entry_bytes.checked_mul(count))
            .and_then(|entries| entries.checked_add(12))
            .ok_or_else(bad)?;
        if row_bytes == 0 || payload.len() != expected_len {
            return Err(bad());
        }
        let mut bytes = Vec::with_capacity(count * row_bytes);
        let mut offsets = RowMap::with_capacity_and_hasher(count, Default::default());
        for entry in payload[12..].chunks_exact(4 + row_bytes) {
            let row = u32::from_le_bytes(entry[..4].try_into().expect("4 bytes"));
            offsets.insert(row, bytes.len());
            bytes.extend_from_slice(&entry[4..]);
        }
        Ok(Self {
            row_bytes,
            bytes,
            offsets,
        })
    }
}

impl NodeRows<u8> for BlobRows {
    fn row(&self, row: u32) -> Option<&[u8]> {
        let &at = self.offsets.get(&row)?;
        Some(&self.bytes[at..at + self.row_bytes])
    }

    fn dim(&self) -> usize {
        self.row_bytes
    }
}

/// What every connection of one shard-node process shares.
struct SocketNode {
    /// Fetches serve under the read lock; `LOAD` / `CACHE` / `CHAOS` re-arm under the
    /// write lock.
    node: RwLock<ShardNode<u8>>,
    /// The node's own clock: a socket carries no shared clock, so a traced fetch's
    /// span is wall time at this process, stamped from the frame's arrival.
    clock: WallClock,
    stop: AtomicBool,
}

/// Serve one shard node on a Unix socket until a `SHUTDOWN` frame arrives. This is the
/// body of the `serve_replay --shard-node <socket>` process mode: bind, accept, serve
/// `LOAD`/`FETCH` frames, honour `CHAOS` arming. All accepted connections share the
/// node. A `CHAOS` kill exits the whole process (code 3) — run the node in its own
/// process, never in a thread of something you care about.
///
/// # Errors
///
/// Binding or accepting on the socket can fail with the underlying I/O error.
pub fn run_shard_node(path: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(SocketNode {
        node: RwLock::new(ShardNode::new(0, Box::<BlobRows>::default(), None, None)),
        clock: WallClock::new(),
        stop: AtomicBool::new(false),
    });
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                // Connection threads are not joined: each exits on its own EOF (the
                // client hangs up) or when `stop` trips; the accept loop only has to
                // stop handing out new ones.
                std::thread::spawn(move || serve_connection(stream, &shared));
            }
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(error) => return Err(error),
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// The socket transport's node side: decode frames, [`ShardNode::serve`], encode the
/// reply. Returning ends the connection — the peer hung up, broke the protocol, or the
/// node is stopping.
fn serve_connection(mut stream: UnixStream, shared: &SocketNode) {
    let error = |frame: &Frame, reason: &str| {
        encode_frame(KIND_ERROR, frame.shard, frame.tag, reason.as_bytes())
    };
    while !shared.stop.load(Ordering::SeqCst) {
        // EOF or a corrupt stream: this connection is done.
        let Ok(frame) = Frame::read_from(&mut stream) else {
            return;
        };
        let rearm = || shared.node.write().expect("shard node lock");
        match frame.kind {
            KIND_LOAD => match BlobRows::decode(&frame.payload) {
                Ok(rows) => rearm().load(frame.shard as usize, Box::new(rows)),
                Err(_) => {
                    let _ = stream.write_all(&error(&frame, "malformed LOAD"));
                    return;
                }
            },
            KIND_FETCH => {
                // Leading trace-context flag byte; row ids follow. A traced fetch gets
                // the node's own span (queue wait = frame arrival to service, cache
                // probe, storage read) shipped back on a `NODE_SPAN` frame.
                let traced = frame.payload.first().is_some_and(|&flag| flag != 0);
                let trace = traced.then(|| (&shared.clock as &dyn Clock, shared.clock.now_us()));
                let (ids, ragged) = frame.payload.get(1..).unwrap_or(&[]).as_chunks::<4>();
                if !ragged.is_empty() {
                    if stream.write_all(&error(&frame, "ragged FETCH")).is_err() {
                        return;
                    }
                    continue;
                }
                let rows: Vec<u32> = ids.iter().map(|id| u32::from_le_bytes(*id)).collect();
                let served = shared
                    .node
                    .read()
                    .expect("shard node lock")
                    .serve(&rows, trace);
                // STATS travels *before* the data frame: the link's reader folds the
                // delta into the shared counters and only then delivers the rows, so by
                // the time the router gathers a reply the node-cache counters already
                // cover it (the happens-before the in-process workers give). The span
                // frame precedes the rows for the same reason.
                let (shard, tag) = (frame.shard, frame.tag);
                let reply = match served {
                    Ok(served) => [
                        served
                            .cache_delta
                            .map(|delta| encode_stats(shard, tag, &delta)),
                        served
                            .node_span
                            .map(|span| encode_node_span(shard, tag, &span)),
                        Some(encode_frame(KIND_ROWS, shard, tag, &served.data)),
                    ],
                    // Chaos kill: the node dies mid-replay.
                    Err(Unserved::Fault(FaultAction::Kill)) => std::process::exit(3),
                    Err(Unserved::Fault(FaultAction::Stall)) => {
                        // Stay connected but never answer again.
                        while !shared.stop.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        return;
                    }
                    Err(Unserved::Fault(_)) => continue, // the reply is dropped on the floor
                    Err(Unserved::NotResident(_)) => {
                        [None, None, Some(error(&frame, "row not resident"))]
                    }
                };
                for bytes in reply.iter().flatten() {
                    if stream.write_all(bytes).is_err() {
                        return;
                    }
                }
            }
            // A control frame that does not decode is a protocol violation: drop the link.
            KIND_CHAOS => match decode_chaos(frame.shard, &frame.payload) {
                Some(plan) => rearm().arm_chaos(plan),
                None => return,
            },
            KIND_CACHE => match decode_cache_config(&frame.payload) {
                Some(config) => rearm().arm_cache(config),
                None => return,
            },
            KIND_SHUTDOWN => {
                shared.stop.store(true, Ordering::SeqCst);
                return;
            }
            _ => return,
        }
    }
}

/// The client end of one shard-node connection: a bounded write-ahead queue feeding a
/// writer thread, and a reader thread decoding `ROWS` frames into the owning router's
/// reply queue. Mirrors a shard queue's backpressure semantics; a broken connection
/// trips `closed` instead of touching the shared reply queue.
#[derive(Debug)]
pub(crate) struct SocketLink<T> {
    shard: usize,
    path: PathBuf,
    dim: usize,
    /// Encoded frames awaiting the writer thread — the bounded write-ahead.
    write: Arc<BoundedQueue<Vec<u8>>>,
    /// Set when the connection is found broken. An atomic beside the queue's own
    /// closed state, because the router polls it on every gather tick and must not
    /// contend with the writer thread for the queue's lock while doing so.
    closed: Arc<AtomicBool>,
    /// The encoded handshake bytes — a `LOAD` frame, optionally followed by a `CACHE`
    /// frame — kept so a router clone can re-dial and re-install storage (and re-arm
    /// the node cache) on its own connection; both are idempotent on the node.
    load_frame: Arc<Vec<u8>>,
    /// Where the reader thread folds `STATS` frames (node-cache counter deltas);
    /// `None` drops them, for links dialed outside a cluster.
    counters: Option<Arc<ClusterCounters>>,
    stream: UnixStream,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    _lane: std::marker::PhantomData<fn() -> T>,
}

impl<T: Lane> SocketLink<T> {
    /// Dial a shard node, install its rows (`load_frame` is written before anything
    /// else, so fetches on this connection always see loaded storage), and spawn the
    /// writer/reader threads. `reply` is where decoded responses land.
    ///
    /// # Errors
    ///
    /// Connection or handshake I/O errors.
    pub(crate) fn connect(
        shard: usize,
        path: &Path,
        dim: usize,
        load_frame: Arc<Vec<u8>>,
        write_capacity: usize,
        reply: Arc<BoundedQueue<SubResponse<T>>>,
        counters: Option<Arc<ClusterCounters>>,
    ) -> io::Result<Self> {
        let mut stream = UnixStream::connect(path)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.write_all(&load_frame)?;
        let write: Arc<BoundedQueue<Vec<u8>>> = Arc::new(BoundedQueue::new(write_capacity));
        let closed = Arc::new(AtomicBool::new(false));
        // Whichever thread finds the connection broken flags the link for the router
        // and closes the write-ahead queue, which stops the writer.
        let hang_up = {
            let (closed, write) = (closed.clone(), write.clone());
            move || {
                closed.store(true, Ordering::SeqCst);
                write.close();
            }
        };
        let writer = {
            let mut stream = stream.try_clone()?;
            let (write, hang_up) = (write.clone(), hang_up.clone());
            std::thread::spawn(move || loop {
                match write.pop() {
                    Pop::Item(frame) => {
                        if stream.write_all(&frame).is_err() {
                            hang_up();
                            return;
                        }
                    }
                    Pop::Closed => return,
                    Pop::TimedOut => continue,
                }
            })
        };
        let reader = {
            let mut stream = stream.try_clone()?;
            let counters = counters.clone();
            std::thread::spawn(move || {
                // Server-side spans arrive on `NODE_SPAN` frames ahead of their
                // `ROWS` frame; stash them by tag and attach to the matching reply.
                let mut pending_spans: HashMap<u64, NodeSpan> = HashMap::new();
                loop {
                    let frame = match Frame::read_from(&mut stream) {
                        Ok(frame) => frame,
                        Err(_) => {
                            // EOF / reset: the node died or hung up. Flag the link; the
                            // shared reply queue stays open for the healthy shards.
                            hang_up();
                            return;
                        }
                    };
                    match frame.kind {
                        KIND_ROWS => {
                            let mut data = Vec::with_capacity(frame.payload.len() / T::WIRE_BYTES);
                            for element in frame.payload.chunks_exact(T::WIRE_BYTES) {
                                data.push(T::from_wire(element));
                            }
                            let response = SubResponse {
                                tag: frame.tag,
                                shard: frame.shard as usize,
                                data,
                                node_span: pending_spans.remove(&frame.tag),
                            };
                            if reply.push(response).is_err() {
                                return; // the router is gone; nothing left to deliver to
                            }
                        }
                        KIND_STATS => {
                            // Node-cache counter deltas. A malformed payload is a protocol
                            // violation like any other unexpected frame.
                            match decode_stats(&frame.payload) {
                                Some(delta) => {
                                    if let Some(counters) = &counters {
                                        counters.record_node_cache(frame.shard as usize, &delta);
                                    }
                                }
                                None => {
                                    hang_up();
                                    return;
                                }
                            }
                        }
                        KIND_NODE_SPAN => match decode_node_span(&frame.payload) {
                            Some(span) => {
                                pending_spans.insert(frame.tag, span);
                            }
                            None => {
                                hang_up();
                                return;
                            }
                        },
                        _ => {
                            // ERROR (or protocol violation): poison the link.
                            hang_up();
                            return;
                        }
                    }
                }
            })
        };
        Ok(Self {
            shard,
            path: path.to_path_buf(),
            dim,
            write,
            closed,
            load_frame,
            counters,
            stream,
            writer: Some(writer),
            reader: Some(reader),
            _lane: std::marker::PhantomData,
        })
    }

    /// Dial a fresh connection to the same node for a router clone, delivering into
    /// `reply` (the clone's own queue).
    ///
    /// # Errors
    ///
    /// As for [`SocketLink::connect`].
    pub(crate) fn reconnect(&self, reply: Arc<BoundedQueue<SubResponse<T>>>) -> io::Result<Self> {
        Self::connect(
            self.shard,
            &self.path,
            self.dim,
            self.load_frame.clone(),
            self.write.capacity(),
            reply,
            self.counters.clone(),
        )
    }

    /// Whether the connection is known broken (node death, write failure, protocol
    /// error). The fault-tolerant router polls this to fail over without waiting for
    /// a deadline.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// The bounded write-ahead queue of encoded frames — [`PushError::Full`] is its
    /// backpressure signal, [`PushError::Closed`] a broken connection.
    pub(crate) fn outbox(&self) -> &BoundedQueue<Vec<u8>> {
        &self.write
    }

    /// Enqueue an encoded frame, blocking until there is write-ahead space.
    pub(crate) fn send_blocking(&self, frame: Vec<u8>) -> Result<usize, PushError<Vec<u8>>> {
        self.write.push(frame)
    }

    /// Ask the node to exit its accept loop (best effort — a dead node can't hear it).
    #[cfg(test)]
    pub(crate) fn send_shutdown(&self) {
        let _ = self.send_blocking(encode_shutdown(self.shard as u32));
    }
}

impl<T> Drop for SocketLink<T> {
    fn drop(&mut self) {
        // Close the write-ahead queue; the writer drains what is already queued
        // (a SHUTDOWN frame, typically) and exits. Only then tear the stream down,
        // which unblocks the reader's pending read.
        self.write.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A per-process-unique socket path under the system temp directory.
pub fn socket_path(label: &str, shard: usize) -> PathBuf {
    std::env::temp_dir().join(format!("imars-{label}-{}-{shard}.sock", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static NEXT_SOCKET: AtomicUsize = AtomicUsize::new(0);

    fn test_socket() -> PathBuf {
        socket_path(
            &format!("test-{}", NEXT_SOCKET.fetch_add(1, Ordering::SeqCst)),
            0,
        )
    }

    fn connect_when_up<T: Lane>(
        shard: usize,
        path: &Path,
        dim: usize,
        load_frame: Arc<Vec<u8>>,
        reply: Arc<BoundedQueue<SubResponse<T>>>,
    ) -> SocketLink<T> {
        let started = std::time::Instant::now();
        loop {
            match SocketLink::connect(
                shard,
                path,
                dim,
                load_frame.clone(),
                16,
                reply.clone(),
                None,
            ) {
                Ok(link) => return link,
                Err(error) => {
                    assert!(
                        started.elapsed() < Duration::from_secs(10),
                        "node never came up: {error}"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// A `LOAD` header is three untrusted `u32`s: sizes whose product overflows are a
    /// malformed payload, not a panic (debug) or a wrapped length check (release).
    #[test]
    fn a_load_header_whose_sizes_overflow_is_invalid_data() {
        let payload: Vec<u8> = [u32::MAX; 3]
            .iter()
            .flat_map(|word| word.to_le_bytes())
            .collect();
        let error = BlobRows::decode(&payload).expect_err("overflowing sizes");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_round_trip_through_the_codec() {
        let frame = Frame {
            kind: KIND_FETCH,
            shard: 3,
            tag: 0xDEAD_BEEF_1234,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = frame.encode();
        assert_eq!(
            u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize,
            bytes.len() - 4
        );
        let decoded = Frame::read_from(&mut &bytes[..]).unwrap();
        assert_eq!(decoded, frame);
        // An empty payload is legal.
        let empty = Frame {
            kind: KIND_SHUTDOWN,
            shard: 0,
            tag: 0,
            payload: Vec::new(),
        };
        assert_eq!(Frame::read_from(&mut &empty.encode()[..]).unwrap(), empty);
        // A corrupt length prefix is rejected, not allocated.
        let mut corrupt = empty.encode();
        corrupt[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Frame::read_from(&mut &corrupt[..]).is_err());
        // A legal prefix the stream does not honour — 200 MB claimed, a dozen bytes
        // sent — is an error, and the reader never asks for more room than one step.
        struct Widest<'a>(&'a [u8], usize);
        impl Read for Widest<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 = self.1.max(buf.len());
                self.0.read(buf)
            }
        }
        let mut truncated = frame.encode();
        truncated[0..4].copy_from_slice(&(200u32 << 20).to_le_bytes());
        let mut stream = Widest(&truncated, 0);
        let error = Frame::read_from(&mut stream).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
        assert!(stream.1 <= READ_STEP_BYTES, "asked for {} bytes", stream.1);
        // The node-span codec round-trips its three durations exactly.
        let span = NodeSpan {
            queue_wait_us: 12.5,
            cache_probe_us: 0.75,
            storage_read_us: 301.25,
        };
        let encoded = encode_node_span(4, 77, &span);
        let decoded = Frame::read_from(&mut &encoded[..]).unwrap();
        assert_eq!(decoded.kind, KIND_NODE_SPAN);
        assert_eq!(decoded.tag, 77);
        assert_eq!(decode_node_span(&decoded.payload), Some(span));
        assert_eq!(decode_node_span(&decoded.payload[..16]), None);
    }

    #[test]
    fn uds_node_serves_exact_rows_and_shuts_down() {
        let path = test_socket();
        let node = {
            let path = path.clone();
            std::thread::spawn(move || run_shard_node(&path))
        };
        let rows: Vec<Vec<f32>> = (0..8)
            .map(|r| (0..4).map(|i| (r * 10 + i) as f32).collect())
            .collect();
        let arena =
            imars_recsys::arena::RowArena::from_rows(rows.iter().map(|r| r.as_slice()), 4).unwrap();
        let resident: Vec<u32> = (0..8).collect();
        let load = Arc::new(encode_load(0, &arena, &resident));
        let reply: Arc<BoundedQueue<SubResponse<f32>>> = Arc::new(BoundedQueue::new(8));
        let link = connect_when_up(0, &path, 4, load.clone(), reply.clone());
        link.send_blocking(encode_fetch(0, 7, &[3, 1, 5], true))
            .unwrap();
        match reply.pop_timeout(Duration::from_secs(10)) {
            Pop::Item(response) => {
                assert_eq!(response.tag, 7);
                assert_eq!(response.shard, 0);
                let mut expected = rows[3].clone();
                expected.extend_from_slice(&rows[1]);
                expected.extend_from_slice(&rows[5]);
                assert_eq!(response.data, expected, "bytes must round-trip exactly");
                let span = response
                    .node_span
                    .expect("a traced fetch ships its server-side span");
                assert!(span.queue_wait_us >= 0.0);
                assert!(span.storage_read_us >= 0.0);
            }
            other => panic!("expected rows, got {other:?}"),
        }
        // A second connection (a router clone) shares the loaded storage. An
        // untraced fetch must not carry a span.
        let reply2: Arc<BoundedQueue<SubResponse<f32>>> = Arc::new(BoundedQueue::new(8));
        let link2 = link.reconnect(reply2.clone()).unwrap();
        link2
            .send_blocking(encode_fetch(0, 9, &[0], false))
            .unwrap();
        match reply2.pop_timeout(Duration::from_secs(10)) {
            Pop::Item(response) => {
                assert_eq!(response.data, rows[0]);
                assert!(response.node_span.is_none(), "untraced fetches stay bare");
            }
            other => panic!("expected rows, got {other:?}"),
        }
        link.send_shutdown();
        drop(link);
        drop(link2);
        node.join().unwrap().unwrap();
        assert!(!path.exists(), "the node removes its socket file");
    }

    #[test]
    fn a_non_resident_row_poisons_the_link_not_the_reply_queue() {
        let path = test_socket();
        let node = {
            let path = path.clone();
            std::thread::spawn(move || run_shard_node(&path))
        };
        let rows: Vec<Vec<i8>> = vec![vec![1, 2], vec![3, 4]];
        let arena =
            imars_recsys::arena::RowArena::from_rows(rows.iter().map(|r| r.as_slice()), 2).unwrap();
        let load = Arc::new(encode_load(1, &arena, &[0]));
        let reply: Arc<BoundedQueue<SubResponse<i8>>> = Arc::new(BoundedQueue::new(4));
        let link = connect_when_up(1, &path, 2, load, reply.clone());
        assert!(!link.is_closed());
        link.send_blocking(encode_fetch(1, 1, &[1], false)).unwrap();
        let started = std::time::Instant::now();
        while !link.is_closed() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "error frame must close the link"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // The reply queue is untouched: healthy shards could still deliver into it.
        assert!(!reply.is_closed());
        assert!(reply.is_empty());
        link.send_shutdown(); // best effort on a poisoned link; the node is told below
        let reply2: Arc<BoundedQueue<SubResponse<i8>>> = Arc::new(BoundedQueue::new(4));
        let link2 = link.reconnect(reply2).unwrap();
        link2.send_shutdown();
        drop(link2);
        drop(link);
        node.join().unwrap().unwrap();
    }

    /// A thread-hosted node on a fresh socket, and a raw stream to it once it is up.
    fn raw_node() -> (PathBuf, JoinHandle<io::Result<()>>, UnixStream) {
        let path = test_socket();
        let node = {
            let path = path.clone();
            std::thread::spawn(move || run_shard_node(&path))
        };
        let started = std::time::Instant::now();
        loop {
            match UnixStream::connect(&path) {
                Ok(stream) => return (path, node, stream),
                Err(error) => {
                    assert!(
                        started.elapsed() < Duration::from_secs(10),
                        "node never came up: {error}"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    fn stop_node(path: &Path, node: JoinHandle<io::Result<()>>) {
        let mut stream = UnixStream::connect(path).unwrap();
        stream.write_all(&encode_shutdown(0)).unwrap();
        node.join().unwrap().unwrap();
    }

    #[test]
    fn a_ragged_fetch_is_answered_with_an_error_frame() {
        let (path, node, mut stream) = raw_node();
        let rows: Vec<Vec<i8>> = vec![vec![1, 2], vec![3, 4]];
        let arena =
            imars_recsys::arena::RowArena::from_rows(rows.iter().map(|r| r.as_slice()), 2).unwrap();
        stream.write_all(&encode_load(0, &arena, &[0, 1])).unwrap();
        // Trace flag, one whole row id, then two stray bytes.
        let ragged = Frame {
            kind: KIND_FETCH,
            shard: 0,
            tag: 41,
            payload: vec![0, 1, 0, 0, 0, 9, 9],
        };
        stream.write_all(&ragged.encode()).unwrap();
        let reply = Frame::read_from(&mut stream).unwrap();
        assert_eq!((reply.kind, reply.tag), (KIND_ERROR, 41));
        // The refusal is per frame: a well-formed fetch on the same connection serves.
        stream.write_all(&encode_fetch(0, 42, &[1], false)).unwrap();
        let reply = Frame::read_from(&mut stream).unwrap();
        assert_eq!((reply.kind, reply.tag), (KIND_ROWS, 42));
        assert_eq!(reply.payload, [3, 4]);
        drop(stream);
        stop_node(&path, node);
    }

    #[test]
    fn a_control_frame_that_does_not_decode_drops_the_link() {
        let (path, node, mut stream) = raw_node();
        let chaos = |payload: Vec<u8>| {
            Frame {
                kind: KIND_CHAOS,
                shard: 0,
                tag: 0,
                payload,
            }
            .encode()
        };
        // Fault code 9 names no fault: the node hangs up rather than arm nothing.
        let mut unknown = vec![9u8];
        unknown.extend_from_slice(&[0; 16]);
        stream.write_all(&chaos(unknown)).unwrap();
        assert_eq!(
            Frame::read_from(&mut stream).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "the node closed the connection"
        );
        // So does a known code in a payload of the wrong length.
        let mut stream = UnixStream::connect(&path).unwrap();
        stream.write_all(&chaos(vec![2, 0, 0])).unwrap();
        assert!(Frame::read_from(&mut stream).is_err());
        // A well-formed one is accepted silently: the connection stays usable.
        let mut stream = UnixStream::connect(&path).unwrap();
        stream
            .write_all(&encode_chaos(0, FaultKind::DropFrames { frames: 1 }, 7))
            .unwrap();
        stream.write_all(&encode_fetch(0, 5, &[], false)).unwrap();
        let reply = Frame::read_from(&mut stream).unwrap();
        assert_eq!((reply.kind, reply.tag), (KIND_ROWS, 5));
        drop(stream);
        stop_node(&path, node);
    }
}
