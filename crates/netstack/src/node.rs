//! One networked consensus node: a [`Process`] state machine driven by a
//! single nonblocking event loop that owns every socket.
//!
//! A node runs the *same* state machine the simulator runs — the type is
//! `Box<dyn Process<Msg = M> + Send>`, unchanged — but the engine around
//! it is one poll loop instead of a discrete-event scheduler:
//!
//! ```text
//!           ┌───────────────────────── node (ONE thread) ─────────────────────┐
//! peers ──▶ │ listener ─▶ inbound conns ─▶ seq dedup / acks / wire validation │
//!           │                  │                          │                   │
//!           │               poller ◀── readiness ──▶   Process ◀── rng (seeded)
//!           │                  │                          │                   │
//!           │        WAL (log-before-send) ◀────── deliveries                 │
//!           │          fault injector ─▶ per-peer links (ack-gated backlog,   │
//!           │                            coalesced writev) ──────────────────▶│ ──▶ peers
//!           └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The event thread is the only thread, full stop: it accepts, reads,
//! frames, dedups, delivers, journals, and writes. The previous runtime
//! spent `2 + 2(n-1)` threads per node (acceptor, event loop, a reader
//! and a sender per peer) — `O(n²)` threads per cluster; this one spends
//! exactly one per node. The process still needs no locking and keeps
//! the simulator's atomic-step semantics: one delivery, one computation,
//! a finite set of sends that leave before the next delivery is
//! consumed. Self-addressed sends (the paper's broadcasts include the
//! sender) never touch a socket: they sit in a loop-owned queue, which
//! also makes them checkpointable.
//!
//! Per tick the loop waits on the poller (capped at [`POLL`] so shutdown
//! and timers stay responsive, shortened to the next link deadline —
//! a redial or a fault-injected delay release), handles each readiness
//! event by draining the socket until `WouldBlock` (the edge-triggered
//! contract), and then pumps every outbound link once: eligible backlog
//! frames are coalesced into a single vectored write per peer. Acks for
//! a batch of inbound frames are likewise flushed once per event, not
//! once per frame.
//!
//! # Crash recovery
//!
//! With [`NodeConfig::wal`] set, the node journals its execution to a
//! write-ahead log (see [`crate::wal`]). A node's run is a deterministic
//! function of its configuration and the sequence of messages delivered
//! to its state machine — coins included, because the RNG is seeded — so
//! the log records exactly that sequence, plus periodic snapshots so
//! replay need not start from genesis.
//!
//! The invariant is **log-before-send**: a delivery is durable before any
//! message it produces reaches a socket. The event loop appends inside
//! [`Loop::deliver`] and flushes sockets only afterwards, so the order
//! holds by construction. A restarted node replays its log, re-derives
//! exactly the state it had durably reached, and re-sends byte-identical
//! frames under the same sequence numbers — pure retransmission, absorbed
//! by the receivers' seq-dedup. A recovered node can therefore never emit
//! two different payloads for the same sequence slot; receivers
//! cross-check this with per-`(peer, seq)` payload hashes and count
//! violations in [`NetCounters::equivocations`].
//!
//! When the WAL is on, acks are *durability-gated*: the loop acknowledges
//! only what it has journalled, so a sender cannot retire a frame this
//! node could still lose to a crash. (Because the journal append happens
//! before the ack is computed, the ack for a just-delivered frame already
//! covers it — the watermark is never stale, only conservative for
//! frames that were rejected at the wire.)

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use obs::metrics::{Counter, Histogram, Registry, Snapshot};
use simnet::{Ctx, Envelope, Event, Process, ProcessId, SharedSubscriber, SimRng, Wire};

use crate::conn::{InConn, Link, LinkStats, LoopStats, QueuedFrame};
use crate::fault::{FaultInjector, FaultPlan, LinkAction};
use crate::frame::{encode_chunk, Frame};
use crate::poll::{connect_nonblocking, Dial, PollEvent, Poller};
use crate::storage::FaultyStorage;
use crate::wal::{BootRecord, Cadence, DeliveryRecord, SnapshotRecord, Wal, WalRecord};

/// How often an amnesiac node re-probes its peers with
/// [`Frame::StateRequest`] until `k + 1` matching answers arrive.
const PROBE_EVERY: Duration = Duration::from_millis(25);

/// Locks a [`NodeStatus`] mutex, tolerating poisoning: the event loop may
/// die mid-update (see [`NodeStatus::died`]) and the snapshot must stay
/// readable afterwards.
fn lock_status(status: &Mutex<NodeStatus>) -> MutexGuard<'_, NodeStatus> {
    status.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The poller-wait cap: how often the loop re-checks the shutdown flag
/// even when no socket stirs and no timer is due.
const POLL: Duration = Duration::from_millis(20);

/// Token of the listening socket in the poller.
const TOKEN_LISTENER: u64 = 0;
/// Outbound link tokens: `OUT_BASE + peer_index`, stable for the life of
/// the node (each peer has at most one outbound connection at a time).
const OUT_BASE: u64 = 1;
/// Inbound connection tokens count up from here, never reused.
const IN_BASE: u64 = 1 << 32;

/// FNV-1a 64-bit hash of a payload — cheap, dependency-free, and plenty
/// for flagging a restarted sender that re-sends different bytes under a
/// sequence number it already used.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Static description of one node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's identity (also its index into `peers`).
    pub id: ProcessId,
    /// System size.
    pub n: usize,
    /// Seed for this node's deterministic random stream (randomized
    /// protocols draw coins from it, exactly as in the simulator).
    pub seed: u64,
    /// Resilience parameter: up to `k` peers may be faulty. Quorum state
    /// transfer accepts state only once `k + 1` peers agree on it, so no
    /// coalition of faulty peers can feed an amnesiac a forged state.
    pub k: usize,
    /// Faults to inject on this node's outbound links (and, via the
    /// `disk=` clauses, on this node's WAL storage).
    pub fault: FaultPlan,
    /// This boot is expected to find durable history on disk — set by a
    /// supervisor respawning a crashed incarnation. An empty or missing
    /// WAL is then a *lost log* (the node marks itself amnesiac and
    /// requests quorum state transfer) rather than a fresh start.
    pub expect_history: bool,
    /// Path of this node's write-ahead log. `None` (the default for a
    /// plain cluster) runs without durability; `Some` journals every
    /// delivery under the log-before-send invariant and recovers from
    /// the log on spawn if it already has history.
    pub wal: Option<PathBuf>,
    /// Checkpoint cadence: compact the WAL to a snapshot once this many
    /// bytes of delivery records have been journaled since the last
    /// checkpoint (0 = never snapshot; replay runs from genesis). Counting
    /// bytes bounds the WAL tail a restart reads, whatever the message
    /// size. Ignored when `wal` is `None`.
    pub snapshot_bytes: u64,
    /// The metrics registry this node records into. `None` gives the node
    /// a fresh enabled registry of its own. A supervisor that restarts
    /// nodes should pass the *same* registry to every incarnation: the
    /// cells are keyed by `(name, labels)`, so the replacement's handles
    /// land on the predecessor's cells and long-run totals survive the
    /// restart.
    pub metrics: Option<Arc<Registry>>,
}

impl NodeConfig {
    /// A WAL-less config — the common case for ephemeral clusters.
    #[must_use]
    pub fn new(id: ProcessId, n: usize, seed: u64, fault: FaultPlan) -> Self {
        NodeConfig {
            id,
            n,
            seed,
            k: 0,
            fault,
            expect_history: false,
            wal: None,
            snapshot_bytes: 0,
            metrics: None,
        }
    }
}

/// A live snapshot of a node's protocol state, updated by the event loop
/// after every atomic step.
#[derive(Clone, Debug, Default)]
pub struct NodeStatus {
    /// The decision `d_p`, once set (irrevocable).
    pub decision: Option<simnet::Value>,
    /// The phase in which the decision was made.
    pub decision_phase: Option<u64>,
    /// The node-local atomic step at which the decision was made.
    pub decision_step: Option<u64>,
    /// Current `phaseno`.
    pub phase: u64,
    /// Node-local atomic steps taken (start + deliveries).
    pub steps: u64,
    /// Whether the process has left the protocol.
    pub halted: bool,
    /// The event-loop thread panicked (a bug, or a hostile input the
    /// defensive layers missed): the node is dead, not merely undecided,
    /// and will never make progress. Surfaced so harnesses can fail fast
    /// instead of hanging until their deadline.
    pub died: bool,
    /// Deliveries replayed from the WAL when this incarnation booted
    /// (0 for a fresh start).
    pub recovered: u64,
    /// The node found its WAL unsafely damaged (mid-log corruption or a
    /// lost log) at boot and is refusing to send protocol messages until
    /// quorum state transfer completes. See `docs/RECOVERY.md`.
    pub amnesiac: bool,
    /// This incarnation (or a predecessor sharing its WAL) rebuilt its
    /// state from `k + 1` matching peer responses rather than from its
    /// own log. The node participates as a learner from then on.
    pub state_transferred: bool,
}

/// Message-level counters for one node, as registry handles labelled
/// `{node}`. Handles address cells in the node's [`Registry`], so a
/// restarted incarnation sharing the registry keeps counting where its
/// predecessor stopped.
#[derive(Debug)]
pub struct NetCounters {
    /// Messages the protocol asked to send (including to self).
    pub sent: Counter,
    /// Messages delivered to the process.
    pub delivered: Counter,
    /// Messages the fault injector dropped on purpose.
    pub injected_drops: Counter,
    /// Messages discarded because this process had halted.
    pub dropped_at_halted: Counter,
    /// Inbound payloads rejected at the wire: bytes that did not decode,
    /// or decoded to contents out of range for this system (e.g. a
    /// process id `>= n`). Byzantine bytes land here, not in the process.
    pub wire_rejected: Counter,
    /// Inbound frames whose sequence number skipped ahead of the next
    /// expected one. An honest sender never skips (it replays its whole
    /// unacked backlog in order), so a gap marks a reliability violation
    /// or a hostile peer; the frame is dropped, never delivered.
    pub seq_gaps: Counter,
    /// Re-sent frames whose payload differed from the one first delivered
    /// under the same sequence number. A correct node — including one
    /// that crashed and recovered from its WAL — retransmits only
    /// byte-identical frames, so any count here is a recovery bug or a
    /// hostile peer caught red-handed.
    pub equivocations: Counter,
    /// Boots that found the WAL unsafely damaged: mid-log corruption, a
    /// hostile record, or a log that should exist but does not. Each one
    /// put the node into amnesiac refusal instead of a silent rejoin.
    pub wal_corruptions: Counter,
    /// Quorum state transfers completed: an amnesiac incarnation adopted
    /// state confirmed by `k + 1` matching peer responses and rejoined.
    pub state_transfers: Counter,
    /// [`Frame::StateRequest`] probes this node answered with a
    /// [`Frame::StateChunk`].
    pub state_requests_served: Counter,
}

impl NetCounters {
    /// Registers (or re-attaches to) the message counters for node `me`.
    #[must_use]
    pub fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        let labels: &[(&str, &str)] = &[("node", &node)];
        NetCounters {
            sent: registry.counter(
                "bt_msgs_sent_total",
                "messages the protocol asked to send, self-sends included",
                labels,
            ),
            delivered: registry.counter(
                "bt_msgs_delivered_total",
                "messages delivered to the process state machine",
                labels,
            ),
            injected_drops: registry.counter(
                "bt_injected_drops_total",
                "messages the fault injector dropped on purpose",
                labels,
            ),
            dropped_at_halted: registry.counter(
                "bt_dropped_at_halted_total",
                "messages discarded because this process had halted",
                labels,
            ),
            wire_rejected: registry.counter(
                "bt_wire_rejected_total",
                "inbound payloads rejected at the wire (undecodable or out of range)",
                labels,
            ),
            seq_gaps: registry.counter(
                "bt_seq_gaps_total",
                "inbound frames dropped for skipping ahead of the expected seq",
                labels,
            ),
            equivocations: registry.counter(
                "bt_equivocations_total",
                "re-sent frames whose payload differed under the same seq",
                labels,
            ),
            wal_corruptions: registry.counter(
                "bt_wal_corruptions_total",
                "boots that found the WAL unsafely damaged (mid-log corruption or lost log)",
                labels,
            ),
            state_transfers: registry.counter(
                "bt_state_transfers_total",
                "quorum state transfers completed by an amnesiac node",
                labels,
            ),
            state_requests_served: registry.counter(
                "bt_state_requests_served_total",
                "state-transfer probes answered with a StateChunk",
                labels,
            ),
        }
    }
}

/// Latency and durability telemetry for one node, labelled `{node}`.
#[derive(Clone, Debug)]
pub(crate) struct NodeMetrics {
    /// Protocol-message encode time (microseconds), on the send path.
    pub msg_encode_us: Histogram,
    /// Protocol-message decode time (microseconds), on the receive path.
    pub msg_decode_us: Histogram,
    /// WAL append latency (microseconds): the log-before-send write that
    /// makes a delivery durable. Appends are single `write(2)` calls —
    /// the fsync cost lives in compaction, measured separately.
    pub wal_append_us: Histogram,
    /// WAL compactions performed (tmp + fsync + rename checkpoints).
    pub wal_compactions: Counter,
    /// WAL compaction latency (microseconds), fsync included.
    pub wal_compact_us: Histogram,
    /// Times this node booted from a WAL with prior history.
    pub recoveries: Counter,
    /// Deliveries replayed from the WAL across all recoveries.
    pub recovered_deliveries: Counter,
    /// Wall-clock time one recovery replay took (microseconds).
    pub recovery_replay_us: Histogram,
}

impl NodeMetrics {
    fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        let labels: &[(&str, &str)] = &[("node", &node)];
        NodeMetrics {
            msg_encode_us: registry.histogram(
                "bt_msg_encode_us",
                "protocol message encode time on the send path (microseconds)",
                labels,
            ),
            msg_decode_us: registry.histogram(
                "bt_msg_decode_us",
                "protocol message decode time on the receive path (microseconds)",
                labels,
            ),
            wal_append_us: registry.histogram(
                "bt_wal_append_us",
                "WAL append latency for the log-before-send write (microseconds)",
                labels,
            ),
            wal_compactions: registry.counter(
                "bt_wal_compactions_total",
                "WAL compactions performed (tmp + fsync + rename)",
                labels,
            ),
            wal_compact_us: registry.histogram(
                "bt_wal_compact_us",
                "WAL compaction latency, fsync included (microseconds)",
                labels,
            ),
            recoveries: registry.counter(
                "bt_recoveries_total",
                "boots from a WAL with prior history",
                labels,
            ),
            recovered_deliveries: registry.counter(
                "bt_recovered_deliveries_total",
                "deliveries replayed from the WAL across all recoveries",
                labels,
            ),
            recovery_replay_us: registry.histogram(
                "bt_recovery_replay_us",
                "wall-clock duration of one recovery replay (microseconds)",
                labels,
            ),
        }
    }
}

/// A handle to a spawned node: status snapshots plus shutdown.
#[derive(Debug)]
pub struct NodeHandle {
    id: ProcessId,
    status: Arc<Mutex<NodeStatus>>,
    counters: Arc<NetCounters>,
    link_stats: Vec<Arc<LinkStats>>,
    registry: Arc<Registry>,
    next_seq: Arc<Mutex<Vec<u64>>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NodeHandle {
    /// This node's identity.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// A snapshot of the node's protocol state.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        lock_status(&self.status).clone()
    }

    /// The live status cell itself — what an admin endpoint polls without
    /// holding the whole handle.
    #[must_use]
    pub fn status_cell(&self) -> Arc<Mutex<NodeStatus>> {
        Arc::clone(&self.status)
    }

    /// The registry this node records its runtime telemetry into.
    #[must_use]
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A point-in-time snapshot of this node's metrics.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Whether the node's event loop died (see [`NodeStatus::died`]).
    #[must_use]
    pub fn died(&self) -> bool {
        self.status().died
    }

    /// The node's decision, if it has made one.
    #[must_use]
    pub fn decision(&self) -> Option<simnet::Value> {
        self.status().decision
    }

    /// Total messages this node's protocol sent (including self-sends).
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.counters.sent.get()
    }

    /// Total messages delivered to this node's protocol.
    #[must_use]
    pub fn messages_delivered(&self) -> u64 {
        self.counters.delivered.get()
    }

    /// Messages lost to fault injection plus messages addressed to this
    /// node after it halted.
    #[must_use]
    pub fn messages_dropped(&self) -> u64 {
        self.counters.injected_drops.get() + self.counters.dropped_at_halted.get()
    }

    /// Times any outbound link of this node had to redial.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.link_stats.iter().map(|s| s.reconnects.get()).sum()
    }

    /// Unacked frames this node's links replayed after reconnects.
    #[must_use]
    pub fn retransmits(&self) -> u64 {
        self.link_stats.iter().map(|s| s.retransmits.get()).sum()
    }

    /// Inbound payloads rejected at the wire (undecodable bytes or
    /// contents out of range for the system).
    #[must_use]
    pub fn wire_rejected(&self) -> u64 {
        self.counters.wire_rejected.get()
    }

    /// Inbound frames dropped because their sequence number skipped ahead
    /// of the next expected one (see [`NetCounters::seq_gaps`]).
    #[must_use]
    pub fn seq_gaps(&self) -> u64 {
        self.counters.seq_gaps.get()
    }

    /// Re-sent frames whose payload differed from the one first seen
    /// under the same sequence number (see [`NetCounters::equivocations`]).
    /// Always 0 for correct peers, crashed-and-recovered ones included.
    #[must_use]
    pub fn equivocations(&self) -> u64 {
        self.counters.equivocations.get()
    }

    /// Boots that found this node's WAL unsafely damaged (see
    /// [`NetCounters::wal_corruptions`]).
    #[must_use]
    pub fn wal_corruptions(&self) -> u64 {
        self.counters.wal_corruptions.get()
    }

    /// Quorum state transfers this node completed (see
    /// [`NetCounters::state_transfers`]).
    #[must_use]
    pub fn state_transfers(&self) -> u64 {
        self.counters.state_transfers.get()
    }

    /// The next sequence number this node expects from `peer` — i.e. one
    /// past the highest frame it has accepted under that peer slot,
    /// including frames recovered from the WAL. A client gateway that
    /// injects frames under its own node's peer slot resumes numbering
    /// from here after a restart, so its frames land as fresh deliveries
    /// rather than duplicates.
    #[must_use]
    pub fn next_expected_from(&self, peer: ProcessId) -> u64 {
        self.next_seq.lock().unwrap_or_else(PoisonError::into_inner)[peer.index()]
    }

    /// Asks the event thread to stop and joins it. The loop re-checks the
    /// flag at least every [`POLL`], so this returns promptly. Safe to
    /// call more than once.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Converts a stored RNG state vector back to its fixed-width form.
fn words4(v: &[u64], what: &str) -> io::Result<[u64; 4]> {
    v.try_into().map_err(|_| bad(what))
}

/// What the log said this boot is.
enum BootMode {
    /// No prior history: run `on_start` live.
    Fresh,
    /// The log has history: restore the latest snapshot (if any) and
    /// replay the deliveries after it, publishing nothing and counting
    /// nothing — the world already saw this prefix.
    Restart {
        snapshot: Box<Option<SnapshotRecord>>,
        deliveries: Vec<DeliveryRecord>,
    },
    /// The log is unsafely damaged (mid-log corruption) or missing when
    /// the supervisor says it must exist: the node cannot trust any
    /// re-derived state. It boots *amnesiac* — silent on the protocol
    /// plane, probing peers for quorum state transfer — and the damaged
    /// log is preserved untouched as evidence until adoption replaces it.
    Amnesiac,
}

/// Boots a node: takes ownership of its (already bound) listener, dials
/// its peers lazily, runs `process` on the event loop, and streams events
/// to `subscriber` if one is attached.
///
/// Binding the listener *before* spawning (and passing it in) is the
/// loopback-cluster handshake discipline: all addresses exist before any
/// node dials, so a dial failure is transient, never fatal.
///
/// With [`NodeConfig::wal`] set and prior history on disk, recovery runs
/// *synchronously here*, before the event thread starts accepting: the
/// sequence tables are initialized from the log, the snapshot (if any)
/// is restored, the logged deliveries are replayed through the state
/// machine, and the resulting (byte-identical) frames are re-queued on
/// the links. Only then does the loop begin consulting the tables, so a
/// frame arriving mid-recovery can never be mistaken for new.
///
/// # Errors
///
/// Propagates listener/poller configuration failures and WAL I/O errors,
/// and rejects a WAL that belongs to a different node/configuration or
/// whose snapshot is inconsistent with this system (`InvalidData`).
pub fn spawn<M>(
    cfg: NodeConfig,
    listener: TcpListener,
    peers: Vec<SocketAddr>,
    process: Box<dyn Process<Msg = M> + Send>,
    subscriber: Option<SharedSubscriber>,
) -> io::Result<NodeHandle>
where
    M: Wire + Send + 'static,
{
    assert_eq!(peers.len(), cfg.n, "one address per process");
    assert!(cfg.id.index() < cfg.n, "node id within the system");

    let shutdown = Arc::new(AtomicBool::new(false));
    let status = Arc::new(Mutex::new(NodeStatus::default()));
    let registry = cfg
        .metrics
        .clone()
        .unwrap_or_else(|| Arc::new(Registry::new()));
    let counters = Arc::new(NetCounters::new(&registry, cfg.id));
    let metrics = NodeMetrics::new(&registry, cfg.id);
    let io_stats = LoopStats::new(&registry, cfg.id);

    // Open the WAL (if configured) and decide fresh start vs. restart
    // before anything touches a socket.
    let boot = BootRecord {
        node: cfg.id,
        n: cfg.n,
        seed: cfg.seed,
    };
    let mut wal = None;
    let mut mode = BootMode::Fresh;
    if let Some(path) = &cfg.wal {
        let disk = cfg.fault.disk_for(cfg.id.index());
        let (mut w, recovered) = if disk.is_empty() {
            Wal::open(path)?
        } else {
            Wal::open_with(path, Box::new(FaultyStorage::new(disk)))?
        };
        if recovered.damage.is_unsafe() {
            // Mid-log damage: the durable prefix cannot be trusted (the
            // records after the damage are gone, so replay would regress
            // the watermark peers saw acked). Refuse to rejoin on it.
            counters.wal_corruptions.inc();
            mode = BootMode::Amnesiac;
        } else if recovered.records.is_empty() {
            if cfg.expect_history {
                // A supervisor restarted us, so the log must exist; an
                // empty one means it was lost (or torn back to nothing).
                counters.wal_corruptions.inc();
                mode = BootMode::Amnesiac;
            } else {
                w.append(&WalRecord::Boot(boot.clone()))?;
            }
        } else {
            let on_disk = recovered
                .boot()
                .ok_or_else(|| bad("wal has no boot header"))?;
            if *on_disk != boot {
                return Err(bad("wal belongs to a different node or configuration"));
            }
            let (snapshot, deliveries) = recovered.replay_plan();
            mode = BootMode::Restart {
                snapshot: Box::new(snapshot.cloned()),
                deliveries: deliveries.into_iter().cloned().collect(),
            };
        }
        wal = Some(w);
    }

    // Receiver-side exactly-once: next expected sequence number per peer,
    // initialized from the log so that frames already journalled by a
    // previous incarnation re-arrive as duplicates, not deliveries.
    let mut initial_next = vec![0u64; cfg.n];
    if let BootMode::Restart {
        snapshot,
        deliveries,
    } = &mode
    {
        if let Some(s) = &**snapshot {
            if s.next_seq.len() != cfg.n {
                return Err(bad("wal snapshot sized for a different system"));
            }
            initial_next.copy_from_slice(&s.next_seq);
        }
        for d in deliveries {
            if d.from.index() >= cfg.n {
                return Err(bad("wal delivery from a process outside the system"));
            }
            if let Some(s) = d.seq {
                let slot = &mut initial_next[d.from.index()];
                *slot = (*slot).max(s + 1);
            }
        }
    }
    let next_seq: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(initial_next.clone()));
    let durable_next: Arc<Vec<AtomicU64>> =
        Arc::new(initial_next.iter().map(|&v| AtomicU64::new(v)).collect());

    // Outbound: one passive link per remote peer, owned by the loop.
    let mut links: Vec<Option<Link>> = Vec::with_capacity(cfg.n);
    let mut link_stats = Vec::new();
    for (i, addr) in peers.iter().enumerate() {
        if i == cfg.id.index() {
            links.push(None);
            continue;
        }
        let link = Link::new(cfg.id, i, *addr, &registry);
        link_stats.push(Arc::clone(&link.stats));
        links.push(Some(link));
    }

    // The execution state the event loop will own, built (and possibly
    // recovered) on this thread so the node is fully caught up before it
    // starts accepting.
    let observed = subscriber.is_some();
    let mut lp = Loop {
        me: cfg.id,
        n: cfg.n,
        k: cfg.k,
        process,
        rng: SimRng::seed(cfg.seed),
        injector: FaultInjector::new(cfg.fault.clone(), cfg.seed ^ 0x6e65_7473), // distinct stream from the protocol's
        step: 0,
        out_seq: vec![0; cfg.n],
        outbox: Vec::new(),
        self_queue: VecDeque::new(),
        links,
        wal,
        boot,
        cadence: Cadence::new(cfg.snapshot_bytes),
        sent_log: vec![Vec::new(); cfg.n],
        durable_next: Arc::clone(&durable_next),
        status: Arc::clone(&status),
        counters: Arc::clone(&counters),
        metrics: metrics.clone(),
        subscriber,
        observed,
        decided: false,
        halt_published: false,
        amnesiac: false,
        adopted: false,
        adopted_decision: None,
        transfer_probe_at: None,
        transfer_offers: HashMap::new(),
    };

    match mode {
        BootMode::Fresh => lp.run_start(true),
        BootMode::Restart {
            snapshot,
            deliveries,
        } => {
            let replay_started = Instant::now();
            let replayed = lp.recover(*snapshot, &deliveries, &cfg)?;
            metrics.recoveries.inc();
            metrics.recovered_deliveries.add(replayed);
            metrics
                .recovery_replay_us
                .record_us(replay_started.elapsed());
            lock_status(&status).recovered = replayed;
            lp.publish(Event::Recover {
                step: lp.step,
                pid: cfg.id,
                replayed,
            });
        }
        BootMode::Amnesiac => {
            // No `on_start`, no replay, no WAL appends: the node joins
            // the network silently and probes for quorum state transfer.
            lp.amnesiac = true;
            lp.transfer_probe_at = Some(Instant::now());
            let mut st = lock_status(&status);
            st.amnesiac = true;
            st.steps = 1;
        }
    }

    // The poller and the listener registration happen here so
    // configuration failures surface as spawn errors, not a dead node.
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER)?;

    let id = cfg.id;
    let ev = EventLoop {
        lp,
        poller,
        listener,
        inconns: HashMap::new(),
        next_in_token: 0,
        seqs: Arc::clone(&next_seq),
        hashes: vec![HashMap::new(); cfg.n],
        io: io_stats,
        shutdown: Arc::clone(&shutdown),
    };
    let mut threads = Vec::new();
    {
        let status = Arc::clone(&status);
        let handle = thread::Builder::new()
            .name(format!("netstack-loop-p{}", cfg.id.index()))
            .spawn(move || {
                // A panic here (a protocol bug, hostile input the
                // defensive layers missed, or a WAL that can no longer
                // be appended to) must not leave the node as a silent
                // zombie: catch it and mark the node dead so status
                // readers can fail fast. Dying on a WAL write failure is
                // deliberate — without durability the no-equivocation
                // guarantee is gone, and fail-stop is the honest mode.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut ev = ev;
                    ev.run();
                }));
                if result.is_err() {
                    let mut st = lock_status(&status);
                    st.died = true;
                    st.halted = true;
                }
            })
            .expect("spawning the event loop thread");
        threads.push(handle);
    }

    Ok(NodeHandle {
        id,
        status,
        counters,
        link_stats,
        registry,
        next_seq,
        shutdown,
        threads,
    })
}

/// What the sequence-number table says to do with an inbound frame.
enum Disposition {
    /// `seq` is the next expected: deliver it.
    Deliver,
    /// Already delivered (a reconnect replay): ack again, drop.
    Duplicate,
    /// Skipped ahead of the next expected seq. An honest sender replays
    /// its unacked backlog in order, so this is a reliability violation
    /// or a hostile peer: count it and drop, never deliver out of order.
    Gap,
}

/// One peer's answer to a state-transfer probe, held until `k + 1` of
/// them match on `(decision, app_digest)`.
#[derive(Clone, Debug)]
struct TransferOffer {
    decision: Option<simnet::Value>,
    app_digest: u64,
    app: Option<Vec<u8>>,
}

/// The execution state owned by the event loop: the process, its RNG and
/// step counter, the outbound links, and (optionally) the WAL.
struct Loop<M: Wire> {
    me: ProcessId,
    n: usize,
    k: usize,
    process: Box<dyn Process<Msg = M> + Send>,
    rng: SimRng,
    injector: FaultInjector,
    step: u64,
    out_seq: Vec<u64>,
    outbox: Vec<(ProcessId, M)>,
    /// Pending self-deliveries (encoded), oldest first. Owned by the
    /// event loop — not a channel — so a checkpoint can capture it.
    self_queue: VecDeque<Vec<u8>>,
    /// Outbound links by peer index (`None` at this node's own slot).
    /// [`Loop`] only ever *queues* onto them; all socket I/O happens in
    /// [`EventLoop`], after the delivery (and its WAL append) completes.
    links: Vec<Option<Link>>,
    wal: Option<Wal>,
    boot: BootRecord,
    /// Journaled delivery bytes since the last checkpoint.
    cadence: Cadence,
    /// Per-peer journal of sent frames `(seq, payload)`, kept only when
    /// the WAL is on; pruned of acked frames at checkpoint time, what
    /// remains becomes the snapshot's retransmission backlog.
    sent_log: Vec<Vec<(u64, Vec<u8>)>>,
    /// Durable delivered watermark per peer (what acks may cover).
    durable_next: Arc<Vec<AtomicU64>>,
    status: Arc<Mutex<NodeStatus>>,
    counters: Arc<NetCounters>,
    metrics: NodeMetrics,
    subscriber: Option<SharedSubscriber>,
    observed: bool,
    decided: bool,
    halt_published: bool,
    /// Booted on an unsafely damaged (or missing) WAL: refuse to send
    /// protocol messages or append to the log until state transfer.
    amnesiac: bool,
    /// Rebuilt from quorum state transfer (this incarnation or one it
    /// restored from). An adopted node stays a learner: its pre-crash
    /// send history is unknowable, so a fresh `on_start` could emit a
    /// second, different INITIAL under new sequence numbers — exactly
    /// the protocol-level equivocation amnesia detection exists to stop.
    adopted: bool,
    /// The decision adopted from the quorum, if the peers had one.
    adopted_decision: Option<simnet::Value>,
    /// When the next state-transfer probe is due (`None` unless
    /// amnesiac).
    transfer_probe_at: Option<Instant>,
    /// Peer answers collected so far, keyed by peer index.
    transfer_offers: HashMap<usize, TransferOffer>,
}

impl<M: Wire> Loop<M> {
    fn publish(&self, event: Event) {
        if let Some(s) = &self.subscriber {
            s.lock().expect("subscriber lock poisoned").on_event(&event);
        }
    }

    /// The initial atomic step. With `live` false this is a replay
    /// re-derivation: same state, same sends, no publishing, no counting.
    fn run_start(&mut self, live: bool) {
        if live {
            self.publish(Event::Start { pid: self.me });
        }
        let events = {
            let mut ctx = Ctx::new(self.me, self.n, self.step, &mut self.outbox, &mut self.rng)
                .with_obs(self.observed && live)
                .with_live(live);
            self.process.on_start(&mut ctx);
            ctx.take_events()
        };
        if live {
            for event in events {
                self.publish(Event::Protocol {
                    step: self.step,
                    pid: self.me,
                    event,
                });
            }
        }
        self.dispatch(live);
        self.observe(live);
    }

    /// Restores the snapshot (if any) and replays the logged deliveries,
    /// returning how many were replayed. Runs before the loop starts.
    fn recover(
        &mut self,
        snapshot: Option<SnapshotRecord>,
        deliveries: &[DeliveryRecord],
        cfg: &NodeConfig,
    ) -> io::Result<u64> {
        match snapshot {
            Some(s) => {
                if s.out_seq.len() != self.n
                    || s.backlogs.len() != self.n
                    || s.next_seq.len() != self.n
                {
                    return Err(bad("wal snapshot sized for a different system"));
                }
                self.step = s.step;
                self.rng = SimRng::restore(s.rng_seed, words4(&s.rng_state, "rng state")?);
                self.injector = FaultInjector::with_state(
                    cfg.fault.clone(),
                    words4(&s.injector_state, "injector state")?,
                );
                self.adopted = s.adopted;
                self.adopted_decision = s.adopted_decision;
                if s.adopted {
                    // A learner's checkpoint may carry no process bytes
                    // (protocols without snapshot support adopt decisions
                    // only); the state machine then stays fresh — safe,
                    // because a learner never sends.
                    if !s.process.is_empty() && !self.process.restore(&s.process) {
                        return Err(bad("protocol state machine rejected its snapshot"));
                    }
                } else if !self.process.restore(&s.process) {
                    return Err(bad("protocol state machine rejected its snapshot"));
                }
                self.out_seq = s.out_seq;
                self.self_queue = s.self_queue.into();
                self.sent_log = s.backlogs;
                // Re-offer the unacked backlog: frames a peer may never
                // have received, byte-identical under their original
                // sequence numbers.
                for (i, frames) in self.sent_log.iter().enumerate() {
                    let Some(link) = self.links[i].as_mut() else {
                        continue;
                    };
                    for (seq, payload) in frames {
                        let chunk = Arc::new(encode_chunk(&Frame::Msg {
                            seq: *seq,
                            payload: payload.clone(),
                        }));
                        link.enqueue(QueuedFrame {
                            seq: *seq,
                            not_before: Instant::now(),
                            payload_len: payload.len(),
                            chunk,
                        });
                    }
                }
            }
            // No checkpoint: re-derive genesis, silently.
            None => self.run_start(false),
        }
        for d in deliveries {
            let msg = match d.seq {
                // A logged self-delivery consumes the queue head, which
                // determinism says must be byte-identical to the record.
                None => {
                    if d.from != self.me {
                        return Err(bad("wal self-delivery not from this node"));
                    }
                    let bytes = self
                        .self_queue
                        .pop_front()
                        .ok_or_else(|| bad("wal self-delivery with no pending self-send"))?;
                    if bytes != d.payload {
                        return Err(bad("replay diverged: self-delivery bytes differ from log"));
                    }
                    M::from_bytes(&bytes).map_err(|_| bad("undecodable logged self-delivery"))?
                }
                Some(_) => M::from_bytes(&d.payload)
                    .map_err(|_| bad("undecodable logged delivery payload"))?,
            };
            self.deliver(d.from, d.seq, msg, &d.payload, false);
        }
        // Refresh the externally visible status from the recovered state
        // even when every delivery was compacted into the snapshot — a
        // decision restored from the checkpoint alone must still be
        // reported (silently: it belongs to the crashed incarnation).
        self.observe(false);
        if self.adopted {
            let adopted_decision = self.adopted_decision;
            let mut st = lock_status(&self.status);
            st.state_transferred = true;
            if let Some(v) = adopted_decision {
                if st.decision.is_none() {
                    st.decision = Some(v);
                    st.decision_step = Some(self.step);
                }
                drop(st);
                self.decided = true;
            }
        }
        Ok(deliveries.len() as u64)
    }

    /// One delivery step — the WAL append, the process step, the sends it
    /// causes, and the status/telemetry fallout. With `live` false this
    /// is log replay: the append is skipped (the record is the log) and
    /// nothing is published or counted, but sends still queue on the
    /// links — they are retransmissions of frames the crashed
    /// incarnation already owned.
    fn deliver(&mut self, from: ProcessId, seq: Option<u64>, msg: M, payload: &[u8], live: bool) {
        // An amnesiac has no trustworthy log to append to (the damaged
        // file is evidence, not a journal). Its deliveries feed the
        // process as a passive learner only — `dispatch` stays silent —
        // so skipping durability here cannot cause equivocation.
        if live && !self.amnesiac {
            if let Some(wal) = &mut self.wal {
                // Log-before-send: the record must be durable before any
                // message this delivery produces reaches a socket. A
                // failed append forfeits that guarantee, so die (the
                // panic is caught and surfaced as NodeStatus::died).
                let append_started = self.metrics.wal_append_us.enabled().then(Instant::now);
                let journaled = wal
                    .append(&WalRecord::Delivery(DeliveryRecord {
                        from,
                        seq,
                        payload: payload.to_vec(),
                    }))
                    .expect("wal append failed: cannot guarantee no-equivocation");
                self.cadence.journaled(journaled);
                if let Some(t) = append_started {
                    self.metrics.wal_append_us.record_us(t.elapsed());
                }
                if let Some(s) = seq {
                    // Now — and only now — may acks cover this frame.
                    self.durable_next[from.index()].store(s + 1, Ordering::Release);
                }
            }
        }
        if self.process.halted() {
            if live {
                self.counters.dropped_at_halted.inc();
            }
            return;
        }
        self.step += 1;
        if live {
            self.counters.delivered.inc();
            // A networked node has no delivery buffer the scheduler
            // indexes into — the OS hands messages over in arrival order
            // — so the schedule slot is always 0.
            self.publish(Event::Deliver {
                step: self.step,
                to: self.me,
                from,
                index: 0,
            });
        }
        let events = {
            let mut ctx = Ctx::new(self.me, self.n, self.step, &mut self.outbox, &mut self.rng)
                .with_obs(self.observed && live)
                .with_live(live);
            self.process.on_receive(Envelope::new(from, msg), &mut ctx);
            ctx.take_events()
        };
        if live {
            for event in events {
                self.publish(Event::Protocol {
                    step: self.step,
                    pid: self.me,
                    event,
                });
            }
        }
        self.dispatch(live);
        self.observe(live);
        if live {
            self.maybe_snapshot();
        }
    }

    /// Routes one step's outbox: self-sends join the local queue, remote
    /// sends pass the fault injector and queue on the links. The
    /// injector is consulted (and the RNG stream advanced) in replay too
    /// — drop decisions gate sequence-number assignment, so skipping them
    /// would renumber the replayed frames.
    fn dispatch(&mut self, live: bool) {
        // A node without a trusted durable history must stay silent on
        // the protocol plane, forever: its pre-damage send history is
        // unknowable, and any fresh send could contradict it. This is
        // the "treat a state-lossy process as faulty until re-validated"
        // rule — and after adoption the node stays a learner, because
        // re-validation recovers *state*, not the right to re-send.
        if self.amnesiac || self.adopted {
            self.outbox.clear();
            return;
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        for (to, msg) in outbox.drain(..) {
            if live {
                self.counters.sent.inc();
                self.publish(Event::Send {
                    step: self.step,
                    from: self.me,
                    to,
                });
            }
            if to == self.me {
                self.self_queue.push_back(msg.to_bytes());
                continue;
            }
            if self
                .links
                .get(to.index())
                .and_then(Option::as_ref)
                .is_none()
            {
                continue; // address outside the system: a Byzantine no-op
            }
            let not_before = match self.injector.action(self.me, to) {
                LinkAction::Drop => {
                    if live {
                        self.counters.injected_drops.inc();
                    }
                    continue;
                }
                LinkAction::Deliver => Instant::now(),
                LinkAction::DelayBy(d) => Instant::now() + d,
            };
            let seq = self.out_seq[to.index()];
            self.out_seq[to.index()] += 1;
            let encode_started = self.metrics.msg_encode_us.enabled().then(Instant::now);
            let frame_payload = msg.to_bytes();
            if let Some(t) = encode_started {
                self.metrics.msg_encode_us.record_us(t.elapsed());
            }
            if self.wal.is_some() {
                self.sent_log[to.index()].push((seq, frame_payload.clone()));
            }
            let payload_len = frame_payload.len();
            let chunk = Arc::new(encode_chunk(&Frame::Msg {
                seq,
                payload: frame_payload,
            }));
            let link = self.links[to.index()].as_mut().expect("checked above");
            link.enqueue(QueuedFrame {
                seq,
                not_before,
                payload_len,
                chunk,
            });
        }
        self.outbox = outbox;
    }

    /// Mirrors `Sim::observe`: records decisions and halts exactly once.
    /// In replay the status still updates (the recovered node resumes
    /// with correct phase/decision) but nothing is re-published — the
    /// world already saw those events from the previous incarnation.
    fn observe(&mut self, live: bool) {
        let halted = self.process.halted();
        let mut newly_decided = None;
        {
            let mut st = lock_status(&self.status);
            st.steps = self.step + 1;
            st.phase = self.process.phase();
            st.halted = halted;
            if !self.decided {
                if let Some(v) = self.process.decision() {
                    self.decided = true;
                    st.decision = Some(v);
                    st.decision_phase = self.process.decision_phase();
                    st.decision_step = Some(self.step);
                    newly_decided = Some(v);
                }
            }
        }
        if let Some(value) = newly_decided {
            if live {
                self.publish(Event::Decide {
                    step: self.step,
                    pid: self.me,
                    value,
                });
            }
        }
        if halted && !self.halt_published {
            self.halt_published = true;
            if live {
                self.publish(Event::Halt {
                    step: self.step,
                    pid: self.me,
                });
            }
        }
    }

    /// Compacts the WAL to boot + snapshot once the cadence's byte budget
    /// of journaled deliveries is spent, if the protocol supports
    /// checkpointing.
    fn maybe_snapshot(&mut self) {
        if !self.cadence.due() || self.wal.is_none() || self.amnesiac {
            return;
        }
        let Some(process_bytes) = self.process.snapshot() else {
            return; // protocol opted out of checkpointing; replay from genesis
        };
        self.cadence.reset();
        // Retire frames the peers have acknowledged; what's left is the
        // unacked backlog a restarted node must re-offer.
        for (i, log) in self.sent_log.iter_mut().enumerate() {
            if let Some(link) = &self.links[i] {
                let acked = link.stats.acked.get();
                log.retain(|(seq, _)| *seq >= acked);
            }
        }
        let (rng_seed, rng_state) = self.rng.save();
        let snapshot = SnapshotRecord {
            step: self.step,
            rng_seed,
            rng_state: rng_state.to_vec(),
            process: process_bytes,
            out_seq: self.out_seq.clone(),
            // The durable watermark: what this node has journalled and
            // therefore acked. Anything beyond it was never acked, so a
            // post-crash sender re-offers it.
            next_seq: self
                .durable_next
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .collect(),
            backlogs: self.sent_log.clone(),
            self_queue: self.self_queue.iter().cloned().collect(),
            injector_state: self.injector.rng_state().to_vec(),
            adopted: self.adopted,
            adopted_decision: self.adopted_decision,
        };
        if let Some(wal) = &mut self.wal {
            // A failed compaction is not fatal — the log just stays long
            // and replay starts further back.
            let compact_started = Instant::now();
            if wal.compact(&self.boot, &snapshot).is_ok() {
                self.metrics.wal_compactions.inc();
                self.metrics
                    .wal_compact_us
                    .record_us(compact_started.elapsed());
            }
        }
    }

    /// This node's answer to a peer's [`Frame::StateRequest`].
    fn state_chunk(&self) -> Frame {
        Frame::StateChunk {
            from: self.me,
            // The status cell's decision, not the process's: an adopted
            // learner's decision lives there, and it is just as
            // quorum-backed as one the process derived itself.
            decision: lock_status(&self.status).decision,
            phase: self.process.phase(),
            app_digest: self.process.transfer_digest(),
            app: self.process.transfer_state(),
        }
    }

    /// Adopts quorum-confirmed state: installs the replicated bytes (if
    /// the protocol transfers any), writes a fresh Boot + Snapshot WAL
    /// marked `adopted`, and leaves amnesia — as a learner. Returns
    /// `false` when adoption could not complete (garbled bytes or a
    /// still-failing disk); the caller keeps probing.
    fn adopt(
        &mut self,
        decision: Option<simnet::Value>,
        digest: u64,
        app: Option<Vec<u8>>,
        next_seq: &[u64],
    ) -> bool {
        if digest != 0 {
            let Some(bytes) = app.as_deref() else {
                return false; // matching digests but nobody sent the bytes
            };
            if fnv1a64(bytes) != digest || !self.process.adopt_transfer(bytes) {
                return false;
            }
        }
        let (rng_seed, rng_state) = self.rng.save();
        let snapshot = SnapshotRecord {
            step: self.step,
            rng_seed,
            rng_state: rng_state.to_vec(),
            process: self.process.snapshot().unwrap_or_default(),
            out_seq: self.out_seq.clone(),
            // The speculative acks this amnesiac already sent become
            // durable here: the snapshot pins the same watermark, so a
            // future restart dedups exactly what was acked.
            next_seq: next_seq.to_vec(),
            backlogs: vec![Vec::new(); self.n],
            self_queue: Vec::new(),
            injector_state: self.injector.rng_state().to_vec(),
            adopted: true,
            adopted_decision: decision,
        };
        if let Some(wal) = &mut self.wal {
            if wal.compact(&self.boot, &snapshot).is_err() {
                return false; // disk still sick; stay amnesiac
            }
        }
        for (slot, &s) in self.durable_next.iter().zip(next_seq) {
            slot.store(s, Ordering::Release);
        }
        self.amnesiac = false;
        self.adopted = true;
        self.adopted_decision = decision;
        self.transfer_probe_at = None;
        self.transfer_offers.clear();
        self.counters.state_transfers.inc();
        {
            let mut st = lock_status(&self.status);
            st.amnesiac = false;
            st.state_transferred = true;
            if let Some(v) = decision {
                if st.decision.is_none() {
                    st.decision = Some(v);
                    st.decision_step = Some(self.step);
                }
            }
        }
        if decision.is_some() {
            self.decided = true;
        }
        self.publish(Event::Recover {
            step: self.step,
            pid: self.me,
            replayed: 0,
        });
        true
    }
}

/// The node's one thread: the poller, every socket, and the [`Loop`].
struct EventLoop<M: Wire> {
    lp: Loop<M>,
    poller: Poller,
    listener: TcpListener,
    /// Accepted connections by token.
    inconns: HashMap<u64, InConn>,
    next_in_token: u64,
    /// Receiver-side next-expected table, shared with [`NodeHandle`]
    /// readers (`next_expected_from`); written only by this thread.
    seqs: Arc<Mutex<Vec<u64>>>,
    /// Payload hashes of delivered frames per peer, for the
    /// no-equivocation check on duplicates. Loop-owned, no locking.
    hashes: Vec<HashMap<u64, u64>>,
    io: LoopStats,
    shutdown: Arc<AtomicBool>,
}

impl<M: Wire> EventLoop<M> {
    fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        // Boot work queued by run_start/recover: deliver pending
        // self-sends, then get the first frames moving.
        self.drain_self();
        self.maybe_probe(Instant::now());
        self.pump_links();
        while !self.shutdown.load(Ordering::Relaxed) {
            let timeout = self.next_timeout(Instant::now());
            self.io.loop_ticks.inc();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poller (fd exhaustion mid-registration) has
                // no recovery story; back off rather than spin.
                thread::sleep(POLL);
                continue;
            }
            self.io.poll_wakeups.add(events.len() as u64);
            for ev in events.drain(..) {
                self.dispatch_event(ev, &mut frames);
            }
            // One pass after the batch: dial due links, release delayed
            // frames, and flush everything the deliveries above queued —
            // the per-peer coalescing point. An amnesiac refreshes its
            // state-transfer probes first so they ride the same flush.
            self.maybe_probe(Instant::now());
            self.pump_links();
        }
    }

    /// While amnesiac, (re)issues a [`Frame::StateRequest`] to every
    /// peer each [`PROBE_EVERY`]. Pending unsent probes are cleared
    /// first so a dead link never accumulates duplicates; answered or
    /// lost probes are simply superseded by the next round. The [`POLL`]
    /// cap bounds how late a probe can fire.
    fn maybe_probe(&mut self, now: Instant) {
        if !self.lp.amnesiac {
            return;
        }
        match self.lp.transfer_probe_at {
            Some(at) if at > now => return,
            _ => {}
        }
        self.lp.transfer_probe_at = Some(now + PROBE_EVERY);
        let probe = Arc::new(encode_chunk(&Frame::StateRequest { from: self.lp.me }));
        for link in self.lp.links.iter_mut().flatten() {
            link.clear_control();
            link.enqueue_control(Arc::clone(&probe));
        }
    }

    /// How long the poller may sleep: the [`POLL`] cap, shortened to the
    /// earliest link deadline (redial or delayed-frame release).
    fn next_timeout(&self, now: Instant) -> Duration {
        let mut timeout = POLL;
        for link in self.lp.links.iter().flatten() {
            if let Some(at) = link.next_deadline(now) {
                timeout = timeout.min(at.saturating_duration_since(now));
            }
        }
        timeout
    }

    /// Delivers pending self-sends, oldest first, until the queue is dry
    /// (a delivery may enqueue more).
    fn drain_self(&mut self) {
        while let Some(bytes) = self.lp.self_queue.pop_front() {
            let msg = M::from_bytes(&bytes).expect("locally encoded self-delivery decodes");
            let me = self.lp.me;
            self.lp.deliver(me, None, msg, &bytes, true);
        }
    }

    fn dispatch_event(&mut self, ev: PollEvent, frames: &mut Vec<Frame>) {
        if ev.token == TOKEN_LISTENER {
            if ev.readable {
                self.accept_ready(frames);
            }
        } else if ev.token >= IN_BASE {
            self.inbound_event(ev, frames);
        } else {
            let peer = usize::try_from(ev.token - OUT_BASE).expect("peer token fits usize");
            self.outbound_event(peer, ev);
        }
    }

    /// Accepts until `WouldBlock` (the edge-triggered contract) and reads
    /// each new connection immediately — its first bytes may have landed
    /// before it was registered, which with epoll's edge semantics would
    /// otherwise never produce an event.
    fn accept_ready(&mut self, frames: &mut Vec<Frame>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = IN_BASE + self.next_in_token;
                    self.next_in_token += 1;
                    if self.poller.register(stream.as_raw_fd(), token).is_err() {
                        continue;
                    }
                    self.inconns.insert(token, InConn::new(stream));
                    self.inbound_readable(token, frames);
                }
                Err(_) => return, // WouldBlock, or transient accept noise
            }
        }
    }

    fn inbound_event(&mut self, ev: PollEvent, frames: &mut Vec<Frame>) {
        if ev.readable {
            self.inbound_readable(ev.token, frames);
        }
        if ev.writable {
            // Blocked ack writes resume here.
            let Some(conn) = self.inconns.get_mut(&ev.token) else {
                return;
            };
            if conn.write_blocked {
                let failed = conn.on_writable(&self.io).is_err();
                let blocked = conn.write_blocked;
                if failed {
                    self.teardown_inbound(ev.token);
                } else {
                    self.poller.set_write_interest(ev.token, blocked);
                }
            }
        }
    }

    /// Drains one inbound connection and processes every complete frame
    /// it produced, in order: handshake, seq-dedup, ack, delivery.
    fn inbound_readable(&mut self, token: u64, frames: &mut Vec<Frame>) {
        let Some(conn) = self.inconns.get_mut(&token) else {
            return;
        };
        frames.clear();
        // A read error or unparseable stream still yields the complete
        // frames that preceded it — process them, then tear down, exactly
        // as the blocking reader did frame by frame.
        let dead = conn.read_frames(frames, &self.io).unwrap_or(true);
        let mut hostile = false;
        for frame in frames.drain(..) {
            let Some(conn) = self.inconns.get_mut(&token) else {
                return;
            };
            match frame {
                Frame::Hello { from } => {
                    if conn.peer.is_none() {
                        if from.index() < self.lp.n {
                            conn.peer = Some(from);
                        } else {
                            hostile = true; // not a peer of this system
                            break;
                        }
                    }
                    // A repeated Hello is meaningless but harmless.
                }
                Frame::Msg { seq, payload } => {
                    let Some(from) = conn.peer else {
                        hostile = true; // the first frame must be Hello
                        break;
                    };
                    self.handle_msg(token, from, seq, &payload);
                }
                Frame::Ack { .. } => {} // not meaningful inbound
                Frame::StateRequest { from } => {
                    if from.index() >= self.lp.n {
                        hostile = true; // not a peer of this system
                        break;
                    }
                    // Serve our durable state on the connection the
                    // probe arrived on. An amnesiac has nothing
                    // trustworthy to serve and stays silent.
                    if !self.lp.amnesiac {
                        let chunk = self.lp.state_chunk();
                        conn.queue_frame(&chunk);
                        self.lp.counters.state_requests_served.inc();
                    }
                }
                // A state chunk is a *reply*; it belongs on the probing
                // node's outbound connection, not here. Harmless noise.
                Frame::StateChunk { .. } => {}
            }
        }
        // One coalesced flush for the whole batch of acks.
        if let Some(conn) = self.inconns.get_mut(&token) {
            if conn.flush(&self.io).is_err() {
                self.teardown_inbound(token);
                return;
            }
            let blocked = conn.write_blocked;
            self.poller.set_write_interest(token, blocked);
        }
        if dead || hostile {
            self.teardown_inbound(token);
        }
    }

    /// One inbound protocol message: consult the sequence table, apply
    /// the no-equivocation cross-check, deliver if it is the next
    /// expected frame, and queue the cumulative ack.
    fn handle_msg(&mut self, token: u64, from: ProcessId, seq: u64, payload: &[u8]) {
        let (disposition, speculative) = {
            let mut seqs = self.seqs.lock().expect("seq table poisoned");
            let next = &mut seqs[from.index()];
            let d = if seq > *next {
                Disposition::Gap
            } else if seq < *next {
                Disposition::Duplicate
            } else {
                *next += 1;
                Disposition::Deliver
            };
            (d, *next)
        };
        match disposition {
            Disposition::Deliver => {
                self.hashes[from.index()].insert(seq, fnv1a64(payload));
                // Byzantine bytes: payloads that do not decode, or decode
                // to contents out of range for this system, are dropped
                // here — they must never reach (and possibly kill) the
                // protocol. The link stays up, the seq stays consumed.
                let decode_us = &self.lp.metrics.msg_decode_us;
                let decode_started = decode_us.enabled().then(Instant::now);
                let decoded = M::from_bytes(payload);
                if let Some(t) = decode_started {
                    decode_us.record_us(t.elapsed());
                }
                match decoded {
                    Ok(msg) if msg.validate(self.lp.n) => {
                        let bytes = msg.to_bytes();
                        self.lp.deliver(from, Some(seq), msg, &bytes, true);
                        self.drain_self();
                    }
                    _ => self.lp.counters.wire_rejected.inc(),
                }
            }
            Disposition::Duplicate => {
                // A retransmission must be byte-identical to the frame
                // first delivered under this seq — recovered nodes
                // included. Anything else is equivocation.
                if let Some(&h) = self.hashes[from.index()].get(&seq) {
                    if h != fnv1a64(payload) {
                        self.lp.counters.equivocations.inc();
                    }
                }
            }
            Disposition::Gap => self.lp.counters.seq_gaps.inc(),
        }
        // Cumulative ack per Msg — re-sent even for duplicates and gaps
        // so a reconnected sender can retire its backlog and resync.
        // With a WAL the ack is the durable watermark, read *after* the
        // delivery journalled, so it already covers this frame. An
        // amnesiac journals nothing but may still ack speculatively: a
        // learner never sends protocol messages, so the replay-
        // equivocation hazard durable acks exist to prevent cannot
        // arise, and adoption pins this same watermark durably.
        let ack = if self.lp.wal.is_some() && !self.lp.amnesiac {
            self.lp.durable_next[from.index()].load(Ordering::Acquire)
        } else {
            speculative
        };
        if let Some(conn) = self.inconns.get_mut(&token) {
            conn.queue_ack(ack);
        }
    }

    fn teardown_inbound(&mut self, token: u64) {
        if let Some(conn) = self.inconns.remove(&token) {
            self.poller.deregister(conn.stream.as_raw_fd(), token);
            // conn drops here, closing the socket.
        }
    }

    /// A readiness event on an outbound link's connection: connect
    /// completion, inbound acks, or room to resume a blocked write.
    fn outbound_event(&mut self, peer: usize, ev: PollEvent) {
        let now = Instant::now();
        let mut established = true;
        // Non-ack frames read off the outbound connection: peers answer
        // our state-transfer probes here.
        let mut ctrl: Vec<Frame> = Vec::new();
        let failed = {
            let Some(link) = self.lp.links.get_mut(peer).and_then(Option::as_mut) else {
                return;
            };
            let Some(conn) = link.conn.as_mut() else {
                return;
            };
            if conn.token != ev.token {
                return; // stale event for a predecessor connection
            }
            if conn.connecting {
                if !ev.writable {
                    return; // connect still in flight
                }
                // The nonblocking connect resolved: writable + no error
                // is up, anything else failed.
                match conn.stream.take_error() {
                    Ok(None) => {
                        conn.connecting = false;
                        link.dial_succeeded();
                    }
                    _ => {
                        established = false;
                    }
                }
            }
            if established {
                let read_ok = !ev.readable || link.on_readable(&self.io, &mut ctrl).is_ok();
                let write_ok = read_ok && (!ev.writable || link.on_writable(now, &self.io).is_ok());
                !(read_ok && write_ok)
            } else {
                true
            }
        };
        if failed {
            self.teardown_outbound(peer, established);
        } else {
            self.sync_out_interest(peer);
        }
        for frame in ctrl {
            self.handle_state_chunk(peer, frame);
        }
    }

    /// One peer's answer to a state-transfer probe. The offer is held
    /// until `k + 1` peers agree on `(decision, app_digest)` — only then
    /// is the state adopted, so up to `k` faulty peers can neither forge
    /// a state nor block transfer (there are `n - k - 1` other peers).
    fn handle_state_chunk(&mut self, peer: usize, frame: Frame) {
        let Frame::StateChunk {
            from,
            decision,
            phase: _,
            app_digest,
            app,
        } = frame
        else {
            return; // outbound connections carry nothing else of note
        };
        if !self.lp.amnesiac || from.index() != peer {
            return;
        }
        // An empty offer (undecided, no app state) attests nothing;
        // matching k+1 of them would adopt a vacuous state. Wait for
        // peers that actually have something.
        if decision.is_none() && app_digest == 0 {
            return;
        }
        // Bytes that do not hash to their own digest are forged; drop
        // the offer before it can poison a quorum.
        if let Some(bytes) = &app {
            if fnv1a64(bytes) != app_digest {
                return;
            }
        }
        self.lp.transfer_offers.insert(
            peer,
            TransferOffer {
                decision,
                app_digest,
                app,
            },
        );
        let needed = self.lp.k + 1;
        let offers = &self.lp.transfer_offers;
        let Some(winner) = offers
            .values()
            .find(|o| {
                offers
                    .values()
                    .filter(|p| p.decision == o.decision && p.app_digest == o.app_digest)
                    .count()
                    >= needed
            })
            .cloned()
        else {
            return;
        };
        // Any offer in the winning class may carry the bytes.
        let app = offers
            .values()
            .filter(|p| p.decision == winner.decision && p.app_digest == winner.app_digest)
            .find_map(|p| p.app.clone());
        let seqs = self.seqs.lock().expect("seq table poisoned").clone();
        if !self
            .lp
            .adopt(winner.decision, winner.app_digest, app, &seqs)
        {
            // Adoption failed (no usable bytes, or the disk is still
            // sick): discard the round and keep probing fresh.
            self.lp.transfer_offers.clear();
        }
    }

    /// Drops a link's connection and schedules the redial: immediate for
    /// an established connection that died, backed off for a failed dial.
    fn teardown_outbound(&mut self, peer: usize, established: bool) {
        let Some(link) = self.lp.links.get_mut(peer).and_then(Option::as_mut) else {
            return;
        };
        if let Some(conn) = link.conn.take() {
            self.poller.deregister(conn.stream.as_raw_fd(), conn.token);
        }
        link.conn_failed(established);
    }

    /// Mirrors a link's write interest into the poll(2) backend (no-op
    /// under epoll): connecting sockets and blocked writers want
    /// writable events; anything else would spin on always-writable.
    fn sync_out_interest(&mut self, peer: usize) {
        let Some(link) = self.lp.links.get(peer).and_then(Option::as_ref) else {
            return;
        };
        if let Some(conn) = &link.conn {
            let token = conn.token;
            let want = conn.connecting || conn.write_blocked;
            self.poller.set_write_interest(token, want);
        }
    }

    /// The once-per-tick outbound pass: dial links that want a connection
    /// and are past their backoff, then move eligible backlog frames to
    /// the sockets — one vectored write per peer for the whole batch.
    fn pump_links(&mut self) {
        let now = Instant::now();
        for peer in 0..self.lp.n {
            {
                let Some(link) = self.lp.links.get_mut(peer).and_then(Option::as_mut) else {
                    continue;
                };
                if link.wants_conn() && now >= link.next_dial {
                    let token = OUT_BASE + peer as u64;
                    match connect_nonblocking(link.peer_addr) {
                        Ok(dial) => {
                            let (stream, connecting) = match dial {
                                Dial::Connected(s) => (s, false),
                                Dial::InProgress(s) => (s, true),
                            };
                            let _ = stream.set_nodelay(true);
                            if self.poller.register(stream.as_raw_fd(), token).is_ok() {
                                link.adopt(stream, token, connecting);
                                if !connecting {
                                    link.dial_succeeded();
                                }
                            } else {
                                link.conn_failed(false); // stream drops
                            }
                        }
                        Err(_) => link.conn_failed(false),
                    }
                }
            }
            let failed = {
                let Some(link) = self.lp.links.get_mut(peer).and_then(Option::as_mut) else {
                    continue;
                };
                link.conn.is_some() && link.pump(now, &self.io).is_err()
            };
            if failed {
                self.teardown_outbound(peer, true);
            } else {
                self.sync_out_interest(peer);
            }
        }
    }
}
