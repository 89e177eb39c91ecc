//! Loopback clusters: boot `n` nodes on 127.0.0.1, inject inputs, await
//! a verdict — and, when recovery is configured, supervise the nodes:
//! kill them on schedule, restart them from their write-ahead logs, and
//! let them rejoin without equivocating.
//!
//! The harness keeps the simulator's experiment shape — pick a protocol,
//! a resilience `k`, per-process inputs and roles, run, get back a
//! [`RunReport`] — but the execution is `n` real multi-threaded nodes
//! exchanging Wire-encoded frames over real TCP connections. Every
//! listener is bound (on an OS-assigned port) *before* any node boots, so
//! peers never dial an address that does not exist yet; transient dial
//! failures during boot are absorbed by the senders' reconnect loops.
//!
//! # Supervision
//!
//! With [`ClusterOptions::recovery`] set, the cluster retains a clone of
//! each node's listener (the port survives the node) and a respawn
//! closure that can rebuild the node's process from configuration. The
//! polling loop inside [`Cluster::await_verdict`] then acts as the
//! supervisor: it executes the crash-restart schedule carried by the
//! [`FaultPlan`] (kill node `i` now, restart it later), restarts nodes
//! whose event loops died, and charges every restart against a budget —
//! each with jittered exponential backoff so repeated failures do not
//! hammer the machine in lockstep. A restarted node recovers from its
//! WAL before it accepts a single frame, so to its peers the crash is
//! indistinguishable from a slow link: same frames, same bytes, same
//! sequence numbers.
//!
//! A networked run has no global step counter, so the synthesized report's
//! `steps` is the sum of per-node atomic steps, and `RunStatus` reduces to
//! two outcomes: [`RunStatus::Stopped`] when every correct node decided
//! within the deadline, [`RunStatus::StepLimitReached`] when wall-clock
//! time ran out first (the networked analogue of a step budget).

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use std::sync::Arc;

use adversary::{Crashing, Silent, TwoFacedMalicious};
use benor::{BenOrConfig, BenOrProcess};
use bt_core::{Config, FailStop, Malicious, Simple};
use obs::metrics::{Registry, Snapshot};
use prng::Prng;
use simnet::{
    Metrics, Process, ProcessId, Role, RunReport, RunStatus, SharedSubscriber, Value, Wire,
};

use crate::admin::{self, AdminServer};
use crate::fault::FaultPlan;
use crate::node::{spawn, NodeConfig, NodeHandle};

pub use adversary::CrashPlan;

/// Which protocol the cluster runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Figure 1 fail-stop protocol (`k ≤ ⌊(n−1)/2⌋`).
    FailStop,
    /// §4.1 simple protocol (same bound, no witnesses).
    Simple,
    /// Figure 2 malicious protocol (`k ≤ ⌊(n−1)/3⌋`).
    Malicious,
    /// The Ben-Or baseline under its fail-stop configuration.
    BenOr,
}

/// The fault a node exhibits (process faults, as opposed to the *link*
/// faults a [`FaultPlan`] injects).
#[derive(Clone, Debug, Default)]
pub enum NodeFault {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Correct behaviour until the [`CrashPlan`] triggers, then silence —
    /// the paper's fail-stop fault.
    Crash(CrashPlan),
    /// Sends nothing at all (an initially dead process).
    Silent,
    /// Echoes `One` to low-indexed peers and `Zero` to high-indexed peers
    /// (malicious protocol only; treated as [`NodeFault::Silent`] under
    /// other protocols, where the message type differs).
    TwoFaced,
}

impl NodeFault {
    fn role(&self) -> Role {
        match self {
            NodeFault::Correct => Role::Correct,
            _ => Role::Faulty,
        }
    }
}

/// Durability and supervision policy for a cluster.
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// Directory holding one `node<i>.wal` per node (created if absent).
    pub wal_dir: PathBuf,
    /// Per-node checkpoint cadence in journaled delivery bytes (see
    /// [`NodeConfig::snapshot_bytes`]); 0 replays from genesis.
    pub snapshot_bytes: u64,
    /// How many restarts the supervisor will grant each node — scheduled
    /// crash-restarts and died-event-loop restarts both draw on it.
    pub max_restarts: u32,
    /// Base of the jittered exponential backoff the supervisor waits
    /// before restart attempt `r` (nominal `backoff · 2^r`, at least half
    /// of which is honoured, the rest uniform).
    pub backoff: Duration,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            wal_dir: std::env::temp_dir().join("btwal"),
            snapshot_bytes: 0,
            max_restarts: 4,
            backoff: Duration::from_millis(10),
        }
    }
}

impl RecoveryOptions {
    /// A policy journaling into `wal_dir` with default supervision knobs.
    #[must_use]
    pub fn in_dir(wal_dir: impl Into<PathBuf>) -> Self {
        RecoveryOptions {
            wal_dir: wal_dir.into(),
            ..RecoveryOptions::default()
        }
    }

    fn wal_path(&self, i: usize) -> PathBuf {
        self.wal_dir.join(format!("node{i}.wal"))
    }
}

/// Everything about a cluster run that is not `(n, k, proto)`.
#[derive(Clone, Debug, Default)]
pub struct ClusterOptions {
    /// Base seed; node `i` runs on `seed + i` so coin flips differ across
    /// nodes but the whole cluster is reproducible from one number.
    pub seed: u64,
    /// Initial value per node; nodes beyond the vector's length get
    /// [`Value::Zero`].
    pub inputs: Vec<Value>,
    /// Process fault per node; nodes beyond the vector's length are
    /// correct.
    pub faults: Vec<NodeFault>,
    /// Link faults, applied to every node's outbound messages. Any
    /// crash-restart clauses in the plan are executed by the cluster
    /// supervisor and require [`ClusterOptions::recovery`].
    pub link_fault: FaultPlan,
    /// Durable WALs + supervised restart. `None` (the default) runs the
    /// classic ephemeral cluster.
    pub recovery: Option<RecoveryOptions>,
    /// Serve an HTTP admin endpoint (`/metrics`, `/metrics.json`,
    /// `/status`) per node on an OS-assigned loopback port — what `btstat`
    /// and [`Cluster::scrape`] talk to. Off by default: in-process callers
    /// can read [`Cluster::metrics_snapshot`] without sockets.
    pub admin: bool,
}

impl ClusterOptions {
    fn input(&self, i: usize) -> Value {
        self.inputs.get(i).copied().unwrap_or(Value::Zero)
    }

    fn fault(&self, i: usize) -> NodeFault {
        self.faults.get(i).cloned().unwrap_or_default()
    }
}

/// Rebuilds one node from scratch on a fresh listener clone — process,
/// sockets, WAL recovery and all.
type Respawner = Box<dyn FnMut(TcpListener) -> io::Result<NodeHandle> + Send>;

/// One clause of the crash-restart schedule, tracked by the supervisor.
#[derive(Debug)]
struct ScheduledCrash {
    node: usize,
    kill_at: Instant,
    restart_at: Instant,
    phase: CrashPhase,
}

#[derive(Debug, PartialEq, Eq)]
enum CrashPhase {
    Pending,
    Down,
    Done,
}

/// A running loopback cluster.
pub struct Cluster {
    nodes: Vec<NodeHandle>,
    roles: Vec<Role>,
    subscriber: Option<SharedSubscriber>,
    reported: bool,
    recovery: Option<RecoveryOptions>,
    /// Retained listener clones (recovery only): the port outlives the
    /// node, so peers redial the same address after a restart.
    listeners: Vec<Option<TcpListener>>,
    respawners: Vec<Respawner>,
    /// One metrics registry per node, shared across that node's
    /// incarnations: a supervised restart re-attaches to the same cells,
    /// so per-peer sender counters survive the reaping of the threads
    /// that accumulated them.
    registries: Vec<Arc<Registry>>,
    /// Per-node HTTP admin endpoints (when [`ClusterOptions::admin`] is
    /// set). An endpoint outlives its node's incarnations: a restart swaps
    /// the status source but keeps the port.
    admins: Vec<Option<AdminServer>>,
    restarts_used: Vec<u32>,
    crashes: Vec<ScheduledCrash>,
    /// Deterministic jitter stream for restart backoff.
    jitter: Prng,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes)
            .field("roles", &self.roles)
            .field("observed", &self.subscriber.is_some())
            .field("reported", &self.reported)
            .field("recovery", &self.recovery)
            .field("restarts_used", &self.restarts_used)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Boots an `n`-node cluster of `proto` with resilience `k` on
    /// loopback TCP and starts the protocol on every node.
    ///
    /// If a `subscriber` is given it receives `on_run_start` now, every
    /// node's events as they happen (interleaved in real arrival order —
    /// networked runs are not deterministically ordered across nodes),
    /// and `on_run_end` from [`Cluster::await_verdict`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if loopback listeners cannot be bound (some
    /// sandboxes forbid sockets) — callers treat that as "skip" — or if
    /// the recovery WAL directory cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `(n, k)` violates `proto`'s resilience bound, or if the
    /// link fault plan schedules crash-restarts without
    /// [`ClusterOptions::recovery`] (a restart needs a WAL to restart
    /// from; without one a rebooted node could equivocate).
    pub fn spawn(
        n: usize,
        k: usize,
        proto: Proto,
        options: ClusterOptions,
        subscriber: Option<SharedSubscriber>,
    ) -> io::Result<Self> {
        assert!(
            options.link_fault.crashes().is_empty() || options.recovery.is_some(),
            "crash-restart faults require ClusterOptions::recovery: \
             a node restarted without its WAL could equivocate"
        );
        assert!(
            options.link_fault.disk().is_empty() || options.recovery.is_some(),
            "disk faults require ClusterOptions::recovery: \
             without a WAL there is no storage to corrupt"
        );
        if let Some(rec) = &options.recovery {
            std::fs::create_dir_all(&rec.wal_dir)?;
        }

        // Bind every listener first: all addresses exist before any dial.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }
        // Under recovery, keep a clone of each listening socket so the
        // port stays bound while a node is down.
        let retained: Vec<Option<TcpListener>> = if options.recovery.is_some() {
            let mut v = Vec::with_capacity(n);
            for l in &listeners {
                v.push(Some(l.try_clone()?));
            }
            v
        } else {
            (0..n).map(|_| None).collect()
        };

        if let Some(s) = &subscriber {
            s.lock()
                .expect("subscriber lock poisoned")
                .on_run_start(n, options.seed);
        }

        let roles: Vec<Role> = (0..n).map(|i| options.fault(i).role()).collect();
        let registries: Vec<Arc<Registry>> = (0..n).map(|_| Arc::new(Registry::new())).collect();
        let mut respawners: Vec<Respawner> = Vec::with_capacity(n);
        match proto {
            Proto::FailStop => {
                let config = Config::fail_stop(n, k).expect("within the fail-stop bound");
                for (i, registry) in registries.iter().enumerate() {
                    let (fault, input) = (options.fault(i), options.input(i));
                    let make = move || -> Box<dyn Process<Msg = bt_core::FailStopMsg> + Send> {
                        match fault.clone() {
                            NodeFault::Correct => Box::new(FailStop::new(config, input)),
                            NodeFault::Crash(plan) => {
                                Box::new(Crashing::new(FailStop::new(config, input), plan))
                            }
                            NodeFault::Silent | NodeFault::TwoFaced => Box::new(Silent::new()),
                        }
                    };
                    respawners.push(respawner(
                        i,
                        n,
                        k,
                        &options,
                        &addrs,
                        make,
                        &subscriber,
                        Arc::clone(registry),
                    ));
                }
            }
            Proto::Simple => {
                let config = Config::fail_stop(n, k).expect("within the fail-stop bound");
                for (i, registry) in registries.iter().enumerate() {
                    let (fault, input) = (options.fault(i), options.input(i));
                    let make = move || -> Box<dyn Process<Msg = bt_core::SimpleMsg> + Send> {
                        match fault.clone() {
                            NodeFault::Correct => Box::new(Simple::new(config, input)),
                            NodeFault::Crash(plan) => {
                                Box::new(Crashing::new(Simple::new(config, input), plan))
                            }
                            NodeFault::Silent | NodeFault::TwoFaced => Box::new(Silent::new()),
                        }
                    };
                    respawners.push(respawner(
                        i,
                        n,
                        k,
                        &options,
                        &addrs,
                        make,
                        &subscriber,
                        Arc::clone(registry),
                    ));
                }
            }
            Proto::Malicious => {
                let config = Config::malicious(n, k).expect("within the malicious bound");
                for (i, registry) in registries.iter().enumerate() {
                    let (fault, input) = (options.fault(i), options.input(i));
                    let make = move || -> Box<dyn Process<Msg = bt_core::MaliciousMsg> + Send> {
                        match fault.clone() {
                            NodeFault::Correct => Box::new(Malicious::new(config, input)),
                            NodeFault::Crash(plan) => {
                                Box::new(Crashing::new(Malicious::new(config, input), plan))
                            }
                            NodeFault::Silent => Box::new(Silent::new()),
                            NodeFault::TwoFaced => Box::new(TwoFacedMalicious::new(config)),
                        }
                    };
                    respawners.push(respawner(
                        i,
                        n,
                        k,
                        &options,
                        &addrs,
                        make,
                        &subscriber,
                        Arc::clone(registry),
                    ));
                }
            }
            Proto::BenOr => {
                let config =
                    BenOrConfig::fail_stop(n, k).expect("within the Ben-Or fail-stop bound");
                for (i, registry) in registries.iter().enumerate() {
                    let (fault, input) = (options.fault(i), options.input(i));
                    let make = move || -> Box<dyn Process<Msg = benor::BenOrMsg> + Send> {
                        match fault.clone() {
                            NodeFault::Correct => Box::new(BenOrProcess::new(config, input)),
                            NodeFault::Crash(plan) => {
                                Box::new(Crashing::new(BenOrProcess::new(config, input), plan))
                            }
                            NodeFault::Silent | NodeFault::TwoFaced => Box::new(Silent::new()),
                        }
                    };
                    respawners.push(respawner(
                        i,
                        n,
                        k,
                        &options,
                        &addrs,
                        make,
                        &subscriber,
                        Arc::clone(registry),
                    ));
                }
            }
        }

        let mut nodes = Vec::with_capacity(n);
        for (respawn, listener) in respawners.iter_mut().zip(listeners) {
            nodes.push(respawn(listener)?);
        }

        // One admin endpoint per node, bound after the nodes so /status
        // always has a live status cell to read.
        let admins: Vec<Option<AdminServer>> = if options.admin {
            let mut v = Vec::with_capacity(n);
            for node in &nodes {
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                let status = admin::status_source(node.id(), n, node.status_cell(), node.metrics());
                v.push(Some(AdminServer::serve(listener, node.metrics(), status)?));
            }
            v
        } else {
            (0..n).map(|_| None).collect()
        };

        let started = Instant::now();
        let crashes = options
            .link_fault
            .crashes()
            .iter()
            .map(|c| {
                assert!(
                    c.node < n,
                    "crash-restart clause targets a node outside the system"
                );
                ScheduledCrash {
                    node: c.node,
                    kill_at: started + c.kill_after,
                    restart_at: started + c.restart_after,
                    phase: CrashPhase::Pending,
                }
            })
            .collect();

        Ok(Cluster {
            nodes,
            roles,
            subscriber,
            reported: false,
            recovery: options.recovery,
            listeners: retained,
            respawners,
            registries,
            admins,
            restarts_used: vec![0; n],
            crashes,
            jitter: Prng::seed_from_u64(options.seed ^ 0x7375_7056), // distinct supervisor stream
        })
    }

    /// The nodes' live handles, indexed by process id.
    #[must_use]
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// Restarts the supervisor has performed, per node.
    #[must_use]
    pub fn restarts(&self) -> &[u32] {
        &self.restarts_used
    }

    /// Node `i`'s metrics registry — stable across that node's restarts.
    #[must_use]
    pub fn node_registry(&self, i: usize) -> Arc<Registry> {
        Arc::clone(&self.registries[i])
    }

    /// One merged snapshot of every node's metrics. Registries are read
    /// in-process (no sockets): this is the cluster-wide view a scrape of
    /// all the admin endpoints would assemble, minus the HTTP hop.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for r in &self.registries {
            merged.merge(&r.snapshot());
        }
        merged
    }

    /// Sums one counter across every node's registry. `Registry::counter`
    /// returns the same cell every incarnation of a node used, so this
    /// reads lifetime totals even after restarts.
    fn counter_sum(&self, name: &str, help: &str) -> u64 {
        self.registries
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let node = i.to_string();
                r.counter(name, help, &[("node", &node)]).get()
            })
            .sum()
    }

    /// Boots across the cluster that found a WAL unsafely damaged
    /// (mid-log corruption or a lost log), over all incarnations.
    #[must_use]
    pub fn wal_corruptions(&self) -> u64 {
        self.counter_sum(
            "bt_wal_corruptions_total",
            "boots that found the WAL unsafely damaged (mid-log corruption or lost log)",
        )
    }

    /// Quorum state transfers completed by amnesiac nodes, cluster-wide.
    #[must_use]
    pub fn state_transfers(&self) -> u64 {
        self.counter_sum(
            "bt_state_transfers_total",
            "quorum state transfers completed by an amnesiac node",
        )
    }

    /// The admin endpoints' addresses, indexed by process id — empty when
    /// [`ClusterOptions::admin`] was off. Stable across node restarts.
    #[must_use]
    pub fn admin_addrs(&self) -> Vec<SocketAddr> {
        self.admins
            .iter()
            .filter_map(|a| a.as_ref().map(AdminServer::addr))
            .collect()
    }

    /// Scrapes every admin endpoint over HTTP and merges the snapshots —
    /// the same cluster-wide view as [`Cluster::metrics_snapshot`], but
    /// assembled the way an external monitor would assemble it. Nodes that
    /// do not answer within `timeout` are skipped; the second element
    /// lists the addresses that did.
    #[must_use]
    pub fn scrape(&self, timeout: Duration) -> (Snapshot, Vec<SocketAddr>) {
        admin::scrape_all(&self.admin_addrs(), timeout)
    }

    /// Whether node `i` could still be granted a restart.
    fn restartable(&self, i: usize) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|r| self.restarts_used[i] < r.max_restarts)
    }

    /// One supervision pass: execute due crash-schedule clauses and
    /// restart nodes whose event loops died.
    fn supervise(&mut self) {
        let now = Instant::now();
        for c in 0..self.crashes.len() {
            match self.crashes[c].phase {
                CrashPhase::Pending if now >= self.crashes[c].kill_at => {
                    let i = self.crashes[c].node;
                    self.nodes[i].shutdown();
                    self.crashes[c].phase = CrashPhase::Down;
                }
                CrashPhase::Down if now >= self.crashes[c].restart_at => {
                    let i = self.crashes[c].node;
                    self.restart(i);
                    self.crashes[c].phase = CrashPhase::Done;
                }
                _ => {}
            }
        }
        if self.recovery.is_some() {
            // A node still scheduled as Down is intentionally dead — do
            // not resurrect it early.
            let held_down: Vec<usize> = self
                .crashes
                .iter()
                .filter(|c| c.phase == CrashPhase::Down)
                .map(|c| c.node)
                .collect();
            for i in 0..self.nodes.len() {
                if self.nodes[i].died() && !held_down.contains(&i) && self.restartable(i) {
                    self.restart(i);
                }
            }
        }
    }

    /// Restarts node `i` from its WAL: shuts the old incarnation down,
    /// waits out the jittered exponential backoff, and respawns on a
    /// clone of the original listener. Charges the restart budget.
    fn restart(&mut self, i: usize) -> bool {
        let Some(rec) = self.recovery.clone() else {
            return false;
        };
        let used = self.restarts_used[i];
        if used >= rec.max_restarts {
            return false;
        }
        self.restarts_used[i] = used + 1;
        self.nodes[i].shutdown();
        // Jittered exponential backoff: nominal backoff · 2^used, at
        // least half honoured, the rest uniform — restarts triggered by
        // the same incident spread out instead of thundering back.
        let nominal = rec.backoff.saturating_mul(2u32.saturating_pow(used));
        let half = nominal / 2;
        let span = u64::try_from(half.as_micros())
            .unwrap_or(u64::MAX)
            .saturating_add(1);
        let wait = half + Duration::from_micros(self.jitter.next_u64() % span);
        std::thread::sleep(wait);
        let Some(listener) = self.listeners[i].as_ref().and_then(|l| l.try_clone().ok()) else {
            eprintln!("supervisor: no retained listener for p{i}; cannot restart");
            return false;
        };
        match (self.respawners[i])(listener) {
            Ok(handle) => {
                let st = handle.status();
                eprintln!(
                    "supervisor: restarted p{i} from WAL (attempt {}, {} deliveries replayed)",
                    used + 1,
                    st.recovered
                );
                let node = i.to_string();
                self.registries[i]
                    .counter(
                        "bt_restarts_total",
                        "supervised restarts performed for this node",
                        &[("node", &node)],
                    )
                    .inc();
                // The admin endpoint keeps its port; point /status at the
                // new incarnation's status cell.
                if let Some(a) = &self.admins[i] {
                    a.set_status(admin::status_source(
                        handle.id(),
                        self.nodes.len(),
                        handle.status_cell(),
                        handle.metrics(),
                    ));
                }
                self.nodes[i] = handle;
                true
            }
            Err(e) => {
                eprintln!(
                    "supervisor: restart of p{i} failed (attempt {}): {e}",
                    used + 1
                );
                false
            }
        }
    }

    /// Waits (polling) until every correct node has decided or `timeout`
    /// elapses, then synthesizes the run's [`RunReport`], forwards it to
    /// the subscriber's `on_run_end` (first call only), and returns it.
    ///
    /// The polling loop doubles as the supervisor (see the module docs):
    /// scheduled crash-restarts and died-node restarts happen here.
    ///
    /// On timeout the undecided nodes and their last observed phases are
    /// reported to stderr — a silent `StepLimitReached` names nobody.
    ///
    /// The cluster keeps running afterwards — post-decision traffic (the
    /// paper's exit broadcasts) still flows until [`Cluster::shutdown`].
    pub fn await_verdict(&mut self, timeout: Duration) -> RunReport {
        let deadline = Instant::now() + timeout;
        let all_decided = loop {
            self.supervise();
            let mut undecided = false;
            let mut hopeless = false;
            for (i, (node, role)) in self.nodes.iter().zip(&self.roles).enumerate() {
                if *role != Role::Correct {
                    continue;
                }
                let st = node.status();
                if st.decision.is_none() {
                    undecided = true;
                    // A node whose event loop died and who has no restart
                    // budget left will never decide: waiting out the full
                    // deadline would only disguise a crash as slowness.
                    if st.died && !self.restartable(i) {
                        hopeless = true;
                    }
                }
            }
            // The crash schedule is part of the experiment: a verdict
            // taken before every scheduled kill/restart has executed
            // would be a verdict on a different (easier) run. Keep
            // supervising until the schedule drains, then require the
            // restarted nodes to have (re-)decided too.
            let schedule_done = self.crashes.iter().all(|c| c.phase == CrashPhase::Done);
            if !undecided && schedule_done {
                break true;
            }
            if hopeless || Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };

        if !all_decided {
            for (i, (node, role)) in self.nodes.iter().zip(&self.roles).enumerate() {
                if *role != Role::Correct {
                    continue;
                }
                let st = node.status();
                if st.decision.is_none() {
                    eprintln!(
                        "await_verdict: p{i} undecided at deadline — phase {}, {} steps, \
                         {} restarts{}",
                        st.phase,
                        st.steps,
                        self.restarts_used[i],
                        if st.died { ", event loop died" } else { "" }
                    );
                }
            }
        }

        let report = self.synthesize_report(all_decided);
        if !self.reported {
            self.reported = true;
            if let Some(s) = &self.subscriber {
                s.lock()
                    .expect("subscriber lock poisoned")
                    .on_run_end(&report);
            }
        }
        report
    }

    /// Stops every node and joins all their threads.
    pub fn shutdown(&mut self) {
        for node in &mut self.nodes {
            node.shutdown();
        }
    }

    fn synthesize_report(&self, all_decided: bool) -> RunReport {
        let n = self.nodes.len();
        let mut decisions = Vec::with_capacity(n);
        let mut decision_steps = Vec::with_capacity(n);
        let mut decision_phases = Vec::with_capacity(n);
        let mut metrics = Metrics::new(n);
        let mut steps = 0u64;
        let mut max_phase = 0u64;
        for (i, node) in self.nodes.iter().enumerate() {
            let st = node.status();
            decisions.push(st.decision);
            decision_steps.push(st.decision_step);
            decision_phases.push(st.decision_phase);
            steps += st.steps;
            max_phase = max_phase.max(st.phase);
            metrics.steps_by[i] = st.steps;
            metrics.sent_by[i] = node.messages_sent();
            metrics.messages_sent += node.messages_sent();
            metrics.messages_delivered += node.messages_delivered();
            metrics.messages_dropped += node.messages_dropped();
            metrics.recovered += st.recovered;
            metrics.equivocations += node.equivocations();
        }
        let status = if all_decided {
            RunStatus::Stopped
        } else {
            RunStatus::StepLimitReached
        };
        RunReport::synthesize(
            status,
            decisions,
            self.roles.clone(),
            steps,
            decision_steps,
            decision_phases,
            max_phase,
            metrics,
        )
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds the respawn closure for node `i`: everything needed to boot (or
/// re-boot) it from configuration, WAL path included.
#[allow(clippy::too_many_arguments)]
fn respawner<M: Wire + Send + 'static>(
    i: usize,
    n: usize,
    k: usize,
    options: &ClusterOptions,
    addrs: &[SocketAddr],
    make: impl Fn() -> Box<dyn Process<Msg = M> + Send> + Send + 'static,
    subscriber: &Option<SharedSubscriber>,
    registry: Arc<Registry>,
) -> Respawner {
    let seed = options.seed.wrapping_add(i as u64);
    let link_fault = options.link_fault.clone();
    let wal = options.recovery.as_ref().map(|r| r.wal_path(i));
    let snapshot_bytes = options.recovery.as_ref().map_or(0, |r| r.snapshot_bytes);
    let addrs = addrs.to_vec();
    let subscriber = subscriber.clone();
    let mut incarnation: u32 = 0;
    Box::new(move |listener: TcpListener| {
        let cfg = NodeConfig {
            id: ProcessId::new(i),
            n,
            seed,
            k,
            fault: link_fault.clone(),
            // Every respawn is a restart of a node that journalled at
            // least its boot record, so an empty WAL on incarnation ≥ 1
            // is a lost log — amnesia, not a fresh start.
            expect_history: incarnation > 0,
            wal: wal.clone(),
            snapshot_bytes,
            // Every incarnation records into the same registry, so the
            // node's counters survive its own restarts.
            metrics: Some(Arc::clone(&registry)),
        };
        incarnation += 1;
        spawn(cfg, listener, addrs.clone(), make(), subscriber.clone())
    })
}

/// Whether this environment allows binding loopback TCP sockets; tests use
/// it to skip gracefully inside socket-less sandboxes.
#[must_use]
pub fn sockets_available() -> bool {
    TcpListener::bind(("127.0.0.1", 0)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_counts_and_shapes_are_consistent() {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        let options = ClusterOptions {
            seed: 11,
            inputs: vec![Value::One; 4],
            ..ClusterOptions::default()
        };
        let mut cluster =
            Cluster::spawn(4, 1, Proto::FailStop, options, None).expect("loopback spawn");
        let report = cluster.await_verdict(Duration::from_secs(30));
        assert_eq!(report.status, RunStatus::Stopped);
        assert_eq!(report.decisions.len(), 4);
        assert!(report.agreement(), "correct nodes agree");
        assert_eq!(
            report.decisions[0],
            Some(Value::One),
            "validity: all-One input"
        );
        assert!(report.metrics.messages_sent > 0);
        cluster.shutdown();
    }

    #[test]
    fn sockets_probe_is_callable() {
        // Either answer is fine; the probe itself must not panic.
        let _ = sockets_available();
    }

    #[test]
    #[should_panic(expected = "crash-restart faults require")]
    fn crash_schedule_without_recovery_is_refused() {
        if !sockets_available() {
            // Can't exercise the real path; satisfy the expected panic.
            panic!("crash-restart faults require ClusterOptions::recovery");
        }
        let options = ClusterOptions {
            seed: 3,
            link_fault: FaultPlan::reliable().with_crash(
                1,
                Duration::from_millis(10),
                Duration::from_millis(20),
            ),
            ..ClusterOptions::default()
        };
        let _ = Cluster::spawn(4, 1, Proto::FailStop, options, None);
    }
}
