//! A loopback rsm cluster: `n` replicated-log nodes on 127.0.0.1, each
//! with its WAL, its client-facing service, and its metrics registry —
//! the harness behind the integration tests, the example, and `btload`.
//!
//! Every listener (peer-facing and client-facing) is bound before any
//! node boots and its clone is *retained by the harness*, so a killed
//! node's ports survive it: peers keep redialling the same address, and
//! [`RsmCluster::restart`] boots the replacement on the same sockets. A
//! restart recovers the replica from its WAL (snapshot + replay) before
//! the first frame is accepted, re-attaches the service to the recovered
//! [`LogView`], and resumes the gateway's frame numbering from the WAL's
//! sequence table — so re-injected client commands arrive as fresh
//! journaled deliveries, never as equivocations.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bt_core::Config;
use netstack::{spawn, FaultPlan, NodeConfig, NodeHandle, NodeStatus};
use obs::metrics::Registry;
use simnet::ProcessId;

use crate::replica::{Replica, RsmOptions};
use crate::service::{GatewayConfig, RsmService, ServiceOptions};
use crate::state::LogView;

/// Cluster shape and tuning.
#[derive(Clone, Debug)]
pub struct RsmClusterOptions {
    /// System size (the resilience is `k = ⌊(n−1)/3⌋`).
    pub n: usize,
    /// Base seed; node `i` runs with `seed + i`.
    pub seed: u64,
    /// Replica pipelining/batching knobs.
    pub replica: RsmOptions,
    /// Service admission/batching knobs.
    pub service: ServiceOptions,
    /// Directory holding one `rsm<i>.wal` per node. Created if absent.
    pub wal_dir: PathBuf,
    /// WAL checkpoint cadence: journaled delivery bytes between snapshots
    /// (0 replays from genesis; see `netstack::NodeConfig::snapshot_bytes`).
    pub snapshot_bytes: u64,
}

impl RsmClusterOptions {
    /// Sensible defaults for an `n`-node cluster journaling under
    /// `wal_dir`.
    #[must_use]
    pub fn new(n: usize, wal_dir: PathBuf) -> Self {
        RsmClusterOptions {
            n,
            seed: 0xb70a_d001,
            replica: RsmOptions::default(),
            service: ServiceOptions::default(),
            wal_dir,
            // ≈ 4096 deliveries of 128 B.
            snapshot_bytes: 512 * 1024,
        }
    }
}

/// One node's slot in the harness: the live handles plus everything
/// needed to rebuild them after a kill.
#[derive(Debug)]
struct NodeSlot {
    node: Option<NodeHandle>,
    service: Option<RsmService>,
    view: LogView,
    registry: Arc<Registry>,
    node_listener: TcpListener,
    client_listener: TcpListener,
    wal: PathBuf,
    incarnation: u32,
}

/// A running loopback cluster. Shuts everything down on drop.
#[derive(Debug)]
pub struct RsmCluster {
    opts: RsmClusterOptions,
    config: Config,
    peers: Vec<SocketAddr>,
    client_addrs: Vec<SocketAddr>,
    slots: Vec<NodeSlot>,
}

impl RsmCluster {
    /// Binds all listeners, creates the WAL directory, and boots every
    /// node and its service.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn/WAL failures.
    ///
    /// # Panics
    ///
    /// Panics if `opts.n` is 0.
    pub fn start(opts: RsmClusterOptions) -> io::Result<RsmCluster> {
        assert!(opts.n >= 1, "a cluster needs at least one node");
        let k = (opts.n - 1) / 3;
        let config = Config::malicious(opts.n, k)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        std::fs::create_dir_all(&opts.wal_dir)?;

        let mut node_listeners = Vec::with_capacity(opts.n);
        let mut client_listeners = Vec::with_capacity(opts.n);
        let mut peers = Vec::with_capacity(opts.n);
        let mut client_addrs = Vec::with_capacity(opts.n);
        for _ in 0..opts.n {
            let nl = TcpListener::bind("127.0.0.1:0")?;
            peers.push(nl.local_addr()?);
            node_listeners.push(nl);
            let cl = TcpListener::bind("127.0.0.1:0")?;
            client_addrs.push(cl.local_addr()?);
            client_listeners.push(cl);
        }

        let mut slots = Vec::with_capacity(opts.n);
        for (i, (nl, cl)) in node_listeners.into_iter().zip(client_listeners).enumerate() {
            slots.push(NodeSlot {
                node: None,
                service: None,
                view: LogView::new(),
                registry: Arc::new(Registry::new()),
                node_listener: nl,
                client_listener: cl,
                wal: opts.wal_dir.join(format!("rsm{i}.wal")),
                incarnation: 0,
            });
        }

        let mut cluster = RsmCluster {
            opts,
            config,
            peers,
            client_addrs,
            slots,
        };
        for i in 0..cluster.slots.len() {
            cluster.boot(i)?;
        }
        Ok(cluster)
    }

    /// Boots (or re-boots) node `i` on its retained listeners: replica
    /// first (recovering from the WAL if it has history), then the
    /// service, with the gateway resuming from the recovered sequence
    /// table.
    fn boot(&mut self, i: usize) -> io::Result<()> {
        let id = ProcessId::new(i);
        let slot = &mut self.slots[i];
        // The replica rebuilds the applied state deterministically during
        // WAL replay. The snapshot path resets the shared view itself, but
        // a from-genesis replay (no checkpoint yet) re-applies from slot 0
        // — which must land on an empty fold, not on the pre-kill state
        // still held by the retained view.
        slot.view
            .update(|a| *a = crate::state::AppliedState::default());
        let replica = Replica::new(self.config, id, self.opts.replica)
            .with_view(slot.view.clone())
            .with_metrics(&slot.registry);
        let cfg = NodeConfig {
            id,
            n: self.opts.n,
            seed: self.opts.seed.wrapping_add(i as u64),
            k: self.config.k(),
            fault: FaultPlan::default(),
            // A restart follows a kill whose WAL journaled at least the
            // boot record — an empty file then means the log was lost.
            expect_history: slot.incarnation > 0,
            wal: Some(slot.wal.clone()),
            snapshot_bytes: self.opts.snapshot_bytes,
            metrics: Some(Arc::clone(&slot.registry)),
        };
        slot.incarnation += 1;
        let node = spawn(
            cfg,
            slot.node_listener.try_clone()?,
            self.peers.clone(),
            Box::new(replica),
            None,
        )?;
        let gateway = GatewayConfig {
            me: id,
            node_addr: self.peers[i],
            initial_seq: node.next_expected_from(id),
        };
        let service = RsmService::spawn(
            slot.client_listener.try_clone()?,
            gateway,
            slot.view.clone(),
            self.opts.service,
            &slot.registry,
        )?;
        slot.node = Some(node);
        slot.service = Some(service);
        Ok(())
    }

    /// System size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.opts.n
    }

    /// The client-facing service address of node `i`.
    #[must_use]
    pub fn client_addr(&self, i: usize) -> SocketAddr {
        self.client_addrs[i]
    }

    /// Every node's client-facing service address.
    #[must_use]
    pub fn client_addrs(&self) -> &[SocketAddr] {
        &self.client_addrs
    }

    /// Node `i`'s applied-state view (live even while the node is down).
    #[must_use]
    pub fn view(&self, i: usize) -> LogView {
        self.slots[i].view.clone()
    }

    /// Node `i`'s metrics registry (shared across restarts).
    #[must_use]
    pub fn registry(&self, i: usize) -> Arc<Registry> {
        Arc::clone(&self.slots[i].registry)
    }

    /// Node `i`'s protocol status, if it is up.
    #[must_use]
    pub fn status(&self, i: usize) -> Option<NodeStatus> {
        self.slots[i].node.as_ref().map(NodeHandle::status)
    }

    /// Whether node `i` is currently up.
    #[must_use]
    pub fn is_up(&self, i: usize) -> bool {
        self.slots[i].node.is_some()
    }

    /// Kills node `i`: tears down its service and node threads abruptly
    /// (no protocol goodbye — peers see a dead connection, exactly as
    /// after a crash). The WAL keeps everything the node journaled; the
    /// listeners stay bound for the replacement.
    pub fn kill(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        // Service first: its gateway would otherwise spin redialling the
        // dead node for the whole teardown.
        if let Some(mut s) = slot.service.take() {
            s.shutdown();
        }
        if let Some(mut n) = slot.node.take() {
            n.shutdown();
        }
    }

    /// Restarts a killed node `i` from its WAL on its original ports.
    ///
    /// # Errors
    ///
    /// Propagates spawn/WAL failures.
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        assert!(
            self.slots[i].node.is_none(),
            "kill node {i} before restarting it"
        );
        self.boot(i)
    }

    /// Polls until every *live* node reports the same applied length and
    /// digest twice in a row with no growth in between (the cluster went
    /// quiescent and identical), or `timeout` elapses. Returns the common
    /// `(applied, digest)` on success.
    #[must_use]
    pub fn await_identical(&self, timeout: Duration) -> Option<(u64, u64)> {
        let deadline = Instant::now() + timeout;
        let mut last: Option<Vec<(u64, u64)>> = None;
        loop {
            let now: Vec<(u64, u64)> = self
                .slots
                .iter()
                .filter(|s| s.node.is_some())
                .map(|s| s.view.with(|a| (a.next_slot(), a.digest())))
                .collect();
            let uniform = now.windows(2).all(|w| w[0] == w[1]);
            if uniform && !now.is_empty() && last.as_ref() == Some(&now) {
                return Some(now[0]);
            }
            if Instant::now() >= deadline {
                return None;
            }
            last = Some(now);
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    /// Shuts every node and service down.
    pub fn shutdown(&mut self) {
        for i in 0..self.slots.len() {
            self.kill(i);
        }
    }
}

impl Drop for RsmCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
