//! The rsm workloads: closed-loop client load against an in-process
//! 5-node [`RsmCluster`] on loopback, optionally under a rotating
//! kill/restart schedule.
//!
//! Load shape: two load threads, each one client with one connection,
//! bound to nodes 0 and 1. A client sends its next command only after the
//! previous one is acknowledged `Committed`. No delay is injected between
//! nodes (loopback, empty `FaultPlan`), so latency is processor time plus
//! loopback. The main thread only coordinates: it boots each episode's
//! cluster, opens and closes its window and runs the kill schedule.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use netstack::{BootRecord, DeliveryRecord, Wal, WalRecord};
use obs::json::Json;
use obs::metrics::{HistogramSnapshot, Snapshot};
use prng::Prng;
use rsm::{ClientResp, Op, RsmClient, RsmCluster, RsmClusterOptions};
use simnet::{ProcessId, Wire};

use crate::measure::{
    counter_delta, hist_q, histogram_delta, machine_cpu_jiffies, median, median_or_nan,
    peak_rss_mb, process_cpu_ms, quantile, ratio, steal_frac,
};
use crate::trace::{self_time_ns, total_time_ns, Recorder, Span};
use crate::{Outcome, RunConfig};

/// System size.
const NODES: usize = 5;
/// Load threads, one client connection each.
const CLIENTS: usize = 2;
/// Client id of the set-up probe op (load clients are 1 and 2).
const SETUP_CLIENT: u64 = 100;
/// An op not committed within this long counts as failed.
const OP_DEADLINE: Duration = Duration::from_secs(30);
/// Socket read timeout: above the service's own 10 s propose timeout, so
/// it only fires when the service is gone.
const READ_TIMEOUT: Duration = Duration::from_secs(15);
/// Longest wait for any one step of the kill schedule or the final checks.
const STEP_DEADLINE: Duration = Duration::from_secs(60);
/// Traced runs trace ops in blocks of this length, in the pattern
/// untraced, traced, traced, untraced (repeated), so the tracing overhead
/// is measured within one run and a steady drift in throughput cancels.
const TRACE_BLOCK: Duration = Duration::from_secs(1);

/// Whether block `b` of a traced run is traced.
fn traced_block(b: u64) -> bool {
    matches!(b % 4, 1 | 2)
}
/// Window slice over which `outage_ms` takes the longest commit gap when
/// there is no kill cycle.
const GAP_BLOCK: Duration = Duration::from_secs(1);

/// What distinguishes the two rsm workloads.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Bytes per `Put` value.
    pub value_bytes: usize,
    /// Whether the kill/restart schedule runs.
    pub kills: bool,
}

impl Shape {
    /// `rsm-steady`: 64 B values, no faults.
    #[must_use]
    pub fn steady() -> Self {
        Shape {
            value_bytes: 64,
            kills: false,
        }
    }

    /// `rsm-kill`: 1 KiB values, rotating kill/restart.
    #[must_use]
    pub fn kill() -> Self {
        Shape {
            value_bytes: 1024,
            kills: true,
        }
    }
}

/// One client op as the client saw it.
#[derive(Debug)]
struct OpRecord {
    key: Vec<u8>,
    value: Vec<u8>,
    started: Instant,
    acked: Instant,
    /// Proposals sent (first try plus retries).
    attempts: u64,
    committed: bool,
    /// Issued after the window opened.
    in_window: bool,
    traced: bool,
}

/// One kill → caught-up cycle.
#[derive(Debug)]
struct Cycle {
    victim: usize,
    killed_at: Instant,
    caught_up_at: Instant,
    kill_call: Duration,
    restart_call: Duration,
    catchup: Duration,
}

/// State the load threads share with the coordinator.
struct Shared {
    stop: AtomicBool,
    /// Commits acknowledged inside the window.
    committed: AtomicU64,
    /// rsm-steady: the window closes at this many commits (0: the
    /// coordinator closes it).
    target: u64,
    /// When the `target`-th commit was counted.
    window_end: std::sync::OnceLock<Instant>,
    warmup: Barrier,
    go: Barrier,
    window_start: std::sync::OnceLock<Instant>,
}

/// Runs one rsm workload.
#[must_use]
pub fn run(cfg: &RunConfig, shape: Shape) -> Outcome {
    let mut out = Outcome::default();
    let name = if shape.kills {
        "rsm-kill"
    } else {
        "rsm-steady"
    };
    let run_dir = cfg
        .out_dir
        .join(format!("{name}-{}-{}", cfg.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        out.problem(format!("cannot create {}: {e}", run_dir.display()));
        return out;
    }
    let result = drive(cfg, shape, name, &run_dir, &mut out);
    if let Err(e) = result {
        out.problem(e);
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    out
}

/// Boots a cluster under `dir` and waits for one committed op through
/// node 0, returning the cluster and the op's key and value.
fn boot(dir: &Path, seed: u64) -> Result<(RsmCluster, Vec<u8>, Vec<u8>), String> {
    let cluster = RsmCluster::start(RsmClusterOptions::new(NODES, dir.to_path_buf()))
        .map_err(|e| format!("cluster start failed: {e}"))?;
    let key = format!("setup-{seed:016x}").into_bytes();
    let value = seed.to_le_bytes().to_vec();
    let mut c = RsmClient::connect(cluster.client_addr(0), SETUP_CLIENT)
        .map_err(|e| format!("cannot reach node 0: {e}"))?;
    c.set_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("socket option: {e}"))?;
    let op = Op::Put {
        key: key.clone(),
        value: value.clone(),
    };
    match c.propose_with_retry(op, OP_DEADLINE) {
        Ok(ClientResp::Committed { .. }) => Ok((cluster, key, value)),
        other => Err(format!("set-up op did not commit: {other:?}")),
    }
}

/// One episode: a fresh cluster, its ops, and what the coordinator
/// measured around its window.
struct Episode {
    records: Vec<OpRecord>,
    window: Window,
    /// The converged `(applied, digest)`, when the replicas converged.
    converged: Option<(u64, u64)>,
}

/// Runs one rsm workload as back-to-back episodes. Each boots a fresh
/// cluster, warms it up, measures a window of fixed work (rsm-steady:
/// `episode_ops` commits; rsm-kill: `episode_cycles` kill cycles), runs
/// the correctness checks and shuts the cluster down. Fixed work keeps
/// every episode's log, WAL and memory the same size whatever the machine's
/// speed, and the median over episodes damps a slow stretch of the host.
/// Episodes start while the previous one's length still fits in the run's
/// `window`; the first always runs.
fn drive(
    cfg: &RunConfig,
    shape: Shape,
    name: &str,
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up is everything before an episode's window: boot, the first
    // commit, the warm-up ops. A boot alone is bimodal (~6 or ~12 ms, as
    // the nodes' first dials race their peers' listeners), so its median
    // flips between runs; the warm-up dilutes that race to a few percent,
    // and work moved out of the boot into the first ops still counts.
    let mut setups = Vec::new();
    let epoch = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut last = Duration::ZERO;
    while episodes.is_empty() || epoch.elapsed() + last <= cfg.window {
        let e = episodes.len() as u64;
        let dir = run_dir.join(format!("episode{e}"));
        let t0 = Instant::now();
        let booted = boot(&dir, cfg.seed ^ e)?;
        let ep = episode(cfg, shape, e, booted, &dir, epoch, &mut spans, out);
        let _ = std::fs::remove_dir_all(&dir);
        let ep = ep?;
        setups.push((ep.window.start - t0).as_secs_f64());
        episodes.push(ep);
        last = t0.elapsed();
    }
    out.e2e("setup_s", median(&setups));
    out.detail(
        "setup_samples_s",
        Json::Arr(setups.iter().map(|&t| Json::Num(t)).collect()),
    );

    end_to_end(cfg, &episodes, out);
    out.detail(
        "keys_verified",
        Json::num(episodes.iter().map(|e| 1 + e.committed()).sum::<u64>()),
    );
    out.detail(
        "converged",
        Json::Arr(
            episodes
                .iter()
                .map(|e| {
                    e.converged.map_or(Json::Null, |(applied, digest)| {
                        Json::Arr(vec![
                            Json::num(applied),
                            Json::str(format!("{digest:016x}")),
                        ])
                    })
                })
                .collect(),
        ),
    );
    if cfg.trace {
        per_layer(cfg, name, &episodes, &spans, run_dir, out);
    }
    out.e2e("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// Episode `e` on the freshly booted cluster: warm-up, the timed window,
/// the checks. The cluster is shut down when this returns.
#[allow(clippy::too_many_arguments)]
fn episode(
    cfg: &RunConfig,
    shape: Shape,
    e: u64,
    booted: (RsmCluster, Vec<u8>, Vec<u8>),
    wal_dir: &Path,
    epoch: Instant,
    spans: &mut Vec<Span>,
    out: &mut Outcome,
) -> Result<Episode, String> {
    let (mut cluster, setup_key, setup_value) = booted;
    let shared = Shared {
        stop: AtomicBool::new(false),
        committed: AtomicU64::new(0),
        target: if shape.kills { 0 } else { cfg.episode_ops },
        window_end: std::sync::OnceLock::new(),
        warmup: Barrier::new(CLIENTS + 1),
        go: Barrier::new(CLIENTS + 1),
        window_start: std::sync::OnceLock::new(),
    };
    let addrs: Vec<SocketAddr> = (0..CLIENTS).map(|c| cluster.client_addr(c)).collect();
    // Span ids start with their recorder's number; each episode numbers
    // its recorders afresh so ids stay unique over the run.
    let recorders = e * (CLIENTS as u64 + 1);
    let mut main_rec = Recorder::new(epoch, recorders);

    let (client_logs, window) = std::thread::scope(|s| {
        let handles: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(c, &addr)| {
                let shared = &shared;
                let load = Load {
                    cfg,
                    shape,
                    episode: e,
                    client: 1 + c as u64,
                    recorder: recorders + 1 + c as u64,
                };
                s.spawn(move || client_loop(load, addr, epoch, shared))
            })
            .collect();
        shared.warmup.wait();
        let start = Instant::now();
        shared.window_start.set(start).expect("window opens once");
        let before = merged_snapshot(&cluster);
        let cpu_before = process_cpu_ms();
        let machine_before = machine_cpu_jiffies();
        shared.go.wait();

        let mut cycles = Vec::new();
        let sched = if shape.kills {
            kill_schedule(cfg, e, &mut cluster, &shared, &mut cycles, &mut main_rec)
        } else {
            await_target(&shared)
        };
        let end = shared
            .window_end
            .get()
            .copied()
            .unwrap_or_else(Instant::now);
        let cpu_after = process_cpu_ms();
        let steal = steal_frac(machine_before, machine_cpu_jiffies());
        let after = merged_snapshot(&cluster);
        let wal = wal_delivery_sizes(wal_dir);
        shared.stop.store(true, Ordering::SeqCst);
        let logs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let window = Window {
            start,
            end,
            cpu_ms: cpu_after - cpu_before,
            steal,
            before,
            after,
            cycles,
            wal,
            sched_err: sched.err(),
        };
        (logs, window)
    });
    if let Some(err) = &window.sched_err {
        out.problem(format!("episode {e}: {err}"));
    }

    // A kill schedule cut short can leave a node down; the checks need
    // every replica up.
    for i in 0..NODES {
        if !cluster.is_up(i) {
            cluster
                .restart(i)
                .map_err(|err| format!("episode {e}: final restart of node {i} failed: {err}"))?;
        }
    }

    let mut records = Vec::new();
    for (recs, rec) in client_logs {
        records.extend(recs);
        spans.extend(rec.into_spans());
    }
    spans.extend(main_rec.into_spans());
    let converged = check(&cluster, e, &records, &setup_key, &setup_value, out);
    cluster.shutdown();
    Ok(Episode {
        records,
        window,
        converged,
    })
}

/// rsm-steady's coordinator: waits until the clients have counted the
/// episode's commits.
fn await_target(shared: &Shared) -> Result<(), String> {
    let waited = Instant::now();
    while shared.window_end.get().is_none() {
        if waited.elapsed() > STEP_DEADLINE {
            return Err(format!(
                "{} of {} commits within {STEP_DEADLINE:?}",
                shared.committed.load(Ordering::SeqCst),
                shared.target
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// What the coordinator measured around the timed window.
struct Window {
    start: Instant,
    end: Instant,
    cpu_ms: f64,
    steal: f64,
    before: Snapshot,
    after: Snapshot,
    cycles: Vec<Cycle>,
    /// Delivery records in the WAL files at window end: (count, framed
    /// bytes, payload bytes).
    wal: (u64, u64, u64),
    sched_err: Option<String>,
}

impl Window {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn contains(&self, t: Instant) -> bool {
        t >= self.start && t <= self.end
    }

    /// The window's whole `block`-long pieces (a window shorter than
    /// `block` is one piece; a shorter tail is left out).
    fn blocks(&self, block: Duration) -> Vec<(Instant, Instant)> {
        let whole = (self.secs() / block.as_secs_f64()).floor() as u32;
        (0..whole.max(1))
            .map(|b| {
                let from = self.start + block * b;
                (from, (from + block).min(self.end))
            })
            .collect()
    }
}

impl Episode {
    /// Ops issued after the window opened and acknowledged inside it.
    fn window_ops(&self) -> impl Iterator<Item = &OpRecord> {
        self.records
            .iter()
            .filter(|r| r.in_window && r.committed && self.window.contains(r.acked))
    }

    /// Acknowledged ops of the episode, warm-up and window alike.
    fn committed(&self) -> u64 {
        self.records.iter().filter(|r| r.committed).count() as u64
    }

    /// Acknowledgement times of every committed op, sorted.
    fn acks(&self) -> Vec<Instant> {
        let mut acks: Vec<Instant> = self
            .records
            .iter()
            .filter(|r| r.committed)
            .map(|r| r.acked)
            .collect();
        acks.sort();
        acks
    }
}

fn merged_snapshot(cluster: &RsmCluster) -> Snapshot {
    let mut merged = Snapshot::default();
    for i in 0..cluster.n() {
        merged.merge(&cluster.registry(i).snapshot());
    }
    merged
}

/// Who one load thread is.
#[derive(Clone, Copy)]
struct Load<'a> {
    cfg: &'a RunConfig,
    shape: Shape,
    episode: u64,
    /// Client id (1 or 2), also the index of its node plus one.
    client: u64,
    /// Its span recorder's number.
    recorder: u64,
}

/// One load thread: warm-up ops, then closed-loop ops until stopped.
fn client_loop(
    load: Load<'_>,
    addr: SocketAddr,
    epoch: Instant,
    shared: &Shared,
) -> (Vec<OpRecord>, Recorder) {
    let Load {
        cfg,
        shape,
        episode,
        client,
        recorder,
    } = load;
    let mut rng = Prng::seed_from_u64(
        cfg.seed ^ (episode << 32) ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut rec = Recorder::new(epoch, recorder);
    let mut conn: Option<RsmClient> = None;
    let mut records = Vec::new();
    let mut request = 0u64;
    let mut issue =
        |in_window: bool, traced: bool, conn: &mut Option<RsmClient>, rec: &mut Recorder| {
            request += 1;
            let key =
                format!("e{episode}-c{client}-{request}-{:016x}", rng.next_u64()).into_bytes();
            let mut value = Vec::with_capacity(shape.value_bytes + 8);
            while value.len() < shape.value_bytes {
                value.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            value.truncate(shape.value_bytes);
            let op_rec = one_op(
                addr,
                client,
                request,
                key,
                value,
                &mut rng,
                conn,
                traced.then_some(rec),
            );
            OpRecord {
                in_window,
                traced,
                ..op_rec
            }
        };
    for _ in 0..cfg.warmup_ops {
        records.push(issue(false, false, &mut conn, &mut rec));
    }
    shared.warmup.wait();
    shared.go.wait();
    let start = *shared.window_start.get().expect("window opened");
    while !shared.stop.load(Ordering::SeqCst) {
        let block = (start.elapsed().as_nanos() / TRACE_BLOCK.as_nanos()) as u64;
        let traced = cfg.trace && traced_block(block);
        let r = issue(true, traced, &mut conn, &mut rec);
        if r.committed {
            let n = shared.committed.fetch_add(1, Ordering::SeqCst) + 1;
            if n == shared.target {
                // Every op counted before this one was acknowledged before
                // this instant.
                let _ = shared.window_end.set(Instant::now());
                shared.stop.store(true, Ordering::SeqCst);
            }
        }
        records.push(r);
    }
    (records, rec)
}

/// Drives one op to `Committed`: propose, then retry the same request id
/// through `Busy`/`Timeout` (exponential backoff, 2 ms doubling to a
/// 200 ms cap, jittered) and through connection loss (reconnect to the
/// same node), until [`OP_DEADLINE`].
#[allow(clippy::too_many_arguments)]
fn one_op(
    addr: SocketAddr,
    client: u64,
    request: u64,
    key: Vec<u8>,
    value: Vec<u8>,
    rng: &mut Prng,
    conn: &mut Option<RsmClient>,
    mut rec: Option<&mut Recorder>,
) -> OpRecord {
    let op = Op::Put {
        key: key.clone(),
        value: value.clone(),
    };
    let k = Some((client, request));
    let started = Instant::now();
    let op_id = rec.as_mut().map(|r| r.id());
    let mut attempts = 0u64;
    let mut backoff = Duration::from_millis(2);
    let mut committed = false;
    while started.elapsed() < OP_DEADLINE {
        if conn.is_none() {
            let t = Instant::now();
            let fresh = RsmClient::connect(addr, client).and_then(|mut c| {
                c.set_timeout(Some(READ_TIMEOUT))?;
                Ok(c)
            });
            match fresh {
                Ok(c) => *conn = Some(c),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
            if let (Some(r), Some(id)) = (rec.as_mut(), op_id) {
                r.child(id, "reconnect", None, t, Instant::now());
            }
            continue;
        }
        let c = conn.as_mut().expect("connected above");
        let t = Instant::now();
        let resp = if attempts == 0 {
            c.seek_request(request);
            c.propose(op.clone())
        } else {
            c.retry(request, op.clone())
        };
        if let (Some(r), Some(id)) = (rec.as_mut(), op_id) {
            let what = if attempts == 0 { "propose" } else { "retry" };
            r.child(id, what, k, t, Instant::now());
        }
        attempts += 1;
        match resp {
            Ok(ClientResp::Committed { .. }) => {
                committed = true;
                break;
            }
            Ok(ClientResp::Busy | ClientResp::Timeout) => {
                let half = backoff / 2;
                let jitter = rng.next_u64() % (half.as_micros() as u64 + 1);
                let t = Instant::now();
                std::thread::sleep(half + Duration::from_micros(jitter));
                if let (Some(r), Some(id)) = (rec.as_mut(), op_id) {
                    r.child(id, "backoff", None, t, Instant::now());
                }
                backoff = (backoff * 2).min(Duration::from_millis(200));
            }
            // An answer that is not a verdict on a proposal: the op fails.
            Ok(_) => break,
            Err(_) => *conn = None,
        }
    }
    let acked = Instant::now();
    if let (Some(r), Some(id)) = (rec, op_id) {
        r.record(id, None, "op", k, started, acked);
    }
    OpRecord {
        key,
        value,
        started,
        acked,
        attempts,
        committed,
        in_window: false,
        traced: false,
    }
}

/// The rotating kill schedule: after every `commits_per_cycle` in-window
/// commits, kill the next victim, hold it down for `downtime`, restart it
/// from its WAL and wait until its log reaches the head the live nodes had
/// at restart time. The window closes when the episode's last cycle has
/// caught up.
fn kill_schedule(
    cfg: &RunConfig,
    e: u64,
    cluster: &mut RsmCluster,
    shared: &Shared,
    cycles: &mut Vec<Cycle>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let order = victim_order(cfg.seed);
    while (cycles.len() as u64) < cfg.episode_cycles {
        let base = shared.committed.load(Ordering::SeqCst);
        let waited = Instant::now();
        while shared.committed.load(Ordering::SeqCst) < base + cfg.commits_per_cycle {
            if waited.elapsed() > STEP_DEADLINE {
                return Err(format!(
                    "no {} commits within {STEP_DEADLINE:?} before kill {}",
                    cfg.commits_per_cycle,
                    cycles.len()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The victims carry on from episode to episode.
        let victim = order[(e * cfg.episode_cycles + cycles.len() as u64) as usize % order.len()];
        let t_kill = Instant::now();
        cluster.kill(victim);
        let t_killed = Instant::now();
        std::thread::sleep(cfg.downtime);
        let head = (0..cluster.n())
            .filter(|&i| cluster.is_up(i))
            .map(|i| cluster.view(i).with(|a| a.next_slot()))
            .max()
            .unwrap_or(0);
        let t_restart = Instant::now();
        cluster
            .restart(victim)
            .map_err(|e| format!("restart of node {victim} failed: {e}"))?;
        let t_restarted = Instant::now();
        let view = cluster.view(victim);
        while view.with(|a| a.next_slot()) < head {
            if t_restarted.elapsed() > STEP_DEADLINE {
                return Err(format!("node {victim} did not catch up to slot {head}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let t_caught = Instant::now();
        if cfg.trace {
            let root = rec.id();
            rec.record(root, None, "outage", None, t_kill, t_caught);
            rec.child(root, "kill", None, t_kill, t_killed);
            rec.child(root, "downtime", None, t_killed, t_restart);
            let restart = rec.child(root, "restart", None, t_restart, t_caught);
            rec.child(restart, "restart_call", None, t_restart, t_restarted);
            rec.child(restart, "catchup", None, t_restarted, t_caught);
        }
        cycles.push(Cycle {
            victim,
            killed_at: t_kill,
            caught_up_at: t_caught,
            kill_call: t_killed - t_kill,
            restart_call: t_restarted - t_restart,
            catchup: t_caught - t_restarted,
        });
    }
    Ok(())
}

/// The victims in kill order: a seeded permutation of the nodes, repeated,
/// so every node goes down once per round.
fn victim_order(seed: u64) -> Vec<usize> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x6b69_6c6c);
    let mut order: Vec<usize> = (0..NODES).collect();
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Delivery records in each node's WAL (`rsm<i>.wal`) right now:
/// (count, framed bytes, payload bytes). Reads only; a record the node is
/// still writing ends the scan.
fn wal_delivery_sizes(dir: &Path) -> (u64, u64, u64) {
    let mut total = (0, 0, 0);
    for i in 0..NODES {
        let Ok(bytes) = std::fs::read(dir.join(format!("rsm{i}.wal"))) else {
            continue;
        };
        let mut pos = 0usize;
        while bytes.len() - pos >= 8 {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let Some(body) = bytes.get(pos + 8..pos + 8 + len) else {
                break;
            };
            if let Ok(WalRecord::Delivery(d)) = WalRecord::from_bytes(body) {
                total.0 += 1;
                total.1 += 8 + len as u64;
                total.2 += d.payload.len() as u64;
            }
            pos += 8 + len;
        }
    }
    total
}

/// Median time of `Wal::append` for a delivery record with a
/// `payload`-byte body, on a log of the benchmark's own.
fn probe_wal_append(dir: &Path, payload: usize) -> Result<f64, String> {
    let path = dir.join("probe.wal");
    let (mut wal, _) = Wal::open(&path).map_err(|e| format!("probe WAL: {e}"))?;
    let boot = WalRecord::Boot(BootRecord {
        node: ProcessId::new(0),
        n: NODES,
        seed: 0,
    });
    wal.append(&boot).map_err(|e| format!("probe WAL: {e}"))?;
    let mut samples = Vec::new();
    for seq in 0..2000u64 {
        let rec = WalRecord::Delivery(DeliveryRecord {
            from: ProcessId::new(1),
            seq: Some(seq),
            payload: vec![0x5a; payload],
        });
        let t = Instant::now();
        wal.append(&rec).map_err(|e| format!("probe WAL: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    Ok(median(&samples))
}

/// Longest gap between consecutive acknowledgements in `acks` (sorted)
/// whose later end falls in `(from, to]`, the gap straddling `to`
/// included.
fn longest_gap(acks: &[Instant], from: Instant, to: Instant) -> Option<Duration> {
    let first = acks.partition_point(|&t| t <= from);
    let last = acks.partition_point(|&t| t <= to);
    let lo = first.saturating_sub(1);
    let hi = (last + 1).min(acks.len());
    acks[lo..hi].windows(2).map(|w| w[1] - w[0]).max()
}

fn end_to_end(cfg: &RunConfig, episodes: &[Episode], out: &mut Outcome) {
    let ops = |e: &Episode| e.window_ops().count() as f64;
    // Client latencies of each episode's window ops, sorted.
    let lats: Vec<Vec<f64>> = episodes
        .iter()
        .map(|e| {
            let mut lat: Vec<f64> = e
                .window_ops()
                .map(|r| (r.acked - r.started).as_secs_f64() * 1e3)
                .collect();
            lat.sort_by(f64::total_cmp);
            lat
        })
        .collect();
    // The longest gap between acknowledgements per cycle of each episode:
    // a kill cycle on rsm-kill, a 1 s block of the window on rsm-steady.
    let gaps: Vec<Vec<f64>> = episodes
        .iter()
        .map(|e| {
            let acks = e.acks();
            let cycles: Vec<(Instant, Instant)> = if e.window.cycles.is_empty() {
                e.window.blocks(GAP_BLOCK)
            } else {
                e.window
                    .cycles
                    .iter()
                    .map(|c| (c.killed_at, c.caught_up_at))
                    .collect()
            };
            cycles
                .into_iter()
                .filter_map(|(from, to)| longest_gap(&acks, from, to))
                .map(|d| d.as_secs_f64() * 1e3)
                .collect()
        })
        .collect();
    let rates: Vec<f64> = episodes.iter().map(|e| ops(e) / e.window.secs()).collect();
    let cpu_per_op: Vec<f64> = episodes.iter().map(|e| e.window.cpu_ms / ops(e)).collect();
    let q = |lat: &[f64], p: f64| quantile(lat, p).unwrap_or(f64::NAN);
    let p50s: Vec<f64> = lats.iter().map(|l| q(l, 0.50)).collect();
    // Each episode is one measurement, and the run reports the median
    // episode, so a neighbour's burst over part of a run moves it little.
    // The tails pool the run: an episode holds too few ops and cycles for
    // a p99 or a median outage of its own.
    let mut all = lats.concat();
    all.sort_by(f64::total_cmp);
    let p99 = q(&all, 0.99);
    let outage = median_or_nan(&gaps.concat());
    out.e2e("ops_per_s", median_or_nan(&rates));
    out.e2e("op_p50_ms", median_or_nan(&p50s));
    out.e2e("op_p99_ms", p99);
    out.e2e("cpu_ms_per_op", median_or_nan(&cpu_per_op));
    out.e2e("outage_ms", outage);
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let per_episode =
        |f: &dyn Fn(&Episode) -> f64| nums(&episodes.iter().map(f).collect::<Vec<_>>());
    out.detail("episodes", Json::num(episodes.len() as u64));
    out.detail("episode_window_s", per_episode(&|e| e.window.secs()));
    out.detail("episode_ops", per_episode(&ops));
    out.detail("episode_ops_per_s", nums(&rates));
    out.detail("episode_op_p50_ms", nums(&p50s));
    out.detail("episode_cpu_ms_per_op", nums(&cpu_per_op));
    out.detail("episode_steal_frac", per_episode(&|e| e.window.steal));
    let window_ops: usize = lats.iter().map(Vec::len).sum();
    out.detail("window_ops", Json::num(window_ops as u64));
    out.detail("p99_has_10_beyond", Json::Bool(window_ops >= 1000));
    out.detail(
        "gap_cycles",
        Json::num(gaps.iter().map(Vec::len).sum::<usize>() as u64),
    );
    out.detail(
        "delay_injected",
        Json::str("none: loopback, empty FaultPlan"),
    );
    out.detail(
        "loop",
        Json::str("closed, 2 clients bound to nodes 0 and 1"),
    );
    if episodes.iter().any(|e| !e.window.cycles.is_empty()) {
        out.detail(
            "kills",
            Json::Arr(
                episodes
                    .iter()
                    .flat_map(|e| &e.window.cycles)
                    .map(|c| Json::num(c.victim as u64))
                    .collect(),
            ),
        );
        out.detail("commits_per_cycle", Json::num(cfg.commits_per_cycle));
        // Keys acknowledged within a second of an outage; the read-back
        // check covers them like every other key.
        let near_kill: usize = episodes
            .iter()
            .map(|e| {
                e.records
                    .iter()
                    .filter(|r| r.committed)
                    .filter(|r| {
                        e.window.cycles.iter().any(|c| {
                            r.acked + Duration::from_secs(1) >= c.killed_at
                                && r.acked <= c.caught_up_at + Duration::from_secs(1)
                        })
                    })
                    .count()
            })
            .sum();
        out.detail("keys_acked_near_kills", Json::num(near_kill as u64));
    }
}

/// The correctness checks of episode `e`: every replica converges to one
/// `(applied, digest)`, every op committed, and every acknowledged key
/// reads back its value on every replica. Adds the episode's ops to
/// `attempted` and its failures to `failed`; returns the converged state.
fn check(
    cluster: &RsmCluster,
    e: u64,
    records: &[OpRecord],
    setup_key: &[u8],
    setup_value: &[u8],
    out: &mut Outcome,
) -> Option<(u64, u64)> {
    let acked: Vec<(&[u8], &[u8])> = std::iter::once((setup_key, setup_value))
        .chain(
            records
                .iter()
                .filter(|r| r.committed)
                .map(|r| (r.key.as_slice(), r.value.as_slice())),
        )
        .collect();
    let attempted = 1 + records.len() as u64;
    out.attempted += attempted;
    let uncommitted = records.iter().filter(|r| !r.committed).count() as u64;
    if uncommitted > 0 {
        out.problem(format!("episode {e}: {uncommitted} ops never committed"));
    }
    let converged = cluster.await_identical(STEP_DEADLINE);
    let states: Vec<(u64, u64)> = (0..cluster.n())
        .map(|i| cluster.view(i).with(|a| (a.next_slot(), a.digest())))
        .collect();
    if let Err(err) = check_converged(converged, &states) {
        out.problem(format!("episode {e}: {err}"));
        out.failed += attempted;
        return None;
    }
    let mut bad = vec![false; acked.len()];
    for i in 0..cluster.n() {
        let mut conn = match RsmClient::connect(cluster.client_addr(i), 1000 + i as u64) {
            Ok(c) => c,
            Err(err) => {
                out.problem(format!(
                    "episode {e}: cannot reach node {i} for read-back: {err}"
                ));
                out.failed += attempted;
                return None;
            }
        };
        let _ = conn.set_timeout(Some(READ_TIMEOUT));
        // After one failed read the connection is not trusted again: every
        // remaining key counts as missing instead of waiting out a timeout.
        let mut broken = false;
        let mismatches = check_readback(&acked, |k| {
            if broken {
                return None;
            }
            conn.read(k).unwrap_or_else(|_| {
                broken = true;
                None
            })
        });
        for j in &mismatches {
            bad[*j] = true;
        }
        if !mismatches.is_empty() {
            out.problem(format!(
                "episode {e}: node {i}: {} acknowledged keys missing or wrong",
                mismatches.len()
            ));
        }
    }
    out.failed += uncommitted + bad.iter().filter(|&&b| b).count() as u64;
    converged
}

/// Convergence: the cluster reported one common `(applied, digest)`, and
/// every replica's own state equals it.
///
/// # Errors
///
/// Describes the divergence.
pub fn check_converged(common: Option<(u64, u64)>, states: &[(u64, u64)]) -> Result<(), String> {
    let Some(common) = common else {
        return Err(format!("replicas did not converge: {states:?}"));
    };
    match states.iter().position(|s| *s != common) {
        Some(i) => Err(format!(
            "replica {i} holds {:?}, cluster converged on {common:?}",
            states[i]
        )),
        None => Ok(()),
    }
}

/// Read-back: the indices of the acknowledged `(key, value)` pairs that
/// `read` does not return exactly.
pub fn check_readback(
    acked: &[(&[u8], &[u8])],
    mut read: impl FnMut(&[u8]) -> Option<Vec<u8>>,
) -> Vec<usize> {
    acked
        .iter()
        .enumerate()
        .filter(|(_, (k, v))| read(k).as_deref() != Some(*v))
        .map(|(i, _)| i)
        .collect()
}

#[allow(clippy::too_many_lines)]
fn per_layer(
    cfg: &RunConfig,
    name: &str,
    episodes: &[Episode],
    spans: &[Span],
    run_dir: &Path,
    out: &mut Outcome,
) {
    // Registry figures: each episode's window delta, summed over episodes.
    let count = |name: &str| -> f64 {
        episodes
            .iter()
            .map(|e| counter_delta(&e.window.before, &e.window.after, name))
            .sum()
    };
    let hist = |name: &str| {
        let mut merged = HistogramSnapshot::default();
        for e in episodes {
            merged.merge(&histogram_delta(&e.window.before, &e.window.after, name));
        }
        merged
    };
    let ops = episodes.iter().flat_map(Episode::window_ops).count() as f64;
    let records = || episodes.iter().flat_map(|e| &e.records);
    let proposals: f64 = records()
        .filter(|r| r.in_window)
        .map(|r| r.attempts as f64)
        .sum();
    let client_op = hist("rsm_client_op_us");
    let commit = hist("rsm_commit_latency_us");
    let batch = hist("rsm_batch_commands");
    // Slots counted once per replica: the log grew by this many positions.
    let slots = count("rsm_slots_committed_total") / NODES as f64;
    let frames = count("bt_frames_sent_total");
    let appends = hist("bt_wal_append_us");
    let compact = hist("bt_wal_compact_us");
    let empty_slots = batch
        .buckets
        .iter()
        .find(|&&(i, _)| i == 0)
        .map_or(0, |&(_, c)| c);

    out.layer("rsm.service.op_p50_ms", hist_q(&client_op, 0.5) / 1e3);
    out.layer(
        "rsm.service.busy_frac",
        ratio(count("rsm_client_busy_total"), proposals),
    );
    out.layer("rsm.replica.commit_p50_ms", hist_q(&commit, 0.5) / 1e3);
    out.layer("rsm.replica.commit_p99_ms", hist_q(&commit, 0.99) / 1e3);
    out.layer("rsm.replica.slots_per_op", ratio(slots, ops));
    out.layer(
        "rsm.replica.noop_slot_frac",
        ratio(
            count("rsm_noop_slots_total"),
            count("rsm_slots_committed_total"),
        ),
    );
    // Mean over slots that carried commands (empty gap-fill slots are
    // scheduling artifacts, not batches).
    out.layer(
        "rsm.replica.batch_mean",
        ratio(batch.sum as f64, (batch.count - empty_slots) as f64),
    );
    out.layer(
        "bt-core.deliveries_per_slot",
        ratio(count("bt_msgs_delivered_total"), slots),
    );
    out.layer(
        "bt-core.msgs_per_op",
        ratio(count("bt_msgs_sent_total"), ops),
    );
    out.layer(
        "netstack.frame.encode_p50_us",
        hist_q(&hist("bt_msg_encode_us"), 0.5),
    );
    out.layer(
        "netstack.frame.decode_p50_us",
        hist_q(&hist("bt_msg_decode_us"), 0.5),
    );
    out.layer("netstack.node.frames_per_op", ratio(frames, ops));
    out.layer(
        "netstack.node.write_syscalls_per_frame",
        ratio(count("bt_write_syscalls_total"), frames),
    );
    out.layer(
        "netstack.node.poll_wakeups_per_op",
        ratio(count("bt_poll_wakeups_total"), ops),
    );
    out.layer(
        "netstack.node.ack_rtt_p50_us",
        hist_q(&hist("bt_ack_rtt_us"), 0.5),
    );
    out.layer(
        "netstack.conn.retransmits_per_op",
        ratio(count("bt_retransmits_total"), ops),
    );
    let cycles: Vec<&Cycle> = episodes.iter().flat_map(|e| &e.window.cycles).collect();
    let kills = cycles.len() as f64;
    out.layer(
        "netstack.conn.reconnects_per_kill",
        ratio(count("bt_reconnects_total"), kills),
    );
    out.layer("netstack.wal.append_p50_us", hist_q(&appends, 0.5));
    out.layer("netstack.wal.append_p99_us", hist_q(&appends, 0.99));
    let appends_per_op = ratio(appends.count as f64, ops);
    out.layer("netstack.wal.appends_per_op", appends_per_op);
    out.layer("netstack.wal.compact_p50_ms", hist_q(&compact, 0.5) / 1e3);
    out.layer(
        "netstack.wal.compactions_per_kop",
        ratio(count("bt_wal_compactions_total") * 1e3, ops),
    );
    // Appended bytes per op: appends times the mean framed delivery record
    // in the WAL files at window end.
    let (recs, framed, payload) = episodes.iter().fold((0, 0, 0), |t, e| {
        (
            t.0 + e.window.wal.0,
            t.1 + e.window.wal.1,
            t.2 + e.window.wal.2,
        )
    });
    out.layer(
        "netstack.wal.bytes_per_op",
        appends_per_op * ratio(framed as f64, recs as f64),
    );
    let mean_payload = ratio(payload as f64, recs as f64).round() as usize;
    match probe_wal_append(run_dir, mean_payload) {
        Ok(us) => out.layer("netstack.wal.probe_append_us", us),
        Err(e) => out.problem(e),
    }

    let cyc_ms = |f: &dyn Fn(&Cycle) -> Duration| -> f64 {
        median(
            &cycles
                .iter()
                .map(|c| f(c).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    out.layer("recovery.kill_call_ms", cyc_ms(&|c| c.kill_call));
    out.layer("recovery.restart_call_ms", cyc_ms(&|c| c.restart_call));
    out.layer(
        "recovery.replay_ms",
        hist_q(&hist("bt_recovery_replay_us"), 0.5) / 1e3,
    );
    out.layer(
        "recovery.replayed_deliveries",
        ratio(count("bt_recovered_deliveries_total"), kills),
    );
    out.layer("recovery.catchup_ms", cyc_ms(&|c| c.catchup));

    // Client-side self times, per traced op.
    let traced_ops = spans.iter().filter(|s| s.name == "op").count() as f64;
    let selfs = self_time_ns(spans);
    let totals = total_time_ns(spans);
    let per_op_ms = |v: Option<&u64>| ratio(v.copied().unwrap_or(0) as f64 / 1e6, traced_ops);
    out.layer("client.self_ms_per_op", per_op_ms(selfs.get("op")));
    let rpc =
        totals.get("propose").copied().unwrap_or(0) + totals.get("retry").copied().unwrap_or(0);
    out.layer("client.rpc_ms_per_op", per_op_ms(Some(&rpc)));
    out.layer("client.backoff_ms_per_op", per_op_ms(totals.get("backoff")));
    out.layer(
        "client.reconnect_ms_per_op",
        per_op_ms(totals.get("reconnect")),
    );
    out.layer("client.attempts_per_op", ratio(proposals, ops));

    // Tracing overhead: traced blocks against untraced ones, over the
    // whole blocks of every window.
    let mut done = [0f64; 2];
    let mut span_of = [0f64; 2];
    for e in episodes {
        let w = &e.window;
        let blocks = (w.secs() / TRACE_BLOCK.as_secs_f64()).floor() as u32;
        for blk in 0..blocks {
            let from = w.start + TRACE_BLOCK * blk;
            let to = from + TRACE_BLOCK;
            let n = e
                .window_ops()
                .filter(|r| r.acked > from && r.acked <= to)
                .count();
            let i = usize::from(traced_block(u64::from(blk)));
            done[i] += n as f64;
            span_of[i] += 1.0;
        }
    }
    let rate = |i: usize| ratio(done[i], span_of[i]);
    out.layer(
        "trace.ops_per_s_overhead",
        ratio(rate(0) - rate(1), rate(0)),
    );
    let p50_of = |traced: bool| {
        let mut v: Vec<f64> = episodes
            .iter()
            .flat_map(Episode::window_ops)
            .filter(|r| r.traced == traced)
            .map(|r| (r.acked - r.started).as_secs_f64())
            .collect();
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.5).unwrap_or(0.0)
    };
    out.layer(
        "trace.op_p50_overhead",
        ratio(p50_of(true) - p50_of(false), p50_of(false)),
    );

    out.spans(spans, &cfg.spans_path(name));
}
