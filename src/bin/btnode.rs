//! `btnode` — boot one networked consensus node from the command line.
//!
//! Usage:
//!
//! ```text
//! btnode --id I --n N --k K --proto failstop|simple|malicious|benor|rsm \
//!        [--input 0|1] --listen HOST:PORT --peer HOST:PORT [--peer ...] \
//!        [--seed S] [--timeout SECS] [--jsonl PATH] [--admin PORT] \
//!        [--client PORT] [--window W] [--max-batch B] \
//!        [--queue-depth Q] [--submit-batch S]
//! ```
//!
//! `--peer` must appear exactly `N` times, in process-id order; entry `I`
//! is this node's own address (nodes never dial themselves, so it is only
//! positional). Start all `N` nodes in any order — dials retry with
//! backoff until the whole cluster is up, so there is no required boot
//! sequence. The process exits 0 once this node decides, printing the
//! decision, or 1 on timeout.
//!
//! With `--jsonl` the node writes its own perspective of the run (its
//! events only — each node sees its own trace) as `obs`-format JSONL
//! consumable by `btreport`.
//!
//! # Crash recovery
//!
//! With `--wal PATH` the node journals every delivery to a write-ahead
//! log *before* acting on it (log-before-send); booting on an existing
//! WAL recovers the pre-crash state and re-sends the unacknowledged
//! backlog byte-for-byte, so a restart can never turn into equivocation.
//!
//! `--supervise` (Unix only, requires `--wal`) adds the supervisor: the
//! parent binds the listening socket once, hands a duplicate of it to a
//! worker child via stdin, and if the worker dies to a signal (SIGKILL,
//! SIGSEGV, OOM-killer) restarts it from the WAL — on the *same* port,
//! with jittered exponential backoff, up to `--max-restarts` times
//! (default 4). Normal exits, success or timeout, are propagated as-is.
//!
//! # Live telemetry
//!
//! `--admin PORT` serves the node's runtime metrics while it runs: an
//! HTTP/1.0 endpoint on the listen host at `PORT` answering `/metrics`
//! (Prometheus text exposition), `/metrics.json` (the same snapshot as
//! JSON), and `/status` (decision, phase, per-peer link liveness). Point
//! `btstat` — or anything that speaks HTTP — at it. Under `--supervise`
//! the admin port, like the protocol port, survives worker restarts
//! because each worker incarnation binds it afresh after the old worker
//! died.
//!
//! # The replicated log (`--proto rsm`)
//!
//! `--proto rsm` runs the node as one replica of the multi-decree
//! replicated log (see `docs/RSM.md`) instead of a one-shot consensus:
//! `--client PORT` (required) serves the length-prefixed client API on
//! the listen host, `--window`/`--max-batch` tune the replica's
//! pipelining and batching, and `--queue-depth`/`--submit-batch` tune
//! the service's admission queue. `--input` does not apply; `--timeout`
//! becomes the serving duration (0 = serve until killed). The `/status`
//! admin endpoint gains an `rsm` section (applied slots, log digest,
//! command counters), and `--supervise`/`--wal` work unchanged — a
//! SIGKILLed replica restarts from its journal and rejoins without
//! equivocation, resuming its client service on the same port.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use benor::{BenOrConfig, BenOrProcess};
use bt_core::{Config, FailStop, Malicious, Simple};
use netstack::{spawn, FaultPlan, NodeConfig, NodeHandle};
use obs::JsonlSink;
use simnet::{
    Metrics, Process, ProcessId, Role, RunReport, RunStatus, SharedSubscriber, Subscriber, Value,
    Wire,
};

const USAGE: &str = "usage: btnode --id I --n N --k K \
--proto failstop|simple|malicious|benor|rsm [--input 0|1] \
--listen HOST:PORT --peer HOST:PORT [--peer ...] \
[--seed S] [--timeout SECS] [--jsonl PATH] [--admin PORT] \
[--client PORT] [--window W] [--max-batch B] [--queue-depth Q] [--submit-batch S] \
[--wal PATH [--snapshot-bytes BYTES] [--supervise] [--max-restarts R]]";

struct Args {
    id: usize,
    n: usize,
    k: usize,
    proto: String,
    input: Option<Value>,
    /// Client-API port for `--proto rsm`.
    client: Option<u16>,
    window: u64,
    max_batch: usize,
    queue_depth: usize,
    submit_batch: usize,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    seed: u64,
    timeout: Duration,
    jsonl: Option<String>,
    admin: Option<u16>,
    wal: Option<PathBuf>,
    snapshot_bytes: u64,
    supervise: bool,
    max_restarts: u32,
    /// Internal (set by the supervisor on the worker it spawns): the
    /// listening socket is inherited on stdin instead of bound fresh.
    listen_stdin: bool,
    /// Internal (set by the supervisor on respawns): this boot follows a
    /// crash that journaled at least a boot record, so an empty WAL means
    /// the log was lost — boot amnesiac instead of starting fresh.
    expect_wal: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut id = None;
    let mut n = None;
    let mut k = None;
    let mut proto = None;
    let mut input = None;
    let mut client = None;
    let mut window = 8u64;
    let mut max_batch = 64usize;
    let mut queue_depth = 1024usize;
    let mut submit_batch = 256usize;
    let mut listen = None;
    let mut peers = Vec::new();
    let mut seed = 0u64;
    let mut timeout = Duration::from_secs(60);
    let mut jsonl = None;
    let mut admin = None;
    let mut wal = None;
    let mut snapshot_bytes = 0u64;
    let mut supervise = false;
    let mut max_restarts = 4u32;
    let mut listen_stdin = false;
    let mut expect_wal = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--id" => id = Some(parse(&value("--id")?, "--id")?),
            "--n" => n = Some(parse(&value("--n")?, "--n")?),
            "--k" => k = Some(parse(&value("--k")?, "--k")?),
            "--proto" => proto = Some(value("--proto")?),
            "--input" => {
                input = Some(match value("--input")?.as_str() {
                    "0" => Value::Zero,
                    "1" => Value::One,
                    other => return Err(format!("--input must be 0 or 1, got {other}")),
                });
            }
            "--client" => client = Some(parse(&value("--client")?, "--client")?),
            "--window" => window = parse(&value("--window")?, "--window")?,
            "--max-batch" => max_batch = parse(&value("--max-batch")?, "--max-batch")?,
            "--queue-depth" => queue_depth = parse(&value("--queue-depth")?, "--queue-depth")?,
            "--submit-batch" => submit_batch = parse(&value("--submit-batch")?, "--submit-batch")?,
            "--listen" => listen = Some(parse_addr(&value("--listen")?)?),
            "--peer" => peers.push(parse_addr(&value("--peer")?)?),
            "--seed" => seed = parse(&value("--seed")?, "--seed")?,
            "--timeout" => {
                timeout = Duration::from_secs(parse(&value("--timeout")?, "--timeout")?);
            }
            "--jsonl" => jsonl = Some(value("--jsonl")?),
            "--admin" => admin = Some(parse(&value("--admin")?, "--admin")?),
            "--wal" => wal = Some(PathBuf::from(value("--wal")?)),
            "--snapshot-bytes" => {
                snapshot_bytes = parse(&value("--snapshot-bytes")?, "--snapshot-bytes")?;
            }
            "--supervise" => supervise = true,
            "--max-restarts" => max_restarts = parse(&value("--max-restarts")?, "--max-restarts")?,
            "--listen-stdin" => listen_stdin = true,
            "--expect-wal" => expect_wal = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let args = Args {
        id: id.ok_or("--id is required")?,
        n: n.ok_or("--n is required")?,
        k: k.ok_or("--k is required")?,
        proto: proto.ok_or("--proto is required")?,
        input,
        client,
        window,
        max_batch,
        queue_depth,
        submit_batch,
        listen: listen.ok_or("--listen is required")?,
        peers,
        seed,
        timeout,
        jsonl,
        admin,
        wal,
        snapshot_bytes,
        supervise,
        max_restarts,
        listen_stdin,
        expect_wal,
    };
    if args.proto == "rsm" {
        if args.client.is_none() {
            return Err("--proto rsm requires --client PORT (the client-API port)".to_string());
        }
        if args.jsonl.is_some() {
            return Err("--jsonl applies to one-shot runs, not --proto rsm".to_string());
        }
        if args.window == 0 || args.max_batch == 0 {
            return Err("--window and --max-batch must be at least 1".to_string());
        }
    } else if args.input.is_none() {
        return Err("--input is required (except under --proto rsm)".to_string());
    }
    if args.supervise && args.wal.is_none() {
        return Err(
            "--supervise requires --wal: a worker restarted without its \
             journal could equivocate"
                .to_string(),
        );
    }
    if args.peers.len() != args.n {
        return Err(format!(
            "--peer must appear exactly n={} times (got {}), in process-id order",
            args.n,
            args.peers.len()
        ));
    }
    if args.id >= args.n {
        return Err(format!("--id {} is outside 0..{}", args.id, args.n));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: cannot parse {s:?} as a number"))
}

fn parse_addr(s: &str) -> Result<SocketAddr, String> {
    s.parse()
        .map_err(|_| format!("cannot parse {s:?} as HOST:PORT"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("btnode: {err}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if args.supervise {
        return run_supervisor(&args);
    }

    let listener = if args.listen_stdin {
        match listener_from_stdin() {
            Ok(l) => l,
            Err(err) => {
                eprintln!("btnode: cannot inherit listener from stdin: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match TcpListener::bind(args.listen) {
            Ok(l) => l,
            Err(err) => {
                eprintln!("btnode: cannot bind {}: {err}", args.listen);
                return ExitCode::FAILURE;
            }
        }
    };

    if args.proto == "rsm" {
        return run_rsm(&args, listener);
    }

    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    let subscriber: Option<SharedSubscriber> = if args.jsonl.is_some() {
        sink.lock()
            .expect("sink lock")
            .on_run_start(args.n, args.seed);
        Some(sink.clone() as SharedSubscriber)
    } else {
        None
    };

    let input = args.input.expect("validated in parse_args");
    let booted = match args.proto.as_str() {
        "failstop" => {
            let config = match Config::fail_stop(args.n, args.k) {
                Ok(c) => c,
                Err(e) => return config_error(e),
            };
            boot(
                &args,
                listener,
                subscriber,
                Box::new(FailStop::new(config, input)),
            )
        }
        "simple" => {
            let config = match Config::fail_stop(args.n, args.k) {
                Ok(c) => c,
                Err(e) => return config_error(e),
            };
            boot(
                &args,
                listener,
                subscriber,
                Box::new(Simple::new(config, input)),
            )
        }
        "malicious" => {
            let config = match Config::malicious(args.n, args.k) {
                Ok(c) => c,
                Err(e) => return config_error(e),
            };
            boot(
                &args,
                listener,
                subscriber,
                Box::new(Malicious::new(config, input)),
            )
        }
        "benor" => {
            let config = match BenOrConfig::fail_stop(args.n, args.k) {
                Ok(c) => c,
                Err(e) => return config_error(e),
            };
            boot(
                &args,
                listener,
                subscriber,
                Box::new(BenOrProcess::new(config, input)),
            )
        }
        other => {
            eprintln!("btnode: unknown protocol {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut node = match booted {
        Ok(node) => node,
        Err(err) => {
            eprintln!("btnode: cannot boot node: {err}");
            return ExitCode::FAILURE;
        }
    };

    // Live telemetry: serve /metrics and /status for the run's duration.
    let _admin = match args.admin {
        Some(port) => {
            let bind = SocketAddr::new(args.listen.ip(), port);
            match netstack::admin::serve_node(bind, &node, args.n) {
                Ok(server) => {
                    eprintln!("btnode: admin endpoint on http://{}/metrics", server.addr());
                    Some(server)
                }
                Err(err) => {
                    eprintln!("btnode: cannot bind admin endpoint {bind}: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    // Wait for this node's decision (or the deadline).
    let deadline = Instant::now() + args.timeout;
    let mut reported_amnesiac = false;
    let mut reported_transfer = false;
    let decided = loop {
        let status = node.status();
        if status.amnesiac && !reported_amnesiac {
            reported_amnesiac = true;
            eprintln!(
                "btnode: p{} booted amnesiac (WAL unsafe or missing); \
                 requesting quorum state transfer",
                args.id
            );
        }
        if status.state_transferred && !reported_transfer {
            reported_transfer = true;
            eprintln!(
                "btnode: p{} completed quorum state transfer; rejoined as learner",
                args.id
            );
        }
        if let Some(value) = status.decision {
            println!(
                "p{} decided {:?} in phase {} after {} steps",
                args.id,
                value,
                status.decision_phase.unwrap_or(0),
                status.steps,
            );
            break true;
        }
        if Instant::now() >= deadline {
            eprintln!("btnode: p{} undecided after {:?}", args.id, args.timeout);
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    // Post-decision grace: let exit broadcasts drain so peers can finish.
    if decided {
        std::thread::sleep(Duration::from_millis(300));
    }
    node.shutdown();

    // The final summary surfaces what the run went through, not just how
    // it ended: deliveries replayed from the WAL at boot and equivocation
    // attempts observed on the wire would otherwise vanish with the
    // process.
    let status = node.status();
    println!(
        "p{} summary: recovered={} equivocations={} retransmits={} reconnects={} \
         seq_gaps={} wal_corruptions={} state_transferred={}",
        args.id,
        status.recovered,
        node.equivocations(),
        node.retransmits(),
        node.reconnects(),
        node.seq_gaps(),
        node.wal_corruptions(),
        status.state_transferred,
    );

    if let Some(path) = &args.jsonl {
        let report = single_node_report(&args, &node, decided);
        let mut sink = sink.lock().expect("sink lock");
        sink.on_run_end(&report);
        if let Err(err) = sink.write_to_file(path) {
            eprintln!("btnode: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
    }

    if decided {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn config_error(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("btnode: {e}");
    ExitCode::FAILURE
}

/// The worker side of `--supervise`: the parent passed a duplicate of the
/// listening socket as our stdin; reclaim it with safe std conversions.
#[cfg(unix)]
fn listener_from_stdin() -> std::io::Result<TcpListener> {
    use std::os::fd::AsFd;
    let fd = std::io::stdin().as_fd().try_clone_to_owned()?;
    let listener = TcpListener::from(fd);
    // Sanity: stdin must actually be a listening TCP socket, not a pipe.
    listener.local_addr()?;
    Ok(listener)
}

#[cfg(not(unix))]
fn listener_from_stdin() -> std::io::Result<TcpListener> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--listen-stdin requires a Unix platform",
    ))
}

/// The parent side of `--supervise`: bind the port once, run the worker
/// on a duplicate of the socket, and restart it from the WAL — same port,
/// jittered exponential backoff, bounded by `--max-restarts` — whenever
/// it dies to a signal. Normal worker exits (decided, timed out, usage
/// errors) are propagated unchanged.
#[cfg(unix)]
fn run_supervisor(args: &Args) -> ExitCode {
    use std::os::fd::OwnedFd;
    use std::process::{Command, Stdio};

    let listener = match TcpListener::bind(args.listen) {
        Ok(l) => l,
        Err(err) => {
            eprintln!("btnode: cannot bind {}: {err}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(err) => {
            eprintln!("btnode: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    // The worker runs with our exact arguments minus --supervise, plus
    // the marker telling it the socket arrives on stdin.
    let worker_args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--supervise")
        .chain(std::iter::once("--listen-stdin".to_string()))
        .collect();

    let mut jitter = prng::Prng::seed_from_u64(args.seed ^ 0x7375_7056_6274u64);
    let mut restarts = 0u32;
    loop {
        let socket = match listener.try_clone() {
            Ok(l) => OwnedFd::from(l),
            Err(err) => {
                eprintln!("btnode: cannot duplicate listener for worker: {err}");
                return ExitCode::FAILURE;
            }
        };
        // From the first restart on, the worker follows a crash whose WAL
        // journaled at least the boot record: an empty or vanished log is
        // then amnesia, not a fresh start.
        let mut incarnation_args = worker_args.clone();
        if restarts > 0 && !incarnation_args.iter().any(|a| a == "--expect-wal") {
            incarnation_args.push("--expect-wal".to_string());
        }
        let status = Command::new(&exe)
            .args(&incarnation_args)
            .stdin(Stdio::from(socket))
            .status();
        match status {
            Ok(st) if st.code().is_some() => {
                // Clean exit — the worker decided (0) or gave up (1).
                return if st.success() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            Ok(_) => {
                // Signal death: the crash the WAL exists for.
                if restarts >= args.max_restarts {
                    eprintln!(
                        "btnode: worker for p{} killed again; restart budget ({}) exhausted",
                        args.id, args.max_restarts
                    );
                    return ExitCode::FAILURE;
                }
                restarts += 1;
                // Jittered exponential backoff: 10ms · 2^r nominal, at
                // least half honoured, the rest uniform.
                let nominal =
                    Duration::from_millis(10).saturating_mul(2u32.saturating_pow(restarts - 1));
                let half = nominal / 2;
                let span = u64::try_from(half.as_micros())
                    .unwrap_or(u64::MAX)
                    .saturating_add(1);
                let wait = half + Duration::from_micros(jitter.next_u64() % span);
                eprintln!(
                    "btnode: worker for p{} died to a signal; restarting from WAL \
                     in {wait:?} (attempt {restarts}/{})",
                    args.id, args.max_restarts
                );
                std::thread::sleep(wait);
            }
            Err(err) => {
                eprintln!("btnode: cannot spawn worker: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
}

#[cfg(not(unix))]
fn run_supervisor(_args: &Args) -> ExitCode {
    eprintln!("btnode: --supervise requires a Unix platform (socket passing via stdin)");
    ExitCode::FAILURE
}

fn boot<M: Wire + Send + 'static>(
    args: &Args,
    listener: TcpListener,
    subscriber: Option<SharedSubscriber>,
    process: Box<dyn Process<Msg = M> + Send>,
) -> std::io::Result<NodeHandle> {
    let cfg = NodeConfig {
        id: ProcessId::new(args.id),
        n: args.n,
        seed: args.seed.wrapping_add(args.id as u64),
        k: args.k,
        fault: FaultPlan::reliable(),
        expect_history: args.expect_wal,
        wal: args.wal.clone(),
        snapshot_bytes: args.snapshot_bytes,
        // Each worker incarnation gets a fresh registry; under
        // --supervise the counters' pre-crash values live in the WAL's
        // replay, not in memory.
        metrics: None,
    };
    spawn(cfg, listener, args.peers.clone(), process, subscriber)
}

/// This node's perspective of the run: its own row is filled in, the other
/// processes' rows are unknown (`None`) — one btnode cannot observe its
/// peers' decisions, only its own.
fn single_node_report(args: &Args, node: &NodeHandle, decided: bool) -> RunReport {
    let status = node.status();
    let mut decisions = vec![None; args.n];
    let mut decision_steps = vec![None; args.n];
    let mut decision_phases = vec![None; args.n];
    decisions[args.id] = status.decision;
    decision_steps[args.id] = status.decision_step;
    decision_phases[args.id] = status.decision_phase;
    let mut metrics = Metrics::new(args.n);
    metrics.messages_sent = node.messages_sent();
    metrics.messages_delivered = node.messages_delivered();
    metrics.messages_dropped = node.messages_dropped();
    metrics.sent_by[args.id] = node.messages_sent();
    metrics.steps_by[args.id] = status.steps;
    metrics.recovered = status.recovered;
    metrics.equivocations = node.equivocations();
    RunReport::synthesize(
        if decided {
            RunStatus::Stopped
        } else {
            RunStatus::StepLimitReached
        },
        decisions,
        vec![Role::Correct; args.n],
        status.steps,
        decision_steps,
        decision_phases,
        status.phase,
        metrics,
    )
}

/// `--proto rsm`: run this node as one replica of the replicated log,
/// serving the client API on `--client` until `--timeout` elapses (0 =
/// until killed) or the event loop dies.
fn run_rsm(args: &Args, listener: TcpListener) -> ExitCode {
    use netstack::admin::AdminServer;
    use obs::json::Json;
    use obs::metrics::Registry;
    use rsm::{GatewayConfig, LogView, Replica, RsmOptions, RsmService, ServiceOptions};

    let config = match Config::malicious(args.n, args.k) {
        Ok(c) => c,
        Err(e) => return config_error(e),
    };
    let me = ProcessId::new(args.id);
    let registry = Arc::new(Registry::new());
    let view = LogView::new();
    let replica = Replica::new(
        config,
        me,
        RsmOptions {
            window: args.window,
            max_batch: args.max_batch,
        },
    )
    .with_view(view.clone())
    .with_metrics(&registry);

    let cfg = NodeConfig {
        id: me,
        n: args.n,
        seed: args.seed.wrapping_add(args.id as u64),
        k: args.k,
        fault: FaultPlan::reliable(),
        expect_history: args.expect_wal,
        wal: args.wal.clone(),
        snapshot_bytes: args.snapshot_bytes,
        metrics: Some(Arc::clone(&registry)),
    };
    let mut node = match spawn(cfg, listener, args.peers.clone(), Box::new(replica), None) {
        Ok(node) => node,
        Err(err) => {
            eprintln!("btnode: cannot boot rsm replica: {err}");
            return ExitCode::FAILURE;
        }
    };

    let client_port = args.client.expect("validated in parse_args");
    let client_bind = SocketAddr::new(args.listen.ip(), client_port);
    let client_listener = match TcpListener::bind(client_bind) {
        Ok(l) => l,
        Err(err) => {
            eprintln!("btnode: cannot bind client port {client_bind}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let service = match RsmService::spawn(
        client_listener,
        GatewayConfig {
            me,
            node_addr: args.peers[args.id],
            initial_seq: node.next_expected_from(me),
        },
        view.clone(),
        ServiceOptions {
            queue_depth: args.queue_depth,
            submit_batch: args.submit_batch,
            propose_timeout: Duration::from_secs(10),
        },
        &registry,
    ) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("btnode: cannot start client service: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "btnode: rsm replica p{} serving clients on {}",
        args.id,
        service.local_addr()
    );

    // Admin endpoint with the node's status plus an `rsm` section.
    let _admin = match args.admin {
        Some(port) => {
            let bind = SocketAddr::new(args.listen.ip(), port);
            let base =
                netstack::admin::status_source(me, args.n, node.status_cell(), node.metrics());
            let status_view = view.clone();
            let admin_listener = match TcpListener::bind(bind) {
                Ok(l) => l,
                Err(err) => {
                    eprintln!("btnode: cannot bind admin endpoint {bind}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let status: netstack::admin::StatusFn = Box::new(move || {
                let Json::Obj(mut fields) = base() else {
                    return Json::Null;
                };
                let rsm = status_view.with(|a| {
                    Json::Obj(vec![
                        ("applied".into(), Json::num(a.next_slot())),
                        ("digest".into(), Json::str(format!("{:016x}", a.digest()))),
                        ("applied_commands".into(), Json::num(a.applied_commands)),
                        ("deduped_commands".into(), Json::num(a.deduped_commands)),
                        ("kv_len".into(), Json::num(a.kv.len() as u64)),
                    ])
                });
                fields.push(("rsm".into(), rsm));
                Json::Obj(fields)
            });
            match AdminServer::serve(admin_listener, Arc::clone(&registry), status) {
                Ok(server) => {
                    eprintln!("btnode: admin endpoint on http://{}/metrics", server.addr());
                    Some(server)
                }
                Err(err) => {
                    eprintln!("btnode: cannot start admin endpoint: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    // Serve until the deadline (0 = forever) or the event loop dies.
    let deadline = (args.timeout > Duration::ZERO).then(|| Instant::now() + args.timeout);
    let healthy = loop {
        if node.died() {
            eprintln!("btnode: rsm replica p{} event loop died", args.id);
            break false;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break true;
        }
        std::thread::sleep(Duration::from_millis(100));
    };

    drop(service);
    node.shutdown();
    let (applied, digest, commands) =
        view.with(|a| (a.next_slot(), a.digest(), a.applied_commands));
    println!(
        "p{} rsm summary: applied={applied} digest={digest:016x} commands={commands} recovered={}",
        args.id,
        node.status().recovered,
    );
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
