//! The repository benchmark: three workloads driven from outside the
//! program through its public API, with end-to-end metrics from untraced
//! runs and per-layer metrics from traced runs.
//!
//! * `rsm-steady` — a 5-node loopback [`rsm::RsmCluster`], two closed-loop
//!   clients writing unique keys with 64 B values, no faults.
//! * `rsm-kill` — the same cluster with 1 KiB values; after every fixed
//!   number of commits one node is killed, held down, restarted from its
//!   WAL and waited on until it has caught up.
//! * `sim-byz` — Figure 2 `Malicious` at n = 128 under simnet against
//!   balancing attackers, trials run back to back on one thread.
//!
//! The rsm workloads run as episodes of fixed work, each on a freshly
//! booted cluster; `sim-byz` runs whole trials. Rates and CPU per op are
//! medians over episodes or trials.
//!
//! Every workload reports every end-to-end metric. An *op* is the
//! workload's unit of completed work: a client command acknowledged
//! `Committed` on the rsm workloads, a slice of [`sim_byz::SLICE`]
//! consecutive deliveries on `sim-byz` (a whole trial is seed-bimodal —
//! one or two phases — so trial time is a per-layer figure there).
//! Per-layer metrics of a layer a workload bypasses read 0: that layer did
//! no work and took no time. `perfbench/README.md` maps every per-layer
//! metric to the end-to-end metric it should move.

#![deny(unsafe_code)]

pub mod measure;
pub mod rsm_load;
pub mod sim_byz;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

use obs::json::Json;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free replicated-log load.
    RsmSteady,
    /// Replicated-log load under a rotating kill/restart schedule.
    RsmKill,
    /// The paper's Figure 2 experiment under the simulator.
    SimByz,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::RsmSteady, Workload::RsmKill, Workload::SimByz];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RsmSteady => "rsm-steady",
            Workload::RsmKill => "rsm-kill",
            Workload::SimByz => "sim-byz",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics every untraced run reports, in order, with
/// their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("outage_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, in order, with their
/// units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("rsm.service.op_p50_ms", "ms"),
    ("rsm.service.busy_frac", "ratio"),
    ("rsm.replica.commit_p50_ms", "ms"),
    ("rsm.replica.commit_p99_ms", "ms"),
    ("rsm.replica.slots_per_op", "slots/op"),
    ("rsm.replica.noop_slot_frac", "ratio"),
    ("rsm.replica.batch_mean", "cmds/slot"),
    ("bt-core.deliveries_per_slot", "msgs/slot"),
    ("bt-core.msgs_per_op", "msgs/op"),
    ("netstack.frame.encode_p50_us", "us"),
    ("netstack.frame.decode_p50_us", "us"),
    ("netstack.node.frames_per_op", "frames/op"),
    ("netstack.node.write_syscalls_per_frame", "calls/frame"),
    ("netstack.node.poll_wakeups_per_op", "wakeups/op"),
    ("netstack.node.ack_rtt_p50_us", "us"),
    ("netstack.conn.retransmits_per_op", "frames/op"),
    ("netstack.conn.reconnects_per_kill", "count"),
    ("netstack.wal.append_p50_us", "us"),
    ("netstack.wal.append_p99_us", "us"),
    ("netstack.wal.appends_per_op", "count"),
    ("netstack.wal.compact_p50_ms", "ms"),
    ("netstack.wal.compactions_per_kop", "count"),
    ("netstack.wal.bytes_per_op", "B"),
    ("netstack.wal.probe_append_us", "us"),
    ("recovery.kill_call_ms", "ms"),
    ("recovery.restart_call_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.replayed_deliveries", "count"),
    ("recovery.catchup_ms", "ms"),
    ("simnet.engine_ns_per_delivery", "ns"),
    ("simnet.buffer_peak", "msgs"),
    ("simnet.deliveries_per_trial", "count"),
    ("bt-core.malicious.receive_ns", "ns"),
    ("bt-core.malicious.msgs_per_trial", "count"),
    ("sim.trial_p50_s", "s"),
    ("sim.phases_mean", "phases"),
    ("client.self_ms_per_op", "ms"),
    ("client.rpc_ms_per_op", "ms"),
    ("client.backoff_ms_per_op", "ms"),
    ("client.reconnect_ms_per_op", "ms"),
    ("client.attempts_per_op", "count"),
    ("trace.ops_per_s_overhead", "ratio"),
    ("trace.op_p50_overhead", "ratio"),
];

/// How one run is sized. [`RunConfig::full`] is the benchmark;
/// [`RunConfig::tiny`] is the self-test's miniature of it.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed: keys, values, the kill schedule and trial seeds
    /// derive from it.
    pub seed: u64,
    /// How long the run measures: rsm episodes and sim trials start while
    /// the previous one's length still fits in it.
    pub window: Duration,
    /// Whether this is a traced run.
    pub trace: bool,
    /// sim-byz: system builds timed for `setup_s`.
    pub setups: usize,
    /// Untimed ops each rsm client completes before an episode's window
    /// opens.
    pub warmup_ops: u64,
    /// rsm-steady: commits in one episode's window.
    pub episode_ops: u64,
    /// rsm-kill: kill cycles in one episode's window.
    pub episode_cycles: u64,
    /// rsm-kill: client-acknowledged commits between kill cycles.
    pub commits_per_cycle: u64,
    /// rsm-kill: how long a killed node stays down.
    pub downtime: Duration,
    /// sim-byz: system size.
    pub sim_n: usize,
    /// Directory for WALs, the WAL probe and the span file.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// The benchmark as `BENCHMARK.json` defines it.
    #[must_use]
    pub fn full(seed: u64, seconds: u64, trace: bool, out_dir: PathBuf) -> Self {
        RunConfig {
            seed,
            window: Duration::from_secs(seconds),
            trace,
            setups: 30,
            warmup_ops: 10,
            episode_ops: 500,
            episode_cycles: 2,
            commits_per_cycle: 100,
            downtime: Duration::from_millis(500),
            sim_n: 128,
            out_dir,
        }
    }

    /// Where a traced run of `workload` writes its spans.
    #[must_use]
    pub fn spans_path(&self, workload: &str) -> PathBuf {
        self.out_dir
            .join(format!("spans-{workload}-{}.jsonl", self.seed))
    }

    /// A run small enough for a unit test: the same code paths, a
    /// fraction of the work.
    #[must_use]
    pub fn tiny(seed: u64, trace: bool, out_dir: PathBuf) -> Self {
        RunConfig {
            seed,
            window: Duration::from_millis(1500),
            trace,
            setups: 2,
            warmup_ops: 3,
            episode_ops: 40,
            episode_cycles: 2,
            commits_per_cycle: 20,
            downtime: Duration::from_millis(100),
            sim_n: 32,
            out_dir,
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops issued (rsm: client commands; sim: delivery slices).
    pub attempted: u64,
    /// Ops that failed, timed out, or failed a correctness check.
    pub failed: u64,
    /// Every failed correctness check, described. Empty means correct.
    pub problems: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics by name (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Supporting figures for the human-readable detail line.
    pub details: Vec<(String, Json)>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.end_to_end.push((name, value));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.push((name, value));
    }

    /// Records a supporting figure.
    pub fn detail(&mut self, name: &str, value: Json) {
        self.details.push((name.to_string(), value));
    }

    /// Checks that `spans` nest, writes them to `path`, and records where.
    pub fn spans(&mut self, spans: &[trace::Span], path: &Path) {
        if let Err(e) = trace::check_nesting(spans) {
            self.problem(format!("span nesting: {e}"));
        }
        match trace::write_jsonl(path, spans) {
            Ok(()) => self.detail("spans_file", Json::str(path.display().to_string())),
            Err(e) => self.problem(format!("cannot write {}: {e}", path.display())),
        }
        self.detail("spans", Json::num(spans.len() as u64));
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of the run's kind, each with its unit. A metric the workload did
    /// not produce, or a non-finite value, makes the run incorrect rather
    /// than printing a number that was never measured.
    #[must_use]
    pub fn result_json(&mut self, trace: bool) -> Json {
        let (wanted, got) = if trace {
            (&PER_LAYER[..], &self.per_layer)
        } else {
            (&END_TO_END[..], &self.end_to_end)
        };
        let mut metrics = Vec::with_capacity(wanted.len());
        let mut missing = Vec::new();
        for &(name, unit) in wanted {
            match got.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => metrics.push((
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::str(unit)),
                    ]),
                )),
                _ => missing.push(name),
            }
        }
        for name in missing {
            self.problem(format!("metric {name} missing or not finite"));
        }
        if self.attempted == 0 {
            self.problem("no op was attempted");
            self.attempted = 1;
            self.failed = 1;
        }
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.problems.is_empty())),
            ("attempted".into(), Json::num(self.attempted)),
            ("failed".into(), Json::num(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Per-layer metrics of the simulator's layers; the rsm workloads bypass
/// them, and `sim-byz` bypasses every other layer except tracing.
fn is_sim_layer(name: &str) -> bool {
    name.starts_with("simnet.")
        || name.starts_with("bt-core.malicious.")
        || name.starts_with("sim.")
}

/// Runs one workload. In a traced run, the per-layer metrics of layers the
/// workload never enters read 0.
#[must_use]
pub fn run(workload: Workload, cfg: &RunConfig) -> Outcome {
    let mut out = match workload {
        Workload::RsmSteady => rsm_load::run(cfg, rsm_load::Shape::steady()),
        Workload::RsmKill => rsm_load::run(cfg, rsm_load::Shape::kill()),
        Workload::SimByz => sim_byz::run(cfg),
    };
    if cfg.trace {
        let sim = workload == Workload::SimByz;
        for (name, _) in PER_LAYER {
            let bypassed = !name.starts_with("trace.") && is_sim_layer(name) != sim;
            if bypassed && !out.per_layer.iter().any(|(n, _)| *n == name) {
                out.layer(name, 0.0);
            }
        }
    }
    out
}
