//! Scenario execution: one [`Scenario`], two runtimes.
//!
//! [`run_sim`] executes a scenario in the deterministic `simnet` simulator
//! with a JSONL trace attached — same scenario, same bytes, every time.
//! [`run_netstack`] executes the *same* scenario over loopback TCP via
//! `netstack::Cluster`, translating the schedule adversary into the
//! nearest wall-clock link-fault plan. The socket runtime is only
//! reproducible in fault *pattern* (the OS interleaves arrivals), so
//! cross-runtime conformance is judged on decision properties, not traces.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use adversary::{Crashing, Silent, TwoFacedMalicious};
use bt_core::ablation::{AblatedFailStop, ThresholdRule};
use bt_core::{Config, FailStop, Malicious, Simple, Termination};
use netstack::{
    sockets_available, Cluster, ClusterOptions, CrashPlan, DiskFault, FaultPlan, NodeFault, Proto,
    RecoveryOptions,
};
use obs::JsonlSink;
use simnet::scheduler::{
    DelayingScheduler, DeliveryOrder, FairScheduler, PartitionScheduler, ScriptedScheduler,
};
use simnet::{Process, ProcessId, Role, RunReport, Scheduler, Selection, SharedSubscriber, Sim};

use crate::scenario::{FaultSpec, Injection, OrderSpec, ProtoKind, Scenario, SchedSpec};

/// A simulated run's results: the report plus its JSONL trace.
#[derive(Debug)]
pub struct SimOutcome {
    /// The engine's run report.
    pub report: RunReport,
    /// The full JSONL trace (`run_start` line, events, `run_end` line).
    pub trace: String,
}

fn pids(indices: &[usize]) -> Vec<ProcessId> {
    indices.iter().map(|&i| ProcessId::new(i)).collect()
}

/// Builds a schedule adversary for an `n`-process simulator run (shared
/// with the multi-slot pipeline, whose scenarios carry the same
/// [`SchedSpec`]).
pub(crate) fn build_scheduler<M: 'static>(n: usize, sched: &SchedSpec) -> Box<dyn Scheduler<M>> {
    match sched {
        SchedSpec::Fair(order) => Box::new(FairScheduler::new().delivery_order(match order {
            OrderSpec::Random => DeliveryOrder::Random,
            OrderSpec::Fifo => DeliveryOrder::Fifo,
            OrderSpec::Lifo => DeliveryOrder::Lifo,
        })),
        SchedSpec::Delaying(victims) => Box::new(DelayingScheduler::new(n, &pids(victims))),
        SchedSpec::Partition {
            left,
            epoch_len,
            heal_every,
        } => Box::new(PartitionScheduler::new(
            n,
            &pids(left),
            *epoch_len,
            *heal_every,
        )),
    }
}

fn run_generic<M: 'static>(
    scenario: &Scenario,
    processes: Vec<Box<dyn Process<Msg = M>>>,
    schedule: Option<Vec<Selection>>,
) -> SimOutcome {
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    let mut b = Sim::builder();
    for (i, process) in processes.into_iter().enumerate() {
        let role = if scenario.faults[i].is_faulty() {
            Role::Faulty
        } else {
            Role::Correct
        };
        b.process(process, role);
    }
    match schedule {
        // Replays pin the exact recorded interleaving; the fallback lets a
        // schedule recorded under a *shorter* run still finish delivering.
        Some(script) => b.scheduler(Box::new(ScriptedScheduler::with_fallback(script))),
        None => b.scheduler(build_scheduler::<M>(scenario.n, &scenario.sched)),
    };
    b.seed(scenario.seed)
        .step_limit(scenario.step_limit)
        .subscriber(sink.clone() as SharedSubscriber);
    let report = b.build().run();
    let trace = sink.lock().expect("sink lock").contents();
    SimOutcome { report, trace }
}

/// Wraps a correct process according to its fault spec.
fn apply_fault<P>(process: P, fault: FaultSpec) -> Box<dyn Process<Msg = P::Msg>>
where
    P: Process + 'static,
    P::Msg: 'static,
{
    match fault {
        FaultSpec::Correct => Box::new(process),
        FaultSpec::CrashAfterSends(s) => Box::new(Crashing::new(process, CrashPlan::AfterSends(s))),
        FaultSpec::CrashAtPhase(p) => Box::new(Crashing::new(process, CrashPlan::AtPhase(p))),
        // A two-faced process only exists for the malicious message type;
        // the malicious builder intercepts it before reaching here.
        FaultSpec::Silent | FaultSpec::TwoFaced => Box::new(Silent::new()),
    }
}

/// Runs the scenario in the simulator; `schedule`, if given, replays an
/// exact recorded interleaving instead of the scenario's scheduler.
///
/// # Panics
///
/// Panics if the scenario's `(n, k)` violate the protocol's config bound —
/// generated and shrunk scenarios never do.
#[must_use]
pub fn run_sim_scheduled(scenario: &Scenario, schedule: Option<Vec<Selection>>) -> SimOutcome {
    match scenario.proto {
        ProtoKind::FailStop => {
            let config = Config::fail_stop(scenario.n, scenario.k).expect("generator bound");
            let rule = scenario.inject.map(
                |Injection::WeakenFailStop {
                     witness_slack,
                     decide_slack,
                 }| {
                    ThresholdRule::weakened(config, witness_slack, decide_slack)
                },
            );
            let processes = (0..scenario.n)
                .map(|i| match rule {
                    Some(rule) => apply_fault(
                        AblatedFailStop::new(config, rule, scenario.inputs[i]),
                        scenario.faults[i],
                    ),
                    None => apply_fault(
                        FailStop::new(config, scenario.inputs[i]),
                        scenario.faults[i],
                    ),
                })
                .collect();
            run_generic(scenario, processes, schedule)
        }
        ProtoKind::Simple => {
            let config = Config::fail_stop(scenario.n, scenario.k).expect("generator bound");
            let processes = (0..scenario.n)
                .map(|i| apply_fault(Simple::new(config, scenario.inputs[i]), scenario.faults[i]))
                .collect();
            run_generic(scenario, processes, schedule)
        }
        ProtoKind::Malicious => {
            let config = Config::malicious(scenario.n, scenario.k).expect("generator bound");
            let processes = (0..scenario.n)
                .map(|i| -> Box<dyn Process<Msg = bt_core::MaliciousMsg>> {
                    if scenario.faults[i] == FaultSpec::TwoFaced {
                        Box::new(TwoFacedMalicious::new(config))
                    } else {
                        // The §3.3 exit procedure, not the as-written
                        // infinite loop: under a partition schedule a
                        // laggard's inbox otherwise grows without bound
                        // while deciders churn phases forever, and the
                        // random-delivery catch-up time explodes past any
                        // step limit (found by the fuzzer). Wildcard exit
                        // bounds the backlog so convergence is checkable.
                        apply_fault(
                            Malicious::with_termination(
                                config,
                                scenario.inputs[i],
                                Termination::WildcardExit,
                            ),
                            scenario.faults[i],
                        )
                    }
                })
                .collect();
            run_generic(scenario, processes, schedule)
        }
    }
}

/// Runs the scenario in the simulator with its own scheduler.
#[must_use]
pub fn run_sim(scenario: &Scenario) -> SimOutcome {
    run_sim_scheduled(scenario, None)
}

/// The wall-clock fault plan standing in for the scenario's scheduler:
/// fair ⇒ small reorder jitter, delaying ⇒ larger per-message delay,
/// partition ⇒ a real cut that heals. All are delay-only, so the §2.1
/// reliable-channel assumption — and hence termination — is preserved.
#[must_use]
pub fn netstack_fault_plan(scenario: &Scenario) -> FaultPlan {
    match &scenario.sched {
        SchedSpec::Fair(_) => {
            FaultPlan::reliable().with_delay(Duration::ZERO, Duration::from_millis(2))
        }
        SchedSpec::Delaying(_) => {
            FaultPlan::reliable().with_delay(Duration::ZERO, Duration::from_millis(15))
        }
        SchedSpec::Partition { left, .. } => FaultPlan::reliable()
            .with_delay(Duration::ZERO, Duration::from_millis(2))
            .with_partition(scenario.n, left, Duration::from_millis(60)),
    }
}

fn node_fault(fault: FaultSpec) -> NodeFault {
    match fault {
        FaultSpec::Correct => NodeFault::Correct,
        FaultSpec::CrashAfterSends(s) => NodeFault::Crash(CrashPlan::AfterSends(s)),
        FaultSpec::CrashAtPhase(p) => NodeFault::Crash(CrashPlan::AtPhase(p)),
        FaultSpec::Silent => NodeFault::Silent,
        FaultSpec::TwoFaced => NodeFault::TwoFaced,
    }
}

/// Runs the scenario over loopback TCP, or `None` when the sandbox forbids
/// sockets or the scenario carries an injection (the ablated protocol only
/// exists in the simulator).
#[must_use]
pub fn run_netstack(scenario: &Scenario, timeout: Duration) -> Option<RunReport> {
    if !sockets_available() || scenario.inject.is_some() {
        return None;
    }
    let proto = match scenario.proto {
        ProtoKind::FailStop => Proto::FailStop,
        ProtoKind::Simple => Proto::Simple,
        ProtoKind::Malicious => Proto::Malicious,
    };
    let options = ClusterOptions {
        seed: scenario.seed,
        inputs: scenario.inputs.clone(),
        faults: scenario.faults.iter().map(|&f| node_fault(f)).collect(),
        link_fault: netstack_fault_plan(scenario),
        recovery: None,
        admin: false,
    };
    let mut cluster = Cluster::spawn(scenario.n, scenario.k, proto, options, None).ok()?;
    let report = cluster.await_verdict(timeout);
    cluster.shutdown();
    Some(report)
}

/// A netstack run's results when crash-recovery is in play: the report
/// plus the recovery-specific observables the invariant suite checks.
#[derive(Debug)]
pub struct NetOutcome {
    /// The cluster's synthesized run report.
    pub report: RunReport,
    /// Per-node equivocation counters: conflicting re-sends each node
    /// *observed* (must be all-zero on a correct tree).
    pub equivocations: Vec<u64>,
    /// Supervisor restarts performed per node.
    pub restarts: Vec<u32>,
}

/// The deterministic crash-restart schedule for a scenario: one correct
/// node, chosen by seed, killed mid-run and restarted from its WAL. All
/// timing comes from the seed so a CI finding replays on a laptop.
#[must_use]
pub fn netstack_crash_plan(scenario: &Scenario) -> FaultPlan {
    let victim = pick_crash_victim(scenario);
    let kill = Duration::from_millis(20 + (scenario.seed >> 8) % 20);
    let restart = kill + Duration::from_millis(40 + (scenario.seed >> 16) % 40);
    netstack_fault_plan(scenario).with_crash(victim, kill, restart)
}

/// Runs the scenario over loopback TCP with WALs in `wal_dir` and the
/// seed-derived crash-restart schedule: a correct node is killed
/// mid-consensus and restarted from its log by the cluster supervisor.
/// `None` under the same conditions as [`run_netstack`]. The caller owns
/// `wal_dir` (creation and cleanup).
#[must_use]
pub fn run_netstack_recovering(
    scenario: &Scenario,
    timeout: Duration,
    wal_dir: &Path,
) -> Option<NetOutcome> {
    if !sockets_available() || scenario.inject.is_some() {
        return None;
    }
    let proto = match scenario.proto {
        ProtoKind::FailStop => Proto::FailStop,
        ProtoKind::Simple => Proto::Simple,
        ProtoKind::Malicious => Proto::Malicious,
    };
    let options = ClusterOptions {
        seed: scenario.seed,
        inputs: scenario.inputs.clone(),
        faults: scenario.faults.iter().map(|&f| node_fault(f)).collect(),
        link_fault: netstack_crash_plan(scenario),
        recovery: Some(RecoveryOptions {
            wal_dir: wal_dir.to_path_buf(),
            // Exercise both recovery paths across seeds: genesis replay
            // and snapshot-resume.
            snapshot_bytes: if scenario.seed.is_multiple_of(2) {
                0
            } else {
                128 // ≈ 8 small deliveries per checkpoint
            },
            max_restarts: 4,
            backoff: Duration::from_millis(5),
        }),
        admin: false,
    };
    let mut cluster = Cluster::spawn(scenario.n, scenario.k, proto, options, None).ok()?;
    let report = cluster.await_verdict(timeout);
    let equivocations = cluster
        .nodes()
        .iter()
        .map(|node| node.equivocations())
        .collect();
    let restarts = cluster.restarts().to_vec();
    cluster.shutdown();
    Some(NetOutcome {
        report,
        equivocations,
        restarts,
    })
}

/// A netstack run's results under an injected storage fault: the usual
/// crash-recovery observables plus the amnesia path's counters and the
/// seed-chosen victim they are judged against.
#[derive(Debug)]
pub struct StorageRun {
    /// The cluster's synthesized run report.
    pub report: RunReport,
    /// Per-node equivocation counters (must be all-zero: an amnesiac
    /// node is muzzled precisely so it cannot contradict its own
    /// forgotten sends).
    pub equivocations: Vec<u64>,
    /// Supervisor restarts performed per node.
    pub restarts: Vec<u32>,
    /// Cluster-lifetime `bt_wal_corruptions_total`: boots that found the
    /// WAL unsafely damaged.
    pub corruptions: u64,
    /// Cluster-lifetime `bt_state_transfers_total`: quorum state
    /// transfers completed by an amnesiac node.
    pub transfers: u64,
    /// The node whose WAL carried the injected fault.
    pub victim: usize,
}

/// The deterministic storage-fault schedule for a scenario: the same
/// seed-chosen correct node and kill/restart timing as
/// [`netstack_crash_plan`], plus a byte flip at offset 8 armed in that
/// node's WAL storage. Offset 8 is the first body byte of the WAL's first
/// record, so the flip lands mid-log — unsafely damaged, never a torn
/// tail — and, because flips apply at open, the fresh boot writes a clean
/// log and only the post-kill reopen sees the damage. Returns the plan
/// and the victim index.
#[must_use]
pub fn netstack_storage_plan(scenario: &Scenario) -> (FaultPlan, usize) {
    let victim = pick_crash_victim(scenario);
    let plan = netstack_crash_plan(scenario).with_disk(victim, DiskFault::Flip { offset: 8 });
    (plan, victim)
}

fn pick_crash_victim(scenario: &Scenario) -> usize {
    let correct: Vec<usize> = (0..scenario.n)
        .filter(|&i| !scenario.faults[i].is_faulty())
        .collect();
    correct[(scenario.seed as usize) % correct.len()]
}

/// Runs the scenario over loopback TCP with the seed-derived
/// crash-restart schedule *and* a storage fault armed in the victim's
/// WAL: the restarted node reopens a corrupted log, must detect it, boot
/// amnesiac, and recover real state by quorum transfer. `None` under the
/// same conditions as [`run_netstack`]. The caller owns `wal_dir`.
#[must_use]
pub fn run_netstack_storage(
    scenario: &Scenario,
    timeout: Duration,
    wal_dir: &Path,
) -> Option<StorageRun> {
    if !sockets_available() || scenario.inject.is_some() {
        return None;
    }
    let proto = match scenario.proto {
        ProtoKind::FailStop => Proto::FailStop,
        ProtoKind::Simple => Proto::Simple,
        ProtoKind::Malicious => Proto::Malicious,
    };
    let (link_fault, victim) = netstack_storage_plan(scenario);
    let options = ClusterOptions {
        seed: scenario.seed,
        inputs: scenario.inputs.clone(),
        faults: scenario.faults.iter().map(|&f| node_fault(f)).collect(),
        link_fault,
        recovery: Some(RecoveryOptions {
            wal_dir: wal_dir.to_path_buf(),
            // No snapshots: the flip must hit protocol records, and the
            // victim's post-transfer WAL should read as a plain adopted
            // boot when inspected by hand.
            snapshot_bytes: 0,
            max_restarts: 4,
            backoff: Duration::from_millis(5),
        }),
        admin: false,
    };
    let mut cluster = Cluster::spawn(scenario.n, scenario.k, proto, options, None).ok()?;
    let report = cluster.await_verdict(timeout);
    let equivocations = cluster
        .nodes()
        .iter()
        .map(|node| node.equivocations())
        .collect();
    let restarts = cluster.restarts().to_vec();
    let corruptions = cluster.wal_corruptions();
    let transfers = cluster.state_transfers();
    cluster.shutdown();
    Some(StorageRun {
        report,
        equivocations,
        restarts,
        corruptions,
        transfers,
        victim,
    })
}

#[cfg(test)]
mod tests {
    use prng::Prng;
    use simnet::RunStatus;

    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn generated_scenarios_replay_byte_identically() {
        let mut rng = Prng::seed_from_u64(5);
        for _ in 0..10 {
            let s = Scenario::generate(&mut rng);
            let a = run_sim(&s);
            let b = run_sim(&s);
            assert_eq!(a.trace, b.trace, "nondeterministic trace: {}", s.describe());
            assert_eq!(a.report.decisions, b.report.decisions);
        }
    }

    #[test]
    fn recorded_schedule_replays_to_the_same_decisions() {
        let mut rng = Prng::seed_from_u64(9);
        let s = Scenario::generate(&mut rng);
        let original = run_sim(&s);
        let lines = obs::parse_trace(&original.trace).expect("trace parses");
        let schedule = obs::schedule_of(&lines);
        let replayed = run_sim_scheduled(&s, Some(schedule));
        assert_eq!(original.report.decisions, replayed.report.decisions);
        assert_eq!(original.report.status, replayed.report.status);
    }

    #[test]
    fn crash_restart_cross_check_holds_decision_properties() {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        let s = Scenario {
            proto: ProtoKind::FailStop,
            n: 4,
            k: 1,
            seed: 0xD15C,
            inputs: vec![simnet::Value::One; 4],
            faults: vec![FaultSpec::Correct; 4],
            sched: crate::scenario::SchedSpec::Fair(crate::scenario::OrderSpec::Random),
            step_limit: 100_000,
            inject: None,
        };
        let wal_dir = std::env::temp_dir().join(format!("btdst-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let out = run_netstack_recovering(&s, Duration::from_secs(30), &wal_dir)
            .expect("sockets probed available");
        let _ = std::fs::remove_dir_all(&wal_dir);
        assert_eq!(out.report.status, RunStatus::Stopped, "all decided");
        assert!(
            crate::invariants::check(&s, &out.report, &[]).is_empty(),
            "decision properties hold across the crash-restart"
        );
        assert!(
            crate::invariants::check_equivocations(&out.equivocations).is_empty(),
            "no equivocation observed: {:?}",
            out.equivocations
        );
        assert!(
            out.restarts.iter().sum::<u32>() >= 1,
            "the schedule actually restarted someone: {:?}",
            out.restarts
        );
    }

    #[test]
    fn storage_fault_cross_check_detects_and_transfers() {
        if !sockets_available() {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        }
        let s = Scenario {
            proto: ProtoKind::FailStop,
            n: 4,
            k: 1,
            seed: 0x0570_4A6E,
            inputs: vec![simnet::Value::One; 4],
            faults: vec![FaultSpec::Correct; 4],
            sched: crate::scenario::SchedSpec::Fair(crate::scenario::OrderSpec::Random),
            step_limit: 100_000,
            inject: None,
        };
        let wal_dir = std::env::temp_dir().join(format!("btdst-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let out = run_netstack_storage(&s, Duration::from_secs(30), &wal_dir)
            .expect("sockets probed available");
        let _ = std::fs::remove_dir_all(&wal_dir);
        assert_eq!(out.report.status, RunStatus::Stopped, "all decided");
        assert!(
            crate::invariants::check(&s, &out.report, &[]).is_empty(),
            "decision properties hold across the corrupt-WAL restart"
        );
        assert!(
            crate::invariants::check_equivocations(&out.equivocations).is_empty(),
            "no equivocation observed: {:?}",
            out.equivocations
        );
        assert!(
            crate::invariants::check_storage(out.corruptions, out.transfers, out.victim).is_empty(),
            "flip detected ({} corruption(s)) and healed ({} transfer(s))",
            out.corruptions,
            out.transfers
        );
        assert!(
            out.restarts.iter().sum::<u32>() >= 1,
            "the schedule actually restarted the victim: {:?}",
            out.restarts
        );
    }

    #[test]
    fn injected_scenario_runs_the_ablated_protocol() {
        let s = Scenario {
            proto: ProtoKind::FailStop,
            n: 4,
            k: 1,
            seed: 3,
            inputs: vec![
                simnet::Value::One,
                simnet::Value::Zero,
                simnet::Value::One,
                simnet::Value::Zero,
            ],
            faults: vec![FaultSpec::Correct; 4],
            sched: crate::scenario::SchedSpec::Fair(crate::scenario::OrderSpec::Random),
            step_limit: 100_000,
            inject: Some(Injection::WeakenFailStop {
                witness_slack: 100,
                decide_slack: 100,
            }),
        };
        let out = run_sim(&s);
        // The fully weakened protocol decides instantly — the run must at
        // least complete; whether it *agrees* is the fuzzer's business.
        assert_eq!(out.report.status, RunStatus::Stopped);
    }
}
