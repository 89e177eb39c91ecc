//! The `sim-byz` workload: the paper's Figure 2 experiment under the
//! simulator — n = 128 `Malicious` processes of which `sweep_k(128)` = 7
//! are `ContrarianMalicious` balancing attackers, split inputs, the
//! `malicious_sweep_limit` step cap — as back-to-back trials on one
//! thread from seeds derived from the workload seed.
//!
//! Every process is boxed inside a [`Probe`] that counts deliveries and
//! marks every [`MARK`]th one; a slice of [`SLICE`] deliveries is the
//! workload's op, and the marks between slices resolve stalls. In a
//! traced run every other trial's probe also times each `on_receive`, so
//! the trial splits into protocol time and engine time, and the untraced
//! trials between them give the tracing overhead.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use adversary::ContrarianMalicious;
use bench::{malicious_sweep_limit, split_inputs, sweep_k};
use bt_core::{Config, Malicious, MaliciousMsg};
use obs::json::Json;
use prng::Prng;
use simnet::{Ctx, Envelope, Process, Role, RunReport, RunStatus, Sim, Value};

use crate::measure::{
    machine_cpu_jiffies, mean, median, median_or_nan, peak_rss_mb, quantile, ratio, steal_frac,
    thread_cpu_ms,
};
use crate::trace::Recorder;
use crate::{Outcome, RunConfig};

/// Deliveries per op: long enough (~25 ms) that neither the few
/// milliseconds the hypervisor takes now and then nor the engine's own
/// ~20 ms stalls set the p99 alone, short enough that a run holds over
/// 1000 of them.
pub const SLICE: u64 = 40_000;

/// Deliveries between progress marks: `outage_ms` finds stalls to this
/// grain (~0.7 ms). [`SLICE`] is a multiple of it.
pub const MARK: u64 = 1000;

/// What the probes of one trial share.
#[derive(Debug, Default)]
struct ProbeState {
    /// Time each `on_receive`.
    timed: bool,
    deliveries: Cell<u64>,
    receive_ns: Cell<u64>,
    /// When each run of [`MARK`] deliveries completed.
    marks: RefCell<Vec<Instant>>,
}

impl ProbeState {
    fn delivered(&self, now: impl FnOnce() -> Instant) {
        let d = self.deliveries.get() + 1;
        self.deliveries.set(d);
        if d.is_multiple_of(MARK) {
            self.marks.borrow_mut().push(now());
        }
    }
}

/// A process wrapper the benchmark boxes around each protocol instance.
#[derive(Debug)]
struct Probe<P> {
    inner: P,
    state: Rc<ProbeState>,
}

impl<P: Process> Process for Probe<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_receive(&mut self, env: Envelope<Self::Msg>, ctx: &mut Ctx<'_, Self::Msg>) {
        if self.state.timed {
            let t0 = Instant::now();
            self.inner.on_receive(env, ctx);
            let t1 = Instant::now();
            let ns = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
            self.state.receive_ns.set(self.state.receive_ns.get() + ns);
            self.state.delivered(|| t1);
        } else {
            self.inner.on_receive(env, ctx);
            self.state.delivered(Instant::now);
        }
    }

    fn decision(&self) -> Option<Value> {
        self.inner.decision()
    }

    fn phase(&self) -> u64 {
        self.inner.phase()
    }

    fn decision_phase(&self) -> Option<u64> {
        self.inner.decision_phase()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }
}

/// The Figure 2 system for one trial: `n − k` correct processes with split
/// inputs, `k` balancing attackers, every one inside a probe.
fn system(n: usize, seed: u64, state: &Rc<ProbeState>) -> Sim<MaliciousMsg> {
    let k = sweep_k(n);
    let config = Config::malicious(n, k).expect("sweep_k stays within ⌊(n−1)/3⌋");
    let inputs = split_inputs(n, n / 2);
    let mut b = Sim::builder();
    for &input in inputs.iter().take(n - k) {
        b.process(
            Box::new(Probe {
                inner: Malicious::new(config, input),
                state: Rc::clone(state),
            }),
            Role::Correct,
        );
    }
    for _ in 0..k {
        b.process(
            Box::new(Probe {
                inner: ContrarianMalicious::new(config),
                state: Rc::clone(state),
            }),
            Role::Faulty,
        );
    }
    b.seed(seed).step_limit(malicious_sweep_limit(n));
    b.build()
}

/// The trial check: agreement, every correct process decided, the run
/// stopped on decision rather than the step cap, and the probes saw every
/// delivery the engine made.
///
/// # Errors
///
/// Describes the failed property.
pub fn check_trial(report: &RunReport, probed_deliveries: u64) -> Result<(), String> {
    if !report.agreement() {
        return Err("correct processes disagree".to_string());
    }
    if !report.all_correct_decided() {
        return Err(format!(
            "not every correct process decided ({:?})",
            report.status
        ));
    }
    if report.status != RunStatus::Stopped {
        return Err(format!("run ended {:?}", report.status));
    }
    if probed_deliveries != report.steps {
        return Err(format!(
            "probes saw {probed_deliveries} deliveries, engine made {}",
            report.steps
        ));
    }
    Ok(())
}

/// One finished trial.
#[derive(Debug)]
struct Trial {
    seed: u64,
    timed: bool,
    wall: Duration,
    run: Duration,
    /// CPU time of the trial's thread, build included.
    cpu_ms: f64,
    receive_ns: u64,
    slices: Vec<f64>,
    marks: Vec<Instant>,
    steps: u64,
    sent: u64,
    buffer_peak: u64,
    phases: Option<u64>,
}

/// Runs `sim-byz`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let n = cfg.sim_n;
    let mut seeds = Prng::seed_from_u64(cfg.seed);

    // Set-up: building the 128-process system, several times.
    let builds: Vec<f64> = (0..cfg.setups.max(1))
        .map(|_| {
            let state = Rc::new(ProbeState::default());
            let t = Instant::now();
            let sim = system(n, seeds.next_u64(), &state);
            let s = t.elapsed().as_secs_f64();
            drop(sim);
            s
        })
        .collect();
    out.e2e("setup_s", median(&builds));
    out.detail(
        "setup_samples_s",
        Json::Arr(builds.iter().map(|&t| Json::Num(t)).collect()),
    );

    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let mut trials: Vec<Trial> = Vec::new();
    let machine_before = machine_cpu_jiffies();
    let start = Instant::now();
    // Trials start while the previous one's length still fits in the
    // window; the first always runs.
    let mut last = Duration::ZERO;
    while trials.is_empty() || start.elapsed() + last <= cfg.window {
        let seed = seeds.next_u64();
        // Traced runs time every other trial, starting with the first.
        let timed = cfg.trace && trials.len().is_multiple_of(2);
        let state = Rc::new(ProbeState {
            timed,
            ..ProbeState::default()
        });
        let cpu_before = thread_cpu_ms();
        let t0 = Instant::now();
        let sim = system(n, seed, &state);
        let t_built = Instant::now();
        let report = sim.run();
        let t_end = Instant::now();
        let cpu_ms = thread_cpu_ms() - cpu_before;
        last = t_end - t0;
        let marks = state.marks.take();
        let per_slice = (SLICE / MARK) as usize;
        let mut slices = Vec::with_capacity(marks.len() / per_slice);
        let mut prev = t_built;
        for &m in marks.iter().skip(per_slice - 1).step_by(per_slice) {
            slices.push((m - prev).as_secs_f64() * 1e3);
            prev = m;
        }
        if let Err(e) = check_trial(&report, state.deliveries.get()) {
            out.problem(format!("trial seed {seed}: {e}"));
            out.failed += (slices.len() as u64).max(1);
        }
        if timed {
            let root = rec.id();
            rec.record(root, None, "trial", None, t0, t_end);
            rec.child(root, "build", None, t0, t_built);
            let run = rec.child(root, "run", None, t_built, t_end);
            // All on_receive calls of the trial, as one aggregate child.
            let recv = t_built + Duration::from_nanos(state.receive_ns.get());
            rec.child(run, "on_receive", None, t_built, recv.min(t_end));
        }
        trials.push(Trial {
            seed,
            timed,
            wall: t_end - t0,
            run: t_end - t_built,
            cpu_ms,
            receive_ns: state.receive_ns.get(),
            slices,
            marks,
            steps: report.steps,
            sent: report.metrics.messages_sent,
            buffer_peak: report.metrics.max_buffer_occupancy,
            phases: report.phases_to_decision(),
        });
    }
    let end = Instant::now();
    out.detail(
        "steal_frac",
        Json::Num(steal_frac(machine_before, machine_cpu_jiffies())),
    );
    let secs = (end - start).as_secs_f64();

    out.attempted = (trials.iter().map(|t| t.slices.len() as u64).sum::<u64>()).max(out.failed);
    // A trial is the cycle here: its longest gap between progress marks,
    // counted from the previous trial's last slice (the window start for
    // the first), so the stall between trials is part of it.
    let mut last = start;
    let gaps: Vec<f64> = trials
        .iter()
        .filter_map(|t| {
            let gap = std::iter::once(&last)
                .chain(&t.marks)
                .zip(&t.marks)
                .map(|(a, b)| *b - *a)
                .max();
            if let Some(&m) = t.marks.last() {
                last = m;
            }
            gap
        })
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    // Each trial is one measurement, and the run reports the median trial
    // (slices counted fractionally in rates, so a trial's tail counts too).
    // The p99 pools the run: a trial holds too few slices for its own.
    let slices = |t: &Trial| t.steps as f64 / SLICE as f64;
    let rates: Vec<f64> = trials
        .iter()
        .map(|t| slices(t) / t.wall.as_secs_f64())
        .collect();
    let cpu_per_op: Vec<f64> = trials.iter().map(|t| t.cpu_ms / slices(t)).collect();
    let p50s: Vec<f64> = trials
        .iter()
        .filter_map(|t| {
            let mut lat = t.slices.clone();
            lat.sort_by(f64::total_cmp);
            quantile(&lat, 0.5)
        })
        .collect();
    let mut lat: Vec<f64> = trials.iter().flat_map(|t| t.slices.clone()).collect();
    lat.sort_by(f64::total_cmp);
    out.e2e("ops_per_s", median_or_nan(&rates));
    out.e2e("op_p50_ms", median_or_nan(&p50s));
    out.e2e("op_p99_ms", quantile(&lat, 0.99).unwrap_or(f64::NAN));
    out.e2e("cpu_ms_per_op", median_or_nan(&cpu_per_op));
    out.e2e("outage_ms", median_or_nan(&gaps));
    out.e2e("peak_rss_mb", peak_rss_mb());

    let steps: u64 = trials.iter().map(|t| t.steps).sum();
    out.detail("n", Json::num(n as u64));
    out.detail("k", Json::num(sweep_k(n) as u64));
    out.detail("trials", Json::num(trials.len() as u64));
    out.detail("deliveries_per_s", Json::Num(steps as f64 / secs));
    out.detail(
        "trial_seeds",
        Json::Arr(trials.iter().map(|t| Json::num(t.seed)).collect()),
    );
    out.detail(
        "trial_phases",
        Json::Arr(
            trials
                .iter()
                .map(|t| t.phases.map_or(Json::Null, Json::num))
                .collect(),
        ),
    );
    out.detail(
        "trial_ns_per_delivery",
        Json::Arr(
            trials
                .iter()
                .map(|t| Json::Num(ratio(t.run.as_nanos() as f64, t.steps as f64)))
                .collect(),
        ),
    );
    out.detail("p99_has_10_beyond", Json::Bool(lat.len() >= 1000));
    out.detail(
        "slice_ms_p90_p95_p98_p99_p995",
        Json::Arr(
            [0.90, 0.95, 0.98, 0.99, 0.995]
                .iter()
                .map(|&p| Json::Num(quantile(&lat, p).unwrap_or(f64::NAN)))
                .collect(),
        ),
    );

    if cfg.trace {
        let timed: Vec<&Trial> = trials.iter().filter(|t| t.timed).collect();
        let untimed: Vec<&Trial> = trials.iter().filter(|t| !t.timed).collect();
        let timed_steps: u64 = timed.iter().map(|t| t.steps).sum();
        let run_ns: f64 = timed.iter().map(|t| t.run.as_nanos() as f64).sum();
        let recv_ns: f64 = timed.iter().map(|t| t.receive_ns as f64).sum();
        out.layer(
            "simnet.engine_ns_per_delivery",
            ratio(run_ns - recv_ns, timed_steps as f64),
        );
        out.layer(
            "simnet.buffer_peak",
            trials.iter().map(|t| t.buffer_peak).max().unwrap_or(0) as f64,
        );
        out.layer(
            "simnet.deliveries_per_trial",
            mean(&trials.iter().map(|t| t.steps as f64).collect::<Vec<_>>()),
        );
        out.layer(
            "bt-core.malicious.receive_ns",
            ratio(recv_ns, timed_steps as f64),
        );
        out.layer(
            "bt-core.malicious.msgs_per_trial",
            mean(&trials.iter().map(|t| t.sent as f64).collect::<Vec<_>>()),
        );
        out.layer(
            "sim.trial_p50_s",
            median(
                &trials
                    .iter()
                    .map(|t| t.wall.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
        );
        out.layer(
            "sim.phases_mean",
            mean(
                &trials
                    .iter()
                    .filter_map(|t| t.phases.map(|p| p as f64))
                    .collect::<Vec<_>>(),
            ),
        );
        // Overhead: ns per delivery of the timed trials against the
        // untimed ones between them.
        let ns_per = |set: &[&Trial]| {
            ratio(
                set.iter().map(|t| t.run.as_nanos() as f64).sum(),
                set.iter().map(|t| t.steps as f64).sum(),
            )
        };
        let (t_ns, u_ns) = (ns_per(&timed), ns_per(&untimed));
        out.layer("trace.ops_per_s_overhead", ratio(t_ns - u_ns, t_ns));
        let p50 = |set: &[&Trial]| {
            let mut v: Vec<f64> = set.iter().flat_map(|t| t.slices.iter().copied()).collect();
            v.sort_by(f64::total_cmp);
            quantile(&v, 0.5).unwrap_or(0.0)
        };
        let (t50, u50) = (p50(&timed), p50(&untimed));
        out.layer("trace.op_p50_overhead", ratio(t50 - u50, u50));

        out.spans(&rec.into_spans(), &cfg.spans_path("sim-byz"));
    }
    out
}
