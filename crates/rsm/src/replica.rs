//! The multi-decree replica: a [`Process`] that orders client batches
//! into a gap-free replicated log, one reliable broadcast per slot.
//!
//! # Design
//!
//! * **Rotating leadership, reliable broadcast.** Slot `s` belongs to
//!   process `s mod n` ([`leader`]), which reliably broadcasts the slot's
//!   command batch (Bracha's echo/ready broadcast, the descendant of the
//!   paper's §3.3 initial/echo acceptance; the per-slot state lives in
//!   `rbc.rs`). The leader's [`RsmMsg::Announce`] is the INIT; every
//!   replica [`RsmMsg::Echo`]es the first announcement it receives, sends
//!   [`RsmMsg::Ready`] after more than `(n+k)/2` matching echoes or `k+1`
//!   matching readys, and delivers the slot after `2k+1` matching readys.
//!   With at most `k` traitors — leaders included — two correct replicas
//!   never deliver different batches for one slot, and once one correct
//!   replica delivers, every correct replica does: an equivocating leader
//!   can stall its slot but never split the log. A slot costs `n + 2n²`
//!   message deliveries.
//! * **Batching.** An announcement drains up to `max_batch` pending
//!   commands into one slot, so one broadcast orders many commands.
//! * **Pipelining.** Up to `window` slots broadcast concurrently: a leader
//!   may announce slot `s+1` before slot `s` delivers. Deliveries still
//!   apply in slot order (the apply loop never skips), so the state
//!   machine sees a gap-free prefix. Messages for slots beyond the window
//!   are deferred and replayed once the window slides — the transport's
//!   reliable in-order delivery is never forfeited.
//! * **Message-driven gap-fill.** There are no timers: on seeing traffic
//!   for slot `s`, a replica first announces every one of its own slots
//!   below `s` it has not yet announced (with whatever commands are
//!   pending, else an empty batch). An idle system is therefore fully
//!   quiescent, while under load every slot below an announced one is
//!   eventually filled and the apply loop never stalls behind an idle
//!   leader.
//! * **A silent leader stalls the head.** A slot delivers only what its
//!   leader announced, so a dead or withholding leader leaves its slot
//!   open, and the in-order apply loop waits there until the leader
//!   returns (supervised restart, WAL replay). Skipping such a slot needs
//!   an agreement on commit-or-skip, which this replica does not run.
//! * **Laggards finish from recorded traffic.** Every correct replica
//!   sends its ECHO and READY once over a transport that retransmits
//!   everything unacknowledged, so a replica that fell behind (or
//!   recovered from its WAL) still collects `2k+1` readys for a slot its
//!   peers have long applied.
//!
//! Everything the replica does is a deterministic function of the
//! delivered message sequence (client commands arrive as journaled
//! [`RsmMsg::Submit`] deliveries), which is exactly the property the
//! netstack WAL needs to replay a crashed replica back to byte-identical
//! state without equivocation.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

use bt_core::Config;
use obs::metrics::{Counter, Gauge, Histogram, Registry};
use simnet::{Ctx, Envelope, Process, ProcessId, Value, Wire, WireReader};

use crate::command::Command;
use crate::msg::RsmMsg;
use crate::rbc::{Rbc, Vote};
use crate::state::{LogEntry, LogView};

/// The process id that leads (announces the batch for) slot `slot` in a
/// system of `n` processes.
#[must_use]
pub fn leader(slot: u64, n: usize) -> ProcessId {
    ProcessId::new((slot % n as u64) as usize)
}

/// Tuning knobs for pipelining and batching.
#[derive(Clone, Copy, Debug)]
pub struct RsmOptions {
    /// Maximum undelivered slots in flight (≥ 1). Messages for slots at
    /// or beyond `applied + window` are deferred until the window slides.
    pub window: u64,
    /// Maximum commands one announcement packs into a slot (≥ 1).
    pub max_batch: usize,
}

impl Default for RsmOptions {
    fn default() -> Self {
        RsmOptions {
            window: 8,
            max_batch: 64,
        }
    }
}

/// Replica-side telemetry, labelled `{node}`.
#[derive(Clone, Debug)]
struct RsmMetrics {
    /// Slots delivered and applied (empty gap-fill slots included).
    slots_committed: Counter,
    /// Commands applied to the KV state machine.
    commands_applied: Counter,
    /// Commands skipped as duplicates at apply time.
    commands_deduped: Counter,
    /// Commands per applied slot.
    batch_commands: Histogram,
    /// Open-to-deliver latency per locally observed slot (microseconds).
    commit_latency_us: Histogram,
    /// Reliable broadcasts currently open.
    pipeline_open: Gauge,
    /// Commands accepted but not yet announced.
    pending_queue: Gauge,
    /// Messages parked for slots beyond the pipeline window.
    deferred_msgs: Gauge,
    /// Submit messages refused because they did not come from this
    /// replica's own gateway.
    foreign_submits: Counter,
    /// Messages for already-applied slots (stragglers), dropped.
    late_messages: Counter,
}

impl RsmMetrics {
    fn new(registry: &Registry, me: ProcessId) -> Self {
        let node = me.index().to_string();
        let labels: &[(&str, &str)] = &[("node", &node)];
        RsmMetrics {
            slots_committed: registry.counter(
                "rsm_slots_committed_total",
                "log slots delivered and applied, empty gap-fill slots included",
                labels,
            ),
            commands_applied: registry.counter(
                "rsm_commands_applied_total",
                "client commands applied to the state machine",
                labels,
            ),
            commands_deduped: registry.counter(
                "rsm_commands_deduped_total",
                "client commands skipped as duplicate request ids",
                labels,
            ),
            batch_commands: registry.histogram(
                "rsm_batch_commands",
                "commands per applied slot",
                labels,
            ),
            commit_latency_us: registry.histogram(
                "rsm_commit_latency_us",
                "slot open-to-deliver latency of the reliable broadcast (microseconds)",
                labels,
            ),
            pipeline_open: registry.gauge(
                "rsm_pipeline_open",
                "slot broadcasts currently open",
                labels,
            ),
            pending_queue: registry.gauge(
                "rsm_pending_queue",
                "commands accepted but not yet announced",
                labels,
            ),
            deferred_msgs: registry.gauge(
                "rsm_deferred_msgs",
                "messages parked for slots beyond the pipeline window",
                labels,
            ),
            foreign_submits: registry.counter(
                "rsm_foreign_submits_total",
                "Submit messages dropped for arriving from a remote peer",
                labels,
            ),
            late_messages: registry.counter(
                "rsm_late_messages_total",
                "messages for already-applied slots, dropped",
                labels,
            ),
        }
    }
}

/// One replica of the multi-decree log. See the module docs for the
/// protocol; construct with [`Replica::new`] and the builder methods,
/// then drive it under `simnet` or hand it to `netstack::spawn`.
#[derive(Debug)]
pub struct Replica {
    config: Config,
    me: ProcessId,
    opts: RsmOptions,
    /// Commands injected at `on_start` (deterministic workloads for
    /// simulator runs and fuzzing; empty for networked services).
    preload: Vec<Command>,
    /// Accepted commands not yet packed into an announcement.
    pending: VecDeque<Command>,
    /// My lowest led slot not yet announced (always ≡ me mod n).
    announce_floor: u64,
    /// The next slot to apply; everything below is in the log.
    applied: u64,
    /// Open slot broadcasts (delivered ones wait here to apply in order),
    /// keyed by slot.
    slots: BTreeMap<u64, Rbc>,
    /// Messages for slots beyond the window, replayed when it slides.
    deferred: BTreeMap<u64, Vec<(ProcessId, RsmMsg)>>,
    deferred_len: u64,
    view: LogView,
    metrics: Option<RsmMetrics>,
    /// Wall-clock slot-open times for live commit-latency samples.
    /// Never part of snapshots and never consulted for protocol
    /// decisions, so replayed runs stay byte-identical.
    opened_at: HashMap<u64, Instant>,
}

impl Replica {
    /// Creates a replica for process `me` of the Figure 2 system in
    /// `config`, with a fresh (unshared) log view.
    #[must_use]
    pub fn new(config: Config, me: ProcessId, opts: RsmOptions) -> Self {
        assert!(opts.window >= 1, "window must be at least 1");
        assert!(opts.max_batch >= 1, "max_batch must be at least 1");
        assert!(me.index() < config.n(), "replica id within the system");
        Replica {
            config,
            me,
            opts,
            preload: Vec::new(),
            pending: VecDeque::new(),
            announce_floor: me.index() as u64,
            applied: 0,
            slots: BTreeMap::new(),
            deferred: BTreeMap::new(),
            deferred_len: 0,
            view: LogView::new(),
            metrics: None,
            opened_at: HashMap::new(),
        }
    }

    /// Shares `view` as this replica's applied-state sink (services hold
    /// the other clone and block on it for completions).
    #[must_use]
    pub fn with_view(mut self, view: LogView) -> Self {
        self.view = view;
        self
    }

    /// Registers this replica's telemetry in `registry`.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(RsmMetrics::new(registry, self.me));
        self
    }

    /// Seeds `commands` into the pending queue at `on_start` — the
    /// deterministic workload hook for simulator runs and fuzzing, where
    /// no gateway exists to inject [`RsmMsg::Submit`] deliveries.
    #[must_use]
    pub fn with_preload(mut self, commands: Vec<Command>) -> Self {
        self.preload = commands;
        self
    }

    /// A handle onto this replica's applied state.
    #[must_use]
    pub fn view(&self) -> LogView {
        self.view.clone()
    }

    /// The next slot to apply (the committed, applied prefix length).
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Currently open slot broadcasts (the live pipeline depth).
    #[must_use]
    pub fn open_instances(&self) -> usize {
        self.slots.len()
    }

    fn n(&self) -> usize {
        self.config.n()
    }

    /// Whether `slot` may have an open broadcast right now.
    fn in_window(&self, slot: u64) -> bool {
        slot < self.applied + self.opts.window
    }

    /// `slot`'s broadcast state, opened on first use. Callers have
    /// already dropped late traffic and deferred out-of-window traffic.
    fn open_slot(&mut self, slot: u64, live: bool) -> &mut Rbc {
        let n = self.n();
        let (metrics, opened_at) = (&self.metrics, &mut self.opened_at);
        self.slots.entry(slot).or_insert_with(|| {
            if live
                && metrics
                    .as_ref()
                    .is_some_and(|m| m.commit_latency_us.enabled())
            {
                opened_at.insert(slot, Instant::now());
            }
            Rbc::new(n)
        })
    }

    /// Announces my slot `announce_floor`: drains up to `max_batch`
    /// pending commands into a batch (possibly empty, for gap-fill) and
    /// broadcasts it. An announcement *beyond* the window is legal (and
    /// necessary: a leader whose next led slot lies past the window is
    /// exactly what prompts the leaders of the lower slots to gap-fill
    /// them); every replica, this one included, defers it until the
    /// window reaches its slot.
    fn announce_next(&mut self, ctx: &mut Ctx<'_, RsmMsg>) {
        let slot = self.announce_floor;
        debug_assert_eq!(leader(slot, self.n()), self.me);
        self.announce_floor += self.n() as u64;
        let take = self.pending.len().min(self.opts.max_batch);
        let commands: Vec<Command> = self.pending.drain(..take).collect();
        ctx.broadcast(RsmMsg::Announce { slot, commands });
    }

    /// How far past the applied prefix this replica may announce. The
    /// overhang must cover a full leader stride (`n` slots) on top of the
    /// window: a leader's consecutive led slots are `n` apart, so any
    /// tighter bound can leave its *next* led slot permanently
    /// unannounceable once every other leader has gone idle — the
    /// multi-slot fuzzer found exactly that tail stall at `window = 1`,
    /// `n = 7` (the final short batch never shipped). `window + n` keeps
    /// the next stride reachable while still bounding how many slots a
    /// hostile peer can make a correct replica announce.
    fn announce_horizon(&self) -> u64 {
        self.applied + self.opts.window + self.n() as u64
    }

    /// Gap-fill: announces every led slot of mine below `slot` that is
    /// still unannounced, so the apply loop can never stall behind me.
    /// Capped at the announce horizon — the same overhang bound
    /// spontaneous announcements obey — so a hostile `slot` cannot make
    /// a correct replica announce unboundedly.
    fn announce_up_to(&mut self, slot: u64, ctx: &mut Ctx<'_, RsmMsg>) {
        let target = slot.min(self.announce_horizon());
        while self.announce_floor < target {
            self.announce_next(ctx);
        }
    }

    /// Applies every delivered slot at the head of the log, slides the
    /// window, replays newly in-window deferred messages (via `work`),
    /// and keeps the pipeline fed from the pending queue.
    fn progress(&mut self, ctx: &mut Ctx<'_, RsmMsg>, work: &mut VecDeque<(ProcessId, RsmMsg)>) {
        loop {
            let slot = self.applied;
            if self.slots.get(&slot).and_then(Rbc::delivered).is_none() {
                break;
            }
            let commands = self
                .slots
                .remove(&slot)
                .and_then(Rbc::into_delivered)
                .unwrap_or_default();
            let entry = LogEntry {
                slot,
                winner: leader(slot, self.n()).index() as u64,
                commands,
            };
            if let Some(m) = &self.metrics {
                m.slots_committed.inc();
                m.batch_commands.record(entry.commands.len() as u64);
            }
            let (applied_delta, deduped_delta) = self.view.update(|a| {
                let before = (a.applied_commands, a.deduped_commands);
                a.apply(entry);
                (a.applied_commands - before.0, a.deduped_commands - before.1)
            });
            if let Some(m) = &self.metrics {
                m.commands_applied.add(applied_delta);
                m.commands_deduped.add(deduped_delta);
            }
            self.opened_at.remove(&slot);
            self.applied += 1;

            // The window slid: park-released messages re-enter the
            // worklist in slot order, ahead of nothing they depend on
            // (their slots are now processable immediately).
            let horizon = self.applied + self.opts.window;
            while let Some((&s, _)) = self.deferred.iter().next() {
                if s >= horizon {
                    break;
                }
                let msgs = self.deferred.remove(&s).unwrap_or_default();
                self.deferred_len -= msgs.len() as u64;
                work.extend(msgs);
            }
        }
        // Parked messages are *standing* traffic: receipt-time gap-fill is
        // capped by the then-current horizon, so a high-slot announcement
        // that arrived early (LIFO schedules do this) would otherwise
        // never be gap-filled toward again and the slots below it stay
        // empty forever — the multi-slot fuzzer caught exactly that stall.
        // Re-aiming at the lowest deferred slot on every window slide
        // keeps the chain reaction going until the slot opens.
        if let Some((&lowest, _)) = self.deferred.iter().next() {
            self.announce_up_to(lowest, ctx);
        }
        // Feed the pipeline: announce as many of my slots as pending
        // commands allow, up to the announce horizon. The overhang keeps
        // a loaded-but-unlucky leader (whose led slots all lie past the
        // window) from deadlocking the system: its out-of-window
        // announcement is the traffic that makes the lower slots' leaders
        // fill them.
        while !self.pending.is_empty() && self.announce_floor < self.announce_horizon() {
            self.announce_next(ctx);
        }
    }

    fn refresh_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.pipeline_open.set(self.slots.len() as u64);
            m.pending_queue.set(self.pending.len() as u64);
            m.deferred_msgs.set(self.deferred_len);
        }
    }

    fn defer(&mut self, slot: u64, from: ProcessId, msg: RsmMsg) {
        self.deferred.entry(slot).or_default().push((from, msg));
        self.deferred_len += 1;
    }

    /// Feeds one in-window broadcast message to `slot`'s state and sends
    /// what it owes: an ECHO for the leader's first announcement, a READY
    /// once an echo quorum or `k+1` readys match.
    fn step_slot(&mut self, slot: u64, from: ProcessId, msg: RsmMsg, ctx: &mut Ctx<'_, RsmMsg>) {
        let config = self.config;
        let rbc = self.open_slot(slot, ctx.live());
        let was_delivered = rbc.delivered().is_some();
        let ready = match msg {
            RsmMsg::Announce { commands, .. } => {
                if rbc.claim_echo() {
                    ctx.broadcast(RsmMsg::Echo { slot, commands });
                }
                None
            }
            RsmMsg::Echo { commands, .. } => rbc.vote(&config, Vote::Echo, from.index(), commands),
            RsmMsg::Ready { commands, .. } => {
                rbc.vote(&config, Vote::Ready, from.index(), commands)
            }
            RsmMsg::Submit { .. } => None,
        };
        let delivered_now = !was_delivered && rbc.delivered().is_some();
        if let Some(commands) = ready {
            ctx.broadcast(RsmMsg::Ready { slot, commands });
        }
        if delivered_now && ctx.live() {
            if let (Some(m), Some(t0)) = (&self.metrics, self.opened_at.remove(&slot)) {
                m.commit_latency_us.record_us(t0.elapsed());
            }
        }
    }

    fn handle(
        &mut self,
        from: ProcessId,
        msg: RsmMsg,
        ctx: &mut Ctx<'_, RsmMsg>,
        work: &mut VecDeque<(ProcessId, RsmMsg)>,
    ) {
        match msg {
            RsmMsg::Submit { commands } => {
                // Only this replica's own gateway may feed it commands
                // (they arrive as journaled self-frames); a Submit from a
                // remote peer is a protocol violation.
                if from != self.me {
                    if let Some(m) = &self.metrics {
                        m.foreign_submits.inc();
                    }
                    return;
                }
                let view = &self.view;
                let fresh = view.with(|a| {
                    commands
                        .into_iter()
                        .filter(|c| !a.is_complete(c.client, c.request))
                        .collect::<Vec<_>>()
                });
                self.pending.extend(fresh);
            }
            msg => {
                let Some(slot) = msg.slot() else { return };
                if slot < self.applied {
                    if let Some(m) = &self.metrics {
                        m.late_messages.inc();
                    }
                    return;
                }
                if matches!(msg, RsmMsg::Announce { .. }) && from != leader(slot, self.n()) {
                    return; // only the leader speaks for its slot
                }
                // Gap-fill *before* the window check: traffic for a slot
                // past the window is precisely the signal that the lower
                // slots (some of them mine) need filling so the window
                // can slide far enough to open it.
                self.announce_up_to(slot, ctx);
                if !self.in_window(slot) {
                    self.defer(slot, from, msg);
                    return;
                }
                self.step_slot(slot, from, msg, ctx);
            }
        }
        self.progress(ctx, work);
    }

    /// Canonical encoding of the applied log — the bytes behind the
    /// state-transfer hooks. Entries encode in slot order, so identical
    /// applied prefixes produce identical bytes on every replica.
    fn transfer_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.view.with(|a| a.log.encode(&mut out));
        out
    }
}

impl Process for Replica {
    type Msg = RsmMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, RsmMsg>) {
        let preload = std::mem::take(&mut self.preload);
        if preload.is_empty() {
            return; // quiescent until a gateway or peer speaks
        }
        self.pending.extend(preload);
        let mut work = VecDeque::new();
        self.progress(ctx, &mut work);
        debug_assert!(work.is_empty(), "nothing can be deferred before slot 0");
        self.refresh_gauges();
    }

    fn on_receive(&mut self, env: Envelope<RsmMsg>, ctx: &mut Ctx<'_, RsmMsg>) {
        let mut work = VecDeque::new();
        work.push_back((env.from, env.msg));
        while let Some((from, msg)) = work.pop_front() {
            self.handle(from, msg, ctx, &mut work);
        }
        self.refresh_gauges();
    }

    /// The one-shot decision facade does not apply to a long-lived log;
    /// always `None`. Read progress through [`Replica::view`].
    fn decision(&self) -> Option<Value> {
        None
    }

    /// The applied-prefix length — the natural progress counter for
    /// status displays built around phase numbers.
    fn phase(&self) -> u64 {
        self.applied
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.applied.encode(&mut out);
        self.announce_floor.encode(&mut out);
        self.view.with(|a| a.log.encode(&mut out));
        self.pending.len().encode(&mut out);
        for command in &self.pending {
            command.encode(&mut out);
        }
        // Encoded in place with the layout of `Vec<(u64, T)>`, which is
        // how `restore` decodes them.
        self.slots.len().encode(&mut out);
        for (slot, rbc) in &self.slots {
            slot.encode(&mut out);
            rbc.encode(&mut out);
        }
        self.deferred.len().encode(&mut out);
        for (slot, msgs) in &self.deferred {
            slot.encode(&mut out);
            msgs.encode(&mut out);
        }
        Some(out)
    }

    /// Decoded checkpoint bytes are untrusted: anything malformed or out
    /// of range for this system returns `false` and leaves `self` intact.
    fn restore(&mut self, bytes: &[u8]) -> bool {
        let mut r = WireReader::new(bytes);
        let Ok(applied) = u64::decode(&mut r) else {
            return false;
        };
        let Ok(announce_floor) = u64::decode(&mut r) else {
            return false;
        };
        let Ok(log) = Vec::<LogEntry>::decode(&mut r) else {
            return false;
        };
        let Ok(pending) = Vec::<Command>::decode(&mut r) else {
            return false;
        };
        let Ok(slots) = Vec::<(u64, Rbc)>::decode(&mut r) else {
            return false;
        };
        let Ok(deferred) = Vec::<(u64, Vec<(ProcessId, RsmMsg)>)>::decode(&mut r) else {
            return false;
        };
        if r.finish().is_err() || log.len() as u64 != applied {
            return false;
        }
        if announce_floor % self.n() as u64 != self.me.index() as u64 {
            return false;
        }
        if !slots
            .iter()
            .all(|(slot, rbc)| *slot >= applied && rbc.validate(self.n()))
        {
            return false;
        }
        // Re-derive the applied state by folding the log; apply()'s
        // in-order assertion doubles as a structural check.
        if log.iter().enumerate().any(|(i, e)| e.slot != i as u64) {
            return false;
        }
        self.view.update(|a| {
            *a = crate::state::AppliedState::default();
            for entry in log {
                a.apply(entry);
            }
        });
        self.applied = applied;
        self.announce_floor = announce_floor;
        self.pending = pending.into();
        self.slots = slots.into_iter().collect();
        self.deferred_len = deferred.iter().map(|(_, m)| m.len() as u64).sum();
        self.deferred = deferred.into_iter().collect();
        self.preload.clear();
        self.opened_at.clear();
        self.refresh_gauges();
        true
    }

    /// The replicated portion of a replica's state is exactly the applied
    /// log: every correct replica holding the same prefix encodes the
    /// same bytes, unlike [`Process::snapshot`], whose bytes carry
    /// process-local state (announce floor, open broadcasts, pending
    /// queue) that legitimately differs across replicas.
    fn transfer_digest(&self) -> u64 {
        netstack::fnv1a64(&self.transfer_bytes())
    }

    fn transfer_state(&self) -> Option<Vec<u8>> {
        Some(self.transfer_bytes())
    }

    /// Installs a quorum-confirmed applied log onto a fresh (amnesiac)
    /// replica. Everything process-local restarts from scratch: open
    /// broadcasts and queued commands are rebuilt by the live
    /// protocol, and the announce floor resumes at this replica's first
    /// owned slot at or past the adopted prefix — so the rejoiner can
    /// never re-announce a slot the quorum already filled.
    fn adopt_transfer(&mut self, bytes: &[u8]) -> bool {
        let mut r = WireReader::new(bytes);
        let Ok(log) = Vec::<LogEntry>::decode(&mut r) else {
            return false;
        };
        if r.finish().is_err() {
            return false;
        }
        if log.iter().enumerate().any(|(i, e)| e.slot != i as u64) {
            return false;
        }
        let applied = log.len() as u64;
        self.view.update(|a| {
            *a = crate::state::AppliedState::default();
            for entry in log {
                a.apply(entry);
            }
        });
        self.applied = applied;
        let n = self.n() as u64;
        let me = self.me.index() as u64;
        self.announce_floor = applied + ((me + n - applied % n) % n);
        self.pending.clear();
        self.slots.clear();
        self.deferred.clear();
        self.deferred_len = 0;
        self.preload.clear();
        self.opened_at.clear();
        self.refresh_gauges();
        true
    }
}
