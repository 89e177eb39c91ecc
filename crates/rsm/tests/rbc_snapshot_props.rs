//! Checkpoint properties of the replica's per-slot reliable-broadcast
//! state: a replica restored from a snapshot taken mid-slot is
//! behaviourally indistinguishable from the original (same sends, same
//! log, same bytes) under randomized echo/ready traffic, snapshots are
//! canonical under round-trip, and hostile snapshot bytes are refused
//! without a panic.

use bt_core::Config;
use rsm::{Command, LogView, Op, Replica, RsmMsg, RsmOptions};
use simnet::{Ctx, Envelope, Process, ProcessId, SimRng, Wire};

const ME: usize = 1;

fn opts() -> RsmOptions {
    RsmOptions {
        window: 4,
        max_batch: 3,
    }
}

fn replica(config: Config) -> Replica {
    Replica::new(config, ProcessId::new(ME), opts()).with_view(LogView::new())
}

fn put(client: u64, request: u64) -> Command {
    Command {
        client,
        request,
        op: Op::Put {
            key: vec![b'k', client as u8],
            value: request.to_le_bytes().to_vec(),
        },
    }
}

/// One of two candidate batches per slot, so votes sometimes conflict.
fn batch(slot: u64, variant: usize) -> Vec<Command> {
    (0..variant as u64 + 1)
        .map(|i| put(10 + variant as u64, slot * 4 + i + 1))
        .collect()
}

/// A random message near the replica's applied prefix: mostly votes,
/// some announcements (occasionally from a non-leader), and client
/// submits through the replica's own gateway.
fn random_env(rng: &mut SimRng, n: usize, applied: u64) -> Envelope<RsmMsg> {
    let slot = applied + rng.index(4) as u64;
    let variant = usize::from(rng.index(5) == 0);
    let from = ProcessId::new(rng.index(n));
    let commands = batch(slot, variant);
    match rng.index(10) {
        0 => Envelope::new(
            ProcessId::new(ME),
            RsmMsg::Submit {
                commands: vec![put(3, 1 + rng.index(40) as u64)],
            },
        ),
        1 | 2 => {
            let leader = if rng.index(6) == 0 {
                from
            } else {
                rsm::leader(slot, n)
            };
            Envelope::new(leader, RsmMsg::Announce { slot, commands })
        }
        3..=5 => Envelope::new(from, RsmMsg::Echo { slot, commands }),
        _ => Envelope::new(from, RsmMsg::Ready { slot, commands }),
    }
}

fn deliver(p: &mut Replica, n: usize, env: Envelope<RsmMsg>) -> Vec<(ProcessId, RsmMsg)> {
    let mut outbox = Vec::new();
    let mut rng = SimRng::seed(0);
    let mut ctx = Ctx::new(ProcessId::new(ME), n, 0, &mut outbox, &mut rng);
    p.on_receive(env, &mut ctx);
    outbox
}

#[test]
fn restored_mid_slot_replica_behaves_identically() {
    for (n, k) in [(4, 1), (7, 2)] {
        let config = Config::malicious(n, k).unwrap();
        let (mut mid_slot, mut applied) = (0, 0);
        for seed in 0..20u64 {
            let mut rng = SimRng::seed(0x5107 ^ (seed << 8) ^ n as u64);
            let mut p = replica(config);
            // First act: drive the original partway through some slots.
            for _ in 0..60 {
                let env = random_env(&mut rng, n, p.applied());
                let _ = deliver(&mut p, n, env);
            }
            // Clone via the wire, then play the identical second act.
            let snap = p.snapshot().expect("replicas checkpoint");
            mid_slot += usize::from(p.open_instances() > 0);
            let mut q = replica(config);
            assert!(q.restore(&snap), "n={n} seed {seed}: restore failed");
            for step in 0..120 {
                let env = random_env(&mut rng, n, p.applied());
                let sent_p = deliver(&mut p, n, env.clone());
                let sent_q = deliver(&mut q, n, env);
                assert_eq!(
                    sent_p, sent_q,
                    "n={n} seed {seed} step {step}: sends differ"
                );
            }
            assert_eq!(p.snapshot(), q.snapshot(), "n={n} seed {seed}: state");
            assert_eq!(
                p.view().snapshot(),
                q.view().snapshot(),
                "n={n} seed {seed}: applied logs differ"
            );
            applied += usize::from(p.applied() > 0);
        }
        // The property only bites if the snapshots caught open slots and
        // the second act went on to deliver some.
        assert!(mid_slot >= 15, "n={n}: {mid_slot}/20 snapshots mid-slot");
        assert!(applied >= 10, "n={n}: {applied}/20 runs delivered a slot");
    }
}

#[test]
fn snapshots_are_canonical_under_round_trip() {
    let n = 4;
    let config = Config::malicious(n, 1).unwrap();
    let mut rng = SimRng::seed(0xCA40);
    let mut p = replica(config);
    let mut delivered_some = false;
    for step in 0..300 {
        let env = random_env(&mut rng, n, p.applied());
        let _ = deliver(&mut p, n, env);
        delivered_some |= p.applied() > 0;
        if step % 17 != 0 {
            continue;
        }
        let snap = p.snapshot().unwrap();
        let mut q = replica(config);
        assert!(q.restore(&snap), "step {step}: restore failed");
        assert_eq!(q.snapshot().unwrap(), snap, "step {step}: not canonical");
    }
    assert!(delivered_some, "the random traffic never delivered a slot");
}

/// Hand-encoded `Rbc` bytes in its wire layout: candidates, echo table,
/// ready table, echoed, readied, delivered.
fn rbc_bytes(
    candidates: &[Vec<Command>],
    echoes: &[Option<usize>],
    readys: &[Option<usize>],
    delivered: Option<usize>,
) -> Vec<u8> {
    let mut out = Vec::new();
    candidates.to_vec().encode(&mut out);
    echoes.to_vec().encode(&mut out);
    readys.to_vec().encode(&mut out);
    true.encode(&mut out);
    false.encode(&mut out);
    delivered.encode(&mut out);
    out
}

/// A snapshot of an empty replica `ME` holding one open slot whose
/// broadcast state is `rbc`.
fn snapshot_with_slot(rbc: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    0u64.encode(&mut out); // applied
    (ME as u64).encode(&mut out); // announce floor
    Vec::<rsm::LogEntry>::new().encode(&mut out);
    Vec::<Command>::new().encode(&mut out);
    1usize.encode(&mut out); // one open slot
    0u64.encode(&mut out);
    out.extend_from_slice(rbc);
    Vec::<(u64, Vec<(ProcessId, RsmMsg)>)>::new().encode(&mut out);
    out
}

#[test]
fn hostile_snapshots_are_refused_without_panic() {
    let n = 4;
    let config = Config::malicious(n, 1).unwrap();
    let one = vec![batch(0, 0)];
    let none = vec![None; n];
    let valid = snapshot_with_slot(&rbc_bytes(&one, &[Some(0), None, None, None], &none, None));
    assert!(
        replica(config).restore(&valid),
        "the well-formed base restores"
    );

    let hostile = [
        (
            "echo table longer than n",
            rbc_bytes(&one, &[None; 5], &none, None),
        ),
        (
            "ready table shorter than n",
            rbc_bytes(&one, &none, &[None; 3], None),
        ),
        (
            "echo names a missing candidate",
            rbc_bytes(&one, &[Some(1), None, None, None], &none, None),
        ),
        (
            "ready names a missing candidate",
            rbc_bytes(&one, &none, &[None, None, Some(7), None], None),
        ),
        (
            "delivered index out of range",
            rbc_bytes(&one, &none, &none, Some(1)),
        ),
        (
            "delivered with no candidates",
            rbc_bytes(&[], &none, &none, Some(0)),
        ),
        (
            "more than 2n candidates",
            rbc_bytes(&vec![Vec::new(); 2 * n + 1], &none, &none, None),
        ),
    ];
    for (what, rbc) in hostile {
        let mut p = replica(config);
        let before = p.snapshot();
        assert!(!p.restore(&snapshot_with_slot(&rbc)), "{what}: accepted");
        assert_eq!(
            p.snapshot(),
            before,
            "{what}: rejection changed the replica"
        );
    }

    // Every truncation of a real mid-slot snapshot is refused too.
    let mut rng = SimRng::seed(3);
    let mut p = replica(config);
    for _ in 0..40 {
        let env = random_env(&mut rng, n, p.applied());
        let _ = deliver(&mut p, n, env);
    }
    let snap = p.snapshot().unwrap();
    for len in 0..snap.len() {
        assert!(
            !replica(config).restore(&snap[..len]),
            "prefix {len} accepted"
        );
    }
}
