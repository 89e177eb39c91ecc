//! One slot's Bracha reliable broadcast: the echo/ready bookkeeping that
//! turns a leader's batch into a delivery every correct replica agrees on.
//!
//! The slot leader's [`RsmMsg::Announce`](crate::RsmMsg::Announce) is the
//! INIT message. A replica ECHOes the first announcement it receives once,
//! sends READY once it holds more than `(n+k)/2` matching echoes
//! ([`Config::accepts`], the §3.3 acceptance threshold) or `k+1` matching
//! readys, and delivers once it holds `2k+1` matching readys. With at most
//! `k` traitors, two correct replicas never deliver different batches, and
//! once one correct replica delivers, every correct replica does.
//!
//! Every sender's first echo and first ready win; later ones from the same
//! sender are ignored, so an equivocating sender counts once and at most
//! `2n` distinct candidate batches are ever held. Echoes and readys carry
//! the full batch: the workspace's only digest (FNV-1a) is not
//! collision-resistant, so a digest vote could be satisfied by a forged
//! batch.

use bt_core::Config;
use simnet::{Wire, WireError, WireReader};

use crate::command::Command;

/// Which of the two vote messages a batch arrived in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// An ECHO: the sender relays the leader's announcement.
    Echo,
    /// A READY: the sender vouches that the batch will be delivered.
    Ready,
}

/// The state of one slot's reliable broadcast at one replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rbc {
    /// Distinct batches seen in votes, in first-seen order (at most `2n`).
    candidates: Vec<Vec<Command>>,
    /// Per sender: the candidate its first ECHO carried.
    echoes: Vec<Option<usize>>,
    /// Per sender: the candidate its first READY carried.
    readys: Vec<Option<usize>>,
    /// This replica has sent its ECHO.
    echoed: bool,
    /// This replica has sent its READY.
    readied: bool,
    /// The delivered candidate, once `2k+1` readys match.
    delivered: Option<usize>,
}

impl Rbc {
    /// An empty broadcast for a system of `n` replicas.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Rbc {
            candidates: Vec::new(),
            echoes: vec![None; n],
            readys: vec![None; n],
            echoed: false,
            readied: false,
            delivered: None,
        }
    }

    /// Claims this replica's one ECHO: `true` the first time (the caller
    /// then echoes the leader's batch), `false` ever after.
    pub fn claim_echo(&mut self) -> bool {
        !std::mem::replace(&mut self.echoed, true)
    }

    /// Records `from`'s `vote` for `batch` (ignored if `from` already cast
    /// that kind of vote) and returns the batch this replica must now
    /// READY, if the vote completed an echo quorum or `k+1` readys and this
    /// replica has not readied yet. Delivery, checked after the READY, is
    /// reported by [`Rbc::delivered`].
    ///
    /// # Panics
    ///
    /// Panics if `from >= n` (senders are transport-authenticated ids).
    pub fn vote(
        &mut self,
        config: &Config,
        vote: Vote,
        from: usize,
        batch: Vec<Command>,
    ) -> Option<Vec<Command>> {
        let table = match vote {
            Vote::Echo => &self.echoes,
            Vote::Ready => &self.readys,
        };
        if table[from].is_some() {
            return None;
        }
        let c = match self.candidates.iter().position(|b| *b == batch) {
            Some(c) => c,
            None => {
                self.candidates.push(batch);
                self.candidates.len() - 1
            }
        };
        match vote {
            Vote::Echo => self.echoes[from] = Some(c),
            Vote::Ready => self.readys[from] = Some(c),
        }
        let readys = count(&self.readys, c);
        let mut ready = None;
        if !self.readied && (config.accepts(count(&self.echoes, c)) || readys > config.k()) {
            self.readied = true;
            ready = Some(self.candidates[c].clone());
        }
        if self.delivered.is_none() && readys > 2 * config.k() {
            self.delivered = Some(c);
        }
        ready
    }

    /// The delivered batch, once `2k+1` readys matched.
    #[must_use]
    pub fn delivered(&self) -> Option<&[Command]> {
        self.delivered.map(|c| self.candidates[c].as_slice())
    }

    /// Consumes the state, yielding the delivered batch if any.
    #[must_use]
    pub fn into_delivered(mut self) -> Option<Vec<Command>> {
        self.delivered
            .map(|c| std::mem::take(&mut self.candidates[c]))
    }
}

/// How many senders in `table` voted for candidate `c`.
fn count(table: &[Option<usize>], c: usize) -> usize {
    table.iter().filter(|&&v| v == Some(c)).count()
}

impl Wire for Rbc {
    fn encode(&self, out: &mut Vec<u8>) {
        self.candidates.encode(out);
        self.echoes.encode(out);
        self.readys.encode(out);
        self.echoed.encode(out);
        self.readied.encode(out);
        self.delivered.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Rbc {
            candidates: Vec::decode(r)?,
            echoes: Vec::decode(r)?,
            readys: Vec::decode(r)?,
            echoed: bool::decode(r)?,
            readied: bool::decode(r)?,
            delivered: Option::decode(r)?,
        })
    }

    /// Decoded snapshot bytes are untrusted: the tables must be indexed by
    /// exactly `n` senders, at most `2n` candidates may exist, and every
    /// recorded index must name one of them — anything else would panic
    /// the next vote or delivery.
    fn validate(&self, n: usize) -> bool {
        let held = self.candidates.len();
        let in_range = |v: &Option<usize>| v.is_none_or(|c| c < held);
        self.echoes.len() == n
            && self.readys.len() == n
            && held <= 2 * n
            && self.echoes.iter().chain(&self.readys).all(in_range)
            && in_range(&self.delivered)
            && self.candidates.iter().flatten().all(|c| c.validate(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Op;

    fn batch(tag: u64) -> Vec<Command> {
        vec![Command {
            client: tag,
            request: 1,
            op: Op::Noop,
        }]
    }

    fn config(n: usize, k: usize) -> Config {
        Config::malicious(n, k).unwrap()
    }

    /// Feeds `vote`s for `batch(tag)` from `senders`, returning how many
    /// of them triggered this replica's READY.
    fn feed(rbc: &mut Rbc, cfg: &Config, vote: Vote, senders: &[usize], tag: u64) -> usize {
        senders
            .iter()
            .filter(|&&s| rbc.vote(cfg, vote, s, batch(tag)).is_some())
            .count()
    }

    #[test]
    fn echo_quorum_triggers_ready_at_n4_k1() {
        // (n+k)/2 = 2.5: two echoes are not enough, three are.
        let cfg = config(4, 1);
        let mut rbc = Rbc::new(4);
        assert_eq!(feed(&mut rbc, &cfg, Vote::Echo, &[0, 1], 7), 0);
        assert_eq!(rbc.vote(&cfg, Vote::Echo, 2, batch(7)), Some(batch(7)));
        // READY is sent once, however many more echoes arrive.
        assert_eq!(feed(&mut rbc, &cfg, Vote::Echo, &[3], 7), 0);
        assert!(rbc.delivered().is_none(), "echoes alone never deliver");
    }

    #[test]
    fn echo_quorum_triggers_ready_at_n7_k2() {
        // (n+k)/2 = 4.5: four echoes are not enough, five are.
        let cfg = config(7, 2);
        let mut rbc = Rbc::new(7);
        assert_eq!(feed(&mut rbc, &cfg, Vote::Echo, &[0, 1, 2, 3], 1), 0);
        assert_eq!(feed(&mut rbc, &cfg, Vote::Echo, &[4], 1), 1);
    }

    #[test]
    fn k_plus_one_readys_amplify() {
        for (n, k) in [(4, 1), (7, 2)] {
            let cfg = config(n, k);
            let mut rbc = Rbc::new(n);
            let senders: Vec<usize> = (0..=k).collect();
            // k readys could all be traitors: no amplification yet.
            assert_eq!(feed(&mut rbc, &cfg, Vote::Ready, &senders[..k], 3), 0);
            assert_eq!(
                rbc.vote(&cfg, Vote::Ready, k, batch(3)),
                Some(batch(3)),
                "n={n} k={k}: k+1 readys must amplify"
            );
        }
    }

    #[test]
    fn two_k_plus_one_readys_deliver() {
        for (n, k) in [(4, 1), (7, 2)] {
            let cfg = config(n, k);
            let mut rbc = Rbc::new(n);
            let senders: Vec<usize> = (0..=2 * k).collect();
            feed(&mut rbc, &cfg, Vote::Ready, &senders[..2 * k], 5);
            assert!(rbc.delivered().is_none(), "n={n} k={k}: 2k readys");
            feed(&mut rbc, &cfg, Vote::Ready, &senders[2 * k..], 5);
            assert_eq!(rbc.delivered(), Some(batch(5).as_slice()));
            assert_eq!(rbc.into_delivered(), Some(batch(5)));
        }
    }

    #[test]
    fn an_equivocating_sender_counts_once() {
        let cfg = config(4, 1);
        let mut rbc = Rbc::new(4);
        // Sender 0 echoes two batches and repeats itself: only its first
        // echo counts, so batch 2 never gains a vote from it.
        feed(&mut rbc, &cfg, Vote::Echo, &[0, 0, 0], 1);
        feed(&mut rbc, &cfg, Vote::Echo, &[0], 2);
        feed(&mut rbc, &cfg, Vote::Echo, &[1], 2);
        assert_eq!(rbc.candidates.len(), 2, "sender 0's repeats added none");
        // Batch 2 holds echoes from 1 and 2 only: no quorum of three.
        assert_eq!(feed(&mut rbc, &cfg, Vote::Echo, &[2], 2), 0);
        // Readys likewise: 0 readys twice, still one vote short of 2k+1.
        feed(&mut rbc, &cfg, Vote::Ready, &[0, 0, 1], 9);
        assert!(rbc.delivered().is_none());
        feed(&mut rbc, &cfg, Vote::Ready, &[2], 9);
        assert_eq!(rbc.delivered(), Some(batch(9).as_slice()));
    }

    #[test]
    fn candidates_are_bounded_by_2n() {
        let n = 7;
        let cfg = config(n, 2);
        let mut rbc = Rbc::new(n);
        // Every sender echoes and readys a fresh batch, then tries again.
        for round in 0..3u64 {
            for s in 0..n {
                let tag = round * 100 + s as u64;
                rbc.vote(&cfg, Vote::Echo, s, batch(tag));
                rbc.vote(&cfg, Vote::Ready, s, batch(tag + 50));
            }
        }
        assert_eq!(rbc.candidates.len(), 2 * n);
        assert!(rbc.delivered().is_none(), "no batch gathered 2k+1 readys");
    }

    #[test]
    fn claim_echo_is_once() {
        let mut rbc = Rbc::new(4);
        assert!(rbc.claim_echo());
        assert!(!rbc.claim_echo());
    }

    #[test]
    fn wire_round_trips_and_validates() {
        let cfg = config(4, 1);
        let mut rbc = Rbc::new(4);
        rbc.claim_echo();
        feed(&mut rbc, &cfg, Vote::Echo, &[0, 1, 2], 4);
        feed(&mut rbc, &cfg, Vote::Ready, &[1, 2, 3], 4);
        feed(&mut rbc, &cfg, Vote::Ready, &[0], 8);
        let back = Rbc::from_bytes(&rbc.to_bytes()).unwrap();
        assert_eq!(back, rbc);
        assert!(back.validate(4));
        assert!(!back.validate(5), "tables sized for another n");
    }

    #[test]
    fn validate_rejects_out_of_range_state() {
        let mut good = Rbc::new(4);
        good.candidates.push(batch(1));
        good.echoes[0] = Some(0);
        assert!(good.validate(4));

        let mut short = good.clone();
        short.readys.pop();
        assert!(!short.validate(4), "ready table not length n");

        let mut stray = good.clone();
        stray.echoes[3] = Some(1);
        assert!(!stray.validate(4), "echo names a missing candidate");

        let mut phantom = good.clone();
        phantom.delivered = Some(5);
        assert!(!phantom.validate(4), "delivered index out of range");

        let mut bloated = good;
        bloated.candidates = vec![Vec::new(); 9];
        assert!(!bloated.validate(4), "more than 2n candidates");
    }
}
