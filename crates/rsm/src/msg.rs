//! The replica-to-replica wire protocol: client injections and the three
//! steps of each slot's reliable broadcast (announce, echo, ready).

use simnet::{Wire, WireError, WireReader};

use crate::command::{Command, MAX_BATCH_WIRE};

/// One message of the multi-decree protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RsmMsg {
    /// Client gateway → its own replica: enqueue `commands` for
    /// announcement. Only ever accepted from the replica itself (the
    /// gateway injects it through the node's own listener so it is
    /// journaled, deduplicated, and replayed like any other delivery);
    /// a copy arriving from a remote peer is dropped.
    Submit {
        /// The commands to enqueue, in submission order.
        commands: Vec<Command>,
    },
    /// Slot leader → all: the batch proposed for `slot` — the INIT of the
    /// slot's reliable broadcast. Accepted only from the slot's leader.
    Announce {
        /// The slot being announced.
        slot: u64,
        /// The proposed batch (possibly empty, for gap-fill slots).
        commands: Vec<Command>,
    },
    /// Any replica → all: relays the first announcement it received for
    /// `slot`, once.
    Echo {
        /// The slot whose broadcast this vote belongs to.
        slot: u64,
        /// The echoed batch, in full.
        commands: Vec<Command>,
    },
    /// Any replica → all: vouches that `slot` will deliver `commands`,
    /// once (after an echo quorum or `k+1` matching readys).
    Ready {
        /// The slot whose broadcast this vote belongs to.
        slot: u64,
        /// The batch vouched for, in full.
        commands: Vec<Command>,
    },
}

impl RsmMsg {
    /// The slot a broadcast message belongs to; `None` for `Submit`.
    #[must_use]
    pub fn slot(&self) -> Option<u64> {
        match self {
            RsmMsg::Submit { .. } => None,
            RsmMsg::Announce { slot, .. }
            | RsmMsg::Echo { slot, .. }
            | RsmMsg::Ready { slot, .. } => Some(*slot),
        }
    }
}

impl Wire for RsmMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, slot, commands) = match self {
            RsmMsg::Submit { commands } => (0, None, commands),
            RsmMsg::Announce { slot, commands } => (1, Some(slot), commands),
            RsmMsg::Echo { slot, commands } => (2, Some(slot), commands),
            RsmMsg::Ready { slot, commands } => (3, Some(slot), commands),
        };
        out.push(tag);
        if let Some(slot) = slot {
            slot.encode(out);
        }
        commands.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        let tag = r.byte()?;
        if tag == 0 {
            return Ok(RsmMsg::Submit {
                commands: Vec::decode(r)?,
            });
        }
        let make: fn(u64, Vec<Command>) -> RsmMsg = match tag {
            1 => |slot, commands| RsmMsg::Announce { slot, commands },
            2 => |slot, commands| RsmMsg::Echo { slot, commands },
            3 => |slot, commands| RsmMsg::Ready { slot, commands },
            _ => {
                return Err(WireError::Invalid {
                    what: "rsm message discriminant",
                    offset,
                })
            }
        };
        let slot = u64::decode(r)?;
        Ok(make(slot, Vec::decode(r)?))
    }

    fn validate(&self, n: usize) -> bool {
        let (RsmMsg::Submit { commands }
        | RsmMsg::Announce { commands, .. }
        | RsmMsg::Echo { commands, .. }
        | RsmMsg::Ready { commands, .. }) = self;
        commands.len() <= MAX_BATCH_WIRE && commands.iter().all(|c| c.validate(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Op;

    fn cmd(client: u64, request: u64) -> Command {
        Command {
            client,
            request,
            op: Op::Put {
                key: vec![1, 2],
                value: vec![3],
            },
        }
    }

    #[test]
    fn round_trips() {
        let msgs = [
            RsmMsg::Submit {
                commands: vec![cmd(1, 1), cmd(2, 9)],
            },
            RsmMsg::Announce {
                slot: 17,
                commands: vec![cmd(1, 2)],
            },
            RsmMsg::Announce {
                slot: 0,
                commands: Vec::new(),
            },
            RsmMsg::Echo {
                slot: 3,
                commands: vec![cmd(4, 4)],
            },
            RsmMsg::Ready {
                slot: u64::MAX,
                commands: Vec::new(),
            },
        ];
        for m in msgs {
            assert_eq!(RsmMsg::from_bytes(&m.to_bytes()), Ok(m));
        }
    }

    #[test]
    fn validate_guards_contents() {
        // Every variant caps its batch at MAX_BATCH_WIRE.
        let fat = vec![cmd(1, 1); MAX_BATCH_WIRE + 1];
        for m in [
            RsmMsg::Submit {
                commands: fat.clone(),
            },
            RsmMsg::Echo {
                slot: 0,
                commands: fat.clone(),
            },
            RsmMsg::Ready {
                slot: 0,
                commands: fat,
            },
        ] {
            assert!(!m.validate(4));
        }
        assert!(RsmMsg::Ready {
            slot: 0,
            commands: vec![cmd(1, 1)],
        }
        .validate(4));
    }

    #[test]
    fn bad_discriminant_rejected() {
        assert!(RsmMsg::from_bytes(&[7]).is_err());
    }
}
