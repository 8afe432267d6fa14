//! Checking every answer, and the output check that compares rungs.
//!
//! A [`Ledger`] follows one connection's replies on one rung: it knows
//! how many steps each of its sessions has executed, so every STEPN
//! reply is checked for the exact `executed=` and `steps=` it must
//! carry, and it keeps each session's final trace hash (from `CLOSE`,
//! or from `TRACE` after the window) together with the simulated
//! cycles and messages each scheme kind consumed.

use cr_core::SchemeKind;

use crate::schedule::{Op, Schedule};

/// Per-scheme-kind simulated cost, summed over every accepted STEPN.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCost {
    pub steps: u64,
    pub cycles: u64,
    pub messages: u64,
}

pub fn kind_index(kind: SchemeKind) -> usize {
    SchemeKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

/// Value of `key=` in a reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn num(line: &str, key: &str) -> Result<u64, String> {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("reply lacks numeric {key}=: {line}"))
}

fn hash(line: &str) -> Result<u64, String> {
    field(line, "trace")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| format!("reply lacks trace=: {line}"))
}

/// Each logical session's final `(steps, trace hash)`, by session.
pub type Finals = Vec<Option<(u64, u64)>>;

/// One connection's view of its sessions on one rung.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Service sid of each logical session on this rung (0: not open).
    pub sids: Vec<u64>,
    steps: Vec<u64>,
    /// `(steps, trace)` reported by CLOSE or TRACE.
    pub finals: Finals,
    pub cost: [KindCost; 6],
}

impl Ledger {
    pub fn new(sched: &Schedule) -> Ledger {
        let n = sched.sessions.len();
        Ledger {
            sids: vec![0; n],
            steps: vec![0; n],
            finals: vec![None; n],
            cost: [KindCost::default(); 6],
        }
    }

    /// Check the reply to `op`. `Ok(true)`: accepted; `Ok(false)`: the
    /// service answered `ERR`; `Err`: the service answered `OK` with
    /// content that cannot be right.
    pub fn accept(&mut self, sched: &Schedule, op: Op, reply: &str) -> Result<bool, String> {
        if reply.starts_with("ERR") {
            return Ok(false);
        }
        if !reply.starts_with("OK ") {
            return Err(format!("malformed reply to {op:?}: {reply}"));
        }
        let s = op.session() as usize;
        match op {
            Op::Open(_) => self.sids[s] = num(reply, "sid")?,
            Op::Step(_) => {
                let want = sched.class_of(op.session()).steps;
                let executed = num(reply, "executed")?;
                let total = num(reply, "steps")?;
                if executed != want
                    || total != self.steps[s] + want
                    || field(reply, "exhausted") != Some("false")
                {
                    return Err(format!(
                        "session {s}: expected executed={want} steps={}: {reply}",
                        self.steps[s] + want
                    ));
                }
                self.steps[s] = total;
                let c = &mut self.cost[kind_index(sched.class_of(op.session()).kind)];
                c.steps += executed;
                c.cycles += num(reply, "cycles")?;
                c.messages += num(reply, "messages")?;
            }
            Op::Close(_) => {
                self.record_final(s, reply)?;
                self.sids[s] = 0;
            }
        }
        Ok(true)
    }

    /// Check a `TRACE` (or `CLOSE`) reply and keep its hash.
    pub fn record_final(&mut self, s: usize, reply: &str) -> Result<(), String> {
        if num(reply, "sid")? != self.sids[s] {
            return Err(format!("session {s}: reply names another sid: {reply}"));
        }
        let steps = num(reply, "steps")?;
        if steps != self.steps[s] {
            return Err(format!(
                "session {s}: service reports {steps} steps, client counted {}: {reply}",
                self.steps[s]
            ));
        }
        self.finals[s] = Some((steps, hash(reply)?));
        Ok(())
    }

    /// Live sessions of this ledger, by logical id.
    pub fn live(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.sids.len() as u32).filter(|&s| self.sids[s as usize] != 0)
    }
}

/// What one rung ended with, merged over its connections.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub finals: Finals,
    pub cost: [KindCost; 6],
}

impl Outcome {
    pub fn merge(ledgers: &[Ledger]) -> Outcome {
        Outcome::join(ledgers.iter().map(|l| Outcome {
            finals: l.finals.clone(),
            cost: l.cost,
        }))
    }

    /// Outcomes of disjoint sets of sessions as one: each session's
    /// final from the part that reports it, costs summed.
    pub fn join<O: std::borrow::Borrow<Outcome>>(parts: impl IntoIterator<Item = O>) -> Outcome {
        let mut out = Outcome {
            finals: Vec::new(),
            cost: [KindCost::default(); 6],
        };
        for part in parts {
            let part = part.borrow();
            if out.finals.len() < part.finals.len() {
                out.finals.resize(part.finals.len(), None);
            }
            for (dst, src) in out.finals.iter_mut().zip(&part.finals) {
                if src.is_some() {
                    *dst = *src;
                }
            }
            for (dst, src) in out.cost.iter_mut().zip(&part.cost) {
                dst.steps += src.steps;
                dst.cycles += src.cycles;
                dst.messages += src.messages;
            }
        }
        out
    }
}

/// The service-wide `VERIFY` reply must report no violation and no
/// unchecked session.
pub fn check_verify(reply: &str) -> Result<(), String> {
    if num(reply, "violations")? != 0 || num(reply, "unchecked")? != 0 {
        return Err(format!("VERIFY reports a problem: {reply}"));
    }
    Ok(())
}

/// Compare a rung's outcome with the reference replay: every session's
/// final trace hash and step count, and each kind's simulated cycles and
/// messages, must be identical.
pub fn compare(rung: &str, got: &Outcome, want: &Outcome) -> Result<(), String> {
    let mut sessions = 0;
    for (s, (g, w)) in got.finals.iter().zip(&want.finals).enumerate() {
        if g != w {
            return Err(format!(
                "{rung}: session {s} ended {} but the replay ended {}",
                show(g),
                show(w)
            ));
        }
        sessions += usize::from(g.is_some());
    }
    if sessions == 0 {
        return Err(format!("{rung}: no session reported a trace hash"));
    }
    for (i, (g, w)) in got.cost.iter().zip(&want.cost).enumerate() {
        if g != w {
            return Err(format!(
                "{rung}: {} simulated cost {g:?} differs from the replay's {w:?}",
                SchemeKind::ALL[i]
            ));
        }
    }
    Ok(())
}

fn show(f: &Option<(u64, u64)>) -> String {
    match f {
        Some((steps, hash)) => format!("after {steps} steps with trace {hash:016x}"),
        None => "without a trace".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Workload;

    fn outcome() -> Outcome {
        let mut cost = [KindCost::default(); 6];
        cost[1] = KindCost {
            steps: 10,
            cycles: 70,
            messages: 300,
        };
        Outcome {
            finals: vec![Some((10, 0xabc)), None, Some((4, 0x123))],
            cost,
        }
    }

    #[test]
    fn identical_outcomes_pass() {
        compare("core", &outcome(), &outcome()).unwrap();
    }

    #[test]
    fn a_corrupted_replay_hash_fails_the_check() {
        let mut replay = outcome();
        replay.finals[2] = Some((4, 0x124));
        let err = compare("wire", &outcome(), &replay).unwrap_err();
        assert!(err.contains("session 2"), "{err}");
    }

    #[test]
    fn missing_sessions_and_cost_drift_fail_the_check() {
        let mut replay = outcome();
        replay.finals[0] = None;
        assert!(compare("wire", &outcome(), &replay).is_err());
        let mut replay = outcome();
        replay.cost[1].messages += 1;
        assert!(compare("wire", &outcome(), &replay).is_err());
        let empty = Outcome {
            finals: vec![None; 3],
            cost: [KindCost::default(); 6],
        };
        assert!(compare("wire", &empty, &empty).is_err());
    }

    #[test]
    fn ledger_checks_step_replies() {
        let sched = Schedule::new(&Workload::by_name("large-steps").unwrap(), 1);
        let mut l = Ledger::new(&sched);
        assert!(l.accept(&sched, Op::Open(0), "OK sid=5 shard=1").unwrap());
        assert_eq!(l.sids[0], 5);
        let ok = "OK executed=32 steps=32 phases=9 cycles=80 messages=700 s1cyc=40 \
                  s2cyc=40 exhausted=false";
        assert!(l.accept(&sched, Op::Step(0), ok).unwrap());
        // The same reply again claims a lifetime count that is now wrong.
        assert!(l.accept(&sched, Op::Step(0), ok).is_err());
        assert!(!l
            .accept(&sched, Op::Step(0), "ERR unknown session")
            .unwrap());
        assert!(l
            .record_final(0, "OK sid=5 steps=32 trace=00000000000000ff")
            .is_ok());
        assert_eq!(l.finals[0], Some((32, 0xff)));
        assert!(l.record_final(0, "OK sid=5 steps=31 trace=ff").is_err());
        check_verify("OK sessions=4 unchecked=0 ops=100 violations=0 truncated=0").unwrap();
        assert!(
            check_verify("OK sessions=4 unchecked=0 ops=100 violations=1 truncated=0").is_err()
        );
    }
}
