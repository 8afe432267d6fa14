//! Compact structured events and the per-shard ring buffer.
//!
//! An [`Event`] is seven words — tick, session id, kind, and four
//! kind-specific payload words — with no heap parts, so pushing one into
//! an [`EventRing`] is an index write (the push path passes `cr-lint`'s
//! `hot-alloc` rule). The tick is the *virtual* time from the service's
//! `SimClock`: under a manual clock the whole stream is byte-identical
//! run over run, which is what makes traces replayable evidence rather
//! than logs.
//!
//! Rings are fixed-capacity and overwrite-oldest: a long-running shard
//! keeps the most recent `capacity` events and counts what it dropped,
//! so tracing can stay always-on without unbounded memory. JSONL
//! rendering ([`Event::to_json`]) happens only at exposition time, off
//! the hot path.

/// What happened. Payload words `a..d` are interpreted per kind — see
/// [`Event::to_json`] for the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventKind {
    /// Session opened: `a` = n (processors), `b` = m (cells),
    /// `c` = scheme index (position in `SchemeKind::ALL`).
    #[default]
    Open,
    /// A `STEP` command completed: `a` = steps executed, `b` = stage-1
    /// cycles, `c` = stage-2 cycles, `d` = messages.
    Step,
    /// Idle-TTL eviction: `a` = steps the session had run.
    Evict,
    /// Session closed: `a` = steps, `b` = final trace hash.
    Close,
    /// A command arrived while the shard queue was at capacity:
    /// `a` = observed depth.
    QueueFull,
    /// A step was served through fault handling: `a` = dead copy-access
    /// attempts, `b` = dropped messages (deltas for this command).
    Fault,
    /// A PRAM-consistency snapshot (`VERIFY` served, or a session's
    /// first violation): `a` = ops checked, `b` = violated (0/1).
    Verify,
    /// The shard crashed (chaos injection or operator action) and lost
    /// its live sessions: `a` = sessions lost.
    Crash,
    /// The shard restarted empty after a crash.
    Restart,
}

impl EventKind {
    /// The JSON `kind` tag.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Open => "open",
            EventKind::Step => "step",
            EventKind::Evict => "evict",
            EventKind::Close => "close",
            EventKind::QueueFull => "queue_full",
            EventKind::Fault => "fault",
            EventKind::Verify => "verify",
            EventKind::Crash => "crash",
            EventKind::Restart => "restart",
        }
    }
}

/// One trace event: fixed-size, `Copy`, no heap parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Event {
    /// Virtual time (`SimClock` tick nanos) when the event was recorded.
    pub tick: u64,
    /// The session the event concerns (0 for shard-level events).
    pub sid: u64,
    /// Discriminant; fixes the meaning of `a..d`.
    pub kind: EventKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
    /// Fourth payload word.
    pub d: u64,
}

impl Event {
    /// Render as one JSONL line (no trailing newline). Field names are
    /// kind-specific so dumps read without a decoder ring:
    ///
    /// ```json
    /// {"tick":0,"sid":1,"kind":"open","n":8,"m":64,"scheme":1}
    /// {"tick":0,"sid":1,"kind":"step","executed":4,"stage1_cycles":52,"stage2_cycles":12,"messages":96}
    /// {"tick":0,"sid":1,"kind":"close","steps":4,"trace":"a1278dc2e6a6acf1"}
    /// ```
    pub fn to_json(&self) -> String {
        let head = format!(
            "{{\"tick\":{},\"sid\":{},\"kind\":\"{}\"",
            self.tick,
            self.sid,
            self.kind.name()
        );
        let tail = match self.kind {
            EventKind::Open => {
                format!(",\"n\":{},\"m\":{},\"scheme\":{}}}", self.a, self.b, self.c)
            }
            EventKind::Step => format!(
                ",\"executed\":{},\"stage1_cycles\":{},\"stage2_cycles\":{},\"messages\":{}}}",
                self.a, self.b, self.c, self.d
            ),
            EventKind::Evict => format!(",\"steps\":{}}}", self.a),
            EventKind::Close => format!(",\"steps\":{},\"trace\":\"{:016x}\"}}", self.a, self.b),
            EventKind::QueueFull => format!(",\"depth\":{}}}", self.a),
            EventKind::Fault => format!(
                ",\"dead_attempts\":{},\"dropped_messages\":{}}}",
                self.a, self.b
            ),
            EventKind::Verify => format!(",\"ops\":{},\"violated\":{}}}", self.a, self.b),
            EventKind::Crash => format!(",\"lost\":{}}}", self.a),
            EventKind::Restart => "}".to_string(),
        };
        head + &tail
    }
}

/// A fixed-capacity overwrite-oldest ring of [`Event`]s.
///
/// The buffer is allocated once at construction; `push` afterwards is an
/// index write. Iteration yields events oldest-first.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (capacity 0 drops all).
    pub fn with_capacity(capacity: usize) -> EventRing {
        EventRing {
            buf: vec![Event::default(); capacity],
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Append an event, overwriting the oldest when full. Returns `true`
    /// when something was overwritten (or the capacity is zero) — the
    /// caller bumps its `events_dropped` counter on that signal.
    // lint: hot
    pub fn push(&mut self, ev: Event) -> bool {
        let cap = self.buf.len();
        if cap == 0 {
            self.dropped += 1;
            return true;
        }
        if self.len < cap {
            self.buf[(self.head + self.len) % cap] = ev;
            self.len += 1;
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
            true
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum events held before overwriting begins.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Events overwritten (lost) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate oldest-first over the buffered events.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let cap = self.buf.len().max(1);
        (0..self.len).map(move |i| &self.buf[(self.head + i) % cap])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, sid: u64) -> Event {
        Event {
            tick,
            sid,
            kind: EventKind::Step,
            a: 1,
            b: 2,
            c: 3,
            d: 4,
        }
    }

    #[test]
    fn ring_fills_then_wraps_oldest_first() {
        let mut r = EventRing::with_capacity(4);
        assert!(r.is_empty());
        for t in 0..4 {
            assert!(!r.push(ev(t, 9)), "no overwrite while filling");
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        // Two more: the two oldest (ticks 0, 1) are overwritten.
        assert!(r.push(ev(4, 9)));
        assert!(r.push(ev(5, 9)));
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4, 5], "oldest-first after wrap");
    }

    #[test]
    fn ring_wraps_many_times() {
        let mut r = EventRing::with_capacity(3);
        for t in 0..100 {
            r.push(ev(t, 1));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 97);
        let ticks: Vec<u64> = r.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![97, 98, 99]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = EventRing::with_capacity(0);
        assert!(r.push(ev(0, 1)));
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn json_schema_per_kind() {
        let open = Event {
            tick: 7,
            sid: 3,
            kind: EventKind::Open,
            a: 8,
            b: 64,
            c: 1,
            d: 0,
        };
        assert_eq!(
            open.to_json(),
            "{\"tick\":7,\"sid\":3,\"kind\":\"open\",\"n\":8,\"m\":64,\"scheme\":1}"
        );
        let close = Event {
            tick: 9,
            sid: 3,
            kind: EventKind::Close,
            a: 12,
            b: 0xa1278dc2e6a6acf1,
            c: 0,
            d: 0,
        };
        assert_eq!(
            close.to_json(),
            "{\"tick\":9,\"sid\":3,\"kind\":\"close\",\"steps\":12,\"trace\":\"a1278dc2e6a6acf1\"}"
        );
        let qf = Event {
            tick: 1,
            sid: 0,
            kind: EventKind::QueueFull,
            a: 1024,
            b: 0,
            c: 0,
            d: 0,
        };
        assert_eq!(
            qf.to_json(),
            "{\"tick\":1,\"sid\":0,\"kind\":\"queue_full\",\"depth\":1024}"
        );
        let vf = Event {
            tick: 2,
            sid: 5,
            kind: EventKind::Verify,
            a: 640,
            b: 0,
            c: 0,
            d: 0,
        };
        assert_eq!(
            vf.to_json(),
            "{\"tick\":2,\"sid\":5,\"kind\":\"verify\",\"ops\":640,\"violated\":0}"
        );
        let crash = Event {
            tick: 3,
            sid: 0,
            kind: EventKind::Crash,
            a: 5,
            b: 0,
            c: 0,
            d: 0,
        };
        assert_eq!(
            crash.to_json(),
            "{\"tick\":3,\"sid\":0,\"kind\":\"crash\",\"lost\":5}"
        );
        let restart = Event {
            tick: 4,
            sid: 0,
            kind: EventKind::Restart,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
        };
        assert_eq!(
            restart.to_json(),
            "{\"tick\":4,\"sid\":0,\"kind\":\"restart\"}"
        );
    }
}
