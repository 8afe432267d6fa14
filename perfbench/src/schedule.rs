//! The seeded traffic schedule: which sessions exist, which connection
//! owns each, the order a connection steps them in, and where it churns.
//!
//! Everything random is drawn from the workload seed here, before the
//! timed window starts; the service only ever sees the frames this
//! module describes. The *composition* of a workload (how many sessions
//! of each scheme, faulted or healthy, uniform or hotspot, and which
//! connection owns them) is fixed by the workload's definition, so a new
//! seed changes memory maps, request streams and churn points without
//! moving load between connections or shards.

use cr_core::SchemeKind;
use simrng::{mix64, rng_from_seed, Rng, Xoshiro256pp};

/// Connections (and client threads) the benchmark drives.
pub const CONNECTIONS: usize = 2;

/// Shards the in-process service runs.
pub const SHARDS: usize = 2;

/// Windows each connection can run before its schedule is exhausted;
/// far above what any workload completes in a 60 s window.
pub const MAX_WINDOWS: u64 = 1 << 17;

/// Initial OPEN frames are pipelined in windows of this many.
pub const OPEN_WINDOW: usize = 32;

/// Which request generator a session's STEPN frames name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    Uniform,
    Hotspot,
}

/// One kind of session a workload runs `count` of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    pub kind: SchemeKind,
    pub n: usize,
    pub m: usize,
    pub faults: bool,
    pub drive: Drive,
    pub steps: u64,
    pub count: usize,
}

/// The fault fraction faulted sessions are opened with.
const FAULT_FRACTION: &str = "0.125";

/// A named traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub classes: Vec<Class>,
    /// Frames each connection keeps in flight.
    pub window: usize,
    /// Every `churn_every`-th window closes one session and opens a
    /// fresh one of the same class.
    pub churn_every: Option<u64>,
    /// STEPN frames each session receives before the timed window.
    pub warmup_frames: usize,
    /// Draw a fresh seeded order for every cycle through a connection's
    /// sessions instead of repeating one order. With few sessions and
    /// few frames in flight, a repeated order lets the two connections
    /// lock into a phase that collides on one shard more or less often
    /// for the whole run; fresh orders make collisions average out.
    pub reshuffle: bool,
    /// Whether STEPN frames name their generator (`small-frames` uses
    /// the bare `STEPN <sid> 1` form, which defaults to uniform).
    pub explicit_drive: bool,
}

pub const WORKLOAD_NAMES: [&str; 2] = ["small-frames", "large-steps"];

const COPY_AND_CODED: [SchemeKind; 4] = [
    SchemeKind::UwMpc,
    SchemeKind::HpDmmpc,
    SchemeKind::Hashed,
    SchemeKind::Ida,
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let class = |kind, n, m, faults, drive, steps, count| Class {
            kind,
            n,
            m,
            faults,
            drive,
            steps,
            count,
        };
        match name {
            "small-frames" => Some(Workload {
                name: "small-frames",
                why: "one-step frames: socket, parse, queue handoff and render dominate, and churn puts OPEN on the serving path",
                classes: COPY_AND_CODED
                    .iter()
                    .map(|&k| class(k, 16, 64, false, Drive::Uniform, 1, 128))
                    .collect(),
                window: 32,
                churn_every: Some(64),
                warmup_frames: 2,
                reshuffle: false,
                explicit_drive: false,
            }),
            "large-steps" => {
                let mut classes = Vec::new();
                for &k in &COPY_AND_CODED {
                    for faults in [false, true] {
                        for drive in [Drive::Uniform, Drive::Hotspot] {
                            classes.push(class(k, 256, 1024, faults, drive, 32, 2));
                        }
                    }
                }
                // The 2DMOT machines of Theorem 3, routed cycle by cycle
                // through `mot` and `netsim`. The cheaper lpp-2dmot
                // classes come last: they are the sessions a shard with
                // more sids takes over (see `Schedule::open_order`).
                for k in [SchemeKind::Hp2dmotLeaves, SchemeKind::Lpp2dmot] {
                    for drive in [Drive::Uniform, Drive::Hotspot] {
                        classes.push(class(k, 16, 64, false, drive, 4, 4));
                    }
                }
                Some(Workload {
                    name: "large-steps",
                    why: "frames of milliseconds of scheme work: n=256 32-step frames, half faulted, plus 4-step frames of the routed 2DMOT machines; transport is about 1%",
                    classes,
                    window: 2,
                    churn_every: None,
                    warmup_frames: 2,
                    reshuffle: true,
                    explicit_drive: true,
                })
            }
            _ => None,
        }
    }
}

/// One logical session: its class and seed. Its index in
/// [`Schedule::sessions`] is its identity across every rung; the
/// service-assigned sid differs between rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlan {
    pub class: usize,
    pub seed: u64,
    pub conn: usize,
}

/// A scheduled churn: at window `window`, close the session in round-
/// robin slot `slot` and open `fresh` in its place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    pub window: u64,
    pub slot: usize,
    pub fresh: u32,
}

/// One connection's share of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnPlan {
    /// Round-robin order over the connection's initial sessions.
    pub slots: Vec<u32>,
    pub churn: Vec<Churn>,
    /// Seeds the per-cycle orders of a reshuffling workload.
    pub order_seed: u64,
}

/// One frame, by logical session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Step(u32),
    Close(u32),
    Open(u32),
}

impl Op {
    pub fn session(self) -> u32 {
        match self {
            Op::Step(s) | Op::Close(s) | Op::Open(s) => s,
        }
    }
}

/// The whole seeded schedule of one run.
#[derive(Debug, PartialEq)]
pub struct Schedule {
    pub seed: u64,
    pub window: usize,
    pub warmup_frames: usize,
    pub reshuffle: bool,
    pub explicit_drive: bool,
    pub classes: Vec<Class>,
    /// Initial sessions first (in OPEN order), then every churned-in one.
    pub sessions: Vec<SessionPlan>,
    pub initial: usize,
    pub conns: Vec<ConnPlan>,
}

fn stream(seed: u64, tag: u64) -> Xoshiro256pp {
    rng_from_seed(mix64(seed ^ mix64(tag)))
}

impl Schedule {
    pub fn new(w: &Workload, seed: u64) -> Schedule {
        let mut seeds = stream(seed, 0);
        // OPEN order interleaves the classes round-robin and is the same
        // for every seed, so the sid-to-shard placement of each class is
        // fixed; within a class, sessions alternate between connections.
        let mut sessions = Vec::new();
        let mut taken = vec![0usize; w.classes.len()];
        let most = w.classes.iter().map(|c| c.count).max().unwrap_or(0);
        for i in 0..most {
            for (ci, c) in w.classes.iter().enumerate() {
                if i < c.count {
                    sessions.push(SessionPlan {
                        class: ci,
                        seed: seeds.next_u64(),
                        conn: taken[ci] % CONNECTIONS,
                    });
                    taken[ci] += 1;
                }
            }
        }
        let initial = sessions.len();
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for c in 0..CONNECTIONS {
            let mut rng = stream(seed, 1 + c as u64);
            // Round-robin interleaves the classes, so every window mixes
            // them alike; the seed orders the sessions within a class.
            let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); w.classes.len()];
            for s in 0..initial as u32 {
                let p = sessions[s as usize];
                if p.conn == c {
                    by_class[p.class].push(s);
                }
            }
            for group in &mut by_class {
                rng.shuffle(group);
            }
            let per_class = by_class.iter().map(Vec::len).max().unwrap_or(0);
            let slots: Vec<u32> = (0..per_class)
                .flat_map(|i| by_class.iter().filter_map(move |g| g.get(i).copied()))
                .collect();
            let mut churn = Vec::new();
            if let Some(every) = w.churn_every {
                let mut window = every - 1;
                while window < MAX_WINDOWS {
                    let slot = rng.below(slots.len() as u64) as usize;
                    let old = sessions[slots[slot] as usize];
                    let fresh = sessions.len() as u32;
                    sessions.push(SessionPlan {
                        seed: rng.next_u64(),
                        ..old
                    });
                    churn.push(Churn {
                        window,
                        slot,
                        fresh,
                    });
                    window += every;
                }
            }
            conns.push(ConnPlan {
                slots,
                churn,
                order_seed: rng.next_u64(),
            });
        }
        Schedule {
            seed,
            window: w.window,
            warmup_frames: w.warmup_frames,
            reshuffle: w.reshuffle,
            explicit_drive: w.explicit_drive,
            classes: w.classes.clone(),
            sessions,
            initial,
            conns,
        }
    }

    /// The order the initial sessions are opened in, given the
    /// service's placement rule `shard_of(sid)`. Sids count up from 1
    /// in OPEN order, so the order decides which session lands on which
    /// shard. Within a class, sessions take turns between the shards so
    /// that each connection's share of every class splits evenly over
    /// them, and both shards carry the same mix of work. When the
    /// placement gives one shard more of the sids `1..=initial` than
    /// the other, that shard takes over sessions of the workload's last
    /// classes. The order depends on the workload's composition only,
    /// not on the seed.
    pub fn open_order(&self, shard_of: impl Fn(u64) -> usize) -> Vec<u32> {
        let sids: Vec<usize> = (1..=self.initial as u64).map(shard_of).collect();
        let mut room = [0usize; SHARDS];
        for &k in &sids {
            room[k] += 1;
        }
        let mut queues = vec![std::collections::VecDeque::new(); SHARDS];
        for class in 0..self.classes.len() {
            let members =
                (0..self.initial as u32).filter(|&s| self.sessions[s as usize].class == class);
            for (j, s) in members.enumerate() {
                // The j-th session of a class belongs to connection
                // j % CONNECTIONS; its shard alternates within every
                // (class, connection) pair and starts on a different
                // shard for each class.
                let want = (j / CONNECTIONS + j % CONNECTIONS + class) % SHARDS;
                let k = (0..SHARDS)
                    .map(|d| (want + d) % SHARDS)
                    .find(|&k| room[k] > 0)
                    .expect("as many sids as sessions");
                room[k] -= 1;
                queues[k].push_back(s);
            }
        }
        sids.iter()
            .map(|&k| queues[k].pop_front().expect("as many sessions as sids"))
            .collect()
    }

    pub fn class_of(&self, session: u32) -> &Class {
        &self.classes[self.sessions[session as usize].class]
    }

    /// The OPEN frame of a logical session.
    pub fn open_frame(&self, session: u32) -> String {
        let p = self.sessions[session as usize];
        let c = &self.classes[p.class];
        let faults = if c.faults {
            format!(" faults={FAULT_FRACTION}")
        } else {
            String::new()
        };
        format!("OPEN {} {} {} seed={}{faults}", c.n, c.m, c.kind, p.seed)
    }

    /// Append the text of `op`'s frame (with its newline) to `out`;
    /// `sid` is the service's id for the op's session on this rung.
    pub fn write_frame(&self, op: Op, sid: u64, out: &mut Vec<u8>) {
        use std::io::Write;
        let c = self.class_of(op.session());
        let r = match op {
            Op::Step(_) if !self.explicit_drive => writeln!(out, "STEPN {sid} {}", c.steps),
            Op::Step(_) => {
                let drive = match c.drive {
                    Drive::Uniform => "uniform",
                    Drive::Hotspot => "hotspot",
                };
                writeln!(out, "STEPN {sid} {} {drive}", c.steps)
            }
            Op::Close(_) => writeln!(out, "CLOSE {sid}"),
            Op::Open(s) => writeln!(out, "{}", self.open_frame(s)),
        };
        r.expect("writing to a Vec cannot fail");
    }

    /// Warm-up frames of connection `conn`, in window-sized chunks.
    pub fn warmup(&self, conn: usize) -> Vec<Vec<Op>> {
        let slots = &self.conns[conn].slots;
        let ops: Vec<Op> = (0..self.warmup_frames)
            .flat_map(|_| slots.iter().map(|&s| Op::Step(s)))
            .collect();
        ops.chunks(self.window).map(<[Op]>::to_vec).collect()
    }
}

/// Walks one connection's timed windows in schedule order.
#[derive(Debug, Clone)]
pub struct Cursor {
    slots: Vec<u32>,
    /// The current cycle's order over `slots`.
    order: Vec<usize>,
    next: usize,
    next_churn: usize,
    rng: Option<Xoshiro256pp>,
    pub window: u64,
}

impl Cursor {
    pub fn new(sched: &Schedule, conn: usize) -> Cursor {
        let plan = &sched.conns[conn];
        Cursor {
            slots: plan.slots.clone(),
            order: (0..plan.slots.len()).collect(),
            next: plan.slots.len(),
            next_churn: 0,
            rng: sched.reshuffle.then(|| rng_from_seed(plan.order_seed)),
            window: 0,
        }
    }

    /// Fill `out` with the next window's frames; `false` once the
    /// schedule is exhausted. A churn window appends CLOSE of the
    /// replaced session and OPEN of its successor after the window's
    /// STEPN frames, so the new sid is known before it is stepped.
    pub fn next_window(&mut self, sched: &Schedule, conn: usize, out: &mut Vec<Op>) -> bool {
        out.clear();
        if self.window >= MAX_WINDOWS {
            return false;
        }
        for _ in 0..sched.window {
            if self.next == self.order.len() {
                if let Some(rng) = &mut self.rng {
                    rng.shuffle(&mut self.order);
                }
                self.next = 0;
            }
            out.push(Op::Step(self.slots[self.order[self.next]]));
            self.next += 1;
        }
        if let Some(ch) = sched.conns[conn].churn.get(self.next_churn) {
            if ch.window == self.window {
                out.push(Op::Close(self.slots[ch.slot]));
                out.push(Op::Open(ch.fresh));
                self.slots[ch.slot] = ch.fresh;
                self.next_churn += 1;
            }
        }
        self.window += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(sched: &Schedule, conn: usize, count: usize) -> Vec<Vec<Op>> {
        let mut cur = Cursor::new(sched, conn);
        let mut out = Vec::new();
        (0..count)
            .map(|_| {
                assert!(cur.next_window(sched, conn, &mut out));
                out.clone()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_and_frames() {
        for name in WORKLOAD_NAMES {
            let w = Workload::by_name(name).unwrap();
            let (a, b) = (Schedule::new(&w, 7), Schedule::new(&w, 7));
            assert_eq!(a, b, "{name}");
            for conn in 0..CONNECTIONS {
                assert_eq!(windows(&a, conn, 200), windows(&b, conn, 200), "{name}");
            }
        }
    }

    #[test]
    fn different_seed_different_schedule() {
        for name in WORKLOAD_NAMES {
            let w = Workload::by_name(name).unwrap();
            let (a, b) = (Schedule::new(&w, 7), Schedule::new(&w, 8));
            assert_ne!(a.sessions, b.sessions, "{name}: session seeds");
            let frames = |s: &Schedule| {
                let mut text = Vec::new();
                for (i, p) in s.sessions.iter().enumerate().take(s.initial) {
                    text.extend_from_slice(s.open_frame(i as u32).as_bytes());
                    assert!(p.conn < CONNECTIONS);
                }
                text
            };
            assert_ne!(frames(&a), frames(&b), "{name}: OPEN frames");
        }
        // Churn points and round-robin order move with the seed too.
        let w = Workload::by_name("small-frames").unwrap();
        let (a, b) = (Schedule::new(&w, 7), Schedule::new(&w, 8));
        assert_ne!(a.conns, b.conns);
        assert_ne!(windows(&a, 0, 200), windows(&b, 0, 200));
    }

    #[test]
    fn composition_is_balanced_and_seed_independent() {
        for name in WORKLOAD_NAMES {
            let w = Workload::by_name(name).unwrap();
            let a = Schedule::new(&w, 1);
            let b = Schedule::new(&w, 99);
            let shape = |s: &Schedule| -> Vec<(usize, usize)> {
                s.sessions[..s.initial]
                    .iter()
                    .map(|p| (p.class, p.conn))
                    .collect()
            };
            assert_eq!(shape(&a), shape(&b), "{name}");
            for (ci, c) in w.classes.iter().enumerate() {
                for conn in 0..CONNECTIONS {
                    let owned = a.sessions[..a.initial]
                        .iter()
                        .filter(|p| p.class == ci && p.conn == conn)
                        .count();
                    assert_eq!(owned, c.count / CONNECTIONS, "{name} class {ci}");
                }
            }
        }
    }

    #[test]
    fn open_order_splits_every_class_and_connection_over_the_shards() {
        let shard_of = |sid: u64| (mix64(sid) % SHARDS as u64) as usize;
        for name in WORKLOAD_NAMES {
            let w = Workload::by_name(name).unwrap();
            let s = Schedule::new(&w, 7);
            let order = s.open_order(shard_of);
            assert_eq!(order, Schedule::new(&w, 8).open_order(shard_of), "{name}");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..s.initial as u32).collect::<Vec<_>>(), "{name}");
            // Sessions per (class, connection, shard).
            let mut count = vec![[[0usize; SHARDS]; CONNECTIONS]; w.classes.len()];
            for (p, &sess) in order.iter().enumerate() {
                let plan = s.sessions[sess as usize];
                count[plan.class][plan.conn][shard_of(p as u64 + 1)] += 1;
            }
            // Only the last class absorbs the difference between the
            // shards' counts of sids.
            for (ci, c) in count.iter().enumerate().take(w.classes.len() - 1) {
                for conn in c {
                    assert!(
                        conn[0].abs_diff(conn[1]) <= 1,
                        "{name} class {ci}: {conn:?}"
                    );
                }
            }
        }
        // large-steps: sids 1..=48 give shard 0 26 sessions and shard 1
        // 22. Shard 0 takes over two lpp-2dmot sessions, the last class;
        // every other kind splits evenly, 4 sessions on each shard.
        let s = Schedule::new(&Workload::by_name("large-steps").unwrap(), 1);
        let order = s.open_order(shard_of);
        let on = |k: usize, kind: SchemeKind| {
            order
                .iter()
                .enumerate()
                .filter(|&(p, &sess)| shard_of(p as u64 + 1) == k && s.class_of(sess).kind == kind)
                .count()
        };
        for k in 0..SHARDS {
            assert_eq!(on(k, SchemeKind::Hp2dmotLeaves), 4, "shard {k}");
            for kind in COPY_AND_CODED {
                assert_eq!(on(k, kind), 4, "shard {k} {kind}");
            }
        }
        assert_eq!(on(0, SchemeKind::Lpp2dmot), 6);
        assert_eq!(on(1, SchemeKind::Lpp2dmot), 2);
    }

    #[test]
    fn churn_replaces_a_session_with_one_of_the_same_class() {
        let w = Workload::by_name("small-frames").unwrap();
        let s = Schedule::new(&w, 3);
        let ws = windows(&s, 1, 130);
        for (i, win) in ws.iter().enumerate() {
            let churned = (i as u64 + 1).is_multiple_of(64);
            assert_eq!(win.len(), s.window + if churned { 2 } else { 0 });
            if churned {
                let (Op::Close(old), Op::Open(new)) = (win[s.window], win[s.window + 1]) else {
                    panic!("churn window ends CLOSE, OPEN: {win:?}");
                };
                assert_eq!(
                    s.sessions[old as usize].class,
                    s.sessions[new as usize].class
                );
                assert_eq!(s.sessions[new as usize].conn, 1);
                // The closed session is never stepped again.
                assert!(ws[i + 1..].iter().flatten().all(|op| *op != Op::Step(old)));
            }
        }
    }

    #[test]
    fn frames_render_the_documented_grammar() {
        let w = Workload::by_name("large-steps").unwrap();
        let s = Schedule::new(&w, 5);
        let mut out = Vec::new();
        let faulted = (0..s.initial as u32)
            .find(|&i| s.class_of(i).faults)
            .unwrap();
        s.write_frame(Op::Open(faulted), 0, &mut out);
        s.write_frame(Op::Step(faulted), 42, &mut out);
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        let open = lines.next().unwrap();
        assert!(open.starts_with("OPEN 256 1024 ") && open.ends_with(" faults=0.125"));
        assert!(lines.next().unwrap().starts_with("STEPN 42 32 "));
        let small = Schedule::new(&Workload::by_name("small-frames").unwrap(), 5);
        let mut out = Vec::new();
        small.write_frame(Op::Step(0), 9, &mut out);
        assert_eq!(out, b"STEPN 9 1\n");
    }
}
