//! TCP front-end tests: the full frame grammar over a real socket,
//! malformed-frame robustness, multi-connection isolation, and the edges
//! of a pipelined window (QUIT, half-close, an oversized frame, a stopped
//! service).

use cr_serve::tcp::Server;
use cr_serve::{Service, ServiceApi, ServiceConfig};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.read_line()
    }

    /// The next reply line; empty once the server has closed the
    /// connection.
    fn read_line(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    /// Write `frames` as one burst, one line each.
    fn send_window(&mut self, frames: &[String]) {
        let bytes: String = frames.iter().map(|f| format!("{f}\n")).collect();
        self.writer.write_all(bytes.as_bytes()).unwrap();
    }

    /// Round-trip a command whose reply header announces `lines=K`
    /// payload lines (INFO, METRICS, EVENTS); returns (header, payload).
    fn roundtrip_multi(&mut self, line: &str) -> (String, Vec<String>) {
        let header = self.roundtrip(line);
        let count: usize = field(&header, "lines").parse().expect("lines= count");
        let payload = (0..count).map(|_| self.read_line()).collect();
        (header, payload)
    }
}

fn boot(shards: usize) -> (Service, Server) {
    let service = Service::start(ServiceConfig::with_shards(shards)).expect("spawn shard workers");
    let server = Server::bind("127.0.0.1:0", service.handle()).expect("bind ephemeral port");
    (service, server)
}

fn field<'a>(reply: &'a str, key: &str) -> &'a str {
    reply
        .split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")[..]))
        .unwrap_or_else(|| panic!("no {key}= in: {reply}"))
}

#[test]
fn full_session_lifecycle_over_tcp() {
    let (service, server) = boot(2);
    let mut c = Client::connect(server.local_addr());

    assert_eq!(c.roundtrip("PING"), "OK pong");

    let open = c.roundtrip("OPEN 8 64 hp-dmmpc seed=42");
    assert!(open.starts_with("OK "), "{open}");
    let sid = field(&open, "sid").to_string();
    assert_eq!(field(&open, "scheme"), "hp-dmmpc");

    let step = c.roundtrip(&format!("STEP {sid} uniform 10"));
    assert_eq!(field(&step, "executed"), "10");

    let raw = c.roundtrip(&format!("STEP {sid} raw w=5:77"));
    assert_eq!(field(&raw, "executed"), "1");
    c.roundtrip(&format!("STEP {sid} raw r=5"));

    let stats = c.roundtrip(&format!("STATS {sid}"));
    assert_eq!(field(&stats, "steps"), "12");

    let trace = c.roundtrip(&format!("TRACE {sid}"));
    let hash = field(&trace, "trace").to_string();
    assert_eq!(hash.len(), 16, "16 hex digits: {trace}");

    let (info, shards) = c.roundtrip_multi("INFO");
    assert_eq!(field(&info, "sessions"), "1");
    assert_eq!(field(&info, "steps"), "12");
    assert_eq!(shards.len(), 2, "one payload line per shard");
    for line in &shards {
        assert!(line.starts_with("shard="), "{line}");
        assert!(line.contains("p99us="), "{line}");
    }

    let (metrics, families) = c.roundtrip_multi("METRICS");
    assert!(metrics.starts_with("OK lines="), "{metrics}");
    assert!(
        families.iter().any(|l| l == "cr_steps_total 12"),
        "{families:?}"
    );

    let (events, lines) = c.roundtrip_multi(&format!("EVENTS {sid}"));
    assert!(field(&events, "events").parse::<usize>().unwrap() >= 4);
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));

    let close = c.roundtrip(&format!("CLOSE {sid}"));
    assert!(close.starts_with("OK closed"), "{close}");
    assert_eq!(field(&close, "trace"), hash);

    assert_eq!(c.roundtrip("QUIT"), "OK bye");

    server.shutdown();
    service.shutdown();
}

#[test]
fn malformed_frames_get_err_replies_and_leave_the_connection_up() {
    let (service, server) = boot(1);
    let mut c = Client::connect(server.local_addr());
    for bad in [
        "GARBAGE",
        "OPEN",
        "OPEN 8 64 no-such-scheme",
        "OPEN 8 64 hp-dmmpc wat=1",
        "STEP 1 warp",
        "STEP notanumber uniform",
        "STATS",
        "CLOSE x",
        "STEP 424242 uniform", // well-formed but unknown session
    ] {
        let reply = c.roundtrip(bad);
        assert!(reply.starts_with("ERR "), "{bad:?} -> {reply}");
    }
    // The connection survived all of it.
    assert_eq!(c.roundtrip("PING"), "OK pong");
    let open = c.roundtrip("OPEN 8 64 hashed");
    assert!(open.starts_with("OK "), "{open}");
    // Out-of-contract raw batches are rejected per-command, session intact.
    let sid = field(&open, "sid").to_string();
    let oob = c.roundtrip(&format!("STEP {sid} raw r=9999"));
    assert!(oob.starts_with("ERR "), "{oob}");
    let ok = c.roundtrip(&format!("STEP {sid} uniform"));
    assert!(ok.starts_with("OK "), "{ok}");
    server.shutdown();
    service.shutdown();
}

#[test]
fn unknown_verify_mode_gets_one_err_and_the_connection_keeps_serving() {
    let (service, server) = boot(1);
    let mut c = Client::connect(server.local_addr());
    // There is no `full` (or `ring`) mode: it is refused like any
    // unknown mode, with exactly one reply line.
    assert_eq!(
        c.roundtrip("OPEN 8 64 hashed verify=full"),
        "ERR unknown verify mode full (off, on)"
    );
    // The next line on the wire is PING's own reply, not a leftover.
    assert_eq!(c.roundtrip("PING"), "OK pong");
    let open = c.roundtrip("OPEN 8 64 hashed verify=on");
    assert!(open.starts_with("OK "), "{open}");
    server.shutdown();
    service.shutdown();
}

#[test]
fn oversized_frame_is_rejected_without_panic() {
    let (service, server) = boot(1);
    // A 100 KiB line exceeds the 64 KiB frame cap. So does an 80 KiB
    // `PING` written in two parts with a pause longer than the server's
    // read timeout between them: the cap holds across partial reads.
    let huge = format!("STEP 1 raw r={}\n", "9,".repeat(50_000));
    let padded_ping = format!("PING{}", " ".repeat(60 * 1024 - 4));
    let tail = format!("{}\n", " ".repeat(20 * 1024));
    for parts in [vec![huge], vec![padded_ping, tail]] {
        let mut c = Client::connect(server.local_addr());
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            c.writer.write_all(part.as_bytes()).unwrap();
        }
        let mut reply = String::new();
        c.reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("ERR frame exceeds"), "{reply}");
    }
    // The server as a whole is still alive for new connections.
    let mut c2 = Client::connect(server.local_addr());
    assert_eq!(c2.roundtrip("PING"), "OK pong");
    server.shutdown();
    service.shutdown();
}

#[test]
fn invalid_utf8_frame_gets_err_and_leaves_the_connection_up() {
    let (service, server) = boot(1);
    let mut c = Client::connect(server.local_addr());
    // Raw 0xFF bytes are not UTF-8; the lossy decode must yield an ERR
    // reply (unknown command), never a panic or a dropped connection.
    c.writer.write_all(b"\xff\xfe OPEN\n").unwrap();
    let mut reply = String::new();
    c.reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");
    assert_eq!(c.roundtrip("PING"), "OK pong");
    server.shutdown();
    service.shutdown();
}

#[test]
fn sessions_are_shared_across_connections() {
    let (service, server) = boot(2);
    let mut a = Client::connect(server.local_addr());
    let mut b = Client::connect(server.local_addr());
    let open = a.roundtrip("OPEN 8 64 hp-dmmpc seed=5");
    let sid = field(&open, "sid").to_string();
    // A different connection can step the same session: ids are
    // service-global, not per-connection.
    let step = b.roundtrip(&format!("STEP {sid} uniform 4"));
    assert_eq!(field(&step, "executed"), "4");
    let stats = a.roundtrip(&format!("STATS {sid}"));
    assert_eq!(field(&stats, "steps"), "4");
    server.shutdown();
    service.shutdown();
}

/// Pipelining: a window of STEPN frames sent in one write gets one
/// in-order reply line per frame, and the resulting trace is identical
/// to the same steps driven ping-pong — the socket discipline is pure
/// transport.
#[test]
fn pipelined_stepn_window_replies_in_order() {
    let (service, server) = boot(2);
    let mut c = Client::connect(server.local_addr());
    let mut sids = Vec::new();
    for seed in 0..4 {
        let open = c.roundtrip(&format!("OPEN 8 64 hp-dmmpc seed={}", 300 + seed));
        sids.push(field(&open, "sid").to_string());
    }
    // Two rounds of STEPN across all sessions, written as one burst.
    let mut window = String::new();
    for _ in 0..2 {
        for sid in &sids {
            window.push_str(&format!("STEPN {sid} 8\n"));
        }
    }
    c.writer.write_all(window.as_bytes()).unwrap();
    for i in 0..8 {
        let mut reply = String::new();
        c.reader.read_line(&mut reply).unwrap();
        assert_eq!(field(reply.trim_end(), "executed"), "8", "reply {i}");
    }
    let tcp_trace = field(&c.roundtrip(&format!("TRACE {}", sids[0])), "trace").to_string();
    server.shutdown();
    service.shutdown();

    // The same 16 steps ping-pong, in process.
    let service = Service::start(ServiceConfig::with_shards(1)).expect("spawn shard workers");
    let mut h = service.handle();
    let open = h
        .open(cr_serve::SessionSpec::new(8, 64, cr_core::SchemeKind::HpDmmpc).seed(300))
        .unwrap();
    for _ in 0..16 {
        h.step(open.sid, cr_serve::WorkloadSpec::Uniform, 1)
            .unwrap();
    }
    let direct = h.trace(open.sid).unwrap().trace;
    service.shutdown();
    assert_eq!(tcp_trace, format!("{direct:016x}"));
}

#[test]
fn tcp_trace_matches_in_process_trace() {
    // The socket must be a pure transport: the trace of (seed, steps) is
    // identical whether driven over TCP or through the handle.
    let (service, server) = boot(3);
    let mut c = Client::connect(server.local_addr());
    let open = c.roundtrip("OPEN 8 64 hp-dmmpc seed=99");
    let sid = field(&open, "sid").to_string();
    c.roundtrip(&format!("STEP {sid} uniform 6"));
    let tcp_trace = field(&c.roundtrip(&format!("TRACE {sid}")), "trace").to_string();
    server.shutdown();
    service.shutdown();

    let service = Service::start(ServiceConfig::with_shards(1)).expect("spawn shard workers");
    let mut h = service.handle();
    let open = h
        .open(cr_serve::SessionSpec::new(8, 64, cr_core::SchemeKind::HpDmmpc).seed(99))
        .unwrap();
    h.step(open.sid, cr_serve::WorkloadSpec::Uniform, 6)
        .unwrap();
    let direct = h.trace(open.sid).unwrap().trace;
    service.shutdown();

    assert_eq!(tcp_trace, format!("{direct:016x}"));
}

/// Open a session over `c` and return its sid.
fn open_session(c: &mut Client) -> String {
    let open = c.roundtrip("OPEN 8 64 hashed seed=11");
    field(&open, "sid").to_string()
}

/// `QUIT` inside a pipelined window: every earlier frame is answered,
/// then `OK bye`, and nothing after it runs.
#[test]
fn quit_mid_window_answers_earlier_frames_and_runs_nothing_after() {
    let (service, server) = boot(2);
    let mut c = Client::connect(server.local_addr());
    let sid = open_session(&mut c);
    c.send_window(&[
        format!("STEPN {sid} 2"),
        "PING".to_string(),
        format!("STEPN {sid} 3"),
        "QUIT".to_string(),
        format!("STEPN {sid} 5"),
        format!("CLOSE {sid}"),
    ]);
    assert_eq!(field(&c.read_line(), "executed"), "2");
    assert_eq!(c.read_line(), "OK pong");
    assert_eq!(field(&c.read_line(), "executed"), "3");
    assert_eq!(c.read_line(), "OK bye");
    assert_eq!(c.read_line(), "", "the connection is closed after QUIT");
    let mut d = Client::connect(server.local_addr());
    assert_eq!(field(&d.roundtrip(&format!("STATS {sid}")), "steps"), "5");
    server.shutdown();
    service.shutdown();
}

/// A client that writes its window and then half-closes still gets a
/// reply to every frame before the server closes its side.
#[test]
fn half_closed_client_gets_every_reply() {
    let (service, server) = boot(2);
    let mut c = Client::connect(server.local_addr());
    let sid = open_session(&mut c);
    let mut window: Vec<String> = (0..8).map(|_| format!("STEPN {sid} 1")).collect();
    window.push(format!("TRACE {sid}"));
    c.send_window(&window);
    c.writer.shutdown(Shutdown::Write).unwrap();
    for i in 0..8 {
        assert_eq!(field(&c.read_line(), "steps"), (i + 1).to_string());
    }
    assert_eq!(field(&c.read_line(), "steps"), "8");
    assert_eq!(c.read_line(), "", "closed after the last reply");
    server.shutdown();
    service.shutdown();
}

/// An oversized frame behind pipelined frames: their replies come
/// first, then the frame-cap error, then the disconnect.
#[test]
fn oversized_frame_after_a_window_is_answered_after_the_window() {
    let (service, server) = boot(2);
    let mut c = Client::connect(server.local_addr());
    let sid = open_session(&mut c);
    c.send_window(&[
        "PING".to_string(),
        format!("STEPN {sid} 4"),
        format!("STEP 1 raw r={}", "9,".repeat(50_000)),
    ]);
    assert_eq!(c.read_line(), "OK pong");
    assert_eq!(field(&c.read_line(), "executed"), "4");
    assert_eq!(c.read_line(), "ERR frame exceeds 64KiB");
    server.shutdown();
    service.shutdown();
}

/// One burst on a fresh two-shard server: sessions opened and stepped by
/// their new sids, steps on both shards, a bare `VERIFY` mid-burst that
/// sees every earlier step, and `QUIT` at the end. Exactly one reply per
/// frame comes back, in frame order.
#[test]
fn one_burst_over_both_shards_is_answered_once_per_frame_in_frame_order() {
    let (service, server) = boot(2);
    let mut c = Client::connect(server.local_addr());
    // A fresh service numbers sessions from 1, so the burst can step a
    // session in the window that opens it.
    let sids = 1..=4u64;
    let mut frames: Vec<String> = sids
        .clone()
        .map(|sid| format!("OPEN 8 64 hashed seed={sid}"))
        .collect();
    frames.extend(sids.clone().map(|sid| format!("STEPN {sid} {sid}")));
    frames.extend(sids.clone().map(|sid| format!("VERIFY {sid}")));
    frames.extend(["VERIFY", "STEPN 1 5", "STATS 1", "QUIT"].map(String::from));
    c.send_window(&frames);
    let replies: Vec<String> = frames.iter().map(|_| c.read_line()).collect();
    assert_eq!(c.read_line(), "", "nothing follows QUIT's reply");

    let mut shards = BTreeSet::new();
    for (sid, open) in sids.clone().zip(&replies[0..4]) {
        assert_eq!(field(open, "sid"), sid.to_string(), "{open}");
        shards.insert(field(open, "shard").to_string());
    }
    assert_eq!(shards.len(), 2, "the burst steps sessions on both shards");
    for (sid, step) in sids.clone().zip(&replies[4..8]) {
        assert_eq!(field(step, "executed"), sid.to_string(), "{step}");
        assert_eq!(field(step, "steps"), sid.to_string(), "{step}");
    }
    let mut ops = 0;
    for (sid, verify) in sids.clone().zip(&replies[8..12]) {
        assert_eq!(field(verify, "sid"), sid.to_string(), "{verify}");
        assert_eq!(field(verify, "verdict"), "consistent", "{verify}");
        ops += field(verify, "ops").parse::<u64>().unwrap();
    }
    assert!(ops > 0, "the steps were checked");
    let all = &replies[12];
    assert_eq!(field(all, "sessions"), "4", "{all}");
    assert_eq!(field(all, "ops"), ops.to_string(), "{all}");
    assert_eq!(field(&replies[13], "executed"), "5", "{}", replies[13]);
    assert_eq!(field(&replies[14], "steps"), "6", "{}", replies[14]);
    assert_eq!(replies[15], "OK bye");
    server.shutdown();
    service.shutdown();
}

/// Frames sent on a live connection after the service stopped are each
/// answered `ERR shard down`; the connection keeps serving what needs
/// no shard.
#[test]
fn frames_after_service_shutdown_get_shard_down() {
    let (service, server) = boot(2);
    let mut c = Client::connect(server.local_addr());
    c.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let sid = open_session(&mut c);
    service.shutdown();
    let window = [
        format!("STEPN {sid} 1"),
        format!("STATS {sid}"),
        "OPEN 8 64 hashed".to_string(),
        format!("VERIFY {sid}"),
        format!("CLOSE {sid}"),
    ];
    c.send_window(&window);
    for frame in &window {
        assert_eq!(c.read_line(), "ERR shard down", "{frame}");
    }
    assert_eq!(c.roundtrip("PING"), "OK pong");
    server.shutdown();
}
