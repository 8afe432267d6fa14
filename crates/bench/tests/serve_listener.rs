//! `repro serve` out of file descriptors: a listener whose `accept`
//! fails (EMFILE) must keep listening, count the failures in
//! `cr_accept_errors_total`, and serve again once descriptors free up.
//!
//! The server runs as a child process under `ulimit -n 24`, so the limit
//! binds it and not this test.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// The server child; killed when the test ends, pass or fail.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Send `frame` on a fresh connection; the reply header plus the
/// `lines=` payload lines it announces, or `None` if the server does not
/// answer within a second.
fn request(addr: SocketAddr, frame: &str) -> Option<Vec<String>> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
    (&stream).write_all(format!("{frame}\n").as_bytes()).ok()?;
    let mut reader = BufReader::new(stream);
    let mut read_line = || {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(line.trim_end().to_string()),
            _ => None,
        }
    };
    let header = read_line()?;
    let payload = header
        .split_whitespace()
        .find_map(|f| f.strip_prefix("lines="))
        .map_or(Some(0), |n| n.parse().ok())?;
    let mut reply = vec![header];
    for _ in 0..payload {
        reply.push(read_line()?);
    }
    Some(reply)
}

#[test]
fn listener_survives_running_out_of_descriptors() {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -n 24 && exec \"$0\" serve --addr 127.0.0.1:0 --shards 1")
        .arg(env!("CARGO_BIN_EXE_repro"))
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the server under sh");
    let mut stdout: BufReader<ChildStdout> =
        BufReader::new(child.stdout.take().expect("piped stdout"));
    let _serve = Serve(child);
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("server banner");
    // "cr-serve listening on <addr> shards=1"
    let addr: SocketAddr = banner
        .split_whitespace()
        .nth(3)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    // Each served connection holds two descriptors, so 40 of them run
    // the server out: its later accepts fail. Held for a second, the
    // flood outlasts many of the listener's 50 ms retries.
    let flood: Vec<TcpStream> = (0..40)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect();
    sleep(Duration::from_secs(1));
    drop(flood);

    let deadline = Instant::now() + Duration::from_secs(10);
    let pong = loop {
        if let Some(reply) = request(addr, "PING") {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "the listener did not come back after the descriptors freed up"
        );
        sleep(Duration::from_millis(100));
    };
    assert_eq!(pong, ["OK pong"]);

    let metrics = request(addr, "METRICS").expect("METRICS answers");
    let errors: u64 = metrics
        .iter()
        .find_map(|l| l.strip_prefix("cr_accept_errors_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no cr_accept_errors_total total in {metrics:?}"));
    assert!(errors > 0, "the failed accepts were counted");
}
