//! End-to-end tests of `hotnoc serve` / `hotnoc submit` as real
//! processes: daemon start-up, byte-identical repeat submissions served
//! from the cache, client exit codes, and graceful `--shutdown`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn hotnoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hotnoc"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotnoc-serve-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn write_scenario_spec(dir: &Path) -> PathBuf {
    let path = dir.join("one.json");
    std::fs::write(
        &path,
        r#"{
  "name": "rt-one",
  "chip": {"config": "A"},
  "workload": {"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 120},
  "policy": {"kind": "baseline"},
  "mode": "cosim",
  "fidelity": "quick",
  "seed": 7
}"#,
    )
    .expect("write spec");
    path
}

/// A daemon child that is killed on drop so a failing test can't leak a
/// process holding the socket.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn start_daemon(socket: &Path, journal: &Path, spool: &Path) -> Daemon {
    let mut child = hotnoc()
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--journal")
        .arg(journal)
        .arg("--spool")
        .arg(spool)
        .args(["--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    // Wait for the socket to accept a submission-free probe.
    for _ in 0..400 {
        if socket.exists() {
            return Daemon(child);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("daemon never bound {}", socket.display());
}

fn submit(socket: &Path, spec: &Path) -> Output {
    hotnoc()
        .arg("submit")
        .arg(spec)
        .arg("--socket")
        .arg(socket)
        .output()
        .expect("run submit")
}

#[test]
fn repeat_submission_is_byte_identical_and_shutdown_drains() {
    let dir = tmp_dir("roundtrip");
    let socket = dir.join("hotnoc.sock");
    let journal = dir.join("journal.jsonl");
    let spec = write_scenario_spec(&dir);
    let daemon = start_daemon(&socket, &journal, &dir.join("spool"));

    let first = submit(&socket, &spec);
    assert!(
        first.status.success(),
        "first submit failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = submit(&socket, &spec);
    assert!(second.status.success());
    // The serving layer's contract: the cached response is byte-identical
    // to the computed one (the default id is the spec fingerprint, so no
    // client-side nonce can differ either).
    assert_eq!(first.stdout, second.stdout);
    let body = String::from_utf8_lossy(&first.stdout);
    assert!(body.contains(r#""status": 0"#), "unexpected body: {body}");
    assert!(body.contains(r#""fingerprint""#), "unexpected body: {body}");

    // A spec that is not JSON at all is bad input, client-side (exit 2).
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json").expect("write garbage");
    let bad = submit(&socket, &garbage);
    assert_eq!(bad.status.code(), Some(2));

    // Graceful drain: the shutdown client exits 0, then the daemon itself
    // exits 0 and releases the socket.
    let down = hotnoc()
        .args(["serve", "--shutdown", "--socket"])
        .arg(&socket)
        .output()
        .expect("run shutdown");
    assert!(
        down.status.success(),
        "shutdown failed: {}",
        String::from_utf8_lossy(&down.stderr)
    );
    let mut daemon = daemon;
    let status = daemon.0.wait().expect("wait for daemon");
    assert!(status.success(), "daemon exited {status:?}");
    assert!(!socket.exists(), "drained daemon left its socket behind");

    // The journal holds the header plus exactly one computed result, and
    // every line is valid JSON (no torn lines).
    let text = std::fs::read_to_string(&journal).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "journal:\n{text}");
    for line in &lines {
        hotnoc_scenario::json::Json::parse(line).expect("journal line parses");
    }
    assert!(lines[0].contains("hotnoc-serve-journal-v1"));
}

#[test]
fn submit_without_a_daemon_fails_with_exit_one() {
    let dir = tmp_dir("nodaemon");
    let spec = write_scenario_spec(&dir);
    let out = submit(&dir.join("absent.sock"), &spec);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn serve_flag_validation_is_a_usage_error() {
    // Neither --socket nor --tcp.
    let out = hotnoc().arg("serve").output().expect("run serve");
    assert_eq!(out.status.code(), Some(2));
    // Both at once.
    let out = hotnoc()
        .args(["submit", "x.json", "--socket", "a", "--tcp", "b:1"])
        .output()
        .expect("run submit");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn tcp_port_zero_logs_the_bound_port_and_shutdown_alone_drains() {
    let dir = tmp_dir("tcp0");
    let mut child = hotnoc()
        .args(["serve", "--tcp", "127.0.0.1:0", "--spool"])
        .arg(dir.join("spool"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut log = BufReader::new(child.stderr.take().expect("piped stderr"));
    let daemon = Daemon(child);
    let mut first = String::new();
    log.read_line(&mut first).expect("read the listening line");
    // "serve: listening on tcp:127.0.0.1:PORT (N threads, ...)"
    let addr = first
        .strip_prefix("serve: listening on tcp:")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected log line: {first}"))
        .to_string();
    let port: u16 = addr
        .rsplit(':')
        .next()
        .unwrap()
        .parse()
        .expect("numeric port");
    assert_ne!(port, 0, "the log must show the resolved port: {first}");

    // No traffic but the shutdown itself: the drain must still wake the
    // blocked accept and let the daemon exit.
    let down = hotnoc()
        .args(["serve", "--shutdown", "--tcp", &addr])
        .output()
        .expect("run shutdown");
    assert!(
        down.status.success(),
        "shutdown failed: {}",
        String::from_utf8_lossy(&down.stderr)
    );
    let mut daemon = daemon;
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll daemon") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "daemon exited {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
