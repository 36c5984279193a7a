//! Exit-code and error-message contract of the `admitd` binary: every
//! operator mistake (dead server, missing file, bad flag) must exit
//! nonzero with a message that names the problem, never a panic or a
//! silent success.

use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

fn admitd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_admitd"))
        .args(args)
        .output()
        .expect("spawn admitd")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A loopback port with nothing listening on it: bind, read the port,
/// drop the listener.
fn dead_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind probe")
        .local_addr()
        .expect("probe addr")
        .port()
}

#[test]
fn bench_against_unreachable_server_exits_nonzero_with_context() {
    let addr = format!("127.0.0.1:{}", dead_port());
    let out = admitd(&["bench", "--addr", &addr, "--requests", "10"]);
    assert!(!out.status.success(), "bench must fail without a server");
    let err = stderr(&out);
    assert!(err.contains("admitd:"), "prefixed for scripts: {err}");
    assert!(
        err.contains(&addr) && err.contains("is `admitd serve` running"),
        "error must say where it tried and hint at the fix: {err}"
    );
}

#[test]
fn bench_retries_report_the_attempt_count() {
    let addr = format!("127.0.0.1:{}", dead_port());
    let out = admitd(&[
        "bench",
        "--addr",
        &addr,
        "--requests",
        "10",
        "--retries",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("failed after 3 attempt(s)"),
        "attempt count (1 try + 2 retries) missing: {}",
        stderr(&out)
    );
}

#[test]
fn check_metrics_on_missing_file_exits_nonzero() {
    let out = admitd(&["check-metrics", "/nonexistent/metrics.prom"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("cannot read") && err.contains("/nonexistent/metrics.prom"),
        "must name the unreadable file: {err}"
    );
}

#[test]
fn serve_with_missing_restore_file_exits_nonzero() {
    let out = admitd(&["serve", "--restore", "/nonexistent/world.json"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot read snapshot"),
        "must explain the failed restore: {}",
        stderr(&out)
    );
}

#[test]
fn bad_invocations_exit_nonzero_with_usage_or_reason() {
    for (args, want) in [
        (vec!["frobnicate"], "unknown command"),
        (vec!["serve", "--chaos"], "--chaos"),
        (vec!["serve", "--snapshot-every", "-1"], "--snapshot-every"),
        (vec!["bench", "--deadline-ms", "0"], "--deadline-ms"),
        (vec!["bench", "--connections", "zero"], "--connections"),
        (vec!["bench", "--wait-ready", "0"], "--wait-ready"),
        (vec!["bench", "--wait-ready", "soon"], "--wait-ready"),
        (vec!["bench", "--wait-ready", "1e30"], "--wait-ready"),
        (vec!["bench", "--wait-ready", "-1"], "--wait-ready"),
    ] {
        let out = admitd(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains(want),
            "{args:?} must mention `{want}`: {}",
            stderr(&out)
        );
    }
    let out = admitd(&[]);
    assert!(!out.status.success(), "no command is an error");
}

#[test]
fn help_exits_zero_and_documents_the_robustness_flags() {
    let out = admitd(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for flag in [
        "--chaos",
        "--snapshot",
        "--restore",
        "--release-on-disconnect",
        "--retries",
        "--deadline-ms",
        "--wait-ready",
    ] {
        assert!(text.contains(flag), "usage must document {flag}");
    }
}

#[test]
fn subcommand_help_prints_usage_and_exits_zero() {
    for command in ["serve", "bench"] {
        let out = admitd(&[command, "--help"]);
        assert!(
            out.status.success(),
            "`admitd {command} --help` must succeed: {}",
            stderr(&out)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(text.contains("USAGE"), "`admitd {command} --help`: {text}");
    }
}

/// A child process killed when dropped, so a failed assertion never
/// leaks a server.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn bench_wait_ready_waits_for_a_server_that_starts_late() {
    let addr = format!("127.0.0.1:{}", dead_port());
    let bench = Command::new(env!("CARGO_BIN_EXE_admitd"))
        .args([
            "bench",
            "--addr",
            &addr,
            "--connections",
            "1",
            "--requests",
            "200",
            "--wait-ready",
            "60",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn admitd bench");
    // Nothing listens yet: the bench must keep polling, not fail.
    std::thread::sleep(Duration::from_millis(400));
    let _server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_admitd"))
            .args(["serve", "--addr", &addr])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn admitd serve"),
    );
    let out = bench.wait_with_output().expect("bench output");
    assert!(
        out.status.success(),
        "bench must run once the server is up: {}",
        stderr(&out)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("200 requests"), "bench report: {text}");
}

#[test]
fn bench_wait_ready_times_out_with_one_line_and_no_backtrace() {
    let addr = format!("127.0.0.1:{}", dead_port());
    let out = admitd(&["bench", "--addr", &addr, "--wait-ready", "0.3"]);
    assert!(!out.status.success(), "an absent server must fail the wait");
    let err = stderr(&out);
    assert_eq!(err.trim_end().lines().count(), 1, "one line: {err}");
    assert!(
        err.starts_with("admitd:") && err.contains(&addr) && err.contains("not ready after"),
        "must say where it waited and that it gave up: {err}"
    );
    assert!(!err.contains("panicked"), "no panic: {err}");
}
