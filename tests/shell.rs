//! The plain `caz` shell evaluates through the planner, like a server.
//! Piped commands over eleven nulls — past the support-polynomial
//! engine's cap — get Theorem 1's answer from one naïve evaluation
//! instead of a crash.

use std::io::Write;
use std::process::{Command, Stdio};

/// Pipe `script` into the `caz` shell; its exit status and stdout lines.
fn shell(script: &str) -> (std::process::ExitStatus, Vec<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_caz"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn caz");
    child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    (out.status, stdout.lines().map(str::to_string).collect())
}

#[test]
fn piped_shell_takes_the_planner_route_past_the_engine_cap() {
    let facts: Vec<String> = (0..=10).map(|i| format!("N(_a{i}).")).collect();
    let script = format!("fact {}\nquery P := exists x. N(x)\nmu P\n", facts.join(" "));
    let (status, lines) = shell(&script);
    assert!(status.success(), "caz exited with {status}: {lines:?}");
    assert_eq!(lines, ["11 fact(s) added", "query P defined", "μ(Q, D) = 1"]);
}
