//! The piped `caz` shell: it evaluates through the planner, like a
//! server, and a request no engine can run is an `error:` line, not a
//! crash.

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

#[test]
fn piped_shell_reports_out_of_range_constraint_columns() {
    let script = "fact R(a, _x). S(a, b).\nquery Q := exists u, v. R(u, v)\n\
                  constraint fd R: 1 -> 5\ncond Q\nmu Q\n";
    let (status, lines) = shell(script);
    assert!(status.success(), "caz exited with {status}: {lines:?}");
    assert_eq!(
        lines,
        [
            "2 fact(s) added",
            "query Q defined",
            "1 constraint(s) added",
            "error: FD on R references column 4 but the relation has arity 2",
            "μ(Q, D) = 1",
        ]
    );
}

#[test]
fn piped_shell_refuses_reserved_and_null_like_constants() {
    let script = "fact R(_x, _x).\nquery T(u) := R(u, u)\nquery W := R('~a', b)\n\
                  mu T (~a)\nmu T (?0)\nmu T (_x)\n";
    let (status, lines) = shell(script);
    assert!(status.success(), "caz exited with {status}: {lines:?}");
    assert_eq!(
        lines,
        [
            "1 fact(s) added",
            "query T defined",
            "error: parse error at 1:12: constant name \"~a\" uses the reserved prefix '~'",
            "error: tuple (~a): parse error at 1:2: expected an identifier or number",
            "error: tuple (?0): parse error at 1:2: expected an identifier or number",
            "μ(Q, D) = 1",
        ]
    );
}

#[test]
fn piped_shell_refuses_a_fact_at_another_arity() {
    let script = "fact R(a, _x).\nfact R(b).\nquery Q := exists u, v. R(u, v)\nmu Q\n";
    let (status, lines) = shell(script);
    assert!(status.success(), "caz exited with {status}: {lines:?}");
    assert_eq!(
        lines,
        [
            "1 fact(s) added",
            "error: relation R used with arity 1, previously 2",
            "query Q defined",
            "μ(Q, D) = 1",
        ]
    );
}
