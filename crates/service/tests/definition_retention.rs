//! What a kept definition costs, in requested heap bytes.
//!
//! Each series-cliff job defines a fresh query, and its session keeps
//! every definition for as long as it lives, so the bytes one
//! definition keeps multiply by the jobs a connection sends. A session
//! keeps a first-order definition as the one string it renders to. This
//! binary installs a global allocator that tracks the bytes live on the
//! calling thread (requested sizes, not the allocator's rounding) and
//! pins two things: 10,000 fresh definitions keep at most 128 bytes
//! each, and 10,000 redefinitions of one name keep no more than the one
//! definition they leave. The counter is per thread, so the test
//! harness's own allocations on other threads do not count.
//!
//! Run it optimized too:
//! `cargo test -p caz-service --release --test definition_retention`.

use caz_service::{Reply, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, tracking the requested bytes live on the
/// calling thread: `alloc` and `alloc_zeroed` add their size, `realloc`
/// the difference, and `dealloc` takes it back.
struct Tracking;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; tracking touches only a thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

const DEFINITIONS: usize = 10_000;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn run(session: &mut Session, line: &str) {
    match session.execute(line) {
        Ok(Reply::Text(_)) => {}
        Ok(Reply::Quit) => panic!("{line:?} quit"),
        Err(e) => panic!("{line:?}: {e}"),
    }
}

/// A session holding the series-cliff database (five nulls) and one
/// definition, so the names the definitions use are interned already.
fn cliff_session() -> Session {
    let mut session = Session::new();
    run(
        &mut session,
        "fact R(p0, _x0). R(p1, _x1). R(p2, _x2). R(p3, _x3). R(p4, _x4).",
    );
    run(&mut session, "query Warm := exists v. R(p1, v) & R(p3, v)");
    session
}

#[test]
fn a_fresh_definition_keeps_at_most_128_bytes() {
    let mut session = cliff_session();
    let before = live();
    for n in 0..DEFINITIONS {
        run(
            &mut session,
            &format!("query Z{n} := exists v. R(p1, v) & R(p3, v)"),
        );
    }
    let per_definition = (live() - before) as f64 / DEFINITIONS as f64;
    assert!(
        per_definition <= 128.0,
        "{per_definition:.1} bytes per definition (bound 128)"
    );
    let kept = session
        .replay_lines()
        .iter()
        .filter(|l| l.starts_with("query "))
        .count();
    assert_eq!(kept, DEFINITIONS + 1);
}

#[test]
fn redefining_one_name_keeps_one_definition() {
    let mut session = cliff_session();
    run(&mut session, "query Z := exists v. R(p0, v) & R(p4, v)");
    let before = live();
    for n in 0..DEFINITIONS {
        let (i, j) = (n % 5, (n + 2) % 5);
        run(
            &mut session,
            &format!("query Z := exists v. R(p{i}, v) & R(p{j}, v)"),
        );
    }
    // Every redefinition renders to text of the same length as the
    // first, so nothing the loop leaves behind may outlive it.
    let kept = live() - before;
    assert!(
        kept <= 0,
        "{kept} bytes kept by {DEFINITIONS} redefinitions"
    );
    let queries: Vec<String> = session
        .replay_lines()
        .into_iter()
        .filter(|l| l.starts_with("query "))
        .collect();
    assert_eq!(queries.len(), 2, "{queries:?}");
    assert!(queries.contains(&"query Z() := ∃v ((R('p4', v) ∧ R('p1', v)))".to_string()));
}
