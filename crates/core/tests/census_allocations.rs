//! What one class of the census costs, in heap allocations.
//!
//! The census walks every Theorem 3 class `(ρ, f)` of an instance and
//! asks its event once per class, so the allocations of one event call
//! multiply by the class count (10,427 on the series-cliff instance:
//! five nulls, five named constants). This binary installs a counting
//! global allocator and pins the per-class cost of a Boolean and of a
//! tuple event on that instance. The counter is per thread, so the test
//! harness's own allocations on other threads do not count.
//!
//! The walk binds each class's representative valuation in place, so a
//! class still builds `v(D)` and nothing else of its own; what the
//! bounds exclude is a fresh representative per class, the evaluator
//! rebuilding `Const(v(D)) ∪ C` (which the join path never reads) and
//! allocating join bindings.

use caz_core::{BoolQueryEvent, SeriesCensus, SuppEvent, TupleAnswerEvent};
use caz_idb::{cst, parse_database, Database, Tuple};
use caz_logic::parse_query;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calls that hand out memory
/// (`alloc`, `alloc_zeroed` and `realloc`) on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The series-cliff database: `R(pᵢ, ⊥ᵢ)` for i < 5.
fn cliff_db() -> Database {
    parse_database("R(p0, _x0). R(p1, _x1). R(p2, _x2). R(p3, _x3). R(p4, _x4).").unwrap().db
}

/// Allocations per class of one census of `event` over `db`.
fn allocations_per_class(event: &dyn SuppEvent, db: &Database) -> f64 {
    let before = ALLOCATIONS.with(Cell::get);
    let census = SeriesCensus::new(event, db).unwrap();
    let spent = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(census.total_classes, 10_427, "the series-cliff instance has 10,427 classes");
    spent as f64 / census.total_classes as f64
}

#[test]
fn a_boolean_class_costs_at_most_nine_allocations() {
    let db = cliff_db();
    // A series-cliff job: do two named rows share their null?
    let event = BoolQueryEvent::new(parse_query("Z := exists v. R(p1, v) & R(p3, v)").unwrap());
    let per_class = allocations_per_class(&event, &db);
    assert!(per_class <= 9.0, "{per_class:.2} allocations per class (bound 9)");
}

#[test]
fn a_tuple_class_costs_at_most_ten_allocations() {
    let db = cliff_db();
    let query = parse_query("Z(u) := exists v. R(u, v) & R(p3, v)").unwrap();
    let event = TupleAnswerEvent::new(query, Tuple::new(vec![cst("p1")]));
    let per_class = allocations_per_class(&event, &db);
    assert!(per_class <= 10.0, "{per_class:.2} allocations per class (bound 10)");
}
