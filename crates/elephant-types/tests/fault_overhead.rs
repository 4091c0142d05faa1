//! Failpoint overhead: the gate for "free when disabled".
//!
//! The fault registry promises that a disarmed [`elephant_types::fault::fire`] is
//! one relaxed atomic load, so production paths can carry failpoints at no
//! measurable cost. This binary holds exactly one test: no other test in
//! the process can arm the global registry while it measures.
//!
//! Run with `cargo test -p elephant-types --test fault_overhead`.

use elephant_types::fault;
use std::hint::black_box;
use std::time::Instant;

/// Budget for a disarmed `fire()`: a generous multiple of a relaxed load so
/// CI noise and unoptimized builds cannot flake it, but far below anything
/// doing real work (a mutex lock, a map lookup, a syscall).
const MAX_DISABLED_NS: f64 = 25.0;

const CALLS: u64 = 2_000_000;
const SAMPLES: usize = 7;

/// ns per `fire()` over `CALLS` calls of the named site.
fn sample(site: &str) -> f64 {
    let started = Instant::now();
    for _ in 0..CALLS {
        let r = fault::fire(black_box(site));
        black_box(&r);
    }
    started.elapsed().as_nanos() as f64 / CALLS as f64
}

#[test]
fn disarmed_fire_costs_under_budget() {
    // Initialize the registry (which applies `ELEPHANT_FAULTS`), then
    // disarm everything it may have armed.
    fault::clear_all();
    assert_eq!(
        fault::armed(),
        0,
        "the measurement needs a disarmed registry"
    );
    let _ = fault::fire("warmup");

    let mut ns: Vec<f64> = (0..SAMPLES).map(|_| sample("wal.append")).collect();
    ns.sort_by(f64::total_cmp);
    let median = ns[SAMPLES / 2];
    eprintln!("disarmed fire(): {median:.2} ns/call (budget {MAX_DISABLED_NS} ns)");
    assert!(
        median <= MAX_DISABLED_NS,
        "disarmed failpoint costs {median:.2} ns/call, over the {MAX_DISABLED_NS} ns budget"
    );
}
