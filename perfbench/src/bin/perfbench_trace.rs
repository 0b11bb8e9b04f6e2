//! The traced benchmark run: the workload's static network rebuilt from
//! public constructors with every node wrapped in a tracing wrapper (see
//! `srlb_perfbench::traced`), followed by the isolated layer timings.
//!
//! Runs on one simulation thread.  Installs a counting global allocator, so
//! per-callback allocation counts are exact.  Prints the simulated report on a `REPORT ` line — it must
//! be byte-identical to the untraced run's — and the per-layer raw counts
//! on a `RESULT ` line.

use std::alloc::{GlobalAlloc, Layout, System};

use srlb_perfbench::traced::{note_alloc, run_traced};
use srlb_perfbench::{host_metadata, layers, load_spec, report_json, runner, spec_dir, Args};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards to `System` unchanged; counting touches
// only an atomic and a const-initialised thread-local, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| fail(&e));
    if args.sim_threads != 1 {
        fail("traced runs use one simulation thread");
    }
    let spec = load_spec(&spec_dir(), args.workload, args.seed).unwrap_or_else(|e| fail(&e));
    runner(spec.clone(), 1).unwrap_or_else(|e| fail(&e));

    let run = run_traced(&spec);
    println!("REPORT {}", report_json(&run.report));
    let layers = layers::measure(&spec, &run.outcome.collector);

    let lb = run.outcome.lb_stats;
    let evictions = lb.flow_evicted_expired + lb.flow_evicted_idle + lb.flow_evicted_active;
    let (mut accepted, mut passed_on, mut forced) = (0, 0, 0);
    for s in &run.outcome.server_stats {
        accepted += s.accepted_by_policy;
        passed_on += s.passed_on;
        forced += s.forced_accepts;
    }
    println!(
        "RESULT {{\"run_ns\":{},\"drive_ns\":{},\"report_ns\":{},\"drive_allocs\":{},\
         \"events\":{},\"sent\":{},\"retransmits\":{},\"record_size\":{},\
         \"client\":{{{}}},\"lb\":{{{}}},\"server\":{{{}}},\
         \"flows_learned\":{},\"evictions\":{},\"hunt_accepted\":{accepted},\
         \"hunt_passed_on\":{passed_on},\"hunt_forced\":{forced},\
         \"workload_ns_per_request\":{},\"dispatch_ns\":{},\"flow_learn_ns\":{},\
         \"flow_lookup_ns\":{},\"summary_s\":{},{}}}",
        run.run_ns,
        run.drive_ns,
        run.report_ns,
        run.drive_allocs,
        run.outcome.events_processed,
        run.outcome.collector.len(),
        run.outcome.retransmits,
        std::mem::size_of::<srlb_metrics::RequestRecord>(),
        run.client.json(),
        run.lb.json(),
        run.server.json(),
        lb.flows_learned,
        evictions,
        layers.workload_ns_per_request,
        layers.dispatch_ns,
        layers.flow_learn_ns,
        layers.flow_lookup_ns,
        layers.summary_s,
        host_metadata(1, 1),
    );
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench-trace: {message}");
    std::process::exit(2);
}
