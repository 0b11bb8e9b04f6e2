//! The untraced benchmark run: loads, parses and validates one workload's
//! spec, then times `Runner::run` plus the `SpecRunReport` projection.
//!
//! Set-up time runs from `--spawn-ns` (the parent's `CLOCK_MONOTONIC`
//! reading just before it spawned this process) to the entry into
//! `Runner::run`.  Prints the report on a `REPORT ` line and the timings
//! and host metadata on a `RESULT ` line; CPU time and peak RSS are read
//! by the parent from the process's resource usage.  The result also gives
//! the run's event budget, which bounds how far a sharded run cut at the
//! budget may overshoot it.

use std::time::Instant;

use srlb_bench::SpecRunReport;
use srlb_perfbench::{
    event_budget, host_metadata, load_spec, monotonic_ns, report_json, runner, shards_run,
    spec_dir, Args,
};

fn main() {
    let main_ns = monotonic_ns();
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| fail(&e));
    let spec = load_spec(&spec_dir(), args.workload, args.seed).unwrap_or_else(|e| fail(&e));
    let runner = runner(spec, args.sim_threads).unwrap_or_else(|e| fail(&e));
    let setup_s = monotonic_ns().saturating_sub(args.spawn_ns.unwrap_or(main_ns)) as f64 * 1e-9;
    if args.setup_only {
        println!("RESULT {{\"setup_s\":{setup_s}}}");
        return;
    }

    let start = Instant::now();
    let outcome = runner.run();
    let report_start = Instant::now();
    let report = SpecRunReport::from_outcome(&outcome, args.seed);
    let end = Instant::now();
    println!("REPORT {}", report_json(&report));

    // The budget needs the request count, so the stream is rebuilt once the
    // outcome is gone and cannot raise the peak RSS.
    let (events, shards) = (outcome.events_processed, shards_run(&outcome));
    drop(outcome);
    let spec = runner.spec();
    let requests = spec.workload.stream(spec.seed, &spec.cluster).remaining() as u64;
    println!(
        "RESULT {{\"setup_s\":{setup_s},\"run_s\":{},\"report_s\":{},\"events\":{events},\
         \"event_budget\":{},{}}}",
        (end - start).as_secs_f64(),
        (end - report_start).as_secs_f64(),
        event_budget(spec, requests),
        host_metadata(args.sim_threads, shards),
    );
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench-run: {message}");
    std::process::exit(2);
}
