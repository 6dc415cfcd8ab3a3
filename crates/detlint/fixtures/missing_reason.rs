//! detlint fixture: exactly one `missing-reason` finding.
//!
//! The bare directive suppresses the underlying direct-trace-emit
//! finding but is itself reported, so the gate stays red until a reason
//! is written.

fn schedule(sched: &mut ShardedScheduler, at: u64, pop: PopId) {
    sched.schedule(at, pop, Box::new(move |ctx, pop: &mut Pop| {
        pop.telemetry.emit(at, chunk_event(pop)); // detlint::allow(direct-trace-emit)
        let _unused = ctx;
    }));
}
