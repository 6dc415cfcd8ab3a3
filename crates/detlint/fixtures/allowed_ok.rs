//! detlint fixture: zero findings — a well-formed suppression.

fn schedule(sched: &mut ShardedScheduler, at: u64, pop: PopId) {
    sched.schedule(at, pop, Box::new(move |ctx, pop: &mut Pop| {
        // detlint::allow(direct-trace-emit) — this sink is owned by the lane that fires the handler
        pop.lane_sink.emit(at, chunk_event(pop));
        let _unused = ctx;
    }));
}
