// Fixture: trace emission inside a ShardedScheduler handler that bypasses
// the per-shard EventCtx buffer. Exactly one direct-trace-emit finding: a
// captured telemetry handle's `.emit`.

fn schedule(sched: &mut ShardedScheduler, at: u64, pop: PopId) {
    sched.schedule(at, pop, Box::new(move |ctx, pop: &mut Pop| {
        pop.telemetry.emit(at, chunk_event(pop));
        let _unused = ctx;
    }));
}
