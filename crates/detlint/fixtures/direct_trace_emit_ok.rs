// Fixture: handler emission done right (through the EventCtx), plus a
// closure with no `ctx` parameter, which is *not* a scheduler handler and
// may write its sink directly. Zero findings.

fn schedule(sched: &mut ShardedScheduler, at: u64, pop: PopId) {
    sched.schedule(at, pop, Box::new(move |ctx, pop: &mut Pop| {
        pop.delivered += 1;
        ctx.emit(chunk_event(pop));
    }));
}

fn plain_closure(runtime: &mut Runtime, at: u64) {
    runtime.spawn(move |sched, world: &mut World| {
        world.telemetry.emit(at, tick_event(sched.now()));
    });
}
