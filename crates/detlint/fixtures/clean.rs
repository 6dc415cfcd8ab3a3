//! detlint fixture: zero findings — near misses for `direct-trace-emit`.
//! Not compiled — linted by `crates/detlint/tests/fixtures.rs`.

/// Hazard text inside comments and strings is not code, and a doc
/// comment may quote the `// detlint::allow(direct-trace-emit)` syntax
/// without being a directive.
fn schedule(sched: &mut ShardedScheduler, at: u64, pop: PopId) {
    sched.schedule(at, pop, Box::new(move |ctx, pop: &mut Pop| {
        // pop.telemetry.emit(at, chunk_event(pop)) would bypass the EventCtx.
        let why = "pop.telemetry.emit(at, ev) writes the global sink";
        ctx.emit(chunk_event(pop, why));
    }));
}

/// Setup code outside any handler writes its telemetry handle directly.
fn announce(telemetry: &Telemetry, at: u64) {
    telemetry.emit(at, started_event());
}
