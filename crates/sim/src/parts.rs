//! The workspace's one fork/join primitive.
//!
//! Every data-parallel job in livescope — sharded-scheduler lanes and
//! the buffering sweep — hands
//! [`run_parts`] a list of parts that own disjoint state and takes the
//! results back in part order. Because results come back by position,
//! never by completion, a caller whose parts are independent produces
//! the same bytes for any part count and any thread interleaving.

/// Runs `f` once per part and returns the results in part order.
///
/// Zero or one part runs inline on the calling thread and spawns
/// nothing; two or more run on one scoped thread each
/// ([`std::thread::scope`], so parts may borrow from the caller's
/// stack) and are joined in part order before this returns. A panic in
/// any part is re-raised on the caller with its original payload, after
/// the scope has joined the remaining threads.
///
/// ```
/// let mut halves = [[1u64, 2], [3, 4]];
/// let sums = livescope_sim::run_parts(halves.iter_mut().collect(), |half| {
///     half[0] += 10;
///     half.iter().sum::<u64>()
/// });
/// assert_eq!(sums, vec![13, 17]);
/// ```
pub fn run_parts<T: Send, R: Send>(parts: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if parts.len() <= 1 {
        return parts.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| scope.spawn(move || f(part)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::run_parts;

    #[test]
    fn zero_parts_return_nothing() {
        let out: Vec<u32> = run_parts(Vec::<u32>::new(), |p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn one_part_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = run_parts(vec![()], |()| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn results_come_back_in_part_order() {
        // A rendezvous no part can pass alone: all eight must be running
        // at once, so completion order is up to the OS while the result
        // order must still be the part order.
        let barrier = std::sync::Barrier::new(8);
        let out = run_parts((0..8u64).collect(), |p| {
            barrier.wait();
            p * p
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    #[should_panic(expected = "part 2 failed")]
    fn a_panicking_part_fails_the_caller() {
        run_parts((0..4u32).collect(), |p| {
            assert!(p != 2, "part {p} failed");
        });
    }
}
