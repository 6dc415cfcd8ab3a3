//! Weighted user picks: a cumulative-weight table searched through a
//! guide table (Chen & Asau's indexed search; DESIGN.md §10).
//!
//! The replay makes one pick per mobile view — ~18 per record, 482M at
//! paper scale — over an `O(users)` table, so a plain binary search is
//! `log2(users)` dependent cache misses per view. The guide stores, for
//! each of `users / 4` equal slices of the total weight, the first table
//! index inside that slice; a pick jumps there and scans the handful of
//! entries left. The scan is exact, not approximate: [`CumulativeTable::pick`]
//! returns the index `partition_point(|c| c <= needle)` would, for every
//! needle, so no generated byte depends on the guide.
//!
//! At paper scale even the guided pick is a random read into a 96 MB
//! table, and the tally it feeds is another random write. A caller that
//! only needs the multiset of picks — the ground-truth ledger, whose
//! tallies and bitsets commute — can split a pick in two:
//! `CumulativeTable::draw` makes exactly the draw `pick` makes, and
//! `CumulativeTable::resolve` later resolves a batch of such needles
//! in needle order. One counting pass partitions the batch into
//! `RESOLVE_SLICES` equal slices of the total weight, so the guide, the
//! table and the caller's per-user state are then walked nearly in
//! ascending order (`crates/workload/DESIGN.md`).

use rand::rngs::SmallRng;
use rand::Rng;

/// Cumulative-table entries per guide bucket, on average: half a cache
/// line of the `f64` table, so the jump's own miss loads most of what
/// the scan reads. Measured flat from 1 to 4 and slower from 8 up
/// (DESIGN.md §10), so the largest of the flat range: the guide costs
/// one byte per user.
const ENTRIES_PER_BUCKET: usize = 4;

/// Slices of the total weight that [`CumulativeTable::resolve`]
/// partitions a batch into. With a 2^16-needle batch a slice holds ~4
/// needles, and at 12M users spans ~730 users (~6 KB of the table), so
/// consecutive locates land a few lines apart. The offsets are 64 KiB of
/// stack. One counting pass, not a full sort: a four-pass LSD radix sort
/// plus a merge walk lost to it at 12k users (0.68×).
const RESOLVE_SLICES: usize = 1 << 14;

/// The partition slice of `needle`, given `RESOLVE_SLICES / total`.
/// A needle just below `total` can round up to `RESOLVE_SLICES`, so the
/// last slice is clamped.
fn slice_of(needle: f64, slices_per_weight: f64) -> usize {
    ((needle * slices_per_weight) as usize).min(RESOLVE_SLICES - 1)
}

/// Per-user propensity weights in cumulative form, plus the guide that
/// makes a weighted pick `O(1)` expected.
///
/// A user is entirely inactive (zero weight — never picked) with
/// probability `inactive_fraction`, which is what keeps the Table 1
/// "unique viewers/broadcasters" counts below the registered
/// population, as in the paper.
pub struct CumulativeTable {
    /// `cumulative[i]` = total weight of users `0..=i`; non-decreasing,
    /// last entry positive and finite.
    cumulative: Vec<f64>,
    /// `guide[k]` = first index whose cumulative weight exceeds
    /// `k · total / guide.len()`.
    guide: Vec<u32>,
    /// The last cumulative entry: the weight of the whole population.
    total: f64,
    /// `guide.len() / total`: maps a needle to its guide bucket.
    buckets_per_weight: f64,
}

impl CumulativeTable {
    /// Draws the table for `users` users from `rng`: per user, first
    /// `gen_bool(inactive_fraction)`, then — for an active user only —
    /// one `weight` draw.
    ///
    /// Panics if every user came out inactive or the total weight is not
    /// finite.
    pub fn new(
        rng: &mut SmallRng,
        users: usize,
        inactive_fraction: f64,
        mut weight: impl FnMut(&mut SmallRng) -> f64,
    ) -> CumulativeTable {
        assert!(
            users <= u32::MAX as usize,
            "user ids and guide entries are u32"
        );
        let mut cumulative = Vec::with_capacity(users);
        let mut total = 0.0;
        for _ in 0..users {
            if !rng.gen_bool(inactive_fraction) {
                total += weight(rng);
            }
            cumulative.push(total);
        }
        assert!(total > 0.0, "every user is inactive — population too small");
        assert!(total.is_finite(), "propensity weights overflowed: {total}");

        let buckets = (users / ENTRIES_PER_BUCKET).max(1);
        let mut guide = Vec::with_capacity(buckets);
        let mut first = 0usize;
        for k in 0..buckets {
            // `edge < total` for every `k < buckets`, so the walk stops
            // at the last entry at the latest.
            let edge = k as f64 * total / buckets as f64;
            while cumulative[first] <= edge {
                first += 1;
            }
            guide.push(first as u32);
        }
        CumulativeTable {
            cumulative,
            guide,
            total,
            buckets_per_weight: buckets as f64 / total,
        }
    }

    /// Samples a user id proportional to its weight, from exactly one
    /// `rng.gen_range(0.0..total)` draw.
    pub fn pick(&self, rng: &mut SmallRng) -> u32 {
        self.locate(self.draw(rng))
    }

    /// The needle a [`pick`](Self::pick) draws, exactly one
    /// `rng.gen_range(0.0..total)`, for [`resolve`](Self::resolve) to
    /// turn into the same user later.
    pub(crate) fn draw(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(0.0..self.total)
    }

    /// Calls `on_pick` once per needle of `needles` (each drawn by
    /// [`draw`](Self::draw)) with the user [`pick`](Self::pick) would
    /// have returned for it. The calls come in needle order, slice by
    /// slice, not in the order of `needles`: the multiset of picks is
    /// the same, and the table is read nearly front to back.
    ///
    /// # Panics
    /// Panics when `scratch` is shorter than `needles`.
    pub(crate) fn resolve(
        &self,
        needles: &[f64],
        scratch: &mut [f64],
        mut on_pick: impl FnMut(u32),
    ) {
        assert!(needles.len() <= u32::MAX as usize, "slice offsets are u32");
        let sorted = &mut scratch[..needles.len()];
        let slices_per_weight = RESOLVE_SLICES as f64 / self.total;
        let mut next = [0u32; RESOLVE_SLICES];
        for &needle in needles {
            next[slice_of(needle, slices_per_weight)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for &needle in needles {
            let slot = &mut next[slice_of(needle, slices_per_weight)];
            sorted[*slot as usize] = needle;
            *slot += 1;
        }
        for &needle in sorted.iter() {
            on_pick(self.locate(needle));
        }
    }

    /// The first index whose cumulative weight exceeds `needle`, for a
    /// `needle` in `[0, total)`.
    fn locate(&self, needle: f64) -> u32 {
        let cum = &self.cumulative[..];
        let bucket = ((needle * self.buckets_per_weight) as usize).min(self.guide.len() - 1);
        let mut i = self.guide[bucket] as usize;
        // The bucket is computed in floats, so a needle a rounding error
        // below a bucket edge can land in the bucket above it. Whenever
        // the jump overshot, the entry before it already exceeds the
        // needle; walk back until it does not.
        while i > 0 && cum[i - 1] > needle {
            i -= 1;
        }
        // Now nothing before `i` exceeds the needle, and `total` does.
        while cum[i] <= needle {
            i += 1;
        }
        i as u32
    }

    /// The cumulative weights, one per user (the reference search of the
    /// tests and of the bench crate's `paper_scale_pins` runs over these).
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }

    /// Heap bytes held: the `f64` table plus the `u32` guide.
    pub fn heap_bytes(&self) -> usize {
        self.cumulative.capacity() * std::mem::size_of::<f64>()
            + self.guide.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The search the guide replaced, kept as the reference.
    fn oracle(table: &CumulativeTable, needle: f64) -> u32 {
        table.cumulative.partition_point(|&c| c <= needle) as u32
    }

    /// A table with exactly these per-user weights.
    fn table_of(weights: &[f64]) -> CumulativeTable {
        let mut next = weights.iter().copied();
        CumulativeTable::new(&mut SmallRng::seed_from_u64(0), weights.len(), 0.0, |_| {
            next.next().expect("one draw per user")
        })
    }

    /// Needles where an off-by-one would show: every cumulative value and
    /// every bucket edge (as the build computes it and as the pick
    /// inverts it), each with its float neighbours, plus both ends of
    /// `[0, total)`. Out-of-range candidates are dropped.
    fn edge_needles(table: &CumulativeTable) -> Vec<f64> {
        let total = table.total;
        let buckets = table.guide.len();
        let mut points = vec![0.0, total.next_down()];
        points.extend_from_slice(&table.cumulative);
        for k in 0..=buckets {
            points.push(k as f64 * total / buckets as f64);
            points.push(k as f64 / table.buckets_per_weight);
        }
        points
            .into_iter()
            .flat_map(|p| [p.next_down(), p, p.next_up()])
            .filter(|n| (0.0..total).contains(n))
            .collect()
    }

    fn assert_matches_oracle(weights: &[f64]) -> Result<(), String> {
        let table = table_of(weights);
        let mut rng = SmallRng::seed_from_u64(weights.len() as u64);
        let random = (0..64).map(|_| rng.gen_range(0.0..table.total));
        for needle in edge_needles(&table).into_iter().chain(random) {
            let (got, want) = (table.locate(needle), oracle(&table, needle));
            prop_assert!(
                got == want,
                "needle {needle:e}: guided {got}, oracle {want}, weights {weights:?}"
            );
        }
        Ok(())
    }

    /// Per-user weights: mostly lognormal-ish magnitudes, with zero
    /// weights (inactive users) mixed in at the given rate.
    fn weights(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
        (
            proptest::collection::vec((0.0f64..1.0, -12.0f64..12.0), len),
            0.0f64..0.95,
        )
            .prop_map(|(draws, inactive)| {
                let mut w: Vec<f64> = draws
                    .into_iter()
                    .map(|(u, e)| if u < inactive { 0.0 } else { e.exp() })
                    .collect();
                // `new` rejects an all-inactive population.
                if w.iter().all(|&x| x == 0.0) {
                    w[0] = 1.0;
                }
                w
            })
    }

    proptest! {
        #[test]
        fn guided_pick_equals_partition_point(w in weights(2..400)) {
            assert_matches_oracle(&w)?;
        }

        #[test]
        fn zero_weight_runs_do_not_shift_the_pick(
            w in weights(2..60),
            lead in 0usize..40,
            mid in 0usize..300,
            trail in 0usize..40,
        ) {
            // Leading, long interior and trailing runs of inactive users
            // (`creator_inactive_fraction` is 0.83 in the Periscope preset).
            let split = w.len() / 2;
            let mut padded = vec![0.0; lead];
            padded.extend_from_slice(&w[..split]);
            padded.extend(std::iter::repeat_n(0.0, mid));
            padded.extend_from_slice(&w[split..]);
            padded.extend(std::iter::repeat_n(0.0, trail));
            if padded.iter().all(|&x| x == 0.0) {
                padded[lead] = 1.0;
            }
            assert_matches_oracle(&padded)?;
        }

        #[test]
        fn one_dominant_weight_does_not_shift_the_pick(
            w in weights(2..200),
            at in 0usize..200,
            scale in 1e3f64..1e15,
        ) {
            // Nearly every bucket then points at one user, and the rest of
            // the population shares a bucket or two.
            let mut w = w;
            let at = at % w.len();
            w[at] = scale * w.iter().sum::<f64>();
            assert_matches_oracle(&w)?;
        }
    }

    #[test]
    fn cumulative_values_on_bucket_edges_pick_exactly() {
        // Equal weights put every fourth cumulative value exactly on a
        // bucket edge, and `buckets / total` is not a power of two, so the
        // needle one ulp below an edge rounds up into the bucket above:
        // the case the walk back exists for.
        for (weight, users) in [(3.0, 40), (5.0, 400), (7.0, 28), (0.1, 120), (1e-3, 1_000)] {
            assert_matches_oracle(&vec![weight; users]).unwrap();
        }
    }

    #[test]
    fn smallest_population_picks_exactly() {
        for w in [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1e-300, 1e300]] {
            assert_matches_oracle(&w).unwrap();
        }
        // An inactive user is never picked.
        let table = table_of(&[0.0, 3.0]);
        let mut rng = SmallRng::seed_from_u64(7);
        assert!((0..1_000).all(|_| table.pick(&mut rng) == 1));
    }

    #[test]
    fn single_user_table_always_picks_that_user() {
        // `users / ENTRIES_PER_BUCKET` is 0 here: the guide must still
        // have its one bucket.
        for weight in [1.0, 1e-300, 1e300] {
            let table = table_of(&[weight]);
            assert_eq!(table.guide, [0]);
            assert_matches_oracle(&[weight]).unwrap();
            let mut rng = SmallRng::seed_from_u64(1);
            assert!((0..100).all(|_| table.pick(&mut rng) == 0));
        }
    }

    #[test]
    fn all_weight_in_the_last_bucket_picks_the_last_user() {
        // Every guide entry points past a run of inactive users as long
        // as the table: the forward walk's worst case.
        for users in [2, 5, 64, 1_001] {
            let mut w = vec![0.0; users];
            w[users - 1] = 2.5;
            let table = table_of(&w);
            assert!(table.guide.iter().all(|&g| g as usize == users - 1));
            assert_matches_oracle(&w).unwrap();
            let mut rng = SmallRng::seed_from_u64(users as u64);
            assert!((0..100).all(|_| table.pick(&mut rng) as usize == users - 1));
        }
        // The same with the weight spread over the last bucket's users.
        let mut w = vec![0.0; 400];
        w[396..].copy_from_slice(&[1.0, 0.0, 3.0, 0.5]);
        assert_matches_oracle(&w).unwrap();
    }

    #[test]
    fn pick_is_one_draw_and_tracks_the_weights() {
        let table = table_of(&[1.0, 0.0, 2.0, 1.0]);
        let (mut a, mut b) = (SmallRng::seed_from_u64(3), SmallRng::seed_from_u64(3));
        let mut hits = [0u32; 4];
        for _ in 0..40_000 {
            let needle = b.gen_range(0.0..4.0);
            let user = table.pick(&mut a);
            assert_eq!(user, oracle(&table, needle), "same single draw");
            hits[user as usize] += 1;
        }
        assert_eq!(hits[1], 0);
        assert!((19_000..21_000).contains(&hits[2]), "{hits:?}");
    }

    /// `resolve` over `needles`, as a sorted multiset of user ids.
    fn resolved(table: &CumulativeTable, needles: &[f64]) -> Vec<u32> {
        let mut scratch = vec![0.0; needles.len()];
        let mut ids = Vec::with_capacity(needles.len());
        table.resolve(needles, &mut scratch, |id| ids.push(id));
        ids.sort_unstable();
        ids
    }

    proptest! {
        #[test]
        fn resolve_yields_the_oracle_multiset(w in weights(2..400), seed in 0u64..1_000) {
            let table = table_of(&w);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut needles = edge_needles(&table);
            // The top needle, which can round into the clamped last slice.
            needles.push(table.total.next_down());
            needles.extend((0..256).map(|_| table.draw(&mut rng)));
            let mut want: Vec<u32> = needles.iter().map(|&n| oracle(&table, n)).collect();
            want.sort_unstable();
            prop_assert_eq!(resolved(&table, &needles), want);
        }
    }

    #[test]
    fn draw_then_resolve_is_pick() {
        // The same stream split in two: `draw` makes `pick`'s one draw.
        let table = table_of(&[1.0, 0.0, 2.0, 1.0, 5.0, 0.25]);
        let (mut a, mut b) = (SmallRng::seed_from_u64(9), SmallRng::seed_from_u64(9));
        let mut picked: Vec<u32> = (0..5_000).map(|_| table.pick(&mut a)).collect();
        let needles: Vec<f64> = (0..5_000).map(|_| table.draw(&mut b)).collect();
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams stay in step");
        picked.sort_unstable();
        assert_eq!(resolved(&table, &needles), picked);
        // An empty batch resolves to nothing.
        assert!(resolved(&table, &[]).is_empty());
    }

    #[test]
    fn the_top_needle_stays_in_the_last_slice() {
        // Whatever the total, the largest needle below it maps to the last
        // slice; at a total of 0.9 the product rounds up to the slice count
        // and only the clamp keeps it in range.
        let mut clamped = 0;
        for total in [
            0.9,
            1.0,
            3.0,
            7.0,
            0.1,
            1e-300,
            1e300,
            12_345.678,
            2f64.powi(40) - 1.0,
        ] {
            let scale = RESOLVE_SLICES as f64 / total;
            let needle = f64::next_down(total);
            clamped += usize::from((needle * scale) as usize >= RESOLVE_SLICES);
            assert_eq!(
                slice_of(needle, scale),
                RESOLVE_SLICES - 1,
                "total {total:e}"
            );
            assert_eq!(slice_of(0.0, scale), 0);
        }
        assert!(clamped > 0, "no total exercised the clamp");
    }

    #[test]
    #[should_panic]
    fn resolve_needs_scratch_for_every_needle() {
        let table = table_of(&[1.0, 2.0]);
        table.resolve(&[0.5, 1.5], &mut [0.0], |_| {});
    }

    #[test]
    fn guide_is_counted_in_heap_bytes() {
        let table = table_of(&[1.0; 64]);
        assert_eq!(table.guide.len(), 64 / ENTRIES_PER_BUCKET);
        assert_eq!(table.heap_bytes(), 64 * 8 + 16 * 4);
    }

    #[test]
    #[should_panic(expected = "every user is inactive")]
    fn all_inactive_population_is_rejected() {
        table_of(&[0.0, 0.0, 0.0]);
    }
}
