//! A reusable fixed-capacity bitset for per-day distinct-user tracking.
//!
//! The generator needs "how many distinct users were active today" for
//! every day of a study. A `HashSet<u32>` answers that but reallocates
//! and rehashes across days and is exactly the container class the
//! determinism lint exists to keep out of hot paths. This bitset is
//! sized once to the user population, clears in `O(words)` without
//! releasing its allocation, and iterates nothing — membership count is
//! maintained on insert.

/// Fixed-capacity set of `u32` ids in `[0, capacity)`.
#[derive(Clone, Debug)]
pub struct FixedBitset {
    words: Vec<u64>,
    capacity: usize,
    ones: usize,
}

impl FixedBitset {
    /// Creates an empty set able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        FixedBitset {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            ones: 0,
        }
    }

    /// Inserts `id`, returning `true` when it was not already present.
    ///
    /// # Panics
    /// Panics if `id` is outside the fixed capacity.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        assert!(
            (id as usize) < self.capacity,
            "id {id} out of bitset capacity {}",
            self.capacity
        );
        let word = &mut self.words[id as usize / 64];
        let bit = 1u64 << (id % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.ones += fresh as usize;
        fresh
    }

    /// True when `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.words
            .get(id as usize / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Number of ids currently in the set.
    pub fn len(&self) -> usize {
        self.ones
    }

    /// True when no ids are set.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Largest id the set can hold plus one.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Empties the set, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Bytes of heap + inline storage (replay memory accounting).
    pub fn tracked_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_freshness() {
        let mut s = FixedBitset::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(s.insert(64));
        assert!(!s.insert(0));
        assert!(!s.insert(129));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = FixedBitset::new(1000);
        for i in 0..1000 {
            s.insert(i);
        }
        assert_eq!(s.len(), 1000);
        let bytes = s.tracked_bytes();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.tracked_bytes(), bytes);
        assert!(s.insert(999));
    }

    #[test]
    fn zero_capacity_is_fine() {
        let s = FixedBitset::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }

    #[test]
    #[should_panic(expected = "out of bitset capacity")]
    fn out_of_range_insert_panics() {
        FixedBitset::new(64).insert(64);
    }
}
