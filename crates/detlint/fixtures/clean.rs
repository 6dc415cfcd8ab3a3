//! detlint fixture: zero findings — near misses for every rule.

use std::collections::{BTreeMap, HashMap};

/// BTreeMap iteration is ordered: fine.
/// (Named `bt`, not `m`: binding tracking is file-scoped, and `m` names
/// a HashMap in the functions below.)
fn ordered_sum(bt: &BTreeMap<u64, f64>) -> f64 {
    bt.values().sum::<f64>()
}

/// Lookups and inserts on a HashMap never observe order: fine.
fn count(m: &mut HashMap<u64, u64>, k: u64) {
    *m.entry(k).or_insert(0) += 1;
    let _ = m.get(&k);
}

/// The sorted-collect escape: order restored before use.
fn sorted_keys(m: &HashMap<u64, u64>) -> Vec<u64> {
    let mut keys: Vec<u64> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}

/// Collecting into an ordered container restores order too.
fn as_btree(m: &HashMap<u64, u64>) -> BTreeMap<u64, u64> {
    m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u64, u64>>()
}

/// Seeded RNG is the required idiom, not ambient RNG.
fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Hazard names inside strings and comments are not code.
fn doc() -> &'static str {
    // Instant::now() thread_rng() unsafe todo! — just a comment
    "Instant::now() thread_rng() unsafe todo! SystemTime"
}

#[cfg(test)]
mod tests {
    /// todo! is tolerated in test-only code while a suite is built out.
    fn wip() {
        todo!()
    }
}
