//! Rendezvous (highest-random-weight) hashing of session ids over
//! backend slots.
//!
//! Every `(session, backend)` pair gets a deterministic pseudo-random
//! weight; the session's owner is the backend with the highest weight,
//! its failover successor the second-highest, and so on. The property
//! that matters for a fleet: **membership changes only remap the
//! sessions that ranked the changed backend first.** Removing backend
//! `b` promotes each orphaned session to its *own* second choice —
//! every other session's ranking is untouched, so a crash never
//! triggers a fleet-wide reshuffle the way modulo hashing would.
//!
//! Lives in `iwb-store` (rather than the router) because both ends of
//! the fleet need the same ranking: the router uses it for placement
//! and failover order, and each backend uses it to pick the successor
//! it streams journal replicas to (`iwb_server::repl`). The two sides
//! agreeing on the permutation is what lets the router promote from a
//! replica without asking anyone where it lives.

use crate::fault::fnv1a64;

/// One SplitMix64 scramble — enough avalanche to decorrelate the
/// per-backend weights of similar session ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The rendezvous weight of `key` on backend slot `index`.
pub fn weight(key: &str, index: usize) -> u64 {
    splitmix64(fnv1a64(key.as_bytes()) ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Backend slots `0..n` ranked for `key`, best first. The full ranking
/// (not just the winner) is the failover order: when the owner dies,
/// the session moves to the next-ranked slot with no effect on any
/// session that ranked a different owner first.
pub fn rank(key: &str, n: usize) -> Vec<usize> {
    let mut slots: Vec<usize> = (0..n).collect();
    slots.sort_by_key(|&i| std::cmp::Reverse((weight(key, i), i)));
    slots
}

/// The slots after `from` in `key`'s rank order, wrapping cyclically
/// and leaving `from` out: its replication successor first, then that
/// slot's successor, and so on. This is the order a session's journal
/// streams along, so it is also the router's failover walk — the first
/// slot is where the freshest replica of a session `from` owned lives.
/// Empty when `from` is not a slot of `0..n`.
pub fn successors(key: &str, n: usize, from: usize) -> Vec<usize> {
    let mut order = rank(key, n);
    let Some(pos) = order.iter().position(|&s| s == from) else {
        return Vec::new();
    };
    order.rotate_left(pos + 1);
    order.pop();
    order
}

/// The replication successor of slot `self_index` for `key`: the first
/// of its [`successors`] — the slot the router's failover walk tries
/// first when `self_index` dies, so streaming the journal there keeps a
/// warm replica exactly where promotion will look for it, including
/// after a failover, when the promoted rank\[1\] backend streams onward
/// to rank\[2\].
pub fn successor(key: &str, n: usize, self_index: usize) -> Option<usize> {
    successors(key, n, self_index).first().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor_is_cyclic_next_in_rank_order() {
        let n = 4;
        for i in 0..50 {
            let key = format!("s{i}");
            let order = rank(&key, n);
            for pos in 0..n {
                let walk: Vec<usize> = (1..n).map(|k| order[(pos + k) % n]).collect();
                assert_eq!(
                    successors(&key, n, order[pos]),
                    walk,
                    "{key}: the walk after rank[{pos}] is the rest of the ranking, cyclically"
                );
                assert_eq!(
                    successor(&key, n, order[pos]),
                    Some(order[(pos + 1) % n]),
                    "{key}: successor of rank[{pos}] must be rank[{}]",
                    (pos + 1) % n
                );
            }
        }
        assert_eq!(successor("s1", 1, 0), None, "no successor in a fleet of 1");
        assert!(successors("s1", 3, 7).is_empty(), "out-of-range slot");
        assert_eq!(successor("s1", 3, 7), None, "out-of-range slot");
    }

    #[test]
    fn ranking_is_deterministic_and_total() {
        let a = rank("s42", 5);
        let b = rank("s42", 5);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a permutation of all slots");
    }

    #[test]
    fn keys_spread_across_slots() {
        let n = 4;
        let mut owners = vec![0usize; n];
        for i in 0..400 {
            owners[rank(&format!("s{i}"), n)[0]] += 1;
        }
        for (slot, count) in owners.iter().enumerate() {
            assert!(
                (40..=180).contains(count),
                "slot {slot} owns {count} of 400 — distribution far from uniform: {owners:?}"
            );
        }
    }

    #[test]
    fn removing_a_backend_only_remaps_its_own_sessions() {
        // Simulate losing the last slot by ranking over n-1 slots: the
        // relative order of the surviving slots must be unchanged for
        // every key, so only keys owned by the lost slot move — and
        // they move to their own second choice.
        let n = 5;
        for i in 0..200 {
            let key = format!("s{i}");
            let full = rank(&key, n);
            let survivors: Vec<usize> = full.iter().copied().filter(|&s| s != n - 1).collect();
            assert_eq!(
                survivors,
                rank(&key, n - 1),
                "{key}: surviving order must be stable under membership change"
            );
            if full[0] != n - 1 {
                assert_eq!(full[0], rank(&key, n - 1)[0], "{key}: owner must not move");
            }
        }
    }
}
