//! A content-addressed, byte-budgeted store: the policy shared by the
//! compile cache and the elaboration memo.
//!
//! * **Keys** are SHA-256 digests ([`crate::sha256`]) of everything the
//!   stored value depends on, so a value is served only on an exact match.
//! * **Admission.** A doorkeeper ring remembers the last
//!   [`DOORKEEPER_LEN`] digests that missed (their first 64 bits). A lookup
//!   that misses while its digest is still in the ring says to admit the
//!   value, so a stream of one-off inputs stores nothing.
//! * **Budget.** Each value is stored with the bytes it counts against the
//!   budget; the least recently used values are evicted first once an
//!   insert would exceed it, and a value larger than the whole budget is
//!   never stored.
//! * **Locking.** One mutex guards the store; it is held for a lookup or
//!   an insert only, never while the caller computes or decodes a value.

use crate::sha256::Digest;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// The byte budget of the process-wide stores: 2 MiB each.
pub const BUDGET: usize = 2 << 20;

/// How many recent missed digests the doorkeeper remembers.
pub const DOORKEEPER_LEN: usize = 4096;

/// What a [`Store::lookup`] found.
pub enum Lookup<V> {
    /// The stored value.
    Hit(Arc<V>),
    /// Not stored; `admit` says the doorkeeper has seen the digest miss
    /// before, so the caller should [`Store::insert`] the value it computes.
    Miss {
        /// Whether to store the computed value.
        admit: bool,
    },
}

struct Inner<V> {
    /// Stored values, their size in bytes and their last-use tick.
    entries: HashMap<Digest, (Arc<V>, usize, u64)>,
    /// Last-use tick → digest, oldest first.
    lru: BTreeMap<u64, Digest>,
    tick: u64,
    bytes: usize,
    /// The doorkeeper: the first 64 bits of the last [`DOORKEEPER_LEN`]
    /// missed digests, overwritten oldest first from `ring_next`. A false
    /// match only admits a value one sighting early, so the prefix needs
    /// no collision resistance, and a fixed 32 KiB scanned per miss never
    /// grows or rehashes.
    ring: Vec<u64>,
    ring_next: usize,
}

impl<V> Inner<V> {
    /// Records a use of `digest` now; returns its new tick.
    fn stamp(&mut self, digest: &Digest) -> u64 {
        self.tick += 1;
        self.lru.insert(self.tick, *digest);
        self.tick
    }
}

/// A content-addressed store of `V`s under a byte budget (see the
/// [module docs](self)).
pub struct Store<V> {
    budget: usize,
    inner: Mutex<Inner<V>>,
}

impl<V> Store<V> {
    /// An empty store holding at most `budget` bytes.
    pub fn new(budget: usize) -> Self {
        Store {
            budget,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                bytes: 0,
                ring: Vec::new(),
                ring_next: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner
            .lock()
            .expect("only a broken store invariant panics under the lock")
    }

    /// Looks `digest` up: a hit marks the value most recently used; a miss
    /// enters the doorkeeper and says whether to admit the value.
    pub fn lookup(&self, digest: &Digest) -> Lookup<V> {
        let mut s = self.lock();
        if let Some(&(ref value, _, old)) = s.entries.get(digest) {
            let value = Arc::clone(value);
            s.lru.remove(&old);
            let now = s.stamp(digest);
            s.entries.get_mut(digest).expect("just found").2 = now;
            return Lookup::Hit(value);
        }
        let prefix = u64::from_le_bytes(digest[..8].try_into().expect("8 of 32 bytes"));
        if s.ring.contains(&prefix) {
            return Lookup::Miss { admit: true };
        }
        if s.ring.len() < DOORKEEPER_LEN {
            s.ring.push(prefix);
        } else {
            let at = s.ring_next;
            s.ring[at] = prefix;
            s.ring_next = (at + 1) % DOORKEEPER_LEN;
        }
        Lookup::Miss { admit: false }
    }

    /// Stores `value` under `digest`, counting `bytes` against the budget
    /// and evicting least recently used values to make room. A value
    /// larger than the budget, or a digest already stored (another thread
    /// computed the same value meanwhile), stores nothing.
    pub fn insert(&self, digest: Digest, value: V, bytes: usize) {
        if bytes > self.budget {
            return;
        }
        let mut s = self.lock();
        if s.entries.contains_key(&digest) {
            return;
        }
        while s.bytes + bytes > self.budget {
            let (_, victim) = s.lru.pop_first().expect("over budget implies an entry");
            let (_, size, _) = s.entries.remove(&victim).expect("lru names stored entries");
            s.bytes -= size;
        }
        let now = s.stamp(&digest);
        s.bytes += bytes;
        s.entries.insert(digest, (Arc::new(value), bytes, now));
    }

    /// Whether a value is stored under `digest` (without marking it used).
    pub fn contains(&self, digest: &Digest) -> bool {
        self.lock().entries.contains_key(digest)
    }

    /// How many values are stored.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes the stored values count against the budget.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(i: u32) -> Digest {
        let mut d = [0u8; 32];
        d[..4].copy_from_slice(&i.to_le_bytes());
        d
    }

    fn admits<V>(store: &Store<V>, i: u32) -> bool {
        matches!(store.lookup(&digest(i)), Lookup::Miss { admit: true })
    }

    /// The doorkeeper admits a digest's second miss only while the first
    /// is among the last [`DOORKEEPER_LEN`] misses.
    #[test]
    fn doorkeeper_remembers_exactly_the_last_misses() {
        let store: Store<()> = Store::new(BUDGET);
        assert!(!admits(&store, 0));
        for i in 1..DOORKEEPER_LEN as u32 {
            assert!(!admits(&store, i));
        }
        assert!(
            admits(&store, 0),
            "0 is the oldest of the last {DOORKEEPER_LEN}"
        );
        assert!(!admits(&store, DOORKEEPER_LEN as u32), "pushes 0 out");
        assert!(!admits(&store, 0), "forgotten, so a first sighting again");
        assert!(admits(&store, DOORKEEPER_LEN as u32));
        assert!(store.is_empty(), "a lookup stores nothing");
    }

    #[test]
    fn a_hit_returns_the_stored_value_and_a_miss_never_admits_on_first_sight() {
        let store = Store::new(100);
        assert!(!admits(&store, 7));
        store.insert(digest(7), "seven", 10);
        match store.lookup(&digest(7)) {
            Lookup::Hit(v) => assert_eq!(*v, "seven"),
            Lookup::Miss { .. } => panic!("stored"),
        }
        // A second insert under the same digest keeps the first value.
        store.insert(digest(7), "other", 10);
        assert!(matches!(store.lookup(&digest(7)), Lookup::Hit(v) if *v == "seven"));
        assert_eq!((store.len(), store.bytes()), (1, 10));
    }

    #[test]
    fn eviction_is_least_recently_used_first() {
        let store = Store::new(30);
        for i in 0..3 {
            store.insert(digest(i), i, 10);
        }
        // Touch 0: 1 is now the least recently used, then 2.
        assert!(matches!(store.lookup(&digest(0)), Lookup::Hit(_)));
        let stored = |store: &Store<u32>| -> Vec<u32> {
            (0..6).filter(|&i| store.contains(&digest(i))).collect()
        };
        store.insert(digest(3), 3, 10);
        assert_eq!(stored(&store), [0, 2, 3]);
        store.insert(digest(4), 4, 10);
        assert_eq!(stored(&store), [0, 3, 4]);
        // Room for one twice as large evicts the two oldest.
        store.insert(digest(5), 5, 20);
        assert_eq!(stored(&store), [4, 5]);
        assert_eq!(store.bytes(), 30);
    }

    #[test]
    fn the_budget_holds() {
        let store = Store::new(25);
        store.insert(digest(0), 0, 26);
        assert!(store.is_empty(), "larger than the whole budget");
        for i in 1..20 {
            store.insert(digest(i), i, 1 + i as usize % 7);
            assert!(store.bytes() <= 25);
        }
        store.insert(digest(20), 20, 25);
        assert_eq!((store.len(), store.bytes()), (1, 25));
    }
}
