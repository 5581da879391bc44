//! Per-core registries of stealable enumeration levels.
//!
//! The depth-first enumeration "maintains one enumerator per extension
//! level, which can be locked and consumed independently" (§4.2). A
//! [`LevelQueue`] is one such level: the prefix it extends plus a shared
//! [`ExtensionQueue`]. The owning core claims from the **top** (deepest)
//! level — plain DFS — while thieves scan a victim's registry from the
//! **bottom**, stealing the shallowest (largest) remaining subtrees.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::sync::Mutex;
use fractal_enum::ExtensionQueue;
use std::sync::Arc;

/// Identifies one execution core of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalCoreId {
    /// Worker ("machine") index.
    pub worker: usize,
    /// Core index within the worker.
    pub core: usize,
}

impl std::fmt::Display for GlobalCoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}c{}", self.worker, self.core)
    }
}

/// Thief-side claim log of one level: which words left the level through
/// steals, plus the retirement flag that fences new steals off a level
/// whose owning unit failed. Guarded by one mutex so retirement and claim
/// recording cannot interleave (see [`LevelQueue::thief_claim`]).
#[derive(Debug, Default)]
struct StealLog {
    /// Words claimed by thieves (processed-and-committed elsewhere).
    stolen: Vec<u64>,
    /// Once set, thieves refuse the level; set by supervision when the
    /// owning unit is about to be re-executed.
    retired: bool,
}

/// One stealable enumeration level: the word prefix it extends plus the
/// shared claimable extension list.
#[derive(Debug)]
pub struct LevelQueue {
    /// Words (vertices/edges) leading to this level, immutable snapshot.
    pub prefix: Vec<u64>,
    /// The claimable extensions of that prefix.
    pub queue: ExtensionQueue,
    /// Whether this queue's words are pre-counted in the job's `pending`
    /// counter (true only for the root partitions).
    pub counted: bool,
    /// Thief claims + retirement fence (supervised recovery).
    steal_log: Mutex<StealLog>,
}

impl LevelQueue {
    /// Builds a level from its prefix and extension words.
    pub fn new(prefix: Vec<u64>, extensions: Vec<u64>, counted: bool) -> Self {
        LevelQueue {
            prefix,
            queue: ExtensionQueue::new(extensions),
            counted,
            steal_log: Mutex::new(StealLog::default()),
        }
    }

    /// Claims one word on behalf of a *thief*, recording it in the steal
    /// log. Returns `None` when the level is exhausted or retired.
    ///
    /// The log mutex makes claim-vs-retire atomic: a thief claim either
    /// happens before retirement (and is then visible in the collected
    /// exclusion set, so the re-executed unit skips it) or is refused
    /// outright. Owner claims bypass the log — the owner's own progress is
    /// discarded wholesale on failure (staged commits), so it needs no
    /// exclusion accounting.
    pub fn thief_claim(&self) -> Option<u64> {
        let mut log = self.steal_log.lock();
        if log.retired {
            return None;
        }
        let w = self.queue.claim()?;
        log.stolen.push(w);
        Some(w)
    }

    /// Retires the level (no further thief claims) and returns the words
    /// thieves took from it — the replay-exclusion set of the owning
    /// unit's re-execution.
    pub fn retire_collect(&self) -> Vec<u64> {
        let mut log = self.steal_log.lock();
        log.retired = true;
        std::mem::take(&mut log.stolen)
    }

    /// Whether the level has been retired (racy hint for victim scans).
    pub fn is_retired(&self) -> bool {
        self.steal_log.lock().retired
    }

    /// Depth of this level = number of prefix words.
    #[inline]
    pub fn depth(&self) -> usize {
        self.prefix.len()
    }

    /// Approximate resident bytes (prefix + queue).
    pub fn resident_bytes(&self) -> usize {
        self.prefix.capacity() * 8 + self.queue.resident_bytes()
    }
}

/// The shared registry slot of one core: its stack of live levels.
///
/// The owner pushes/pops under a short lock; thieves lock only to clone an
/// `Arc` of a promising level and then claim through the lock-free queue.
#[derive(Debug, Default)]
pub struct CoreSlot {
    levels: Mutex<Vec<Arc<LevelQueue>>>,
}

impl CoreSlot {
    /// Creates an empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a level (owner side).
    pub fn push(&self, level: Arc<LevelQueue>) {
        self.levels.lock().push(level);
    }

    /// Unregisters the top level (owner side).
    pub fn pop(&self) {
        let popped = self.levels.lock().pop();
        debug_assert!(popped.is_some(), "pop on empty level registry");
    }

    /// Finds the shallowest level that still has unclaimed extensions
    /// (thief side). The returned `Arc` stays valid even if the owner pops
    /// the level concurrently.
    pub fn find_stealable(&self) -> Option<Arc<LevelQueue>> {
        let levels = self.levels.lock();
        levels
            .iter()
            .find(|l| l.queue.has_remaining() && !l.is_retired())
            .cloned()
    }

    /// Whether any level currently has unclaimed extensions (racy hint).
    pub fn has_stealable(&self) -> bool {
        self.levels
            .lock()
            .iter()
            .any(|l| l.queue.has_remaining() && !l.is_retired())
    }

    /// Pops and returns the top level (supervision-side cleanup after a
    /// failed unit).
    pub fn pop_top(&self) -> Option<Arc<LevelQueue>> {
        self.levels.lock().pop()
    }

    /// Drains every registered level (dead-core reconciliation).
    pub fn drain_levels(&self) -> Vec<Arc<LevelQueue>> {
        std::mem::take(&mut *self.levels.lock())
    }

    /// Number of live levels (diagnostics).
    pub fn depth(&self) -> usize {
        self.levels.lock().len()
    }

    /// Sum of resident bytes over live levels (memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.levels.lock().iter().map(|l| l.resident_bytes()).sum()
    }
}

/// The registry of all cores of one worker.
#[derive(Debug)]
pub struct WorkerRegistry {
    /// One slot per core of this worker.
    pub slots: Vec<CoreSlot>,
}

impl WorkerRegistry {
    /// Creates a registry with `cores` empty slots.
    pub fn new(cores: usize) -> Self {
        WorkerRegistry {
            slots: (0..cores).map(|_| CoreSlot::new()).collect(),
        }
    }

    /// Scans all cores (starting after `skip`, if given) and picks the best
    /// victim: shallowest level first (largest subtrees), then the most
    /// unclaimed extensions at that depth. Returns `(victim core index,
    /// level)` so callers can attribute the steal (flight-recorder events,
    /// victim statistics).
    ///
    /// Victim scoring uses the clamped racy [`ExtensionQueue::remaining`]
    /// snapshot: it can *overstate* remaining work (owner claims racing the
    /// scan) but never wraps or goes negative, so the worst outcome of a
    /// stale read is one wasted steal attempt on an emptied queue — the
    /// subsequent `claim` simply returns `None` and the thief retries.
    pub fn find_stealable(&self, skip: Option<usize>) -> Option<(usize, Arc<LevelQueue>)> {
        let mut best: Option<(usize, Arc<LevelQueue>, usize, usize)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            if let Some(l) = slot.find_stealable() {
                let (depth, remaining) = (l.depth(), l.queue.remaining());
                let better = match best {
                    None => true,
                    Some((_, _, bd, br)) => depth < bd || (depth == bd && remaining > br),
                };
                if better {
                    best = Some((i, l, depth, remaining));
                }
            }
        }
        best.map(|(i, l, _, _)| (i, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_push_pop() {
        let slot = CoreSlot::new();
        assert_eq!(slot.depth(), 0);
        slot.push(Arc::new(LevelQueue::new(vec![], vec![1, 2], true)));
        slot.push(Arc::new(LevelQueue::new(vec![1], vec![3], false)));
        assert_eq!(slot.depth(), 2);
        slot.pop();
        assert_eq!(slot.depth(), 1);
    }

    #[test]
    fn thief_finds_shallowest() {
        let slot = CoreSlot::new();
        let l0 = Arc::new(LevelQueue::new(vec![], vec![1, 2], true));
        let l1 = Arc::new(LevelQueue::new(vec![1], vec![3], false));
        slot.push(l0.clone());
        slot.push(l1.clone());
        let found = slot.find_stealable().unwrap();
        assert_eq!(found.depth(), 0);
        // Exhaust level 0; now level 1 is the shallowest with work.
        while l0.queue.claim().is_some() {}
        let found = slot.find_stealable().unwrap();
        assert_eq!(found.depth(), 1);
        while l1.queue.claim().is_some() {}
        assert!(slot.find_stealable().is_none());
        assert!(!slot.has_stealable());
    }

    #[test]
    fn steal_survives_owner_pop() {
        let slot = CoreSlot::new();
        let l = Arc::new(LevelQueue::new(vec![7], vec![9], false));
        slot.push(l);
        let stolen = slot.find_stealable().unwrap();
        slot.pop(); // owner finished with the level
                    // The thief's Arc is still valid.
        assert_eq!(stolen.prefix, vec![7]);
        assert_eq!(stolen.queue.claim(), Some(9));
    }

    #[test]
    fn thief_claims_logged_and_fenced_by_retirement() {
        let l = LevelQueue::new(vec![1], vec![10, 20, 30], false);
        // Thief takes one word; owner takes one directly (not logged).
        assert_eq!(l.thief_claim(), Some(10));
        assert_eq!(l.queue.claim(), Some(20));
        // Retirement returns exactly the thief-claimed words…
        let stolen = l.retire_collect();
        assert_eq!(stolen, vec![10]);
        assert!(l.is_retired());
        // …and fences later thief claims even though words remain.
        assert!(l.queue.has_remaining());
        assert_eq!(l.thief_claim(), None);
    }

    #[test]
    fn retired_levels_invisible_to_scans() {
        let slot = CoreSlot::new();
        let l = Arc::new(LevelQueue::new(vec![], vec![1, 2], false));
        slot.push(l.clone());
        assert!(slot.has_stealable());
        l.retire_collect();
        assert!(!slot.has_stealable());
        assert!(slot.find_stealable().is_none());
    }

    #[test]
    fn drain_levels_empties_slot() {
        let slot = CoreSlot::new();
        slot.push(Arc::new(LevelQueue::new(vec![], vec![1], true)));
        slot.push(Arc::new(LevelQueue::new(vec![1], vec![2], false)));
        let drained = slot.drain_levels();
        assert_eq!(drained.len(), 2);
        assert_eq!(slot.depth(), 0);
        assert_eq!(slot.pop_top().map(|_| ()), None);
    }

    #[test]
    fn registry_scan_skips_self() {
        let reg = WorkerRegistry::new(2);
        reg.slots[0].push(Arc::new(LevelQueue::new(vec![], vec![1], true)));
        assert!(reg.find_stealable(Some(0)).is_none());
        let (victim, _) = reg.find_stealable(Some(1)).unwrap();
        assert_eq!(victim, 0);
        assert!(reg.find_stealable(None).is_some());
    }

    #[test]
    fn registry_prefers_shallow_then_fullest() {
        let reg = WorkerRegistry::new(3);
        // Core 0: deep level with lots of work.
        reg.slots[0].push(Arc::new(LevelQueue::new(
            vec![1, 2],
            (0..100).collect(),
            false,
        )));
        // Core 1: shallow level with 2 remaining words.
        reg.slots[1].push(Arc::new(LevelQueue::new(vec![1], vec![5, 6], false)));
        // Core 2: equally shallow level with more remaining words.
        reg.slots[2].push(Arc::new(LevelQueue::new(vec![9], vec![7, 8, 9, 10], false)));
        // Shallow beats deep; at equal depth the larger remaining() wins.
        let (victim, l) = reg.find_stealable(None).unwrap();
        assert_eq!(victim, 2);
        assert_eq!(l.depth(), 1);
        // Drain core 2 down to 1 remaining: core 1 becomes the best victim.
        for _ in 0..3 {
            l.queue.claim();
        }
        let (victim, _) = reg.find_stealable(None).unwrap();
        assert_eq!(victim, 1);
    }
}
