//! Extension hot-path intersection kernels.
//!
//! Fractal's DFS spends nearly all of its time intersecting sorted
//! adjacency lists to compute valid extensions (§3, Fig. 7; the KClist
//! enumerator of Appendix B is repeated candidate-set intersection). This
//! module concentrates those inner loops into one tuned layer:
//!
//! - **sorted-merge** — the classic two-pointer merge, best when the two
//!   lists have comparable lengths;
//! - **galloping** — exponential search of each element of the smaller
//!   list inside the larger one, best when the lengths are skewed
//!   (`|large| / |small| ≥` [`GALLOP_RATIO`]): cost is
//!   `O(|small| · log |large|)` instead of `O(|small| + |large|)`;
//! - **bitset** — mark the smaller list in a word-level bitset over the
//!   vertex universe, probe the larger list branch-free, then clear only
//!   the marked words. Engages for long, similar-length lists
//!   (`|small| ≥` [`BITSET_MIN`]) where the merge loop's compare branches
//!   mispredict; requires per-core scratch and therefore lives on
//!   [`ExtensionKernels`].
//!
//! The crossover between the three paths is decided per call from the
//! relative set sizes; every invocation is tallied into [`KernelCounters`]
//! (per-path call counts, elements scanned, arena high-water mark) so the
//! heuristic stays observable through the flight recorder and the CI perf
//! gate.
//!
//! Matching orders (pattern-induced extension and counting plans) and
//! vertex-induced extension use no kernel here: they scan neighbour slices
//! trimmed to their bounds by [`seek_above`] and [`seek_below`] and test
//! each element against per-vertex marks (`fractal_pattern::plan::Marks`).
//!
//! Candidate sets themselves live in a per-core bump arena
//! ([`ExtensionKernels`] level stack): DFS levels are strictly nested, so
//! a level is one contiguous arena region and push/pop is a truncation —
//! no per-extension `Vec` allocation. The arena is worker-local scratch
//! only: a stolen task re-derives its candidate stack from the
//! from-scratch prefix (`SubgraphEnumerator::rebuild`), so arenas never
//! travel in steal messages.

/// Size ratio at which the galloping path takes over from sorted-merge.
pub const GALLOP_RATIO: usize = 16;

/// Minimum smaller-list length for the bitset path (below it, marking
/// overhead dominates).
pub const BITSET_MIN: usize = 64;

/// Counters describing kernel-path activity since the last drain.
///
/// `elements_scanned` counts every element the kernels looked at (merge
/// pointer advances, gallop probes, bitset marks + probes) — the
/// deterministic work metric the CI perf gate compares across commits.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Sorted-merge intersections performed.
    pub merge_calls: u64,
    /// Galloping intersections performed.
    pub gallop_calls: u64,
    /// Bitset (mark/probe) intersections performed.
    pub bitset_calls: u64,
    /// Total elements scanned across all kernel invocations.
    pub elements_scanned: u64,
    /// Peak resident bytes of the candidate-set arena (+ scratch).
    pub arena_high_water_bytes: u64,
}

impl KernelCounters {
    /// Total kernel invocations across the three paths.
    pub fn calls(&self) -> u64 {
        self.merge_calls + self.gallop_calls + self.bitset_calls
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.calls() == 0 && self.elements_scanned == 0 && self.arena_high_water_bytes == 0
    }

    /// Folds `other` into `self` (counts add, high-water maxes).
    pub fn absorb(&mut self, other: &KernelCounters) {
        self.merge_calls += other.merge_calls;
        self.gallop_calls += other.gallop_calls;
        self.bitset_calls += other.bitset_calls;
        self.elements_scanned += other.elements_scanned;
        self.arena_high_water_bytes = self
            .arena_high_water_bytes
            .max(other.arena_high_water_bytes);
    }

    /// Drains the counters: returns the current values and zeroes `self`.
    pub fn take(&mut self) -> KernelCounters {
        std::mem::take(self)
    }
}

/// The subslice of a sorted list whose elements are strictly greater than
/// `lo` — the lower-bound filter of the matching-order candidate step, used
/// for `must_be_greater_than` symmetry bounds.
#[inline]
pub fn seek_above(list: &[u32], lo: u32) -> &[u32] {
    &list[list.partition_point(|&x| x <= lo)..]
}

/// The subslice of a sorted list whose elements are strictly smaller than
/// `hi` — the upper-bound counterpart of [`seek_above`], used by the
/// matching-order candidate step for `must_be_less_than` symmetry bounds.
#[inline]
pub fn seek_below(list: &[u32], hi: u32) -> &[u32] {
    &list[..list.partition_point(|&x| x < hi)]
}

/// Adaptive sorted-set intersection of `a` and `b` into `out` (cleared
/// first). Picks merge or gallop from the length ratio; the bitset path
/// needs scratch and is only reachable through [`ExtensionKernels`].
pub fn intersect(a: &[u32], b: &[u32], out: &mut Vec<u32>, c: &mut KernelCounters) {
    out.clear();
    let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if s.is_empty() {
        return;
    }
    if l.len() / s.len() >= GALLOP_RATIO {
        gallop_into(s, l, out, c);
    } else {
        merge_into(s, l, out, c);
    }
}

/// Two-pointer sorted-merge intersection (exposed for tests/benches; use
/// [`intersect`] for the adaptive entry point).
pub fn merge_into(a: &[u32], b: &[u32], out: &mut Vec<u32>, c: &mut KernelCounters) {
    c.merge_calls += 1;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    c.elements_scanned += (i + j) as u64;
}

/// Galloping intersection: for each element of `small`, exponential +
/// binary search inside `large`, resuming where the previous search ended
/// (exposed for tests/benches; use [`intersect`] for the adaptive entry
/// point).
pub fn gallop_into(small: &[u32], large: &[u32], out: &mut Vec<u32>, c: &mut KernelCounters) {
    c.gallop_calls += 1;
    let mut from = 0usize;
    let mut probes = 0u64;
    for &x in small {
        // Exponential probe: find a window [from+step/2, from+step] whose
        // upper end reaches x.
        let mut step = 1usize;
        while from + step < large.len() && large[from + step] < x {
            step <<= 1;
            probes += 1;
        }
        let hi = (from + step + 1).min(large.len());
        // Binary search for the first element >= x inside the window.
        let idx = from + large[from..hi].partition_point(|&y| y < x);
        probes += (hi - from).max(1).ilog2() as u64 + 1;
        if idx < large.len() && large[idx] == x {
            out.push(x);
            from = idx + 1;
        } else {
            from = idx;
        }
        if from >= large.len() {
            break;
        }
    }
    c.elements_scanned += small.len() as u64 + probes;
}

/// Streams one sorted adjacency slice (`nbrs` with parallel edge ids
/// `eids`) through vertex/edge renumbering maps, keeping pairs whose
/// mapped ids are live (`!= u32::MAX`). This is the map-probe kernel the
/// graph-reduction pass (§4.3) builds its compact CSR with: both
/// renumberings are monotone, so the output stays sorted and no
/// per-neighborhood permutation sort is needed.
pub fn retain_mapped(
    nbrs: &[u32],
    eids: &[u32],
    vmap: &[u32],
    emap: &[u32],
    out_v: &mut Vec<u32>,
    out_e: &mut Vec<u32>,
    c: &mut KernelCounters,
) {
    debug_assert_eq!(nbrs.len(), eids.len());
    c.bitset_calls += 1;
    c.elements_scanned += nbrs.len() as u64;
    for (&u, &e) in nbrs.iter().zip(eids.iter()) {
        let nv = vmap[u as usize];
        let ne = emap[e as usize];
        if nv != u32::MAX && ne != u32::MAX {
            out_v.push(nv);
            out_e.push(ne);
        }
    }
}

/// Collects the edges connecting a new vertex (sorted adjacency `nbrs`
/// with parallel edge ids `eids`) to the members of the current subgraph it
/// is adjacent to — the inner loop of vertex-induced growth
/// (`Subgraph::push_vertex_induced`).
///
/// `mask` names those members by position in `members` (bit `p` set: the
/// vertex is adjacent to `members[p]`); whoever found the vertex already
/// knows it (the enumerator's marks hold every member list it sits in),
/// so nothing is searched for here that could be absent: each named member
/// is binary-probed into the adjacency for its edge id. Emits
/// `(edge id, position in members of the edge's other endpoint)` in
/// ascending adjacency position and returns the number of edges emitted.
pub fn collect_induced_edges(
    nbrs: &[u32],
    eids: &[u32],
    members: &[u32],
    mask: u32,
    mut emit: impl FnMut(u32, usize),
) -> u32 {
    debug_assert_eq!(nbrs.len(), eids.len());
    let mut hits = [(0u32, 0u32, 0usize); u32::BITS as usize];
    let mut nh = 0;
    let mut rest = mask;
    while rest != 0 {
        let at = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        // panic-ok: the mask is the enumerator's own record of which member
        // lists held this vertex; a named member missing from the vertex's
        // adjacency is a corrupted word and must not yield a subgraph.
        let pos = nbrs
            .binary_search(&members[at])
            .expect("adjacency mask names a non-adjacent member");
        hits[nh] = (pos as u32, eids[pos], at);
        nh += 1;
    }
    hits[..nh].sort_unstable();
    for &(_, e, at) in &hits[..nh] {
        emit(e, at);
    }
    nh as u32
}

/// Per-core kernel state: the bump-arena candidate-set stack, the bitset
/// scratch for the mark/probe path, and the accumulated counters.
///
/// One instance lives inside each enumerator clone (one per core); it is
/// **never** shipped with stolen work — a thief rebuilds its own stack by
/// replaying the stolen prefix, and [`reset_levels`](Self::reset_levels)
/// keeps the allocations warm across units.
#[derive(Debug, Default, Clone)]
pub struct ExtensionKernels {
    /// Accumulated path counters, drained by the runtime per work unit.
    counters: KernelCounters,
    /// Vertex-universe size the bitset scratch covers (0 = path disabled).
    universe: usize,
    /// Bitset scratch words (`universe / 64` once sized).
    bits: Vec<u64>,
    /// Bump arena holding all live candidate sets, contiguously.
    arena: Vec<u32>,
    /// Start offset of each live level inside `arena`.
    marks: Vec<usize>,
}

impl ExtensionKernels {
    /// Fresh state with the bitset path disabled until
    /// [`ensure_universe`](Self::ensure_universe) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the bitset scratch to cover ids `0..n`. Idempotent and cheap
    /// when already large enough.
    pub fn ensure_universe(&mut self, n: usize) {
        if n > self.universe {
            self.universe = n;
            self.bits.resize(n.div_ceil(64), 0);
        }
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &KernelCounters {
        &self.counters
    }

    /// Drains the counters (stamping the current arena high-water mark).
    pub fn take_counters(&mut self) -> KernelCounters {
        self.note_high_water();
        self.counters.take()
    }

    /// Resident bytes of the arena + scratch buffers.
    pub fn resident_bytes(&self) -> usize {
        self.arena.capacity() * 4
            + self.bits.capacity() * 8
            + self.marks.capacity() * std::mem::size_of::<usize>()
    }

    fn note_high_water(&mut self) {
        let bytes = self.resident_bytes() as u64;
        if bytes > self.counters.arena_high_water_bytes {
            self.counters.arena_high_water_bytes = bytes;
        }
    }

    // ---- candidate-set level stack (bump arena) ----

    /// Number of live levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.marks.len()
    }

    /// The top (deepest) candidate set.
    #[inline]
    pub fn top(&self) -> &[u32] {
        // panic-ok: callers never read top() of an empty stack — a level is
        // pushed before any read (enumerator recursion invariant).
        let lo = *self.marks.last().expect("no live level");
        &self.arena[lo..]
    }

    /// Opens a new level initialized with a copy of `src`.
    pub fn push_level_copy(&mut self, src: &[u32]) {
        self.marks.push(self.arena.len());
        self.arena.extend_from_slice(src);
        self.note_high_water();
    }

    /// Opens a new level holding `top() ∩ other`, choosing the kernel path
    /// adaptively. The parent level is read in place while the result is
    /// bump-allocated behind it.
    pub fn push_level_intersect(&mut self, other: &[u32]) {
        // panic-ok: intersect is only called with a parent level open;
        // enforced by the enumerator's push/pop pairing.
        let plo = *self.marks.last().expect("no parent level");
        let phi = self.arena.len();
        self.marks.push(phi);
        let (slen, llen) = ((phi - plo).min(other.len()), (phi - plo).max(other.len()));
        if slen == 0 {
            return;
        }
        if llen / slen >= GALLOP_RATIO {
            self.gallop_parent(plo, phi, other);
        } else if slen >= BITSET_MIN && self.fits_universe(phi - plo, other) {
            self.bitset_parent(plo, phi, other);
        } else {
            self.merge_parent(plo, phi, other);
        }
        self.note_high_water();
    }

    /// Closes the top level, reclaiming its arena region.
    pub fn pop_level(&mut self) {
        // panic-ok: pop pairs a prior push in the same recursion; underflow is
        // a kernel bug that must abort the count.
        let lo = self.marks.pop().expect("pop on empty level stack");
        self.arena.truncate(lo);
    }

    /// Drops all levels (keeps capacity warm). Called when a stolen unit's
    /// prefix is about to be replayed from scratch.
    pub fn reset_levels(&mut self) {
        self.marks.clear();
        self.arena.clear();
    }

    fn fits_universe(&self, parent_len: usize, other: &[u32]) -> bool {
        if self.universe == 0 {
            return false;
        }
        let pmax = if parent_len == 0 {
            0
        } else {
            self.arena[self.arena.len() - 1]
        };
        let omax = other.last().copied().unwrap_or(0);
        (pmax.max(omax) as usize) < self.universe
    }

    /// Merge path over an arena parent: reads `arena[plo..phi]` by index
    /// while pushing behind `phi` (pushes may reallocate, so no borrows are
    /// held across them).
    fn merge_parent(&mut self, plo: usize, phi: usize, other: &[u32]) {
        self.counters.merge_calls += 1;
        let (mut i, mut j) = (plo, 0usize);
        while i < phi && j < other.len() {
            let x = self.arena[i];
            match x.cmp(&other[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    self.arena.push(x);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.counters.elements_scanned += (i - plo + j) as u64;
    }

    /// Gallop path over an arena parent: searches the smaller side's
    /// elements inside the larger side.
    fn gallop_parent(&mut self, plo: usize, phi: usize, other: &[u32]) {
        let parent_len = phi - plo;
        if parent_len <= other.len() {
            // Parent is small: gallop each parent element through `other`.
            self.counters.gallop_calls += 1;
            let mut from = 0usize;
            let mut probes = 0u64;
            for i in plo..phi {
                let x = self.arena[i];
                let mut step = 1usize;
                while from + step < other.len() && other[from + step] < x {
                    step <<= 1;
                    probes += 1;
                }
                let hi = (from + step + 1).min(other.len());
                let idx = from + other[from..hi].partition_point(|&y| y < x);
                probes += (hi - from).max(1).ilog2() as u64 + 1;
                if idx < other.len() && other[idx] == x {
                    self.arena.push(x);
                    from = idx + 1;
                } else {
                    from = idx;
                }
                if from >= other.len() {
                    break;
                }
            }
            self.counters.elements_scanned += parent_len as u64 + probes;
        } else {
            // `other` is small: gallop its elements through the parent
            // region (index-based binary searches into the arena).
            self.counters.gallop_calls += 1;
            let mut from = plo;
            let mut probes = 0u64;
            for &x in other {
                let mut step = 1usize;
                while from + step < phi && self.arena[from + step] < x {
                    step <<= 1;
                    probes += 1;
                }
                let hi = (from + step + 1).min(phi);
                let idx = from + self.arena[from..hi].partition_point(|&y| y < x);
                probes += (hi - from).max(1).ilog2() as u64 + 1;
                if idx < phi && self.arena[idx] == x {
                    self.arena.push(x);
                    from = idx + 1;
                } else {
                    from = idx;
                }
                if from >= phi {
                    break;
                }
            }
            self.counters.elements_scanned += other.len() as u64 + probes;
        }
    }

    /// Bitset path over an arena parent: mark the smaller side, probe the
    /// larger side (branch-free word tests), clear only the marked bits.
    fn bitset_parent(&mut self, plo: usize, phi: usize, other: &[u32]) {
        self.counters.bitset_calls += 1;
        let parent_len = phi - plo;
        if parent_len <= other.len() {
            for i in plo..phi {
                let v = self.arena[i] as usize;
                self.bits[v >> 6] |= 1 << (v & 63);
            }
            for &u in other {
                if self.bits[(u as usize) >> 6] >> (u & 63) & 1 == 1 {
                    self.arena.push(u);
                }
            }
            for i in plo..phi {
                let v = self.arena[i] as usize;
                self.bits[v >> 6] &= !(1 << (v & 63));
            }
            self.counters.elements_scanned += (2 * parent_len + other.len()) as u64;
        } else {
            for &u in other {
                self.bits[(u as usize) >> 6] |= 1 << (u & 63);
            }
            for i in plo..phi {
                let v = self.arena[i];
                if self.bits[(v as usize) >> 6] >> (v & 63) & 1 == 1 {
                    self.arena.push(v);
                }
            }
            for &u in other {
                self.bits[(u as usize) >> 6] &= !(1 << (u & 63));
            }
            self.counters.elements_scanned += (2 * other.len() + parent_len) as u64;
        }
    }

    /// Bitset intersection of two flat slices (`s` marked, `l` probed);
    /// exposed for direct testing of the path.
    pub fn bitset_into(&mut self, s: &[u32], l: &[u32], out: &mut Vec<u32>) {
        assert!(
            s.last().max(l.last()).map_or(0, |&m| m as usize) < self.universe,
            "bitset path requires ensure_universe over all ids"
        );
        self.counters.bitset_calls += 1;
        for &v in s {
            self.bits[(v as usize) >> 6] |= 1 << (v & 63);
        }
        for &u in l {
            if self.bits[(u as usize) >> 6] >> (u & 63) & 1 == 1 {
                out.push(u);
            }
        }
        for &v in s {
            self.bits[(v as usize) >> 6] &= !(1 << (v & 63));
        }
        self.counters.elements_scanned += (2 * s.len() + l.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter()
            .copied()
            .filter(|x| b.binary_search(x).is_ok())
            .collect()
    }

    fn sets() -> Vec<(Vec<u32>, Vec<u32>)> {
        vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![1, 5, 9], vec![5]),
            (vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7, 9]),
            (vec![0, 1, 2, 3], vec![0, 1, 2, 3]),
            ((0..200).collect(), (0..400).step_by(3).collect()),
            (vec![7, 700], (0..1000).collect()),
        ]
    }

    #[test]
    fn all_paths_agree_with_naive() {
        let mut out = Vec::new();
        let mut c = KernelCounters::default();
        let mut k = ExtensionKernels::new();
        k.ensure_universe(1024);
        for (a, b) in sets() {
            let want = naive(&a, &b);
            intersect(&a, &b, &mut out, &mut c);
            assert_eq!(out, want, "adaptive {a:?} {b:?}");
            out.clear();
            merge_into(&a, &b, &mut out, &mut c);
            assert_eq!(out, want, "merge {a:?} {b:?}");
            out.clear();
            if a.len() <= b.len() {
                gallop_into(&a, &b, &mut out, &mut c);
            } else {
                gallop_into(&b, &a, &mut out, &mut c);
            }
            assert_eq!(out, want, "gallop {a:?} {b:?}");
            out.clear();
            if a.len() <= b.len() {
                k.bitset_into(&a, &b, &mut out);
            } else {
                k.bitset_into(&b, &a, &mut out);
            }
            assert_eq!(out, want, "bitset {a:?} {b:?}");
        }
        assert!(c.calls() > 0 && c.elements_scanned > 0);
    }

    #[test]
    fn seek_above_starts_past_the_bound() {
        let a: Vec<u32> = (0..100).collect();
        assert_eq!(seek_above(&a, 97), &[98, 99]);
        assert!(seek_above(&a, 99).is_empty());
    }

    #[test]
    fn seek_below_truncates_at_bound() {
        let a: Vec<u32> = vec![2, 5, 8, 11];
        assert_eq!(seek_below(&a, 8), &[2, 5]);
        assert_eq!(seek_below(&a, 9), &[2, 5, 8]);
        assert_eq!(seek_below(&a, 100), &a[..]);
        assert!(seek_below(&a, 2).is_empty());
        assert!(seek_below(&a, 0).is_empty());
        // Above + below compose into an open interval.
        assert_eq!(seek_below(seek_above(&a, 2), 11), &[5, 8]);
    }

    #[test]
    fn arena_levels_nest_and_reset() {
        let mut k = ExtensionKernels::new();
        k.ensure_universe(64);
        k.push_level_copy(&[1, 2, 3, 5, 8]);
        assert_eq!(k.top(), &[1, 2, 3, 5, 8]);
        k.push_level_intersect(&[2, 3, 4, 8]);
        assert_eq!(k.top(), &[2, 3, 8]);
        k.push_level_intersect(&[8]);
        assert_eq!(k.top(), &[8]);
        assert_eq!(k.depth(), 3);
        k.pop_level();
        assert_eq!(k.top(), &[2, 3, 8]);
        k.push_level_intersect(&[]);
        assert!(k.top().is_empty());
        k.reset_levels();
        assert_eq!(k.depth(), 0);
        let c = k.take_counters();
        assert!(c.arena_high_water_bytes > 0);
        assert!(k.counters().is_empty());
    }

    #[test]
    fn arena_intersect_matches_naive_on_random_chains() {
        // Pseudo-random sorted sets via a fixed LCG; compare the arena
        // chain against naive progressive intersection.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for trial in 0..50 {
            let mut k = ExtensionKernels::new();
            k.ensure_universe(2048);
            let mk = |next: &mut dyn FnMut(u32) -> u32| {
                let len = next(300) as usize;
                let mut v: Vec<u32> = (0..len).map(|_| next(2048)).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let base = mk(&mut next);
            k.push_level_copy(&base);
            let mut want = base.clone();
            for _ in 0..4 {
                let other = mk(&mut next);
                k.push_level_intersect(&other);
                want.retain(|x| other.binary_search(x).is_ok());
                assert_eq!(k.top(), &want[..], "trial {trial}");
            }
        }
    }

    #[test]
    fn retain_mapped_keeps_live_pairs_sorted() {
        // vmap keeps vertices 2,4,6 -> 0,1,2; emap keeps edges 1,3 -> 0,1.
        let mut vmap = vec![u32::MAX; 8];
        vmap[2] = 0;
        vmap[4] = 1;
        vmap[6] = 2;
        let mut emap = vec![u32::MAX; 5];
        emap[1] = 0;
        emap[3] = 1;
        let nbrs = [1, 2, 4, 6];
        let eids = [0, 1, 3, 4];
        let (mut ov, mut oe) = (Vec::new(), Vec::new());
        let mut c = KernelCounters::default();
        retain_mapped(&nbrs, &eids, &vmap, &emap, &mut ov, &mut oe, &mut c);
        assert_eq!(ov, vec![0, 1]);
        assert_eq!(oe, vec![0, 1]);
        assert_eq!(c.elements_scanned, 4);
        assert_eq!(c.bitset_calls, 1);
    }

    #[test]
    fn counters_absorb_and_take() {
        let mut a = KernelCounters {
            merge_calls: 1,
            gallop_calls: 2,
            bitset_calls: 3,
            elements_scanned: 10,
            arena_high_water_bytes: 100,
        };
        let b = KernelCounters {
            merge_calls: 1,
            arena_high_water_bytes: 50,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.merge_calls, 2);
        assert_eq!(a.calls(), 7);
        assert_eq!(a.arena_high_water_bytes, 100);
        let taken = a.take();
        assert_eq!(taken.calls(), 7);
        assert!(a.is_empty());
    }
}
