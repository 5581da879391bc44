//! Canonical labeling of patterns.
//!
//! Two patterns are isomorphic iff their canonical codes are equal (the
//! paper's `ρ(S)` function, §2.1). The algorithm is a practical canonical
//! labeling in the nauty/bliss family, sized for subgraph templates:
//!
//! 1. **Color refinement** (1-WL): vertices start colored by
//!    `(vertex label, degree)` and are iteratively split by the multiset of
//!    `(edge label, neighbor color)` pairs until stable. Color ids are
//!    assigned by sorting explicit signature vectors, so they are
//!    isomorphism-invariant by construction.
//! 2. **Branch and bound** over orderings that respect the refined color
//!    cells, minimizing a fixed adjacency encoding. The minimal encoding is
//!    the canonical code; the ordering that produced it is the canonical
//!    permutation.
//!
//! The canonical permutation is what lets FSM map an embedding's vertices
//! onto canonical pattern positions for minimum-image support counting.

use crate::Pattern;
use std::collections::HashMap;

/// An isomorphism-invariant encoding of a pattern.
///
/// Layout: `[n, vlabel(0..n) in canonical order, column(1), column(2), …]`
/// where `column(j)` holds, for `i < j`, `edge_label + 1` when canonical
/// vertices `i` and `j` are adjacent and `0` otherwise.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalCode(pub Vec<u32>);

impl CanonicalCode {
    /// Number of vertices of the encoded pattern.
    pub fn num_vertices(&self) -> usize {
        self.0[0] as usize
    }

    /// Reconstructs the pattern this code encodes (canonical vertex order).
    pub fn to_pattern(&self) -> Pattern {
        let n = self.num_vertices();
        let labels = self.0[1..1 + n].to_vec();
        let mut edges = Vec::new();
        let mut idx = 1 + n;
        for j in 1..n {
            for i in 0..j {
                let cell = self.0[idx];
                idx += 1;
                if cell != 0 {
                    edges.push((i as u8, j as u8, cell - 1));
                }
            }
        }
        Pattern::new(labels, edges)
    }
}

impl std::fmt::Display for CanonicalCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C[")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, "]")
    }
}

/// A canonical code together with the permutation that produced it:
/// `perm[original_vertex] = canonical_position`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// The canonical code.
    pub code: CanonicalCode,
    /// Maps each original pattern vertex to its canonical position.
    pub perm: Vec<u8>,
}

/// Runs color refinement; returns one dense, isomorphism-invariant color
/// per vertex (equal colors ⇒ indistinguishable by 1-WL).
pub fn refine_colors(p: &Pattern) -> Vec<u32> {
    let n = p.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    // Round 0: (label, degree) signatures.
    let mut sigs: Vec<Vec<u32>> = (0..n)
        .map(|v| vec![p.vertex_label(v), p.degree(v) as u32])
        .collect();
    let mut colors = dense_ids(&sigs);
    loop {
        let num_colors = 1 + *colors.iter().max().unwrap() as usize;
        if num_colors == n {
            break;
        }
        for v in 0..n {
            let mut nbr_sig: Vec<(u32, u32)> = Vec::with_capacity(p.degree(v));
            for (u, &cu) in colors.iter().enumerate() {
                if p.adjacent(u, v) {
                    nbr_sig.push((p.edge_label(u, v).unwrap_or(0), cu));
                }
            }
            nbr_sig.sort_unstable();
            let mut s = Vec::with_capacity(1 + 2 * nbr_sig.len());
            s.push(colors[v]);
            for (el, c) in nbr_sig {
                s.push(el);
                s.push(c);
            }
            sigs[v] = s;
        }
        let new_colors = dense_ids(&sigs);
        let new_num = 1 + *new_colors.iter().max().unwrap() as usize;
        let stable = new_num == num_colors;
        colors = new_colors;
        if stable {
            break;
        }
    }
    colors
}

/// Assigns dense ids `0..k` to signature vectors by lexicographic order.
fn dense_ids(sigs: &[Vec<u32>]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..sigs.len()).collect();
    order.sort_by(|&a, &b| sigs[a].cmp(&sigs[b]));
    let mut ids = vec![0u32; sigs.len()];
    let mut next = 0u32;
    for w in 0..order.len() {
        if w > 0 && sigs[order[w]] != sigs[order[w - 1]] {
            next += 1;
        }
        ids[order[w]] = next;
    }
    ids
}

/// State for the branch-and-bound canonical ordering search.
struct Search<'a> {
    p: &'a Pattern,
    /// Cell id (refined color) of each vertex.
    colors: Vec<u32>,
    /// Candidate ordering being built: `slot[pos] = original vertex`.
    slot: Vec<u8>,
    used: u32,
    /// Current code prefix (shares layout with `CanonicalCode`).
    cur: Vec<u32>,
    /// Best complete code so far and its ordering.
    best: Option<(Vec<u32>, Vec<u8>)>,
    /// Automorphisms met on the way (`aut[v]` = image of `v`): a leaf
    /// whose code equals the best one is one automorphism away from it.
    auts: Vec<Vec<u8>>,
}

impl Search<'_> {
    fn run(&mut self) {
        let n = self.p.num_vertices();
        let pos = self.slot.len();
        if pos == n {
            match &self.best {
                Some((b, slot)) if self.cur == *b => {
                    let mut aut = vec![0u8; n];
                    for (&from, &to) in slot.iter().zip(&self.slot) {
                        aut[from as usize] = to;
                    }
                    self.auts.push(aut);
                }
                Some((b, _)) if self.cur > *b => {}
                _ => self.best = Some((self.cur.clone(), self.slot.clone())),
            }
            return;
        }
        // Candidates: unused vertices of the smallest eligible cell. All
        // positions in `pos..` must follow cell order, so the next vertex
        // must belong to the minimum color among unused vertices.
        let mut min_color = u32::MAX;
        for v in 0..n {
            if self.used >> v & 1 == 0 {
                min_color = min_color.min(self.colors[v]);
            }
        }
        let mut explored = 0u32;
        for v in 0..n {
            if self.used >> v & 1 == 1 || self.colors[v] != min_color {
                continue;
            }
            // An automorphism fixing the placed vertices that maps an
            // explored sibling onto `v` maps that sibling's orderings onto
            // `v`'s, codes unchanged: nothing below `v` can come first.
            if explored != 0 && self.orbit_of(v) & explored != 0 {
                continue;
            }
            explored |= 1 << v;
            // Append column for position `pos`: vertex label cell was fixed
            // by cell order; adjacency entries vs. earlier positions.
            let checkpoint = self.cur.len();
            for i in 0..pos {
                let u = self.slot[i] as usize;
                let entry = if self.p.adjacent(u, v) {
                    self.p.edge_label(u, v).unwrap_or(0) + 1
                } else {
                    0
                };
                self.cur.push(entry);
            }
            // Prune: compare the appended region against the best code.
            let prune = match &self.best {
                Some((b, _)) => {
                    let region = &self.cur[..];
                    let bregion = &b[..region.len().min(b.len())];
                    region > bregion
                }
                None => false,
            };
            if !prune {
                self.slot.push(v as u8);
                self.used |= 1 << v;
                self.run();
                self.used &= !(1 << v);
                self.slot.pop();
            }
            self.cur.truncate(checkpoint);
        }
    }

    /// `v`'s orbit, as a bit set, under the group the automorphisms met so
    /// far generate once restricted to those fixing every placed vertex.
    fn orbit_of(&self, v: usize) -> u32 {
        let fixing = self
            .auts
            .iter()
            .filter(|aut| self.slot.iter().all(|&u| aut[u as usize] == u));
        let mut orbit = 1u32 << v;
        loop {
            let grown = fixing.clone().fold(orbit, |o, aut| {
                (0..aut.len())
                    .filter(|&u| o >> u & 1 == 1)
                    .fold(o, |o, u| o | 1 << aut[u])
            });
            if grown == orbit {
                return orbit;
            }
            orbit = grown;
        }
    }
}

/// Computes the canonical form (code + permutation) of `p`.
pub fn canonical_form(p: &Pattern) -> CanonicalForm {
    let n = p.num_vertices();
    if n == 0 {
        return CanonicalForm {
            code: CanonicalCode(vec![0]),
            perm: Vec::new(),
        };
    }
    let colors = refine_colors(p);
    // Header: n then vertex labels in cell order. Labels are constant per
    // cell (cells refine the label partition), so the header is fixed.
    let mut header = Vec::with_capacity(1 + n);
    header.push(n as u32);
    let mut by_color: Vec<usize> = (0..n).collect();
    by_color.sort_by_key(|&v| (colors[v], v));
    for &v in &by_color {
        header.push(p.vertex_label(v));
    }
    let mut search = Search {
        p,
        colors,
        slot: Vec::with_capacity(n),
        used: 0,
        cur: header,
        best: None,
        auts: Vec::new(),
    };
    search.run();
    let (code, slots) = search.best.expect("canonical search found no ordering");
    let mut perm = vec![0u8; n];
    for (pos, &v) in slots.iter().enumerate() {
        perm[v as usize] = pos as u8;
    }
    CanonicalForm {
        code: CanonicalCode(code),
        perm,
    }
}

/// Computes just the canonical code of `p`.
pub fn canonical_code(p: &Pattern) -> CanonicalCode {
    canonical_form(p).code
}

/// Whether `p` and `q` are isomorphic (Definition 3), via code equality.
pub fn are_isomorphic(p: &Pattern, q: &Pattern) -> bool {
    if p.num_vertices() != q.num_vertices() || p.num_edges() != q.num_edges() {
        return false;
    }
    canonical_code(p) == canonical_code(q)
}

/// A memoizing cache from raw patterns to canonical forms, keyed by the
/// [`Pattern`] itself.
///
/// This is the memo of the reference implementations (`crates/baselines`),
/// which build a `Pattern` per embedding anyway and must stay independent
/// of the engine's [`PatternTable`] so the parity suites compare two
/// implementations, not one.
#[derive(Debug, Default)]
pub struct CodeCache {
    map: HashMap<Pattern, std::sync::Arc<CanonicalForm>>,
    hits: u64,
    misses: u64,
}

impl CodeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the canonical form of `p`, computing and caching on miss.
    pub fn canonical_form(&mut self, p: &Pattern) -> std::sync::Arc<CanonicalForm> {
        if let Some(f) = self.map.get(p) {
            self.hits += 1;
            return f.clone();
        }
        self.misses += 1;
        let f = std::sync::Arc::new(canonical_form(p));
        self.map.insert(p.clone(), f.clone());
        f
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of distinct raw patterns cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The *quick pattern* of a live subgraph (Arabesque's first aggregation
/// level): exactly what [`Pattern::new`] would store for it — vertex labels
/// in insertion order plus sorted `(u, v, edge label)` triples with
/// `u < v` — as flat words, so it can be hashed and compared without
/// building a `Pattern`.
///
/// Layout: `[n | m << 8, label(0..n), edge(0..m)]` with
/// `edge = u << 40 | v << 32 | label`, edges ascending (which is the
/// `(u, v, label)` order `Pattern::new` sorts by).
#[derive(Debug, Default)]
pub struct QuickPattern {
    words: Vec<u64>,
}

impl QuickPattern {
    fn begin(&mut self) {
        self.words.clear();
        self.words.push(0);
    }

    /// Appends the next vertex in insertion order. Every vertex comes
    /// before the first [`edge`](Self::edge).
    #[inline]
    pub fn vertex(&mut self, label: u32) {
        debug_assert_eq!(
            self.words.len() as u64,
            1 + self.words[0],
            "vertex after edge"
        );
        self.words[0] += 1;
        self.words.push(label as u64);
    }

    /// Appends the edge between local vertex positions `u` and `v`.
    #[inline]
    pub fn edge(&mut self, u: u8, v: u8, label: u32) {
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        self.words.push(edge_word(lo, hi, label));
    }

    /// Normalises edge order and seals the header.
    fn finish(&mut self) {
        let n = self.words[0] as usize;
        assert!(
            n <= crate::pattern::MAX_PATTERN_VERTICES,
            "pattern too large"
        );
        let edges = &mut self.words[1 + n..];
        edges.sort_unstable();
        self.words[0] |= (edges.len() as u64) << 8;
    }
}

/// One edge of a quick pattern, `lo < hi`.
#[inline]
fn edge_word(lo: u8, hi: u8, label: u32) -> u64 {
    (lo as u64) << 40 | (hi as u64) << 32 | label as u64
}

/// What one extension adds to an interned quick pattern of `n` vertices:
/// the step from a parent to one of its children in [`PatternTable::child`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// A vertex at position `n` with `label`, joined by label-0 edges to the
    /// positions in `mask`.
    Vertex {
        /// The new vertex's label.
        label: u32,
        /// Positions (bit `p`: position `p`) the new vertex is adjacent to.
        mask: u32,
    },
    /// An edge with `label` between positions `lo < hi`.
    Edge {
        /// The edge's earlier endpoint, a position of the parent.
        lo: u8,
        /// The edge's later endpoint: `n` exactly when the edge brings it in.
        hi: u8,
        /// The edge's label.
        label: u32,
        /// The label of position `hi` when the edge brings that vertex in.
        new_vertex: Option<u32>,
    },
}

/// The `Pattern` a sealed quick pattern names (cache-miss path only).
fn quick_to_pattern(key: &[u64]) -> Pattern {
    let n = (key[0] & 0xff) as usize;
    let labels = key[1..1 + n].iter().map(|&w| w as u32).collect();
    let edges = key[1 + n..]
        .iter()
        .map(|&w| ((w >> 40) as u8, (w >> 32) as u8, w as u32))
        .collect();
    Pattern::new(labels, edges)
}

/// Multiply-rotate hash over a sealed quick pattern. Cheap, and only a
/// slot hint: [`PatternTable`] compares the full key on every hit.
#[inline]
fn quick_hash(key: &[u64]) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = 0u64;
    for &w in key {
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    ((h ^ (h >> 32)).wrapping_mul(K) >> 32) as u32
}

/// One interned quick pattern: where its key and permutation live and
/// which canonical pattern it is an ordering of.
#[derive(Debug, Clone, Copy)]
struct QuickEntry {
    hash: u32,
    key_start: u32,
    perm_start: u32,
    class: u32,
}

/// One edge of the trie [`PatternTable::child`] walks: `parent` reaches
/// `child` by `level`. 16 bytes. A vertex level is all in `level`
/// (`label << 32 | mask`). An edge level sets [`EDGE_LEVEL`] in `parent` and
/// keeps its [`edge_word`] in `level`, with the low half of the label of a
/// vertex the edge brings in above it (bits 48..64, which an edge word
/// leaves free). A label below 2^16 is all there, and [`WHOLE_LABEL`] says
/// so; the rest of a larger one is read back from the child's own stored
/// key, so identity is still the whole `(parent, level)`.
#[derive(Debug, Clone, Copy, Default)]
struct ChildSlot {
    parent: u32,
    /// Child id + 1; 0 = empty.
    child: u32,
    level: u64,
}

/// Marks a [`ChildSlot`] whose level is an edge. Quick pattern ids stay
/// below it: `key_start` is a `u32` and every key has at least one word.
const EDGE_LEVEL: u32 = 1 << 31;

/// Marks an edge level word that holds the whole label of the vertex the
/// edge brings in. A free bit: an [`edge_word`]'s positions are below 32.
const WHOLE_LABEL: u64 = 1 << 47;

/// Slot hint for a trie edge. Every bit of `level` must reach the slot: a
/// product's bit `i` reads only bits `0..=i` of its factors and the slot is
/// taken from bits 32 up, so the high half is folded down first; without
/// that, an edge level's new-vertex label (bits 48..64) never moved the
/// slot, and children that differ only by it shared one probe chain.
#[inline]
fn child_hash(parent: u32, level: u64) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let h = (parent as u64).wrapping_mul(K) ^ level;
    ((h ^ h >> 32).wrapping_mul(K) >> 32) as usize
}

/// How the trie stores the edge `(parent, level)`: its tagged parent, its
/// level word, and for a level that brings in a vertex whose label the word
/// cannot hold whole, that vertex's key position and label (checked against
/// the child's stored key).
#[inline]
fn trie_edge(parent: u32, level: Level) -> (u32, u64, Option<(usize, u64)>) {
    match level {
        Level::Vertex { label, mask } => (parent, (label as u64) << 32 | mask as u64, None),
        Level::Edge {
            lo,
            hi,
            label,
            new_vertex,
        } => {
            let word = edge_word(lo, hi, label);
            let (word, check) = match new_vertex {
                None => (word, None),
                Some(l) if l <= 0xffff => (word | (l as u64) << 48 | WHOLE_LABEL, None),
                Some(l) => (
                    word | (l as u64 & 0xffff) << 48,
                    Some((1 + hi as usize, l as u64)),
                ),
            };
            (parent | EDGE_LEVEL, word, check)
        }
    }
}

/// One canonical pattern (Arabesque's second aggregation level).
#[derive(Debug)]
struct CanonClass {
    code: CanonicalCode,
    /// `orbit_reps[pos]` is the smallest canonical position in `pos`'s
    /// automorphism orbit; computed on first request.
    orbit_reps: Option<Box<[u8]>>,
}

/// Everything the table knows about one interned quick pattern.
#[derive(Debug, Clone, Copy)]
pub struct InternedForm<'a> {
    /// The canonical code.
    pub code: &'a CanonicalCode,
    /// `perm[subgraph vertex position] = canonical position`.
    pub perm: &'a [u8],
    /// `orbit_reps[canonical position]` = smallest position of its
    /// automorphism orbit (FSM folds domains of one orbit together).
    pub orbit_reps: &'a [u8],
}

/// The per-core two-level pattern table: quick pattern → canonical pattern.
///
/// Enumeration meets the same few shapes over and over in different vertex
/// orders, so each distinct quick pattern is canonicalised once and every
/// later subgraph with that quick pattern costs one hash, one probe and one
/// full-key comparison. Keys and permutations live in two shared arenas and
/// an entry is 16 bytes; codes and orbit representatives are stored once
/// per canonical pattern.
///
/// Growth reaches most quick patterns one extension at a time, so the table
/// also keeps a trie edge per `(parent id, level)` met
/// ([`child`](Self::child)): a subgraph whose parent is already interned is
/// named by one 16-byte probe, with no key written, sorted or hashed. The
/// trie is a cache over this table's own ids, filled through the same
/// [`intern_hashed`](Self::intern_hashed) a whole key goes through.
#[derive(Debug)]
pub struct PatternTable {
    /// Open-addressing index: entry id + 1, 0 = empty. Power-of-two sized,
    /// at most half full.
    slots: Vec<u32>,
    /// Open-addressing trie edges. Power-of-two sized, at most half full.
    children: Vec<ChildSlot>,
    num_children: usize,
    entries: Vec<QuickEntry>,
    keys: Vec<u64>,
    perms: Vec<u8>,
    classes: Vec<CanonClass>,
    class_of: HashMap<CanonicalCode, u32>,
    scratch: QuickPattern,
    hits: u64,
    misses: u64,
}

impl Default for PatternTable {
    fn default() -> Self {
        PatternTable {
            slots: vec![0; 16],
            children: vec![ChildSlot::default(); 16],
            num_children: 0,
            entries: Vec::new(),
            keys: Vec::new(),
            perms: Vec::new(),
            classes: Vec::new(),
            class_of: HashMap::new(),
            scratch: QuickPattern::default(),
            hits: 0,
            misses: 0,
        }
    }
}

impl PatternTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the quick pattern `write` describes and returns its id,
    /// canonicalising it if this table has not seen it before.
    #[inline]
    pub fn intern(&mut self, write: impl FnOnce(&mut QuickPattern)) -> u32 {
        let mut key = std::mem::take(&mut self.scratch);
        key.begin();
        write(&mut key);
        key.finish();
        let id = self.intern_hashed(&key.words, quick_hash(&key.words));
        self.scratch = key;
        id
    }

    /// Interns a sealed key under the given hash. The hash picks the probe
    /// start and pre-screens candidates; identity is the full key.
    fn intern_hashed(&mut self, key: &[u64], hash: u32) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != 0 {
            let id = self.slots[slot] - 1;
            let e = &self.entries[id as usize];
            // The header word carries both lengths, so a prefix match of
            // the arena tail is equality with the stored key.
            if e.hash == hash && self.keys[e.key_start as usize..].starts_with(key) {
                self.hits += 1;
                return id;
            }
            slot = (slot + 1) & mask;
        }
        self.misses += 1;
        let form = canonical_form(&quick_to_pattern(key));
        let class = match self.class_of.get(&form.code) {
            Some(&c) => c,
            None => {
                let c = self.classes.len() as u32;
                self.class_of.insert(form.code.clone(), c);
                self.classes.push(CanonClass {
                    code: form.code,
                    orbit_reps: None,
                });
                c
            }
        };
        let id = self.entries.len() as u32;
        self.entries.push(QuickEntry {
            hash,
            key_start: self.keys.len() as u32,
            perm_start: self.perms.len() as u32,
            class,
        });
        self.keys.extend_from_slice(key);
        self.perms.extend_from_slice(&form.perm);
        self.slots[slot] = id + 1;
        if self.entries.len() * 2 > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Doubles the index and re-seats every entry.
    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        self.slots.clear();
        self.slots.resize(mask + 1, 0);
        for (id, e) in self.entries.iter().enumerate() {
            let mut slot = e.hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }

    /// The id of the quick pattern `level` grows out of quick pattern
    /// `parent`: what [`intern`](Self::intern) returns for the parent's key
    /// with the level's vertex and edges added, found without writing that
    /// key when this `(parent, level)` has been met before.
    #[inline]
    pub fn child(&mut self, parent: u32, level: Level) -> u32 {
        debug_assert!((parent as usize) < self.entries.len());
        let (tagged, word, new_at) = trie_edge(parent, level);
        let mask = self.children.len() - 1;
        let mut slot = child_hash(tagged, word) & mask;
        loop {
            let s = self.children[slot];
            if s.child == 0 {
                break;
            }
            if s.parent == tagged && s.level == word {
                let id = s.child - 1;
                if new_at.is_none_or(|(at, label)| {
                    self.keys[self.entries[id as usize].key_start as usize + at] == label
                }) {
                    self.hits += 1;
                    return id;
                }
            }
            slot = (slot + 1) & mask;
        }
        let edge = ChildSlot {
            parent: tagged,
            child: 0,
            level: word,
        };
        self.grow_child(parent, level, edge, slot)
    }

    /// Trie miss: writes the child's key from the parent's stored key plus
    /// `level`, interns it like any whole key (so a child another path
    /// already interned is a hit, and a new one is canonicalised here) and
    /// records the edge in the free `slot` the probe ended on.
    #[cold]
    fn grow_child(&mut self, parent: u32, level: Level, mut edge: ChildSlot, slot: usize) -> u32 {
        let mut key = std::mem::take(&mut self.scratch);
        key.begin();
        let start = self.entries[parent as usize].key_start as usize;
        let n = (self.keys[start] & 0xff) as usize;
        let m = (self.keys[start] >> 8) as usize;
        let labels = start + 1..start + 1 + n;
        let edges = labels.end..labels.end + m;
        for &label in &self.keys[labels] {
            key.vertex(label as u32);
        }
        match level {
            Level::Vertex { label, mask } => {
                key.vertex(label);
                key.words.extend_from_slice(&self.keys[edges]);
                for p in (0..n as u8).filter(|p| mask >> p & 1 == 1) {
                    key.edge(p, n as u8, 0);
                }
            }
            Level::Edge {
                lo,
                hi,
                label,
                new_vertex,
            } => {
                debug_assert_eq!(new_vertex.is_some(), hi as usize == n);
                if let Some(label) = new_vertex {
                    key.vertex(label);
                }
                key.words.extend_from_slice(&self.keys[edges]);
                key.edge(lo, hi, label);
            }
        }
        key.finish();
        let id = self.intern_hashed(&key.words, quick_hash(&key.words));
        self.scratch = key;
        edge.child = id + 1;
        self.children[slot] = edge;
        self.num_children += 1;
        if self.num_children * 2 > self.children.len() {
            self.grow_children();
        }
        id
    }

    /// Doubles the trie and re-seats every edge.
    fn grow_children(&mut self) {
        let old = std::mem::take(&mut self.children);
        let mask = old.len() * 2 - 1;
        self.children.resize(mask + 1, ChildSlot::default());
        for s in old.into_iter().filter(|s| s.child != 0) {
            let mut slot = child_hash(s.parent, s.level) & mask;
            while self.children[slot].child != 0 {
                slot = (slot + 1) & mask;
            }
            self.children[slot] = s;
        }
    }

    /// The canonical pattern (class index, dense from 0) quick pattern `id`
    /// is an ordering of.
    #[inline]
    pub fn class(&self, id: u32) -> u32 {
        self.entries[id as usize].class
    }

    /// The class of pattern `p`, interned as the quick pattern of its own
    /// vertex order: one probe when that order was met before, as a
    /// subgraph or as an earlier `p`.
    pub fn pattern_class(&mut self, p: &Pattern) -> u32 {
        let id = self.intern(|q| {
            for v in 0..p.num_vertices() {
                q.vertex(p.vertex_label(v));
            }
            for &(u, v, label) in p.edges() {
                q.edge(u, v, label);
            }
        });
        self.class(id)
    }

    /// The canonical code of class `class`.
    #[inline]
    pub fn class_code(&self, class: u32) -> &CanonicalCode {
        &self.classes[class as usize].code
    }

    /// Code, permutation and orbit representatives of quick pattern `id`.
    #[inline]
    pub fn form(&mut self, id: u32) -> InternedForm<'_> {
        let e = self.entries[id as usize];
        let class = &mut self.classes[e.class as usize];
        let code = &class.code;
        let orbit_reps = class
            .orbit_reps
            .get_or_insert_with(|| crate::autom::orbit_representatives(&code.to_pattern()).into());
        // One representative per vertex: that length is at hand, the code's
        // own is behind another pointer.
        let perm = &self.perms[e.perm_start as usize..][..orbit_reps.len()];
        InternedForm {
            code,
            perm,
            orbit_reps,
        }
    }

    /// `(hits, misses)` counters; every miss ran one `canonical_form`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of distinct quick patterns interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_distinguishes_degrees() {
        // Path 0-1-2: endpoints share a color, middle differs.
        let p = Pattern::path(3);
        let c = refine_colors(&p);
        assert_eq!(c[0], c[2]);
        assert_ne!(c[0], c[1]);
    }

    #[test]
    fn refinement_respects_labels() {
        let p = Pattern::new(vec![0, 1], vec![(0, 1, 0)]);
        let c = refine_colors(&p);
        assert_ne!(c[0], c[1]);
    }

    #[test]
    fn code_invariant_under_permutation() {
        let p = Pattern::new(
            vec![0, 1, 0, 1],
            vec![(0, 1, 1), (1, 2, 0), (2, 3, 1), (0, 3, 0)],
        );
        let base = canonical_code(&p);
        // All 24 permutations give the same code.
        let perms4: Vec<Vec<u8>> = permutations(4);
        for perm in perms4 {
            let q = p.permuted(&perm);
            assert_eq!(canonical_code(&q), base, "perm {perm:?}");
        }
    }

    #[test]
    fn code_distinguishes_non_isomorphic() {
        assert_ne!(
            canonical_code(&Pattern::path(4)),
            canonical_code(&Pattern::star(3))
        );
        assert_ne!(
            canonical_code(&Pattern::cycle(4)),
            canonical_code(&Pattern::path(4))
        );
        assert_ne!(
            canonical_code(&Pattern::clique(4)),
            canonical_code(&Pattern::cycle(4))
        );
        // Same topology, different labels.
        let a = Pattern::new(vec![0, 0], vec![(0, 1, 0)]);
        let b = Pattern::new(vec![0, 1], vec![(0, 1, 0)]);
        let c = Pattern::new(vec![0, 0], vec![(0, 1, 1)]);
        assert_ne!(canonical_code(&a), canonical_code(&b));
        assert_ne!(canonical_code(&a), canonical_code(&c));
    }

    #[test]
    fn canonical_perm_maps_onto_code_pattern() {
        let p = Pattern::new(vec![3, 1, 2], vec![(0, 1, 7), (1, 2, 8)]);
        let f = canonical_form(&p);
        // Applying the permutation to p must reproduce the decoded pattern.
        let q = p.permuted(&f.perm);
        assert_eq!(q, f.code.to_pattern());
    }

    #[test]
    fn code_roundtrips_via_to_pattern() {
        for p in [
            Pattern::clique(4),
            Pattern::cycle(5),
            Pattern::star(3),
            Pattern::new(vec![1, 2, 3], vec![(0, 1, 4), (1, 2, 5), (0, 2, 6)]),
        ] {
            let code = canonical_code(&p);
            assert_eq!(canonical_code(&code.to_pattern()), code);
        }
    }

    #[test]
    fn isomorphism_check() {
        let p = Pattern::unlabeled(4, &[(0, 1), (1, 2), (2, 3)]);
        let q = Pattern::unlabeled(4, &[(2, 0), (0, 3), (3, 1)]);
        assert!(are_isomorphic(&p, &q));
        assert!(!are_isomorphic(&p, &Pattern::star(3)));
    }

    #[test]
    fn motif_shape_counts_k4() {
        // There are exactly 6 connected unlabeled graphs on 4 vertices.
        use std::collections::HashSet;
        let mut shapes: HashSet<CanonicalCode> = HashSet::new();
        // Enumerate all graphs on 4 vertices by edge bitmask.
        let pairs = [(0u8, 1u8), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        for mask in 0u32..64 {
            let edges: Vec<(u8, u8)> = pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &e)| e)
                .collect();
            let p = Pattern::unlabeled(4, &edges);
            if p.is_connected() {
                shapes.insert(canonical_code(&p));
            }
        }
        assert_eq!(shapes.len(), 6);
    }

    #[test]
    fn disconnected_codes_are_permutation_invariant() {
        // The decomposition planner canonicalizes disconnected
        // sub-patterns; the branch-and-bound search must stay invariant and
        // round-trippable there too.
        let shapes = [
            Pattern::unlabeled(4, &[(0, 1), (2, 3)]),         // 2 edges
            Pattern::unlabeled(4, &[(0, 1), (1, 2), (0, 2)]), // K3 + K1
            Pattern::unlabeled(5, &[(0, 1), (2, 3), (3, 4)]), // edge + P3
            Pattern::new(vec![0, 1, 0, 1], vec![(0, 1, 2), (2, 3, 2)]),
        ];
        for p in &shapes {
            let base = canonical_code(p);
            for perm in permutations(p.num_vertices()) {
                assert_eq!(canonical_code(&p.permuted(&perm)), base, "perm {perm:?}");
            }
            assert_eq!(canonical_code(&base.to_pattern()), base);
        }
    }

    #[test]
    fn disconnected_codes_distinguish_shapes() {
        // All of these have 4 vertices and ≤ 3 edges; none may collide.
        let shapes = [
            Pattern::unlabeled(4, &[(0, 1), (2, 3)]),         // 2K2
            Pattern::unlabeled(4, &[(0, 1), (1, 2)]),         // P3 + K1
            Pattern::unlabeled(4, &[(0, 1), (1, 2), (0, 2)]), // K3 + K1
            Pattern::unlabeled(4, &[(0, 1), (1, 2), (2, 3)]), // P4 (connected)
            Pattern::unlabeled(4, &[(0, 1)]),                 // K2 + 2K1
        ];
        for (i, a) in shapes.iter().enumerate() {
            for (j, b) in shapes.iter().enumerate() {
                assert_eq!(canonical_code(a) == canonical_code(b), i == j, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cache_hits() {
        let mut cache = CodeCache::new();
        let p = Pattern::clique(3);
        let a = cache.canonical_form(&p);
        let b = cache.canonical_form(&p);
        assert_eq!(a, b);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    /// Writes `p` into the table the way a subgraph would, edges in the
    /// given order.
    fn intern_pattern(t: &mut PatternTable, p: &Pattern, reverse_edges: bool) -> u32 {
        t.intern(|q| {
            for v in 0..p.num_vertices() {
                q.vertex(p.vertex_label(v));
            }
            let mut edges = p.edges().to_vec();
            if reverse_edges {
                edges.reverse();
            }
            for (u, v, l) in edges {
                q.edge(v, u, l);
            }
        })
    }

    #[test]
    fn table_agrees_with_the_uncached_canonicaliser() {
        let p = Pattern::new(
            vec![0, 1, 0, 1],
            vec![(0, 1, 1), (1, 2, 0), (2, 3, 1), (0, 3, 0)],
        );
        let mut t = PatternTable::new();
        for perm in permutations(4) {
            let q = p.permuted(&perm);
            let id = intern_pattern(&mut t, &q, false);
            // Edge insertion order is normalised away: same id, a hit.
            assert_eq!(intern_pattern(&mut t, &q, true), id);
            let want = canonical_form(&q);
            let got = t.form(id);
            assert_eq!(*got.code, want.code);
            assert_eq!(got.perm, &want.perm[..]);
            assert_eq!(t.class_code(t.class(id)), &want.code);
        }
        assert_eq!(t.classes.len(), 1);
        let (hits, misses) = t.stats();
        assert_eq!(misses as usize, t.len());
        assert_eq!(hits + misses, 48);
        // The 4-cycle with alternating labels has a dihedral symmetry that
        // maps several orderings onto one quick pattern.
        assert!(t.len() < 24 && t.len() > 1, "{} quick patterns", t.len());
    }

    #[test]
    fn pattern_class_names_a_pattern_through_the_table() {
        let mut t = PatternTable::new();
        let p = Pattern::new(vec![3, 1, 2], vec![(0, 1, 4), (1, 2, 5)]);
        let id = intern_pattern(&mut t, &p, true);
        // The pattern's own vertex order was met as a subgraph: a hit.
        assert_eq!(t.pattern_class(&p), t.class(id));
        assert_eq!(t.stats(), (1, 1));
        // Another order of the same pattern is one more quick pattern of
        // the same class.
        let q = p.permuted(&[2, 0, 1]);
        assert_eq!(t.pattern_class(&q), t.class(id));
        assert_eq!(t.class_code(t.class(id)), &canonical_code(&q));
        assert_eq!(t.stats(), (1, 2));
    }

    #[test]
    fn colliding_hashes_still_get_distinct_codes() {
        // Two different quick patterns forced onto one hash (and so one
        // slot): identity is the full key, never the hash.
        let mut t = PatternTable::new();
        let keys: Vec<Vec<u64>> = [Pattern::path(4), Pattern::star(3)]
            .iter()
            .map(|p| {
                let mut q = QuickPattern::default();
                q.begin();
                (0..4).for_each(|v| q.vertex(p.vertex_label(v)));
                p.edges().iter().for_each(|&(u, v, l)| q.edge(u, v, l));
                q.finish();
                q.words
            })
            .collect();
        let a = t.intern_hashed(&keys[0], 42);
        let b = t.intern_hashed(&keys[1], 42);
        assert_ne!(a, b);
        assert_ne!(t.class(a), t.class(b));
        assert_eq!(*t.form(a).code, canonical_code(&Pattern::path(4)));
        assert_eq!(*t.form(b).code, canonical_code(&Pattern::star(3)));
        // Both are still found behind the shared hash.
        assert_eq!(t.intern_hashed(&keys[1], 42), b);
        assert_eq!(t.intern_hashed(&keys[0], 42), a);
        assert_eq!(t.stats(), (2, 2));
    }

    #[test]
    fn table_survives_growth_and_reports_orbits() {
        // 60 labeled single edges: well past the initial 16 slots.
        let mut t = PatternTable::new();
        let pats: Vec<Pattern> = (0..60u32)
            .map(|l| Pattern::new(vec![l % 7, l % 5], vec![(0, 1, l)]))
            .collect();
        let ids: Vec<u32> = pats
            .iter()
            .map(|p| intern_pattern(&mut t, p, false))
            .collect();
        assert_eq!(t.len(), 60);
        for (p, &id) in pats.iter().zip(&ids) {
            assert_eq!(intern_pattern(&mut t, p, false), id);
            assert_eq!(*t.form(id).code, canonical_code(p));
            // Equal endpoint labels: the two positions share an orbit.
            let symmetric = p.vertex_label(0) == p.vertex_label(1);
            assert_eq!(
                t.form(id).orbit_reps,
                if symmetric { &[0, 0] } else { &[0, 1] }
            );
        }
        assert_eq!(t.stats(), (60, 60));
    }

    /// The id `intern` gives the child written out whole: the parent's key
    /// plus `level`, the slow way.
    fn intern_child_whole(t: &mut PatternTable, parent: &Pattern, level: Level) -> u32 {
        let n = parent.num_vertices() as u8;
        t.intern(|q| {
            (0..n).for_each(|v| q.vertex(parent.vertex_label(v as usize)));
            match level {
                Level::Vertex { label, mask } => {
                    q.vertex(label);
                    parent.edges().iter().for_each(|&(u, v, l)| q.edge(u, v, l));
                    (0..n)
                        .filter(|p| mask >> p & 1 == 1)
                        .for_each(|p| q.edge(p, n, 0));
                }
                Level::Edge {
                    lo,
                    hi,
                    label,
                    new_vertex,
                } => {
                    new_vertex.into_iter().for_each(|l| q.vertex(l));
                    parent.edges().iter().for_each(|&(u, v, l)| q.edge(u, v, l));
                    q.edge(hi, lo, label);
                }
            }
        })
    }

    #[test]
    fn child_is_the_whole_key_intern_across_trie_growth() {
        // One parent (a labeled wedge), more distinct levels than the trie's
        // initial 16 slots and the index's: vertices of 9 labels over every
        // nonzero mask, closing edges of 9 labels, pendant edges bringing in
        // vertices whose labels differ only above bit 16 (the half of the
        // label a trie slot does not hold).
        let parent = Pattern::new(vec![3, 1, 4], vec![(0, 1, 0), (1, 2, 0)]);
        let mut levels = Vec::new();
        for label in 0..9 {
            for mask in 1..8 {
                levels.push(Level::Vertex { label, mask });
            }
            levels.push(Level::Edge {
                lo: 0,
                hi: 2,
                label,
                new_vertex: None,
            });
            for lo in 0..3 {
                for high_half in [0u32, 1 << 16, 7 << 20] {
                    levels.push(Level::Edge {
                        lo,
                        hi: 3,
                        label: 5,
                        new_vertex: Some(label | high_half),
                    });
                }
            }
        }
        let mut t = PatternTable::new();
        let parent_id = intern_pattern(&mut t, &parent, false);
        let (slots0, children0) = (t.slots.len(), t.children.len());
        let ids: Vec<u32> = levels.iter().map(|&l| t.child(parent_id, l)).collect();
        assert!(t.slots.len() > slots0 && t.children.len() > children0);
        assert_eq!(t.num_children, levels.len());
        // Every level is its own quick pattern, each canonicalised once.
        let distinct: std::collections::HashSet<u32> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), levels.len());
        assert_eq!(t.stats(), (0, 1 + levels.len() as u64));
        for (&level, &id) in levels.iter().zip(&ids) {
            // Found again through the grown trie, as a hit...
            assert_eq!(t.child(parent_id, level), id, "{level:?}");
            // ...and it is the id the whole key has, with the whole key's form.
            assert_eq!(intern_child_whole(&mut t, &parent, level), id, "{level:?}");
            let key = &t.keys[t.entries[id as usize].key_start as usize..];
            let want = canonical_form(&quick_to_pattern(
                &key[..1 + (key[0] & 0xff) as usize + (key[0] >> 8) as usize],
            ));
            assert_eq!(*t.form(id).code, want.code);
            assert_eq!(t.form(id).perm, &want.perm[..]);
        }
        let (hits, misses) = t.stats();
        assert_eq!(
            misses as usize,
            t.len(),
            "one miss per distinct quick pattern"
        );
        assert_eq!(hits as usize, 2 * levels.len());
        assert_eq!(t.num_children, levels.len(), "a trie hit records nothing");
    }

    #[test]
    fn trie_miss_on_an_interned_child_is_a_hit() {
        // The triangle is interned whole first; reaching it from the edge by
        // a vertex level misses the trie, finds the entry, canonicalises
        // nothing and records the edge.
        let mut t = PatternTable::new();
        let triangle = intern_pattern(&mut t, &Pattern::clique(3), false);
        let wedge = intern_pattern(&mut t, &Pattern::path(3), false);
        let edge = intern_pattern(&mut t, &Pattern::clique(2), false);
        assert_eq!(t.stats(), (0, 3));
        let v = |mask| Level::Vertex { label: 0, mask };
        assert_eq!(t.child(edge, v(0b11)), triangle);
        assert_eq!(t.stats(), (1, 3));
        assert_eq!(t.child(edge, v(0b10)), wedge);
        assert_eq!(t.child(edge, v(0b10)), wedge);
        assert_eq!(t.stats(), (3, 3));
        // The same level as an edge that brings its endpoint in.
        let pendant = Level::Edge {
            lo: 1,
            hi: 2,
            label: 0,
            new_vertex: Some(0),
        };
        assert_eq!(t.child(edge, pendant), wedge);
        assert_eq!(t.num_children, 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn colliding_trie_hints_still_reach_distinct_children() {
        // Three pendant edges that differ only in the upper half of the label
        // of the vertex they bring in: a trie slot holds the lower half, so
        // all three are one (parent, level) pair with one hint, on one probe
        // chain, and only the children's stored keys tell them apart.
        let mut t = PatternTable::new();
        let edge = intern_pattern(&mut t, &Pattern::clique(2), false);
        let levels: Vec<Level> = (1..4)
            .map(|l| Level::Edge {
                lo: 0,
                hi: 2,
                label: 0,
                new_vertex: Some(l << 16 | 9),
            })
            .collect();
        let ids: Vec<u32> = levels.iter().map(|&l| t.child(edge, l)).collect();
        let edges: Vec<ChildSlot> = t
            .children
            .iter()
            .copied()
            .filter(|s| s.child != 0)
            .collect();
        assert_eq!(edges.len(), 3);
        assert!(edges
            .iter()
            .all(|s| (s.parent, s.level) == (edges[0].parent, edges[0].level)));
        assert_eq!(t.stats(), (0, 4));
        for (&level, &id) in levels.iter().zip(&ids) {
            assert_eq!(t.child(edge, level), id, "{level:?}");
            assert_eq!(intern_child_whole(&mut t, &Pattern::clique(2), level), id);
            let Level::Edge { new_vertex, .. } = level else {
                unreachable!()
            };
            assert_eq!(
                t.form(id).code.to_pattern().vertex_label(2),
                new_vertex.unwrap()
            );
        }
        assert_eq!(t.stats(), (6, 4));
        assert_eq!(t.num_children, 3);
    }

    #[test]
    fn edge_children_that_differ_only_in_the_new_label_spread_over_the_trie() {
        // 64 pendant edges of one parent whose levels differ only in the
        // label of the vertex they bring in, which sits in the level word's
        // top 16 bits. A hash blind to those bits starts all 64 at one slot
        // and walks a chain of up to 64 per probe.
        let mut t = PatternTable::new();
        let edge = intern_pattern(&mut t, &Pattern::clique(2), false);
        let levels: Vec<Level> = (0..64)
            .map(|l| Level::Edge {
                lo: 0,
                hi: 2,
                label: 0,
                new_vertex: Some(l),
            })
            .collect();
        let ids: Vec<u32> = levels.iter().map(|&l| t.child(edge, l)).collect();
        let mask = t.children.len() - 1;
        let start = |level| {
            let (tagged, word, _) = trie_edge(edge, level);
            child_hash(tagged, word) & mask
        };
        let starts: std::collections::HashSet<usize> = levels.iter().map(|&l| start(l)).collect();
        // Slots a probe for each child visits, up to and including its own.
        let visited: usize = (levels.iter().zip(&ids))
            .map(|(&level, &id)| {
                let mut slot = start(level);
                let mut n = 1;
                while t.children[slot].child != id + 1 {
                    slot = (slot + 1) & mask;
                    n += 1;
                }
                n
            })
            .sum();
        assert!(
            starts.len() >= 32,
            "64 children start at {} slots",
            starts.len()
        );
        assert!(
            visited <= 2 * levels.len(),
            "{visited} slots visited by {} probes",
            levels.len()
        );
    }

    #[test]
    #[should_panic(expected = "pattern too large")]
    fn oversized_quick_pattern_is_rejected() {
        PatternTable::new().intern(|q| (0..33).for_each(|_| q.vertex(0)));
    }

    #[test]
    fn empty_pattern() {
        let f = canonical_form(&Pattern::unlabeled(0, &[]));
        assert_eq!(f.code.num_vertices(), 0);
        assert!(f.perm.is_empty());
    }

    /// All permutations of 0..n (test helper).
    pub(super) fn permutations(n: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut cur: Vec<u8> = Vec::new();
        fn rec(n: usize, cur: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
            if cur.len() == n {
                out.push(cur.clone());
                return;
            }
            for v in 0..n as u8 {
                if !cur.contains(&v) {
                    cur.push(v);
                    rec(n, cur, out);
                    cur.pop();
                }
            }
        }
        rec(n, &mut cur, &mut out);
        out
    }
}
