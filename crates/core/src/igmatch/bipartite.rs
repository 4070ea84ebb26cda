//! Incremental maximum matching in the bipartite conflict graph of a
//! sliding net-ordering split (paper §3, Figures 3 and 5).
//!
//! As the split point slides along the sorted eigenvector, nets move one
//! at a time from `L` to `R`. The bipartite graph `B(L, R, E_B)` — whose
//! edges are the intersection-graph edges crossing the split — changes
//! only locally per move, so a maximum matching can be *maintained* rather
//! than recomputed: unmatch the moving net, try one augmenting path from
//! its exposed ex-partner, then one from the moved net itself. Each repair
//! is a single `O(|V| + |E|)` alternating BFS, giving the paper's
//! `O(|V|·(|V|+|E|))` bound over all splits (Theorem 6).
//!
//! The winner/loser classification is maintained incrementally as well:
//! every move reports a [`MoveDelta`], and [`NetClassifier::refresh`]
//! repairs two alternating-reachability forests — one grown from the
//! unmatched `L` nets, one from the unmatched `R` nets — around the nets
//! that delta names, cutting and re-growing only the subtrees whose
//! parent links broke (see `DESIGN.md` §11 for the soundness argument).
//! The from-scratch [`SplitMatcher::classify_into`] is kept unchanged as
//! the oracle the incremental path is cross-checked against in debug
//! builds.

use np_netlist::Side;

const NONE: u32 = u32::MAX;

/// One-bit-per-net side mask of the sliding split (bit set = `R` side).
///
/// The alternating BFS tests a vertex's side on every edge it scans;
/// packing sides 64-per-word keeps the whole mask in a few cache lines
/// (band-L's 8000 nets fit in 1 KiB) where a byte-per-net `Vec<Side>`
/// would stream 8× the data through L1.
#[derive(Clone, Debug)]
struct SideBits {
    words: Vec<u64>,
}

impl SideBits {
    fn all_left(n: usize) -> Self {
        SideBits {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn is_right(&self, v: u32) -> bool {
        (self.words[(v >> 6) as usize] >> (v & 63)) & 1 != 0
    }

    #[inline]
    fn set_right(&mut self, v: u32) {
        self.words[(v >> 6) as usize] |= 1u64 << (v & 63);
    }

    #[inline]
    fn side_of(&self, v: u32) -> Side {
        if self.is_right(v) {
            Side::Right
        } else {
            Side::Left
        }
    }
}

/// Epoch-stamped BFS scratch, structure-of-arrays: one visit stamp, one
/// predecessor and one queue slot per net, allocated once per matcher and
/// reused by every traversal — clearing between traversals is a single
/// epoch bump, never an `O(n)` reset.
#[derive(Clone, Debug)]
struct BfsArena {
    seen: Vec<u32>,
    prev: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
}

impl BfsArena {
    fn new(n: usize) -> Self {
        BfsArena {
            seen: vec![0; n],
            prev: vec![NONE; n],
            queue: Vec::new(),
            epoch: 0,
        }
    }
}

/// Status labels from the alternating-path classification
/// (paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Not reached from any unmatched vertex (member of `B'`).
    Unreached,
    /// `Even(L)`: an `L` vertex at even distance from an unmatched `L`
    /// vertex — a winner.
    EvenL,
    /// `Odd(L)`: an `R` vertex at odd distance from an unmatched `L`
    /// vertex — a loser.
    OddL,
    /// `Even(R)`: an `R` vertex at even distance from an unmatched `R`
    /// vertex — a winner.
    EvenR,
    /// `Odd(R)`: an `L` vertex at odd distance from an unmatched `R`
    /// vertex — a loser.
    OddR,
}

/// Result of classifying the vertices of `B` given a maximum matching:
/// the winner sets, the forced losers (the *critical set* of Hasan–Liu),
/// and the residual subgraph `B'` whose orientation Phase II decides.
///
/// All vertex lists hold net indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitClassification {
    /// `Even(L)` — winner nets on the `L` side.
    pub winners_l: Vec<u32>,
    /// `Even(R)` — winner nets on the `R` side.
    pub winners_r: Vec<u32>,
    /// `Odd(L) ∪ Odd(R)` — nets every minimum vertex cover must contain.
    pub losers: Vec<u32>,
    /// `L ∩ B'` — matched, unreached `L` vertices.
    pub bprime_l: Vec<u32>,
    /// `R ∩ B'` — matched, unreached `R` vertices.
    pub bprime_r: Vec<u32>,
}

impl SplitClassification {
    fn clear(&mut self) {
        self.winners_l.clear();
        self.winners_r.clear();
        self.losers.clear();
        self.bprime_l.clear();
        self.bprime_r.clear();
    }

    /// Flattens the classification lists into one [`NetClass`] per net —
    /// the representation the incremental [`NetClassifier`] maintains, so
    /// the two can be compared element-wise in oracle cross-checks.
    ///
    /// # Panics
    ///
    /// Panics if a listed net index is `>= num_nets`.
    pub fn net_classes(&self, num_nets: usize) -> Vec<NetClass> {
        let mut out = vec![NetClass::WinnerL; num_nets];
        for &v in &self.winners_r {
            out[v as usize] = NetClass::WinnerR;
        }
        for &v in &self.losers {
            out[v as usize] = NetClass::Loser;
        }
        for &v in &self.bprime_l {
            out[v as usize] = NetClass::BPrimeL;
        }
        for &v in &self.bprime_r {
            out[v as usize] = NetClass::BPrimeR;
        }
        out
    }
}

/// The classification of one net at the current split, from the
/// alternating-path analysis of paper Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetClass {
    /// `Even(L)` winner — pins its modules to the left side.
    WinnerL,
    /// `Even(R)` winner — pins its modules to the right side.
    WinnerR,
    /// `Odd(L) ∪ Odd(R)` — a forced loser, charged by every completion.
    Loser,
    /// Matched, unreached `L` vertex of the residual `B'`.
    BPrimeL,
    /// Matched, unreached `R` vertex of the residual `B'`.
    BPrimeR,
}

/// One net whose [`NetClass`] changed during a
/// [`NetClassifier::refresh`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetClassChange {
    /// The reclassified net.
    pub net: u32,
    /// Its class before the move.
    pub old: NetClass,
    /// Its class after the move.
    pub new: NetClass,
}

/// What one [`SplitMatcher::move_to_r`] changed: the moved net plus the
/// vertices whose matching partner changed (the detach and any augmenting
/// paths). [`NetClassifier::refresh`] repairs its forests around these.
#[derive(Clone, Debug, Default)]
pub struct MoveDelta {
    /// The net that moved from `L` to `R`.
    pub moved: u32,
    /// The moved net's ex-partner, if it was matched before the move.
    pub detached: Option<u32>,
    /// Every vertex whose `mate` changed: the detached pair plus all
    /// vertices on the augmenting paths flipped by the repair.
    pub mates_changed: Vec<u32>,
    /// `false` iff the moved net has no intersection-graph neighbors at
    /// all, in which case `B`'s edge set and the matching are untouched
    /// and only the moved net itself reclassifies.
    pub structural: bool,
}

impl MoveDelta {
    fn reset(&mut self, moved: u32, structural: bool) {
        self.moved = moved;
        self.detached = None;
        self.mates_changed.clear();
        self.structural = structural;
    }
}

/// Maximum-matching maintenance over the crossing edges of an ordered
/// split of the intersection graph.
///
/// All nets start on the `L` side; [`move_to_r`](Self::move_to_r) slides
/// one net across and repairs the matching incrementally.
///
/// # Example
///
/// ```
/// use np_core::igmatch::SplitMatcher;
///
/// // intersection graph: 0-1, 1-2 (a path of three nets)
/// let neighbors = vec![vec![1], vec![0, 2], vec![1]];
/// let mut m = SplitMatcher::new(&neighbors);
/// assert_eq!(m.matching_size(), 0); // R empty, B empty
/// m.move_to_r(1);
/// assert_eq!(m.matching_size(), 1); // net 1 conflicts with 0 and 2
/// let c = m.classify();
/// assert_eq!(c.winners_l.len() + c.winners_r.len(), 2);
/// assert_eq!(c.losers.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SplitMatcher {
    /// Flattened CSR adjacency of the intersection graph: the neighbors
    /// of net `v` are `adj[adj_off[v]..adj_off[v + 1]]`. One contiguous
    /// array instead of a `Vec<Vec<u32>>`, so edge scans never chase a
    /// per-row heap pointer.
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    n: usize,
    side: SideBits,
    mate: Vec<u32>,
    matching: usize,
    arena: BfsArena,
}

impl SplitMatcher {
    /// Creates a matcher with every net on the `L` side.
    ///
    /// `neighbors[v]` must list the intersection-graph neighbors of net
    /// `v` (symmetric, no self-loops) — see
    /// [`intersection_neighbors`](crate::models::intersection_neighbors).
    /// The adjacency is flattened into an owned CSR layout, so the
    /// matcher does not borrow `neighbors`.
    ///
    /// # Panics
    ///
    /// Panics if the net count or total edge-endpoint count reaches
    /// `u32::MAX`.
    pub fn new(neighbors: &[Vec<u32>]) -> Self {
        let n = neighbors.len();
        assert!(n < u32::MAX as usize, "net count overflows u32 indices");
        let total: usize = neighbors.iter().map(Vec::len).sum();
        assert!(
            total < u32::MAX as usize,
            "edge count overflows u32 offsets"
        );
        let mut adj_off = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(total);
        adj_off.push(0u32);
        for nb in neighbors {
            adj.extend_from_slice(nb);
            adj_off.push(adj.len() as u32);
        }
        SplitMatcher {
            adj_off,
            adj,
            n,
            side: SideBits::all_left(n),
            mate: vec![NONE; n],
            matching: 0,
            arena: BfsArena::new(n),
        }
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matcher tracks zero nets.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The intersection-graph neighbors of net `v` (flattened CSR row).
    #[inline]
    fn nbrs(&self, v: u32) -> &[u32] {
        &self.adj[self.adj_off[v as usize] as usize..self.adj_off[v as usize + 1] as usize]
    }

    /// Current size of the maintained maximum matching — by König's
    /// theorem (paper Theorems 2–3) also the size of a minimum vertex
    /// cover of `B`, i.e. the best achievable loser count for this split.
    pub fn matching_size(&self) -> usize {
        self.matching
    }

    /// The side net `v` is currently on.
    pub fn side_of(&self, v: u32) -> Side {
        self.side.side_of(v)
    }

    /// Current partner of net `v`, if matched.
    pub fn mate_of(&self, v: u32) -> Option<u32> {
        let m = self.mate[v as usize];
        (m != NONE).then_some(m)
    }

    /// Moves net `v` from `L` to `R`, repairing the matching, and returns
    /// the [`MoveDelta`] describing what changed. Use
    /// [`move_to_r_into`](Self::move_to_r_into) in hot loops to reuse the
    /// delta's buffers.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or already on the `R` side.
    pub fn move_to_r(&mut self, v: u32) -> MoveDelta {
        let mut delta = MoveDelta::default();
        self.move_to_r_into(v, &mut delta);
        delta
    }

    /// [`move_to_r`](Self::move_to_r) writing the delta into a reusable
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or already on the `R` side.
    pub fn move_to_r_into(&mut self, v: u32, delta: &mut MoveDelta) {
        assert_eq!(
            self.side.side_of(v),
            Side::Left,
            "net {v} is already on the R side"
        );
        delta.reset(v, self.adj_off[v as usize] != self.adj_off[v as usize + 1]);
        // detach v from its partner (an R vertex), if any
        let exposed = self.mate[v as usize];
        if exposed != NONE {
            self.mate[v as usize] = NONE;
            self.mate[exposed as usize] = NONE;
            self.matching -= 1;
            delta.detached = Some(exposed);
            delta.mates_changed.push(v);
            delta.mates_changed.push(exposed);
        }
        self.side.set_right(v);
        // the exposed ex-partner may re-match through another L vertex
        if exposed != NONE {
            let flipped_from = delta.mates_changed.len();
            if self.augment_from_r(exposed, &mut delta.mates_changed) {
                self.matching += 1;
            } else {
                delta.mates_changed.truncate(flipped_from);
            }
        }
        // the moved net's edges to L are new in B; one augmentation
        // attempt restores maximality
        let flipped_from = delta.mates_changed.len();
        if self.augment_from_r(v, &mut delta.mates_changed) {
            self.matching += 1;
        } else {
            delta.mates_changed.truncate(flipped_from);
        }
    }

    /// Alternating BFS from the unmatched `R` vertex `start`; augments and
    /// returns `true` if an augmenting path to an unmatched `L` vertex
    /// exists. Vertices whose mate is flipped are appended to `flipped`
    /// (the caller truncates them away on a failed attempt).
    fn augment_from_r(&mut self, start: u32, flipped: &mut Vec<u32>) -> bool {
        debug_assert!(self.side.is_right(start));
        debug_assert_eq!(self.mate[start as usize], NONE);
        let Self {
            adj_off,
            adj,
            side,
            mate,
            arena,
            ..
        } = self;
        arena.epoch += 1;
        let epoch = arena.epoch;
        arena.queue.clear();
        arena.queue.push(start);
        let mut head = 0;
        while head < arena.queue.len() {
            let y = arena.queue[head];
            head += 1;
            for &x in &adj[adj_off[y as usize] as usize..adj_off[y as usize + 1] as usize] {
                if side.is_right(x) || arena.seen[x as usize] == epoch {
                    continue;
                }
                arena.seen[x as usize] = epoch;
                arena.prev[x as usize] = y;
                let next = mate[x as usize];
                if next == NONE {
                    // augment along the stored path
                    let mut x = x;
                    loop {
                        let y = arena.prev[x as usize];
                        let continue_from = mate[y as usize];
                        mate[x as usize] = y;
                        mate[y as usize] = x;
                        flipped.push(x);
                        flipped.push(y);
                        if continue_from == NONE {
                            return true;
                        }
                        x = continue_from;
                    }
                }
                arena.queue.push(next);
            }
        }
        false
    }

    /// Classifies all vertices into winners (`Even` sets), forced losers
    /// (`Odd` sets) and the residual `B'` (paper §3, Figure 3), writing
    /// into `out` (cleared first). `O(|V| + |E|)`.
    ///
    /// The classification is independent of which maximum matching is
    /// maintained (Hasan–Liu \[17\], paper footnote 4).
    pub fn classify_into(&mut self, out: &mut SplitClassification) {
        out.clear();
        let n = self.len();
        let mut status = vec![Status::Unreached; n];
        // Take the queue out of the arena so the BFS below can borrow
        // `self` immutably for adjacency/side/mate reads.
        let mut queue = std::mem::take(&mut self.arena.queue);

        // BFS from unmatched L vertices: Even(L) winners, Odd(L) losers
        queue.clear();
        for v in 0..n as u32 {
            if !self.side.is_right(v) && self.mate[v as usize] == NONE {
                status[v as usize] = Status::EvenL;
                queue.push(v);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            for &y in self.nbrs(x) {
                if !self.side.is_right(y) {
                    continue;
                }
                if status[y as usize] != Status::Unreached {
                    continue;
                }
                status[y as usize] = Status::OddL;
                let x2 = self.mate[y as usize];
                debug_assert_ne!(
                    x2, NONE,
                    "unmatched R vertex reachable from unmatched L vertex: \
                     matching was not maximum"
                );
                if status[x2 as usize] == Status::Unreached {
                    status[x2 as usize] = Status::EvenL;
                    queue.push(x2);
                }
            }
        }

        // BFS from unmatched R vertices: Even(R) winners, Odd(R) losers
        queue.clear();
        for v in 0..n as u32 {
            if self.side.is_right(v) && self.mate[v as usize] == NONE {
                debug_assert_eq!(status[v as usize], Status::Unreached);
                status[v as usize] = Status::EvenR;
                queue.push(v);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let y = queue[head];
            head += 1;
            for &x in self.nbrs(y) {
                if self.side.is_right(x) {
                    continue;
                }
                if status[x as usize] != Status::Unreached {
                    debug_assert_ne!(
                        status[x as usize],
                        Status::EvenL,
                        "L vertex reachable from both unmatched sides: \
                         augmenting path missed"
                    );
                    continue;
                }
                status[x as usize] = Status::OddR;
                let y2 = self.mate[x as usize];
                debug_assert_ne!(y2, NONE);
                if status[y2 as usize] == Status::Unreached {
                    status[y2 as usize] = Status::EvenR;
                    queue.push(y2);
                }
            }
        }
        self.arena.queue = queue;

        for v in 0..n as u32 {
            match status[v as usize] {
                Status::EvenL => out.winners_l.push(v),
                Status::EvenR => out.winners_r.push(v),
                Status::OddL | Status::OddR => out.losers.push(v),
                Status::Unreached => {
                    if self.side.is_right(v) {
                        out.bprime_r.push(v);
                    } else {
                        out.bprime_l.push(v);
                    }
                }
            }
        }
    }

    /// Convenience wrapper allocating a fresh [`SplitClassification`].
    pub fn classify(&mut self) -> SplitClassification {
        let mut out = SplitClassification::default();
        self.classify_into(&mut out);
        out
    }

    /// Checks that the maintained matching is a valid matching over the
    /// current crossing edges (test/debug helper).
    pub fn matching_is_valid(&self) -> bool {
        let mut count = 0usize;
        for v in 0..self.len() as u32 {
            let m = self.mate[v as usize];
            if m == NONE {
                continue;
            }
            count += 1;
            if self.mate[m as usize] != v {
                return false;
            }
            if self.side.is_right(v) == self.side.is_right(m) {
                return false;
            }
            if !self.nbrs(v).contains(&m) {
                return false;
            }
        }
        count == 2 * self.matching
    }
}

/// Parent sentinel of an [`AltForest`]: the net is not in the forest.
const OUT: u32 = u32::MAX;
/// Parent sentinel of an [`AltForest`]: the net is a root (an unmatched
/// net on the forest's root side). Never a net index, since
/// [`SplitMatcher::new`] keeps every index below `u32::MAX - 1`.
const ROOT: u32 = u32::MAX - 1;

/// One alternating-reachability forest of `B`: every net reachable by an
/// alternating path from an unmatched net on the root side, each holding
/// one parent pointer that witnesses its path.
///
/// Root-side members are the *even* nets (`Even(L)` for the forest grown
/// from `L`): a root, or the mate of their parent. Other-side members are
/// the *odd* nets (`Odd(L)`), whose parent is a crossing-edge neighbor.
/// The forest's arcs are therefore `even → crossing neighbor` and
/// `odd → mate`, and every arc one move changes has its head in
/// `{moved} ∪ N(moved) ∪ mates_changed`.
#[derive(Clone, Debug)]
struct AltForest {
    /// `true` for the forest grown from the unmatched `R` nets.
    root_right: bool,
    /// Parent of every net: [`ROOT`], [`OUT`], or the net's predecessor
    /// on its alternating path. Invariant after every refresh: an even
    /// member's parent is its current mate (`ROOT` iff unmatched), an odd
    /// member's parent is an even member on the root side.
    par: Vec<u32>,
    /// Nets cut loose by the current refresh, in cut order.
    orphans: Vec<u32>,
    /// Nets (re-)attached by the current refresh, in attach order; also
    /// the queue of the forward BFS.
    queue: Vec<u32>,
}

impl AltForest {
    fn new(n: usize, root_right: bool) -> Self {
        // all nets start unmatched on L: the L forest is all roots
        let all = if root_right { OUT } else { ROOT };
        AltForest {
            root_right,
            par: vec![all; n],
            orphans: Vec::new(),
            queue: Vec::new(),
        }
    }

    #[inline]
    fn contains(&self, u: u32) -> bool {
        self.par[u as usize] != OUT
    }

    /// Whether `u` sits on this forest's root side right now.
    #[inline]
    fn is_even(&self, m: &SplitMatcher, u: u32) -> bool {
        m.side.is_right(u) == self.root_right
    }

    /// Brings the forest up to date with the move `delta` and appends
    /// every net whose membership may have changed to `touched`. Returns
    /// the number of nets visited: candidates checked, orphaned, and
    /// (re-)attached or grown.
    fn refresh(&mut self, m: &SplitMatcher, delta: &MoveDelta, touched: &mut Vec<u32>) -> u64 {
        let v = delta.moved;
        self.orphans.clear();
        self.queue.clear();

        // 1. Cut every broken parent link and dead root. The moved net
        //    changed side, so its old children are enumerated by its
        //    pre-move side `L`; its neighbors' only changed arcs are
        //    the ones to it, so they fall with its subtree. Every other
        //    changed arc is a mate change: an odd member's parent arc
        //    does not depend on the matching, an even member's does.
        if self.contains(v) {
            self.cut(m, v, !self.root_right);
        }
        for &u in &delta.mates_changed {
            if u == v || !self.contains(u) || !self.is_even(m, u) {
                continue;
            }
            let mate = m.mate[u as usize];
            let p = self.par[u as usize];
            let intact = if p == ROOT { mate == NONE } else { p == mate };
            if !intact {
                self.cut(m, u, true);
            }
        }

        // 2. Re-attach what has an in-arc from the surviving forest: the
        //    moved net, new roots and new mates of the mate changes, and
        //    the orphans. An odd candidate outside the forest gained no
        //    in-arc (its in-arcs come from crossing neighbors, unchanged
        //    unless through the moved net, which step 3 grows from).
        self.attach(m, v);
        for &u in &delta.mates_changed {
            if u != v && !self.contains(u) && self.is_even(m, u) {
                self.attach(m, u);
            }
        }
        for i in 0..self.orphans.len() {
            let u = self.orphans[i];
            if !self.contains(u) {
                self.attach(m, u);
            }
        }

        // 3. Grow forward from everything attached, entering only nets
        //    not yet reached.
        let mut head = 0;
        while head < self.queue.len() {
            let w = self.queue[head];
            head += 1;
            if self.is_even(m, w) {
                for &c in m.nbrs(w) {
                    if m.side.is_right(c) != self.root_right && !self.contains(c) {
                        self.par[c as usize] = w;
                        self.queue.push(c);
                    }
                }
            } else {
                let c = m.mate[w as usize];
                debug_assert_ne!(
                    c, NONE,
                    "unmatched net reachable from an unmatched net on the other side: \
                     matching was not maximum"
                );
                if !self.contains(c) {
                    self.par[c as usize] = w;
                    self.queue.push(c);
                }
            }
        }

        touched.extend_from_slice(&self.orphans);
        touched.extend_from_slice(&self.queue);
        (1 + delta.mates_changed.len() + self.orphans.len() + self.queue.len()) as u64
    }

    /// Removes member `u` and its whole subtree, appending them to the
    /// orphan list. `even` is `u`'s role in the forest, given separately
    /// because the moved net's role comes from its pre-move side; every
    /// descendant's role is read off its current side.
    fn cut(&mut self, m: &SplitMatcher, u: u32, even: bool) {
        let mut i = self.orphans.len();
        self.par[u as usize] = OUT;
        self.orphans.push(u);
        while i < self.orphans.len() {
            let w = self.orphans[i];
            let w_even = if w == u { even } else { self.is_even(m, w) };
            i += 1;
            if w_even {
                for &c in m.nbrs(w) {
                    if self.par[c as usize] == w {
                        self.par[c as usize] = OUT;
                        self.orphans.push(c);
                    }
                }
            } else {
                // An odd net's only child is its mate. A child whose
                // mate changed is a candidate itself and is cut there.
                let c = m.mate[w as usize];
                if c != NONE && self.par[c as usize] == w {
                    self.par[c as usize] = OUT;
                    self.orphans.push(c);
                }
            }
        }
    }

    /// Attaches non-member `u` if it has an in-arc from a member: as a
    /// root if it is an unmatched even net, under its mate if it is a
    /// matched even net, under any even crossing neighbor if it is odd.
    fn attach(&mut self, m: &SplitMatcher, u: u32) {
        let p = if self.is_even(m, u) {
            let mate = m.mate[u as usize];
            if mate == NONE {
                ROOT
            } else if self.contains(mate) {
                mate
            } else {
                return;
            }
        } else {
            match m
                .nbrs(u)
                .iter()
                .find(|&&x| m.side.is_right(x) == self.root_right && self.contains(x))
            {
                Some(&x) => x,
                None => return,
            }
        };
        self.par[u as usize] = p;
        self.queue.push(u);
    }
}

/// Incrementally-maintained winner/loser classification of every net,
/// updated per split from two maintained alternating-reachability forests
/// instead of re-running the alternating BFS (paper Figure 3) from
/// scratch.
///
/// One forest is grown from the unmatched `L` nets (`Even(L)` winners and
/// `Odd(L)` losers), the other from the unmatched `R` nets (`Even(R)`,
/// `Odd(R)`); a net in neither forest is a matched member of `B'`. The two
/// are disjoint whenever the matching is maximum. A move changes only
/// arcs whose head is the moved net, one of its neighbors or a net whose
/// mate changed ([`MoveDelta::mates_changed`]), so a refresh cuts away
/// only the subtrees hanging off broken parent links, re-attaches what
/// still has an in-arc from the surviving forest, and grows forward into
/// nets not yet reached (`DESIGN.md` §11). The work is the summed degree
/// of the candidate, orphaned and attached nets — small on netlists, but
/// not worst-case `O(Δ)`: an orphaned subtree that re-attaches is
/// visited without changing class. [`visited`](Self::visited) counts it.
///
/// # Example
///
/// ```
/// use np_core::igmatch::{NetClass, NetClassifier, SplitMatcher};
///
/// let neighbors = vec![vec![1], vec![0, 2], vec![1]];
/// let mut m = SplitMatcher::new(&neighbors);
/// let mut c = NetClassifier::new(m.len());
/// let mut changes = Vec::new();
/// let delta = m.move_to_r(1);
/// c.refresh(&m, &delta, &mut changes);
/// assert_eq!(c.class_of(1), NetClass::Loser);
/// assert_eq!(c.classes(), m.classify().net_classes(3).as_slice());
/// ```
#[derive(Clone, Debug)]
pub struct NetClassifier {
    /// Current class of every net, derived from forest membership.
    class: Vec<NetClass>,
    /// The forest grown from the unmatched `L` nets.
    from_l: AltForest,
    /// The forest grown from the unmatched `R` nets.
    from_r: AltForest,
    /// Nets whose membership the current refresh may have changed.
    touched: Vec<u32>,
    visited: u64,
}

impl NetClassifier {
    /// Classifier for `n` nets in the initial all-`L` state, where every
    /// net is an unmatched `Even(L)` winner.
    pub fn new(n: usize) -> Self {
        NetClassifier {
            class: vec![NetClass::WinnerL; n],
            from_l: AltForest::new(n, false),
            from_r: AltForest::new(n, true),
            touched: Vec::new(),
            visited: 0,
        }
    }

    /// Current class of net `v`.
    pub fn class_of(&self, v: u32) -> NetClass {
        self.class[v as usize]
    }

    /// Current class of every net.
    pub fn classes(&self) -> &[NetClass] {
        &self.class
    }

    /// Nets visited by every refresh so far, summed over both forests:
    /// candidates checked, orphaned, re-attached and grown. A
    /// deterministic work counter — the same moves always give the same
    /// count.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Updates the classification after `matcher` performed the move
    /// described by `delta`, appending every reclassified net to
    /// `changes` (cleared first).
    ///
    /// Both forests are repaired around the nets `delta` names; only
    /// nets that leave or (re-)enter a forest, plus the moved net, are
    /// reclassified.
    ///
    /// # Panics
    ///
    /// Panics if `matcher` tracks a different net count than this
    /// classifier was built for.
    pub fn refresh(
        &mut self,
        matcher: &SplitMatcher,
        delta: &MoveDelta,
        changes: &mut Vec<NetClassChange>,
    ) {
        assert_eq!(matcher.len(), self.class.len(), "net count mismatch");
        changes.clear();
        self.touched.clear();
        self.touched.push(delta.moved);
        self.visited += self.from_l.refresh(matcher, delta, &mut self.touched);
        self.visited += self.from_r.refresh(matcher, delta, &mut self.touched);
        for i in 0..self.touched.len() {
            let u = self.touched[i];
            let in_l = self.from_l.contains(u);
            let in_r = self.from_r.contains(u);
            debug_assert!(
                !(in_l && in_r),
                "net {u} in both alternating forests: augmenting path missed"
            );
            let right = matcher.side.is_right(u);
            let new = match (in_l, in_r, right) {
                (true, _, false) => NetClass::WinnerL,
                (_, true, true) => NetClass::WinnerR,
                (true, _, true) | (_, true, false) => NetClass::Loser,
                (false, false, _) => {
                    debug_assert_ne!(matcher.mate[u as usize], NONE);
                    if right {
                        NetClass::BPrimeR
                    } else {
                        NetClass::BPrimeL
                    }
                }
            };
            // a net touched twice is recorded once: the second call sees
            // its class already current
            let old = self.class[u as usize];
            if old != new {
                self.class[u as usize] = new;
                changes.push(NetClassChange { net: u, old, new });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force maximum matching size over the crossing edges, for
    /// validating the incremental maintenance.
    fn brute_force_mm(neighbors: &[Vec<u32>], in_r: &[bool]) -> usize {
        fn try_kuhn(
            x: u32,
            neighbors: &[Vec<u32>],
            in_r: &[bool],
            seen: &mut [bool],
            mate: &mut [u32],
        ) -> bool {
            for &y in &neighbors[x as usize] {
                if !in_r[y as usize] || seen[y as usize] {
                    continue;
                }
                seen[y as usize] = true;
                if mate[y as usize] == NONE
                    || try_kuhn(mate[y as usize], neighbors, in_r, seen, mate)
                {
                    mate[y as usize] = x;
                    return true;
                }
            }
            false
        }
        let n = neighbors.len();
        let mut mate = vec![NONE; n];
        let mut size = 0;
        for x in 0..n as u32 {
            if in_r[x as usize] {
                continue;
            }
            let mut seen = vec![false; n];
            if try_kuhn(x, neighbors, in_r, &mut seen, &mut mate) {
                size += 1;
            }
        }
        size
    }

    fn path_graph(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i as u32 - 1);
                }
                if i + 1 < n {
                    v.push(i as u32 + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn empty_r_side_no_matching() {
        let nb = path_graph(4);
        let mut m = SplitMatcher::new(&nb);
        assert_eq!(m.matching_size(), 0);
        let c = m.classify();
        assert_eq!(c.winners_l.len(), 4);
        assert!(c.losers.is_empty());
    }

    #[test]
    fn single_move_matches_crossing_edge() {
        let nb = path_graph(3);
        let mut m = SplitMatcher::new(&nb);
        m.move_to_r(1);
        assert_eq!(m.matching_size(), 1);
        assert!(m.matching_is_valid());
        // net 1 (R) is matched to 0 or 2; the other L net is a free winner
        let c = m.classify();
        assert_eq!(c.losers.len(), 1);
        assert_eq!(c.winners_l.len() + c.winners_r.len(), 2);
    }

    #[test]
    fn incremental_matches_brute_force_on_path() {
        let nb = path_graph(9);
        let mut m = SplitMatcher::new(&nb);
        let mut in_r = vec![false; 9];
        for v in [4u32, 1, 7, 0, 8, 3] {
            m.move_to_r(v);
            in_r[v as usize] = true;
            assert!(m.matching_is_valid());
            assert_eq!(
                m.matching_size(),
                brute_force_mm(&nb, &in_r),
                "after moving {v}"
            );
        }
    }

    #[test]
    fn incremental_matches_brute_force_on_dense_graph() {
        // complete graph K7 as intersection graph
        let n = 7;
        let nb: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..n as u32).filter(|&j| j != i as u32).collect())
            .collect();
        let mut m = SplitMatcher::new(&nb);
        let mut in_r = vec![false; n];
        for v in 0..n as u32 - 1 {
            m.move_to_r(v);
            in_r[v as usize] = true;
            assert!(m.matching_is_valid());
            assert_eq!(m.matching_size(), brute_force_mm(&nb, &in_r));
        }
    }

    #[test]
    fn classification_winners_are_independent() {
        // star: center 0 adjacent to 1..5
        let mut nb = vec![vec![1, 2, 3, 4, 5]];
        for _ in 0..5 {
            nb.push(vec![0]);
        }
        let mut m = SplitMatcher::new(&nb);
        m.move_to_r(0);
        assert_eq!(m.matching_size(), 1);
        let c = m.classify();
        // center is the unique loser; all leaves are winners
        assert_eq!(c.losers, vec![0]);
        assert_eq!(c.winners_l.len(), 5);
        assert!(c.winners_r.is_empty());
    }

    #[test]
    fn bprime_appears_when_no_free_vertices_reach_pairs() {
        // two disjoint crossing edges, all four vertices matched, no free
        // vertices anywhere: everything matched lands in B'
        let nb = vec![vec![1], vec![0], vec![3], vec![2]];
        let mut m = SplitMatcher::new(&nb);
        m.move_to_r(1);
        m.move_to_r(3);
        assert_eq!(m.matching_size(), 2);
        let c = m.classify();
        assert!(c.winners_l.is_empty());
        assert!(c.winners_r.is_empty());
        assert!(c.losers.is_empty());
        assert_eq!(c.bprime_l, vec![0, 2]);
        assert_eq!(c.bprime_r, vec![1, 3]);
    }

    #[test]
    fn losers_bounded_by_matching() {
        let nb = path_graph(12);
        let mut m = SplitMatcher::new(&nb);
        for v in [5u32, 2, 9, 0, 7, 11, 4] {
            m.move_to_r(v);
            let c = m.classify();
            assert!(
                c.losers.len() + c.bprime_l.len().min(c.bprime_r.len()) <= m.matching_size(),
                "after {v}: losers {} bprime {}/{} mm {}",
                c.losers.len(),
                c.bprime_l.len(),
                c.bprime_r.len(),
                m.matching_size()
            );
        }
    }

    #[test]
    fn classification_partitions_all_vertices() {
        let nb = path_graph(10);
        let mut m = SplitMatcher::new(&nb);
        for v in [3u32, 6, 1, 8] {
            m.move_to_r(v);
            let c = m.classify();
            let total = c.winners_l.len()
                + c.winners_r.len()
                + c.losers.len()
                + c.bprime_l.len()
                + c.bprime_r.len();
            assert_eq!(total, 10);
        }
    }

    #[test]
    #[should_panic(expected = "already on the R side")]
    fn double_move_panics() {
        let nb = path_graph(3);
        let mut m = SplitMatcher::new(&nb);
        m.move_to_r(1);
        m.move_to_r(1);
    }

    #[test]
    fn full_sweep_ends_with_empty_l() {
        let nb = path_graph(6);
        let mut m = SplitMatcher::new(&nb);
        for v in 0..6u32 {
            m.move_to_r(v);
        }
        assert_eq!(m.matching_size(), 0); // everything on R, B empty
        let c = m.classify();
        assert_eq!(c.winners_r.len(), 6);
    }

    /// Applies `moves` to `m` and `c`, checking the classifier against the
    /// from-scratch oracle after every move.
    fn drive(m: &mut SplitMatcher, c: &mut NetClassifier, moves: &[u32]) -> MoveDelta {
        let mut delta = MoveDelta::default();
        let mut changes = Vec::new();
        for &v in moves {
            m.move_to_r_into(v, &mut delta);
            c.refresh(m, &delta, &mut changes);
            assert_eq!(
                c.classes(),
                m.classify().net_classes(m.len()).as_slice(),
                "classifier diverged from the oracle after moving {v}"
            );
        }
        delta
    }

    #[test]
    fn deep_orphaned_subtree_reattaches_through_another_parent() {
        // L roots 0 and 1 both reach R net 2; below it hangs the
        // alternating chain 2 -mate- 3 - 4 -mate- 5
        let nb = vec![
            vec![2],
            vec![2],
            vec![3, 0, 1],
            vec![2, 4],
            vec![5, 3],
            vec![4],
        ];
        let mut m = SplitMatcher::new(&nb);
        let mut c = NetClassifier::new(m.len());
        drive(&mut m, &mut c, &[2, 4]);
        assert_eq!(m.mate_of(2), Some(3));
        assert_eq!(m.mate_of(4), Some(5));
        assert_eq!(c.from_l.par[..6], [ROOT, ROOT, 0, 2, 3, 4]);
        // moving root 0 orphans the whole chain, which survives under 1
        drive(&mut m, &mut c, &[0]);
        assert_eq!(c.from_l.par[1..6], [ROOT, 1, 2, 3, 4]);
        assert_eq!(c.from_l.orphans, [0, 2, 3, 4, 5]);
        assert_eq!(c.class_of(0), NetClass::WinnerR);
        assert_eq!(c.class_of(5), NetClass::WinnerL);
    }

    #[test]
    fn free_root_matched_at_the_end_of_an_augmenting_path() {
        // path 2 - 1 - 0 - 3: after moving 1, net 2 is a free L root
        let nb = vec![vec![1, 3], vec![0, 2], vec![1], vec![0]];
        let mut m = SplitMatcher::new(&nb);
        let mut c = NetClassifier::new(m.len());
        drive(&mut m, &mut c, &[1]);
        assert_eq!(m.mate_of(1), Some(0));
        assert_eq!(c.from_l.par[2], ROOT);
        assert_eq!(c.from_l.par[1], 2);
        // moving 3 augments 3-0-1-2: the root's tree dies with it
        let delta = drive(&mut m, &mut c, &[3]);
        assert_eq!(delta.mates_changed.last(), Some(&3));
        assert!(delta.mates_changed.contains(&2));
        assert_eq!(m.mate_of(2), Some(1));
        assert_eq!(m.matching_size(), 2);
        assert!((0..4).all(|u| !c.from_l.contains(u) && !c.from_r.contains(u)));
        assert_eq!(c.class_of(2), NetClass::BPrimeL);
    }

    #[test]
    fn detached_ex_partner_re_augments() {
        // 0 - 1 - 2 with 1 - 3: moving 1 matches it to 0; moving 0 then
        // exposes 1, which re-matches to 2 while free root 3 still
        // reaches it
        let nb = vec![vec![1], vec![0, 2, 3], vec![1], vec![1]];
        let mut m = SplitMatcher::new(&nb);
        let mut c = NetClassifier::new(m.len());
        drive(&mut m, &mut c, &[1]);
        assert_eq!(m.mate_of(1), Some(0));
        let delta = drive(&mut m, &mut c, &[0]);
        assert_eq!(delta.detached, Some(1));
        assert_eq!(m.mate_of(1), Some(2));
        // 3 is still a free L root; 1 is its odd child, 2 the even below
        assert_eq!(c.from_l.par[3], ROOT);
        assert_eq!(c.from_l.par[1], 3);
        assert_eq!(c.from_l.par[2], 1);
        assert_eq!(c.class_of(0), NetClass::WinnerR);
        assert_eq!(c.class_of(1), NetClass::Loser);
    }

    #[test]
    fn moved_even_root_with_children() {
        // root 0 reaches R net 1, matched to 3; moving 0 leaves no free
        // L net, so its old subtree drops into B'
        let nb = vec![vec![1], vec![3, 0], vec![], vec![1]];
        let mut m = SplitMatcher::new(&nb);
        let mut c = NetClassifier::new(m.len());
        drive(&mut m, &mut c, &[1]);
        assert_eq!(c.from_l.par[..4], [ROOT, 0, ROOT, 1]);
        drive(&mut m, &mut c, &[0]);
        assert_eq!(c.from_l.orphans, [0, 1, 3]);
        assert_eq!(c.from_r.par[0], ROOT);
        assert_eq!(c.class_of(0), NetClass::WinnerR);
        assert_eq!(c.class_of(1), NetClass::BPrimeR);
        assert_eq!(c.class_of(3), NetClass::BPrimeL);
    }

    #[test]
    fn classifier_matches_oracle_on_deep_alternating_paths() {
        // every other net of a long path first, then the rest: the
        // alternating trees run the length of the path
        let n = 41u32;
        let nb = path_graph(n as usize);
        let mut m = SplitMatcher::new(&nb);
        let mut c = NetClassifier::new(m.len());
        let order: Vec<u32> = (1..n).step_by(2).chain((0..n).step_by(2)).collect();
        drive(&mut m, &mut c, &order[..order.len() - 1]);
        assert!(c.visited() > 0);
    }
}
