//! # synthir-sat
//!
//! A small, dependency-free CDCL SAT solver, built for the miter-based
//! equivalence checks in `synthir-sim`.
//!
//! Every equivalence check is decided by a SAT solver over a Tseitin
//! encoding of the miter, at any interface width. This crate provides
//! exactly the solver core that workflow needs — nothing more:
//!
//! * two-watched-literal unit propagation with blocking literals; a binary
//!   clause's watcher carries its other literal, so propagating it never
//!   reads the clause body,
//! * every clause in one flat arena (`Vec<u32>`: a header word, the
//!   literals, a learned clause's activity), compacted when learned
//!   clauses are deleted, so no clause owns an allocation of its own,
//! * first-UIP conflict analysis with local clause minimization, walking
//!   reason clauses in place,
//! * VSIDS-style variable activities with exponential decay,
//! * phase saving and Luby-sequence restarts,
//! * activity-based learned-clause database reduction,
//! * an optional conflict budget ([`Solver::solve_limited`]),
//! * search counters ([`Solver::stats`]) and model extraction for
//!   counterexample decoding.
//!
//! The search is deterministic and pinned: `tests/search_pin.rs` fixes the
//! conflicts, decisions, propagations and a model hash over a seeded
//! corpus, so a change to the data layout must leave them equal.
//!
//! ## Example
//!
//! ```
//! use synthir_sat::{Lit, SatResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a | b) & (!a | b) & (a | !b)  =>  a & b
//! s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
//! s.add_clause(&[Lit::negative(a), Lit::positive(b)]);
//! s.add_clause(&[Lit::positive(a), Lit::negative(b)]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! assert!(s.model_value(Lit::positive(a)));
//! assert!(s.model_value(Lit::positive(b)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A boolean variable of a [`Solver`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// The variable's dense index (`0..Solver::num_vars()`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
///
/// Negation is `!lit`; the encoding is the usual `var << 1 | sign` so
/// literals index watch lists densely.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn positive(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn negative(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// A literal of `v` with the given polarity (`true` = negated).
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit(v.0 << 1 | u32::from(negated))
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is the negation of its variable.
    pub fn is_negated(self) -> bool {
        self.0 & 1 != 0
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// The verdict of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment exists (read it with
    /// [`Solver::model_value`]).
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
}

/// Search counters of a [`Solver`], summed over all its `solve` calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Stats {
    /// Conflicts reached.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Trail literals propagated (each literal's watch list walked once).
    pub propagations: u64,
}

const NO_REASON: u32 = u32::MAX;
const LEVEL_NONE: u32 = u32::MAX;

/// Header bit of a learned clause (followed by its activity).
const LEARNED: u32 = 1;
/// Header bit of a clause `reduce_db` is about to drop.
const DELETED: u32 = 2;
/// The literal count sits above the two flag bits.
const LEN_SHIFT: u32 = 2;

/// A clause: the offset of its header word in the solver's arena.
type CRef = u32;

/// A watch-list entry.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// The clause's [`CRef`] shifted left once; the low bit marks a binary
    /// clause.
    tagged: u32,
    /// Any other literal of the clause; if it is already true the clause is
    /// satisfied and the watch list walk can skip the clause body entirely.
    /// A binary clause's blocker is its other literal, so propagating it
    /// never reads the clause body.
    blocker: Lit,
}

impl Watcher {
    fn new(cref: CRef, binary: bool, blocker: Lit) -> Watcher {
        Watcher {
            tagged: cref << 1 | u32::from(binary),
            blocker,
        }
    }

    fn cref(self) -> CRef {
        self.tagged >> 1
    }

    fn is_binary(self) -> bool {
        self.tagged & 1 != 0
    }
}

/// The clause a propagation conflict falsified.
#[derive(Clone, Copy, Debug)]
enum Conflict {
    /// A clause of three or more literals, read from the arena.
    Long(CRef),
    /// A binary clause and its literals in conflict order: the watch
    /// list's blocker, then the literal whose list was walked.
    Binary(CRef, [Lit; 2]),
}

/// Assignment of a variable: `0` unassigned, `1` true, `-1` false.
type Assign = i8;

fn lit_val(assign: &[Assign], l: Lit) -> i8 {
    let a = assign[l.var().index()];
    if l.is_negated() {
        -a
    } else {
        a
    }
}

/// An indexed binary max-heap over variable activities (the VSIDS decision
/// order).
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `-1` if absent.
    pos: Vec<i32>,
}

impl VarHeap {
    fn grow_to(&mut self, n: usize) {
        self.pos.resize(n, -1);
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] >= 0
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn bumped(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize] as usize, act);
        }
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = -1;
        let last = self.heap.pop().expect("nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[largest] as usize]
            {
                largest = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[largest] as usize]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as i32;
        self.pos[self.heap[j] as usize] = j as i32;
    }
}

/// A CDCL SAT solver.
///
/// Usage: create variables with [`Solver::new_var`], add clauses with
/// [`Solver::add_clause`] (at decision level zero, i.e. before or between
/// `solve` calls), then call [`Solver::solve`]. After
/// [`SatResult::Sat`], [`Solver::model_value`] reads the satisfying
/// assignment.
#[derive(Debug, Default)]
pub struct Solver {
    /// Every clause back to back: a header word (`len << LEN_SHIFT` plus
    /// the flag bits), the literals, and for a learned clause its `f64`
    /// activity in two words. `reduce_db` compacts it.
    arena: Vec<u32>,
    /// Clauses attached so far, deleted ones included: each `solve` starts
    /// its learned-clause limit at a third of this.
    attached: usize,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<Assign>,
    level: Vec<u32>,
    reason: Vec<CRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    model: Vec<bool>,
    ok: bool,
    num_learned: usize,
    stats: Stats,
    /// Scratch for `add_clause`'s normalized literals.
    scratch: Vec<Lit>,
    /// Scratch for the clause `analyze` learns.
    learnt: Vec<Lit>,
    /// Scratch for the variables `analyze` marks seen.
    to_clear: Vec<Var>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(0);
        self.level.push(LEVEL_NONE);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow_to(self.assign.len());
        self.heap.insert(v.0, &self.activity);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// The search counters, summed over all `solve` calls so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Must be called at decision level zero. Returns `false` if the solver
    /// state is already known unsatisfiable (including when this clause
    /// makes it so); further `add_clause`/`solve` calls then keep returning
    /// `false`/`Unsat`.
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable was not created by this solver.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(self.trail_lim.is_empty(), "add_clause above level 0");
        if !self.ok {
            return false;
        }
        let mut keep = std::mem::take(&mut self.scratch);
        let ok = if self.normalize(lits, &mut keep) {
            match keep.len() {
                0 => {
                    self.ok = false;
                    false
                }
                1 => {
                    self.unchecked_enqueue(keep[0], NO_REASON);
                    self.ok = self.propagate().is_none();
                    self.ok
                }
                _ => {
                    self.attach(&keep, false);
                    true
                }
            }
        } else {
            true
        };
        self.scratch = keep;
        ok
    }

    /// Sorts and dedups `lits` into `keep`, dropping literals false at
    /// level 0. Returns `false` for a tautology (`x | !x`) or a clause
    /// already satisfied at level 0, which need not be added.
    fn normalize(&self, lits: &[Lit], keep: &mut Vec<Lit>) -> bool {
        keep.clear();
        keep.extend_from_slice(lits);
        keep.sort_unstable();
        keep.dedup();
        let mut prev: Option<Lit> = None;
        let mut j = 0;
        for i in 0..keep.len() {
            let l = keep[i];
            assert!(l.var().index() < self.num_vars(), "unknown variable");
            if prev == Some(!l) {
                return false;
            }
            match lit_val(&self.assign, l) {
                1 => return false,
                -1 => {}
                _ => {
                    keep[j] = l;
                    j += 1;
                }
            }
            prev = Some(l);
        }
        keep.truncate(j);
        true
    }

    fn attach(&mut self, lits: &[Lit], learned: bool) -> CRef {
        // A watcher keeps the offset in 31 bits.
        assert!(self.arena.len() < 1 << 31, "clause arena full");
        let cref = self.arena.len() as CRef;
        let binary = lits.len() == 2;
        self.arena
            .push((lits.len() as u32) << LEN_SHIFT | if learned { LEARNED } else { 0 });
        self.arena.extend(lits.iter().map(|l| l.0));
        if learned {
            self.arena.extend([0, 0]);
            self.num_learned += 1;
        }
        self.watches[lits[0].code()].push(Watcher::new(cref, binary, lits[1]));
        self.watches[lits[1].code()].push(Watcher::new(cref, binary, lits[0]));
        self.attached += 1;
        cref
    }

    fn clause_len(&self, cref: CRef) -> usize {
        (self.arena[cref as usize] >> LEN_SHIFT) as usize
    }

    fn is_learned(&self, cref: CRef) -> bool {
        self.arena[cref as usize] & LEARNED != 0
    }

    /// Literal `k` of a clause.
    fn clause_lit(&self, cref: CRef, k: usize) -> Lit {
        Lit(self.arena[cref as usize + 1 + k])
    }

    /// Arena index of a learned clause's activity (low word first).
    fn activity_at(&self, cref: CRef) -> usize {
        cref as usize + 1 + self.clause_len(cref)
    }

    fn clause_activity(&self, cref: CRef) -> f64 {
        let at = self.activity_at(cref);
        f64::from_bits(u64::from(self.arena[at]) | u64::from(self.arena[at + 1]) << 32)
    }

    fn set_clause_activity(&mut self, cref: CRef, a: f64) {
        let at = self.activity_at(cref);
        let bits = a.to_bits();
        self.arena[at] = bits as u32;
        self.arena[at + 1] = (bits >> 32) as u32;
    }

    /// The clause after `cref` in the arena.
    fn next_clause(&self, cref: CRef) -> CRef {
        let header = self.arena[cref as usize];
        cref + 1 + (header >> LEN_SHIFT) + if header & LEARNED != 0 { 2 } else { 0 }
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_limited(u64::MAX)
            .expect("an unlimited search always answers")
    }

    /// [`Solver::solve`] within a budget of `max_conflicts` conflicts:
    /// `None` when the budget runs out before an answer. The solver stays
    /// usable; a later call resumes with everything learned so far.
    pub fn solve_limited(&mut self, max_conflicts: u64) -> Option<SatResult> {
        if !self.ok {
            return Some(SatResult::Unsat);
        }
        if self.propagate().is_some() {
            self.ok = false;
            return Some(SatResult::Unsat);
        }
        let stop = self.stats.conflicts.saturating_add(max_conflicts);
        let mut restarts = 0u32;
        let mut max_learned = (self.attached / 3).max(1000);
        loop {
            let left = stop.saturating_sub(self.stats.conflicts);
            if left == 0 {
                return None;
            }
            let budget = (64 * luby(restarts)).min(left);
            match self.search(budget, &mut max_learned) {
                Some(res) => {
                    if res == SatResult::Unsat {
                        self.ok = false;
                    } else {
                        self.cancel_until(0);
                    }
                    return Some(res);
                }
                None => restarts += 1,
            }
        }
    }

    /// The model value of a literal after [`SatResult::Sat`].
    ///
    /// # Panics
    ///
    /// Panics if no model is available (before the first satisfiable
    /// `solve`).
    pub fn model_value(&self, l: Lit) -> bool {
        assert!(!self.model.is_empty(), "no model available");
        self.model[l.var().index()] ^ l.is_negated()
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn search(&mut self, budget: u64, max_learned: &mut usize) -> Option<SatResult> {
        let mut local_conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                local_conflicts += 1;
                if self.decision_level() == 0 {
                    return Some(SatResult::Unsat);
                }
                let back_level = self.analyze(confl);
                self.cancel_until(back_level);
                self.learn();
                self.decay_activities();
            } else {
                if local_conflicts >= budget {
                    self.cancel_until(0);
                    return None;
                }
                if self.num_learned > *max_learned {
                    self.reduce_db();
                    *max_learned += *max_learned / 2;
                }
                match self.pick_branch() {
                    None => {
                        // Everything assigned without conflict: a model.
                        self.model.clear();
                        self.model.extend(self.assign.iter().map(|&a| a == 1));
                        return Some(SatResult::Sat);
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assign[v as usize] == 0 {
                let var = Var(v);
                return Some(Lit::new(var, !self.phase[v as usize]));
            }
        }
        None
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: CRef) {
        let v = l.var().index();
        debug_assert_eq!(self.assign[v], 0);
        self.assign[v] = if l.is_negated() { -1 } else { 1 };
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("nonempty trail");
            let v = l.var().index();
            self.phase[v] = self.assign[v] == 1;
            self.assign[v] = 0;
            self.level[v] = LEVEL_NONE;
            self.reason[v] = NO_REASON;
            self.heap.insert(l.var().0, &self.activity);
        }
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    /// Unit propagation; returns the falsified clause, if any.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                let blocker = lit_val(&self.assign, w.blocker);
                if blocker == 1 {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                if w.is_binary() {
                    ws[j] = w;
                    j += 1;
                    if blocker == -1 {
                        conflict = Some(Conflict::Binary(w.cref(), [w.blocker, false_lit]));
                        break;
                    }
                    self.unchecked_enqueue(w.blocker, w.cref());
                    continue;
                }
                // Keep the false literal in slot 1; slot 0 is the other watch.
                let at = w.cref() as usize + 1;
                if self.arena[at] == false_lit.0 {
                    self.arena.swap(at, at + 1);
                }
                debug_assert_eq!(self.arena[at + 1], false_lit.0);
                let first = Lit(self.arena[at]);
                let w2 = Watcher::new(w.cref(), false, first);
                if first != w.blocker && lit_val(&self.assign, first) == 1 {
                    ws[j] = w2;
                    j += 1;
                    continue;
                }
                // Look for an unwatched non-false literal to take over.
                for k in at + 2..at + self.clause_len(w.cref()) {
                    if lit_val(&self.assign, Lit(self.arena[k])) != -1 {
                        self.arena.swap(at + 1, k);
                        self.watches[self.arena[at + 1] as usize].push(w2);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = w2;
                j += 1;
                if lit_val(&self.assign, first) == -1 {
                    conflict = Some(Conflict::Long(w.cref()));
                    break;
                }
                self.unchecked_enqueue(first, w.cref());
            }
            if conflict.is_some() {
                self.qhead = self.trail.len();
                while i < ws.len() {
                    ws[j] = ws[i];
                    j += 1;
                    i += 1;
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[false_lit.code()].is_empty());
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Marks `q`'s variable seen and bumps it, if it is not yet seen and
    /// not fixed at level 0: a current-level literal adds a path to resolve
    /// on, an earlier one joins the learned clause.
    fn analyze_lit(&mut self, q: Lit, current: u32, path: &mut u32) {
        let v = q.var();
        if !self.seen[v.index()] && self.level[v.index()] > 0 {
            self.seen[v.index()] = true;
            self.to_clear.push(v);
            self.bump_var(v);
            if self.level[v.index()] >= current {
                *path += 1;
            } else {
                self.learnt.push(q);
            }
        }
    }

    /// First-UIP conflict analysis into `self.learnt` (asserting literal
    /// first, highest-level other literal second). Returns the backtrack
    /// level. Walks the conflict and reason clauses in place.
    fn analyze(&mut self, confl: Conflict) -> usize {
        let current = self.decision_level() as u32;
        self.learnt.clear();
        self.learnt.push(Lit(0)); // slot 0: asserting literal
        let mut path = 0u32;
        let mut index = self.trail.len();
        let mut cref = match confl {
            Conflict::Long(c) | Conflict::Binary(c, _) => c,
        };
        if self.is_learned(cref) {
            self.bump_clause(cref);
        }
        match confl {
            Conflict::Binary(_, lits) => {
                for q in lits {
                    self.analyze_lit(q, current, &mut path);
                }
            }
            Conflict::Long(_) => {
                for k in 0..self.clause_len(cref) {
                    self.analyze_lit(self.clause_lit(cref, k), current, &mut path);
                }
            }
        }
        loop {
            // Next literal to resolve on: most recent seen trail entry.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var().index()] = false;
            path -= 1;
            if path == 0 {
                self.learnt[0] = !p;
                break;
            }
            cref = self.reason[p.var().index()];
            debug_assert_ne!(cref, NO_REASON);
            if self.is_learned(cref) {
                self.bump_clause(cref);
            }
            // The reason's literals other than `p` itself: a long clause
            // keeps its implied literal in slot 0, a binary clause is never
            // reordered.
            let len = self.clause_len(cref);
            if len == 2 {
                let first = self.clause_lit(cref, 0);
                let other = if first == p {
                    self.clause_lit(cref, 1)
                } else {
                    first
                };
                self.analyze_lit(other, current, &mut path);
            } else {
                for k in 1..len {
                    self.analyze_lit(self.clause_lit(cref, k), current, &mut path);
                }
            }
        }
        // Local minimization: drop literals whose entire reason is already
        // in the clause (or at level 0).
        let mut learnt = std::mem::take(&mut self.learnt);
        let mut j = 1;
        for i in 1..learnt.len() {
            let q = learnt[i];
            if self.is_needed(q) {
                learnt[j] = q;
                j += 1;
            }
        }
        learnt.truncate(j);
        for v in self.to_clear.drain(..) {
            self.seen[v.index()] = false;
        }
        // Backtrack level: highest level among the non-asserting literals;
        // that literal becomes the second watch.
        let back_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        self.learnt = learnt;
        back_level
    }

    /// Whether the learned-clause literal `q` must stay: it was decided, or
    /// its reason has a literal outside the clause above level 0.
    fn is_needed(&self, q: Lit) -> bool {
        let r = self.reason[q.var().index()];
        if r == NO_REASON {
            return true;
        }
        (0..self.clause_len(r))
            .map(|k| self.clause_lit(r, k))
            .filter(|x| x.var() != q.var())
            .any(|x| !self.seen[x.var().index()] && self.level[x.var().index()] > 0)
    }

    /// Adds the clause `analyze` just learned and asserts its first
    /// literal.
    fn learn(&mut self) {
        debug_assert!(!self.learnt.is_empty());
        let first = self.learnt[0];
        if self.learnt.len() == 1 {
            self.unchecked_enqueue(first, NO_REASON);
        } else {
            let learnt = std::mem::take(&mut self.learnt);
            let cref = self.attach(&learnt, true);
            self.learnt = learnt;
            self.bump_clause(cref);
            self.unchecked_enqueue(first, cref);
        }
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v.0, &self.activity);
    }

    fn bump_clause(&mut self, cref: CRef) {
        let a = self.clause_activity(cref) + self.cla_inc;
        self.set_clause_activity(cref, a);
        if a > 1e20 {
            let mut c = 0;
            while (c as usize) < self.arena.len() {
                if self.is_learned(c) {
                    let scaled = self.clause_activity(c) * 1e-20;
                    self.set_clause_activity(c, scaled);
                }
                c = self.next_clause(c);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Whether a clause is the reason of its first literal's assignment.
    fn is_locked(&self, cref: CRef) -> bool {
        let v = self.clause_lit(cref, 0).var().index();
        self.assign[v] != 0 && self.reason[v] == cref
    }

    /// Deletes the lower-activity half of the (unlocked, non-binary)
    /// learned clauses, then compacts the arena: surviving clauses keep
    /// their order, and watchers and reasons move with them.
    fn reduce_db(&mut self) {
        let mut candidates: Vec<(CRef, f64)> = Vec::new();
        let mut c = 0;
        while (c as usize) < self.arena.len() {
            if self.is_learned(c) && self.clause_len(c) > 2 && !self.is_locked(c) {
                candidates.push((c, self.clause_activity(c)));
            }
            c = self.next_clause(c);
        }
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        for &(c, _) in candidates.iter().take(candidates.len() / 2) {
            self.arena[c as usize] |= DELETED;
            self.num_learned -= 1;
        }
        // Copy the survivors and leave each old header holding its clause's
        // new offset (or `NO_REASON` if deleted) for the remapping below.
        let mut to = Vec::with_capacity(self.arena.len());
        let mut c = 0;
        while (c as usize) < self.arena.len() {
            let next = self.next_clause(c);
            self.arena[c as usize] = if self.arena[c as usize] & DELETED != 0 {
                NO_REASON
            } else {
                let moved = to.len() as CRef;
                to.extend_from_slice(&self.arena[c as usize..next as usize]);
                moved
            };
            c = next;
        }
        let old = std::mem::replace(&mut self.arena, to);
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                let moved = old[w.cref() as usize];
                if moved == NO_REASON {
                    return false;
                }
                w.tagged = moved << 1 | w.tagged & 1;
                true
            });
        }
        for l in &self.trail {
            let r = &mut self.reason[l.var().index()];
            if *r != NO_REASON {
                *r = old[*r as usize];
            }
        }
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(x: u32) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    let mut x = x as u64;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::positive(s.new_var())).collect()
    }

    #[test]
    fn literal_encoding() {
        let mut s = Solver::new();
        let v = s.new_var();
        let p = Lit::positive(v);
        assert_eq!(!p, Lit::negative(v));
        assert_eq!(!!p, p);
        assert_eq!(p.var(), v);
        assert!(!p.is_negated());
        assert!((!p).is_negated());
        assert_eq!(Lit::new(v, true), Lit::negative(v));
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let x = lits(&mut s, 3);
        s.add_clause(&[x[0], x[1]]);
        s.add_clause(&[!x[0]]);
        s.add_clause(&[!x[1], x[2]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.model_value(x[0]));
        assert!(s.model_value(x[1]));
        assert!(s.model_value(x[2]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let x = lits(&mut s, 1);
        s.add_clause(&[x[0]]);
        assert!(!s.add_clause(&[!x[0]]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        let mut s = Solver::new();
        let x = lits(&mut s, 2);
        assert!(s.add_clause(&[x[0], !x[0]]));
        assert!(s.add_clause(&[x[1], x[0], !x[1]]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn no_clauses_is_sat() {
        let mut s = Solver::new();
        let x = lits(&mut s, 4);
        assert_eq!(s.solve(), SatResult::Sat);
        // The model must cover every variable.
        for &l in &x {
            let _ = s.model_value(l);
        }
    }

    /// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes, UNSAT.
    /// Small but requires genuine conflict-driven search.
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| Lit::positive(s.new_var())).collect())
            .collect();
        for row in &x {
            s.add_clause(row);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause(&[!x[p1][h], !x[p2][h]]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=5 {
            let mut s = pigeonhole(n + 1, n);
            assert_eq!(s.solve(), SatResult::Unsat, "php({}, {n})", n + 1);
        }
    }

    /// A budget too small for a proof gives up without an answer; the
    /// solver then still finishes the proof.
    #[test]
    fn conflict_budget_gives_up_and_resumes() {
        let mut s = pigeonhole(6, 5);
        assert_eq!(s.solve_limited(10), None);
        assert!(s.stats().conflicts >= 10);
        assert_eq!(s.solve_limited(u64::MAX), Some(SatResult::Unsat));
        let mut s = pigeonhole(4, 4);
        assert_eq!(s.solve_limited(1_000_000), Some(SatResult::Sat));
    }

    #[test]
    fn pigeonhole_exact_fit_sat() {
        let mut s = pigeonhole(4, 4);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn xor_chain_parity() {
        // x0 ^ x1 ^ ... ^ x15 = 1, all equalities chained; flipping the
        // final unit makes it UNSAT against an even-parity constraint.
        let n = 16;
        let mut s = Solver::new();
        let x = lits(&mut s, n);
        let mut acc = x[0];
        for &xi in x.iter().take(n).skip(1) {
            // t = acc ^ xi
            let t = Lit::positive(s.new_var());
            s.add_clause(&[!t, acc, xi]);
            s.add_clause(&[!t, !acc, !xi]);
            s.add_clause(&[t, !acc, xi]);
            s.add_clause(&[t, acc, !xi]);
            acc = t;
        }
        s.add_clause(&[acc]);
        assert_eq!(s.solve(), SatResult::Sat);
        let parity = x.iter().fold(false, |a, &l| a ^ s.model_value(l));
        assert!(parity, "model must have odd parity");
    }

    #[test]
    fn solve_is_repeatable_and_incremental() {
        let mut s = Solver::new();
        let x = lits(&mut s, 3);
        s.add_clause(&[x[0], x[1], x[2]]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Clauses can be added between solves (level 0 after solve).
        s.add_clause(&[!x[0]]);
        s.add_clause(&[!x[1]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(x[2]));
        s.add_clause(&[!x[2]]);
        assert_eq!(s.solve(), SatResult::Unsat);
        // Once UNSAT, stays UNSAT.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u32).map(luby).collect();
        assert_eq!(got, want);
    }
}
