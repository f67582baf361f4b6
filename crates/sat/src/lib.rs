//! # synthir-sat
//!
//! A small, dependency-free CDCL SAT solver, built for the miter-based
//! equivalence checks in `synthir-sim`.
//!
//! Every equivalence check is decided by a SAT solver over a Tseitin
//! encoding of the miter, at any interface width. This crate provides
//! exactly the solver core that workflow needs — nothing more:
//!
//! * two-watched-literal unit propagation,
//! * first-UIP conflict analysis with local clause minimization,
//! * VSIDS-style variable activities with exponential decay,
//! * phase saving and Luby-sequence restarts,
//! * activity-based learned-clause database reduction,
//! * model extraction for counterexample decoding.
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

const NO_REASON: u32 = u32::MAX;
const LEVEL_NONE: u32 = u32::MAX;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: u32,
    /// Any other literal of the clause; if it is already true the clause is
    /// satisfied and the watch list walk can skip the clause body entirely.
    blocker: Lit,
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
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<Assign>,
    level: Vec<u32>,
    reason: Vec<u32>,
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
    conflicts: u64,
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

    /// Number of conflicts encountered across all `solve` calls.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
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
        // Normalize: sort, dedup, drop top-level-false literals, detect
        // tautologies and top-level-satisfied clauses.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut prev: Option<Lit> = None;
        let mut keep: Vec<Lit> = Vec::with_capacity(ls.len());
        for &l in &ls {
            assert!(l.var().index() < self.num_vars(), "unknown variable");
            if prev == Some(!l) {
                return true; // tautology: x | !x
            }
            match lit_val(&self.assign, l) {
                1 => return true, // already satisfied at level 0
                -1 => {}          // false at level 0: drop the literal
                _ => keep.push(l),
            }
            prev = Some(l);
        }
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
                self.attach(keep, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learned: bool) -> u32 {
        let cref = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learned {
            self.num_learned += 1;
        }
        self.clauses.push(Clause {
            lits,
            learned,
            deleted: false,
            activity: 0.0,
        });
        cref
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
        let stop = self.conflicts.saturating_add(max_conflicts);
        let mut restarts = 0u32;
        let mut max_learned = (self.clauses.len() / 3).max(1000);
        loop {
            let left = stop.saturating_sub(self.conflicts);
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
                self.conflicts += 1;
                local_conflicts += 1;
                if self.decision_level() == 0 {
                    return Some(SatResult::Unsat);
                }
                let (learnt, back_level) = self.analyze(confl);
                self.cancel_until(back_level);
                self.learn(learnt);
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
                        self.model = self.assign.iter().map(|&a| a == 1).collect();
                        return Some(SatResult::Sat);
                    }
                    Some(l) => {
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

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
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

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if lit_val(&self.assign, w.blocker) == 1 {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let c = &mut self.clauses[w.cref as usize];
                if c.deleted {
                    continue; // drop the stale watcher
                }
                if c.lits[0] == false_lit {
                    c.lits.swap(0, 1);
                }
                debug_assert_eq!(c.lits[1], false_lit);
                let first = c.lits[0];
                let w2 = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && lit_val(&self.assign, first) == 1 {
                    ws[j] = w2;
                    j += 1;
                    continue;
                }
                // Look for an unwatched non-false literal to take over.
                for k in 2..c.lits.len() {
                    if lit_val(&self.assign, c.lits[k]) != -1 {
                        c.lits.swap(1, k);
                        let new_watch = c.lits[1].code();
                        self.watches[new_watch].push(w2);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = w2;
                j += 1;
                if lit_val(&self.assign, first) == -1 {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    break;
                }
                self.unchecked_enqueue(first, w.cref);
            }
            ws.truncate(j);
            // Propagation may have appended watchers for this literal (a new
            // watch can be the propagated literal itself); keep them.
            let mut tail = std::mem::take(&mut self.watches[false_lit.code()]);
            ws.append(&mut tail);
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, usize) {
        let current = self.decision_level() as u32;
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0: asserting literal
        let mut to_clear: Vec<Var> = Vec::new();
        let mut path = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        loop {
            let skip = usize::from(p.is_some());
            // Borrow-friendly copy: conflict clauses are short.
            let clause_lits: Vec<Lit> = self.clauses[confl as usize].lits[skip..].to_vec();
            if self.clauses[confl as usize].learned {
                self.bump_clause(confl);
            }
            for q in clause_lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= current {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal to resolve on: most recent seen trail entry.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            path -= 1;
            if path == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, NO_REASON);
        }
        // Local minimization: drop literals whose entire reason is already
        // in the clause (or at level 0).
        let keep = |solver: &Solver, q: Lit| -> bool {
            let r = solver.reason[q.var().index()];
            if r == NO_REASON {
                return true;
            }
            solver.clauses[r as usize].lits[1..]
                .iter()
                .any(|&x| !solver.seen[x.var().index()] && solver.level[x.var().index()] > 0)
        };
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        minimized.extend(learnt[1..].iter().copied().filter(|&q| keep(self, q)));
        let mut learnt = minimized;
        for v in to_clear {
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
        (learnt, back_level)
    }

    fn learn(&mut self, learnt: Vec<Lit>) {
        debug_assert!(!learnt.is_empty());
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], NO_REASON);
        } else {
            let first = learnt[0];
            let cref = self.attach(learnt, true);
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

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for c in self.clauses.iter_mut().filter(|c| c.learned) {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Whether a clause is the reason of its first literal's assignment.
    fn is_locked(&self, cref: u32) -> bool {
        let c = &self.clauses[cref as usize];
        let v = c.lits[0].var().index();
        self.assign[v] != 0 && self.reason[v] == cref
    }

    /// Deletes the lower-activity half of the (unlocked, non-binary)
    /// learned clauses. Watchers are dropped lazily during propagation.
    fn reduce_db(&mut self) {
        let mut candidates: Vec<(u32, f64)> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learned && !c.deleted && c.lits.len() > 2 && !self.is_locked(i)
            })
            .map(|i| (i, self.clauses[i as usize].activity))
            .collect();
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        for &(i, _) in candidates.iter().take(candidates.len() / 2) {
            self.clauses[i as usize].deleted = true;
            self.clauses[i as usize].lits = Vec::new();
            self.num_learned -= 1;
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
        assert!(s.num_conflicts() >= 10);
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
