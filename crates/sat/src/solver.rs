//! The CDCL solver proper.
//!
//! Beyond the textbook loop (two-watched-literal propagation, first-UIP learning,
//! VSIDS), this implementation carries the contemporary refinements the rest of the
//! system leans on:
//!
//! * **One flat clause arena** — every clause, problem or learnt, lives in one
//!   `Vec<u32>`: a five-word header (literal count; a flags word holding the
//!   learnt, deleted and used bits and the tier; LBD; activity as an `f64` in
//!   two words) followed by the literals inline. A clause is referred to by its
//!   header's offset in the arena, in `reason`, in the watch lists and in the
//!   binary implication lists, so visiting a watcher reads one contiguous run of
//!   words. Deletion only sets the header's deleted bit: watchers of a deleted
//!   clause are dropped lazily (`swap_remove`) when propagation next meets them,
//!   and the arena is never compacted, so an offset stays valid for the
//!   solver's lifetime. A clause that is the reason for an assignment keeps the
//!   implied literal in slot 0, which conflict analysis and minimization skip.
//!   Watch-list order is part of the search: it decides which clause propagates
//!   or conflicts first, so a change to it moves every counter and must
//!   re-baseline `BENCH_sat.json` and `BENCH_cegis.json` in a change of its own.
//! * **Binary implication lists** — two-literal clauses are propagated through a
//!   dedicated `(other, clause)` list per literal instead of the general watch
//!   scheme: no watch juggling, one cache line per implication, and the lists never
//!   need lazy cleanup because binary clauses are never deleted.
//! * **LBD ("glue") at learn time** — every learnt clause records the number of
//!   distinct decision levels among its literals. Low-glue clauses connect few
//!   search levels and tend to stay useful forever (Audemard & Simon, glucose).
//! * **Tiered clause database** ([`ClauseDbMode::Tiered`]) — learnt clauses live in
//!   core (glue ≤ `core_lbd`, never deleted), mid (kept while they keep appearing
//!   in conflicts, demoted otherwise), or local (reduced by activity) tiers. LBD is
//!   recomputed whenever a clause participates in a conflict and clauses promote as
//!   their glue improves. [`ClauseDbMode::Activity`] keeps the legacy policy.
//! * **Recursive learnt-clause minimization** — after first-UIP analysis, literals
//!   whose reason-side justification is already implied by the rest of the clause
//!   are removed (seen-stamp DFS with the abstraction-level pruning check).
//! * **Adaptive restarts** ([`RestartMode::Ema`]) — fast/slow exponential moving
//!   averages of conflict glue trigger a restart when recent clauses are worse than
//!   the long-run trend, with trail-depth blocking; [`RestartMode::Luby`] keeps the
//!   classic schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::{ClauseDbMode, Lit, RestartMode, SolverConfig, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it back with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted, or an interrupt flag was raised,
    /// before a verdict was reached.
    Unknown,
}

/// Number of buckets in [`SolverStats::glue_histogram`]: bucket `i` counts learnt
/// clauses with LBD `i + 1`; the last bucket collects everything at or above
/// `GLUE_BUCKETS`.
pub const GLUE_BUCKETS: usize = 8;

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of branching decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// EMA mode: restarts that were due but postponed because the trail was
    /// unusually deep (the solver looked close to a model).
    pub blocked_restarts: u64,
    /// Number of learnt clauses currently in the database (including binary
    /// learnts; excluding learnt units, which become root assignments).
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reduction. The total ever
    /// learned is `learnt_clauses + deleted_clauses`.
    pub deleted_clauses: u64,
    /// Literals removed from learnt clauses by recursive minimization.
    pub minimized_literals: u64,
    /// Total literals across learnt clauses as they were stored (i.e. after
    /// minimization). Monotone: deletion does not subtract.
    pub learnt_literals: u64,
    /// Glue histogram over stored learnt clauses: bucket `i` counts clauses learned
    /// with LBD `i + 1`, the last bucket collects LBD ≥ [`GLUE_BUCKETS`]. The
    /// bucket sum equals the total number of clauses ever learned.
    pub glue_histogram: [u64; GLUE_BUCKETS],
    /// Learnt clauses currently in the core tier (glue ≤ `core_lbd`, plus binary
    /// learnts; never deleted).
    pub core_clauses: u64,
    /// Learnt clauses currently in the mid tier.
    pub mid_clauses: u64,
    /// Learnt clauses currently in the local tier (the reduction victims).
    pub local_clauses: u64,
}

impl SolverStats {
    /// Total learnt-clause events: every clause ever stored, deleted or not.
    pub fn total_learnt(&self) -> u64 {
        self.glue_histogram.iter().sum()
    }
}

/// Which tier of the learnt-clause database a clause lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// Never deleted: problem clauses, binary learnts, glue ≤ `core_lbd`.
    Core = 0,
    /// Kept while it keeps participating in conflicts; demoted to local otherwise.
    Mid = 1,
    /// Reduced by activity.
    Local = 2,
}

/// A clause reference: the offset of the clause's header in the [`ClauseArena`].
type CRef = u32;

/// Header word holding the literal count.
const LEN: usize = 0;
/// Header word holding the [`LEARNT`], [`DELETED`] and [`USED`] bits and the tier.
const FLAGS: usize = 1;
/// Header word holding the literal-block distance: computed at learn time and
/// improved whenever the clause shows up in conflict analysis; 0 for problem
/// clauses (never computed).
const LBD: usize = 2;
/// First of the two header words holding the activity's `f64` bits, low word first.
const ACTIVITY: usize = 3;
/// Header length in words; the literals follow it.
const HEADER: usize = 5;

const LEARNT: u32 = 1;
const DELETED: u32 = 1 << 1;
/// Participated in conflict analysis since the last database reduction.
const USED: u32 = 1 << 2;
/// The tier occupies the two flag bits from here up.
const TIER_SHIFT: u32 = 3;

/// Every clause of a solver in one flat `Vec<u32>`: per clause a [`HEADER`]-word
/// header followed by its literals (see the module docs).
#[derive(Debug, Default)]
struct ClauseArena {
    words: Vec<u32>,
}

impl ClauseArena {
    /// Appends a clause and returns its reference.
    fn push(&mut self, lits: &[Lit], learnt: bool, lbd: u32, tier: Tier) -> CRef {
        let cr = self.words.len();
        assert!(
            u32::try_from(cr + HEADER + lits.len()).is_ok(),
            "clause arena outgrew its u32 offsets"
        );
        let flags = u32::from(learnt) | ((tier as u32) << TIER_SHIFT);
        self.words.extend_from_slice(&[lits.len() as u32, flags, lbd, 0, 0]);
        self.words.extend(lits.iter().map(|l| l.0));
        cr as CRef
    }

    /// Every clause reference, deleted clauses included, in creation order.
    fn refs(&self) -> impl Iterator<Item = CRef> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            (at < self.words.len()).then(|| {
                let cr = at as CRef;
                at += HEADER + self.words[at + LEN] as usize;
                cr
            })
        })
    }

    fn len(&self, cr: CRef) -> usize {
        self.words[cr as usize + LEN] as usize
    }

    fn lit(&self, cr: CRef, k: usize) -> Lit {
        Lit(self.words[cr as usize + HEADER + k])
    }

    fn lits(&self, cr: CRef) -> impl Iterator<Item = Lit> + '_ {
        let start = cr as usize + HEADER;
        self.words[start..start + self.len(cr)].iter().map(|&w| Lit(w))
    }

    /// The literal words of `cr`, for in-place reordering.
    fn lits_mut(&mut self, cr: CRef) -> &mut [u32] {
        let start = cr as usize + HEADER;
        let len = self.len(cr);
        &mut self.words[start..start + len]
    }

    fn has(&self, cr: CRef, flag: u32) -> bool {
        self.words[cr as usize + FLAGS] & flag != 0
    }

    fn set(&mut self, cr: CRef, flag: u32, on: bool) {
        let w = &mut self.words[cr as usize + FLAGS];
        *w = if on { *w | flag } else { *w & !flag };
    }

    fn tier(&self, cr: CRef) -> Tier {
        match (self.words[cr as usize + FLAGS] >> TIER_SHIFT) & 3 {
            0 => Tier::Core,
            1 => Tier::Mid,
            _ => Tier::Local,
        }
    }

    fn set_tier(&mut self, cr: CRef, tier: Tier) {
        let w = &mut self.words[cr as usize + FLAGS];
        *w = (*w & !(3 << TIER_SHIFT)) | ((tier as u32) << TIER_SHIFT);
    }

    fn lbd(&self, cr: CRef) -> u32 {
        self.words[cr as usize + LBD]
    }

    fn set_lbd(&mut self, cr: CRef, lbd: u32) {
        self.words[cr as usize + LBD] = lbd;
    }

    fn activity(&self, cr: CRef) -> f64 {
        let at = cr as usize + ACTIVITY;
        f64::from_bits(u64::from(self.words[at]) | (u64::from(self.words[at + 1]) << 32))
    }

    fn set_activity(&mut self, cr: CRef, activity: f64) {
        let at = cr as usize + ACTIVITY;
        let bits = activity.to_bits();
        self.words[at] = bits as u32;
        self.words[at + 1] = (bits >> 32) as u32;
    }
}

/// One entry of a binary implication list: when the owning literal is falsified,
/// `other` is implied with `clause` as its reason.
#[derive(Debug, Clone, Copy)]
struct BinWatch {
    other: Lit,
    clause: CRef,
}

const UNDEF: i8 = 0;
const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// The value of `l` under the variable values `values`, without a branch: a
/// negative literal flips the sign of its variable's value (`UNDEF` is 0, so it
/// stays `UNDEF`).
fn lit_value_in(values: &[i8], l: Lit) -> i8 {
    let neg = (l.0 & 1) as i8;
    (values[l.var().index()] ^ -neg) + neg
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// Variables are created with [`Solver::new_var`]; clauses are added with
/// [`Solver::add_clause`]; [`Solver::solve`] (or
/// [`Solver::solve_with_assumptions`]) decides satisfiability, after which
/// [`Solver::value`] reads the model.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    arena: ClauseArena,
    /// watches[lit.index()] = non-binary clauses currently watching `lit`.
    watches: Vec<Vec<CRef>>,
    /// bin_watches[lit.index()] = implications fired when `lit` is falsified.
    bin_watches: Vec<Vec<BinWatch>>,
    values: Vec<i8>,
    saved_phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<CRef>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // Indexed max-heap over activity for branching.
    heap: Vec<Var>,
    heap_pos: Vec<i32>,
    seen: Vec<bool>,
    /// Scratch for LBD computation: level → last stamp that counted it.
    level_stamp: Vec<u64>,
    lbd_stamp: u64,
    /// Scratch for recursive minimization: DFS worklist and extra seen-marks to
    /// clear after analysis.
    min_stack: Vec<Lit>,
    min_clear: Vec<Lit>,
    /// Scratch for [`Solver::add_clause`]'s normalization.
    add_buf: Vec<Lit>,
    /// Fast/slow EMAs of conflict LBD and the trail-depth EMA (restart blocking).
    ema_fast: f64,
    ema_slow: f64,
    ema_trail: f64,
    ema_primed: bool,
    unsat_at_root: bool,
    rng_state: u64,
    /// Cooperative interrupt flags: when any becomes true, the search loop
    /// returns [`SolveResult::Unknown`] at its next check point. Solver state
    /// stays valid, so a later `solve` call resumes from the learnt clauses.
    interrupts: Vec<Arc<AtomicBool>>,
    stats: SolverStats,
}

const NO_REASON: CRef = CRef::MAX;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit heuristic configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        let seed = if config.seed == 0 { 0x9e3779b97f4a7c15 } else { config.seed };
        Solver {
            rng_state: seed,
            config,
            arena: ClauseArena::default(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            values: Vec::new(),
            saved_phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            seen: Vec::new(),
            level_stamp: vec![0],
            lbd_stamp: 0,
            min_stack: Vec::new(),
            min_clear: Vec::new(),
            add_buf: Vec::new(),
            ema_fast: 0.0,
            ema_slow: 0.0,
            ema_trail: 0.0,
            ema_primed: false,
            unsat_at_root: false,
            interrupts: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Registers a shared interrupt flag. While any registered flag reads
    /// `true`, in-flight and future `solve` calls return
    /// [`SolveResult::Unknown`] promptly instead of searching to completion.
    pub fn add_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupts.push(flag);
    }

    fn interrupted(&self) -> bool {
        self.interrupts.iter().any(|f| f.load(Ordering::Relaxed))
    }

    /// The configuration this solver runs under.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Statistics from solving so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of problem (non-learnt, non-deleted) clauses.
    pub fn num_clauses(&self) -> usize {
        self.problem_refs().count()
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.values.len() as u32);
        self.values.push(UNDEF);
        self.saved_phase.push(self.config.default_polarity);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        // Decision levels are usually bounded by the variable count (dummy
        // assumption levels can exceed it; see `reserve_level_stamp`).
        self.level_stamp.push(0);
        self.heap_pos.push(-1);
        self.heap_insert(v);
        v
    }

    /// The current value of a variable: `Some(bool)` if assigned, `None` otherwise.
    /// After [`SolveResult::Sat`] every variable is assigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.values[v.index()] {
            TRUE => Some(true),
            FALSE => Some(false),
            _ => None,
        }
    }

    fn lit_value(&self, l: Lit) -> i8 {
        lit_value_in(&self.values, l)
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// May be called only before [`Solver::solve`] or between solves (the solver
    /// backtracks to the root level first). An empty clause makes the instance
    /// trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.backtrack_to(0);
        // Normalize in the reused buffer: sort, dedup, drop root-false literals,
        // and drop the whole clause if it is a tautology or satisfied at the root.
        let mut buf = std::mem::take(&mut self.add_buf);
        buf.clear();
        buf.extend_from_slice(lits);
        buf.sort_unstable();
        buf.dedup();
        let mut kept = 0;
        let mut satisfied = false;
        for i in 0..buf.len() {
            let l = buf[i];
            let value = self.lit_value(l);
            // Sorted, so `l` and `!l` sit side by side.
            if value == TRUE || buf.get(i + 1) == Some(&l.not()) {
                satisfied = true;
                break;
            }
            if value == UNDEF {
                buf[kept] = l;
                kept += 1;
            }
        }
        buf.truncate(kept);
        if !satisfied {
            match buf.len() {
                0 => self.unsat_at_root = true,
                1 => {
                    if !self.enqueue(buf[0], NO_REASON) || self.propagate().is_some() {
                        self.unsat_at_root = true;
                    }
                }
                _ => {
                    self.attach_clause(&buf, false, 0);
                }
            }
        }
        self.add_buf = buf;
    }

    /// References of the problem (non-learnt, non-deleted) clauses.
    fn problem_refs(&self) -> impl Iterator<Item = CRef> + '_ {
        self.arena.refs().filter(|&cr| !self.arena.has(cr, LEARNT | DELETED))
    }

    /// The problem (non-learnt, non-deleted) clauses, for the DIMACS writer.
    pub(crate) fn problem_clauses(&self) -> impl Iterator<Item = Vec<Lit>> + '_ {
        self.problem_refs().map(|cr| self.arena.lits(cr).collect())
    }

    /// Root-level assignments (added or derived unit clauses), for the DIMACS
    /// writer.
    pub(crate) fn root_units(&self) -> &[Lit] {
        let bound = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        &self.trail[..bound]
    }

    /// Whether the instance is already known unsatisfiable at the root level.
    pub(crate) fn known_unsat_at_root(&self) -> bool {
        self.unsat_at_root
    }

    fn tier_for(&self, len: usize, lbd: u32) -> Tier {
        if len == 2 || lbd <= self.config.core_lbd {
            Tier::Core
        } else if lbd <= self.config.mid_lbd {
            Tier::Mid
        } else {
            Tier::Local
        }
    }

    fn tier_count(&mut self, tier: Tier) -> &mut u64 {
        match tier {
            Tier::Core => &mut self.stats.core_clauses,
            Tier::Mid => &mut self.stats.mid_clauses,
            Tier::Local => &mut self.stats.local_clauses,
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> CRef {
        debug_assert!(lits.len() >= 2);
        let tier = if learnt { self.tier_for(lits.len(), lbd) } else { Tier::Core };
        let cr = self.arena.push(lits, learnt, lbd, tier);
        if lits.len() == 2 {
            self.bin_watches[lits[0].index()].push(BinWatch { other: lits[1], clause: cr });
            self.bin_watches[lits[1].index()].push(BinWatch { other: lits[0], clause: cr });
        } else {
            self.watches[lits[0].index()].push(cr);
            self.watches[lits[1].index()].push(cr);
        }
        if learnt {
            self.stats.learnt_clauses += 1;
            self.stats.learnt_literals += lits.len() as u64;
            let bucket = (lbd.max(1) as usize).min(GLUE_BUCKETS) - 1;
            self.stats.glue_histogram[bucket] += 1;
            *self.tier_count(tier) += 1;
        }
        cr
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: CRef) -> bool {
        match self.lit_value(l) {
            TRUE => true,
            FALSE => false,
            _ => {
                self.assign(l, reason);
                true
            }
        }
    }

    /// Makes the unassigned literal `l` true at the current level.
    fn assign(&mut self, l: Lit, reason: CRef) {
        let v = l.var().index();
        self.values[v] = if l.is_neg() { FALSE } else { TRUE };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        if self.config.phase_saving {
            self.saved_phase[v] = !l.is_neg();
        }
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.not();

            // Binary implications first: each entry is a direct implication, no
            // watch surgery, and the lists are immutable during search.
            let bins = std::mem::take(&mut self.bin_watches[false_lit.index()]);
            let mut conflict = None;
            for &BinWatch { other, clause } in &bins {
                match self.lit_value(other) {
                    TRUE => {}
                    FALSE => {
                        conflict = Some(clause);
                        break;
                    }
                    _ => {
                        // Keep the implied literal in slot 0: conflict analysis and
                        // minimization skip a reason clause's first literal.
                        let lits = self.arena.lits_mut(clause);
                        if lits[0] != other.0 {
                            lits.swap(0, 1);
                        }
                        self.assign(other, clause);
                    }
                }
            }
            self.bin_watches[false_lit.index()] = bins;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }

            // Take the watch list for the literal that just became false. Nothing
            // below watches `false_lit` anew (it is false), so the slot stays empty
            // and the list goes back by move.
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watchers.len() {
                let cr = watchers[i];
                if self.arena.has(cr, DELETED) {
                    watchers.swap_remove(i);
                    continue;
                }
                let lits = self.arena.lits_mut(cr);
                // Ensure the false literal is at position 1.
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.0);
                let first = Lit(lits[0]);
                if lit_value_in(&self.values, first) == TRUE {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) =
                    (2..lits.len()).find(|&k| lit_value_in(&self.values, Lit(lits[k])) != FALSE)
                {
                    lits.swap(1, k);
                    self.watches[lits[1] as usize].push(cr);
                    watchers.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if lit_value_in(&self.values, first) == FALSE {
                    conflict = Some(cr);
                    self.qhead = self.trail.len();
                    // Keep remaining watchers (including this clause) attached.
                    break;
                }
                self.assign(first, cr);
                i += 1;
            }
            debug_assert!(self.watches[false_lit.index()].is_empty());
            self.watches[false_lit.index()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn backtrack_to(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let bound = self.trail_lim[target_level as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().unwrap();
            let v = l.var();
            self.values[v.index()] = UNDEF;
            self.reason[v.index()] = NO_REASON;
            if self.heap_pos[v.index()] < 0 {
                self.heap_insert(v);
            }
        }
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    // ----- activity bookkeeping -----

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= self.config.var_decay;
    }

    fn bump_clause(&mut self, cr: CRef) {
        if !self.arena.has(cr, LEARNT) {
            return;
        }
        let activity = self.arena.activity(cr) + self.cla_inc;
        self.arena.set_activity(cr, activity);
        if activity > 1e20 {
            let learnt: Vec<CRef> =
                self.arena.refs().filter(|&c| self.arena.has(c, LEARNT)).collect();
            for c in learnt {
                self.arena.set_activity(c, self.arena.activity(c) * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Bookkeeping for a learnt clause that participates in conflict analysis:
    /// activity bump, usage flag (reduction protection), and LBD refresh — the
    /// glue can only improve here, and a clause whose glue improves enough is
    /// promoted toward the core tier.
    fn notice_clause_use(&mut self, cr: CRef) {
        self.bump_clause(cr);
        if !self.arena.has(cr, LEARNT) {
            return;
        }
        self.arena.set(cr, USED, true);
        let len = self.arena.len(cr);
        if len == 2 {
            return;
        }
        let new_lbd = self.clause_lbd(cr);
        if new_lbd < self.arena.lbd(cr) {
            self.arena.set_lbd(cr, new_lbd);
            let new_tier = self.tier_for(len, new_lbd);
            let old_tier = self.arena.tier(cr);
            if new_tier < old_tier {
                *self.tier_count(old_tier) -= 1;
                *self.tier_count(new_tier) += 1;
                self.arena.set_tier(cr, new_tier);
            }
        }
    }

    // ----- branching heap -----

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_pos[v.index()] >= 0 {
            return;
        }
        self.heap.push(v);
        self.heap_pos[v.index()] = (self.heap.len() - 1) as i32;
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: Var) {
        let pos = self.heap_pos[v.index()];
        if pos >= 0 {
            self.heap_up(pos as usize);
        }
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = i as i32;
        self.heap_pos[self.heap[j].index()] = j as i32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.len() - 1;
        self.heap_swap(0, last);
        self.heap.pop();
        self.heap_pos[top.index()] = -1;
        if !self.heap.is_empty() {
            self.heap_down(0);
        }
        Some(top)
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        // Occasionally pick a random unassigned variable to diversify the portfolio.
        if self.config.random_branch_per_1024 > 0
            && (self.next_rand() % 1024) < self.config.random_branch_per_1024 as u64
        {
            let n = self.values.len() as u64;
            if n > 0 {
                let start = (self.next_rand() % n) as usize;
                for off in 0..self.values.len() {
                    let idx = (start + off) % self.values.len();
                    if self.values[idx] == UNDEF {
                        return Some(Var(idx as u32));
                    }
                }
            }
        }
        while let Some(v) = self.heap_pop() {
            if self.values[v.index()] == UNDEF {
                return Some(v);
            }
        }
        None
    }

    // ----- LBD -----

    /// Grows the level-stamp scratch array to cover `level`. Decision levels are
    /// usually bounded by the variable count, but already-implied assumptions open
    /// dummy levels, so `solve_with_assumptions` can push levels past it.
    fn reserve_level_stamp(&mut self, level: usize) {
        if self.level_stamp.len() <= level {
            self.level_stamp.resize(level + 1, 0);
        }
    }

    /// Number of distinct non-root decision levels among `lits` (the literal block
    /// distance), via a stamped scratch array — O(len), no clearing pass.
    fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp += 1;
        let mut lbd = 0u32;
        for &l in lits {
            let lev = self.level[l.var().index()] as usize;
            self.reserve_level_stamp(lev);
            if lev > 0 && self.level_stamp[lev] != self.lbd_stamp {
                self.level_stamp[lev] = self.lbd_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// [`Solver::lbd_of`] for a stored clause (index-walked to appease borrows).
    fn clause_lbd(&mut self, cr: CRef) -> u32 {
        self.lbd_stamp += 1;
        let stamp = self.lbd_stamp;
        let mut lbd = 0u32;
        for k in 0..self.arena.len(cr) {
            let l = self.arena.lit(cr, k);
            let lev = self.level[l.var().index()] as usize;
            self.reserve_level_stamp(lev);
            if lev > 0 && self.level_stamp[lev] != stamp {
                self.level_stamp[lev] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    // ----- conflict analysis -----

    /// First-UIP conflict analysis with recursive minimization. Returns the learnt
    /// clause (asserting literal first), the backjump level, and the clause's LBD.
    fn analyze(&mut self, confl: CRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the asserting literal
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut trail_idx = self.trail.len();
        let current_level = self.decision_level();

        loop {
            self.notice_clause_use(confl);
            // Walk the conflicting/reason clause in place; a reason's slot 0 is the
            // literal being resolved on.
            let skip_first = usize::from(p.is_some());
            for k in skip_first..self.arena.len(confl) {
                let q = self.arena.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal to resolve on: last seen literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            let v = pl.var();
            self.seen[v.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = pl.not();
                break;
            }
            p = Some(pl);
            confl = self.reason[v.index()];
            debug_assert_ne!(confl, NO_REASON, "non-decision literal must have a reason");
        }

        // `seen` is now set exactly for learnt[1..]; minimization relies on it.
        self.minimize_learnt(&mut learnt);

        // Clear the `seen` flags of kept literals and minimization marks.
        for &l in learnt.iter().skip(1) {
            self.seen[l.var().index()] = false;
        }
        let mut min_clear = std::mem::take(&mut self.min_clear);
        for l in min_clear.drain(..) {
            self.seen[l.var().index()] = false;
        }
        // Hand the (emptied) buffer back so its capacity is reused.
        self.min_clear = min_clear;

        // Compute the backjump level and move the corresponding literal to slot 1.
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        let lbd = self.lbd_of(&learnt);
        (learnt, backjump, lbd)
    }

    /// Removes, in place and keeping the order of the rest, literals whose negation
    /// is already implied by the rest of the learnt clause (recursive
    /// minimization). Expects `seen` to be set for `learnt[1..]`; literals it
    /// removes stay marked (their redundancy proof may be reused), and any extra
    /// marks made along the way land in `min_clear`.
    fn minimize_learnt(&mut self, learnt: &mut Vec<Lit>) {
        if learnt.len() <= 2 {
            return;
        }
        let abstract_levels =
            learnt[1..].iter().fold(0u32, |acc, &l| acc | self.abstract_level(l.var()));
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()] == NO_REASON || !self.lit_redundant(l, abstract_levels)
            {
                learnt[kept] = l;
                kept += 1;
            } else {
                self.stats.minimized_literals += 1;
                // Keep the mark: `seen` doubles as the "known redundant" memo, and
                // the flag is cleared via `min_clear` after analysis.
                self.min_clear.push(l);
            }
        }
        learnt.truncate(kept);
    }

    /// Level signature for the minimization pruning check: literals whose level is
    /// not in the learnt clause's signature can never be redundant.
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v.index()] & 31)
    }

    /// Whether `p`'s reason-side justification is already implied by the learnt
    /// clause: DFS through reasons, succeeding only if every path bottoms out in
    /// `seen` (in-clause or known-redundant) literals or root assignments.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32) -> bool {
        self.min_stack.clear();
        self.min_stack.push(p);
        let top = self.min_clear.len();
        while let Some(q) = self.min_stack.pop() {
            let cr = self.reason[q.var().index()];
            debug_assert_ne!(cr, NO_REASON);
            for k in 1..self.arena.len(cr) {
                let l = self.arena.lit(cr, k);
                let v = l.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                if self.reason[v.index()] != NO_REASON
                    && (self.abstract_level(v) & abstract_levels) != 0
                {
                    self.seen[v.index()] = true;
                    self.min_stack.push(l);
                    self.min_clear.push(l);
                } else {
                    // Not redundant: undo the marks this probe made.
                    for j in top..self.min_clear.len() {
                        self.seen[self.min_clear[j].var().index()] = false;
                    }
                    self.min_clear.truncate(top);
                    return false;
                }
            }
        }
        true
    }

    // ----- clause DB reduction -----

    fn reduce_db(&mut self) {
        match self.config.db_mode {
            ClauseDbMode::Activity => self.reduce_db_activity(),
            ClauseDbMode::Tiered => self.reduce_db_tiered(),
        }
    }

    fn locked_clauses(&self) -> std::collections::HashSet<CRef> {
        self.reason.iter().copied().filter(|&r| r != NO_REASON).collect()
    }

    /// The live non-binary learnt clauses, the reduction candidates, in creation
    /// order (the order sort ties keep).
    fn reducible_clauses(&self) -> Vec<CRef> {
        self.arena
            .refs()
            .filter(|&cr| {
                self.arena.has(cr, LEARNT) && !self.arena.has(cr, DELETED) && self.arena.len(cr) > 2
            })
            .collect()
    }

    fn delete_clause(&mut self, cr: CRef) {
        let tier = self.arena.tier(cr);
        *self.tier_count(tier) -= 1;
        self.arena.set(cr, DELETED, true);
        self.stats.deleted_clauses += 1;
        self.stats.learnt_clauses = self.stats.learnt_clauses.saturating_sub(1);
    }

    /// Deletes the less active half of `victims` (stable sort, so ties keep
    /// creation order), sparing clauses that are some assignment's reason.
    fn delete_less_active_half(&mut self, mut victims: Vec<(CRef, f64)>) {
        victims.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let locked = self.locked_clauses();
        let to_remove = victims.len() / 2;
        let mut removed = 0;
        for &(cr, _) in victims.iter() {
            if removed >= to_remove {
                break;
            }
            if locked.contains(&cr) {
                continue;
            }
            self.delete_clause(cr);
            removed += 1;
        }
    }

    /// Legacy policy: sort all non-binary learnt clauses by activity, delete the
    /// less active half.
    fn reduce_db_activity(&mut self) {
        let learnt: Vec<(CRef, f64)> =
            self.reducible_clauses().into_iter().map(|cr| (cr, self.arena.activity(cr))).collect();
        if learnt.len() < 64 {
            return;
        }
        self.delete_less_active_half(learnt);
    }

    /// Glucose-style tiered policy. Core clauses are untouchable. Mid-tier clauses
    /// that did not participate in any conflict since the last reduction demote to
    /// local. Local-tier clauses used since the last reduction are spared one
    /// round; the remainder is sorted by activity and the less active half deleted.
    fn reduce_db_tiered(&mut self) {
        let mut victims: Vec<(CRef, f64)> = Vec::new();
        for cr in self.reducible_clauses() {
            let used = self.arena.has(cr, USED);
            match self.arena.tier(cr) {
                Tier::Core => {}
                Tier::Mid => {
                    if !used {
                        self.stats.mid_clauses -= 1;
                        self.stats.local_clauses += 1;
                        self.arena.set_tier(cr, Tier::Local);
                        victims.push((cr, self.arena.activity(cr)));
                    }
                }
                Tier::Local => {
                    if !used {
                        victims.push((cr, self.arena.activity(cr)));
                    }
                }
            }
            self.arena.set(cr, USED, false);
        }
        if self.stats.local_clauses < 64 {
            return;
        }
        self.delete_less_active_half(victims);
    }

    // ----- restarts -----

    fn luby(mut x: u64) -> u64 {
        // The Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        // Find the finite subsequence containing index `x` and its size.
        let mut size = 1u64;
        let mut seq = 0u64;
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

    /// Feeds one conflict's LBD (and the current trail depth) into the restart
    /// EMAs. Returns `true` when a due restart was blocked by trail depth — a
    /// restart counts as due only once `conflicts_since_restart` clears the
    /// [`SolverConfig::restart_base`] minimum distance (mirroring
    /// [`Solver::restart_due`]), so `blocked_restarts` never counts restarts
    /// that could not have fired anyway.
    fn update_restart_emas(&mut self, lbd: u32, conflicts_since_restart: u64) -> bool {
        let glue = lbd as f64;
        let depth = self.trail.len() as f64;
        if !self.ema_primed {
            self.ema_fast = glue;
            self.ema_slow = glue;
            self.ema_trail = depth;
            self.ema_primed = true;
            return false;
        }
        self.ema_fast += self.config.ema_fast_alpha * (glue - self.ema_fast);
        self.ema_slow += self.config.ema_slow_alpha * (glue - self.ema_slow);
        self.ema_trail += self.config.ema_slow_alpha * (depth - self.ema_trail);
        if self.config.restart_mode == RestartMode::Ema
            && conflicts_since_restart >= self.config.restart_base.max(1)
            && self.ema_fast > self.config.restart_margin * self.ema_slow
            && depth > self.config.restart_block_margin * self.ema_trail
        {
            // The assignment is unusually deep: the solver may be closing in on a
            // model, so damp the restart urge instead of throwing the trail away.
            self.ema_fast = self.ema_slow;
            self.stats.blocked_restarts += 1;
            return true;
        }
        false
    }

    fn restart_due(&self, conflicts_since_restart: u64, luby_target: u64) -> bool {
        match self.config.restart_mode {
            RestartMode::Luby => conflicts_since_restart >= luby_target,
            RestartMode::Ema => {
                conflicts_since_restart >= self.config.restart_base.max(1)
                    && self.ema_primed
                    && self.ema_fast > self.config.restart_margin * self.ema_slow
            }
        }
    }

    // ----- top-level search -----

    /// Decides satisfiability of the clauses added so far.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides satisfiability under the given assumption literals.
    ///
    /// Assumptions are treated as forced decisions at the bottom of the search tree;
    /// they do not persist after the call.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.unsat_at_root {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat_at_root = true;
            return SolveResult::Unsat;
        }

        let mut restart_count = 0u64;
        let mut conflicts_until_restart =
            Self::luby(restart_count).saturating_mul(self.config.restart_base);
        let mut conflicts_since_restart = 0u64;
        let mut conflicts_until_reduce = self.config.reduce_interval;
        let budget_start = self.stats.conflicts;

        loop {
            if !self.interrupts.is_empty() && self.interrupted() {
                return SolveResult::Unknown;
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat_at_root = true;
                    return SolveResult::Unsat;
                }
                // A conflict while some assumptions are still being (re)established
                // below the assumption levels means UNSAT under assumptions once it
                // reaches level <= #assumptions and analysis backjumps above it.
                let (learnt, backjump, lbd) = self.analyze(confl);
                self.update_restart_emas(lbd, conflicts_since_restart);
                // If the conflict is entirely below the assumption prefix we cannot
                // backjump past the assumptions; treat reaching level 0 naturally.
                self.backtrack_to(backjump.min(self.decision_level().saturating_sub(1)));
                if learnt.len() == 1 {
                    if !self.enqueue(learnt[0], NO_REASON) {
                        self.unsat_at_root = true;
                        return SolveResult::Unsat;
                    }
                } else {
                    let cr = self.attach_clause(&learnt, true, lbd);
                    self.bump_clause(cr);
                    self.enqueue(learnt[0], cr);
                }
                self.decay_var_activity();
                if let Some(budget) = self.config.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        return SolveResult::Unknown;
                    }
                }
                if conflicts_until_reduce > 0 {
                    conflicts_until_reduce -= 1;
                } else {
                    self.reduce_db();
                    conflicts_until_reduce = self.config.reduce_interval;
                }
            } else {
                // No conflict: maybe restart, then decide.
                if self.restart_due(conflicts_since_restart, conflicts_until_restart) {
                    self.stats.restarts += 1;
                    restart_count += 1;
                    conflicts_since_restart = 0;
                    conflicts_until_restart =
                        Self::luby(restart_count).saturating_mul(self.config.restart_base);
                    if self.config.restart_mode == RestartMode::Ema {
                        // Forget the spike that triggered this restart.
                        self.ema_fast = self.ema_slow;
                    }
                    self.backtrack_to(0);
                    continue;
                }
                // Establish assumptions first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        TRUE => {
                            // Already implied: open a dummy decision level so indices line up.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        FALSE => return SolveResult::Unsat,
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                            continue;
                        }
                    }
                }
                match self.pick_branch_var() {
                    None => return SolveResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        let phase = self.saved_phase[v.index()];
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(Lit::new(v, !phase), NO_REASON);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClauseDbMode;

    fn lit(solver_vars: &[Var], i: i32) -> Lit {
        let v = solver_vars[(i.unsigned_abs() - 1) as usize];
        Lit::new(v, i < 0)
    }

    fn make_solver(nvars: usize) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
        (s, vars)
    }

    fn pigeonhole(n: usize, m: usize, config: SolverConfig) -> Solver {
        let mut s = Solver::with_config(config);
        let p: Vec<Vec<Var>> = (0..n).map(|_| (0..m).map(|_| s.new_var()).collect()).collect();
        for row in p.iter() {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        for j in 0..m {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        s
    }

    #[test]
    fn trivially_sat() {
        let (mut s, v) = make_solver(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let (mut s, v) = make_solver(4);
        s.add_clause(&[lit(&v, 1)]);
        s.add_clause(&[lit(&v, -1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2), lit(&v, 3)]);
        s.add_clause(&[lit(&v, -3), lit(&v, 4)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &x in &v {
            assert_eq!(s.value(x), Some(true));
        }
    }

    #[test]
    fn simple_unsat() {
        let (mut s, v) = make_solver(1);
        s.add_clause(&[lit(&v, 1)]);
        s.add_clause(&[lit(&v, -1)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let (mut s, _) = make_solver(1);
        s.add_clause(&[]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn no_clauses_is_sat() {
        let (mut s, _) = make_solver(3);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        let mut s = pigeonhole(3, 2, SolverConfig::default());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let mut s = pigeonhole(5, 4, SolverConfig::default());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // A mixed instance: graph 3-coloring of a 5-cycle (satisfiable).
        let n = 5;
        let mut s = Solver::new();
        let color: Vec<Vec<Var>> = (0..n).map(|_| (0..3).map(|_| s.new_var()).collect()).collect();
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for node in &color {
            clauses.push(node.iter().map(|&x| Lit::pos(x)).collect());
            for c1 in 0..3 {
                for c2 in (c1 + 1)..3 {
                    clauses.push(vec![Lit::neg(node[c1]), Lit::neg(node[c2])]);
                }
            }
        }
        for v in 0..n {
            let w = (v + 1) % n;
            for (cv, cw) in color[v].iter().zip(&color[w]) {
                clauses.push(vec![Lit::neg(*cv), Lit::neg(*cw)]);
            }
        }
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&l| l.eval(s.value(l.var()).unwrap())),
                "model violates clause {c:?}"
            );
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let (mut s, v) = make_solver(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1), lit(&v, -2)]), SolveResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1)]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        // Without assumptions still satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflicting_assumptions_unsat() {
        let (mut s, v) = make_solver(1);
        s.add_clause(&[lit(&v, 1), lit(&v, -1)]); // tautology, dropped
        assert_eq!(s.solve_with_assumptions(&[lit(&v, 1), lit(&v, -1)]), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard instance with a tiny budget must return Unknown.
        let cfg = SolverConfig { conflict_budget: Some(3), ..SolverConfig::default() };
        let mut s = pigeonhole(8, 7, cfg);
        assert_eq!(s.solve(), SolveResult::Unknown);
    }

    #[test]
    fn raised_interrupt_flag_reports_unknown() {
        // A hard instance with a pre-raised interrupt must bail out immediately,
        // and clearing the flag lets the same solver finish the search.
        let mut s = pigeonhole(8, 7, SolverConfig::default());
        let flag = Arc::new(AtomicBool::new(true));
        s.add_interrupt(Arc::clone(&flag));
        assert_eq!(s.solve(), SolveResult::Unknown);
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_handled() {
        let (mut s, v) = make_solver(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 1), lit(&v, 1)]);
        s.add_clause(&[lit(&v, 2), lit(&v, -2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
    }

    #[test]
    fn xor_chain_sat_and_unsat() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsat;
        // changing the last constraint to = 0 makes it sat.
        fn add_xor(s: &mut Solver, a: Lit, b: Lit, value: bool) {
            if value {
                s.add_clause(&[a, b]);
                s.add_clause(&[a.not(), b.not()]);
            } else {
                s.add_clause(&[a, b.not()]);
                s.add_clause(&[a.not(), b]);
            }
        }
        let (mut s, v) = make_solver(3);
        add_xor(&mut s, lit(&v, 1), lit(&v, 2), true);
        add_xor(&mut s, lit(&v, 2), lit(&v, 3), true);
        add_xor(&mut s, lit(&v, 1), lit(&v, 3), true);
        assert_eq!(s.solve(), SolveResult::Unsat);

        let (mut s, v) = make_solver(3);
        add_xor(&mut s, lit(&v, 1), lit(&v, 2), true);
        add_xor(&mut s, lit(&v, 2), lit(&v, 3), true);
        add_xor(&mut s, lit(&v, 1), lit(&v, 3), false);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn portfolio_configs_agree_on_verdict() {
        for cfg in SolverConfig::portfolio() {
            let mut s = Solver::with_config(cfg.clone());
            let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
            s.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[1])]);
            s.add_clause(&[Lit::neg(vars[0]), Lit::pos(vars[2])]);
            s.add_clause(&[Lit::neg(vars[1]), Lit::pos(vars[3])]);
            s.add_clause(&[Lit::neg(vars[2]), Lit::neg(vars[3])]);
            assert_eq!(s.solve(), SolveResult::Sat, "config {}", cfg.name);
        }
    }

    #[test]
    fn stats_accumulate() {
        let (mut s, v) = make_solver(3);
        s.add_clause(&[lit(&v, 1), lit(&v, 2), lit(&v, 3)]);
        s.add_clause(&[lit(&v, -1), lit(&v, -2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().propagations + s.stats().decisions > 0);
    }

    #[test]
    fn glue_histogram_and_tiers_account_for_every_learnt_clause() {
        let mut s = pigeonhole(6, 5, SolverConfig::default());
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert_eq!(
            st.total_learnt(),
            st.learnt_clauses + st.deleted_clauses,
            "glue histogram must count every learnt clause exactly once"
        );
        assert_eq!(
            st.core_clauses + st.mid_clauses + st.local_clauses,
            st.learnt_clauses,
            "tier sizes must partition the live learnt database"
        );
    }

    #[test]
    fn minimization_strictly_shrinks_learnt_clauses_on_structured_instances() {
        let mut s = pigeonhole(7, 6, SolverConfig::default());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.stats().minimized_literals > 0,
            "pigeonhole conflicts have redundant reason-side literals"
        );
    }

    #[test]
    fn tiered_reduction_never_deletes_core_clauses() {
        // Force frequent reductions and check the invariant afterwards.
        let cfg = SolverConfig { reduce_interval: 50, ..SolverConfig::default() };
        let mut s = pigeonhole(8, 7, cfg);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.deleted_clauses > 0, "reduction should have fired");
        let arena = &s.arena;
        for cr in arena.refs().filter(|&cr| arena.has(cr, DELETED)) {
            assert!(arena.has(cr, LEARNT) && arena.tier(cr) == Tier::Local);
            assert!(!s.reason.contains(&cr), "a deleted clause is no assignment's reason");
        }
        for cr in arena.refs().filter(|&cr| {
            arena.has(cr, LEARNT) && !arena.has(cr, DELETED) && arena.tier(cr) == Tier::Core
        }) {
            assert!(arena.len(cr) == 2 || arena.lbd(cr) <= s.config.core_lbd);
        }
    }

    #[test]
    fn legacy_activity_mode_still_reduces_and_agrees() {
        let cfg = SolverConfig {
            reduce_interval: 50,
            db_mode: ClauseDbMode::Activity,
            ..SolverConfig::legacy()
        };
        let mut s = pigeonhole(8, 7, cfg);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().deleted_clauses > 0);
    }

    #[test]
    fn ema_restarts_fire_on_hard_instances() {
        let cfg = SolverConfig { restart_base: 10, ..SolverConfig::default() };
        let mut s = pigeonhole(8, 7, cfg);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().restarts > 0, "EMA restarts should trigger on pigeonhole");
    }

    #[test]
    fn binary_clauses_propagate_through_implication_lists() {
        // A pure-binary implication chain: 1 → 2 → 3 → 4, plus unit 1.
        let (mut s, v) = make_solver(4);
        s.add_clause(&[lit(&v, -1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2), lit(&v, 3)]);
        s.add_clause(&[lit(&v, -3), lit(&v, 4)]);
        s.add_clause(&[lit(&v, 1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &x in &v {
            assert_eq!(s.value(x), Some(true));
        }
        // All three implications live in binary lists, not the general watches.
        assert!(s.watches.iter().all(|w| w.is_empty()));
        assert!(s.bin_watches.iter().map(|w| w.len()).sum::<usize>() == 6);
    }

    /// Regression: already-implied assumptions open dummy decision levels, so the
    /// decision level during conflict analysis can exceed the variable count; the
    /// LBD level-stamp scratch array must grow rather than index out of bounds.
    #[test]
    fn repeated_assumptions_beyond_var_count_do_not_panic() {
        let (mut s, v) = make_solver(4);
        // A chain whose conflict fires after a decision: assuming 1 implies 2;
        // clauses force a conflict among 3 and 4 only after branching.
        s.add_clause(&[lit(&v, -1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2), lit(&v, 3), lit(&v, 4)]);
        s.add_clause(&[lit(&v, -3), lit(&v, -4)]);
        s.add_clause(&[lit(&v, 3), lit(&v, 4)]);
        // Six copies of the same assumption: five of them are already implied and
        // open dummy levels, pushing the decision level past num_vars.
        let assumptions = [lit(&v, 1); 6];
        let r = s.solve_with_assumptions(&assumptions);
        assert_eq!(r, SolveResult::Sat);
    }

    /// FNV-1a over `bytes`: a stable fingerprint for the pinned DIMACS dumps.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// The model as hex digits, four variables per digit in creation order.
    fn model_hex(s: &Solver) -> String {
        let bits: Vec<bool> =
            (0..s.num_vars()).map(|i| s.value(Var(i as u32)).expect("model is total")).collect();
        bits.chunks(4)
            .map(|nibble| {
                let d = nibble.iter().rev().fold(0u32, |acc, &b| acc << 1 | b as u32);
                char::from_digit(d, 16).expect("a nibble is one hex digit")
            })
            .collect()
    }

    /// A seeded random 3-SAT instance over `nvars` variables (xorshift64).
    fn random_3sat(s: &mut Solver, nvars: usize, nclauses: usize, seed: u64) -> Vec<Var> {
        let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
        let mut x = seed;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..nclauses {
            let c: Vec<Lit> = (0..3)
                .map(|_| {
                    let r = next();
                    Lit::new(vars[(r % nvars as u64) as usize], (r >> 32) & 1 == 1)
                })
                .collect();
            s.add_clause(&c);
        }
        vars
    }

    /// Pins the exact search path, not just the verdict: every `SolverStats`
    /// field, the model of every SAT answer and a fingerprint of the DIMACS dump
    /// after solving. A change to clause storage, watch-list order, reduction
    /// order or any heuristic moves at least one of these; the expected values
    /// are re-baselined only by a change that means to alter the search.
    #[test]
    fn search_path_is_pinned_by_exact_counters() {
        let dimacs_hash = |s: &Solver| fnv1a(s.to_dimacs().as_bytes());

        let mut s = pigeonhole(7, 6, SolverConfig::default());
        assert_eq!(s.solve(), SolveResult::Unsat);
        let expect = SolverStats {
            decisions: 996,
            propagations: 10138,
            conflicts: 793,
            restarts: 5,
            blocked_restarts: 0,
            learnt_clauses: 787,
            deleted_clauses: 0,
            minimized_literals: 1642,
            learnt_literals: 8482,
            glue_histogram: [0, 18, 41, 102, 113, 106, 104, 303],
            core_clauses: 101,
            mid_clauses: 431,
            local_clauses: 255,
        };
        assert_eq!(s.stats(), expect, "pigeonhole 7→6, default");
        assert_eq!(dimacs_hash(&s), 11607665696314791525, "pigeonhole 7→6, default");

        let mut s = pigeonhole(7, 6, SolverConfig::legacy());
        assert_eq!(s.solve(), SolveResult::Unsat);
        let expect = SolverStats {
            decisions: 996,
            propagations: 10188,
            conflicts: 831,
            restarts: 6,
            blocked_restarts: 0,
            learnt_clauses: 824,
            deleted_clauses: 0,
            minimized_literals: 1572,
            learnt_literals: 8953,
            glue_histogram: [0, 18, 40, 93, 124, 124, 109, 316],
            core_clauses: 145,
            mid_clauses: 459,
            local_clauses: 220,
        };
        assert_eq!(s.stats(), expect, "pigeonhole 7→6, legacy");
        assert_eq!(dimacs_hash(&s), 6630461951939541870, "pigeonhole 7→6, legacy");

        // Random 3-SAT at the threshold with reductions every 30 conflicts, so
        // deleted clauses' watchers are dropped lazily mid-search, under both
        // reduction policies.
        let cfg = SolverConfig { reduce_interval: 30, ..SolverConfig::default() };
        let mut s = Solver::with_config(cfg);
        random_3sat(&mut s, 150, 640, 0x5eed_0003);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let expect = SolverStats {
            decisions: 3197,
            propagations: 81009,
            conflicts: 2658,
            restarts: 0,
            blocked_restarts: 0,
            learnt_clauses: 500,
            deleted_clauses: 2149,
            minimized_literals: 6509,
            learnt_literals: 21238,
            glue_histogram: [0, 72, 267, 425, 582, 462, 342, 499],
            core_clauses: 447,
            mid_clauses: 15,
            local_clauses: 38,
        };
        assert_eq!(s.stats(), expect, "random 3-SAT, tiered reduction");
        assert_eq!(dimacs_hash(&s), 11190153966312197705, "random 3-SAT, tiered reduction");

        let cfg = SolverConfig { reduce_interval: 30, ..SolverConfig::legacy() };
        let mut s = Solver::with_config(cfg);
        random_3sat(&mut s, 150, 640, 0x5eed_0003);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let expect = SolverStats {
            decisions: 3048,
            propagations: 81553,
            conflicts: 2540,
            restarts: 14,
            blocked_restarts: 0,
            learnt_clauses: 92,
            deleted_clauses: 2438,
            minimized_literals: 6127,
            learnt_literals: 19769,
            glue_histogram: [0, 82, 268, 460, 480, 457, 341, 442],
            core_clauses: 78,
            mid_clauses: 14,
            local_clauses: 0,
        };
        assert_eq!(s.stats(), expect, "random 3-SAT, activity reduction");
        assert_eq!(dimacs_hash(&s), 12626380568436392794, "random 3-SAT, activity reduction");

        // One solver answering a seeded sequence of assumption sets: learnt
        // clauses and saved phases carry from each call into the next.
        let mut s = Solver::new();
        let vars = random_3sat(&mut s, 60, 220, 0xa55_00e5);
        let mut x = 0x1234_5678_9abc_def1u64;
        let answers: Vec<String> = (0..8)
            .map(|round| {
                let assumptions: Vec<Lit> = (0..1 + round % 4)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        Lit::new(vars[(x % 60) as usize], (x >> 40) & 1 == 1)
                    })
                    .collect();
                match s.solve_with_assumptions(&assumptions) {
                    SolveResult::Sat => model_hex(&s),
                    other => format!("{other:?}"),
                }
            })
            .collect();
        let expect_answers = [
            "c8ed4e03502b660",
            "Unsat",
            "261ee17e556e8ee",
            "c83e405f516b86e",
            "c8ec46035029665",
            "c8ec46035029665",
            "865e407f762aaeb",
            "e82ec15f516186f",
        ];
        assert_eq!(answers, expect_answers, "assumption sequence: verdicts and models");
        let expect = SolverStats {
            decisions: 146,
            propagations: 1331,
            conflicts: 53,
            restarts: 0,
            blocked_restarts: 0,
            learnt_clauses: 53,
            deleted_clauses: 0,
            minimized_literals: 34,
            learnt_literals: 318,
            glue_histogram: [0, 7, 7, 11, 15, 9, 4, 0],
            core_clauses: 16,
            mid_clauses: 36,
            local_clauses: 1,
        };
        assert_eq!(s.stats(), expect, "assumption sequence");
        assert_eq!(dimacs_hash(&s), 12606250931205159310, "assumption sequence");
    }

    #[test]
    fn binary_conflict_is_analyzed_correctly() {
        // 1→2 and 1→¬2 makes assuming 1 contradictory: solver must derive ¬1.
        let (mut s, v) = make_solver(3);
        s.add_clause(&[lit(&v, -1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -1), lit(&v, -2)]);
        s.add_clause(&[lit(&v, 1), lit(&v, 3)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(false));
        assert_eq!(s.value(v[2]), Some(true));
    }
}
