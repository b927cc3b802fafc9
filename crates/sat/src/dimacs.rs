//! DIMACS CNF import/export — the escape hatch for debugging solver queries.
//!
//! A misbehaving query deep inside the synthesis harness can be dumped with
//! [`Solver::to_dimacs`], minimized/replayed with any external SAT tooling, and
//! loaded back with [`Solver::from_dimacs`]. Only the *problem* is serialized:
//! learnt clauses are excluded (they are implied, and keeping them would make the
//! replay diverge from a fresh run), while root-level units — both added units and
//! units derived by root propagation — are emitted as unit clauses so the replay
//! starts from the same simplified instance.

use crate::{Lit, Solver, SolverConfig, Var};

impl Solver {
    /// Serializes the problem clauses (learnt clauses excluded) as DIMACS CNF.
    ///
    /// Root-level assignments are emitted as unit clauses; an instance already
    /// known to be unsatisfiable at the root emits the empty clause. Variables are
    /// numbered `1..=num_vars` in creation order, so a round-trip through
    /// [`Solver::from_dimacs`] preserves variable identity.
    pub fn to_dimacs(&self) -> String {
        let units = self.root_units();
        let empty = usize::from(self.known_unsat_at_root());
        let num_clauses = self.problem_clauses().count() + units.len() + empty;
        let mut out = String::new();
        out.push_str("c generated by lr-sat (problem clauses only; learnt excluded)\n");
        out.push_str(&format!("p cnf {} {}\n", self.num_vars(), num_clauses));
        let mut write_clause = |mut lits: Vec<Lit>| {
            // Propagation reorders watched literals in place; sort for a canonical
            // dump that is independent of search history.
            lits.sort_unstable();
            for l in lits {
                let v = l.var().0 as i64 + 1;
                let signed = if l.is_neg() { -v } else { v };
                out.push_str(&format!("{signed} "));
            }
            out.push_str("0\n");
        };
        for &u in units {
            write_clause(vec![u]);
        }
        for clause in self.problem_clauses() {
            write_clause(clause);
        }
        if empty > 0 {
            out.push_str("0\n");
        }
        out
    }

    /// Parses a DIMACS CNF document into a fresh solver with the default
    /// configuration. See [`Solver::from_dimacs_with_config`].
    ///
    /// # Errors
    /// Returns a description of the first malformed token or header.
    pub fn from_dimacs(text: &str) -> Result<Solver, String> {
        Self::from_dimacs_with_config(text, SolverConfig::default())
    }

    /// Parses a DIMACS CNF document into a fresh solver under `config`.
    ///
    /// Comment lines (`c …`) and the `p cnf V C` header are accepted; the header
    /// is optional and its counts advisory (variables grow on demand, as emitted
    /// by tools that append clauses). Clauses are zero-terminated literal lists
    /// and may span lines.
    ///
    /// # Errors
    /// Returns a description of the first malformed token or header.
    pub fn from_dimacs_with_config(text: &str, config: SolverConfig) -> Result<Solver, String> {
        let mut solver = Solver::with_config(config);
        let mut vars: Vec<Var> = Vec::new();
        let mut clause: Vec<Lit> = Vec::new();
        for (line_no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(format!("line {}: expected `p cnf V C` header", line_no + 1));
                }
                let nvars: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("line {}: malformed variable count", line_no + 1))?;
                while vars.len() < nvars {
                    vars.push(solver.new_var());
                }
                continue;
            }
            for token in line.split_whitespace() {
                let value: i64 = token
                    .parse()
                    .map_err(|_| format!("line {}: malformed literal `{token}`", line_no + 1))?;
                if value == 0 {
                    // An empty terminated clause is the empty clause: root UNSAT.
                    solver.add_clause(&clause);
                    clause.clear();
                    continue;
                }
                let index = value.unsigned_abs() as usize - 1;
                while vars.len() <= index {
                    vars.push(solver.new_var());
                }
                clause.push(Lit::new(vars[index], value < 0));
            }
        }
        if !clause.is_empty() {
            return Err("unterminated clause at end of input (missing trailing 0)".to_string());
        }
        Ok(solver)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Lit, SolveResult, Solver, SolverConfig, Var};

    fn assert_same_verdict(a: &mut Solver, b: &mut Solver) {
        assert_eq!(a.solve(), b.solve());
    }

    #[test]
    fn round_trip_preserves_clauses_and_verdict() {
        let mut s = Solver::new();
        let v: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        // Unit first so later clauses are already root-simplified against it and
        // the dump is in canonical (fixed-point) form.
        s.add_clause(&[Lit::pos(v[1])]);
        s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[3])]);
        let text = s.to_dimacs();
        assert!(text.contains("p cnf 4 3"));
        let mut replay = Solver::from_dimacs(&text).unwrap();
        assert_eq!(replay.num_vars(), 4);
        assert_same_verdict(&mut s, &mut replay);
        // The round-tripped text is identical (canonical form reached).
        assert_eq!(replay.to_dimacs(), text);
    }

    #[test]
    fn learnt_clauses_are_excluded() {
        // Solve a pigeonhole instance (forces learning), then dump: the dump must
        // contain exactly the problem clauses.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..4).map(|_| (0..3).map(|_| s.new_var()).collect()).collect();
        let mut n_problem = 0;
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
            n_problem += 1;
        }
        for j in 0..3 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                    n_problem += 1;
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().learnt_clauses + s.stats().deleted_clauses > 0);
        let text = s.to_dimacs();
        let clause_lines =
            text.lines().filter(|l| !l.starts_with('c') && !l.starts_with('p')).count();
        // Root-derived units may add lines but learnt non-unit clauses must not:
        // every emitted clause is either one of the problem clauses or a unit.
        let non_unit_lines = text
            .lines()
            .filter(|l| !l.starts_with('c') && !l.starts_with('p'))
            .filter(|l| l.split_whitespace().count() > 2)
            .count();
        assert!(non_unit_lines <= n_problem);
        assert!(clause_lines >= non_unit_lines);
        let mut replay = Solver::from_dimacs(&text).unwrap();
        assert_eq!(replay.solve(), SolveResult::Unsat);
    }

    #[test]
    fn root_unsat_round_trips_via_empty_clause() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[Lit::pos(v)]);
        s.add_clause(&[Lit::neg(v)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let text = s.to_dimacs();
        let mut replay = Solver::from_dimacs(&text).unwrap();
        assert_eq!(replay.solve(), SolveResult::Unsat);
    }

    #[test]
    fn parses_comments_header_and_multiline_clauses() {
        let text = "c a comment\np cnf 3 2\n1 -2\n3 0\n2 0\n";
        let mut s = Solver::from_dimacs(text).unwrap();
        assert_eq!(s.num_vars(), 3);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(Var(1)), Some(true)); // the unit clause `2 0`
    }

    #[test]
    fn grows_variables_beyond_the_header() {
        let text = "p cnf 1 1\n1 5 0\n";
        let s = Solver::from_dimacs(text).unwrap();
        assert_eq!(s.num_vars(), 5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Solver::from_dimacs("p cnf x 1\n").is_err());
        assert!(Solver::from_dimacs("p dnf 1 1\n").is_err());
        assert!(Solver::from_dimacs("1 2 potato 0\n").is_err());
        assert!(Solver::from_dimacs("1 2 3\n").is_err()); // missing terminator
    }

    #[test]
    fn custom_config_is_honoured() {
        let cfg = SolverConfig { name: "replay".into(), ..SolverConfig::legacy() };
        let s = Solver::from_dimacs_with_config("p cnf 2 1\n1 2 0\n", cfg).unwrap();
        assert_eq!(s.config().name, "replay");
    }
}
