//! Basic-graph-pattern evaluation.
//!
//! The workbench manager "processes ad hoc queries posed to the IB"
//! (§5.2). A query here is a conjunction of [`TriplePattern`]s evaluated
//! by backtracking join: patterns are greedily ordered most-selective
//! first and solved left to right, binding variables as they go.

use crate::pattern::{Resolution, TriplePattern};
use crate::store::TripleStore;
use crate::term::TermId;
use std::collections::{HashMap, HashSet};

/// One solution: a binding of variable names to terms.
pub type Bindings = HashMap<String, TermId>;

/// Evaluate a basic graph pattern, returning every solution.
///
/// Duplicate solutions (possible when a pattern has no variables) are
/// preserved only once per distinct binding set.
///
/// # Examples
///
/// ```
/// use iwb_rdf::{select, PatternTerm, Term, TriplePattern, TripleStore};
///
/// let mut store = TripleStore::new();
/// store.insert(Term::iri("iwb:cell/1"), Term::iri("iwb:is-user-defined"), Term::boolean(true));
/// store.insert(Term::iri("iwb:cell/2"), Term::iri("iwb:is-user-defined"), Term::boolean(false));
///
/// let solutions = select(&store, &[TriplePattern::new(
///     PatternTerm::var("cell"),
///     Term::iri("iwb:is-user-defined"),
///     Term::boolean(true),
/// )]);
/// assert_eq!(solutions.len(), 1);
/// assert_eq!(store.term(solutions[0]["cell"]), &Term::iri("iwb:cell/1"));
/// ```
pub fn select(store: &TripleStore, patterns: &[TriplePattern]) -> Vec<Bindings> {
    if patterns.is_empty() {
        return vec![Bindings::new()];
    }
    // Order patterns by static selectivity: more constants first.
    let mut ordered: Vec<&TriplePattern> = patterns.iter().collect();
    ordered.sort_by_key(|p| p.variables().len());
    let mut solutions = Vec::new();
    solve(store, &ordered, 0, &mut Bindings::new(), &mut solutions);
    dedup(solutions)
}

fn dedup(mut solutions: Vec<Bindings>) -> Vec<Bindings> {
    let mut seen: HashSet<Vec<(String, TermId)>> = HashSet::new();
    solutions.retain(|b| {
        let mut kv: Vec<(String, TermId)> = b.iter().map(|(k, &v)| (k.clone(), v)).collect();
        kv.sort();
        seen.insert(kv)
    });
    solutions
}

fn solve(
    store: &TripleStore,
    patterns: &[&TriplePattern],
    idx: usize,
    bindings: &mut Bindings,
    out: &mut Vec<Bindings>,
) {
    if idx == patterns.len() {
        out.push(bindings.clone());
        return;
    }
    let pat = patterns[idx];
    // Resolve each position against constants and current bindings.
    let resolve = |pt: &crate::pattern::PatternTerm| -> Option<(Option<TermId>, Option<String>)> {
        match pt.resolve(store) {
            Resolution::Bound(id) => Some((Some(id), None)),
            Resolution::Unsatisfiable => None,
            Resolution::Variable(v) => match bindings.get(&v) {
                Some(&id) => Some((Some(id), None)),
                None => Some((None, Some(v))),
            },
        }
    };
    let Some((s, sv)) = resolve(&pat.s) else {
        return;
    };
    let Some((p, pv)) = resolve(&pat.p) else {
        return;
    };
    let Some((o, ov)) = resolve(&pat.o) else {
        return;
    };

    for triple in store.matching(s, p, o) {
        let mut local = Vec::with_capacity(3);
        let mut ok = true;
        for (var, val) in [(&sv, triple.s), (&pv, triple.p), (&ov, triple.o)] {
            if let Some(name) = var {
                match bindings.get(name) {
                    Some(&bound) if bound != val => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        // Repeated variable within this same pattern must
                        // agree with what this triple already bound.
                        if let Some(&(_, prev)) =
                            local.iter().find(|(n, _): &&(String, TermId)| n == name)
                        {
                            if prev != val {
                                ok = false;
                                break;
                            }
                        } else {
                            local.push((name.clone(), val));
                        }
                    }
                }
            }
        }
        if !ok {
            continue;
        }
        for (name, val) in &local {
            bindings.insert(name.clone(), *val);
        }
        solve(store, patterns, idx + 1, bindings, out);
        for (name, _) in &local {
            bindings.remove(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternTerm;
    use crate::term::Term;

    fn sample() -> TripleStore {
        let mut st = TripleStore::new();
        let data = [
            ("iwb:matrix/m", "rdf:type", "iwb:MappingMatrix"),
            ("iwb:cell/1", "iwb:in-matrix", "iwb:matrix/m"),
            ("iwb:cell/2", "iwb:in-matrix", "iwb:matrix/m"),
            ("iwb:cell/1", "iwb:source-element", "iwb:e/a"),
            ("iwb:cell/2", "iwb:source-element", "iwb:e/b"),
            ("iwb:e/a", "iwb:name", "iwb:n/shipTo"),
        ];
        for (s, p, o) in data {
            st.insert(Term::iri(s), Term::iri(p), Term::iri(o));
        }
        st
    }

    fn pat(s: &str, p: &str, o: &str) -> TriplePattern {
        let part = |x: &str| -> PatternTerm {
            if let Some(v) = x.strip_prefix('?') {
                PatternTerm::var(v)
            } else {
                PatternTerm::Const(Term::iri(x))
            }
        };
        TriplePattern::new(part(s), part(p), part(o))
    }

    #[test]
    fn single_pattern_single_var() {
        let st = sample();
        let sols = select(&st, &[pat("?c", "iwb:in-matrix", "iwb:matrix/m")]);
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn join_across_patterns() {
        let st = sample();
        let sols = select(
            &st,
            &[
                pat("?c", "iwb:in-matrix", "iwb:matrix/m"),
                pat("?c", "iwb:source-element", "?e"),
                pat("?e", "iwb:name", "iwb:n/shipTo"),
            ],
        );
        assert_eq!(sols.len(), 1);
        let c = st.lookup(&Term::iri("iwb:cell/1")).unwrap();
        assert_eq!(sols[0]["c"], c);
    }

    #[test]
    fn unsatisfiable_constant_yields_nothing() {
        let st = sample();
        let sols = select(&st, &[pat("?c", "iwb:never-interned", "?x")]);
        assert!(sols.is_empty());
    }

    #[test]
    fn empty_bgp_yields_unit_solution() {
        let st = sample();
        let sols = select(&st, &[]);
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
    }

    #[test]
    fn fully_ground_pattern_acts_as_ask() {
        let st = sample();
        let hit = select(&st, &[pat("iwb:cell/1", "iwb:in-matrix", "iwb:matrix/m")]);
        assert_eq!(hit.len(), 1);
        let miss = select(&st, &[pat("iwb:cell/1", "iwb:in-matrix", "iwb:cell/2")]);
        assert!(miss.is_empty());
    }

    #[test]
    fn repeated_variable_within_pattern_requires_equality() {
        let mut st = sample();
        st.insert(
            Term::iri("iwb:x"),
            Term::iri("iwb:self"),
            Term::iri("iwb:x"),
        );
        st.insert(
            Term::iri("iwb:y"),
            Term::iri("iwb:self"),
            Term::iri("iwb:z"),
        );
        let sols = select(&st, &[pat("?a", "iwb:self", "?a")]);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["a"], st.lookup(&Term::iri("iwb:x")).unwrap());
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        let st = sample();
        let sols = select(
            &st,
            &[
                pat("?c", "iwb:in-matrix", "iwb:matrix/m"),
                pat("?e", "iwb:name", "iwb:n/shipTo"),
            ],
        );
        assert_eq!(sols.len(), 2);
    }
}
