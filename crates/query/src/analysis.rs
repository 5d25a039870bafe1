//! Static analysis of UCQs: root variables, separator variables,
//! hierarchical and inversion-free tests, and safety detection.
//!
//! These notions drive both the safe-plan evaluator ([`crate::safe_plan`])
//! and the ConOBDD construction of Section 4.2:
//!
//! * a **root variable** of a conjunctive query appears in every atom;
//! * a **separator variable** of a UCQ is obtained by picking a root variable
//!   in each disjunct and unifying them, such that any two atoms over the
//!   same relation symbol carry it at the same attribute position;
//! * a conjunctive query without self-joins is **hierarchical** iff for any
//!   two existential variables the sets of atoms containing them are either
//!   disjoint or one contains the other — for such queries the Boolean
//!   probability is computable in polynomial time (safe);
//! * a UCQ is **inversion-free** when it can be compiled into an OBDD using
//!   only concatenation steps; inversion-free queries admit OBDDs of width
//!   bounded by a constant (Proposition 2).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{ConjunctiveQuery, Name, Ucq};

/// A separator choice for a UCQ: for each disjunct, the name of the root
/// variable that plays the role of the separator `z`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Separator {
    /// For each disjunct (by index), the chosen root variable.
    pub per_disjunct: Vec<String>,
}

/// Result of analysing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnalysis {
    /// Whether each disjunct (as a Boolean query) is hierarchical.
    pub hierarchical: Vec<bool>,
    /// Whether the UCQ has a separator variable.
    pub separator: Option<Separator>,
    /// Whether the UCQ is (detectably) inversion-free.
    pub inversion_free: bool,
}

/// Root variables of a conjunctive query: existential variables that occur in
/// every atom.
pub fn root_variables(cq: &ConjunctiveQuery) -> Vec<String> {
    if cq.atoms.is_empty() {
        return Vec::new();
    }
    let mut candidates: BTreeSet<String> = cq.atoms[0].variables().map(str::to_string).collect();
    for atom in &cq.atoms[1..] {
        let vars: BTreeSet<String> = atom.variables().map(str::to_string).collect();
        candidates = candidates.intersection(&vars).cloned().collect();
    }
    // Head variables are constants from the probabilistic point of view, so
    // they are excluded: a root variable must be existentially quantified.
    let head: BTreeSet<String> = cq.head_variables().into_iter().collect();
    candidates
        .into_iter()
        .filter(|v| !head.contains(v))
        .collect()
}

/// The set of atom indices containing each existential variable.
fn occurrence_map(cq: &ConjunctiveQuery) -> BTreeMap<String, BTreeSet<usize>> {
    let head: BTreeSet<String> = cq.head_variables().into_iter().collect();
    let mut map: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for (i, atom) in cq.atoms.iter().enumerate() {
        for v in atom.variable_set() {
            if !head.contains(v) {
                map.entry(v.to_string()).or_default().insert(i);
            }
        }
    }
    map
}

/// `true` when the conjunctive query is hierarchical: for any two existential
/// variables `x`, `y`, `at(x) ⊆ at(y)`, `at(y) ⊆ at(x)`, or
/// `at(x) ∩ at(y) = ∅`.
pub fn is_hierarchical(cq: &ConjunctiveQuery) -> bool {
    let occ = occurrence_map(cq);
    let vars: Vec<&BTreeSet<usize>> = occ.values().collect();
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            let a = vars[i];
            let b = vars[j];
            let disjoint = a.is_disjoint(b);
            let a_in_b = a.is_subset(b);
            let b_in_a = b.is_subset(a);
            if !(disjoint || a_in_b || b_in_a) {
                return false;
            }
        }
    }
    true
}

/// Finds a separator variable of a Boolean UCQ (Section 4.2): one root
/// variable per disjunct such that any two atoms with the same relation
/// symbol (across all disjuncts) contain it at the same attribute position.
pub fn find_separator(ucq: &Ucq) -> Option<Separator> {
    find_separator_over(ucq, &|_| true)
}

/// Like [`find_separator`], but only atoms over relations for which
/// `is_probabilistic` returns `true` are constrained.
///
/// Deterministic atoms contribute no Boolean variables to the lineage, so a
/// variable that occurs in every *probabilistic* atom of a disjunct (at
/// consistent positions per probabilistic relation) already guarantees that
/// groundings with different values touch disjoint sets of tuples — which is
/// all that the independent-project rule and the ConOBDD concatenation need.
/// This is how the MarkoViews of Figure 1 obtain their per-author /
/// per-institution blocks even though the separator does not occur in the
/// deterministic `Wrote` and `Pub` atoms.
pub fn find_separator_over(
    ucq: &Ucq,
    is_probabilistic: &impl Fn(&str) -> bool,
) -> Option<Separator> {
    // Candidate root variables of a disjunct, restricted to its probabilistic
    // atoms.
    fn prob_roots(cq: &ConjunctiveQuery, is_probabilistic: &impl Fn(&str) -> bool) -> Vec<String> {
        let prob_atoms: Vec<_> = cq
            .atoms
            .iter()
            .filter(|a| is_probabilistic(&a.relation))
            .collect();
        if prob_atoms.is_empty() {
            return Vec::new();
        }
        let mut candidates: BTreeSet<String> =
            prob_atoms[0].variables().map(str::to_string).collect();
        for atom in &prob_atoms[1..] {
            let vars: BTreeSet<String> = atom.variables().map(str::to_string).collect();
            candidates = candidates.intersection(&vars).cloned().collect();
        }
        let head: BTreeSet<String> = cq.head_variables().into_iter().collect();
        candidates
            .into_iter()
            .filter(|v| !head.contains(v))
            .collect()
    }

    fn consistent(
        cq: &ConjunctiveQuery,
        var: &str,
        positions: &mut BTreeMap<Name, usize>,
        is_probabilistic: &impl Fn(&str) -> bool,
    ) -> bool {
        for atom in &cq.atoms {
            if !is_probabilistic(&atom.relation) {
                continue;
            }
            let pos = atom.positions_of(var);
            if pos.is_empty() {
                return false;
            }
            let p = pos[0];
            match positions.get(&atom.relation) {
                Some(&q) if q != p => return false,
                Some(_) => {}
                None => {
                    positions.insert(atom.relation.clone(), p);
                }
            }
        }
        true
    }

    // Depth-first search over the choices of root variables per disjunct.
    fn go(
        ucq: &Ucq,
        idx: usize,
        positions: &mut BTreeMap<Name, usize>,
        chosen: &mut Vec<String>,
        is_probabilistic: &impl Fn(&str) -> bool,
    ) -> bool {
        if idx == ucq.disjuncts.len() {
            return true;
        }
        let cq = &ucq.disjuncts[idx];
        if cq.atoms.is_empty() {
            return false;
        }
        for var in prob_roots(cq, is_probabilistic) {
            let mut saved = positions.clone();
            if consistent(cq, &var, &mut saved, is_probabilistic) {
                chosen.push(var);
                let mut next = saved;
                if go(ucq, idx + 1, &mut next, chosen, is_probabilistic) {
                    *positions = next;
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }

    let mut chosen = Vec::new();
    let mut positions = BTreeMap::new();
    if go(ucq, 0, &mut positions, &mut chosen, is_probabilistic) {
        Some(Separator {
            per_disjunct: chosen,
        })
    } else {
        None
    }
}

/// Partitions the disjuncts of a UCQ into groups that share no relation
/// symbols; different groups have independent lineages.
pub fn independent_disjunct_groups(ucq: &Ucq) -> Vec<Vec<usize>> {
    let n = ucq.disjuncts.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let ri = ucq.disjuncts[i].relation_names();
            let rj = ucq.disjuncts[j].relation_names();
            if !ri.is_disjoint(&rj) {
                let a = find(&mut parent, i);
                let b = find(&mut parent, j);
                parent[a] = b;
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    groups.into_values().collect()
}

/// Partitions the atoms of a conjunctive query into components connected by
/// shared existential variables *or* shared relation symbols. Distinct
/// components have independent lineages, so their probabilities multiply.
pub fn independent_atom_components(cq: &ConjunctiveQuery) -> Vec<Vec<usize>> {
    let n = cq.atoms.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    let head: BTreeSet<String> = cq.head_variables().into_iter().collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let vi: BTreeSet<&str> = cq.atoms[i]
                .variable_set()
                .into_iter()
                .filter(|v| !head.contains(*v))
                .collect();
            let vj: BTreeSet<&str> = cq.atoms[j]
                .variable_set()
                .into_iter()
                .filter(|v| !head.contains(*v))
                .collect();
            let share_var = !vi.is_disjoint(&vj);
            let share_rel = cq.atoms[i].relation == cq.atoms[j].relation;
            // Comparisons joining variables of the two atoms also connect them.
            let share_cmp = cq.comparisons.iter().any(|c| {
                let vars: BTreeSet<&str> = c.variables().collect();
                !vars.is_disjoint(&vi) && !vars.is_disjoint(&vj)
            });
            if share_var || share_rel || share_cmp {
                let a = find(&mut parent, i);
                let b = find(&mut parent, j);
                parent[a] = b;
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    groups.into_values().collect()
}

/// Conservative inversion-freeness test (Section 4.2 / \[15\]).
///
/// A UCQ is inversion-free when there exists a choice of per-relation
/// attribute permutations `π` such that the `ConOBDD` construction performs
/// only concatenations in rule R3; such queries have OBDDs of constant width.
///
/// The test used here is the classical position-consistency characterisation:
/// every disjunct must be hierarchical, and it must be possible to order the
/// attributes of every relation so that, within each atom, attributes holding
/// "higher" variables (variables whose atom set strictly contains that of
/// another variable) come before attributes holding "lower" variables —
/// consistently across all atoms of the same relation in all disjuncts.
/// `true` is only returned when such an ordering exists, so a `true` answer
/// guarantees a constant-width OBDD; a `false` answer is conservative.
pub fn is_inversion_free(ucq: &Ucq) -> bool {
    let boolean = ucq.boolean();
    if !boolean.disjuncts.iter().all(is_hierarchical) {
        return false;
    }
    // Precedence constraints `earlier < later` between attribute positions,
    // per relation name.
    let mut constraints: BTreeMap<Name, BTreeSet<(usize, usize)>> = BTreeMap::new();
    for cq in &boolean.disjuncts {
        let occ = occurrence_map(cq);
        for atom in &cq.atoms {
            let vars: Vec<&str> = atom.variable_set().into_iter().collect();
            for &x in &vars {
                for &y in &vars {
                    if x == y {
                        continue;
                    }
                    let (Some(ax), Some(ay)) = (occ.get(x), occ.get(y)) else {
                        continue;
                    };
                    // x strictly above y in the hierarchy of this disjunct.
                    if ax.is_superset(ay) && ax != ay {
                        for &px in &atom.positions_of(x) {
                            for &py in &atom.positions_of(y) {
                                constraints
                                    .entry(atom.relation.clone())
                                    .or_default()
                                    .insert((px, py));
                            }
                        }
                    }
                }
            }
        }
    }
    // Each relation's precedence constraints must be satisfiable (acyclic).
    for cs in constraints.values() {
        if has_cycle(cs) {
            return false;
        }
    }
    true
}

/// Detects a cycle in a set of `a < b` precedence constraints.
fn has_cycle(edges: &BTreeSet<(usize, usize)>) -> bool {
    let nodes: BTreeSet<usize> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    // Kahn's algorithm.
    let mut indegree: BTreeMap<usize, usize> = nodes.iter().map(|&n| (n, 0)).collect();
    for &(_, b) in edges {
        *indegree.get_mut(&b).unwrap() += 1;
    }
    let mut queue: Vec<usize> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    let mut seen = 0;
    while let Some(n) = queue.pop() {
        seen += 1;
        for &(a, b) in edges {
            if a == n {
                let d = indegree.get_mut(&b).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push(b);
                }
            }
        }
    }
    seen != nodes.len()
}

/// Runs the full analysis on a UCQ (considered as a Boolean query).
pub fn analyze(ucq: &Ucq) -> QueryAnalysis {
    let boolean = ucq.boolean();
    QueryAnalysis {
        hierarchical: boolean.disjuncts.iter().map(is_hierarchical).collect(),
        separator: find_separator(&boolean),
        inversion_free: is_inversion_free(&boolean),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_ucq};

    #[test]
    fn root_variables_of_simple_queries() {
        let q = parse_query("Q() :- R(x), S(x, y)").unwrap();
        assert_eq!(root_variables(&q), vec!["x"]);
        let q = parse_query("Q() :- R(x), S(x, y), T(y)").unwrap();
        assert!(root_variables(&q).is_empty());
        let q = parse_query("Q(x) :- R(x), S(x, y)").unwrap();
        // Head variables are not roots.
        assert!(root_variables(&q).is_empty());
    }

    #[test]
    fn hierarchical_classification_matches_the_known_examples() {
        // Safe query: R(x), S(x, y).
        assert!(is_hierarchical(
            &parse_query("Q() :- R(x), S(x, y)").unwrap()
        ));
        // The canonical #P-hard query H0 = R(x), S(x, y), T(y).
        assert!(!is_hierarchical(
            &parse_query("Q() :- R(x), S(x, y), T(y)").unwrap()
        ));
        // Grounded variables restore safety.
        assert!(is_hierarchical(
            &parse_query("Q(y) :- R(x), S(x, y), T(y)").unwrap()
        ));
    }

    #[test]
    fn separator_exists_for_queries_with_shared_root_positions() {
        let u = parse_ucq("Q() :- R(x1), S(x1, y1) ; Q() :- T(x2), S(x2, y2)").unwrap();
        let sep = find_separator(&u).unwrap();
        assert_eq!(sep.per_disjunct, vec!["x1".to_string(), "x2".to_string()]);
    }

    #[test]
    fn separator_missing_for_inverted_queries() {
        // Example from Section 4.2: R(x1),S(x1,y1) ∨ S(x2,y2),T(y2) has no separator.
        let u = parse_ucq("Q() :- R(x1), S(x1, y1) ; Q() :- S(x2, y2), T(y2)").unwrap();
        assert!(find_separator(&u).is_none());
        assert!(!is_inversion_free(&u));
    }

    #[test]
    fn inversion_free_queries_are_detected() {
        let u = parse_ucq("Q() :- R(x1), S(x1, y1) ; Q() :- T(x2), S(x2, y2)").unwrap();
        assert!(is_inversion_free(&u));
        let single = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        assert!(is_inversion_free(&single));
        // H0 is not inversion-free.
        let h0 = parse_ucq("Q() :- R(x), S(x, y), T(y)").unwrap();
        assert!(!is_inversion_free(&h0));
    }

    #[test]
    fn independent_groups_split_by_relation_symbols() {
        let u = parse_ucq("Q() :- R(x), S(x, y) ; Q() :- T(z) ; Q() :- S(u, v)").unwrap();
        let groups = independent_disjunct_groups(&u);
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert!(sizes.contains(&1) && sizes.contains(&2));
    }

    #[test]
    fn independent_atom_components_split_disconnected_subqueries() {
        let q = parse_query("Q() :- R(x), S(x, y), T(z), U(z, w)").unwrap();
        let comps = independent_atom_components(&q);
        assert_eq!(comps.len(), 2);
        // Self-joins keep atoms in the same component even without shared vars.
        let q = parse_query("Q() :- R(x), R(y)").unwrap();
        assert_eq!(independent_atom_components(&q).len(), 1);
    }

    #[test]
    fn analyze_summarises_everything() {
        let u = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let a = analyze(&u);
        assert_eq!(a.hierarchical, vec![true]);
        assert!(a.separator.is_some());
        assert!(a.inversion_free);
    }

    #[test]
    fn comparisons_connect_atom_components() {
        let q = parse_query("Q() :- R(x), T(z), x < z").unwrap();
        assert_eq!(independent_atom_components(&q).len(), 1);
    }
}
