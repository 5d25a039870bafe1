//! The `ConOBDD(π, Q)` construction of Section 4.2.
//!
//! [`ConObddBuilder`] constructs the OBDD of a Boolean UCQ by recursing over
//! the query structure:
//!
//! * **R1/R2** — unions and conjunctions of sub-queries over disjoint
//!   relations are combined by *concatenation* when their variables occupy
//!   disjoint, consecutive level ranges, and by synthesis otherwise;
//! * **R3** — an existential (separator) variable is expanded over the active
//!   domain; the groundings touch pairwise-disjoint sets of tuples, so their
//!   OBDDs are concatenated;
//! * **R4** — ground atoms become single-variable diagrams.
//!
//! The builder records how many concatenation and synthesis steps were used
//! ([`ConstructionStats`]), which the benchmarks report. When the query is
//! inversion-free and `π` puts the separator attributes first, only
//! concatenations are performed and the resulting diagram has constant width
//! (Proposition 2).
//!
//! This is the paper's construction, kept faithful: it grounds one
//! separator value at a time by substituting into the query AST, which
//! makes it a tuple-at-a-time interpreter — measurably *slower* on this
//! code base than evaluating the query's lineage set-at-a-time and folding
//! it level by level ([`ObddManager::dnf`]), which is how `mv-index`
//! compiles `W`. It serves the `ObddPerQuery` baseline, Figures 7–8, and
//! as the differential oracle of the index compile: canonicity makes both
//! routes reach the same node of a shared manager
//! (`tests/compile_equivalence.rs`).

use std::sync::Arc;

use mv_pdb::{InDb, TupleId, Value};
use mv_query::analysis::{find_separator_over, independent_atom_components};
use mv_query::eval::EvalContext;
use mv_query::lineage::lineage_with;
use mv_query::rewrite::{separator_domain, simplify_cq, SimplifiedCq};
use mv_query::{ConjunctiveQuery, Ucq};

use crate::manager::ObddManager;
use crate::obdd::Obdd;
use crate::order::{PiOrder, VarOrder};
use crate::Result;

/// Counters describing how an OBDD was constructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstructionStats {
    /// Number of concatenation steps (linear-time combinations).
    pub concatenations: usize,
    /// Number of synthesis (`apply`) steps.
    pub syntheses: usize,
    /// Number of sub-queries compiled by falling back to lineage synthesis.
    pub lineage_fallbacks: usize,
}

/// Builds OBDDs for UCQs using the concatenation-based construction.
///
/// Every diagram the builder produces — per-value parts, per-disjunct
/// diagrams, lineage fallbacks — lives in the builder's shared
/// [`ObddManager`], so combining them concatenates and synthesises in place
/// without ever copying node stores.
pub struct ConObddBuilder<'a> {
    indb: &'a InDb,
    ctx: EvalContext<'a>,
    manager: ObddManager,
    stats: ConstructionStats,
}

impl<'a> ConObddBuilder<'a> {
    /// Creates a builder over the order induced by the given `π` (with a
    /// fresh manager).
    pub fn new(indb: &'a InDb, pi: &PiOrder) -> Self {
        let order = Arc::new(pi.tuple_order(indb));
        Self::with_manager(indb, ObddManager::new(order))
    }

    /// Creates a builder that constructs into an existing manager (whose
    /// order must cover every probabilistic tuple the queries can touch).
    pub fn with_manager(indb: &'a InDb, manager: ObddManager) -> Self {
        ConObddBuilder {
            indb,
            ctx: EvalContext::new(indb.database()),
            manager,
            stats: ConstructionStats::default(),
        }
    }

    /// Creates a builder whose `π` is inferred from the query so that
    /// separator attributes come first (the heuristic of Section 4.2).
    pub fn for_query(indb: &'a InDb, ucq: &Ucq) -> Self {
        Self::new(indb, &PiOrder::infer(ucq, indb))
    }

    /// The variable order used by this builder.
    pub fn order(&self) -> Arc<VarOrder> {
        Arc::clone(self.manager.order())
    }

    /// The shared manager every diagram of this builder lives in.
    pub fn manager(&self) -> &ObddManager {
        &self.manager
    }

    /// Construction statistics accumulated so far.
    pub fn stats(&self) -> ConstructionStats {
        self.stats
    }

    /// Builds the OBDD of a Boolean UCQ.
    pub fn build(&mut self, ucq: &Ucq) -> Result<Obdd> {
        let boolean = ucq.boolean();
        self.build_ucq(&boolean.disjuncts)
    }

    fn constant(&self, value: bool) -> Obdd {
        self.manager.constant(value)
    }

    /// Predicate telling probabilistic relations apart from deterministic
    /// ones; separators only need to cover the probabilistic atoms.
    fn is_probabilistic(&self) -> impl Fn(&str) -> bool + 'a {
        let indb = self.indb;
        move |name: &str| {
            indb.schema()
                .relation_id(name)
                .map(|r| !indb.is_deterministic(r))
                .unwrap_or(false)
        }
    }

    fn build_ucq(&mut self, disjuncts: &[ConjunctiveQuery]) -> Result<Obdd> {
        // Simplify against the database; drop false disjuncts.
        let mut simplified = Vec::new();
        for d in disjuncts {
            match simplify_cq(d, self.indb) {
                SimplifiedCq::False => {}
                SimplifiedCq::True => return Ok(self.constant(true)),
                SimplifiedCq::Query(q) => simplified.push(q),
            }
        }
        simplified.sort_by_key(|d| d.to_string());
        simplified.dedup_by_key(|d| d.to_string());
        if simplified.is_empty() {
            return Ok(self.constant(false));
        }
        if simplified.len() == 1 {
            return self.build_cq(&simplified[0]);
        }
        let ucq = Ucq::new("w", simplified);

        // R3 with a separator across the whole union: expand over the domain
        // and concatenate.
        let separator = find_separator_over(&ucq, &self.is_probabilistic());
        if let Some(sep) = separator {
            let domain = separator_domain(&ucq, &sep.per_disjunct, self.indb);
            let mut parts = Vec::with_capacity(domain.len());
            for value in &domain {
                let grounded: Vec<ConjunctiveQuery> = ucq
                    .disjuncts
                    .iter()
                    .zip(&sep.per_disjunct)
                    .map(|(d, v)| d.substitute(v, value))
                    .collect();
                parts.push(self.build_ucq(&grounded)?);
            }
            return self.combine_or(parts);
        }

        // R1 without a separator: build each disjunct and synthesise.
        let mut acc = self.constant(false);
        for d in &ucq.disjuncts {
            let part = self.build_cq(d)?;
            acc = self.or(acc, part)?;
        }
        Ok(acc)
    }

    fn build_cq(&mut self, cq: &ConjunctiveQuery) -> Result<Obdd> {
        let cq = match simplify_cq(cq, self.indb) {
            SimplifiedCq::False => return Ok(self.constant(false)),
            SimplifiedCq::True => return Ok(self.constant(true)),
            SimplifiedCq::Query(q) => q,
        };

        // All atoms ground: the query is a single conjunction of tuple
        // variables (R4 plus R2-concatenation).
        if cq.atoms.iter().all(|a| a.is_ground()) {
            let mut tuples: Vec<TupleId> = Vec::with_capacity(cq.atoms.len());
            for atom in &cq.atoms {
                let rel = self
                    .indb
                    .schema()
                    .relation_id(&atom.relation)
                    .expect("simplify_cq verified the relation exists");
                let row: Vec<Value> = atom
                    .terms
                    .iter()
                    .map(|t| t.as_const().cloned().expect("atom is ground"))
                    .collect();
                let id = self
                    .indb
                    .tuple_id_by_values(rel, &row)
                    .expect("simplify_cq verified the tuple is possible");
                tuples.push(id);
            }
            self.stats.concatenations += tuples.len().saturating_sub(1);
            return self.manager.clause(&tuples);
        }

        // R2: independent components are combined one by one.
        let components = independent_atom_components(&cq);
        if components.len() > 1 {
            let mut parts = Vec::with_capacity(components.len());
            for comp in components {
                let atoms: Vec<_> = comp.iter().map(|&i| cq.atoms[i].clone()).collect();
                let vars: std::collections::BTreeSet<String> = atoms
                    .iter()
                    .flat_map(|a| a.variables().map(str::to_string))
                    .collect();
                let comparisons = cq
                    .comparisons
                    .iter()
                    .filter(|c| c.variables().any(|v| vars.contains(v)))
                    .cloned()
                    .collect();
                let sub = ConjunctiveQuery::new(cq.name.clone(), vec![], atoms, comparisons);
                parts.push(self.build_cq(&sub)?);
            }
            let mut acc = self.constant(true);
            for part in parts {
                acc = self.and(acc, part)?;
            }
            return Ok(acc);
        }

        // R3 within a single conjunctive query: expand a root variable.
        let ucq = Ucq::from_cq(cq.clone());
        let separator = find_separator_over(&ucq, &self.is_probabilistic());
        if let Some(sep) = separator {
            let var = &sep.per_disjunct[0];
            let domain = separator_domain(&ucq, &sep.per_disjunct, self.indb);
            let mut parts = Vec::with_capacity(domain.len());
            for value in &domain {
                parts.push(self.build_cq(&cq.substitute(var, value))?);
            }
            return self.combine_or(parts);
        }

        // Fallback: compute the lineage of this (small) sub-query and
        // synthesise it clause by clause.
        self.stats.lineage_fallbacks += 1;
        let lin = lineage_with(&ucq, self.indb, &self.ctx)?;
        self.stats.syntheses += lin.num_clauses().saturating_sub(1);
        self.manager.lineage(&lin)
    }

    /// Disjunction of many parts: concatenate if the level ranges line up,
    /// otherwise fold with synthesis.
    fn combine_or(&mut self, parts: Vec<Obdd>) -> Result<Obdd> {
        if parts.is_empty() {
            return Ok(self.constant(false));
        }
        match Obdd::concat_many_or(&self.manager, &parts) {
            Ok(obdd) => {
                self.stats.concatenations += parts.len().saturating_sub(1);
                Ok(obdd)
            }
            Err(_) => {
                let mut acc = self.constant(false);
                for part in parts {
                    acc = self.or(acc, part)?;
                }
                Ok(acc)
            }
        }
    }

    fn or(&mut self, a: Obdd, b: Obdd) -> Result<Obdd> {
        if a.levels_precede(&b) {
            if let Ok(r) = a.concat_or(&b) {
                self.stats.concatenations += 1;
                return Ok(r);
            }
        } else if b.levels_precede(&a) {
            if let Ok(r) = b.concat_or(&a) {
                self.stats.concatenations += 1;
                return Ok(r);
            }
        }
        self.stats.syntheses += 1;
        a.apply_or(&b)
    }

    fn and(&mut self, a: Obdd, b: Obdd) -> Result<Obdd> {
        if a.levels_precede(&b) {
            if let Ok(r) = a.concat_and(&b) {
                self.stats.concatenations += 1;
                return Ok(r);
            }
        } else if b.levels_precede(&a) {
            if let Ok(r) = b.concat_and(&a) {
                self.stats.concatenations += 1;
                return Ok(r);
            }
        }
        self.stats.syntheses += 1;
        a.apply_and(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, Weight};
    use mv_query::brute::brute_force_query_probability;
    use mv_query::parse_ucq;

    fn fig3() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        let t = b.probabilistic_relation("T", &["a"]).unwrap();
        let u = b.probabilistic_relation("U", &["b"]).unwrap();
        b.insert_weighted(r, row(["a1"]), Weight::new(3.0)).unwrap();
        b.insert_weighted(r, row(["a2"]), Weight::new(0.5)).unwrap();
        b.insert_weighted(s, row(["a1", "b1"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(s, row(["a1", "b2"]), Weight::new(2.0))
            .unwrap();
        b.insert_weighted(s, row(["a2", "b3"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(s, row(["a2", "b4"]), Weight::new(4.0))
            .unwrap();
        b.insert_weighted(t, row(["a1"]), Weight::new(1.0)).unwrap();
        b.insert_weighted(t, row(["a2"]), Weight::new(2.0)).unwrap();
        b.insert_weighted(u, row(["b1"]), Weight::new(1.5)).unwrap();
        b.insert_weighted(u, row(["b3"]), Weight::new(0.5)).unwrap();
        b.build()
    }

    fn check_against_brute(query: &str, indb: &InDb) -> (f64, ConstructionStats) {
        let q = parse_ucq(query).unwrap();
        let mut builder = ConObddBuilder::for_query(indb, &q);
        let obdd = builder.build(&q).unwrap();
        let p = obdd.probability(|t| indb.probability(t));
        let brute = brute_force_query_probability(&q, indb).unwrap();
        assert!(
            (p - brute).abs() < 1e-9,
            "{query}: obdd {p} vs brute {brute}"
        );
        (p, builder.stats())
    }

    #[test]
    fn simple_join_uses_only_concatenations() {
        let indb = fig3();
        let (_, stats) = check_against_brute("Q() :- R(x), S(x, y)", &indb);
        assert_eq!(stats.syntheses, 0);
        assert_eq!(stats.lineage_fallbacks, 0);
        assert!(stats.concatenations > 0);
    }

    #[test]
    fn unions_with_separators_are_concatenated() {
        let indb = fig3();
        // The outer separator expansion is concatenation-based; the inner
        // per-value unions share the relation S, so they are synthesised on
        // small (per-value) diagrams — no lineage fallback is needed.
        let (_, stats) = check_against_brute("Q() :- R(x), S(x, y) ; Q() :- T(z), S(z, y)", &indb);
        assert_eq!(stats.lineage_fallbacks, 0);
        assert!(stats.concatenations > 0);
    }

    #[test]
    fn non_inversion_free_queries_still_build_correctly() {
        let indb = fig3();
        // H1 has no separator; the builder falls back to synthesis/lineage
        // but must still produce the exact probability.
        let (_, stats) = check_against_brute("Q() :- R(x), S(x, y) ; Q() :- S(u, v), U(v)", &indb);
        assert!(stats.syntheses + stats.lineage_fallbacks > 0);
    }

    #[test]
    fn hard_conjunctive_queries_fall_back_to_lineage() {
        let indb = fig3();
        let (p, stats) = check_against_brute("Q() :- R(x), S(x, y), U(y)", &indb);
        assert!(stats.lineage_fallbacks > 0);
        assert!(p > 0.0);
    }

    #[test]
    fn ground_queries_and_empty_queries() {
        let indb = fig3();
        check_against_brute("Q() :- R('a1')", &indb);
        check_against_brute("Q() :- R('a1'), S('a1', 'b1')", &indb);
        let q = parse_ucq("Q() :- R('zzz')").unwrap();
        let mut builder = ConObddBuilder::for_query(&indb, &q);
        let obdd = builder.build(&q).unwrap();
        assert!(!obdd.eval(|_| true));
    }

    #[test]
    fn conobdd_matches_synthesis_builder_diagram_size() {
        // Canonicity: with the same order the two constructions give the
        // same reduced OBDD, hence the same size (this is how the paper
        // validates the CUDD comparison in Section 5.2).
        let indb = fig3();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let mut builder = ConObddBuilder::for_query(&indb, &q);
        let fast = builder.build(&q).unwrap();
        let lin = mv_query::lineage::lineage(&q, &indb).unwrap();
        let slow = ObddManager::new(builder.order()).lineage(&lin).unwrap();
        assert_eq!(fast.size(), slow.size());
        let pf = fast.probability(|t| indb.probability(t));
        let ps = slow.probability(|t| indb.probability(t));
        assert!((pf - ps).abs() < 1e-12);
    }

    #[test]
    fn inferred_pi_puts_separator_attributes_first() {
        let indb = fig3();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let pi = PiOrder::infer(&q, &indb);
        assert_eq!(pi.permutation("S", 2), vec![0, 1]);
        assert_eq!(pi.permutation("R", 1), vec![0]);
    }

    #[test]
    fn comparisons_inside_views_are_respected() {
        let indb = fig3();
        check_against_brute("Q() :- S(x, y), y like '%b1%'", &indb);
        check_against_brute("Q() :- R(x), S(x, y), x <> y", &indb);
    }

    #[test]
    fn deterministic_relations_vanish_from_the_diagram() {
        let mut b = InDbBuilder::new();
        let d = b.deterministic_relation("D", &["a"]).unwrap();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        b.insert_fact(d, row(["a1"])).unwrap();
        b.insert_fact(d, row(["a2"])).unwrap();
        b.insert_weighted(r, row(["a1"]), Weight::new(1.0)).unwrap();
        b.insert_weighted(r, row(["a2"]), Weight::new(3.0)).unwrap();
        let indb = b.build();
        let q = parse_ucq("Q() :- D(x), R(x)").unwrap();
        let mut builder = ConObddBuilder::for_query(&indb, &q);
        let obdd = builder.build(&q).unwrap();
        assert_eq!(obdd.size(), 2);
        let p = obdd.probability(|t| indb.probability(t));
        let brute = brute_force_query_probability(&q, &indb).unwrap();
        assert!((p - brute).abs() < 1e-12);
    }
}
