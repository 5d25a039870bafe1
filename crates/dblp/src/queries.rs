//! The query workloads of the paper's evaluation.
//!
//! Section 5 evaluates three query families over the DBLP MVDB:
//!
//! * *find the advisor of a student X* (Figure 5),
//! * *find all students of an advisor Y* (Figures 6 and 10) — the running
//!   example of Figure 2 when the advisor is selected by name,
//! * *find the affiliations of an author Z* (Figure 11).
//!
//! This module builds those queries, parameterised by author id or by a name
//! fragment (the `%Madden%`-style selection of the running example).

use mv_pdb::Value;
use mv_query::{parse_ucq, Result, Ucq};

use crate::generate::DblpDataset;

/// `Q(aid2) :- Student(X, y), Advisor(X, aid2)` — the advisor(s) of student `X`.
pub fn advisor_of_student(student: i64) -> Result<Ucq> {
    parse_ucq(&format!(
        "Q(aid2) :- Student({student}, year), Advisor({student}, aid2)"
    ))
}

/// `Q(aid) :- Student(aid, y), Advisor(aid, Y)` — all students of advisor `Y`.
pub fn students_of_advisor(advisor: i64) -> Result<Ucq> {
    parse_ucq(&format!(
        "Q(aid) :- Student(aid, year), Advisor(aid, {advisor})"
    ))
}

/// The running example of Figure 2: students whose advisor's name matches a
/// fragment.
pub fn students_of_advisor_named(fragment: &str) -> Result<Ucq> {
    parse_ucq(&format!(
        "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), \
         Author(aid1, n1), n1 like '%{fragment}%'"
    ))
}

/// `Q(inst) :- Affiliation(Z, inst)` — the affiliations of author `Z`.
pub fn affiliation_of_author(author: i64) -> Result<Ucq> {
    parse_ucq(&format!("Q(inst) :- Affiliation({author}, inst)"))
}

impl DblpDataset {
    /// The Figure 5 workload: one *advisor of student X* query per sampled
    /// student.
    pub fn advisor_of_student_workload(&self, count: usize) -> Result<Vec<Ucq>> {
        self.sample_students(count)
            .into_iter()
            .map(advisor_of_student)
            .collect()
    }

    /// The Figure 6 / Figure 10 workload: one *students of advisor Y* query
    /// per sampled advisor.
    pub fn students_of_advisor_workload(&self, count: usize) -> Result<Vec<Ucq>> {
        self.sample_advisors(count)
            .into_iter()
            .map(students_of_advisor)
            .collect()
    }

    /// The Figure 11 workload: one *affiliation of author Z* query per sampled
    /// affiliated author.
    pub fn affiliation_workload(&self, count: usize) -> Result<Vec<Ucq>> {
        self.sample_affiliated_authors(count)
            .into_iter()
            .map(affiliation_of_author)
            .collect()
    }

    /// The name of an author, for name-selection queries.
    pub fn author_name(&self, aid: i64) -> Option<String> {
        let indb = self.mvdb.base();
        let author = indb.schema().relation_id("Author")?;
        let (rel, interner) = (indb.database().relation(author), indb.database().interner());
        let aid = interner.code_of(&Value::int(aid))?;
        let row = rel.column_codes(0).iter().position(|&code| code == aid)?;
        interner
            .value(rel.code_at(row, 1))
            .as_str()
            .map(str::to_string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::DblpConfig;
    use mv_core::MvdbEngine;

    fn dataset() -> DblpDataset {
        DblpDataset::generate(DblpConfig::with_authors(48)).unwrap()
    }

    #[test]
    fn workloads_produce_runnable_queries() {
        let data = dataset();
        let engine = MvdbEngine::compile(&data.mvdb).unwrap();
        for q in data.students_of_advisor_workload(3).unwrap() {
            let answers = engine.answers(&q).unwrap();
            for (_, p) in &answers {
                assert!(
                    (-1e-9..=1.0 + 1e-9).contains(p),
                    "probability out of range: {p}"
                );
            }
        }
        for q in data.advisor_of_student_workload(3).unwrap() {
            let answers = engine.answers(&q).unwrap();
            // A student has candidate advisors; the denial view V2 makes them
            // mutually exclusive but each one remains possible.
            for (_, p) in &answers {
                assert!(*p > -1e-9 && *p <= 1.0 + 1e-9);
            }
        }
        for q in data.affiliation_workload(2).unwrap() {
            engine.answers(&q).unwrap();
        }
    }

    #[test]
    fn the_running_example_query_by_name_returns_students() {
        let data = dataset();
        let engine = MvdbEngine::compile(&data.mvdb).unwrap();
        let advisor = data.sample_advisors(1)[0];
        let name = data.author_name(advisor).unwrap();
        let q = students_of_advisor_named(&name).unwrap();
        let by_name = engine.answers(&q).unwrap();
        let by_id = engine
            .answers(&students_of_advisor(advisor).unwrap())
            .unwrap();
        assert_eq!(by_name.len(), by_id.len());
        for ((r1, p1), (r2, p2)) in by_name.iter().zip(by_id.iter()) {
            assert_eq!(r1, r2);
            assert!((p1 - p2).abs() < 1e-9);
        }
        assert!(!by_name.is_empty());
    }

    #[test]
    fn author_name_lookup_works() {
        let data = dataset();
        assert!(data.author_name(1).is_some());
        assert!(data.author_name(9999).is_none());
    }
}
