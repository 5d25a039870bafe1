//! The synthetic DBLP generator.

use std::collections::{BTreeMap, BTreeSet};

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use mv_core::{MarkoView, Mvdb, MvdbBuilder, Result};
use mv_pdb::Value;
use mv_query::parse_ucq;

/// Authors per research group; co-authorship happens within groups.
const GROUP_SIZE: usize = 8;
/// Senior authors (the first of each group); the rest are juniors.
const SENIORS_PER_GROUP: usize = 2;
/// Papers written by each junior author.
const PUBS_PER_AUTHOR: usize = 3;
/// Earliest publication year.
const MIN_YEAR: i64 = 1995;
/// Latest publication year.
const MAX_YEAR: i64 = 2015;
/// Publications after this year count as "recent" for V3.
const RECENT_YEAR: i64 = 2004;
/// Minimum number of joint papers for an `Advisor` possible tuple
/// (`count(pid) > 2` in Figure 1, scaled to the synthetic corpus).
const ADVISOR_COPUB_THRESHOLD: usize = 2;
/// Minimum number of recent joint papers for a `CoPubRecent` pair
/// (`count(pid) > 30` in Figure 1, scaled to the synthetic corpus).
const RECENT_COPUB_THRESHOLD: usize = 2;

/// Configuration of the synthetic DBLP corpus.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of authors (the `aid` domain of the paper's experiments).
    pub num_authors: usize,
    /// Whether to include the affiliation table and the V3 MarkoView
    /// (the Alchemy comparison of Section 5.1 uses only V1 and V2).
    pub with_affiliation_view: bool,
    /// RNG seed; the generator is deterministic given the seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            num_authors: 1000,
            with_affiliation_view: true,
            seed: 0xdb1b,
        }
    }
}

impl DblpConfig {
    /// A configuration with the given `aid` domain and everything else at the
    /// defaults (the knob varied by Figures 4–9).
    pub fn with_authors(num_authors: usize) -> Self {
        DblpConfig {
            num_authors,
            ..DblpConfig::default()
        }
    }
}

/// Table sizes of a generated dataset (the contents of the Figure 1 table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetStats {
    /// Rows of `Author`.
    pub author: usize,
    /// Rows of `Wrote`.
    pub wrote: usize,
    /// Rows of `Pub`.
    pub publication: usize,
    /// Rows of `HomePage`.
    pub homepage: usize,
    /// Rows of `FirstPub`.
    pub first_pub: usize,
    /// Rows of `DBLPAffiliation`.
    pub dblp_affiliation: usize,
    /// Rows of `CoPubRecent`.
    pub co_pub_recent: usize,
    /// Possible tuples of `Student`.
    pub student: usize,
    /// Possible tuples of `Advisor`.
    pub advisor: usize,
    /// Possible tuples of `Affiliation`.
    pub affiliation: usize,
    /// Output tuples of MarkoView V1.
    pub v1: usize,
    /// Output tuples of MarkoView V2.
    pub v2: usize,
    /// Output tuples of MarkoView V3.
    pub v3: usize,
}

/// A generated dataset: the MVDB plus bookkeeping useful to the benchmarks.
#[derive(Debug)]
pub struct DblpDataset {
    /// The MVDB (base tables plus MarkoViews).
    pub mvdb: Mvdb,
    /// The configuration the dataset was generated from.
    pub config: DblpConfig,
    /// Table sizes.
    pub stats: DatasetStats,
    /// Authors that appear as advisors (second column of `Advisor`).
    pub advisors: Vec<i64>,
    /// Authors that appear as students (first column of `Advisor`).
    pub students: Vec<i64>,
    /// Authors with at least one possible `Affiliation` tuple.
    pub affiliated_authors: Vec<i64>,
}

impl DblpDataset {
    /// Generates a dataset.
    pub fn generate(config: DblpConfig) -> Result<DblpDataset> {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let n = config.num_authors.max(GROUP_SIZE);
        let num_universities = (n / 50).max(2);

        // ----- authors, groups, seniors -------------------------------------
        let group_of = |aid: i64| ((aid - 1) as usize) / GROUP_SIZE;
        let is_senior = |aid: i64| ((aid - 1) as usize) % GROUP_SIZE < SENIORS_PER_GROUP;

        // ----- publications --------------------------------------------------
        // pubs[pid] = (year, authors)
        let mut pubs: Vec<(i64, Vec<i64>)> = Vec::new();
        let mut pubs_of: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        let add_pub = |year: i64,
                       authors: Vec<i64>,
                       pubs: &mut Vec<(i64, Vec<i64>)>,
                       pubs_of: &mut BTreeMap<i64, Vec<usize>>| {
            let pid = pubs.len();
            for &a in &authors {
                pubs_of.entry(a).or_default().push(pid);
            }
            pubs.push((year, authors));
        };

        for aid in 1..=n as i64 {
            if is_senior(aid) {
                continue;
            }
            let g = group_of(aid);
            let seniors: Vec<i64> = (1..=n as i64)
                .filter(|&a| group_of(a) == g && is_senior(a))
                .collect();
            if seniors.is_empty() {
                continue;
            }
            // A junior publishes mostly with one "main" senior.
            let main_senior = seniors[rng.gen_range(0..seniors.len())];
            let first_year = rng.gen_range(MIN_YEAR..=MAX_YEAR - 5);
            for k in 0..PUBS_PER_AUTHOR {
                let year = (first_year + k as i64 + rng.gen_range(0..2i64)).min(MAX_YEAR);
                let mut authors = vec![aid, main_senior];
                // Sometimes another senior or another junior joins.
                if rng.gen_bool(0.25) && seniors.len() > 1 {
                    let other = seniors[rng.gen_range(0..seniors.len())];
                    if !authors.contains(&other) {
                        authors.push(other);
                    }
                }
                if rng.gen_bool(0.4) {
                    let start = (g * GROUP_SIZE + 1) as i64;
                    let end = (((g + 1) * GROUP_SIZE).min(n)) as i64;
                    let other = rng.gen_range(start..=end);
                    if !is_senior(other) && !authors.contains(&other) {
                        authors.push(other);
                    }
                }
                add_pub(year, authors, &mut pubs, &mut pubs_of);
            }
        }
        // A couple of senior-only papers per group, to give seniors a history.
        for aid in 1..=n as i64 {
            if is_senior(aid) && rng.gen_bool(0.8) {
                let year = rng.gen_range(MIN_YEAR..=MAX_YEAR);
                add_pub(year, vec![aid], &mut pubs, &mut pubs_of);
            }
        }

        // ----- derived statistics -------------------------------------------
        let first_pub_year: BTreeMap<i64, i64> = pubs_of
            .iter()
            .map(|(&aid, pids)| {
                let y = pids.iter().map(|&p| pubs[p].0).min().expect("non-empty");
                (aid, y)
            })
            .collect();

        // Joint publication counts (all years, and recent only).
        let mut copubs: BTreeMap<(i64, i64), usize> = BTreeMap::new();
        let mut recent_copubs: BTreeMap<(i64, i64), usize> = BTreeMap::new();
        for (year, authors) in &pubs {
            for i in 0..authors.len() {
                for j in 0..authors.len() {
                    if i == j {
                        continue;
                    }
                    *copubs.entry((authors[i], authors[j])).or_default() += 1;
                    if *year > RECENT_YEAR {
                        *recent_copubs.entry((authors[i], authors[j])).or_default() += 1;
                    }
                }
            }
        }

        // ----- build the MVDB -------------------------------------------------
        let mut b = MvdbBuilder::new();
        b.deterministic_relation("Author", &["aid", "name"])?;
        b.deterministic_relation("Wrote", &["aid", "pid"])?;
        b.deterministic_relation("Pub", &["pid", "title", "year"])?;
        b.deterministic_relation("HomePage", &["aid", "url"])?;
        b.deterministic_relation("FirstPub", &["aid", "year"])?;
        b.deterministic_relation("DBLPAffiliation", &["aid", "inst"])?;
        b.deterministic_relation("CoPubRecent", &["aid1", "aid2"])?;
        b.relation("Student", &["aid", "year"])?;
        b.relation("Advisor", &["aid1", "aid2"])?;
        b.relation("Affiliation", &["aid", "inst"])?;

        let mut stats = DatasetStats::default();

        for aid in 1..=n as i64 {
            let name = if is_senior(aid) {
                format!("prof{aid:06}")
            } else {
                format!("author{aid:06}")
            };
            b.fact("Author", &[Value::int(aid), Value::str(name)])?;
            stats.author += 1;
        }
        for (pid, (year, authors)) in pubs.iter().enumerate() {
            b.fact(
                "Pub",
                &[
                    Value::int(pid as i64),
                    Value::str(format!("title{pid:07}")),
                    Value::int(*year),
                ],
            )?;
            stats.publication += 1;
            for &aid in authors {
                b.fact("Wrote", &[Value::int(aid), Value::int(pid as i64)])?;
                stats.wrote += 1;
            }
        }
        for aid in 1..=n as i64 {
            if is_senior(aid) {
                let inst = format!("univ{:03}", group_of(aid) % num_universities);
                b.fact(
                    "HomePage",
                    &[
                        Value::int(aid),
                        Value::str(format!("http://{inst}.edu/~a{aid}")),
                    ],
                )?;
                stats.homepage += 1;
                b.fact("DBLPAffiliation", &[Value::int(aid), Value::str(inst)])?;
                stats.dblp_affiliation += 1;
            }
        }
        for (&aid, &year) in &first_pub_year {
            b.fact("FirstPub", &[Value::int(aid), Value::int(year)])?;
            stats.first_pub += 1;
        }

        // Student possible tuples.
        for (&aid, &fp) in &first_pub_year {
            if is_senior(aid) {
                continue;
            }
            for year in fp..=(fp + 5).min(MAX_YEAR) {
                let w = (1.0 - 0.15 * (year - fp) as f64).exp();
                b.weighted_tuple("Student", &[Value::int(aid), Value::int(year)], w)?;
                stats.student += 1;
            }
        }

        // Advisor possible tuples and the V1 weight map.
        let mut advisors: BTreeSet<i64> = BTreeSet::new();
        let mut students: BTreeSet<i64> = BTreeSet::new();
        let mut v1_weights: BTreeMap<(i64, i64), f64> = BTreeMap::new();
        for (&(a1, a2), &c) in &copubs {
            if is_senior(a1) || !is_senior(a2) {
                continue;
            }
            if c < ADVISOR_COPUB_THRESHOLD {
                continue;
            }
            let w = (0.25 * c as f64).exp();
            b.weighted_tuple("Advisor", &[Value::int(a1), Value::int(a2)], w)?;
            stats.advisor += 1;
            advisors.insert(a2);
            students.insert(a1);
            v1_weights.insert((a1, a2), c as f64 / 2.0);
        }

        // Affiliation possible tuples (juniors inherit candidate affiliations
        // from the seniors they publish with).
        let mut affiliated: BTreeSet<i64> = BTreeSet::new();
        let mut inst_copubs: BTreeMap<(i64, String), usize> = BTreeMap::new();
        for (&(a1, a2), &c) in &copubs {
            if is_senior(a1) || !is_senior(a2) {
                continue;
            }
            let inst = format!("univ{:03}", group_of(a2) % num_universities);
            *inst_copubs.entry((a1, inst)).or_default() += c;
        }
        if config.with_affiliation_view {
            for (&(aid, ref inst), &c) in &inst_copubs {
                let w = (0.1 * c as f64).exp();
                b.weighted_tuple(
                    "Affiliation",
                    &[Value::int(aid), Value::str(inst.clone())],
                    w,
                )?;
                stats.affiliation += 1;
                affiliated.insert(aid);
            }
        }

        // CoPubRecent derived table (the materialised aggregate of V3).
        let mut recent_pairs: BTreeSet<(i64, i64)> = BTreeSet::new();
        for (&(a1, a2), &c) in &recent_copubs {
            if is_senior(a1) || is_senior(a2) || a1 >= a2 {
                continue;
            }
            if c >= RECENT_COPUB_THRESHOLD {
                recent_pairs.insert((a1, a2));
            }
        }
        let mut v3_weights: BTreeMap<(i64, i64), f64> = BTreeMap::new();
        if config.with_affiliation_view {
            for &(a1, a2) in &recent_pairs {
                b.fact("CoPubRecent", &[Value::int(a1), Value::int(a2)])?;
                stats.co_pub_recent += 1;
                let c = recent_copubs.get(&(a1, a2)).copied().unwrap_or(0);
                v3_weights.insert((a1, a2), c as f64 / 2.0);
            }
        }

        // ----- MarkoViews -----------------------------------------------------
        // V1: the more papers aid1 and aid2 co-authored while aid1 was a
        // student, the more likely aid2 was aid1's advisor.
        let v1_query = parse_ucq(
            "V1(aid1, aid2) :- Advisor(aid1, aid2), Student(aid1, year), \
             Wrote(aid1, pid), Wrote(aid2, pid), Pub(pid, title, year)",
        )?;
        let v1_map = v1_weights.clone();
        b.add_view(MarkoView::with_weight_fn("V1", v1_query, move |row| {
            let a1 = row[0].as_int().unwrap_or(0);
            let a2 = row[1].as_int().unwrap_or(0);
            *v1_map.get(&(a1, a2)).unwrap_or(&1.0)
        }));

        // V2: a person has only one advisor (denial constraint).
        b.marko_view(
            "V2(aid1, aid2, aid3)[0] :- Advisor(aid1, aid2), Advisor(aid1, aid3), aid2 <> aid3",
        )?;

        // V3: frequent recent co-authors very likely share an affiliation.
        if config.with_affiliation_view {
            let v3_query = parse_ucq(
                "V3(aid1, aid2, inst) :- Affiliation(aid1, inst), Affiliation(aid2, inst), \
                 CoPubRecent(aid1, aid2)",
            )?;
            let v3_map = v3_weights.clone();
            b.add_view(MarkoView::with_weight_fn("V3", v3_query, move |row| {
                let a1 = row[0].as_int().unwrap_or(0);
                let a2 = row[1].as_int().unwrap_or(0);
                (*v3_map.get(&(a1, a2)).unwrap_or(&1.0)).max(1.0)
            }));
        }

        let mvdb = b.build()?;

        // View output sizes for the Figure 1 inventory.
        stats.v1 = mvdb.view_output(&mvdb.views()[0])?.len();
        stats.v2 = mvdb.view_output(&mvdb.views()[1])?.len();
        stats.v3 = if config.with_affiliation_view {
            mvdb.view_output(&mvdb.views()[2])?.len()
        } else {
            0
        };

        Ok(DblpDataset {
            mvdb,
            config,
            stats,
            advisors: advisors.into_iter().collect(),
            students: students.into_iter().collect(),
            affiliated_authors: affiliated.into_iter().collect(),
        })
    }

    /// A deterministic sample of advisor ids (for the query workloads).
    pub fn sample_advisors(&self, count: usize) -> Vec<i64> {
        sample_evenly(&self.advisors, count)
    }

    /// A deterministic sample of student ids.
    pub fn sample_students(&self, count: usize) -> Vec<i64> {
        sample_evenly(&self.students, count)
    }

    /// A deterministic sample of authors with possible affiliations.
    pub fn sample_affiliated_authors(&self, count: usize) -> Vec<i64> {
        sample_evenly(&self.affiliated_authors, count)
    }
}

/// Picks `count` elements spread evenly across the slice.
fn sample_evenly(items: &[i64], count: usize) -> Vec<i64> {
    if items.is_empty() || count == 0 {
        return Vec::new();
    }
    let count = count.min(items.len());
    (0..count).map(|i| items[i * items.len() / count]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_given_the_seed() {
        let cfg = DblpConfig::with_authors(60);
        let a = DblpDataset::generate(cfg.clone()).unwrap();
        let b = DblpDataset::generate(cfg).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.advisors, b.advisors);
    }

    /// The repository benchmark's corpus (seed 42, 10 000 authors): every
    /// recorded trajectory point was measured on exactly these tables.
    #[test]
    fn the_benchmark_corpus_keeps_its_table_sizes() {
        let data = DblpDataset::generate(DblpConfig {
            seed: 42,
            ..DblpConfig::with_authors(10_000)
        })
        .unwrap();
        assert_eq!(
            data.stats,
            DatasetStats {
                author: 10_000,
                wrote: 55_404,
                publication: 24_508,
                homepage: 2_500,
                first_pub: 10_000,
                dblp_affiliation: 2_500,
                co_pub_recent: 226,
                student: 44_868,
                advisor: 8_933,
                affiliation: 7_500,
                v1: 8_527,
                v2: 2_866,
                v3: 226,
            }
        );
    }

    #[test]
    fn stats_reflect_the_schema_of_figure_1() {
        let data = DblpDataset::generate(DblpConfig::with_authors(80)).unwrap();
        let s = data.stats;
        assert_eq!(s.author, 80);
        assert!(s.publication > 0);
        assert!(s.wrote >= s.publication);
        assert!(s.first_pub > 0);
        assert!(s.homepage == s.dblp_affiliation);
        assert!(s.student > 0);
        assert!(s.advisor > 0);
        // Every junior has up to 6 student-year tuples.
        assert!(s.student <= 6 * s.author);
        assert!(s.v1 > 0, "V1 must have outputs");
        assert!(
            s.v2 > 0,
            "V2 must have outputs (students with 2 candidate advisors)"
        );
        assert!(!data.advisors.is_empty());
        assert!(!data.students.is_empty());
    }

    #[test]
    fn advisor_weights_follow_the_figure_1_formula() {
        let data = DblpDataset::generate(DblpConfig::with_authors(60)).unwrap();
        let indb = data.mvdb.base();
        let advisor = indb.schema().relation_id("Advisor").unwrap();
        let rel = indb.database().relation(advisor);
        assert!(!rel.is_empty());
        for row_index in 0..rel.len() {
            let id = indb.tuple_id(advisor, row_index).unwrap();
            let w = indb.weight(id).value();
            // exp(0.25 * c) for c >= 2.
            assert!(w >= (0.25f64 * 2.0).exp() - 1e-9);
        }
    }

    #[test]
    fn student_weights_decay_with_years_since_first_publication() {
        let data = DblpDataset::generate(DblpConfig::with_authors(60)).unwrap();
        let indb = data.mvdb.base();
        let student = indb.schema().relation_id("Student").unwrap();
        let rel = indb.database().relation(student);
        // Group tuples per author and check that weights are non-increasing
        // in the year.
        let mut per_author: BTreeMap<i64, Vec<(i64, f64)>> = BTreeMap::new();
        for (row_index, row) in rel.iter(indb.database().interner()) {
            let id = indb.tuple_id(student, row_index).unwrap();
            per_author
                .entry(row[0].as_int().unwrap())
                .or_default()
                .push((row[1].as_int().unwrap(), indb.weight(id).value()));
        }
        for (_aid, mut tuples) in per_author {
            tuples.sort_by_key(|t| t.0);
            for pair in tuples.windows(2) {
                assert!(pair[0].1 >= pair[1].1 - 1e-9);
            }
        }
    }

    #[test]
    fn small_datasets_disable_the_affiliation_view_cleanly() {
        let cfg = DblpConfig {
            with_affiliation_view: false,
            ..DblpConfig::with_authors(40)
        };
        let data = DblpDataset::generate(cfg).unwrap();
        assert_eq!(data.stats.affiliation, 0);
        assert_eq!(data.stats.v3, 0);
        assert_eq!(data.mvdb.views().len(), 2);
    }

    #[test]
    fn sampling_helpers_are_bounded_and_deterministic() {
        let data = DblpDataset::generate(DblpConfig::with_authors(80)).unwrap();
        let a = data.sample_advisors(5);
        assert!(a.len() <= 5);
        assert_eq!(a, data.sample_advisors(5));
        assert!(data.sample_students(3).len() <= 3);
        assert!(sample_evenly(&[], 3).is_empty());
        assert_eq!(sample_evenly(&[7], 3), vec![7]);
    }
}
