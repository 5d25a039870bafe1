//! Monte Carlo approximate inference over tuple-independent databases.
//!
//! Exact OBDD synthesis (Theorem 1's workhorse) blows up on queries whose
//! lineage admits no small diagram. This module provides the fallback that
//! is *always* available on the tuple-independent translation: draw possible
//! worlds from a seeded [`ChaCha8Rng`] stream, evaluate the query's lineage
//! clauses per world (or drive a compiled physical plan over a materialised
//! world), and report `(estimate, half_width)` confidence intervals with
//! early stopping at a target `±ε`.
//!
//! # The conditional estimator
//!
//! [`ConditionalSampler`] estimates the Theorem 1 conditional
//! `P0(Q ∧ ¬W) / P0(¬W)` directly, without ever subtracting two nearly
//! equal probabilities. Three ideas make it practical on translated MVDBs:
//!
//! 1. **Rao-Blackwellised `NV` variables.** Every clause of `W`'s lineage
//!    contains at most one `NV` tuple variable (the translation joins one
//!    `NV_i(ā)` atom with the view body). Instead of sampling those —
//!    impossible when their translated probability is negative — they are
//!    integrated out *exactly*: given the sampled base tuples, the residual
//!    of `¬W` is `¬(∨ distinct active NV_t)`, whose probability is the
//!    product `∏ (1 − p_t)`. For an `NV` tuple the factor `1 − p_t` equals
//!    the original MarkoView weight `w`, so the per-world weight is exactly
//!    the MLN view factor — the estimator is simultaneously an importance
//!    sampler for the MVDB semantics.
//! 2. **Component pruning.** `¬W` factorises over the connected components
//!    of the clause/variable graph, and components disjoint from `Q`'s
//!    lineage cancel between numerator and denominator. Only the component
//!    of `Q` is sampled, so per-sample cost and estimator variance scale
//!    with the query's neighbourhood, not the database (the sampling
//!    analogue of the MV-index's block partitioning).
//! 3. **Signed residual variables.** A variable with probability outside
//!    `[0, 1]` that *must* be sampled (it appears in `Q`'s own lineage) is
//!    drawn from the normalised proposal `|p| / (|p| + |1 − p|)`; the
//!    importance magnitude is then constant across worlds and cancels in
//!    the ratio, leaving only a tracked sign.
//!
//! # Confidence intervals
//!
//! The interval method adapts to what the sampler actually drew
//! ([`IntervalMethod`]): **Wilson** when the per-world weights are `{0, 1}`
//! (plain conditional Bernoulli — no views, denial views only), **Hoeffding**
//! when weights are bounded by a small constant (factors `≤` the configured
//! limit), and a delta-method **Normal** interval for general importance
//! weights, floored by a Wilson interval at the Kish effective sample size.
//! Wilson and Hoeffding have (asymptotic resp. finite-sample) coverage
//! guarantees; the delta-method interval is the standard self-normalised
//! importance-sampling interval and is validated against the exact oracles
//! by the statistical agreement suites.

use std::collections::{BTreeMap, BTreeSet};

use fxhash::FxHashMap;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use mv_pdb::{InDb, TupleId};

use crate::ast::Ucq;
use crate::components::component_relevant_clauses;
use crate::error::QueryError;
use crate::eval::evaluate_boolean;
use crate::lineage::Lineage;
use crate::Result;

/// Derives a decorrelated seed for a parallel stream (worker shard, batch
/// lane) from a base seed. SplitMix64-style finalisation: distinct streams
/// of the same base seed are statistically independent for the vendored
/// generator.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ (stream.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of a Monte Carlo estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Seed of the ChaCha world stream. Runs with equal seeds (and equal
    /// configuration) are bit-identical.
    pub seed: u64,
    /// Coverage level of the reported interval (e.g. `0.99`).
    pub confidence: f64,
    /// Early-stopping target: sampling stops once the half-width drops to
    /// this value (checked every 512 samples, after
    /// [`ApproxConfig::min_samples`]). `0.0` disables early stopping.
    pub target_half_width: f64,
    /// Samples drawn before early stopping is first considered.
    pub min_samples: u64,
    /// Hard sample budget.
    pub max_samples: u64,
}

/// Samples between early-stopping checks (and deadline polls).
const SAMPLE_BATCH: u64 = 512;

/// Largest weight range for which the rigorous Hoeffding interval is
/// preferred over the delta-method Normal interval.
const HOEFFDING_WEIGHT_LIMIT: f64 = 2.0;

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            seed: 0x5eed_ca57,
            confidence: 0.99,
            target_half_width: 0.01,
            min_samples: 512,
            max_samples: 65_536,
        }
    }
}

impl ApproxConfig {
    /// A config with the given seed and every other knob at its default.
    pub fn with_seed(seed: u64) -> Self {
        ApproxConfig {
            seed,
            ..ApproxConfig::default()
        }
    }

    /// The same configuration re-seeded for an independent stream.
    pub fn stream(self, stream: u64) -> Self {
        ApproxConfig {
            seed: derive_seed(self.seed, stream),
            ..self
        }
    }
}

/// The confidence-interval construction a run ended up using.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalMethod {
    /// Wilson score interval on accepted (weight-1) samples: per-world
    /// weights were all `{0, 1}` — plain conditional Bernoulli sampling.
    Wilson,
    /// Hoeffding bounds on the numerator and denominator means (union
    /// bound, conservatively propagated through the ratio): weights were
    /// bounded by a small constant.
    Hoeffding,
    /// Delta-method interval for the self-normalised importance-sampling
    /// ratio, floored by a Wilson interval at the Kish effective sample
    /// size: general (unbounded-range) weights.
    Normal,
}

impl IntervalMethod {
    /// Stable lower-case name (used by the bench report).
    pub fn name(self) -> &'static str {
        match self {
            IntervalMethod::Wilson => "wilson",
            IntervalMethod::Hoeffding => "hoeffding",
            IntervalMethod::Normal => "normal",
        }
    }
}

/// A Monte Carlo estimate with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxAnswer {
    /// The point estimate (the raw ratio estimator; may fall slightly
    /// outside `[0, 1]` in weighted modes — see [`ApproxAnswer::clamped`]).
    pub estimate: f64,
    /// Half-width of the confidence interval around [`ApproxAnswer::estimate`].
    pub half_width: f64,
    /// The coverage level the interval was built for.
    pub confidence: f64,
    /// Worlds drawn.
    pub samples: u64,
    /// Worlds with non-zero weight (accepted worlds in rejection mode).
    pub effective: u64,
    /// Which interval construction produced [`ApproxAnswer::half_width`].
    pub method: IntervalMethod,
}

impl ApproxAnswer {
    /// Lower end of the interval.
    pub fn lower(&self) -> f64 {
        self.estimate - self.half_width
    }

    /// Upper end of the interval.
    pub fn upper(&self) -> f64 {
        self.estimate + self.half_width
    }

    /// `true` when `p` lies inside the interval.
    pub fn contains(&self, p: f64) -> bool {
        self.lower() <= p && p <= self.upper()
    }

    /// The estimate clamped into `[0, 1]` (the true value is a probability).
    pub fn clamped(&self) -> f64 {
        self.estimate.clamp(0.0, 1.0)
    }
}

/// Partial sums of a sampling run. Accumulators from independent streams
/// merge by addition, so parallel workers can each run a private ChaCha
/// stream and the merged accumulator yields the weighted-average estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ApproxAccumulator {
    /// Worlds drawn.
    pub samples: u64,
    /// Worlds with non-zero weight.
    pub effective: u64,
    sum_num: f64,
    sum_den: f64,
    sum_num2: f64,
    sum_den2: f64,
    sum_num_den: f64,
}

impl ApproxAccumulator {
    fn record(&mut self, num: f64, den: f64) {
        self.samples += 1;
        if den != 0.0 {
            self.effective += 1;
        }
        self.sum_num += num;
        self.sum_den += den;
        self.sum_num2 += num * num;
        self.sum_den2 += den * den;
        self.sum_num_den += num * den;
    }

    /// Adds another stream's partial sums into this accumulator.
    pub fn merge(&mut self, other: &ApproxAccumulator) {
        self.samples += other.samples;
        self.effective += other.effective;
        self.sum_num += other.sum_num;
        self.sum_den += other.sum_den;
        self.sum_num2 += other.sum_num2;
        self.sum_den2 += other.sum_den2;
        self.sum_num_den += other.sum_num_den;
    }
}

/// One compiled `W` clause: the sampled base literals that must all be
/// present, and the index of the integrated `NV` factor the clause
/// activates (`None` for denial clauses, which zero the weight directly).
#[derive(Debug, Clone)]
struct CompiledWClause {
    base: Vec<u32>,
    nv: Option<u32>,
}

/// A compiled Monte Carlo estimator for the conditional probability
/// `P0(Φ_Q ∧ ¬W) / P0(¬W)` over a tuple-independent database.
///
/// Construction analyses the two lineages once (variable classification,
/// Rao-Blackwellisation of `NV` variables, component pruning); every
/// subsequent [`ConditionalSampler::collect`] run is a tight loop over the
/// compiled clause sets. See the module docs for the estimator design.
pub struct ConditionalSampler<'a> {
    indb: &'a InDb,
    /// Trivially known conditional probability (`Φ_Q` constant), if any.
    constant: Option<f64>,
    /// Proposal probability of each sampled variable, by local index.
    thresholds: Vec<f64>,
    /// Local index → tuple id of each sampled variable.
    sampled_ids: Vec<TupleId>,
    /// Tuple id → local index of each sampled variable.
    id_to_local: FxHashMap<TupleId, u32>,
    /// Sign corrections of signed (out-of-`[0, 1]`) sampled variables:
    /// `(local index, sign when present, sign when absent)`.
    signed: Vec<(u32, f64, f64)>,
    /// `Φ_Q` clauses over local sampled indices.
    q_clauses: Vec<Vec<u32>>,
    /// Kept (component-relevant) `W` clauses.
    w_clauses: Vec<CompiledWClause>,
    /// Residual factor `1 − p_t` per integrated `NV` variable.
    integrated: Vec<f64>,
    /// Tuple ids of the integrated variables (reporting only).
    integrated_ids: Vec<TupleId>,
    /// Upper bound of the per-world weight magnitude.
    weight_range: f64,
    /// `true` when every possible weight is `0` or `±1`.
    direct: bool,
    /// Evaluate `Φ_Q` by materialising each world and running the compiled
    /// physical plan of this (Boolean) query, instead of the clause scan.
    plan_query: Option<Ucq>,
}

impl<'a> ConditionalSampler<'a> {
    /// Compiles an estimator for `P0(Φ_Q ∧ ¬W) / P0(¬W)`.
    ///
    /// `lin_w` is the lineage of the helper query `W` (`None` for plain
    /// tuple-independent databases — the estimator then targets `P0(Φ_Q)`).
    /// `integrable` marks the variables that may be integrated out
    /// analytically (the `NV` tuples of a translated MVDB); pass
    /// `|_| false` when there are none.
    pub fn new(
        lin_q: &Lineage,
        lin_w: Option<&Lineage>,
        indb: &'a InDb,
        integrable: impl Fn(TupleId) -> bool,
    ) -> Result<ConditionalSampler<'a>> {
        if let Some(w) = lin_w {
            if w.is_true() {
                return Err(QueryError::Unsampleable(
                    "the condition ¬W is unsatisfiable: W has lineage `true`".into(),
                ));
            }
        }
        let mut sampler = ConditionalSampler {
            indb,
            constant: None,
            thresholds: Vec::new(),
            sampled_ids: Vec::new(),
            id_to_local: FxHashMap::default(),
            signed: Vec::new(),
            q_clauses: Vec::new(),
            w_clauses: Vec::new(),
            integrated: Vec::new(),
            integrated_ids: Vec::new(),
            weight_range: 1.0,
            direct: true,
            plan_query: None,
        };
        if lin_q.is_true() {
            sampler.constant = Some(1.0);
            return Ok(sampler);
        }
        if lin_q.is_false() {
            sampler.constant = Some(0.0);
            return Ok(sampler);
        }

        let vars_q: BTreeSet<TupleId> = lin_q.variables();
        let w_clauses: &[Vec<TupleId>] = lin_w.map(Lineage::clauses).unwrap_or(&[]);

        // Variables eligible for exact integration: marked integrable, not
        // needed by Φ_Q, and with a finite probability ≤ 1 (so the residual
        // factor 1 − p is non-negative). Clauses must end up with at most
        // one integrated variable each — the residual of ¬W given the
        // sampled variables is then a disjunction of single literals, whose
        // probability is a plain product. Surplus candidates are demoted to
        // sampled variables (globally, so no variable is both).
        let mut integrated_set: BTreeSet<TupleId> = w_clauses
            .iter()
            .flatten()
            .copied()
            .filter(|&t| {
                let p = indb.probability(t);
                integrable(t) && !vars_q.contains(&t) && p.is_finite() && p <= 1.0
            })
            .collect();
        loop {
            let mut demote: Vec<TupleId> = Vec::new();
            for clause in w_clauses {
                let members: Vec<TupleId> = clause
                    .iter()
                    .copied()
                    .filter(|t| integrated_set.contains(t))
                    .collect();
                if members.len() >= 2 {
                    demote.extend_from_slice(&members[..members.len() - 1]);
                }
            }
            if demote.is_empty() {
                break;
            }
            for t in demote {
                integrated_set.remove(&t);
            }
        }

        // Component pruning: ¬W factorises over connected components of the
        // clause/variable graph, and components disjoint from Φ_Q cancel
        // between numerator and denominator. The traversal is shared with
        // the sharding layer (`crate::components`).
        let kept = component_relevant_clauses(lin_q, w_clauses);

        // Sampled variables: everything Φ_Q mentions plus the base literals
        // of the kept W clauses, in sorted (deterministic) order.
        let mut sampled: BTreeSet<TupleId> = vars_q.clone();
        for clause in &kept {
            for &t in clause.iter() {
                if !integrated_set.contains(&t) {
                    sampled.insert(t);
                }
            }
        }
        for (&t, local) in sampled.iter().zip(0u32..) {
            let p = indb.probability(t);
            if !p.is_finite() {
                return Err(QueryError::Unsampleable(format!(
                    "tuple {t} has non-finite probability {p}"
                )));
            }
            let threshold = if (0.0..=1.0).contains(&p) {
                p
            } else {
                // Out of [0, 1]: draw from the normalised proposal
                // |p| / (|p| + |1 − p|). The importance magnitude
                // |p| + |1 − p| is the same whether the tuple is present or
                // absent, so it cancels in the ratio and only the sign of
                // the realised branch needs tracking.
                let (sign_present, sign_absent) = (p.signum(), (1.0 - p).signum());
                sampler.signed.push((local, sign_present, sign_absent));
                p.abs() / (p.abs() + (1.0 - p).abs())
            };
            sampler.thresholds.push(threshold);
            sampler.sampled_ids.push(t);
            sampler.id_to_local.insert(t, local);
        }

        // Compile Φ_Q onto local indices.
        sampler.q_clauses = lin_q
            .clauses()
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|t| sampler.id_to_local[t])
                    .collect::<Vec<u32>>()
            })
            .collect();

        // Compile the kept W clauses; integrated variables become shared
        // residual factors (deduplicated — several groundings of one NV
        // tuple activate a single ¬NV_t literal).
        let mut factor_index: BTreeMap<TupleId, u32> = BTreeMap::new();
        for clause in kept {
            let mut base: Vec<u32> = Vec::with_capacity(clause.len());
            let mut nv: Option<u32> = None;
            for &t in clause {
                if integrated_set.contains(&t) {
                    let next = sampler.integrated.len() as u32;
                    let idx = *factor_index.entry(t).or_insert_with(|| {
                        sampler.integrated.push(1.0 - indb.probability(t));
                        sampler.integrated_ids.push(t);
                        next
                    });
                    nv = Some(idx);
                } else {
                    base.push(sampler.id_to_local[&t]);
                }
            }
            if let Some(idx) = nv {
                if sampler.integrated[idx as usize] == 1.0 {
                    // p_t = 0: the NV tuple is never present, so the clause
                    // can never fire — drop it.
                    continue;
                }
            }
            sampler.w_clauses.push(CompiledWClause { base, nv });
        }

        sampler.weight_range = sampler
            .integrated
            .iter()
            .map(|f| f.max(1.0))
            .product::<f64>();
        sampler.direct = sampler.signed.is_empty() && sampler.integrated.iter().all(|f| *f == 0.0);
        Ok(sampler)
    }

    /// Switches `Φ_Q` evaluation from the clause scan to full plan
    /// evaluation: each sampled world is materialised as a deterministic
    /// database and the (Boolean) query runs through a compiled physical
    /// plan over it. Slower, but independent of the lineage collection —
    /// the differential-testing counterpart of the clause mode (identical
    /// seeds must produce identical estimates).
    pub fn with_plan_query(mut self, query: &Ucq) -> Self {
        self.plan_query = Some(query.boolean());
        self
    }

    /// Number of variables drawn per world.
    pub fn num_sampled_vars(&self) -> usize {
        self.thresholds.len()
    }

    /// Number of `NV` variables integrated out analytically.
    pub fn num_integrated_vars(&self) -> usize {
        self.integrated.len()
    }

    /// Number of `W` clauses kept after component pruning.
    pub fn num_w_clauses(&self) -> usize {
        self.w_clauses.len()
    }

    /// `true` when every per-world weight is `0` or `1` (Wilson mode).
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// Upper bound of the per-world weight magnitude.
    pub fn weight_range(&self) -> f64 {
        self.weight_range
    }

    /// The interval construction [`ConditionalSampler::answer_from`] will
    /// use.
    pub fn method(&self) -> IntervalMethod {
        if self.direct {
            IntervalMethod::Wilson
        } else if self.value_range() <= HOEFFDING_WEIGHT_LIMIT {
            IntervalMethod::Hoeffding
        } else {
            IntervalMethod::Normal
        }
    }

    /// The width of the interval the per-world values can range over.
    fn value_range(&self) -> f64 {
        if self.signed.is_empty() {
            self.weight_range
        } else {
            2.0 * self.weight_range
        }
    }

    /// Draws one world; returns `(numerator, denominator)` contributions.
    fn draw(
        &self,
        rng: &mut ChaCha8Rng,
        presence: &mut [bool],
        stamp: &mut [u32],
        generation: u32,
    ) -> (f64, f64) {
        for (slot, &threshold) in presence.iter_mut().zip(&self.thresholds) {
            *slot = rng.gen::<f64>() < threshold;
        }
        let mut weight = 1.0;
        for &(local, sign_present, sign_absent) in &self.signed {
            weight *= if presence[local as usize] {
                sign_present
            } else {
                sign_absent
            };
        }
        for clause in &self.w_clauses {
            if clause.base.iter().all(|&i| presence[i as usize]) {
                match clause.nv {
                    None => {
                        // Denial clause satisfied: the world violates a hard
                        // constraint of ¬W.
                        weight = 0.0;
                        break;
                    }
                    Some(idx) => {
                        let idx = idx as usize;
                        if stamp[idx] != generation {
                            stamp[idx] = generation;
                            weight *= self.integrated[idx];
                            if weight == 0.0 {
                                break;
                            }
                        }
                    }
                }
            }
        }
        let q_true = if weight == 0.0 {
            false
        } else {
            match &self.plan_query {
                None => self
                    .q_clauses
                    .iter()
                    .any(|clause| clause.iter().all(|&i| presence[i as usize])),
                Some(query) => {
                    let world = self.indb.materialize_world_where(|t| {
                        self.id_to_local
                            .get(&t)
                            .is_some_and(|&i| presence[i as usize])
                    });
                    evaluate_boolean(query, &world)
                        .expect("world databases share the schema of the possible-tuple instance")
                }
            }
        };
        (if q_true { weight } else { 0.0 }, weight)
    }

    /// Runs the sampling loop under `config`: draws worlds in batches,
    /// early-stopping once the half-width reaches the target. Returns the
    /// partial sums (merge accumulators from [`ApproxConfig::stream`]-seeded
    /// runs for parallel estimation).
    pub fn collect(&self, config: &ApproxConfig) -> ApproxAccumulator {
        self.collect_budgeted(config, None)
            .expect("collection without a budget cannot be cut short")
    }

    /// [`ConditionalSampler::collect`] under a cooperative
    /// [`EvalBudget`](crate::budget::EvalBudget), polled between sample
    /// batches. Sampling is an *anytime* algorithm, so a budget trip after
    /// [`ApproxConfig::min_samples`] returns the partial accumulator
    /// (`Ok`) — the interval is simply wider than requested; a trip before
    /// any statistically usable estimate exists surfaces as `Err`.
    pub fn collect_budgeted(
        &self,
        config: &ApproxConfig,
        budget: Option<&crate::budget::EvalBudget>,
    ) -> std::result::Result<ApproxAccumulator, crate::budget::BudgetError> {
        let mut acc = ApproxAccumulator::default();
        if self.constant.is_some() {
            return Ok(acc);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut presence = vec![false; self.thresholds.len()];
        let mut stamp = vec![0u32; self.integrated.len()];
        let mut generation: u32 = 0;
        while acc.samples < config.max_samples {
            let run = SAMPLE_BATCH.min(config.max_samples - acc.samples);
            if let Some(b) = budget {
                if let Err(e) = b.check() {
                    // Keep what we have if it can carry an interval at all;
                    // otherwise the budget left no usable answer.
                    if acc.samples >= config.min_samples.max(1) {
                        break;
                    }
                    return Err(e);
                }
            }
            for _ in 0..run {
                generation = generation.wrapping_add(1);
                if generation == 0 {
                    stamp.fill(u32::MAX);
                    generation = 1;
                }
                let (num, den) = self.draw(&mut rng, &mut presence, &mut stamp, generation);
                acc.record(num, den);
            }
            if config.target_half_width > 0.0
                && acc.samples >= config.min_samples
                && self.answer_from(&acc, config).half_width <= config.target_half_width
            {
                break;
            }
        }
        Ok(acc)
    }

    /// Builds the `(estimate, half_width)` answer from partial sums.
    pub fn answer_from(&self, acc: &ApproxAccumulator, config: &ApproxConfig) -> ApproxAnswer {
        if let Some(constant) = self.constant {
            return ApproxAnswer {
                estimate: constant,
                half_width: 0.0,
                confidence: config.confidence,
                samples: acc.samples,
                effective: acc.effective,
                method: IntervalMethod::Wilson,
            };
        }
        let method = self.method();
        let z = z_score(config.confidence);
        let vacuous = |method| ApproxAnswer {
            estimate: 0.5,
            half_width: 0.5,
            confidence: config.confidence,
            samples: acc.samples,
            effective: acc.effective,
            method,
        };
        let (estimate, half_width) = match method {
            IntervalMethod::Wilson => {
                // Weights are {0, 1}: conditional on acceptance, the
                // accepted indicators are iid Bernoulli.
                let m = acc.sum_den;
                if m < 1.0 {
                    return vacuous(method);
                }
                let p = acc.sum_num / m;
                (p, wilson_half_width(p, m, z))
            }
            IntervalMethod::Hoeffding => {
                let n = acc.samples as f64;
                if n < 1.0 {
                    return vacuous(method);
                }
                // Union bound: each of the two means gets δ/2, i.e.
                // deviation t with 2·exp(−2nt²/range²) = δ/2.
                let delta = (1.0 - config.confidence).max(f64::MIN_POSITIVE);
                let h = self.value_range() * ((4.0 / delta).ln() / (2.0 * n)).sqrt();
                let den_mean = acc.sum_den / n;
                if den_mean <= h {
                    return vacuous(method);
                }
                let estimate = acc.sum_num / acc.sum_den;
                // |P − P̂| ≤ (|num − n̂| + |P̂|·|den − d̂|) / |den| with
                // |den| ≥ d̂ − h on the joint Hoeffding event.
                let half = (h + estimate.abs() * h) / (den_mean - h);
                (estimate, half)
            }
            IntervalMethod::Normal => {
                if acc.sum_den <= 0.0 {
                    return vacuous(method);
                }
                let estimate = acc.sum_num / acc.sum_den;
                // Delta method: Var(P̂) ≈ Σ(uᵢ − P̂·vᵢ)² / (Σv)².
                let spread = (acc.sum_num2 - 2.0 * estimate * acc.sum_num_den
                    + estimate * estimate * acc.sum_den2)
                    .max(0.0);
                let delta_half = z * spread.sqrt() / acc.sum_den;
                // Floor by a Wilson interval at the Kish effective sample
                // size, so zero observed spread (all accepted worlds agree)
                // never collapses the interval to a point.
                let ess = if acc.sum_den2 > 0.0 {
                    acc.sum_den * acc.sum_den / acc.sum_den2
                } else {
                    return vacuous(method);
                };
                let wilson_floor = wilson_half_width(estimate.clamp(0.0, 1.0), ess, z);
                (estimate, delta_half.max(wilson_floor))
            }
        };
        ApproxAnswer {
            estimate,
            half_width,
            confidence: config.confidence,
            samples: acc.samples,
            effective: acc.effective,
            method,
        }
    }

    /// Runs the full estimation: [`ConditionalSampler::collect`] followed by
    /// [`ConditionalSampler::answer_from`].
    pub fn estimate(&self, config: &ApproxConfig) -> ApproxAnswer {
        self.answer_from(&self.collect(config), config)
    }

    /// [`ConditionalSampler::estimate`] under a cooperative budget — see
    /// [`ConditionalSampler::collect_budgeted`] for the anytime semantics.
    pub fn estimate_budgeted(
        &self,
        config: &ApproxConfig,
        budget: Option<&crate::budget::EvalBudget>,
    ) -> std::result::Result<ApproxAnswer, crate::budget::BudgetError> {
        Ok(self.answer_from(&self.collect_budgeted(config, budget)?, config))
    }
}

impl std::fmt::Debug for ConditionalSampler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConditionalSampler")
            .field("constant", &self.constant)
            .field("sampled_vars", &self.thresholds.len())
            .field("signed_vars", &self.signed.len())
            .field("integrated_vars", &self.integrated.len())
            .field("q_clauses", &self.q_clauses.len())
            .field("w_clauses", &self.w_clauses.len())
            .field("weight_range", &self.weight_range)
            .field("direct", &self.direct)
            .finish_non_exhaustive()
    }
}

/// Estimates the unconditional probability `P0(Φ)` of a lineage over a
/// tuple-independent database by Monte Carlo (all probabilities must be
/// finite; negative probabilities are handled through signed sampling).
pub fn approx_lineage_probability(
    lineage: &Lineage,
    indb: &InDb,
    config: &ApproxConfig,
) -> Result<ApproxAnswer> {
    Ok(ConditionalSampler::new(lineage, None, indb, |_| false)?.estimate(config))
}

/// Symmetric half-width envelope of the Wilson score interval for `m`
/// Bernoulli trials with success fraction `p` at critical value `z`.
fn wilson_half_width(p: f64, m: f64, z: f64) -> f64 {
    let z2 = z * z;
    let denom = 1.0 + z2 / m;
    let center = (p + z2 / (2.0 * m)) / denom;
    let spread = (z / denom) * (p * (1.0 - p) / m + z2 / (4.0 * m * m)).sqrt();
    // The Wilson interval is centred off p; report the symmetric envelope
    // around p so (estimate ± half_width) still covers it.
    (center - spread - p).abs().max((center + spread - p).abs())
}

/// The two-sided critical value `z` of the standard normal distribution for
/// the given coverage (e.g. `0.99 → 2.5758…`), via Acklam's rational
/// approximation of the inverse normal CDF (|relative error| < 1.2e-9).
///
/// Total over all inputs: coverages outside `(0, 1)` (including NaN) are
/// clamped to the nearest supported value, so `confidence: 1.0` yields the
/// widest finite interval (`z ≈ 7.1`) instead of a panic deep inside an
/// estimation run.
pub fn z_score(confidence: f64) -> f64 {
    let confidence = if confidence.is_nan() {
        1.0 - 1e-12
    } else {
        confidence.clamp(0.0, 1.0 - 1e-12)
    };
    inverse_normal_cdf(0.5 + confidence / 2.0)
}

/// Acklam's inverse normal CDF approximation.
fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    debug_assert!((0.0..1.0).contains(&p) && p > 0.0);
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_lineage_probability;
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, Weight};

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn z_scores_match_known_quantiles() {
        assert!(close(z_score(0.95), 1.959_963_985, 1e-6));
        assert!(close(z_score(0.99), 2.575_829_304, 1e-6));
        assert!(close(z_score(0.999), 3.290_526_731, 1e-6));
        assert!(close(z_score(0.5), 0.674_489_750, 1e-6));
    }

    #[test]
    fn z_score_is_total_over_degenerate_coverages() {
        // Out-of-range coverages clamp instead of panicking mid-run.
        assert!(z_score(1.0).is_finite() && z_score(1.0) > 6.0);
        assert_eq!(z_score(0.0), 0.0);
        assert_eq!(z_score(-3.0), 0.0);
        assert!(z_score(f64::NAN).is_finite());
        assert!(z_score(2.0) >= z_score(0.999_999));
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let seeds: std::collections::BTreeSet<u64> = (0..32).map(|w| derive_seed(42, w)).collect();
        assert_eq!(seeds.len(), 32);
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    /// R(a), R(b), S(a) with easy weights; no views.
    fn simple_indb() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let s = b.probabilistic_relation("S", &["x"]).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::new(3.0)).unwrap();
        b.insert_weighted(r, row(["b"]), Weight::new(1.0)).unwrap();
        b.insert_weighted(s, row(["a"]), Weight::new(0.5)).unwrap();
        b.build()
    }

    #[test]
    fn direct_estimates_match_brute_force_within_ci() {
        let indb = simple_indb();
        let lin = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(2)], vec![TupleId(1)]]);
        let exact = brute_force_lineage_probability(&lin, &indb);
        let config = ApproxConfig {
            seed: 7,
            target_half_width: 0.0,
            max_samples: 20_000,
            ..ApproxConfig::default()
        };
        let answer = approx_lineage_probability(&lin, &indb, &config).unwrap();
        assert_eq!(answer.method, IntervalMethod::Wilson);
        assert_eq!(answer.samples, 20_000);
        assert_eq!(answer.effective, 20_000, "no condition: every world counts");
        assert!(
            answer.contains(exact),
            "CI [{}, {}] misses exact {exact}",
            answer.lower(),
            answer.upper()
        );
        assert!(answer.half_width < 0.02);
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        let indb = simple_indb();
        let lin = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(2)]]);
        let config = ApproxConfig {
            seed: 99,
            target_half_width: 0.0,
            max_samples: 4096,
            ..ApproxConfig::default()
        };
        let a = approx_lineage_probability(&lin, &indb, &config).unwrap();
        let b = approx_lineage_probability(&lin, &indb, &config).unwrap();
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
        let c = approx_lineage_probability(
            &lin,
            &indb,
            &ApproxConfig {
                seed: 100,
                ..config
            },
        )
        .unwrap();
        assert_ne!(a.estimate.to_bits(), c.estimate.to_bits());
    }

    #[test]
    fn early_stopping_halts_before_the_budget() {
        let indb = simple_indb();
        let lin = Lineage::from_clauses(vec![vec![TupleId(1)]]);
        let config = ApproxConfig {
            seed: 5,
            target_half_width: 0.05,
            min_samples: 512,
            max_samples: 1_000_000,
            ..ApproxConfig::default()
        };
        let answer = approx_lineage_probability(&lin, &indb, &config).unwrap();
        assert!(answer.half_width <= 0.05);
        assert!(
            answer.samples < 100_000,
            "±0.05 needs ~700 Bernoulli samples, ran {}",
            answer.samples
        );
    }

    #[test]
    fn constant_lineages_are_exact() {
        let indb = simple_indb();
        let t =
            approx_lineage_probability(&Lineage::constant_true(), &indb, &ApproxConfig::default())
                .unwrap();
        assert_eq!((t.estimate, t.half_width), (1.0, 0.0));
        let f =
            approx_lineage_probability(&Lineage::constant_false(), &indb, &ApproxConfig::default())
                .unwrap();
        assert_eq!((f.estimate, f.half_width), (0.0, 0.0));
    }

    #[test]
    fn certain_w_is_rejected_as_unsampleable() {
        let indb = simple_indb();
        let lin_q = Lineage::from_clauses(vec![vec![TupleId(0)]]);
        let err =
            ConditionalSampler::new(&lin_q, Some(&Lineage::constant_true()), &indb, |_| false);
        assert!(matches!(err, Err(QueryError::Unsampleable(_))));
    }

    /// A database with a negative-probability `NV` tuple (translated view
    /// weight 3 → probability −2) plus two base tuples.
    fn negative_indb() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let nv = b.probabilistic_relation("NV", &["x"]).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::new(1.0)).unwrap();
        b.insert_weighted(r, row(["b"]), Weight::new(2.0)).unwrap();
        // Weight (1-3)/3 = -2/3 → probability -2 (view weight 3).
        b.insert_translated(nv, row(["a"]), Weight::new(-2.0 / 3.0))
            .unwrap();
        b.build()
    }

    #[test]
    fn integrated_nv_variables_reproduce_the_exact_conditional() {
        let indb = negative_indb();
        // Q = R(a); W = NV(a) ∧ R(a) ∧ R(b).
        let lin_q = Lineage::from_clauses(vec![vec![TupleId(0)]]);
        let lin_w = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(1), TupleId(2)]]);
        let p_q_or_w = brute_force_lineage_probability(&lin_q.or(&lin_w), &indb);
        let p_w = brute_force_lineage_probability(&lin_w, &indb);
        let exact = (p_q_or_w - p_w) / (1.0 - p_w);
        let sampler =
            ConditionalSampler::new(&lin_q, Some(&lin_w), &indb, |t| t == TupleId(2)).unwrap();
        assert_eq!(sampler.num_integrated_vars(), 1);
        assert_eq!(sampler.num_sampled_vars(), 2);
        assert!(!sampler.is_direct());
        // Factor 1 − (−2) = 3 = the original view weight.
        assert!(close(sampler.weight_range(), 3.0, 1e-12));
        let config = ApproxConfig {
            seed: 11,
            target_half_width: 0.0,
            max_samples: 40_000,
            ..ApproxConfig::default()
        };
        let answer = sampler.estimate(&config);
        assert_eq!(answer.method, IntervalMethod::Normal);
        assert!(
            answer.contains(exact),
            "CI [{}, {}] misses exact {exact}",
            answer.lower(),
            answer.upper()
        );
        assert!(close(answer.estimate, exact, 0.05));
    }

    #[test]
    fn signed_sampling_handles_negative_variables_in_q() {
        let indb = negative_indb();
        // Q mentions the negative-probability tuple directly, so it cannot
        // be integrated out and is drawn through the signed proposal.
        let lin_q = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(2)]]);
        let exact = brute_force_lineage_probability(&lin_q, &indb);
        let sampler = ConditionalSampler::new(&lin_q, None, &indb, |t| t == TupleId(2)).unwrap();
        assert_eq!(sampler.num_integrated_vars(), 0);
        let config = ApproxConfig {
            seed: 23,
            target_half_width: 0.0,
            max_samples: 60_000,
            ..ApproxConfig::default()
        };
        let answer = sampler.estimate(&config);
        assert!(
            answer.contains(exact),
            "CI [{}, {}] misses exact {exact}",
            answer.lower(),
            answer.upper()
        );
    }

    #[test]
    fn component_pruning_drops_unrelated_w_clauses() {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        for i in 0..6i64 {
            b.insert_weighted(r, row([i]), Weight::ONE).unwrap();
        }
        let indb = b.build();
        let lin_q = Lineage::from_clauses(vec![vec![TupleId(0)]]);
        // One W clause shares a variable with Q, two live in a disjoint
        // component.
        let lin_w = Lineage::from_clauses(vec![
            vec![TupleId(0), TupleId(1)],
            vec![TupleId(2), TupleId(3)],
            vec![TupleId(3), TupleId(4)],
        ]);
        let sampler = ConditionalSampler::new(&lin_q, Some(&lin_w), &indb, |_| false).unwrap();
        assert_eq!(sampler.num_w_clauses(), 1);
        assert_eq!(sampler.num_sampled_vars(), 2);
        // The pruned estimator still matches the exact conditional over the
        // full W.
        let p_q_or_w = brute_force_lineage_probability(&lin_q.or(&lin_w), &indb);
        let p_w = brute_force_lineage_probability(&lin_w, &indb);
        let exact = (p_q_or_w - p_w) / (1.0 - p_w);
        let config = ApproxConfig {
            seed: 3,
            target_half_width: 0.0,
            max_samples: 30_000,
            ..ApproxConfig::default()
        };
        let answer = sampler.estimate(&config);
        assert_eq!(answer.method, IntervalMethod::Wilson);
        assert!(
            answer.contains(exact),
            "CI [{}, {}] misses exact {exact}",
            answer.lower(),
            answer.upper()
        );
    }

    #[test]
    fn merged_streams_match_their_weighted_average() {
        let indb = simple_indb();
        let lin = Lineage::from_clauses(vec![vec![TupleId(0)], vec![TupleId(1), TupleId(2)]]);
        let sampler = ConditionalSampler::new(&lin, None, &indb, |_| false).unwrap();
        let base = ApproxConfig {
            seed: 1234,
            target_half_width: 0.0,
            max_samples: 4096,
            ..ApproxConfig::default()
        };
        let mut merged = ApproxAccumulator::default();
        for stream in 0..4u64 {
            merged.merge(&sampler.collect(&base.stream(stream)));
        }
        assert_eq!(merged.samples, 4 * 4096);
        let answer = sampler.answer_from(&merged, &base);
        let exact = brute_force_lineage_probability(&lin, &indb);
        assert!(answer.contains(exact));
        // Merging is exactly the weighted average of the stream estimates.
        let weighted: f64 = (0..4u64)
            .map(|stream| {
                let acc = sampler.collect(&base.stream(stream));
                sampler.answer_from(&acc, &base).estimate * acc.samples as f64
            })
            .sum::<f64>()
            / merged.samples as f64;
        assert!(close(answer.estimate, weighted, 1e-12));
    }

    #[test]
    fn hoeffding_is_selected_for_small_bounded_weights() {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let nv = b.probabilistic_relation("NV", &["x"]).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::new(1.0)).unwrap();
        // Weight 1 → probability 1/2; factor 1 − 1/2 = 1/2 ≤ limit.
        b.insert_translated(nv, row(["a"]), Weight::new(1.0))
            .unwrap();
        let indb = b.build();
        let lin_q = Lineage::from_clauses(vec![vec![TupleId(0)]]);
        let lin_w = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(1)]]);
        let sampler =
            ConditionalSampler::new(&lin_q, Some(&lin_w), &indb, |t| t == TupleId(1)).unwrap();
        let config = ApproxConfig {
            seed: 17,
            target_half_width: 0.0,
            max_samples: 60_000,
            ..ApproxConfig::default()
        };
        assert_eq!(sampler.method(), IntervalMethod::Hoeffding);
        let p_q_or_w = brute_force_lineage_probability(&lin_q.or(&lin_w), &indb);
        let p_w = brute_force_lineage_probability(&lin_w, &indb);
        let exact = (p_q_or_w - p_w) / (1.0 - p_w);
        let answer = sampler.estimate(&config);
        assert!(
            answer.contains(exact),
            "CI [{}, {}] misses exact {exact}",
            answer.lower(),
            answer.upper()
        );
    }
}
