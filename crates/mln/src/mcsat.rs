//! The MC-SAT sampler (Poon & Domingos, 2006).
//!
//! MC-SAT is the slice-sampling algorithm used by Alchemy for marginal
//! inference in Markov Logic Networks; it is the baseline the paper compares
//! MarkoViews against in Section 5.1. Each iteration selects a random subset
//! `M` of the currently satisfied ground formulas (each with probability
//! `1 − e^{−w}` where `w` is the formula's log-weight) plus all hard
//! constraints, and then draws a (near-)uniform sample from the states
//! satisfying `M` using a SampleSAT-style combination of WalkSAT and
//! simulated-annealing moves.
//!
//! Multiplicative weights `w` are converted to log-weights: `w > 1` prefers
//! the formula to be true (log-weight `ln w`), `w < 1` prefers it to be false
//! (log-weight `ln 1/w` on the negated formula), `w = 0` and `w = ∞` are hard
//! constraints, and `w = 1` imposes nothing.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mv_pdb::TupleId;
use mv_query::Lineage;

use crate::error::MlnError;
use crate::ground::GroundMln;
use crate::Result;

/// Probability of a WalkSAT (repair) move in SampleSAT; the rest are
/// simulated-annealing moves.
const WALK_PROBABILITY: f64 = 0.7;

/// Temperature of SampleSAT's simulated-annealing moves.
const TEMPERATURE: f64 = 0.5;

/// Configuration of the MC-SAT sampler.
#[derive(Debug, Clone, Copy)]
pub struct McSatConfig {
    /// Number of samples kept (after burn-in).
    pub num_samples: usize,
    /// Number of initial samples discarded.
    pub burn_in: usize,
    /// Maximum number of flips per SampleSAT call.
    pub sample_sat_flips: usize,
    /// RNG seed (the sampler is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for McSatConfig {
    fn default() -> Self {
        McSatConfig {
            num_samples: 500,
            burn_in: 100,
            sample_sat_flips: 200,
            seed: 0x5eed,
        }
    }
}

/// Result of an MC-SAT run.
#[derive(Debug, Clone)]
pub struct McSatResult {
    /// Estimated probability of each query passed to [`McSatSampler::run`].
    pub query_probabilities: Vec<f64>,
    /// Number of samples used for the estimates.
    pub num_samples: usize,
}

/// A ground constraint used during sampling.
#[derive(Debug, Clone)]
enum Rule {
    /// The formula must be true.
    RequireTrue(Lineage),
    /// The formula must be false.
    RequireFalse(Lineage),
}

impl Rule {
    fn satisfied(&self, state: &[bool]) -> bool {
        match self {
            Rule::RequireTrue(l) => l.eval_with(|t| state[t.index()]),
            Rule::RequireFalse(l) => !l.eval_with(|t| state[t.index()]),
        }
    }

    fn variables(&self) -> Vec<TupleId> {
        match self {
            Rule::RequireTrue(l) | Rule::RequireFalse(l) => l.variables().into_iter().collect(),
        }
    }
}

/// The MC-SAT sampler over a grounded MLN.
pub struct McSatSampler {
    num_vars: usize,
    hard: Vec<Rule>,
    soft: Vec<(Rule, f64)>,
    config: McSatConfig,
}

impl McSatSampler {
    /// Prepares a sampler for the given network.
    pub fn new(mln: &GroundMln, config: McSatConfig) -> Self {
        let mut hard = Vec::new();
        let mut soft = Vec::new();
        for f in mln.features() {
            let w = f.weight;
            if w == 1.0 {
                continue;
            } else if w == 0.0 {
                hard.push(Rule::RequireFalse(f.formula.clone()));
            } else if w.is_infinite() {
                hard.push(Rule::RequireTrue(f.formula.clone()));
            } else if w > 1.0 {
                soft.push((Rule::RequireTrue(f.formula.clone()), w.ln()));
            } else {
                soft.push((Rule::RequireFalse(f.formula.clone()), (1.0 / w).ln()));
            }
        }
        McSatSampler {
            num_vars: mln.num_vars(),
            hard,
            soft,
            config,
        }
    }

    /// Number of soft rules.
    pub fn num_soft_rules(&self) -> usize {
        self.soft.len()
    }

    /// Number of hard rules.
    pub fn num_hard_rules(&self) -> usize {
        self.hard.len()
    }

    /// Runs MC-SAT and estimates the probability of each query.
    pub fn run(&self, queries: &[Lineage]) -> Result<McSatResult> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut state = vec![false; self.num_vars];

        // Establish the hard constraints first.
        let hard_refs: Vec<&Rule> = self.hard.iter().collect();
        if !self.sample_sat(&hard_refs, &mut state, &mut rng) {
            return Err(MlnError::HardConstraintsUnsatisfied);
        }

        let mut counts = vec![0usize; queries.len()];
        let total = self.config.burn_in + self.config.num_samples;
        for iteration in 0..total {
            // Select M: all hard rules plus each satisfied soft rule with
            // probability 1 - e^{-w}.
            let mut m: Vec<&Rule> = self.hard.iter().collect();
            for (rule, log_weight) in &self.soft {
                if rule.satisfied(&state) && rng.gen::<f64>() < 1.0 - (-log_weight).exp() {
                    m.push(rule);
                }
            }
            if !self.sample_sat(&m, &mut state, &mut rng) {
                // The current state still satisfies M (it did when M was
                // selected), so simply keep it for this iteration.
            }
            if iteration >= self.config.burn_in {
                for (i, q) in queries.iter().enumerate() {
                    if q.eval_with(|t| state[t.index()]) {
                        counts[i] += 1;
                    }
                }
            }
        }
        Ok(McSatResult {
            query_probabilities: counts
                .iter()
                .map(|&c| c as f64 / self.config.num_samples as f64)
                .collect(),
            num_samples: self.config.num_samples,
        })
    }

    /// SampleSAT: starting from `state`, performs a randomised local search
    /// and leaves `state` at a (near-uniform) assignment satisfying all the
    /// given rules. Returns `false` when no satisfying assignment was
    /// reached within the flip budget (the caller keeps the last satisfying
    /// state it knew about).
    fn sample_sat(&self, rules: &[&Rule], state: &mut [bool], rng: &mut StdRng) -> bool {
        if rules.is_empty() || self.num_vars == 0 {
            // Unconstrained: sample uniformly.
            for bit in state.iter_mut() {
                *bit = rng.gen::<bool>();
            }
            return true;
        }
        // Index: variable -> rules mentioning it.
        let mut by_var: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut rule_vars: Vec<Vec<usize>> = Vec::with_capacity(rules.len());
        for (i, rule) in rules.iter().enumerate() {
            let vars: Vec<usize> = rule.variables().iter().map(|t| t.index()).collect();
            for &v in &vars {
                by_var.entry(v).or_default().push(i);
            }
            rule_vars.push(vars);
        }
        let mut sat: Vec<bool> = rules.iter().map(|r| r.satisfied(state)).collect();
        let mut unsat: Vec<usize> = sat
            .iter()
            .enumerate()
            .filter(|(_, &s)| !s)
            .map(|(i, _)| i)
            .collect();
        let mut best: Option<Vec<bool>> = unsat.is_empty().then(|| state.to_vec());

        for _ in 0..self.config.sample_sat_flips {
            let flip_var = if !unsat.is_empty() && rng.gen::<f64>() < WALK_PROBABILITY {
                // WalkSAT move: flip a variable of a random unsatisfied rule.
                let rule_idx = unsat[rng.gen_range(0..unsat.len())];
                let vars = &rule_vars[rule_idx];
                if vars.is_empty() {
                    continue;
                }
                vars[rng.gen_range(0..vars.len())]
            } else {
                // Simulated-annealing move: flip a random variable.
                rng.gen_range(0..self.num_vars)
            };

            // Tentatively flip and evaluate the affected rules.
            state[flip_var] = !state[flip_var];
            let affected = by_var.get(&flip_var).cloned().unwrap_or_default();
            let mut delta: i64 = 0;
            let mut new_sat = Vec::with_capacity(affected.len());
            for &r in &affected {
                let now = rules[r].satisfied(state);
                new_sat.push(now);
                delta += i64::from(sat[r]) - i64::from(now);
            }
            let accept = delta <= 0 || rng.gen::<f64>() < (-(delta as f64) / TEMPERATURE).exp();
            if accept {
                for (&r, &now) in affected.iter().zip(&new_sat) {
                    sat[r] = now;
                }
                unsat = sat
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| !s)
                    .map(|(i, _)| i)
                    .collect();
                if unsat.is_empty() {
                    best = Some(state.to_vec());
                }
            } else {
                state[flip_var] = !state[flip_var];
            }
        }
        match best {
            Some(b) => {
                state.copy_from_slice(&b);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TupleId {
        TupleId(i)
    }

    fn clause(vars: &[u32]) -> Lineage {
        Lineage::from_clauses(vec![vars.iter().map(|&i| t(i)).collect()])
    }

    #[test]
    fn marginals_of_independent_tuples_are_close_to_exact() {
        let mut mln = GroundMln::new(2);
        mln.add_atom_feature(t(0), 3.0).unwrap();
        mln.add_atom_feature(t(1), 1.0).unwrap();
        let sampler = McSatSampler::new(
            &mln,
            McSatConfig {
                num_samples: 4000,
                burn_in: 200,
                ..McSatConfig::default()
            },
        );
        let result = sampler.run(&[clause(&[0]), clause(&[1])]).unwrap();
        assert!((result.query_probabilities[0] - 0.75).abs() < 0.05);
        assert!((result.query_probabilities[1] - 0.5).abs() < 0.05);
        assert_eq!(result.num_samples, 4000);
    }

    #[test]
    fn correlated_tuples_track_the_exact_distribution() {
        // Example 1: weights 3, 4 and a negative correlation of 0.5.
        let mut mln = GroundMln::new(2);
        mln.add_atom_feature(t(0), 3.0).unwrap();
        mln.add_atom_feature(t(1), 4.0).unwrap();
        mln.add_feature(clause(&[0, 1]), 0.5).unwrap();
        let exact = mln.exact_probability(&clause(&[0, 1])).unwrap();
        let sampler = McSatSampler::new(
            &mln,
            McSatConfig {
                num_samples: 6000,
                burn_in: 500,
                ..McSatConfig::default()
            },
        );
        let result = sampler.run(&[clause(&[0, 1])]).unwrap();
        assert!(
            (result.query_probabilities[0] - exact).abs() < 0.06,
            "sampled {} vs exact {exact}",
            result.query_probabilities[0]
        );
    }

    #[test]
    fn hard_denial_constraints_are_respected() {
        // Two tuples that can never be true together.
        let mut mln = GroundMln::new(2);
        mln.add_atom_feature(t(0), 1.0).unwrap();
        mln.add_atom_feature(t(1), 1.0).unwrap();
        mln.add_feature(clause(&[0, 1]), 0.0).unwrap();
        let sampler = McSatSampler::new(&mln, McSatConfig::default());
        let result = sampler.run(&[clause(&[0, 1])]).unwrap();
        assert_eq!(result.query_probabilities[0], 0.0);
        assert_eq!(sampler.num_hard_rules(), 1);
    }

    #[test]
    fn hard_requirements_are_respected() {
        let mut mln = GroundMln::new(2);
        mln.add_atom_feature(t(0), 1.0).unwrap();
        mln.add_atom_feature(t(1), 1.0).unwrap();
        mln.add_feature(clause(&[0]), f64::INFINITY).unwrap();
        let sampler = McSatSampler::new(&mln, McSatConfig::default());
        let result = sampler.run(&[clause(&[0])]).unwrap();
        assert_eq!(result.query_probabilities[0], 1.0);
    }

    #[test]
    fn indifferent_weights_produce_no_rules() {
        let mut mln = GroundMln::new(1);
        mln.add_atom_feature(t(0), 1.0).unwrap();
        let sampler = McSatSampler::new(&mln, McSatConfig::default());
        assert_eq!(sampler.num_soft_rules(), 0);
        assert_eq!(sampler.num_hard_rules(), 0);
        let result = sampler.run(&[clause(&[0])]).unwrap();
        // Unconstrained variable: probability about one half.
        assert!((result.query_probabilities[0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn weights_below_one_discourage_their_formula() {
        let mut mln = GroundMln::new(1);
        mln.add_atom_feature(t(0), 0.25).unwrap(); // p = 0.2
        let sampler = McSatSampler::new(
            &mln,
            McSatConfig {
                num_samples: 4000,
                ..McSatConfig::default()
            },
        );
        let result = sampler.run(&[clause(&[0])]).unwrap();
        assert!((result.query_probabilities[0] - 0.2).abs() < 0.06);
    }
}
