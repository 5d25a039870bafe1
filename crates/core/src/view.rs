//! MarkoView definitions (Definition 3).
//!
//! A MarkoView is a rule `V(x̄)[wexpr] :- Q` where `Q` is a UCQ over the
//! probabilistic and deterministic tables and `wexpr` assigns a non-negative
//! weight to every output tuple. A weight `< 1` declares a negative
//! correlation between the contributing tuples, `> 1` a positive one, `= 1`
//! independence, and `= 0` a hard (denial) constraint.

use std::fmt;
use std::sync::Arc;

use mv_pdb::Row;
use mv_query::parser::parse_rule_with_annotation;
use mv_query::Ucq;

use crate::error::CoreError;
use crate::Result;

/// The weight expression of a MarkoView.
#[derive(Clone)]
pub enum WeightExpr {
    /// The same constant weight for every output tuple.
    Constant(f64),
    /// A per-output-tuple weight function (the parameterised weights of
    /// Figure 1, e.g. `count(pid)/2`, computed by the caller against the
    /// deterministic data). The function receives the view's output tuple.
    PerTuple(Arc<dyn Fn(&Row) -> f64 + Send + Sync>),
}

impl fmt::Debug for WeightExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightExpr::Constant(w) => write!(f, "Constant({w})"),
            WeightExpr::PerTuple(_) => write!(f, "PerTuple(<fn>)"),
        }
    }
}

impl WeightExpr {
    /// Evaluates the weight of one output tuple.
    pub fn weight_of(&self, row: &Row) -> f64 {
        match self {
            WeightExpr::Constant(w) => *w,
            WeightExpr::PerTuple(f) => f(row),
        }
    }
}

/// A MarkoView: a weighted view over the probabilistic tables.
#[derive(Debug, Clone)]
pub struct MarkoView {
    /// The view name (`V1`, `V2`, … in Figure 1).
    pub name: String,
    /// The view query; its head variables are the view's output attributes.
    pub query: Ucq,
    /// The weight expression.
    pub weight: WeightExpr,
}

impl MarkoView {
    /// Creates a view with a constant weight.
    pub fn new(name: impl Into<String>, query: Ucq, weight: f64) -> Result<Self> {
        let name = name.into();
        if weight.is_nan() || weight < 0.0 {
            return Err(CoreError::InvalidTupleWeight { view: name, weight });
        }
        Ok(MarkoView {
            name,
            query,
            weight: WeightExpr::Constant(weight),
        })
    }

    /// Creates a view whose weight is computed per output tuple.
    pub fn with_weight_fn(
        name: impl Into<String>,
        query: Ucq,
        weight: impl Fn(&Row) -> f64 + Send + Sync + 'static,
    ) -> Self {
        MarkoView {
            name: name.into(),
            query,
            weight: WeightExpr::PerTuple(Arc::new(weight)),
        }
    }

    /// Parses the textual form `V(x̄)[w] :- body`, where `w` must be a
    /// non-negative constant (use [`MarkoView::with_weight_fn`] for computed
    /// weights). The keyword `inf` denotes a hard requirement.
    pub fn parse(text: &str) -> Result<Self> {
        let (cq, annotation) = parse_rule_with_annotation(text)?;
        let name = cq.name.to_string();
        let annotation = annotation.ok_or_else(|| CoreError::InvalidViewWeight {
            view: name.clone(),
            annotation: "<missing>".into(),
        })?;
        let weight =
            parse_weight_constant(&annotation).ok_or_else(|| CoreError::InvalidViewWeight {
                view: name.clone(),
                annotation: annotation.clone(),
            })?;
        MarkoView::new(name, Ucq::from_cq(cq), weight)
    }

    /// Replaces the view's weight expression with a constant — the MLN
    /// weight-change entry point of the update path. Rejects NaN and
    /// negative weights, like [`MarkoView::new`].
    pub fn set_constant_weight(&mut self, weight: f64) -> Result<()> {
        if weight.is_nan() || weight < 0.0 {
            return Err(CoreError::InvalidTupleWeight {
                view: self.name.clone(),
                weight,
            });
        }
        self.weight = WeightExpr::Constant(weight);
        Ok(())
    }

    /// The name of the translated `NV` relation of Definition 5.
    pub fn nv_relation_name(&self) -> String {
        format!("NV_{}", self.name)
    }

    /// The arity of the view's output.
    pub fn arity(&self) -> usize {
        self.query.head_arity()
    }

    /// `true` when every output tuple is a denial constraint (constant
    /// weight `0`).
    pub fn is_denial(&self) -> bool {
        matches!(self.weight, WeightExpr::Constant(w) if w == 0.0)
    }
}

/// Parses a simple constant weight annotation: a float literal, `inf`, or a
/// ratio `a/b` of float literals.
fn parse_weight_constant(text: &str) -> Option<f64> {
    let text = text.trim();
    if text.eq_ignore_ascii_case("inf") {
        return Some(f64::INFINITY);
    }
    if let Ok(w) = text.parse::<f64>() {
        return Some(w);
    }
    if let Some((num, den)) = text.split_once('/') {
        let num = num.trim().parse::<f64>().ok()?;
        let den = den.trim().parse::<f64>().ok()?;
        if den != 0.0 {
            return Some(num / den);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_pdb::Value;

    #[test]
    fn parse_constant_weight_views() {
        let v = MarkoView::parse("V(x)[0.5] :- R(x), S(x)").unwrap();
        assert_eq!(v.name, "V");
        assert_eq!(v.arity(), 1);
        assert!(!v.is_denial());
        assert_eq!(v.weight.weight_of(&vec![Value::str("a")]), 0.5);
        assert_eq!(v.nv_relation_name(), "NV_V");
    }

    #[test]
    fn parse_denial_views_and_ratios() {
        let v = MarkoView::parse("V2(x, y, z)[0] :- Advisor(x, y), Advisor(x, z), y <> z").unwrap();
        assert!(v.is_denial());
        let v = MarkoView::parse("V1(x, y)[3/2] :- Advisor(x, y)").unwrap();
        assert_eq!(v.weight.weight_of(&vec![]), 1.5);
        let v = MarkoView::parse("V3(x)[inf] :- R(x)").unwrap();
        assert!(v.weight.weight_of(&vec![]).is_infinite());
    }

    #[test]
    fn computed_weight_annotations_are_rejected_with_guidance() {
        let err =
            MarkoView::parse("V1(a, b)[count(pid)/2] :- Advisor(a, b), Wrote(a, p)").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("V1"));
        assert!(msg.contains("with_weight_fn"));
    }

    #[test]
    fn missing_annotations_are_rejected() {
        assert!(MarkoView::parse("V(x) :- R(x)").is_err());
    }

    #[test]
    fn negative_constant_weights_are_rejected() {
        let q = mv_query::parse_ucq("V(x) :- R(x)").unwrap();
        assert!(MarkoView::new("V", q, -1.0).is_err());
    }

    #[test]
    fn per_tuple_weight_functions_receive_the_output_row() {
        let q = mv_query::parse_ucq("V(x) :- R(x)").unwrap();
        let v =
            MarkoView::with_weight_fn(
                "V",
                q,
                |row| {
                    if row[0] == Value::str("a") {
                        2.0
                    } else {
                        0.5
                    }
                },
            );
        assert_eq!(v.weight.weight_of(&vec![Value::str("a")]), 2.0);
        assert_eq!(v.weight.weight_of(&vec![Value::str("b")]), 0.5);
        assert!(format!("{:?}", v.weight).contains("PerTuple"));
    }
}
