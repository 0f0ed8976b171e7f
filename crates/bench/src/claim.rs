//! Claims as data: what an experiment asserts about its results.
//!
//! A [`Check`] is one claim and its verdict. Most claims are one
//! comparison of a measured value with a bound: [`Check::at_least`],
//! [`Check::above`], [`Check::at_most`], [`Check::below`] and
//! [`Check::within`] derive the verdict, the detail line and a signed
//! margin from it. A claim that is not one comparison is a
//! [`Check::holds`] predicate. Where a claim runs is data too:
//! [`Check::paper_only`] claims are dropped below paper scale, and
//! [`Check::strict_at_paper`] comparisons tighten `≥` / `≤` to `>` / `<`
//! there.

use swpf_workloads::Scale;

/// How a comparison's value must stand to its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Relation {
    /// `≥`
    AtLeast,
    /// `>`
    Above,
    /// `≤`
    AtMost,
    /// `<`
    Below,
    /// `|value − bound| ≤ tolerance × |bound|`
    Within(f64),
}

/// The bound of a comparison: its value and how the detail line names
/// it. A bare `f64` is a constant, `(what, value)` a named quantity.
#[derive(Debug, Clone)]
pub struct Bound {
    /// The number the value is compared with.
    pub value: f64,
    label: String,
}

impl From<f64> for Bound {
    fn from(value: f64) -> Bound {
        Bound::new(value, num(value))
    }
}

impl From<(&str, f64)> for Bound {
    fn from((what, value): (&str, f64)) -> Bound {
        Bound::new(value, format!("{what} {}", num(value)))
    }
}

impl Bound {
    fn new(value: f64, label: String) -> Bound {
        Bound { value, label }
    }

    /// `factor × what value`, e.g. `0.9 × intuitive 1.111`.
    #[must_use]
    pub fn times(factor: f64, what: &str, value: f64) -> Bound {
        Bound::new(value * factor, format!("{factor} × {what} {}", num(value)))
    }

    /// The larger of two named quantities.
    #[must_use]
    pub fn max(a: (&str, f64), b: (&str, f64)) -> Bound {
        let (la, lb) = (Bound::from(a).label, Bound::from(b).label);
        Bound::new(a.1.max(b.1), format!("max({la}, {lb})"))
    }

    /// The smaller of two named quantities.
    #[must_use]
    pub fn min(a: (&str, f64), b: (&str, f64)) -> Bound {
        let (la, lb) = (Bound::from(a).label, Bound::from(b).label);
        Bound::new(a.1.min(b.1), format!("min({la}, {lb})"))
    }
}

/// What a comparison claim compared: `what value relation bound`.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What the value measures, as the detail line names it.
    pub what: String,
    /// The measured value.
    pub value: f64,
    /// How the value must stand to the bound.
    pub relation: Relation,
    /// The bound.
    pub bound: Bound,
}

impl Comparison {
    /// The signed relative room, positive when the claim holds with
    /// room: `(value − bound) / |bound|` for `≥` / `>`, its negation for
    /// `≤` / `<`, and `tolerance − |value − bound| / |bound|` for
    /// `within`. `None` when the bound is 0 or a side is not finite.
    #[must_use]
    pub fn margin(&self) -> Option<f64> {
        let bound = self.bound.value;
        let rel = (self.value - bound) / bound.abs();
        let margin = match self.relation {
            Relation::AtLeast | Relation::Above => rel,
            Relation::AtMost | Relation::Below => -rel,
            Relation::Within(tolerance) => tolerance - rel.abs(),
        };
        Some(margin).filter(|m| bound != 0.0 && m.is_finite())
    }

    fn check(self, name: String) -> Check {
        let (v, b) = (self.value, self.bound.value);
        let (passed, relation) = match self.relation {
            Relation::AtLeast => (v >= b, "≥".to_string()),
            Relation::Above => (v > b, ">".to_string()),
            Relation::AtMost => (v <= b, "≤".to_string()),
            Relation::Below => (v < b, "<".to_string()),
            Relation::Within(t) => ((v - b).abs() <= t * b.abs(), format!("within ±{t} ×")),
        };
        let detail = format!("{} {} {relation} {}", self.what, num(v), self.bound.label);
        Check {
            comparison: Some(self),
            ..Check::holds(name, passed, detail)
        }
    }
}

/// One claim about an experiment's results, with its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable check name.
    pub name: String,
    /// Did the claim hold?
    pub passed: bool,
    /// Human-readable evidence (the numbers involved).
    pub detail: String,
    /// The comparison, on a claim that is one.
    pub comparison: Option<Comparison>,
    /// Evaluated only at paper scale.
    pub paper_only: bool,
    strict_at_paper: bool,
}

/// The comparison constructors: `(name, what, value, bound)`.
macro_rules! comparisons {
    ($($(#[$doc:meta])* $fn:ident => $relation:ident;)*) => {$(
        $(#[$doc])*
        #[must_use]
        pub fn $fn(name: impl Into<String>, what: &str, value: f64, bound: impl Into<Bound>) -> Check {
            Check::compare(name, what, value, Relation::$relation, bound)
        }
    )*};
}

impl Check {
    /// A claim that is not one comparison: a verdict and its evidence.
    #[must_use]
    pub fn holds(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
            comparison: None,
            paper_only: false,
            strict_at_paper: false,
        }
    }

    comparisons! {
        /// `what value ≥ bound`.
        at_least => AtLeast;
        /// `what value > bound`.
        above => Above;
        /// `what value ≤ bound`.
        at_most => AtMost;
        /// `what value < bound`.
        below => Below;
    }

    /// `what value` within `tolerance × |bound|` of the bound.
    #[must_use]
    pub fn within(
        name: impl Into<String>,
        what: &str,
        value: f64,
        bound: impl Into<Bound>,
        tolerance: f64,
    ) -> Check {
        Check::compare(name, what, value, Relation::Within(tolerance), bound)
    }

    fn compare(
        name: impl Into<String>,
        what: &str,
        value: f64,
        relation: Relation,
        bound: impl Into<Bound>,
    ) -> Check {
        let (what, bound) = (what.to_string(), bound.into());
        let comparison = Comparison {
            what,
            value,
            relation,
            bound,
        };
        comparison.check(name.into())
    }

    /// The claim is evaluated only at paper scale: its contrast does not
    /// show on smaller inputs.
    #[must_use]
    pub fn paper_only(self) -> Check {
        Check {
            paper_only: true,
            ..self
        }
    }

    /// A `≥` / `≤` comparison becomes `>` / `<` at paper scale, where the
    /// contrast must show; smaller inputs may tie.
    #[must_use]
    pub fn strict_at_paper(self) -> Check {
        Check {
            strict_at_paper: true,
            ..self
        }
    }

    /// The claim as evaluated at `scale`: `None` for a paper-only claim
    /// below paper scale, the strict comparison for a
    /// [`Check::strict_at_paper`] one at paper scale.
    #[must_use]
    pub fn at_scale(self, scale: Scale) -> Option<Check> {
        let paper = scale == Scale::Paper;
        match self.comparison {
            _ if self.paper_only && !paper => None,
            Some(mut c) if self.strict_at_paper && paper => {
                c.relation = match c.relation {
                    Relation::AtLeast => Relation::Above,
                    Relation::AtMost => Relation::Below,
                    strict => strict,
                };
                let paper_only = self.paper_only;
                Some(Check {
                    paper_only,
                    ..c.check(self.name)
                })
            }
            _ => Some(self),
        }
    }
}

/// A claim's number as its detail line prints it: whole numbers whole,
/// anything else to three decimals.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_comparison_renders_its_verdict_detail_and_margin() {
        let c = Check::at_least("c", "optimal", 1.2, Bound::times(0.9, "intuitive", 1.0));
        assert!(c.passed);
        assert_eq!(c.detail, "optimal 1.200 ≥ 0.9 × intuitive 1");
        let m = c.comparison.as_ref().and_then(Comparison::margin).unwrap();
        assert!((m - (1.2 - 0.9) / 0.9).abs() < 1e-12);

        let c = Check::at_most(
            "c",
            "searched",
            7.0,
            Bound::min(("full", 6.0), ("default", 8.0)),
        );
        assert!(!c.passed);
        assert_eq!(c.detail, "searched 7 ≤ min(full 6, default 8)");
        assert!(c.comparison.unwrap().margin().unwrap() < 0.0);

        let c = Check::within("c", "geomean", 1.05, ("bare", 1.0), 0.1);
        assert!(c.passed);
        assert_eq!(c.detail, "geomean 1.050 within ±0.1 × bare 1");
        assert!((c.comparison.unwrap().margin().unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn a_zero_bound_has_no_margin() {
        let c = Check::above("c", "overhead", 3.0, 0.0);
        assert!(c.passed);
        assert_eq!(c.comparison.unwrap().margin(), None);
    }

    #[test]
    fn scale_decides_where_a_claim_runs_and_how_strictly() {
        let tie = Check::at_least("tie", "late", 0.0, ("c=256", 0.0)).strict_at_paper();
        assert!(tie.clone().at_scale(Scale::Test).unwrap().passed);
        let strict = tie.at_scale(Scale::Paper).unwrap();
        assert!(!strict.passed);
        assert_eq!(strict.detail, "late 0 > c=256 0");

        let paper = Check::above("p", "speedup", 1.2, 1.0).paper_only();
        assert!(paper.clone().at_scale(Scale::Test).is_none());
        assert!(paper.at_scale(Scale::Paper).unwrap().paper_only);
    }
}
