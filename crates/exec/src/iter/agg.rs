//! Aggregation: single-result aggregates (full WoP overlap in the paper's
//! taxonomy) and hash group-by (step overlap).

use super::TupleIter;
use crate::plan::{AggFunc, AggSpec};
use qpipe_common::{QResult, Tuple, Value};
use std::collections::HashMap;

/// Running state for one aggregate column.
#[derive(Debug, Clone)]
pub enum AggState {
    Count(i64),
    Sum { acc: f64, ints_only: bool, int_acc: i64, any: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
}

impl AggState {
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum { acc: 0.0, ints_only: true, int_acc: 0, any: false },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Fold one evaluated input value in. `CountStar` passes a non-null dummy.
    pub fn update(&mut self, v: &Value) {
        match self {
            AggState::Count(c) => {
                if !v.is_null() {
                    *c += 1;
                }
            }
            AggState::Sum { acc, ints_only, int_acc, any } => match v {
                Value::Null => {}
                Value::Int(i) => {
                    *acc += *i as f64;
                    *int_acc += i;
                    *any = true;
                }
                other => {
                    if let Some(f) = other.as_float() {
                        *acc += f;
                        *ints_only = false;
                        *any = true;
                    }
                }
            },
            AggState::Min(m) => {
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            AggState::Max(m) => {
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(f) = v.as_float() {
                    *sum += f;
                    *count += 1;
                }
            }
        }
    }

    /// Typed fast path: semantically identical to `update(&Value::Int(v))`,
    /// without constructing the `Value` (vectorized agg inner loop).
    #[inline]
    pub fn update_int(&mut self, v: i64) {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum { acc, int_acc, any, .. } => {
                *acc += v as f64;
                *int_acc += v;
                *any = true;
            }
            AggState::Min(m) => {
                if m.as_ref().is_none_or(|cur| Value::Int(v) < *cur) {
                    *m = Some(Value::Int(v));
                }
            }
            AggState::Max(m) => {
                if m.as_ref().is_none_or(|cur| Value::Int(v) > *cur) {
                    *m = Some(Value::Int(v));
                }
            }
            AggState::Avg { sum, count } => {
                *sum += v as f64;
                *count += 1;
            }
        }
    }

    /// Typed fast path: semantically identical to `update(&Value::Float(v))`.
    #[inline]
    pub fn update_float(&mut self, v: f64) {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum { acc, ints_only, any, .. } => {
                *acc += v;
                *ints_only = false;
                *any = true;
            }
            AggState::Min(m) => {
                if m.as_ref().is_none_or(|cur| Value::Float(v) < *cur) {
                    *m = Some(Value::Float(v));
                }
            }
            AggState::Max(m) => {
                if m.as_ref().is_none_or(|cur| Value::Float(v) > *cur) {
                    *m = Some(Value::Float(v));
                }
            }
            AggState::Avg { sum, count } => {
                *sum += v;
                *count += 1;
            }
        }
    }

    /// Final output value.
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c),
            AggState::Sum { acc, ints_only, int_acc, any } => {
                if !any {
                    Value::Null
                } else if *ints_only {
                    Value::Int(*int_acc)
                } else {
                    Value::Float(*acc)
                }
            }
            AggState::Min(m) | AggState::Max(m) => m.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
        }
    }
}

/// Aggregation operator. Output schema: group-by columns then aggregates.
pub struct AggregateIter {
    input: Option<Box<dyn TupleIter>>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    results: std::vec::IntoIter<Tuple>,
}

impl AggregateIter {
    pub fn new(input: Box<dyn TupleIter>, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        Self { input: Some(input), group_by, aggs, results: Vec::new().into_iter() }
    }

    fn execute(&self, mut input: Box<dyn TupleIter>) -> QResult<Vec<Tuple>> {
        let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        let single = self.group_by.is_empty();
        if single {
            groups.insert(Vec::new(), self.aggs.iter().map(|a| AggState::new(a.func)).collect());
        }
        while let Some(t) = input.next()? {
            let key: Vec<Value> = self.group_by.iter().map(|&c| t[c].clone()).collect();
            let states = groups
                .entry(key)
                .or_insert_with(|| self.aggs.iter().map(|a| AggState::new(a.func)).collect());
            for (spec, state) in self.aggs.iter().zip(states.iter_mut()) {
                if spec.func == AggFunc::CountStar {
                    state.update(&Value::Int(1));
                } else {
                    state.update(&spec.expr.eval(&t)?);
                }
            }
        }
        let mut rows: Vec<Tuple> = groups
            .into_iter()
            .map(|(key, states)| {
                let mut row = key;
                row.extend(states.iter().map(|s| s.finish()));
                row
            })
            .collect();
        // Deterministic output order (group key ascending).
        rows.sort_by(|a, b| {
            a[..self.group_by.len()]
                .iter()
                .zip(&b[..self.group_by.len()])
                .map(|(x, y)| x.cmp(y))
                .find(|o| !o.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(rows)
    }
}

impl TupleIter for AggregateIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        // First call: drain the input (taken, so a failed drain is not retried).
        if let Some(input) = self.input.take() {
            self.results = self.execute(input)?.into_iter();
        }
        Ok(self.results.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::iter::VecIter;

    fn rows() -> Vec<Tuple> {
        vec![
            vec![Value::Int(1), Value::Float(10.0)],
            vec![Value::Int(2), Value::Float(20.0)],
            vec![Value::Int(1), Value::Float(30.0)],
            vec![Value::Int(2), Value::Null],
        ]
    }

    #[test]
    fn single_aggregates() {
        let aggs = vec![
            AggSpec::count_star(),
            AggSpec::sum(Expr::col(1)),
            AggSpec::min(Expr::col(1)),
            AggSpec::max(Expr::col(1)),
            AggSpec::avg(Expr::col(1)),
            AggSpec::count(Expr::col(1)),
        ];
        let mut it = AggregateIter::new(Box::new(VecIter::new(rows())), vec![], aggs);
        let r = it.next().unwrap().unwrap();
        assert_eq!(r[0], Value::Int(4)); // count(*)
        assert_eq!(r[1], Value::Float(60.0)); // sum ignores NULL
        assert_eq!(r[2], Value::Float(10.0)); // min
        assert_eq!(r[3], Value::Float(30.0)); // max
        assert_eq!(r[4], Value::Float(20.0)); // avg over 3 non-null
        assert_eq!(r[5], Value::Int(3)); // count(col) skips NULL
        assert!(it.next().unwrap().is_none());
    }

    #[test]
    fn group_by() {
        let mut it = AggregateIter::new(
            Box::new(VecIter::new(rows())),
            vec![0],
            vec![AggSpec::count_star(), AggSpec::sum(Expr::col(1))],
        );
        let a = it.next().unwrap().unwrap();
        let b = it.next().unwrap().unwrap();
        assert!(it.next().unwrap().is_none());
        assert_eq!(a, vec![Value::Int(1), Value::Int(2), Value::Float(40.0)]);
        assert_eq!(b, vec![Value::Int(2), Value::Int(2), Value::Float(20.0)]);
    }

    #[test]
    fn empty_input_single_group_emits_row() {
        let mut it = AggregateIter::new(
            Box::new(VecIter::new(vec![])),
            vec![],
            vec![AggSpec::count_star(), AggSpec::sum(Expr::col(0))],
        );
        let r = it.next().unwrap().unwrap();
        assert_eq!(r[0], Value::Int(0));
        assert!(r[1].is_null());
    }

    #[test]
    fn empty_input_group_by_emits_nothing() {
        let mut it = AggregateIter::new(
            Box::new(VecIter::new(vec![])),
            vec![0],
            vec![AggSpec::count_star()],
        );
        assert!(it.next().unwrap().is_none());
    }

    #[test]
    fn int_sum_stays_int() {
        let rows = vec![vec![Value::Int(2)], vec![Value::Int(3)]];
        let mut it = AggregateIter::new(
            Box::new(VecIter::new(rows)),
            vec![],
            vec![AggSpec::sum(Expr::col(0))],
        );
        assert_eq!(it.next().unwrap().unwrap()[0], Value::Int(5));
    }
}
