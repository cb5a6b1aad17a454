//! Property tests for the calendar and cube substrate.

use std::collections::BTreeMap;

use exl_model::time::{Date, Frequency, TimePoint};
use exl_model::value::DimValue;
use exl_model::{CubeData, DimTuple, ModelError};
use proptest::prelude::*;

fn arb_frequency() -> impl Strategy<Value = Frequency> {
    prop_oneof![
        Just(Frequency::Daily),
        Just(Frequency::Monthly),
        Just(Frequency::Quarterly),
        Just(Frequency::Yearly),
    ]
}

fn arb_timepoint() -> impl Strategy<Value = TimePoint> {
    (arb_frequency(), -200_000i64..200_000).prop_map(|(f, i)| TimePoint::from_index(f, i))
}

/// One tuple-level operation on a cube, for the model test.
#[derive(Debug, Clone)]
enum CubeOp {
    Insert(DimTuple, f64),
    Overwrite(DimTuple, f64),
    Remove(DimTuple),
    Get(DimTuple),
    /// Snapshot the cube (a copy-on-write clone) for later comparison.
    Snapshot,
}

/// Small key space (so operations collide) mixing strings — new ones
/// appear mid-sequence and grow the pool — with integers and quarters.
fn arb_key() -> impl Strategy<Value = DimTuple> {
    (0u8..6, 0i64..4, 1u32..3).prop_map(|(s, i, q)| {
        vec![
            DimValue::str(format!("s{s}")),
            DimValue::Int(i),
            DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: q,
            }),
        ]
    })
}

/// Few distinct measures, so re-inserting an equal value happens.
fn arb_measure() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), Just(-0.0), Just(0.0), -10.0f64..10.0]
}

fn arb_op() -> impl Strategy<Value = CubeOp> {
    prop_oneof![
        (arb_key(), arb_measure()).prop_map(|(k, v)| CubeOp::Insert(k, v)),
        (arb_key(), arb_measure()).prop_map(|(k, v)| CubeOp::Overwrite(k, v)),
        arb_key().prop_map(CubeOp::Remove),
        arb_key().prop_map(CubeOp::Get),
        Just(CubeOp::Snapshot),
    ]
}

/// The cube as a sorted map, bit-exact on measures.
fn model_of(data: &CubeData) -> BTreeMap<DimTuple, u64> {
    data.iter().map(|(k, v)| (k, v.to_bits())).collect()
}

proptest! {
    /// Civil-date decomposition and recomposition are mutually inverse.
    #[test]
    fn date_round_trip(days in -1_000_000i32..1_000_000) {
        let d = Date::from_epoch_days(days);
        let (y, m, dd) = d.ymd();
        prop_assert_eq!(Date::from_ymd(y, m, dd), Some(d));
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&dd));
    }

    /// Consecutive days differ by exactly one calendar step.
    #[test]
    fn date_succ_is_calendar_successor(days in -500_000i32..500_000) {
        let d = Date::from_epoch_days(days);
        let next = d.shift_days(1);
        let (y, m, dd) = d.ymd();
        let (ny, nm, ndd) = next.ymd();
        if ndd != 1 {
            prop_assert_eq!((ny, nm, ndd), (y, m, dd + 1));
        } else {
            // month or year rolled over
            prop_assert!(nm == m + 1 && ny == y || (nm == 1 && ny == y + 1 && m == 12));
            prop_assert_eq!(dd, exl_model::time::days_in_month(y, m));
        }
    }

    /// shift is a group action: shift(a)∘shift(b) = shift(a+b), with
    /// shift(0) the identity.
    #[test]
    fn shift_composes(p in arb_timepoint(), a in -1000i64..1000, b in -1000i64..1000) {
        prop_assert_eq!(p.shift(a).shift(b), p.shift(a + b));
        prop_assert_eq!(p.shift(0), p);
    }

    /// index ∘ from_index = id and index is strictly monotone.
    #[test]
    fn index_bijective_and_monotone(f in arb_frequency(), i in -100_000i64..100_000) {
        let p = TimePoint::from_index(f, i);
        prop_assert_eq!(p.index(), i);
        prop_assert!(TimePoint::from_index(f, i + 1) > p);
    }

    /// Frequency conversion is monotone: order is preserved (weakly) under
    /// coarsening.
    #[test]
    fn conversion_is_monotone(a in arb_timepoint(), steps in 0i64..500, target in arb_frequency()) {
        let b = a.shift(steps);
        if let (Some(ca), Some(cb)) = (a.convert(target), b.convert(target)) {
            prop_assert!(ca <= cb, "{a} -> {ca}, {b} -> {cb}");
        }
    }

    /// Conversion is idempotent through intermediate frequencies:
    /// day→quarter equals day→month→quarter.
    #[test]
    fn conversion_composes(days in -200_000i32..200_000) {
        let d = TimePoint::Day(Date::from_epoch_days(days));
        let direct = d.convert(Frequency::Quarterly);
        let via_month = d
            .convert(Frequency::Monthly)
            .and_then(|m| m.convert(Frequency::Quarterly));
        prop_assert_eq!(direct, via_month);
        let direct_y = d.convert(Frequency::Yearly);
        let via_q = d
            .convert(Frequency::Quarterly)
            .and_then(|q| q.convert(Frequency::Yearly));
        prop_assert_eq!(direct_y, via_q);
    }

    /// CubeData keeps set semantics and detects conflicts, regardless of
    /// insertion order.
    #[test]
    fn cube_data_insert_order_irrelevant(mut pairs in proptest::collection::vec((0i64..50, -100.0f64..100.0), 1..60)) {
        // make keys unique so construction succeeds
        pairs.sort_by_key(|(k, _)| *k);
        pairs.dedup_by_key(|(k, _)| *k);
        let fwd = CubeData::from_tuples(
            pairs.iter().map(|(k, v)| (vec![DimValue::Int(*k)], *v)).collect::<Vec<_>>(),
        )
        .unwrap();
        let rev = CubeData::from_tuples(
            pairs.iter().rev().map(|(k, v)| (vec![DimValue::Int(*k)], *v)).collect::<Vec<_>>(),
        )
        .unwrap();
        prop_assert_eq!(fwd, rev);
    }

    /// Serde round trip is lossless for arbitrary cube contents.
    #[test]
    fn cube_data_serde_round_trip(pairs in proptest::collection::btree_map(0i64..50, proptest::num::f64::NORMAL, 0..40)) {
        let data = CubeData::from_tuples(
            pairs.iter().map(|(k, v)| (vec![DimValue::Int(*k)], *v)).collect::<Vec<_>>(),
        )
        .unwrap();
        let json = serde_json::to_string(&data).unwrap();
        let back: CubeData = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(data, back);
    }

    /// Tuple-level operations agree with a `BTreeMap` model, step by
    /// step: inserts keep set semantics and reject conflicting measures
    /// (by bit pattern) with `FunctionalViolation` and no effect,
    /// overwrites and removes behave like the map's, probes — which build
    /// and then maintain the point index — never disturb later writes,
    /// and a clone taken at any point is untouched by every later write
    /// to the original (copy-on-write of batch and pool alike).
    #[test]
    fn cube_data_matches_a_btree_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut data = CubeData::new();
        let mut model: BTreeMap<DimTuple, f64> = BTreeMap::new();
        let mut snapshots: Vec<(CubeData, BTreeMap<DimTuple, u64>)> = Vec::new();
        for op in ops {
            match op {
                CubeOp::Insert(k, v) => {
                    let got = data.insert(k.clone(), v);
                    match model.get(&k) {
                        Some(old) if old.to_bits() != v.to_bits() => {
                            prop_assert!(
                                matches!(got, Err(ModelError::FunctionalViolation { .. })),
                                "{:?}", got
                            );
                        }
                        Some(_) => prop_assert!(got.is_ok()),
                        None => {
                            prop_assert!(got.is_ok());
                            model.insert(k, v);
                        }
                    }
                }
                CubeOp::Overwrite(k, v) => {
                    data.insert_overwrite(k.clone(), v);
                    model.insert(k, v);
                }
                CubeOp::Remove(k) => {
                    let got = data.remove(&k).map(f64::to_bits);
                    prop_assert_eq!(got, model.remove(&k).map(f64::to_bits));
                }
                CubeOp::Get(k) => {
                    let got = data.get(&k).map(f64::to_bits);
                    prop_assert_eq!(got, model.get(&k).map(|v| v.to_bits()));
                }
                CubeOp::Snapshot => snapshots.push((data.clone(), model_of(&data))),
            }
            prop_assert_eq!(data.len(), model.len());
        }
        let want: BTreeMap<DimTuple, u64> =
            model.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
        prop_assert_eq!(model_of(&data), want.clone());
        let sorted: Vec<(DimTuple, u64)> =
            data.iter_sorted().map(|(k, v)| (k, v.to_bits())).collect();
        prop_assert_eq!(sorted, want.into_iter().collect::<Vec<_>>());
        for (snap, at) in snapshots {
            prop_assert_eq!(model_of(&snap), at);
        }
    }
}
