//! Seasonal adjustment — the bread-and-butter workload the paper's STL
//! operator exists for: monthly retail sales per region are aggregated,
//! seasonally adjusted (sales − seasonal component), and summarized as
//! year-over-year growth of the adjusted series.
//!
//! Run with `cargo run -p exl-examples --example seasonal_adjustment`.

use exl_lang::{analyze, parse_program};
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset, TimePoint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        cube SALES(mo: time[month], r: text) -> s;

        # national monthly sales
        TOTAL := sum(SALES, group by mo);

        # seasonal adjustment: subtract the seasonal component
        SEAS  := stl_seasonal(TOTAL);
        ADJ   := TOTAL - SEAS;

        # year-over-year growth of the adjusted series, in percent
        YOY   := 100 * (ADJ - shift(ADJ, 12)) / shift(ADJ, 12);

        # annual totals of the raw series for cross-checking
        ANNUAL := sum(TOTAL, group by year(mo) as y);
    "#;
    let analyzed = analyze(&parse_program(source)?, &[])?;

    // five years of monthly data with strong December peaks
    let mut sales = CubeData::new();
    for ym in 0..60u32 {
        let (year, month) = (2020 + (ym / 12) as i32, ym % 12 + 1);
        let season = match month {
            12 => 40.0,
            11 => 15.0,
            1 => -20.0,
            7 | 8 => -10.0,
            _ => 0.0,
        };
        for (region, base) in [("north", 100.0), ("south", 80.0)] {
            sales.insert(
                vec![
                    DimValue::Time(TimePoint::Month { year, month }),
                    DimValue::str(region),
                ],
                base + ym as f64 * 0.8 + season,
            )?;
        }
    }
    let mut input = Dataset::new();
    input.put(Cube::new(analyzed.schemas[&"SALES".into()].clone(), sales));

    let out = exl_eval::run_program(&analyzed, &input)?;

    // the adjusted series should be much smoother than the raw one:
    // compare month-over-month variability
    let swing = |id: &str| -> f64 {
        let cube = out.data(&id.into()).unwrap();
        let vals: Vec<f64> = cube.iter_sorted().map(|(_, v)| v).collect();
        vals.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (vals.len() - 1) as f64
    };
    let raw_swing = swing("TOTAL");
    let adj_swing = swing("ADJ");
    println!("mean month-over-month move: raw {raw_swing:.2}, adjusted {adj_swing:.2}");
    assert!(
        adj_swing < raw_swing / 3.0,
        "adjustment should remove most of the seasonal swing"
    );

    // YoY growth of the adjusted series hovers around the true trend
    // (0.8 × 2 regions × 12 months on a ~430 base ≈ 4–6 %/yr)
    println!("\nYoY growth of seasonally adjusted sales (%):");
    let yoy = out.data(&"YOY".into()).unwrap();
    for (k, v) in yoy.iter_sorted().take(6) {
        println!("  {} -> {v:+.2}", exl_model::format_tuple(&k));
    }
    for (_, v) in yoy.iter() {
        assert!(v > 0.0 && v < 15.0, "implausible growth {v}");
    }

    let annual = out.data(&"ANNUAL".into()).unwrap();
    println!("\nannual raw totals:");
    for (k, v) in annual.iter_sorted() {
        println!("  {} -> {v:.0}", exl_model::format_tuple(&k));
    }
    assert_eq!(annual.len(), 5);
    println!("\nok: seasonal adjustment pipeline complete");
    Ok(())
}
