//! Quickstart: write an EXL program, feed it cube data, read the results.
//!
//! Run with `cargo run -p exl-examples --example quickstart`.

use exl_lang::{analyze, parse_program};
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset, TimePoint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. a statistical program: quarterly revenue per store, the chain
    //    total, its trend, and the quarter-on-quarter percentage change
    let source = r#"
        cube REVENUE(q: time[quarter], store: text) -> v;
        TOTAL := sum(REVENUE, group by q);
        TREND := stl_trend(TOTAL);
        PCHNG := 100 * (TREND - shift(TREND, 1)) / TREND;
    "#;
    let program = parse_program(source)?;
    let analyzed = analyze(&program, &[])?;
    println!(
        "program:\n{}",
        exl_lang::program_to_string(&analyzed.program)
    );

    // 2. elementary data: three years of quarterly revenue for two stores
    let mut revenue = CubeData::new();
    for qi in 0..12u32 {
        let q = TimePoint::Quarter {
            year: 2022 + (qi / 4) as i32,
            quarter: qi % 4 + 1,
        };
        let season = [10.0, -4.0, -8.0, 12.0][qi as usize % 4];
        for (store, base) in [("rome", 100.0), ("milan", 140.0)] {
            revenue.insert(
                vec![DimValue::Time(q), DimValue::str(store)],
                base + qi as f64 * 3.0 + season,
            )?;
        }
    }
    let mut input = Dataset::new();
    input.put(Cube::new(
        analyzed.schemas[&"REVENUE".into()].clone(),
        revenue,
    ));

    // 3. run and inspect
    let output = exl_eval::run_program(&analyzed, &input)?;
    println!("PCHNG (quarter-on-quarter trend change, %):");
    for (key, value) in output.data(&"PCHNG".into()).unwrap().iter_sorted() {
        println!("  {} -> {value:.3}", exl_model::format_tuple(&key));
    }

    // the trend smooths the seasonal swings: its changes are small and
    // positive for this upward-trending input
    let pchng = output.data(&"PCHNG".into()).unwrap();
    assert!(pchng.iter().all(|(_, v)| v > 0.0 && v < 10.0));
    println!("ok: trend rises smoothly despite ±12 seasonal swings");
    Ok(())
}
