//! Wide synthetic cubes: one native subgraph whose *data* is wide.
//!
//! The `wide` benchmark workload needs millions of rows across a
//! high-cardinality text dimension rather than a program that is deep
//! or broad. [`wide_scenario`] builds a single `(q: time[quarter],
//! r: text)` cube of `regions × quarters` rows plus a short row-wise
//! statement chain and two per-region series over it, optionally capped
//! by one aggregation that drops `r`, so interning, fused kernels,
//! series, aggregation and materialization are all on the measured
//! route.

use exl_lang::analyze::{analyze, AnalyzedProgram};
use exl_lang::parser::parse_program;
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset, TimePoint};

/// Shape of a wide-cube scenario.
#[derive(Debug, Clone, Copy)]
pub struct WideConfig {
    /// Cardinality of the text dimension `r` (one series per region).
    pub regions: usize,
    /// Length of the quarterly series per region.
    pub quarters: usize,
    /// Deterministic value jitter seed.
    pub seed: u64,
    /// Append `T := sum(C, group by q)` — an aggregation dropping `r`.
    pub barrier: bool,
}

impl Default for WideConfig {
    fn default() -> Self {
        WideConfig {
            regions: 100,
            quarters: 40,
            seed: 7,
            barrier: true,
        }
    }
}

/// The program text: a row-wise chain plus two per-region series over
/// the wide cube, optionally capped by a cross-region aggregation.
///
/// The series statements (`movavg`) run one slice per region, so a
/// revision of one region's observations touches one slice of each.
pub fn wide_program(barrier: bool) -> String {
    let mut src = String::from(
        "cube W(q: time[quarter], r: text) -> v;\n\
         A := 2 * W + 1;\n\
         B := A - W;\n\
         C := B / 3 + A;\n\
         S := movavg(C, 3);\n\
         M := movavg(A, 2);\n",
    );
    if barrier {
        src.push_str("T := sum(C, group by q);\n");
    }
    src
}

/// The analyzed wide program plus `regions × quarters` rows of strictly
/// positive data, deterministic in `(seed, region, quarter)`.
pub fn wide_scenario(cfg: WideConfig) -> (AnalyzedProgram, Dataset) {
    let src = wide_program(cfg.barrier);
    let analyzed = analyze(&parse_program(&src).expect("wide parses"), &[]).expect("wide analyzes");
    let mut data = CubeData::new();
    for ri in 0..cfg.regions {
        let region = DimValue::Str(format!("r{ri:05}").into());
        for qi in 0..cfg.quarters {
            // cheap deterministic jitter: a splitmix-style scramble of
            // (seed, ri, qi), folded to [0, 1)
            let mut z = cfg.seed.wrapping_add(
                0x9e37_79b9_7f4a_7c15u64.wrapping_mul((ri * cfg.quarters + qi) as u64 + 1),
            );
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let jitter = ((z >> 11) as f64) / ((1u64 << 53) as f64);
            data.insert_overwrite(
                vec![
                    DimValue::Time(TimePoint::Quarter {
                        year: 2000 + (qi / 4) as i32,
                        quarter: (qi % 4 + 1) as u32,
                    }),
                    region.clone(),
                ],
                10.0 + ri as f64 * 0.01 + qi as f64 * 0.5 + jitter,
            );
        }
    }
    let mut ds = Dataset::new();
    ds.put(Cube::new(analyzed.schemas[&"W".into()].clone(), data));
    (analyzed, ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_runs_and_has_the_advertised_shape() {
        let cfg = WideConfig {
            regions: 20,
            quarters: 8,
            seed: 1,
            barrier: true,
        };
        let (analyzed, ds) = wide_scenario(cfg);
        assert_eq!(ds.data(&"W".into()).unwrap().len(), 20 * 8);
        let out = exl_eval::run_program(&analyzed, &ds).unwrap();
        assert_eq!(out.data(&"C".into()).unwrap().len(), 20 * 8);
        // the barrier drops the region dimension
        assert_eq!(out.data(&"T".into()).unwrap().len(), 8);
    }

    #[test]
    fn wide_is_deterministic_in_the_seed() {
        let cfg = WideConfig::default();
        let (_, a) = wide_scenario(cfg);
        let (_, b) = wide_scenario(cfg);
        assert_eq!(a.data(&"W".into()), b.data(&"W".into()));
        let (_, c) = wide_scenario(WideConfig { seed: 8, ..cfg });
        assert_ne!(a.data(&"W".into()), c.data(&"W".into()));
    }
}
