//! The compas dataset (recidivism scores).
//!
//! Matches the mlinspect convention: the first column is an unnamed pandas
//! row number (the header has one fewer field than the rows — paper §6).
//! Only the columns the compas pipeline touches get realistic behaviour; the
//! remaining Table 2 columns are filled with plausible constants.

use crate::Prng;
use std::fmt::Write as _;

const RACES: &[&str] = &[
    "African-American",
    "Caucasian",
    "Hispanic",
    "Other",
    "Asian",
];
const RACE_WEIGHTS: &[f64] = &[0.45, 0.35, 0.1, 0.07, 0.03];
const SCORE_TEXTS: &[&str] = &["Low", "Medium", "High", "N/A"];
const CHARGE_DEGREES: &[&str] = &["F", "M", "O"];
const SEXES: &[&str] = &["Male", "Female"];

/// Generate `n` compas rows. Score correlates with priors/age so a trained
/// model has signal; ~8% of `is_recid` values are the `-1` sentinel and a
/// few `days_b_screening_arrest` fall outside ±30, both filtered by the
/// pipeline.
pub fn compas_csv(n: usize, seed: u64) -> String {
    let mut rng = Prng::new(seed ^ 0xC0FFEE);
    let mut out = String::with_capacity(n * 128);
    out.push_str(
        "sex,dob,age,c_charge_degree,race,score_text,priors_count,days_b_screening_arrest,decile_score,is_recid,two_year_recid,c_jail_in,c_jail_out\n",
    );
    for i in 0..n {
        let age = 18 + rng.below(60) as i64;
        let priors = rng.below(15) as i64;
        // The compas pipeline's features are is_recid (one-hot) and age
        // (binned); drive the score mostly from those two so the logistic
        // regression reaches paper-like accuracy (Table 5: compas ≈ 0.81).
        let is_recid: i64 = if rng.chance(0.08) {
            -1
        } else {
            rng.chance((priors as f64 / 15.0).clamp(0.1, 0.9)) as i64
        };
        let risk = 0.55 * (is_recid == 1) as i64 as f64
            + 0.35 * (60 - (age - 18)) as f64 / 60.0
            + 0.10 * priors as f64 / 15.0;
        let score_idx = if rng.chance(0.05) {
            3 // N/A, filtered out
        } else if risk + (rng.unit() - 0.5) * 0.95 > 0.62 {
            2
        } else if risk + (rng.unit() - 0.5) * 0.95 > 0.45 {
            1
        } else {
            0
        };
        let days = if rng.chance(0.07) {
            (rng.below(300) as i64) - 150
        } else {
            (rng.below(61) as i64) - 30
        };
        let decile = 1 + ((risk * 10.0) as i64).clamp(0, 9);
        let _ = writeln!(
            out,
            "{i},{sex},{dob},{age},{degree},{race},{score},{priors},{days},{decile},{is_recid},{two_year},2013-01-01 06:00:00,2013-01-03 06:00:00",
            sex = SEXES[rng.below(2)],
            dob = format_args!("19{:02}-01-15", 90 - rng.below(60)),
            degree = CHARGE_DEGREES[rng.weighted(&[0.6, 0.38, 0.02])],
            race = RACES[rng.weighted(RACE_WEIGHTS)],
            score = SCORE_TEXTS[score_idx],
            two_year = (is_recid == 1 && rng.chance(0.8)) as i64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::{read_csv_str, CsvOptions};

    #[test]
    fn leading_row_number_column_is_headerless() {
        let t = read_csv_str(&compas_csv(20, 1), &CsvOptions::default().with_na("?")).unwrap();
        assert_eq!(t.columns[0], "index_");
        assert_eq!(t.columns[1], "sex");
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn contains_filterable_sentinels() {
        let csv = compas_csv(2000, 3);
        assert!(csv.contains(",N/A,"));
        assert!(csv.contains(",-1,"));
    }

    #[test]
    fn score_correlates_with_priors() {
        let t = read_csv_str(&compas_csv(3000, 5), &CsvOptions::default()).unwrap();
        let score_i = t.columns.iter().position(|c| c == "score_text").unwrap();
        let priors_i = t.columns.iter().position(|c| c == "priors_count").unwrap();
        let mean_priors = |label: &str| -> f64 {
            let rows: Vec<i64> = t
                .to_rows()
                .iter()
                .filter(|r| r[score_i] == label.into())
                .map(|r| r[priors_i].as_i64().unwrap())
                .collect();
            rows.iter().sum::<i64>() as f64 / rows.len().max(1) as f64
        };
        assert!(mean_priors("High") > mean_priors("Low"));
    }

    #[test]
    fn deterministic() {
        assert_eq!(compas_csv(10, 9), compas_csv(10, 9));
    }
}
