//! The adult (census income) dataset.
//!
//! Same conventions as the UCI file used by mlinspect: headerless leading
//! row-number column, `?` for missing workclass/occupation, label column
//! `income-per-year` with classes `>50K` / `<=50K`.

use crate::Prng;
use std::fmt::Write as _;

const WORKCLASSES: &[&str] = &[
    "Private",
    "Self-emp-not-inc",
    "Local-gov",
    "State-gov",
    "Federal-gov",
];
const EDUCATIONS: &[&str] = &[
    "HS-grad",
    "Some-college",
    "Bachelors",
    "Masters",
    "Doctorate",
    "11th",
];
const EDU_YEARS: &[i64] = &[9, 10, 13, 14, 16, 7];
const MARITAL: &[&str] = &["Married-civ-spouse", "Never-married", "Divorced"];
const OCCUPATIONS: &[&str] = &[
    "Tech-support",
    "Craft-repair",
    "Sales",
    "Exec-managerial",
    "Prof-specialty",
];
const RELATIONSHIPS: &[&str] = &["Husband", "Wife", "Own-child", "Not-in-family"];
const RACES: &[&str] = &[
    "White",
    "Black",
    "Asian-Pac-Islander",
    "Amer-Indian-Eskimo",
    "Other",
];
const RACE_WEIGHTS: &[f64] = &[0.85, 0.09, 0.03, 0.02, 0.01];
const SEXES: &[&str] = &["Male", "Female"];
const COUNTRIES: &[&str] = &["United-States", "Mexico", "Philippines", "Germany"];

/// Generate `n` adult rows. Income correlates with education, age and hours
/// so both adult pipelines train a meaningful classifier; ~6% of workclass /
/// occupation entries are `?`.
pub fn adult_csv(n: usize, seed: u64) -> String {
    let mut rng = Prng::new(seed ^ 0xAD01);
    let mut out = String::with_capacity(n * 128);
    out.push_str(
        "age,workclass,fnlwgt,education,education-num,marital-status,occupation,relationship,race,sex,capital-gain,capital-loss,hours-per-week,native-country,income-per-year\n",
    );
    for i in 0..n {
        let age = 17 + rng.below(62) as i64;
        let edu = rng.weighted(&[0.32, 0.26, 0.22, 0.12, 0.04, 0.04]);
        let hours = 20 + rng.below(50) as i64;
        // ~25% positive class (like the real adult dataset) with a steep
        // logit in the numeric features, so adult-simple's logistic
        // regression lands near the paper's 0.8779 accuracy.
        let signal = EDU_YEARS[edu] as f64 / 16.0 * 0.5
            + (age as f64 - 17.0) / 62.0 * 0.25
            + hours as f64 / 70.0 * 0.25;
        let rich = rng.chance(((signal - 0.62) * 6.0 + 0.25).clamp(0.02, 0.98));
        let workclass = if rng.chance(0.06) {
            "?".to_string()
        } else {
            WORKCLASSES[rng.below(WORKCLASSES.len())].to_string()
        };
        let occupation = if rng.chance(0.06) {
            "?".to_string()
        } else {
            OCCUPATIONS[rng.below(OCCUPATIONS.len())].to_string()
        };
        let _ = writeln!(
            out,
            "{i},{age},{workclass},{fnlwgt},{education},{edu_num},{marital},{occupation},{rel},{race},{sex},{gain},{loss},{hours},{country},{income}",
            fnlwgt = 10_000 + rng.below(900_000),
            education = EDUCATIONS[edu],
            edu_num = EDU_YEARS[edu],
            marital = MARITAL[rng.below(MARITAL.len())],
            rel = RELATIONSHIPS[rng.below(RELATIONSHIPS.len())],
            race = RACES[rng.weighted(RACE_WEIGHTS)],
            sex = SEXES[rng.weighted(&[0.67, 0.33])],
            gain = if rng.chance(0.08) { rng.below(20_000) } else { 0 },
            loss = if rng.chance(0.05) { rng.below(2_000) } else { 0 },
            country = COUNTRIES[rng.weighted(&[0.9, 0.05, 0.03, 0.02])],
            income = if rich { ">50K" } else { "<=50K" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::{read_csv_str, CsvOptions};

    #[test]
    fn schema_matches_table2() {
        let t = read_csv_str(&adult_csv(10, 1), &CsvOptions::default().with_na("?")).unwrap();
        assert_eq!(t.columns[0], "index_");
        assert!(t.columns.iter().any(|c| c == "income-per-year"));
        assert!(t.columns.iter().any(|c| c == "hours-per-week"));
        assert_eq!(t.columns.len(), 16);
    }

    #[test]
    fn income_correlates_with_education() {
        let t = read_csv_str(&adult_csv(5000, 2), &CsvOptions::default().with_na("?")).unwrap();
        let edu_i = t.columns.iter().position(|c| c == "education-num").unwrap();
        let inc_i = t
            .columns
            .iter()
            .position(|c| c == "income-per-year")
            .unwrap();
        let rich_rate = |min_edu: i64| -> f64 {
            let rows: Vec<bool> = t
                .to_rows()
                .iter()
                .filter(|r| r[edu_i].as_i64().unwrap() >= min_edu)
                .map(|r| r[inc_i] == ">50K".into())
                .collect();
            rows.iter().filter(|b| **b).count() as f64 / rows.len().max(1) as f64
        };
        assert!(rich_rate(14) > rich_rate(0));
    }

    #[test]
    fn has_missing_markers() {
        assert!(adult_csv(2000, 3).contains(",?,"));
    }

    #[test]
    fn deterministic() {
        assert_eq!(adult_csv(10, 4), adult_csv(10, 4));
    }
}
