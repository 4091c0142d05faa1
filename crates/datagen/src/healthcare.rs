//! The healthcare dataset: `patients.csv` + `histories.csv`.
//!
//! Schema (Table 2): patients {id, first_name, last_name, race, county,
//! num_children, income, age_group, ssn}, histories {smoker, complications,
//! ssn}; sensitive columns are `race` and `age_group`; `?` marks NULLs.

use crate::Prng;
use std::fmt::Write as _;

const FIRST_NAMES: &[&str] = &[
    "alice", "bob", "carol", "dan", "erin", "frank", "grace", "heidi", "ivan", "judy",
];
const LAST_NAMES: &[&str] = &[
    "smith", "jones", "lee", "brown", "garcia", "miller", "davis", "wilson", "moore", "taylor",
];
/// Race distribution is intentionally skewed so county filters can introduce
/// measurable bias (Figure 3's example).
const RACES: &[&str] = &["race1", "race2", "race3"];
const RACE_WEIGHTS: &[f64] = &[0.45, 0.35, 0.20];
const COUNTIES: &[&str] = &["county1", "county2", "county3", "county4"];
const AGE_GROUPS: &[&str] = &["age_group1", "age_group2", "age_group3"];

/// Generate `n` rows of `patients.csv`. Counties correlate with race and age
/// group, so the pipeline's `isin(COUNTIES_OF_INTEREST)` selection shifts
/// both sensitive ratios — the technical bias the paper inspects.
pub fn patients_csv(n: usize, seed: u64) -> String {
    let mut rng = Prng::new(seed ^ 0xABCD);
    let mut out = String::with_capacity(n * 64);
    out.push_str("id,first_name,last_name,race,county,num_children,income,age_group,ssn\n");
    for i in 0..n {
        let race = rng.weighted(RACE_WEIGHTS);
        // County skew: race3 and age_group1 concentrate in county1, which the
        // pipeline filters away.
        let county = if race == 2 && rng.chance(0.6) {
            0
        } else {
            rng.below(COUNTIES.len())
        };
        let age_group = if county == 0 && rng.chance(0.5) {
            0
        } else {
            rng.below(AGE_GROUPS.len())
        };
        // income stays non-null: the pipeline feeds it to StandardScaler
        // without imputation (nulls live in the imputed `smoker` column).
        let num_children = rng.below(5);
        let income: String = format!("{}", 20_000 + rng.below(120_000));
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},ssn{}",
            i,
            FIRST_NAMES[rng.below(FIRST_NAMES.len())],
            LAST_NAMES[rng.below(LAST_NAMES.len())],
            RACES[race],
            COUNTIES[county],
            num_children,
            income,
            AGE_GROUPS[age_group],
            i,
        );
    }
    out
}

/// Generate `n` rows of `histories.csv` whose `ssn` values join `patients`.
/// ~5% of smoker entries are `?` (the imputed column). Complications are
/// strongly driven by smoking so the trained model has signal: the pipeline
/// predicts `complications > 1.2 * mean_complications(age_group)` from
/// features including the imputed smoker flag, giving paper-like accuracies
/// (Table 5: healthcare ≈ 0.9).
pub fn histories_csv(n: usize, seed: u64) -> String {
    let mut rng = Prng::new(seed ^ 0x1234);
    let mut out = String::with_capacity(n * 24);
    out.push_str("smoker,complications,ssn\n");
    for i in 0..n {
        let is_smoker = rng.chance(0.3);
        let smoker = if rng.chance(0.05) {
            "?"
        } else if is_smoker {
            "yes"
        } else {
            "no"
        };
        // ~85% signal with overlap, so accuracy lands near the paper's 0.9.
        let complications = if is_smoker == rng.chance(0.88) {
            3 + rng.below(3) // 3..=5
        } else {
            rng.below(3) // 0..=2
        };
        let _ = writeln!(out, "{smoker},{complications},ssn{i}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::{read_csv_str, CsvOptions};

    #[test]
    fn schema_matches_table2() {
        let t = read_csv_str(&patients_csv(50, 1), &CsvOptions::default().with_na("?")).unwrap();
        assert_eq!(
            t.columns,
            vec![
                "id",
                "first_name",
                "last_name",
                "race",
                "county",
                "num_children",
                "income",
                "age_group",
                "ssn"
            ]
        );
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn histories_join_patients_on_ssn() {
        let p = read_csv_str(&patients_csv(30, 7), &CsvOptions::default().with_na("?")).unwrap();
        let h = read_csv_str(&histories_csv(30, 7), &CsvOptions::default().with_na("?")).unwrap();
        let ssn_p = p.columns.iter().position(|c| c == "ssn").unwrap();
        let ssn_h = h.columns.iter().position(|c| c == "ssn").unwrap();
        for (pr, hr) in p.to_rows().iter().zip(&h.to_rows()) {
            assert_eq!(pr[ssn_p], hr[ssn_h]);
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        assert_eq!(patients_csv(20, 5), patients_csv(20, 5));
        assert_ne!(patients_csv(20, 5), patients_csv(20, 6));
    }

    #[test]
    fn contains_nulls_marked_with_question_mark() {
        let csv = histories_csv(500, 2);
        assert!(csv.lines().any(|l| l.starts_with("?,")));
    }
}
