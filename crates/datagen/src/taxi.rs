//! The NYC Taxi trip-record dataset (Figure 11's workload).
//!
//! Only the columns the experiment touches are generated: the selection runs
//! on `passenger_count` and inspection expands over `trip_distance`,
//! `PULocationID`, `DOLocationID` and `payment_type` (§6.6).

use crate::Prng;
use std::fmt::Write as _;

/// The five columns §6.6 inspects, in the order the experiment adds them.
pub const INSPECTED_COLUMNS: &[&str] = &[
    "passenger_count",
    "trip_distance",
    "PULocationID",
    "DOLocationID",
    "payment_type",
];

/// Generate `n` taxi rows.
pub fn taxi_csv(n: usize, seed: u64) -> String {
    let mut rng = Prng::new(seed ^ 0x7A71);
    let mut out = String::with_capacity(n * 48);
    out.push_str("VendorID,passenger_count,trip_distance,PULocationID,DOLocationID,payment_type,fare_amount\n");
    for _ in 0..n {
        let passengers = rng.weighted(&[0.72, 0.14, 0.06, 0.04, 0.03, 0.01]);
        let distance = (rng.unit() * 15.0 * rng.unit() + 0.3).max(0.1);
        let _ = writeln!(
            out,
            "{vendor},{passengers},{distance:.2},{pu},{dol},{pay},{fare:.2}",
            vendor = 1 + rng.below(2),
            pu = 1 + rng.below(265),
            dol = 1 + rng.below(265),
            pay = 1 + rng.weighted(&[0.7, 0.25, 0.03, 0.02]),
            fare = 2.5 + distance * 2.6 + rng.unit(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::{read_csv_str, CsvOptions};

    #[test]
    fn contains_inspected_columns() {
        let t = read_csv_str(&taxi_csv(10, 1), &CsvOptions::default()).unwrap();
        for col in INSPECTED_COLUMNS {
            assert!(t.columns.iter().any(|c| c == col), "{col}");
        }
    }

    #[test]
    fn selection_passenger_count_gt_1_is_selective() {
        let t = read_csv_str(&taxi_csv(5000, 2), &CsvOptions::default()).unwrap();
        let pc = t
            .columns
            .iter()
            .position(|c| c == "passenger_count")
            .unwrap();
        let kept = t
            .to_rows()
            .iter()
            .filter(|r| r[pc].as_i64().unwrap() > 1)
            .count();
        let fraction = kept as f64 / t.len() as f64;
        // Most rides are single-passenger; the filter keeps a minority.
        assert!(fraction > 0.05 && fraction < 0.5, "{fraction}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(taxi_csv(5, 9), taxi_csv(5, 9));
    }
}
