//! `read_csv` — the frame constructor every pipeline starts with.

use crate::error::Result;
use crate::frame::DataFrame;
use crate::series::Series;
use etypes::CsvOptions;
use std::path::Path;

/// pandas `pd.read_csv(path, na_values=...)`.
pub fn read_csv(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<DataFrame> {
    let table = etypes::read_csv(path, opts)?;
    from_table(table)
}

/// Same as [`read_csv`] but from in-memory text (tests, generated data).
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<DataFrame> {
    let table = etypes::read_csv_str(text, opts)?;
    from_table(table)
}

fn from_table(table: etypes::CsvTable) -> Result<DataFrame> {
    let series = (0..table.columns.len())
        .map(|c| Series::new(table.columns[c].clone(), table.column_values(c)))
        .collect();
    DataFrame::from_columns(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::{DataType, Value};

    #[test]
    fn reads_typed_frame() {
        let df = read_csv_str(
            "age,income,county\n34,1000.5,county1\n40,,county2\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(df.len(), 2);
        assert_eq!(df.column("age").unwrap().dtype(), DataType::Int);
        assert_eq!(df.column("income").unwrap().values()[1], Value::Null);
    }

    #[test]
    fn na_values_question_mark() {
        let df = read_csv_str(
            "smoker,complications\n?,3\nyes,2\n",
            &CsvOptions::default().with_na("?"),
        )
        .unwrap();
        assert_eq!(df.column("smoker").unwrap().values()[0], Value::Null);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("be_df_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, "a,b\n1,x\n2,y\n").unwrap();
        let df = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(df.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
