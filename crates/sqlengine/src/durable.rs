//! The two conversions between the engine's tables and the store's
//! row-shaped [`TableImage`]s: recovery and a cross-shard gather hand back
//! images, which are sealed into the engine's [`Table`] heap on load (ctid
//! order preserved, so a recovered engine reproduces ctid assignment
//! exactly — the paper's inspection joins are keyed on ctid), and a
//! cross-shard scatter exports tables as images.

use crate::storage::Table;
use elephant_store::TableImage;

/// Convert a recovered image into a live table (ctid order preserved): its
/// rows are appended in order, so full chunks are sealed on load and the
/// rest stays in the tail.
pub(crate) fn image_to_table(img: TableImage) -> Table {
    let mut table = Table::empty(img.name, img.columns, img.types);
    table.serial_next = img.serial_next;
    table.heap.extend(img.rows);
    table
}

/// Copy a live table into a snapshot image.
pub(crate) fn table_to_image(table: &Table) -> TableImage {
    TableImage {
        name: table.name.clone(),
        columns: table.columns.clone(),
        types: table.types.clone(),
        serial_next: table.serial_next.clone(),
        rows: table.heap.to_rows(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::{DataType, Value};

    #[test]
    fn image_round_trips_through_table() {
        let img = TableImage {
            name: "t".into(),
            columns: vec!["id".into(), "v".into()],
            types: vec![DataType::Serial, DataType::Text],
            serial_next: vec![(0, 4)],
            rows: vec![
                vec![Value::Int(1), Value::text("a")],
                vec![Value::Int(3), Value::Null],
            ],
        };
        let table = image_to_table(img.clone());
        assert_eq!(table.serial_next, vec![(0, 4)]);
        assert_eq!(table_to_image(&table), img);
    }
}
