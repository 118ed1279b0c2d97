//! Order-insensitive digest of a result's rows: two row sets are taken as
//! equal when they hold the same multiset of rows, whatever their order.

use pgso_graphstore::PropertyValue;
use pgso_query::Row;

/// Row count plus the wrapping sum of per-row hashes. Summing (not xoring)
/// keeps duplicate rows visible: a row present twice does not cancel out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowDigest {
    pub rows: u64,
    pub sum: u64,
}

pub fn digest_rows(rows: &[Row]) -> RowDigest {
    let sum = rows.iter().fold(0u64, |acc, row| acc.wrapping_add(hash_row(row)));
    RowDigest { rows: rows.len() as u64, sum }
}

fn hash_row(row: &[PropertyValue]) -> u64 {
    let mut h = Fnv::new();
    h.write(&(row.len() as u64).to_le_bytes());
    for value in row {
        hash_value(&mut h, value);
    }
    // A final avalanche so that rows differing in one low bit do not sum to
    // collisions with simple permutations of other rows.
    let mut x = h.0;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

fn hash_value(h: &mut Fnv, value: &PropertyValue) {
    match value {
        PropertyValue::Null => h.write(&[0]),
        PropertyValue::Bool(b) => h.write(&[1, *b as u8]),
        PropertyValue::Int(v) => {
            h.write(&[2]);
            h.write(&v.to_le_bytes());
        }
        PropertyValue::Float(v) => {
            h.write(&[3]);
            h.write(&v.to_bits().to_le_bytes());
        }
        PropertyValue::Str(s) => {
            h.write(&[4]);
            h.write(&(s.len() as u64).to_le_bytes());
            h.write(s.as_bytes());
        }
        PropertyValue::List(items) => {
            h.write(&[5]);
            h.write(&(items.len() as u64).to_le_bytes());
            for item in items {
                hash_value(h, item);
            }
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Row {
        cells.iter().map(|c| PropertyValue::str(*c)).collect()
    }

    #[test]
    fn order_does_not_matter_but_content_and_multiplicity_do() {
        let a = vec![row(&["x", "1"]), row(&["y", "2"]), row(&["z", "3"])];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(digest_rows(&a), digest_rows(&b));

        let mut changed = a.clone();
        changed[1] = row(&["y", "9"]);
        assert_ne!(digest_rows(&a), digest_rows(&changed));

        let mut dup = a.clone();
        dup.push(row(&["x", "1"]));
        dup.push(row(&["x", "1"]));
        assert_ne!(digest_rows(&a).sum, digest_rows(&dup).sum, "duplicates must not cancel");

        // Cell boundaries matter: ["ab","c"] is not ["a","bc"].
        assert_ne!(digest_rows(&[row(&["ab", "c"])]), digest_rows(&[row(&["a", "bc"])]));
        // Types matter: Int(1) is not Str("1"), Null is not an empty list.
        assert_ne!(
            digest_rows(&[vec![PropertyValue::Int(1)]]),
            digest_rows(&[vec![PropertyValue::str("1")]])
        );
        assert_ne!(
            digest_rows(&[vec![PropertyValue::Null]]),
            digest_rows(&[vec![PropertyValue::List(vec![])]])
        );
        assert_eq!(digest_rows(&[]), RowDigest { rows: 0, sum: 0 });
    }
}
