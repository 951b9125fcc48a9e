//! What the clients were told, and the output checks built on it.
//!
//! Every table is written by exactly one closed-loop client, so the model
//! of a table is exact: an acknowledged transaction's rows and update are
//! in it; a failed one is remembered as "may or may not have happened".

use harbor_common::{Tuple, Value};
use harbor_workload::paper_row;
use std::collections::{HashMap, HashSet};

/// Bytes of one row's user fields (`TableSpec::paper_table`: an i64 key
/// and 13 i32 payload fields), the base of `space_amp`.
pub const USER_ROW_BYTES: u64 = 8 + 13 * 4;

/// Column of the key in a stored tuple (the version pair comes first).
pub const ID_COL: usize = 2;

/// splitmix64: the benchmark's only source of randomness, seeded from the
/// command line.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The value a fresh row carries in field `f0`.
fn paper_f0(id: i64) -> i32 {
    match paper_row(id)[1] {
        Value::Int32(v) => v,
        _ => unreachable!("paper rows carry i32 payload fields"),
    }
}

/// One table as its writer was told it is.
pub struct TableModel {
    pub name: String,
    /// Key -> last acknowledged value of `f0`.
    acked: HashMap<i64, i32>,
    /// Acknowledged keys in insertion order, for the seeded update choice.
    acked_ids: Vec<i64>,
    /// Keys whose insert failed: present or absent are both allowed.
    maybe_ids: HashSet<i64>,
    /// `f0` values written by failed updates.
    maybe_vals: HashMap<i64, Vec<i32>>,
}

impl TableModel {
    /// A table prefilled with keys `0..rows`.
    pub fn prefilled(name: &str, rows: i64) -> Self {
        TableModel {
            name: name.to_string(),
            acked: (0..rows).map(|id| (id, paper_f0(id))).collect(),
            acked_ids: (0..rows).collect(),
            maybe_ids: HashSet::new(),
            maybe_vals: HashMap::new(),
        }
    }

    /// A seeded pick among the acknowledged keys.
    pub fn pick_key(&self, rng: &mut Rng) -> i64 {
        self.acked_ids[rng.below(self.acked_ids.len() as u64) as usize]
    }

    /// Records the outcome of a transaction that inserted `ids` and set
    /// `f0 = val` on `key`.
    pub fn record(&mut self, ids: &[i64], key: i64, val: i32, acked: bool) {
        if acked {
            for &id in ids {
                self.acked.insert(id, paper_f0(id));
                self.acked_ids.push(id);
            }
            self.acked.insert(key, val);
        } else {
            self.maybe_ids.extend(ids);
            self.maybe_vals.entry(key).or_default().push(val);
        }
    }
}

/// Row count and an order-independent checksum of one replica's table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub checksum: u64,
}

fn user_i64(t: &Tuple, col: usize) -> Result<i64, String> {
    t.get(col)
        .as_i64()
        .map_err(|e| format!("column {col}: {e}"))
}

/// Fields `f1..f12` must be exactly the row's generated payload.
fn check_payload(t: &Tuple, id: i64) -> Result<(), String> {
    let want = paper_row(id);
    if t.len() != want.len() + 2 || t.values()[ID_COL + 2..] != want[2..] {
        return Err(format!("key {id}: payload f1..f12 differs from paper_row"));
    }
    Ok(())
}

/// Checks one replica's visible rows against the model: no key twice,
/// acked keys ⊆ visible keys ⊆ attempted keys, every `f0` the last acked
/// value (or one a failed update may have written), `f1..f12` untouched.
///
/// A failure names the key it found wrong.
pub fn check_replica(model: &TableModel, rows: &[Tuple]) -> Result<Digest, (i64, String)> {
    let mut seen = HashSet::with_capacity(rows.len());
    let mut checksum = 0u64;
    for t in rows {
        let id = user_i64(t, ID_COL).map_err(|e| (-1, e))?;
        let fail = |e: String| (id, format!("{}: {e}", model.name));
        let f0 = user_i64(t, ID_COL + 1).map_err(fail)? as i32;
        if !seen.insert(id) {
            return Err(fail(format!("key {id} visible twice")));
        }
        check_payload(t, id).map_err(fail)?;
        let maybe = model.maybe_vals.get(&id);
        let ok = match model.acked.get(&id) {
            Some(&v) => v == f0 || maybe.is_some_and(|m| m.contains(&f0)),
            None if model.maybe_ids.contains(&id) => {
                f0 == paper_f0(id) || maybe.is_some_and(|m| m.contains(&f0))
            }
            None => return Err(fail(format!("phantom key {id}"))),
        };
        if !ok {
            return Err(fail(format!(
                "key {id} holds f0={f0}, last acked {:?}",
                model.acked.get(&id)
            )));
        }
        checksum = checksum.wrapping_add(Rng::new(id as u64, f0 as u64).next_u64());
    }
    if let Some(&id) = model.acked.keys().find(|id| !seen.contains(id)) {
        return Err((id, format!("{}: acked key {id} is not visible", model.name)));
    }
    Ok(Digest {
        rows: rows.len() as u64,
        checksum,
    })
}

/// A range query over keys `lo..hi` must return exactly one version of
/// each key, with `f1..f12` as generated.
pub fn check_query(rows: &[Tuple], lo: i64, hi: i64) -> Result<(), String> {
    let mut ids = Vec::with_capacity(rows.len());
    for t in rows {
        let id = user_i64(t, ID_COL)?;
        check_payload(t, id)?;
        ids.push(id);
    }
    ids.sort_unstable();
    if ids.len() as i64 != hi - lo || ids.iter().zip(lo..).any(|(&a, b)| a != b) {
        return Err(format!(
            "query [{lo}, {hi}) returned {} rows, not one version of each key",
            rows.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::Timestamp;

    fn stored(id: i64, f0: i32) -> Tuple {
        let mut user = paper_row(id);
        user[1] = Value::Int32(f0);
        Tuple::versioned(Timestamp(1), Timestamp::ZERO, user)
    }

    #[test]
    fn replica_check_accepts_exactly_the_model() {
        let mut m = TableModel::prefilled("t", 3);
        m.record(&[10], 1, 77, true);
        m.record(&[11], 2, 88, false);
        let rows = vec![
            stored(0, paper_f0(0)),
            stored(1, 77),
            stored(2, paper_f0(2)),
            stored(10, paper_f0(10)),
        ];
        let d = check_replica(&m, &rows).unwrap();
        assert_eq!(d.rows, 4);
        // The failed transaction may have landed too.
        let mut landed = rows.clone();
        landed[2] = stored(2, 88);
        landed.push(stored(11, paper_f0(11)));
        assert!(check_replica(&m, &landed).is_ok());
        // Stale value, missing acked key, phantom, duplicate.
        let mut stale = rows.clone();
        stale[1] = stored(1, paper_f0(1));
        assert!(check_replica(&m, &stale).is_err());
        assert!(check_replica(&m, &rows[..3]).is_err());
        let mut phantom = rows.clone();
        phantom.push(stored(12, paper_f0(12)));
        assert!(check_replica(&m, &phantom).is_err());
        let mut dup = rows.clone();
        dup.push(stored(0, paper_f0(0)));
        assert!(check_replica(&m, &dup).is_err());
    }

    #[test]
    fn query_check_wants_one_version_per_key() {
        let rows: Vec<Tuple> = (5..8).map(|id| stored(id, -1)).collect();
        assert!(check_query(&rows, 5, 8).is_ok());
        assert!(check_query(&rows[..2], 5, 8).is_err());
        let mut twice = rows.clone();
        twice.push(stored(6, 3));
        assert!(check_query(&twice, 5, 8).is_err());
        let mut bad = rows.clone();
        bad[0].set(ID_COL + 5, Value::Int32(0));
        assert!(check_query(&bad, 5, 8).is_err());
    }

    #[test]
    fn seeded_rng_repeats() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.below(1000)
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.below(1000)
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
