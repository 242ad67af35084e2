//! The correctness gate for the serve workloads: after a run, answers
//! for a fixed probe set must be bit-identical to an in-process oracle
//! built from the final live set, which the client knows from its own
//! acked mutations.

use crate::ops::{products, sub_seed};
use crate::wire::{answer_bits, is_exact, query_line, response_bits, AnswerBits, Conn};
use skyup_geom::{PointId, PointStore};
use skyup_serve::{execute_query, CostSpec, Engine, EngineConfig, QueryRequest};
use std::collections::{BTreeMap, HashSet};

/// Probe queries sent after every run.
const PROBE_QUERIES: usize = 16;
const PROBE_PRODUCTS: usize = 4;
const PROBE_K: usize = 3;

/// The competitor set as the client knows it: the seeded rows (id =
/// row index) plus acked adds, minus acked removes.
#[derive(Default)]
pub struct LiveSet {
    pub adds: Vec<(u64, Vec<f64>)>,
    pub removed: HashSet<u64>,
}

impl LiveSet {
    pub fn absorb(&mut self, other: LiveSet) {
        self.adds.extend(other.adds);
        self.removed.extend(other.removed);
    }

    /// The oracle: a fresh engine over the live set, rows in id order —
    /// the order every server store keeps across compactions.
    pub fn oracle(&self, seeded: &PointStore) -> Result<Engine, String> {
        let mut rows: BTreeMap<u64, &[f64]> = seeded
            .ids()
            .map(|pid| (pid.index() as u64, seeded.point(pid)))
            .collect();
        for (cid, coords) in &self.adds {
            rows.insert(*cid, coords);
        }
        for cid in &self.removed {
            rows.remove(cid);
        }
        let mut store = PointStore::with_capacity(seeded.dims(), rows.len());
        let mut cid_of = Vec::with_capacity(rows.len());
        for (cid, coords) in &rows {
            store.push(coords);
            cid_of.push(*cid);
        }
        let next_cid = rows.keys().next_back().map_or(0, |c| c + 1);
        Engine::with_identified_competitors(store, cid_of, next_cid, EngineConfig::default())
            .map_err(|e| e.to_string())
    }
}

/// The fixed probe set for a seed.
pub fn probe_set(seed: u64) -> Vec<Vec<Vec<f64>>> {
    let pool = products(PROBE_QUERIES * PROBE_PRODUCTS, sub_seed(seed, "probes"));
    (0..PROBE_QUERIES)
        .map(|q| {
            (0..PROBE_PRODUCTS)
                .map(|i| {
                    pool.point(PointId((q * PROBE_PRODUCTS + i) as u32))
                        .to_vec()
                })
                .collect()
        })
        .collect()
}

/// Sends the probe set through `conn` and compares every answer with
/// the oracle's, bit for bit. Returns the number of probes that failed.
/// `corrupt` flips one bit of the first served answer before the
/// comparison — the negative case the gate must catch.
pub fn check_probes(
    conn: &mut Conn,
    oracle: &Engine,
    seed: u64,
    corrupt: bool,
) -> Result<u64, String> {
    let mut failures = 0;
    for (i, probe) in probe_set(seed).into_iter().enumerate() {
        let doc = conn.call(&query_line(&probe, PROBE_K))?;
        let mut served: AnswerBits = answer_bits(&doc)?;
        if corrupt && i == 0 {
            if let Some(first) = served.first_mut() {
                first.1 ^= 1;
            }
        }
        let want = execute_query(
            oracle,
            &QueryRequest {
                products: probe,
                k: PROBE_K,
                cost: CostSpec::default(),
                max_products: None,
                deadline: None,
            },
        )
        .map_err(|e| e.to_string())?;
        if !is_exact(&doc) || served != response_bits(&want) {
            failures += 1;
        }
    }
    Ok(failures)
}
