//! Seeded operation streams for the serve workloads.
//!
//! Each connection draws from its own stream, seeded from the workload
//! seed and the connection index, and owns the competitors it may
//! remove. Streams never depend on the other connection's progress, so
//! the same seed yields the same per-connection sequence of requests
//! whatever the interleaving, and no request can fail for a reason the
//! workload chose.

use skyup_data::rng::Rng;
use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_geom::PointStore;
use std::collections::VecDeque;
use std::sync::Arc;

pub const DIMS: usize = 3;

/// One request a connection sends.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Query { products: Vec<Vec<f64>>, k: usize },
    Add(Vec<f64>),
    Remove(u64),
}

impl Op {
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. })
    }

    pub fn line(&self) -> String {
        match self {
            Op::Query { products, k } => crate::wire::query_line(products, *k),
            Op::Add(p) => crate::wire::add_line(p),
            Op::Remove(cid) => crate::wire::remove_line(*cid),
        }
    }
}

/// Competitors: anti-correlated points on the unit cube, the paper's
/// hardest setting (large skylines).
pub fn competitors(n: usize, seed: u64) -> PointStore {
    generate(
        n,
        &SyntheticConfig::unit(DIMS, Distribution::AntiCorrelated, seed),
    )
}

/// Uncompetitive products: independent points on `[0.3, 1.3]³`, so
/// most of them have dominators and a positive upgrade cost.
pub fn products(n: usize, seed: u64) -> PointStore {
    generate(
        n,
        &SyntheticConfig {
            dims: DIMS,
            distribution: Distribution::Independent,
            lo: 0.3,
            hi: 1.3,
            seed,
        },
    )
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed for one purpose of one workload run.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    purpose
        .bytes()
        .fold(mix(seed, 0x5eed), |acc, b| mix(acc, u64::from(b)))
}

/// Fresh competitor coordinates for adds, cycled if a run outlasts
/// them (a repeated coordinate is still a valid competitor).
struct FreshPoints {
    points: PointStore,
    next: usize,
}

impl FreshPoints {
    fn new(n: usize, seed: u64) -> FreshPoints {
        FreshPoints {
            points: competitors(n, seed),
            next: 0,
        }
    }

    fn take(&mut self) -> Vec<f64> {
        let id = skyup_geom::PointId((self.next % self.points.len()) as u32);
        self.next += 1;
        self.points.point(id).to_vec()
    }
}

/// Zipf(1) over `0..n`: rank `r` drawn with weight `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r as f64 + 1.0);
                acc
            })
            .collect();
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Read-mostly traffic: queries of `per_query` products drawn Zipf(1)
/// from a shared pool, and a `mutation_share` of adds alternating with
/// removes of this connection's earlier adds.
pub struct ReadStream {
    rng: Rng,
    pool: Arc<PointStore>,
    zipf: Arc<Zipf>,
    per_query: usize,
    k: usize,
    mutation_share: f64,
    fresh: FreshPoints,
    added: VecDeque<u64>,
    next_is_add: bool,
}

/// Write-heavy traffic in phases: remove this connection's competitors
/// down to half of its share, add fresh ones back to the full share,
/// repeat; between mutations, single-product queries that never repeat.
pub struct ChurnStream {
    rng: Rng,
    live: Vec<u64>,
    full: usize,
    removing: bool,
    query_share: f64,
    k: usize,
    fresh: FreshPoints,
}

pub enum Stream {
    Read(ReadStream),
    Churn(ChurnStream),
}

impl Stream {
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        seed: u64,
        conn: usize,
        pool: Arc<PointStore>,
        zipf: Arc<Zipf>,
        per_query: usize,
        k: usize,
        mutation_share: f64,
        fresh: usize,
    ) -> Stream {
        Stream::Read(ReadStream {
            rng: Rng::seed_from_u64(sub_seed(seed, &format!("read-ops-{conn}"))),
            pool,
            zipf,
            per_query,
            k,
            mutation_share,
            fresh: FreshPoints::new(fresh, sub_seed(seed, &format!("read-adds-{conn}"))),
            added: VecDeque::new(),
            next_is_add: true,
        })
    }

    /// A churn stream owning the competitor ids `owned` (this
    /// connection's share of the seeded set).
    pub fn churn(seed: u64, conn: usize, owned: Vec<u64>, query_share: f64, k: usize) -> Stream {
        let full = owned.len();
        Stream::Churn(ChurnStream {
            rng: Rng::seed_from_u64(sub_seed(seed, &format!("churn-ops-{conn}"))),
            live: owned,
            full,
            removing: true,
            query_share,
            k,
            fresh: FreshPoints::new(
                full.max(64) * 8,
                sub_seed(seed, &format!("churn-adds-{conn}")),
            ),
        })
    }

    pub fn next_op(&mut self) -> Op {
        match self {
            Stream::Read(s) => {
                if s.rng.next_f64() < s.mutation_share {
                    let remove = !s.next_is_add && !s.added.is_empty();
                    s.next_is_add = remove;
                    if remove {
                        return Op::Remove(s.added.pop_front().expect("checked non-empty"));
                    }
                    return Op::Add(s.fresh.take());
                }
                let products = (0..s.per_query)
                    .map(|_| {
                        let id = skyup_geom::PointId(s.zipf.sample(&mut s.rng) as u32);
                        s.pool.point(id).to_vec()
                    })
                    .collect();
                Op::Query { products, k: s.k }
            }
            Stream::Churn(s) => {
                if s.rng.next_f64() < s.query_share {
                    let t = (0..DIMS).map(|_| s.rng.range_f64(0.3, 1.3)).collect();
                    return Op::Query {
                        products: vec![t],
                        k: s.k,
                    };
                }
                if s.removing && s.live.len() <= s.full / 2 {
                    s.removing = false;
                } else if !s.removing && s.live.len() >= s.full {
                    s.removing = true;
                }
                if s.removing {
                    let i = s.rng.range_usize(s.live.len());
                    Op::Remove(s.live.swap_remove(i))
                } else {
                    Op::Add(s.fresh.take())
                }
            }
        }
    }

    /// Tells the stream the id the server assigned to an acked add.
    pub fn added(&mut self, cid: u64) {
        match self {
            Stream::Read(s) => s.added.push_back(cid),
            Stream::Churn(s) => s.live.push(cid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100);
        let mut rng = Rng::seed_from_u64(7);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 100));
        let zeros = draws.iter().filter(|&&d| d == 0).count();
        let fifties = draws.iter().filter(|&&d| d == 50).count();
        assert!(zeros > 10 * fifties.max(1), "{zeros} vs {fifties}");
    }

    #[test]
    fn churn_alternates_remove_and_add_phases() {
        let mut s = Stream::churn(3, 0, (0..8).collect(), 0.0, 1);
        let mut next_cid = 100;
        let mut kinds = String::new();
        for _ in 0..16 {
            match s.next_op() {
                Op::Remove(_) => kinds.push('r'),
                Op::Add(_) => {
                    kinds.push('a');
                    s.added(next_cid);
                    next_cid += 1;
                }
                Op::Query { .. } => unreachable!("query share is 0"),
            }
        }
        assert_eq!(kinds, "rrrraaaarrrraaaa");
    }

    #[test]
    fn read_mutations_remove_only_earlier_adds() {
        let pool = Arc::new(products(16, 1));
        let mut s = Stream::read(5, 0, pool, Arc::new(Zipf::new(16)), 2, 1, 1.0, 16);
        let mut acked = Vec::new();
        for cid in 0..10u64 {
            match s.next_op() {
                Op::Add(_) => {
                    s.added(cid);
                    acked.push(cid);
                }
                Op::Remove(c) => assert!(acked.contains(&c)),
                Op::Query { .. } => unreachable!("mutation share is 1"),
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let pool = Arc::new(products(64, 1));
        let zipf = Arc::new(Zipf::new(64));
        let mut a = Stream::read(9, 1, Arc::clone(&pool), Arc::clone(&zipf), 4, 3, 0.02, 8);
        let mut b = Stream::read(9, 1, pool, zipf, 4, 3, 0.02, 8);
        for _ in 0..200 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
