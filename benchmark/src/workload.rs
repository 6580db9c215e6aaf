//! The four workloads: their seeded request streams and the checks every
//! answer must pass.

use std::sync::Arc;

use bst_bloom::BloomFilter;
use bst_server::protocol::{Request, Response, Target};
use bst_workloads::querysets::{clustered_set, PAPER_CLUSTERING_PCT};
use bst_workloads::sampling::sample_distinct;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{sub_seed, Data, OCCUPIED, STORED_SETS};
use crate::place;

/// Stored sets `hot-sample` cycles through: fits the server session's
/// 64-slot handle cache, so every sample after the first rides warm
/// handles.
const HOT_IDS: usize = 32;
/// Ad-hoc filters per `cold-batch` request, and keys per filter. 16
/// slots, not 32: a 32-slot batch took up to a quarter of a second on a
/// slow host, too few batches in a run to put ten beyond p90.
const BATCH_SLOTS: usize = 16;
const BATCH_KEYS: usize = 200;
/// Keys per `cold-reconstruct` set, and the clustered base patterns the
/// sets are rotated from (generating a §7.1 clustered set costs
/// milliseconds, so fresh sets are rotations of a few patterns).
const RECON_KEYS: usize = 1000;
const RECON_PATTERNS: usize = 16;
/// Every n-th reconstruction is compared with a full member scan.
const RECON_SCAN_EVERY: u64 = 8;
/// `churn`: the shared read working set, the share of reads, the per-set
/// pool `INSERT_KEYS` draws from, and the size of created sets.
const CHURN_IDS: usize = 48;
const CHURN_READ_SHARE: f64 = 0.8;
const CHURN_POOL: usize = 64;
const CHURN_CREATE_KEYS: usize = 200;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotSample,
    ColdBatch,
    ColdReconstruct,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotSample,
        Workload::ColdBatch,
        Workload::ColdReconstruct,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSample => "hot-sample",
            Workload::ColdBatch => "cold-batch",
            Workload::ColdReconstruct => "cold-reconstruct",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections (one thread each).
    pub fn connections(self) -> usize {
        match self {
            Workload::Churn => 2,
            _ => 1,
        }
    }

    /// The CPU each connection's client and server threads share, by
    /// connection: connection `i` on the `i`-th allowed CPU, round robin.
    /// `cold-batch` stays unpinned: its server thread fans phase-1
    /// weighing out over every CPU it may use, and a pinned thread's
    /// workers would inherit its single CPU.
    pub fn cpus(self, connections: usize) -> Vec<Option<usize>> {
        let allowed = place::allowed_cpus();
        (0..connections)
            .map(|i| (self != Workload::ColdBatch).then(|| allowed[i % allowed.len()]))
            .collect()
    }

    /// Whether the server runs with the write-ahead log.
    pub fn durable(self) -> bool {
        self == Workload::Churn
    }

    /// The read-latency percentile the `tail_us` and `tail_rtt` extras
    /// report: the highest of p90 and p99 that keeps ten requests beyond
    /// it in a run. p90 for `cold-batch`, whose requests take a tenth of
    /// a second or more.
    pub fn tail(self) -> f64 {
        match self {
            Workload::ColdBatch => 0.90,
            _ => 0.99,
        }
    }

    /// One seeded request stream per connection.
    pub fn streams(self, data: &Arc<Data>, seed: u64) -> Vec<Box<dyn Stream>> {
        let seed = sub_seed(seed, 100 + self as u64);
        match self {
            Workload::HotSample => {
                let mut rng = StdRng::seed_from_u64(seed);
                let targets = sample_distinct(&mut rng, 0, STORED_SETS as u64, HOT_IDS)
                    .into_iter()
                    .map(|id| (id, Arc::new(data.filter(&data.sets[id as usize]))))
                    .collect();
                vec![Box::new(HotStream { targets, next: 0 })]
            }
            Workload::ColdBatch => vec![Box::new(BatchStream {
                data: Arc::clone(data),
                seed,
                next: 0,
            })],
            Workload::ColdReconstruct => {
                let mut rng = StdRng::seed_from_u64(seed);
                let patterns = (0..RECON_PATTERNS)
                    .map(|_| {
                        clustered_set(&mut rng, OCCUPIED as u64, RECON_KEYS, PAPER_CLUSTERING_PCT)
                    })
                    .collect();
                vec![Box::new(ReconStream {
                    data: Arc::clone(data),
                    patterns,
                    seed,
                    next: 0,
                })]
            }
            Workload::Churn => {
                let shared = Arc::new(ChurnShared::new(data, seed));
                (0..2)
                    .map(|client| {
                        Box::new(ChurnStream {
                            shared: Arc::clone(&shared),
                            data: Arc::clone(data),
                            client,
                            rng: StdRng::seed_from_u64(sub_seed(seed, 10 + client)),
                            next: 0,
                            pending: Pending::None,
                            outstanding: Vec::new(),
                        }) as Box<dyn Stream>
                    })
                    .collect()
            }
        }
    }
}

/// One request and what its answer must satisfy.
pub struct Op {
    pub req: Request,
    pub check: Check,
}

/// Mutations; everything else is a read.
pub fn is_write(req: &Request) -> bool {
    matches!(
        req,
        Request::Create { .. }
            | Request::InsertKeys { .. }
            | Request::RemoveKeys { .. }
            | Request::DropSet { .. }
            | Request::OccInsert { .. }
            | Request::OccRemove { .. }
    )
}

pub enum Check {
    /// A sampled key: a positive of the filter and an occupied id.
    Sample(Arc<BloomFilter>),
    /// Every slot answered, each as a `Sample` check against its filter.
    Batch(Vec<BloomFilter>),
    /// Ascending; contains `keys`; only positives of `filter` that are
    /// occupied; with `scan`, exactly the member scan of the occupancy.
    Reconstruct {
        filter: BloomFilter,
        keys: Vec<u64>,
        scan: bool,
    },
    Created,
    Ok,
    Generation,
}

impl Op {
    pub fn is_write(&self) -> bool {
        is_write(&self.req)
    }

    /// The wire opcode's name, for error lines.
    pub fn name(&self) -> &'static str {
        match self.req {
            Request::Create { .. } => "CREATE",
            Request::InsertKeys { .. } => "INSERT_KEYS",
            Request::RemoveKeys { .. } => "REMOVE_KEYS",
            Request::DropSet { .. } => "DROP_SET",
            Request::OccInsert { .. } => "OCC_INSERT",
            Request::OccRemove { .. } => "OCC_REMOVE",
            Request::Sample { .. } => "SAMPLE",
            Request::Reconstruct { .. } => "RECONSTRUCT",
            Request::Batch { .. } => "BATCH",
            _ => "other",
        }
    }
}

impl Check {
    pub fn verify(&self, data: &Data, resp: &Response) -> bool {
        let positive = |f: &BloomFilter, key: u64| f.contains(key) && data.is_occupied(key);
        match (self, resp) {
            (Check::Sample(f), Response::Sampled { key }) => positive(f, *key),
            (Check::Batch(filters), Response::Batch { results }) => {
                results.len() == filters.len()
                    && filters
                        .iter()
                        .zip(results)
                        .all(|(f, r)| matches!(r, Ok(key) if positive(f, *key)))
            }
            (Check::Reconstruct { filter, keys, scan }, Response::Keys { keys: got }) => {
                got.windows(2).all(|w| w[0] < w[1])
                    && got.iter().all(|&x| positive(filter, x))
                    && keys.iter().all(|k| got.binary_search(k).is_ok())
                    && (!scan || *got == member_scan(filter, &data.occupied))
            }
            (Check::Created, Response::Created { .. })
            | (Check::Ok, Response::Ok)
            | (Check::Generation, Response::Generation { .. }) => true,
            _ => false,
        }
    }
}

/// Every occupied id the filter holds: the ground truth a reconstruction
/// must equal.
pub fn member_scan(filter: &BloomFilter, occupied: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    filter.for_each_member(occupied.iter().copied(), |x| out.push(x));
    out
}

/// A connection's request stream. `observe` feeds each answer back, for
/// requests that depend on an earlier one (`DROP_SET` of a created set).
pub trait Stream: Send {
    fn next_op(&mut self) -> Op;
    fn observe(&mut self, _resp: &Response) {}
}

struct HotStream {
    targets: Vec<(u64, Arc<BloomFilter>)>,
    next: u64,
}

impl Stream for HotStream {
    fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        let (id, filter) = &self.targets[(i % HOT_IDS as u64) as usize];
        Op {
            req: Request::Sample {
                target: Target::Stored(*id),
                seed: i,
            },
            check: Check::Sample(Arc::clone(filter)),
        }
    }
}

struct BatchStream {
    data: Arc<Data>,
    seed: u64,
    next: u64,
}

impl Stream for BatchStream {
    fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, i));
        let filters: Vec<BloomFilter> = (0..BATCH_SLOTS)
            .map(|_| {
                self.data
                    .filter(&self.data.uniform_keys(&mut rng, BATCH_KEYS))
            })
            .collect();
        Op {
            req: Request::Batch {
                targets: filters.iter().map(Target::adhoc).collect(),
                seed: i,
            },
            check: Check::Batch(filters),
        }
    }
}

struct ReconStream {
    data: Arc<Data>,
    patterns: Vec<Vec<u64>>,
    seed: u64,
    next: u64,
}

impl Stream for ReconStream {
    fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, i));
        // Rotating a clustered pattern through the occupied ids keeps its
        // clusters; a random offset makes a set no earlier request sent,
        // bar a one-in-2^18 coincidence.
        let offset = rng.gen_range(0..OCCUPIED as u64);
        let pattern = &self.patterns[(i % RECON_PATTERNS as u64) as usize];
        let mut keys: Vec<u64> = pattern
            .iter()
            .map(|&p| self.data.occupied[((p + offset) % OCCUPIED as u64) as usize])
            .collect();
        keys.sort_unstable();
        let filter = self.data.filter(&keys);
        Op {
            req: Request::Reconstruct {
                target: Target::adhoc(&filter),
            },
            check: Check::Reconstruct {
                filter,
                keys,
                scan: i.is_multiple_of(RECON_SCAN_EVERY),
            },
        }
    }
}

/// What both `churn` clients share: the read working set, and per
/// working-set id the pool of keys `INSERT_KEYS` draws from. Samples are
/// checked against the set's keys plus its whole pool, since the other
/// client may have inserted any of them.
struct ChurnShared {
    ids: Vec<u64>,
    pools: Vec<Vec<u64>>,
    supersets: Vec<Arc<BloomFilter>>,
}

impl ChurnShared {
    fn new(data: &Data, seed: u64) -> ChurnShared {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = sample_distinct(&mut rng, 0, STORED_SETS as u64, CHURN_IDS);
        let mut pools = Vec::new();
        let mut supersets = Vec::new();
        for &id in &ids {
            let base = &data.sets[id as usize];
            let mut pool = Vec::with_capacity(CHURN_POOL);
            while pool.len() < CHURN_POOL {
                let x = data.occupied[rng.gen_range(0..OCCUPIED)];
                if base.binary_search(&x).is_err() && !pool.contains(&x) {
                    pool.push(x);
                }
            }
            let all: Vec<u64> = base.iter().chain(&pool).copied().collect();
            supersets.push(Arc::new(data.filter(&all)));
            pools.push(pool);
        }
        ChurnShared {
            ids,
            pools,
            supersets,
        }
    }
}

/// The second half of a two-request write.
enum Pending {
    None,
    /// Re-occupy the id the previous request vacated.
    OccInsert(u64),
    /// Waiting for the id of the set just created.
    AwaitCreated,
    /// Drop the set just created.
    Drop(u64),
}

/// One `churn` client. Reads sample the shared working set; writes touch
/// only what this client owns — keys it inserted, occupied ids of its
/// own residue class, sets it created — so every write is valid however
/// the two clients interleave.
struct ChurnStream {
    shared: Arc<ChurnShared>,
    data: Arc<Data>,
    client: u64,
    rng: StdRng,
    next: u64,
    pending: Pending,
    /// (working-set slot, key) pairs this client inserted and has not
    /// removed yet.
    outstanding: Vec<(usize, u64)>,
}

impl ChurnStream {
    fn insert(&mut self) -> Op {
        let slot = self.rng.gen_range(0..CHURN_IDS);
        let n = self.rng.gen_range(1..=16usize);
        let keys: Vec<u64> = sample_distinct(&mut self.rng, 0, CHURN_POOL as u64, n)
            .into_iter()
            .map(|j| self.shared.pools[slot][j as usize])
            .collect();
        self.outstanding.extend(keys.iter().map(|&k| (slot, k)));
        Op {
            req: Request::InsertKeys {
                id: self.shared.ids[slot],
                keys,
            },
            check: Check::Ok,
        }
    }

    fn remove(&mut self) -> Op {
        let slot = self.outstanding[self.rng.gen_range(0..self.outstanding.len())].0;
        let mut keys = Vec::new();
        self.outstanding.retain(|&(s, k)| {
            let take = s == slot && keys.len() < 16;
            if take {
                keys.push(k);
            }
            !take
        });
        Op {
            req: Request::RemoveKeys {
                id: self.shared.ids[slot],
                keys,
            },
            check: Check::Ok,
        }
    }
}

impl Stream for ChurnStream {
    fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::OccInsert(key) => {
                return Op {
                    req: Request::OccInsert { key },
                    check: Check::Generation,
                }
            }
            Pending::Drop(id) => {
                return Op {
                    req: Request::DropSet { id },
                    check: Check::Ok,
                }
            }
            Pending::None | Pending::AwaitCreated => {}
        }
        if self.rng.gen_bool(CHURN_READ_SHARE) {
            let slot = self.rng.gen_range(0..CHURN_IDS);
            return Op {
                req: Request::Sample {
                    target: Target::Stored(self.shared.ids[slot]),
                    seed: self.client << 48 | i,
                },
                check: Check::Sample(Arc::clone(&self.shared.supersets[slot])),
            };
        }
        match self.rng.gen_range(0..4u32) {
            0 => self.insert(),
            1 if self.outstanding.is_empty() => self.insert(),
            1 => self.remove(),
            2 => {
                let key = loop {
                    let x = self.data.occupied[self.rng.gen_range(0..OCCUPIED)];
                    if x % 2 == self.client {
                        break x;
                    }
                };
                self.pending = Pending::OccInsert(key);
                Op {
                    req: Request::OccRemove { key },
                    check: Check::Generation,
                }
            }
            _ => {
                self.pending = Pending::AwaitCreated;
                Op {
                    req: Request::Create {
                        keys: self.data.uniform_keys(&mut self.rng, CHURN_CREATE_KEYS),
                    },
                    check: Check::Created,
                }
            }
        }
    }

    /// A failed `CREATE` leaves `AwaitCreated`, which `next_op` treats
    /// as nothing pending.
    fn observe(&mut self, resp: &Response) {
        if let (Pending::AwaitCreated, Response::Created { id }) = (&self.pending, resp) {
            self.pending = Pending::Drop(*id);
        }
    }
}
