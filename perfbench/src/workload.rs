//! The three workloads and the seeded request streams that drive them.
//!
//! Every expected value here is derived from the seed and from the
//! fixture's definition (`aldsp::demo::build`: customer `c` is named
//! `LAST_NAMES[(c - 1) % 8]`, its first card has an odd CCID and so the
//! brand `MASTERCHARGE`), never from a reply of the program under test.

use std::collections::HashMap;
use std::sync::Arc;

use aldsp::pool::{ServeArg, ServeRequest};

use crate::rng::{Rng, Zipf};

/// Last names the fixture assigns round-robin by customer id.
const LAST_NAMES: &[&str] = &[
    "Carey",
    "Borkar",
    "Engovatov",
    "Lychagin",
    "Westmann",
    "Wong",
    "Smith",
    "Jones",
];

/// Share of `Submit` requests in `profile-mixed`.
pub const WRITE_SHARE: f64 = 0.2;

/// Zipf exponent of the customer-id popularity.
pub const ZIPF_S: f64 = 1.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100% `Get CustomerProfile.getProfileById`, Zipf customer ids.
    ProfileRead,
    /// 80% Get, 20% Submit; each client reads and writes its own half
    /// of the customers.
    ProfileMixed,
    /// 100% `Run` of XQSE programs from four families.
    ScriptRun,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ProfileRead,
        Workload::ProfileMixed,
        Workload::ScriptRun,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileRead => "profile-read",
            Workload::ProfileMixed => "profile-mixed",
            Workload::ScriptRun => "script-run",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fixture size and load shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Customers in the fixture.
    pub customers: usize,
    /// Orders per customer.
    pub orders: usize,
    /// Credit cards per customer.
    pub cards: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Pool workers.
    pub workers: usize,
}

impl Shape {
    /// The measured configuration: `demo::build(200, 3, 2)`, two
    /// closed-loop clients into a two-worker pool.
    pub const DEFAULT: Shape = Shape {
        customers: 200,
        orders: 3,
        cards: 2,
        clients: 2,
        workers: 2,
    };
}

/// A customer's fixture last name.
pub fn fixture_last_name(cid: i64) -> &'static str {
    LAST_NAMES[(cid as usize - 1) % LAST_NAMES.len()]
}

/// The brand of a customer's first credit card in the fixture.
pub fn fixture_first_brand(cid: i64, cards: usize) -> &'static str {
    let ccid = (cid - 1) * cards as i64 + 1;
    if ccid % 2 == 0 {
        "VISTA"
    } else {
        "MASTERCHARGE"
    }
}

/// The customer's values in the state a `profile-mixed` submit
/// toggles to: another fixture name (chosen by the seed) and the
/// other brand.
fn alternate_state(cid: i64, cards: usize, seed: u64) -> (String, String) {
    let base = (cid as usize - 1) % LAST_NAMES.len();
    let last = LAST_NAMES[(base + 1 + (seed % 7) as usize) % LAST_NAMES.len()];
    let brand = match fixture_first_brand(cid, cards) {
        "VISTA" => "MASTERCHARGE",
        _ => "VISTA",
    };
    (last.to_string(), brand.to_string())
}

/// A customer's (last name, first-card brand).
pub type CustomerState = (String, String);

/// The `script-run` program families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// FLWOR `return` accumulation under `fn:sum`.
    Accumulate,
    /// `while` / `iterate` loops with `set`.
    Loop,
    /// `fn:subsequence` / `fn:exists` over the CUSTOMER table.
    Page,
    /// `order by` plus element construction.
    Sort,
}

/// Distinct programs per family; the four families together (256)
/// are four times the engine's 64-entry plan cache.
const PROGRAMS_PER_FAMILY: usize = 64;

impl Family {
    /// All families.
    pub const ALL: [Family; 4] = [Family::Accumulate, Family::Loop, Family::Page, Family::Sort];

    /// The family's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Accumulate => "accumulate",
            Family::Loop => "loop",
            Family::Page => "page",
            Family::Sort => "sort",
        }
    }
}

/// One XQSE program text with its closed-form answer.
#[derive(Debug)]
pub struct Program {
    /// The family it belongs to.
    pub family: Family,
    /// The program source sent in the `Run` request.
    pub text: String,
    /// The serialized reply the program must produce.
    pub expected: String,
}

/// Σ_{i=1..n} (i·a mod m): the accumulate and loop families' answer.
fn sum_mod(n: i64, a: i64, m: i64) -> i64 {
    (1..=n).map(|i| (i * a) % m).sum()
}

const SORT_PRIMES: &[i64] = &[
    1201, 1213, 1217, 1223, 1229, 1231, 1237, 1249, 1259, 1277, 1279, 1283, 1289, 1291,
];

const CUSTOMER_NS: &str = "declare namespace cus = \"ld:db1/CUSTOMER\";";

/// Build program `k` of `family`. Sizes are stratified over the
/// family's range (`k` picks the stratum, the seed the point in it),
/// so every seed sends the same spread of work.
fn make_program(family: Family, k: usize, customers: usize, rng: &mut Rng) -> Program {
    let strata = PROGRAMS_PER_FAMILY as f64;
    let t = (k as f64 + rng.unit()) / strata;
    let (text, expected) = match family {
        Family::Accumulate => {
            let n = 300 + (t * 1200.0) as i64;
            let (a, m) = (rng.range(2, 97), rng.range(5, 50));
            (
                format!("fn:sum(for $i in 1 to {n} return ($i * {a}) mod {m})"),
                sum_mod(n, a, m).to_string(),
            )
        }
        Family::Loop => {
            let n = 2000 + (t * 8000.0) as i64;
            let (a, m) = (rng.range(2, 97), rng.range(3, 40));
            let text = if k.is_multiple_of(2) {
                format!(
                    "{{ declare $i := 0; declare $s := 0; \
                     while ($i lt {n}) {{ set $i := $i + 1; set $s := $s + ($i * {a}) mod {m}; }} \
                     return value $s; }}"
                )
            } else {
                format!(
                    "{{ declare $s := 0; \
                     iterate $v over (1 to {n}) {{ set $s := $s + ($v * {a}) mod {m}; }} \
                     return value $s; }}"
                )
            };
            (text, sum_mod(n, a, m).to_string())
        }
        Family::Page => {
            let m = rng.range(2, 9);
            let r = rng.range(0, m - 1);
            let matching: Vec<i64> = (1..=customers as i64).filter(|c| c % m == r).collect();
            if k.is_multiple_of(2) {
                let (s, l) = (rng.range(1, 10), rng.range(1, 10));
                let page: String = matching
                    .iter()
                    .skip(s as usize - 1)
                    .take(l as usize)
                    .map(|c| format!("<r>{c}</r>"))
                    .collect();
                (
                    format!(
                        "{CUSTOMER_NS} fn:subsequence(for $c in cus:CUSTOMER() \
                         where $c/CID mod {m} eq {r} return <r>{{fn:data($c/CID)}}</r>, {s}, {l})"
                    ),
                    page,
                )
            } else {
                let floor = rng.range(customers as i64 - 12, customers as i64 + 2);
                (
                    format!(
                        "{CUSTOMER_NS} fn:exists(for $c in cus:CUSTOMER() \
                         where $c/CID mod {m} eq {r} and $c/CID gt {floor} return $c)"
                    ),
                    matching.iter().any(|&c| c > floor).to_string(),
                )
            }
        }
        Family::Sort => {
            let n = 200 + (t * 1000.0) as i64;
            let p = SORT_PRIMES[rng.below(SORT_PRIMES.len() as u64) as usize];
            let a = rng.range(2, p - 1);
            // p is prime and above n, so the keys are distinct and the
            // order is total.
            let mut keys: Vec<i64> = (1..=n).map(|i| (i * a) % p).collect();
            keys.sort_unstable_by(|x, y| y.cmp(x));
            let body: String = keys.iter().map(|k| format!("<v>{k}</v>")).collect();
            (
                format!(
                    "<sorted>{{for $i in 1 to {n} let $k := ($i * {a}) mod {p} \
                     order by $k descending return <v>{{$k}}</v>}}</sorted>"
                ),
                format!("<sorted>{body}</sorted>"),
            )
        }
    };
    Program {
        family,
        text,
        expected,
    }
}

/// The seed's program catalogue for `script-run`.
pub fn programs(seed: u64, customers: usize) -> Vec<Arc<Program>> {
    let mut rng = Rng::new(seed, 0x005C_4197);
    Family::ALL
        .iter()
        .flat_map(|&f| (0..PROGRAMS_PER_FAMILY).map(move |k| (f, k)))
        .map(|(f, k)| Arc::new(make_program(f, k, customers, &mut rng)))
        .collect()
}

/// One request of a stream, with what its reply must show.
#[derive(Debug, Clone)]
pub enum Op {
    /// Read one profile; `state` is the (last name, brand) it must carry.
    Get {
        /// Customer id.
        cid: i64,
        /// Expected last name and first-card brand.
        state: CustomerState,
    },
    /// Set the last name and first-card brand of one profile.
    Submit {
        /// Customer id.
        cid: i64,
        /// The values written.
        state: CustomerState,
    },
    /// Run an XQSE program.
    Run(Arc<Program>),
}

/// Request kinds, for per-kind latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Data-service read.
    Get,
    /// Data-graph submit.
    Submit,
    /// XQSE program run.
    Run,
}

impl OpKind {
    /// All kinds.
    pub const ALL: [OpKind; 3] = [OpKind::Get, OpKind::Submit, OpKind::Run];

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Submit => "submit",
            OpKind::Run => "run",
        }
    }
}

impl Op {
    /// The request's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Get { .. } => OpKind::Get,
            Op::Submit { .. } => OpKind::Submit,
            Op::Run(_) => OpKind::Run,
        }
    }

    /// The plain-data request handed to the pool (or replayed directly).
    pub fn to_serve(&self) -> ServeRequest {
        let args = |cid: i64| vec![ServeArg::Str(cid.to_string())];
        match self {
            Op::Get { cid, .. } => ServeRequest::Get {
                service: "CustomerProfile".into(),
                method: "getProfileById".into(),
                args: args(*cid),
            },
            Op::Submit { cid, state } => ServeRequest::Submit {
                service: "CustomerProfile".into(),
                method: "getProfileById".into(),
                args: args(*cid),
                sets: vec![
                    (0, vec!["LAST_NAME".into()], state.0.clone()),
                    (
                        0,
                        vec!["CreditCards".into(), "CREDIT_CARD".into(), "BRAND".into()],
                        state.1.clone(),
                    ),
                ],
            },
            Op::Run(p) => ServeRequest::Run {
                program: p.text.clone(),
            },
        }
    }
}

/// One client's seeded request stream. Streams are generated on the
/// fly, so a closed-loop client can run for a fixed time; the i-th
/// request of a stream depends only on the seed, the client and i.
pub struct ClientStream {
    workload: Workload,
    rng: Rng,
    ids: Vec<i64>,
    zipf: Zipf,
    cards: usize,
    seed: u64,
    write_share: f64,
    client: usize,
    warm: bool,
    programs: Vec<Arc<Program>>,
    /// Current (expected) state of every customer this stream wrote.
    pub written: HashMap<i64, CustomerState>,
    /// Requests drawn so far.
    pub issued: usize,
}

impl ClientStream {
    /// Client `client`'s timed stream.
    pub fn timed(workload: Workload, shape: &Shape, seed: u64, client: usize) -> ClientStream {
        ClientStream::new(workload, shape, seed, client, 1, false)
    }

    /// Client `client`'s warm-up stream: the same customers and
    /// programs, different draws, and never a write.
    pub fn warmup(workload: Workload, shape: &Shape, seed: u64, client: usize) -> ClientStream {
        ClientStream::new(workload, shape, seed, client, 2, true)
    }

    fn new(
        workload: Workload,
        shape: &Shape,
        seed: u64,
        client: usize,
        purpose: u64,
        warm: bool,
    ) -> ClientStream {
        // One popularity order for everybody: rank r is the same
        // customer for every client and stream of this seed.
        let mut order: Vec<i64> = (1..=shape.customers as i64).collect();
        Rng::new(seed, 0x1D5).shuffle(&mut order);
        let ids: Vec<i64> = match workload {
            // Writers own disjoint halves, so replies and the final
            // state do not depend on how the clients interleave.
            Workload::ProfileMixed => order
                .into_iter()
                .filter(|c| (*c as usize) % shape.clients == client)
                .collect(),
            _ => order,
        };
        let write_share = if workload == Workload::ProfileMixed && !warm {
            WRITE_SHARE
        } else {
            0.0
        };
        let programs = match workload {
            Workload::ScriptRun => programs(seed, shape.customers),
            _ => Vec::new(),
        };
        ClientStream {
            workload,
            rng: Rng::new(seed, purpose << 32 | client as u64),
            zipf: Zipf::new(ids.len(), ZIPF_S),
            ids,
            cards: shape.cards,
            seed,
            write_share,
            client,
            warm,
            programs,
            written: HashMap::new(),
            issued: 0,
        }
    }

    /// The current expected state of customer `cid`.
    pub fn state_of(&self, cid: i64) -> CustomerState {
        self.written.get(&cid).cloned().unwrap_or_else(|| {
            (
                fixture_last_name(cid).to_string(),
                fixture_first_brand(cid, self.cards).to_string(),
            )
        })
    }

    /// Customers this stream may touch.
    pub fn ids(&self) -> &[i64] {
        &self.ids
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.workload == Workload::ScriptRun {
            let k = if self.warm {
                // Warm-up walks fixed strata of every family, so its cost
                // (part of `setup_s`) does not depend on the seed.
                let (i, families) = (self.issued - 1, Family::ALL.len());
                let stratum = (i / families * 16 + self.client * 8) % PROGRAMS_PER_FAMILY;
                (i % families) * PROGRAMS_PER_FAMILY + stratum
            } else {
                self.rng.below(self.programs.len() as u64) as usize
            };
            return Op::Run(self.programs[k].clone());
        }
        let cid = self.ids[self.zipf.sample(&mut self.rng)];
        let write = self.write_share > 0.0 && self.rng.unit() < self.write_share;
        let current = self.state_of(cid);
        if !write {
            return Op::Get {
                cid,
                state: current,
            };
        }
        // Toggle between the fixture state and the alternate one, so
        // every submit changes both leaves.
        let fixture = (
            fixture_last_name(cid).to_string(),
            fixture_first_brand(cid, self.cards).to_string(),
        );
        let next = if current == fixture {
            alternate_state(cid, self.cards, self.seed)
        } else {
            fixture
        };
        self.written.insert(cid, next.clone());
        Op::Submit { cid, state: next }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seed_determined() {
        let shape = Shape::DEFAULT;
        for w in Workload::ALL {
            let mut a = ClientStream::timed(w, &shape, 11, 1);
            let mut b = ClientStream::timed(w, &shape, 11, 1);
            for _ in 0..50 {
                assert_eq!(
                    format!("{:?}", a.next_op().to_serve()),
                    format!("{:?}", b.next_op().to_serve())
                );
            }
        }
    }

    #[test]
    fn mixed_clients_own_disjoint_halves() {
        let shape = Shape::DEFAULT;
        let a = ClientStream::timed(Workload::ProfileMixed, &shape, 3, 0);
        let b = ClientStream::timed(Workload::ProfileMixed, &shape, 3, 1);
        assert_eq!(a.ids().len() + b.ids().len(), shape.customers);
        assert!(a.ids().iter().all(|c| !b.ids().contains(c)));
    }

    #[test]
    fn catalogue_exceeds_plan_cache() {
        let progs = programs(5, 200);
        let distinct: std::collections::HashSet<&str> =
            progs.iter().map(|p| p.text.as_str()).collect();
        assert!(distinct.len() > 64 * 3);
    }

    #[test]
    fn fixture_facts_match_demo() {
        let demo = aldsp::demo::build(4, 1, 2).unwrap();
        for cid in 1..=4i64 {
            let g = demo
                .space
                .get(
                    "CustomerProfile",
                    "getProfileById",
                    vec![xdm::sequence::Sequence::one(xdm::sequence::Item::string(
                        cid.to_string(),
                    ))],
                )
                .unwrap();
            assert_eq!(
                g.get_value(0, &["LAST_NAME"]).unwrap(),
                fixture_last_name(cid)
            );
            assert_eq!(
                g.get_value(0, &["CreditCards", "CREDIT_CARD", "BRAND"])
                    .unwrap(),
                fixture_first_brand(cid, 2)
            );
        }
    }
}
