//! The workloads: cluster set-up, closed-loop clients, the operator
//! thread (checkpoints, crashes, recoveries) and the output checks.
//!
//! The whole cluster runs in this process. Clients reach the coordinator
//! through the front door over loopback TCP; queries call
//! `Coordinator::read_historical`; the operator calls `Engine::checkpoint`,
//! `Cluster::crash_worker` and `Cluster::recover_worker_harbor`. All timing
//! is taken here, around those public calls.

use crate::model::{check_query, check_replica, Digest, Rng, TableModel, ID_COL, USER_ROW_BYTES};
use crate::stats::{median, ms, reported, reported_in_parts, Percentile};
use crate::trace::{self, Open, Tracer};
use harbor::{Cluster, ClusterConfig, RecoveryReport, TableSpec, TransportKind};
use harbor_bench::{paper_disk, paper_lan, prefill};
use harbor_common::{DiskProfile, Metrics, MetricsSnapshot, SiteId, StorageConfig, Timestamp};
use harbor_dist::{Coordinator, ProtocolKind, UpdateRequest};
use harbor_exec::{collect, Expr, Filter, ReadMode, SeqScan};
use harbor_front::admission::deadline_expired;
use harbor_front::{FnHandler, FrontClient, FrontConfig, FrontHandler, FrontServer};
use harbor_net::{TcpTransport, Transport};
use harbor_workload::{paper_row, update_by_key_request};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Transactions each writer runs, and queries the query role runs, while
/// warming up a fresh cluster.
const WARMUP_TXNS: usize = 10;
const WARMUP_QUERIES: usize = 2;
/// Budget of one front-door transaction.
const TXN_DEADLINE: Duration = Duration::from_secs(10);
/// Pace of the operator's queries on `ingest` and `recover`.
const PROBE_QUERY_EVERY: Duration = Duration::from_millis(50);
/// How often an idle operator looks for a client's failed check.
const FAILURE_POLL: Duration = Duration::from_millis(20);
/// A recovery cycle that sees no commit for this long fails the run.
const STALL_LIMIT: Duration = Duration::from_secs(20);
/// Recovery cycles after the measured window on `ingest` and `report`; a
/// multiple of the three workers, so each is the victim equally often.
const TAIL_CYCLES: usize = 9;
/// Equal slices of the window whose tails `commit_p99_ms` takes the median
/// of, so that one host stall does not set it.
const TAIL_PARTS: usize = 3;
/// Traced run only: transactions per writer and queries run alone after
/// the window, so per-message and per-row counts have a clean base.
const ISOLATED_TXNS: usize = 5;
const ISOLATED_QUERIES: usize = 8;
/// Keys each range query covers, as a share of the prefilled keys.
const QUERY_SELECTIVITY: i64 = 100;
/// First key of the rows writer `w` inserts (prefills use `0..rows`).
fn first_new_key(w: usize) -> i64 {
    (w as i64 + 1) * 100_000_000
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Report,
    Recover,
    /// `recover` with each victim recovered at once, under the writers.
    /// Not in `BENCHMARK.json`: it fails its replica checks while recovery
    /// can lose commits that straddle Phase 2's high-water mark (see the
    /// README); run it by hand to show that defect and, once fixed, to
    /// measure Phase-3 locks against live writers.
    RecoverLive,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "ingest" => Some(Workload::Ingest),
            "report" => Some(Workload::Report),
            "recover" => Some(Workload::Recover),
            "recover_live" => Some(Workload::RecoverLive),
            _ => None,
        }
    }

    fn spec(self) -> Spec {
        match self {
            // The ETL write path: 2PC with the paper's 5 ms forced writes
            // and LAN, periodic checkpoints, data well inside the pool.
            Workload::Ingest => Spec {
                protocol: ProtocolKind::Opt2pc,
                storage: StorageConfig {
                    buffer_pool_pages: 2048,
                    segment_pages: 64,
                    disk: paper_disk(),
                    lock_timeout: Duration::from_millis(500),
                },
                transport: paper_lan(),
                tables: vec![("t0", 5_000), ("t1", 5_000)],
                roles: [Role::Writer { table: 0 }, Role::Writer { table: 1 }],
                rows_per_txn: 1,
                checkpoint_every: Some(Duration::from_secs(1)),
                probe_queries: true,
                cycles_in_window: false,
                writer_think: Duration::ZERO,
                cycle_txns: 20,
                down_txns: 60,
                recover_under_load: false,
            },
            // Analysts beside a trickle-feed writer on a table ~4x the
            // buffer pool: 200k rows ~ 1.9k pages per replica against 512
            // pool pages.
            Workload::Report => Spec {
                protocol: ProtocolKind::Opt3pc,
                storage: StorageConfig {
                    buffer_pool_pages: 512,
                    segment_pages: 64,
                    disk: DiskProfile::fast(),
                    lock_timeout: Duration::from_millis(500),
                },
                transport: TransportKind::InMem {
                    latency: None,
                    bandwidth: None,
                },
                tables: vec![("big", 200_000)],
                roles: [Role::Query { table: 0 }, Role::Writer { table: 0 }],
                rows_per_txn: 1,
                checkpoint_every: None,
                probe_queries: false,
                cycles_in_window: false,
                writer_think: Duration::from_millis(10),
                cycle_txns: 20,
                down_txns: 60,
                recover_under_load: false,
            },
            // Fail-stop and catch-up of bulk loads: checkpoint, load, crash,
            // load with the victim down, recover, again, for the whole
            // window.
            Workload::Recover | Workload::RecoverLive => Spec {
                protocol: ProtocolKind::Opt3pc,
                storage: StorageConfig {
                    buffer_pool_pages: 2048,
                    segment_pages: 16,
                    disk: DiskProfile::fast(),
                    lock_timeout: Duration::from_millis(500),
                },
                transport: paper_lan(),
                tables: vec![("r0", 20_000), ("r1", 20_000)],
                roles: [Role::Writer { table: 0 }, Role::Writer { table: 1 }],
                rows_per_txn: 20,
                checkpoint_every: None,
                probe_queries: true,
                cycles_in_window: true,
                writer_think: Duration::ZERO,
                cycle_txns: 20,
                down_txns: 20,
                recover_under_load: self == Workload::RecoverLive,
            },
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Role {
    Writer { table: usize },
    Query { table: usize },
}

struct Spec {
    protocol: ProtocolKind,
    storage: StorageConfig,
    transport: TransportKind,
    /// (name, prefilled rows); every table is replicated on all 3 workers.
    tables: Vec<(&'static str, i64)>,
    roles: [Role; 2],
    rows_per_txn: usize,
    /// Operator-driven periodic checkpoints during the window.
    checkpoint_every: Option<Duration>,
    /// The operator issues paced range queries during the window.
    probe_queries: bool,
    /// The window itself is recovery cycles (otherwise cycles follow it).
    cycles_in_window: bool,
    /// A writer's pause between its transactions (closed loop with think
    /// time); zero sends the next one at once.
    writer_think: Duration,
    /// Commits each cycle waits for between its checkpoint and its crash.
    cycle_txns: u64,
    /// Commits each cycle waits for with its victim down (unless it
    /// recovers under load).
    down_txns: u64,
    /// Recover each victim at once while the clients keep committing
    /// (otherwise with the clients paused, after `down_txns` commits).
    recover_under_load: bool,
}

impl Spec {
    /// The query role's table; the operator's queries use it too (the
    /// first table when no client queries).
    fn query_table(&self) -> usize {
        self.roles
            .iter()
            .find_map(|r| match r {
                Role::Query { table } => Some(*table),
                Role::Writer { .. } => None,
            })
            .unwrap_or(0)
    }

    fn writers(&self) -> usize {
        self.roles
            .iter()
            .filter(|r| matches!(r, Role::Writer { .. }))
            .count()
    }
}

// ----------------------------------------------------------------------
// Shared run state
// ----------------------------------------------------------------------

#[derive(Default)]
struct Gate {
    paused: bool,
    stop: bool,
    in_flight: usize,
}

/// Pause/stop gate between the clients and the operator, plus what the
/// clients publish to it.
struct Shared {
    gate: Mutex<Gate>,
    cv: Condvar,
    commits: AtomicU64,
    /// Per writer: commit time of its last acknowledged transaction.
    last_acked: Vec<AtomicU64>,
    failure: Mutex<Option<String>>,
}

impl Shared {
    fn new(writers: usize) -> Self {
        Shared {
            gate: Mutex::new(Gate::default()),
            cv: Condvar::new(),
            commits: AtomicU64::new(0),
            last_acked: (0..writers).map(|_| AtomicU64::new(1)).collect(),
            failure: Mutex::new(None),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Gate> {
        self.gate.lock().expect("gate poisoned")
    }

    /// Blocks while paused; false once stopped.
    fn enter(&self) -> bool {
        let mut g = self.lock();
        while g.paused && !g.stop {
            g = self.cv.wait(g).expect("gate poisoned");
        }
        if g.stop {
            return false;
        }
        g.in_flight += 1;
        true
    }

    fn exit(&self) {
        self.lock().in_flight -= 1;
        self.cv.notify_all();
    }

    /// Pauses the clients and waits until nothing is in flight.
    fn pause(&self) {
        let mut g = self.lock();
        g.paused = true;
        while g.in_flight > 0 {
            g = self.cv.wait(g).expect("gate poisoned");
        }
    }

    fn resume(&self) {
        self.lock().paused = false;
        self.cv.notify_all();
    }

    fn stop(&self) {
        let mut g = self.lock();
        g.stop = true;
        self.cv.notify_all();
        while g.in_flight > 0 {
            g = self.cv.wait(g).expect("gate poisoned");
        }
    }

    fn restart(&self) {
        let mut g = self.lock();
        g.stop = false;
        g.paused = false;
    }

    /// Records the first failed check and stops the clients (the caller is
    /// not counted in flight any more).
    fn fail(&self, msg: String) {
        self.failure
            .lock()
            .expect("failure poisoned")
            .get_or_insert(msg);
        self.lock().stop = true;
        self.cv.notify_all();
    }

    fn failed(&self) -> Option<String> {
        self.failure.lock().expect("failure poisoned").clone()
    }

    /// "As of the latest commit": the newest time every writer has seen
    /// acknowledged. A writer's next commit time is above its last acked
    /// one, so no commit at or below this time is still in flight.
    fn safe_as_of(&self) -> Timestamp {
        Timestamp(
            self.last_acked
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .unwrap_or(1),
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Txn,
    Query,
}

#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    start: Instant,
    end: Instant,
    ok: bool,
}

impl Op {
    fn ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

/// Everything a client step or an operator action needs, shared by
/// reference across the scoped threads.
struct Ctx<'a> {
    spec: &'a Spec,
    cluster: &'a Cluster,
    models: &'a [Mutex<TableModel>],
    shared: &'a Shared,
    tracer: &'a Tracer,
    front_addr: &'a str,
    front_transport: &'a TcpTransport,
}

struct Client {
    role: Role,
    /// Writer ordinal (index into `Shared::last_acked`).
    writer: usize,
    front: Option<FrontClient>,
    rng: Rng,
    seq: u64,
    next_key: i64,
}

impl Client {
    fn step(&mut self, ctx: &Ctx) -> Result<Op, String> {
        match self.role {
            Role::Writer { table } => Ok(self.txn(ctx, table)),
            Role::Query { table } => {
                self.seq += 1;
                query(ctx, table, &mut self.rng, self.seq).map(|q| q.op)
            }
        }
    }

    /// One transaction: insert new rows, update one earlier row.
    fn txn(&mut self, ctx: &Ctx, table: usize) -> Op {
        let model = &ctx.models[table];
        let name = ctx.spec.tables[table].0;
        let key = model
            .lock()
            .expect("model poisoned")
            .pick_key(&mut self.rng);
        self.seq += 1;
        let val = (self.writer as i32 * 1_000_000_000).wrapping_add(self.seq as i32);
        let ids: Vec<i64> = (0..ctx.spec.rows_per_txn as i64)
            .map(|k| self.next_key + k)
            .collect();
        self.next_key += ids.len() as i64;
        let insert = if ids.len() == 1 {
            UpdateRequest::Insert {
                table: name.to_string(),
                values: paper_row(ids[0]),
            }
        } else {
            UpdateRequest::InsertMany {
                table: name.to_string(),
                rows: ids.iter().map(|&id| paper_row(id)).collect(),
            }
        };
        let ops = [insert, update_by_key_request(name, key, val)];
        let open = ctx.tracer.open("front.txn", ids[0] as u64, None);
        let start = Instant::now();
        let front = self
            .front
            .as_mut()
            .expect("writers hold a front-door session");
        let res = front.txn(&ops, TXN_DEADLINE);
        let end = Instant::now();
        ctx.tracer.close(open);
        model
            .lock()
            .expect("model poisoned")
            .record(&ids, key, val, res.is_ok());
        match &res {
            Ok(ts) => {
                ctx.shared.last_acked[self.writer].fetch_max(ts.0, Ordering::SeqCst);
                ctx.shared.commits.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => {
                eprintln!("txn failed: {e}");
                // A lost reply leaves the session unusable: reconnect.
                if let Ok(c) = FrontClient::connect(ctx.front_transport, ctx.front_addr, 0) {
                    self.front = Some(c);
                }
            }
        }
        Op {
            kind: Kind::Txn,
            start,
            end,
            ok: res.is_ok(),
        }
    }
}

struct QueryOut {
    op: Op,
    rows: usize,
    lo: i64,
    hi: i64,
    as_of: Timestamp,
}

fn range_pred(lo: i64, hi: i64) -> Expr {
    Expr::col(ID_COL)
        .ge(Expr::lit(lo))
        .and(Expr::col(ID_COL).lt(Expr::lit(hi)))
}

/// One seeded 1%-selectivity key-range query as of the latest commit; the
/// result is checked before it counts.
fn query(ctx: &Ctx, table: usize, rng: &mut Rng, seq: u64) -> Result<QueryOut, String> {
    let (name, rows) = ctx.spec.tables[table];
    let width = (rows / QUERY_SELECTIVITY).max(1);
    let lo = rng.below((rows - width + 1) as u64) as i64;
    let hi = lo + width;
    let as_of = ctx.shared.safe_as_of();
    let pred = range_pred(lo, hi);
    let open = ctx.tracer.open("exec.query", seq, None);
    let start = Instant::now();
    let res = ctx
        .cluster
        .coordinator()
        .read_historical(name, as_of, |s| s.predicate = Some(pred));
    let end = Instant::now();
    ctx.tracer.close(open);
    let n = match &res {
        Ok(tuples) => {
            check_query(tuples, lo, hi).map_err(|e| format!("{name}: {e}"))?;
            tuples.len()
        }
        Err(e) => {
            eprintln!("query failed: {e}");
            0
        }
    };
    Ok(QueryOut {
        op: Op {
            kind: Kind::Query,
            start,
            end,
            ok: res.is_ok(),
        },
        rows: n,
        lo,
        hi,
        as_of,
    })
}

fn client_loop(ctx: &Ctx, client: &mut Client) -> Vec<Op> {
    let mut ops = Vec::new();
    let think = match client.role {
        Role::Writer { .. } => ctx.spec.writer_think,
        Role::Query { .. } => Duration::ZERO,
    };
    while ctx.shared.enter() {
        let r = client.step(ctx);
        ctx.shared.exit();
        match r {
            Ok(op) => ops.push(op),
            Err(msg) => {
                ctx.shared.fail(msg);
                break;
            }
        }
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    ops
}

// ----------------------------------------------------------------------
// Counters
// ----------------------------------------------------------------------

/// The counters the per-layer metrics read, as window deltas.
#[derive(Clone, Copy, Default, Debug)]
struct Counts {
    forced_writes: u64,
    physical_syncs: u64,
    batched_syncs_saved: u64,
    messages: u64,
    bytes: u64,
    aborts: u64,
    lock_waits: u64,
    lock_timeouts: u64,
    evictions: u64,
    pool_hits: u64,
    pool_misses: u64,
    page_reads: u64,
    page_writes: u64,
    scan_rows: u64,
    rpc_timeouts: u64,
    rpc_retries: u64,
    index_hits: u64,
    index_misses: u64,
    admitted: u64,
    shed: u64,
}

macro_rules! each_count {
    ($m:ident) => {
        $m!(
            forced_writes,
            physical_syncs,
            batched_syncs_saved,
            messages,
            bytes,
            aborts,
            lock_waits,
            lock_timeouts,
            evictions,
            pool_hits,
            pool_misses,
            page_reads,
            page_writes,
            scan_rows,
            rpc_timeouts,
            rpc_retries,
            index_hits,
            index_misses,
            admitted,
            shed
        )
    };
}

impl Counts {
    fn of(s: &MetricsSnapshot) -> Counts {
        Counts {
            forced_writes: s.forced_writes,
            physical_syncs: s.physical_syncs,
            batched_syncs_saved: s.batched_syncs_saved,
            messages: s.messages_sent,
            bytes: s.bytes_sent,
            aborts: s.aborts,
            lock_waits: s.lock_waits,
            lock_timeouts: s.lock_timeouts,
            evictions: s.evictions,
            pool_hits: s.pool_hits,
            pool_misses: s.pool_misses,
            page_reads: s.page_reads,
            page_writes: s.page_writes,
            scan_rows: s.scan_rows_admitted + s.scan_rows_skipped_predecode,
            rpc_timeouts: s.rpc_timeouts,
            rpc_retries: s.rpc_retries,
            index_hits: s.index_hits,
            index_misses: s.index_misses,
            admitted: s.requests_admitted,
            shed: s.requests_shed,
        }
    }

    fn now(m: &Metrics) -> Counts {
        Counts::of(&m.snapshot())
    }

    fn plus(self, o: Counts) -> Counts {
        let mut out = self;
        macro_rules! add {
            ($($f:ident),*) => { $(out.$f += o.$f;)* };
        }
        each_count!(add);
        out
    }

    fn minus(self, o: Counts) -> Counts {
        let mut out = self;
        macro_rules! sub {
            ($($f:ident),*) => { $(out.$f = out.$f.saturating_sub(o.$f);)* };
        }
        each_count!(sub);
        out
    }
}

/// Per-worker counter deltas that survive restarts: a crashed engine's
/// counters are banked at the crash, and the restarted engine counts from
/// zero.
struct Book {
    sites: BTreeMap<SiteId, SiteCounts>,
}

struct SiteCounts {
    /// The running engine's registry (none while the site is down).
    live: Option<Metrics>,
    /// Its counters when this book started following it.
    base: Counts,
    /// Deltas banked from engines that crashed.
    banked: Counts,
}

impl Book {
    fn start(cluster: &Cluster) -> Book {
        let sites = cluster
            .worker_sites()
            .into_iter()
            .filter_map(|s| {
                let m = cluster.worker_metrics(s).ok()?;
                let base = Counts::now(&m);
                Some((
                    s,
                    SiteCounts {
                        live: Some(m),
                        base,
                        banked: Counts::default(),
                    },
                ))
            })
            .collect();
        Book { sites }
    }

    fn retire(&mut self, site: SiteId) {
        if let Some(c) = self.sites.get_mut(&site) {
            if let Some(m) = c.live.take() {
                c.banked = c.banked.plus(Counts::now(&m).minus(c.base));
            }
        }
    }

    fn adopt(&mut self, site: SiteId, m: Metrics) {
        if let Some(c) = self.sites.get_mut(&site) {
            c.live = Some(m);
            c.base = Counts::default();
        }
    }

    fn per_site(&self) -> BTreeMap<SiteId, Counts> {
        self.sites
            .iter()
            .map(|(s, c)| {
                let live = c
                    .live
                    .as_ref()
                    .map_or(Counts::default(), |m| Counts::now(m).minus(c.base));
                (*s, c.banked.plus(live))
            })
            .collect()
    }
}

// ----------------------------------------------------------------------
// Set-up
// ----------------------------------------------------------------------

struct Rig {
    dir: PathBuf,
    cluster: Cluster,
    front: Option<FrontServer>,
    front_metrics: Metrics,
    front_transport: TcpTransport,
    front_addr: String,
    models: Vec<Mutex<TableModel>>,
    shared: Shared,
}

impl Rig {
    fn ctx<'a>(&'a self, spec: &'a Spec, tracer: &'a Tracer) -> Ctx<'a> {
        Ctx {
            spec,
            cluster: &self.cluster,
            models: &self.models,
            shared: &self.shared,
            tracer,
            front_addr: &self.front_addr,
            front_transport: &self.front_transport,
        }
    }

    fn teardown(mut self) {
        if let Some(front) = self.front.take() {
            front.shutdown();
        }
        self.cluster.shutdown();
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The front door's handler. Untraced runs use the coordinator itself;
/// traced runs wrap the same begin/update/commit sequence (deadline checked
/// before every step, abort on failure) in spans that share the request's
/// first row id.
fn handler(coord: Arc<Coordinator>, tracer: &Tracer) -> Box<dyn FrontHandler> {
    if !tracer.enabled() {
        return Box::new(coord);
    }
    let tracer = tracer.clone();
    Box::new(FnHandler(
        move |ops: Vec<UpdateRequest>, deadline: Instant| {
            let req = request_id(&ops);
            let exec = tracer.open("dist.execute", req, None);
            let parent = exec.as_ref().map(Open::id);
            let check = |what: &str| {
                if Instant::now() >= deadline {
                    Err(deadline_expired(what))
                } else {
                    Ok(())
                }
            };
            let out = (|| {
                check("begin")?;
                let tid = tracer.span("dist.begin", req, parent, || coord.begin())?;
                for op in ops {
                    let r = check("update").and_then(|()| {
                        tracer.span("dist.update", req, parent, || coord.update(tid, op))
                    });
                    if let Err(e) = r {
                        let _ = coord.abort(tid);
                        return Err(e);
                    }
                }
                if let Err(e) = check("commit") {
                    let _ = coord.abort(tid);
                    return Err(e);
                }
                tracer.span("dist.commit", req, parent, || coord.commit(tid))
            })();
            tracer.close(exec);
            out
        },
    ))
}

/// A transaction's request id: the key of the first row it inserts.
fn request_id(ops: &[UpdateRequest]) -> u64 {
    ops.iter()
        .find_map(|op| match op {
            UpdateRequest::Insert { values, .. } => values.first(),
            UpdateRequest::InsertMany { rows, .. } => rows.first().and_then(|r| r.first()),
            _ => None,
        })
        .and_then(|v| v.as_i64().ok())
        .unwrap_or(0) as u64
}

/// Builds the cluster, prefills it, starts the front door, connects the
/// clients and warms everything up. This whole step is `setup_s`.
fn setup(
    spec: &Spec,
    seed: u64,
    dir: PathBuf,
    tracer: &Tracer,
) -> Result<(Rig, Vec<Client>), String> {
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ClusterConfig::new(spec.protocol, 3);
    cfg.storage = spec.storage.clone();
    cfg.transport = spec.transport;
    cfg.checkpoint_every = None;
    for (name, _) in &spec.tables {
        cfg.tables.push(TableSpec::paper_table(name));
    }
    let cluster = Cluster::build(&dir, cfg).map_err(|e| format!("build cluster: {e}"))?;
    let mut models = Vec::new();
    for (name, rows) in &spec.tables {
        prefill(&cluster, name, *rows).map_err(|e| format!("prefill {name}: {e}"))?;
        models.push(Mutex::new(TableModel::prefilled(name, *rows)));
    }
    let front_metrics = Metrics::new();
    let front_transport = TcpTransport::new(Metrics::new());
    let listener = front_transport
        .listen("127.0.0.1:0")
        .map_err(|e| format!("bind front door: {e}"))?;
    let front = FrontServer::start(
        FrontConfig::default(),
        listener,
        handler(cluster.coordinator().clone(), tracer),
        front_metrics.clone(),
    )
    .map_err(|e| format!("start front door: {e}"))?;
    let front_addr = front.local_addr();
    let mut clients = Vec::new();
    let mut writer = 0;
    for (i, role) in spec.roles.iter().enumerate() {
        let front = match role {
            Role::Writer { .. } => Some(
                FrontClient::connect(&front_transport, &front_addr, i as u64)
                    .map_err(|e| format!("connect client {i}: {e}"))?,
            ),
            Role::Query { .. } => None,
        };
        clients.push(Client {
            role: *role,
            writer,
            front,
            rng: Rng::new(seed, 1 + i as u64),
            seq: 0,
            next_key: first_new_key(writer),
        });
        if let Role::Writer { .. } = role {
            writer += 1;
        }
    }
    let rig = Rig {
        dir,
        cluster,
        front: Some(front),
        front_metrics,
        front_transport,
        front_addr,
        models,
        shared: Shared::new(spec.writers()),
    };
    match warm_up(&rig.ctx(spec, tracer), &mut clients) {
        Ok(()) => Ok((rig, clients)),
        Err(e) => {
            drop(clients);
            rig.teardown();
            Err(e)
        }
    }
}

fn warm_up(ctx: &Ctx, clients: &mut [Client]) -> Result<(), String> {
    for c in clients.iter_mut() {
        let n = match c.role {
            Role::Writer { .. } => WARMUP_TXNS,
            Role::Query { .. } => WARMUP_QUERIES,
        };
        for _ in 0..n {
            if !c.step(ctx)?.ok {
                return Err("an operation failed while warming up".into());
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// The operator
// ----------------------------------------------------------------------

struct Recovery {
    took: Duration,
    report: RecoveryReport,
    /// Bytes the buddies' scans shipped while the recovery ran.
    bytes: u64,
}

/// What the operator did during one phase.
#[derive(Default)]
struct Log {
    /// The operator's own paced queries.
    ops: Vec<Op>,
    recoveries: Vec<Recovery>,
    /// From each crash until its recovery returned.
    down: Vec<(Instant, Instant)>,
    checkpoints_ms: Vec<f64>,
    /// Time the clients spent paused for checks and crashes.
    paused: Duration,
}

impl Log {
    /// Names the recovery a failed check follows, with its Phase-2
    /// high-water marks.
    fn after_last_recovery(&self, e: String) -> String {
        match self.recoveries.last() {
            Some(r) => format!(
                "check after recovery {} of this phase (hwm {}): {e}",
                self.recoveries.len(),
                r.report
                    .objects
                    .iter()
                    .map(|o| format!("{} {:?}", o.table, o.hwm))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            None => format!("check before any crash in this phase: {e}"),
        }
    }
}

struct Operator<'a> {
    ctx: &'a Ctx<'a>,
    rng: Rng,
    /// Seeded crash order over the workers; cycle `i` crashes
    /// `victims[i % len]`.
    victims: Vec<SiteId>,
    cycles: usize,
    qseq: u64,
    book: Book,
    log: Log,
}

impl<'a> Operator<'a> {
    fn new(ctx: &'a Ctx<'a>, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 100);
        let mut victims = ctx.cluster.worker_sites();
        for i in (1..victims.len()).rev() {
            victims.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Operator {
            ctx,
            rng: Rng::new(seed, 101),
            victims,
            cycles: 0,
            qseq: 0,
            book: Book::start(ctx.cluster),
            log: Log::default(),
        }
    }

    fn failed(&self) -> Result<(), String> {
        self.ctx.shared.failed().map_or(Ok(()), Err)
    }

    fn probe_query(&mut self) -> Result<(), String> {
        self.qseq += 1;
        let q = query(
            self.ctx,
            self.ctx.spec.query_table(),
            &mut self.rng,
            self.qseq,
        )?;
        self.log.ops.push(q.op);
        Ok(())
    }

    fn checkpoint_all(&mut self) -> Result<(), String> {
        for site in self.ctx.cluster.worker_sites() {
            let engine = self.ctx.cluster.engine(site).map_err(|e| e.to_string())?;
            let open = self
                .ctx
                .tracer
                .open("engine.checkpoint", site.0 as u64, None);
            let t = Instant::now();
            engine
                .checkpoint()
                .and_then(|_| {
                    if engine.is_logging() {
                        engine.log_checkpoint()
                    } else {
                        Ok(())
                    }
                })
                .map_err(|e| format!("checkpoint {site}: {e}"))?;
            self.log.checkpoints_ms.push(ms(t.elapsed()));
            self.ctx.tracer.close(open);
        }
        Ok(())
    }

    /// The window of `ingest` and `report`: periodic checkpoints and paced
    /// queries where the workload has them, until `until`.
    fn steady(&mut self, until: Instant) -> Result<(), String> {
        let spec = self.ctx.spec;
        let mut next_ckpt = spec.checkpoint_every.map(|every| Instant::now() + every);
        let mut next_probe = Instant::now();
        loop {
            self.failed()?;
            let now = Instant::now();
            if now >= until {
                return Ok(());
            }
            if let (Some(at), Some(every)) = (next_ckpt, spec.checkpoint_every) {
                if now >= at {
                    self.checkpoint_all()?;
                    next_ckpt = Some(at + every);
                }
            }
            if spec.probe_queries && now >= next_probe {
                self.probe_query()?;
                next_probe = (next_probe + PROBE_QUERY_EVERY).max(Instant::now());
            }
            // Sleep to the next action rather than polling, so the operator
            // does not take the clients' cores; wake every FAILURE_POLL to
            // notice a client's failed check.
            let mut wake = until.min(Instant::now() + FAILURE_POLL);
            if let Some(at) = next_ckpt {
                wake = wake.min(at);
            }
            if spec.probe_queries {
                wake = wake.min(next_probe);
            }
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
    }

    /// Waits until the clients have committed `txns` more transactions,
    /// running paced queries meanwhile if `probe`.
    fn await_commits(&mut self, txns: u64, probe: bool) -> Result<(), String> {
        let shared = self.ctx.shared;
        let target = shared.commits.load(Ordering::SeqCst) + txns;
        let mut next_probe = Instant::now();
        let give_up = Instant::now() + STALL_LIMIT;
        while shared.commits.load(Ordering::SeqCst) < target {
            self.failed()?;
            if Instant::now() > give_up {
                return Err(format!(
                    "the clients committed nothing for {STALL_LIMIT:?}: the cluster stalled"
                ));
            }
            if probe && Instant::now() >= next_probe {
                self.probe_query()?;
                next_probe = (next_probe + PROBE_QUERY_EVERY).max(Instant::now());
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// One recovery cycle: checkpoint every worker, let the clients commit
    /// `cycle_txns` transactions, pause them, check the replicas, crash the
    /// next victim with nothing in flight and resume. The clients commit
    /// `down_txns` more transactions with the victim down and are paused
    /// while it recovers; with `recover_under_load` it is recovered at once
    /// while they keep committing.
    fn cycle(&mut self, probe: bool) -> Result<(), String> {
        let ctx = self.ctx;
        let under_load = ctx.spec.recover_under_load;
        self.checkpoint_all()?;
        self.await_commits(ctx.spec.cycle_txns, probe)?;
        let victim = self.victims[self.cycles % self.victims.len()];
        self.cycles += 1;
        let paused_at = Instant::now();
        ctx.shared.pause();
        let crashed = check_all(ctx)
            .map_err(|e| self.log.after_last_recovery(e))
            .and_then(|_| {
                self.book.retire(victim);
                ctx.cluster
                    .crash_worker(victim)
                    .map_err(|e| format!("crash {victim}: {e}"))
            });
        let down_at = Instant::now();
        self.log.paused += down_at - paused_at;
        ctx.shared.resume();
        crashed?;
        if !under_load {
            self.await_commits(ctx.spec.down_txns, probe)?;
            ctx.shared.pause();
        }

        let buddies = |c: &Cluster| -> u64 {
            c.worker_sites()
                .into_iter()
                .filter(|s| *s != victim)
                .filter_map(|s| c.worker_metrics(s).ok())
                .map(|m| m.recovery_bytes_shipped())
                .sum()
        };
        let bytes0 = buddies(ctx.cluster);
        let open = ctx.tracer.open("core.recover", self.cycles as u64, None);
        let t = Instant::now();
        let recovered = ctx.cluster.recover_worker_harbor(victim);
        let took = t.elapsed();
        ctx.tracer.close(open);
        let up_at = Instant::now();
        if !under_load {
            self.log.paused += took;
            ctx.shared.resume();
        }
        let report = recovered.map_err(|e| format!("recover {victim}: {e}"))?;
        let bytes = buddies(ctx.cluster).saturating_sub(bytes0);
        let m = ctx
            .cluster
            .worker_metrics(victim)
            .map_err(|e| e.to_string())?;
        self.book.adopt(victim, m);
        self.log.recoveries.push(Recovery {
            took,
            report,
            bytes,
        });
        self.log.down.push((down_at, up_at));
        Ok(())
    }
}

/// Reads every table on every live replica as of one time (clients
/// paused, nothing in flight), checks each against the model and checks the
/// replicas agree. Returns the visible rows summed over the tables.
fn check_all(ctx: &Ctx) -> Result<u64, String> {
    let as_of = ctx.cluster.coordinator().authority().now().prev();
    let mut visible = 0;
    for model in ctx.models {
        let model = model.lock().expect("model poisoned");
        let mut first: Option<(SiteId, Digest)> = None;
        for site in ctx.cluster.worker_sites() {
            let engine = ctx.cluster.engine(site).map_err(|e| e.to_string())?;
            let def = engine
                .table_def(&model.name)
                .ok_or_else(|| format!("{site}: no table {}", model.name))?;
            let rows = SeqScan::new(engine.pool().clone(), def.id, ReadMode::Historical(as_of))
                .and_then(|mut scan| collect(&mut scan))
                .map_err(|e| format!("{site}: scan {}: {e}", model.name))?;
            let d = check_replica(&model, &rows)
                .map_err(|(key, e)| format!("{site}: {e}; {}", history(&engine, def.id, key)))?;
            match first {
                None => first = Some((site, d)),
                Some((s0, d0)) if d0 != d => {
                    return Err(format!(
                        "{}: replicas disagree as of {as_of:?}: {s0} {d0:?}, {site} {d:?}",
                        model.name
                    ))
                }
                Some(_) => {}
            }
        }
        visible += first.map_or(0, |(_, d)| d.rows);
    }
    Ok(visible)
}

/// Every stored version of `key` (insertion, deletion, f0), for the
/// message of a failed check.
fn history(engine: &harbor_engine::Engine, table: harbor_common::TableId, key: i64) -> String {
    let versions = SeqScan::new(engine.pool().clone(), table, ReadMode::SeeDeleted)
        .and_then(|mut scan| collect(&mut scan))
        .map(|rows| {
            rows.iter()
                .filter(|t| t.get(ID_COL).as_i64().ok() == Some(key))
                .map(|t| format!("({:?}, {:?}, {:?})", t.get(0), t.get(1), t.get(ID_COL + 1)))
                .collect::<Vec<_>>()
                .join(" ")
        });
    format!("stored versions of key {key}: {versions:?}")
}

/// Runs the clients on their own threads while `operate` runs here, then
/// stops them and returns their operations.
fn run_phase<'a>(
    ctx: &'a Ctx<'a>,
    clients: &mut [Client],
    op: &mut Operator<'a>,
    operate: impl FnOnce(&mut Operator<'a>) -> Result<(), String>,
) -> Result<Vec<Op>, String> {
    ctx.shared.restart();
    let (ops, res) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || client_loop(ctx, c)))
            .collect();
        let res = operate(op);
        ctx.shared.stop();
        let ops: Vec<Op> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (ops, res)
    });
    res?;
    ctx.shared.failed().map_or(Ok(ops), Err)
}

/// Traced run only: after the window, with the clients idle, a few
/// transactions and queries run alone so that messages, bytes and scanned
/// rows can be divided by exactly the operations that caused them. Each
/// query is repeated as a local `SeqScan` on the replica that served it.
struct Isolated {
    msgs_per_txn: f64,
    bytes_per_txn: f64,
    bytes_per_query: f64,
    rows_examined_per_returned: f64,
    local_scan_ms: Vec<f64>,
    ops: Vec<Op>,
}

fn isolated(ctx: &Ctx, clients: &mut [Client], op: &mut Operator) -> Result<Isolated, String> {
    let net = ctx.cluster.net_metrics();
    let mut ops = Vec::new();
    let n0 = Counts::now(net);
    for c in clients
        .iter_mut()
        .filter(|c| matches!(c.role, Role::Writer { .. }))
    {
        for _ in 0..ISOLATED_TXNS {
            ops.push(c.step(ctx)?);
        }
    }
    let txns = ops.iter().filter(|o| o.ok).count().max(1) as f64;
    let n1 = Counts::now(net);
    let scanned = |c: &Cluster| -> BTreeMap<SiteId, u64> {
        c.worker_sites()
            .into_iter()
            .filter_map(|s| Some((s, Counts::now(&c.worker_metrics(s).ok()?).scan_rows)))
            .collect()
    };
    let (mut qbytes, mut examined, mut returned, mut queries) = (0, 0, 0, 0);
    let mut local_scan_ms = Vec::new();
    for _ in 0..ISOLATED_QUERIES {
        let before = scanned(ctx.cluster);
        let b0 = net.bytes_sent();
        op.qseq += 1;
        let q = query(ctx, ctx.spec.query_table(), &mut op.rng, op.qseq)?;
        qbytes += net.bytes_sent() - b0;
        ops.push(q.op);
        if !q.op.ok {
            continue;
        }
        queries += 1;
        let (site, rows) = scanned(ctx.cluster)
            .into_iter()
            .map(|(s, n)| (s, n - before.get(&s).copied().unwrap_or(n)))
            .max_by_key(|(_, n)| *n)
            .ok_or("no live replica")?;
        examined += rows;
        returned += q.rows as u64;
        let engine = ctx.cluster.engine(site).map_err(|e| e.to_string())?;
        let name = ctx.spec.tables[ctx.spec.query_table()].0;
        let def = engine.table_def(name).ok_or("no query table")?;
        let open = ctx.tracer.open("exec.local_scan", op.qseq, None);
        let t = Instant::now();
        let local = SeqScan::new(engine.pool().clone(), def.id, ReadMode::Historical(q.as_of))
            .and_then(|scan| collect(&mut Filter::new(Box::new(scan), range_pred(q.lo, q.hi))))
            .map_err(|e| format!("local scan on {site}: {e}"))?;
        local_scan_ms.push(ms(t.elapsed()));
        ctx.tracer.close(open);
        check_query(&local, q.lo, q.hi).map_err(|e| format!("local scan on {site}: {e}"))?;
    }
    let queries = (queries as f64).max(1.0);
    Ok(Isolated {
        msgs_per_txn: (n1.messages - n0.messages) as f64 / txns,
        bytes_per_txn: (n1.bytes - n0.bytes) as f64 / txns,
        bytes_per_query: qbytes as f64 / queries,
        rows_examined_per_returned: examined as f64 / (returned.max(1) as f64),
        local_scan_ms,
        ops,
    })
}

fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Bytes in the worker data directories (not the coordinator's log).
fn worker_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("site-"))
                .map(|e| dir_bytes(&e.path()))
                .sum()
        })
        .unwrap_or(0)
}

// ----------------------------------------------------------------------
// One run
// ----------------------------------------------------------------------

/// A run's measurements, keyed by metric name.
pub struct RunResult {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Which percentile each tail metric used, over how many samples.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<trace::Span>,
}

struct Sink<'a> {
    map: &'a mut BTreeMap<&'static str, f64>,
    notes: &'a mut Vec<String>,
}

impl Sink<'_> {
    fn put(&mut self, name: &'static str, v: f64) {
        self.map.insert(name, v);
    }

    fn pct(&mut self, name: &'static str, samples: &[f64], p: u32) -> Result<(), String> {
        let Percentile { value, used, n } =
            reported(samples, p).ok_or_else(|| format!("{name}: no samples"))?;
        self.notes.push(format!("{name}: p{used} of {n} samples"));
        self.put(name, value);
        Ok(())
    }

    /// The median over [`TAIL_PARTS`] slices of the window of each slice's
    /// `p`-th percentile.
    fn pct_in_parts(&mut self, name: &'static str, samples: &[f64], p: u32) -> Result<(), String> {
        let Percentile { value, used, n } = reported_in_parts(samples, TAIL_PARTS, p)
            .ok_or_else(|| format!("{name}: no samples"))?;
        self.notes.push(format!(
            "{name}: median over {TAIL_PARTS} slices of p{used}, {n} samples"
        ));
        self.put(name, value);
        Ok(())
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sets up `workload` [`SETUPS`] times, then runs its window (and, on
/// `ingest` and `report`, the recovery cycles after it), checking outputs
/// throughout. A failed check or a failed recovery is an error.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    work_dir: &Path,
) -> Result<RunResult, String> {
    let spec = workload.spec();
    let tracer = Tracer::new(traced);
    let mut setups = Vec::new();
    let mut kept: Option<(Rig, Vec<Client>)> = None;
    for k in 0..SETUPS {
        if let Some((rig, clients)) = kept.take() {
            drop(clients);
            rig.teardown();
        }
        let dir = work_dir.join(format!(
            "{}-{seed}-{}-{k}",
            format!("{workload:?}").to_lowercase(),
            std::process::id()
        ));
        let t = Instant::now();
        kept = Some(setup(&spec, seed, dir, &tracer)?);
        setups.push(secs(t.elapsed()));
    }
    let (rig, mut clients) = kept.expect("at least one set-up");
    let out = measure(&spec, seed, seconds, &tracer, &rig, &mut clients, &setups);
    drop(clients);
    rig.teardown();
    out
}

fn measure(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    rig: &Rig,
    clients: &mut [Client],
    setups: &[f64],
) -> Result<RunResult, String> {
    let ctx = rig.ctx(spec, tracer);
    let cluster = &rig.cluster;
    let coord = cluster.coordinator().metrics();
    let mut op = Operator::new(&ctx, seed);

    // The measured window.
    let (coord0, front0) = (Counts::now(coord), Counts::now(&rig.front_metrics));
    let w0 = tracer.now();
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs(seconds);
    let window_ops = run_phase(&ctx, clients, &mut op, |op| {
        if spec.cycles_in_window {
            while Instant::now() < until {
                op.cycle(spec.probe_queries)?;
            }
            Ok(())
        } else {
            op.steady(until)
        }
    })?;
    let window = std::mem::take(&mut op.log);
    let active = secs(t0.elapsed() - window.paused);
    let w1 = tracer.now();
    let sites = op.book.per_site();
    let coord_w = Counts::now(coord).minus(coord0);
    let front_w = Counts::now(&rig.front_metrics).minus(front0);

    let iso = if tracer.enabled() {
        Some(isolated(&ctx, clients, &mut op)?)
    } else {
        None
    };

    // Recovery cycles after the window.
    let tail_ops = if spec.cycles_in_window {
        Vec::new()
    } else {
        op.book = Book::start(cluster);
        run_phase(&ctx, clients, &mut op, |op| {
            (0..TAIL_CYCLES).try_for_each(|_| op.cycle(false))
        })?
    };
    let tail = std::mem::take(&mut op.log);

    // The phase that ran the recovery cycles.
    let cycles = if spec.cycles_in_window {
        &window
    } else {
        &tail
    };

    // Final check with everything quiet, then space.
    let visible =
        check_all(&ctx).map_err(|e| format!("final {}", cycles.after_last_recovery(e)))?;
    let disk = worker_bytes(&rig.dir);
    let replicas = cluster.worker_sites().len() as u64;

    let mut res = RunResult {
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    let all_ops: Vec<&Op> = window_ops
        .iter()
        .chain(&window.ops)
        .chain(&tail_ops)
        .chain(&tail.ops)
        .chain(iso.iter().flat_map(|i| &i.ops))
        .collect();
    let recoveries = &cycles.recoveries;
    res.attempted = (all_ops.len() + recoveries.len()) as u64;
    res.failed = all_ops.iter().filter(|o| !o.ok).count() as u64;

    // Oldest first, so that a tail can be taken per slice of the window.
    let window_of = |kind: Kind| -> Vec<f64> {
        let mut ops: Vec<&Op> = window_ops
            .iter()
            .chain(&window.ops)
            .filter(|o| o.kind == kind && o.ok)
            .collect();
        ops.sort_by_key(|o| o.start);
        ops.into_iter().map(Op::ms).collect()
    };
    let commits = window_of(Kind::Txn);
    let queries = window_of(Kind::Query);
    let down: Vec<(Instant, Instant)> = window.down.iter().chain(&tail.down).copied().collect();
    let recovering: Vec<f64> = window_ops
        .iter()
        .chain(&tail_ops)
        .filter(|o| o.kind == Kind::Txn && o.ok)
        .filter(|o| down.iter().any(|(a, b)| o.start >= *a && o.start < *b))
        .map(Op::ms)
        .collect();
    let rec_secs: Vec<f64> = recoveries.iter().map(|r| secs(r.took)).collect();

    let mut e = Sink {
        map: &mut res.e2e,
        notes: &mut res.notes,
    };
    e.put("setup_s", median(setups).expect("set-ups ran"));
    e.put("txn_per_s", commits.len() as f64 / active);
    e.pct("commit_p50_ms", &commits, 50)?;
    e.pct_in_parts("commit_p99_ms", &commits, 99)?;
    e.pct("query_p50_ms", &queries, 50)?;
    e.pct("query_p90_ms", &queries, 90)?;
    e.put("queries_per_s", queries.len() as f64 / active);
    e.pct("recovery_s", &rec_secs, 50)?;
    e.pct("recovering_commit_p90_ms", &recovering, 90)?;
    e.put(
        "space_amp",
        disk as f64 / (visible * USER_ROW_BYTES * replicas).max(1) as f64,
    );

    let Some(iso) = iso else {
        return Ok(res);
    };
    let spans = tracer.spans(&[("dist.execute", "front.txn")]);
    let selfs = trace::self_times(&spans);
    let in_window = |name: &str| -> Vec<&trace::Span> {
        spans
            .iter()
            .filter(|s| s.name == name && s.start >= w0 && s.end <= w1)
            .collect()
    };
    let span_ms = |name: &str| -> Vec<f64> { in_window(name).iter().map(|s| s.ms()).collect() };
    let front_self: Vec<f64> = in_window("front.txn")
        .iter()
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect();
    let workers = sites.values().fold(Counts::default(), |a, c| a.plus(*c));
    let everyone = workers.plus(coord_w);
    let txns = commits.len().max(1) as f64;
    let serving = sites
        .values()
        .max_by_key(|c| c.scan_rows)
        .copied()
        .unwrap_or_default();
    let per_cycle = |f: &dyn Fn(&Recovery) -> f64| -> f64 {
        median(&recoveries.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let checkpoints: Vec<f64> = window
        .checkpoints_ms
        .iter()
        .chain(&tail.checkpoints_ms)
        .copied()
        .collect();

    let mut l = Sink {
        map: &mut res.layers,
        notes: &mut res.notes,
    };
    l.pct("front.self_ms_p50", &front_self, 50)?;
    l.pct("front.self_ms_p99", &front_self, 99)?;
    l.put("front.admitted", front_w.admitted as f64);
    l.put("front.shed", front_w.shed as f64);
    l.put(
        "front.queue_peak",
        rig.front_metrics.queue_peak_depth() as f64,
    );
    l.pct("dist.begin_ms_p50", &span_ms("dist.begin"), 50)?;
    l.pct("dist.update_ms_p50", &span_ms("dist.update"), 50)?;
    l.pct("dist.commit_ms_p50", &span_ms("dist.commit"), 50)?;
    l.pct("dist.commit_ms_p99", &span_ms("dist.commit"), 99)?;
    l.put("dist.aborts", coord_w.aborts as f64);
    l.put("dist.rpc_timeouts", everyone.rpc_timeouts as f64);
    l.put("dist.rpc_retries", everyone.rpc_retries as f64);
    l.put("net.msgs_per_txn", iso.msgs_per_txn);
    l.put("net.bytes_per_txn", iso.bytes_per_txn);
    l.put("net.bytes_per_query", iso.bytes_per_query);
    l.put("wal.forces_per_txn", everyone.forced_writes as f64 / txns);
    l.put("wal.syncs_per_txn", everyone.physical_syncs as f64 / txns);
    l.put(
        "wal.batched_syncs_saved",
        everyone.batched_syncs_saved as f64,
    );
    l.put(
        "storage.pool_hit_ratio",
        serving.pool_hits as f64 / (serving.pool_hits + serving.pool_misses).max(1) as f64,
    );
    l.put("storage.pool_misses", workers.pool_misses as f64);
    l.put("storage.evictions", workers.evictions as f64);
    l.put("storage.page_reads", workers.page_reads as f64);
    l.put("storage.page_writes", workers.page_writes as f64);
    l.put("storage.lock_waits", workers.lock_waits as f64);
    l.put("storage.lock_timeouts", workers.lock_timeouts as f64);
    l.put("storage.disk_bytes", disk as f64);
    l.put(
        "exec.rows_examined_per_returned",
        iso.rows_examined_per_returned,
    );
    l.pct("exec.local_scan_ms_p50", &iso.local_scan_ms, 50)?;
    l.put("engine.index_hits", workers.index_hits as f64);
    l.put("engine.index_misses", workers.index_misses as f64);
    l.pct("engine.checkpoint_ms_p50", &checkpoints, 50)?;
    l.put("core.phase1_ms", per_cycle(&|r| ms(r.report.phase1())));
    l.put(
        "core.phase2_deletes_ms",
        per_cycle(&|r| ms(r.report.phase2_deletes())),
    );
    l.put(
        "core.phase2_inserts_ms",
        per_cycle(&|r| ms(r.report.phase2_inserts())),
    );
    l.put("core.phase3_ms", per_cycle(&|r| ms(r.report.phase3())));
    l.put(
        "core.tuples_copied",
        per_cycle(&|r| r.report.tuples_copied() as f64),
    );
    l.put(
        "core.deletions_copied",
        per_cycle(&|r| {
            r.report
                .objects
                .iter()
                .map(|o| o.deletions_copied)
                .sum::<u64>() as f64
        }),
    );
    l.put(
        "core.ranges_fetched",
        per_cycle(&|r| r.report.ranges_fetched() as f64),
    );
    l.put(
        "core.ranges_reassigned",
        per_cycle(&|r| r.report.ranges_reassigned() as f64),
    );
    l.put(
        "core.recovery_bytes_shipped",
        per_cycle(&|r| r.bytes as f64),
    );
    l.put(
        "failed_frac",
        res.failed as f64 / res.attempted.max(1) as f64,
    );
    res.spans = spans;
    Ok(res)
}
