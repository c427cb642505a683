//! The flock pipeline benchmark: three workloads, each an operation made
//! only of calls into the layers' public functions, run as a closed loop by
//! one caller. See `README.md` in this directory for the metrics and why
//! each workload exists.

pub mod refs;
pub mod speed;
pub mod trace;

use flock_apis::{ApiConfig, ApiServer};
use flock_core::{Day, FlockError, Result, TweetId};
use flock_crawler::dataset::Dataset;
use flock_crawler::pipeline::{migration_queries, Crawler, CrawlerConfig, PHASES};
use flock_fedisim::{World, WorldConfig};
use flock_obs::Registry;
use flock_repro::study::{FigureId, MigrationStudy};
use speed::RefClock;
use std::hint::black_box;
use std::sync::Arc;
use trace::Tracer;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Worlds per run, each generated from its own seed (see [`world_seed`]).
/// Every metric is averaged over them, so one world's size does not decide
/// a run's figures. Each world is set up once; `setup_s` is the median.
pub const WORLDS: usize = 3;

/// The seed of world `j` of a run with seed `seed`: distinct for every
/// `(seed, j)` short of overflow.
fn world_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(WORLDS as u64).wrapping_add(j as u64)
}

/// Logical crawl connections on `study`: the crawl is ~3% of the pipeline
/// there, so a narrow window keeps it a control.
const STUDY_TASKS: usize = 2;

/// Logical crawl connections on `crawl`: the narrowest window that reaches
/// the minimum virtual crawl time on a [`crawl_scale`] world.
const CRAWL_TASKS: usize = 256;

/// The world of `crawl` and `search`: 8,000 searchable users and 250
/// instances, between `small()` and `medium()`. On `medium()` worlds two
/// runs of one seed took 5.8 s and 8.9 s per operation; on these the
/// spread across seeds halved.
fn crawl_scale() -> WorldConfig {
    WorldConfig {
        n_searchable_users: 8_000,
        n_instances: 250,
        ..WorldConfig::small()
    }
}

/// Passes of the §3.1 queries in one `study` or `crawl` operation: one
/// pass over a `small()` index lasts a few milliseconds, too short to time
/// alone on a box whose speed changes from second to second.
const OP_QUERY_PASSES: usize = 3;

/// OS threads under the `flock-sched` executor. One thread repeats
/// exactly and needs no more cores than a 2-CPU box has.
const WORKERS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Study,
    Crawl,
    Search,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "study" => Some(Workload::Study),
            "crawl" => Some(Workload::Crawl),
            "search" => Some(Workload::Search),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Crawl => "crawl",
            Workload::Search => "search",
        }
    }
}

/// 64-bit FNV-1a, the digest every output check compares.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The §3.1 queries the crawler's discover phase sends: the keyword and
/// hashtag queries plus one `url:"domain"` per listed instance.
pub fn query_list(api: &ApiServer) -> Vec<String> {
    let mut q: Vec<String> = migration_queries().into_iter().map(|(q, _)| q).collect();
    q.extend(
        api.instances_social_list()
            .iter()
            .map(|d| format!("url:\"{d}\"")),
    );
    q
}

/// Digest of the per-query hit ids, in query order.
fn hits_digest(queries: &[String], hits: &[Vec<TweetId>]) -> u64 {
    let mut h = FNV_OFFSET;
    for (q, ids) in queries.iter().zip(hits) {
        h = fnv1a(q.as_bytes(), h);
        h = fnv1a(&(ids.len() as u64).to_le_bytes(), h);
        for id in ids {
            h = fnv1a(&id.0.to_le_bytes(), h);
        }
    }
    h
}

/// Digest of the dataset's published JSON.
pub fn dataset_digest(ds: &Dataset) -> Result<u64> {
    Ok(fnv1a(ds.to_json()?.as_bytes(), FNV_OFFSET))
}

/// The crawler configuration every workload uses, at a given window.
fn crawler_config(tasks: usize, workers: usize) -> CrawlerConfig {
    CrawlerConfig {
        tasks: Some(tasks),
        workers,
        ..CrawlerConfig::default()
    }
}

/// What one crawl did, read from the registry the server and crawler
/// shared, and the time it took.
#[derive(Debug, Clone, Default)]
pub struct CrawlFacts {
    /// Σ `flock.apis.*.granted` (Data tier).
    pub granted: u64,
    pub rate_limited: u64,
    pub faults: u64,
    /// `flock.crawler.requests.attempts`.
    pub attempts: u64,
    /// Virtual seconds the server clock advanced during the crawl.
    pub virtual_s: u64,
    /// Virtual seconds of each of [`PHASES`], from `Registry::phases()`.
    pub phase_virtual_s: [u64; 6],
    /// Reference seconds of discover + expand.
    pub wall_s: f64,
}

impl CrawlFacts {
    fn read(reg: &Registry, api: &ApiServer, start_virtual: u64, wall_s: f64) -> CrawlFacts {
        let sum = |metric: &str| -> u64 {
            ["search", "users", "follows", "mastodon"]
                .iter()
                .filter_map(|f| reg.counter_value(&format!("flock.apis.{f}.{metric}")))
                .sum()
        };
        let mut phase_virtual_s = [0; 6];
        for p in reg.phases() {
            if let (Some(i), Some(end)) = (PHASES.iter().position(|n| *n == p.name), p.end_secs) {
                phase_virtual_s[i] += end - p.start_secs;
            }
        }
        CrawlFacts {
            granted: sum("granted"),
            rate_limited: sum("rate_limited"),
            faults: sum("faults"),
            attempts: reg
                .counter_value("flock.crawler.requests.attempts")
                .unwrap_or(0),
            virtual_s: api.now() - start_virtual,
            phase_virtual_s,
            wall_s,
        }
    }

    /// Recount checks that keep the count metrics true.
    pub fn recount_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let phases: u64 = self.phase_virtual_s.iter().sum();
        if phases != self.virtual_s {
            errors.push(format!(
                "Σ phase virtual seconds {phases} != crawl virtual seconds {}",
                self.virtual_s
            ));
        }
        if self.attempts < self.granted {
            errors.push(format!(
                "crawler attempts {} < granted requests {}",
                self.attempts, self.granted
            ));
        }
        if self.granted == 0 {
            errors.push("the crawl was granted no requests".to_string());
        }
        errors
    }

    /// The values that must repeat exactly from crawl to crawl of one world.
    /// They are not references: a scheduler or rate-limiter change may
    /// move them without changing what the crawl collects.
    fn repeat(&self) -> [(&'static str, u64); 2] {
        [("attempts", self.attempts), ("virtual_s", self.virtual_s)]
    }
}

/// Build a server recording into a fresh registry.
fn build_server(tr: &mut Tracer, world: Arc<World>) -> Result<(ApiServer, Registry)> {
    let reg = Registry::new();
    let s = tr.begin("apis.build", "apis.index_build", true);
    let api = ApiServer::with_obs(world, ApiConfig::default(), reg.clone());
    tr.end(s);
    Ok((api?, reg))
}

/// Drop a server: freeing the index is part of its cost.
fn drop_server(tr: &mut Tracer, api: ApiServer) {
    let s = tr.begin("apis.build", "apis.index_drop", true);
    drop(api);
    tr.end(s);
}

/// Discover, then expand, on the `flock-sched` executor with `tasks`
/// connections over `workers` threads, timed on `clock`.
pub fn crawl(
    tr: &mut Tracer,
    clock: &mut RefClock,
    api: &ApiServer,
    reg: &Registry,
    tasks: usize,
    workers: usize,
) -> Result<(Dataset, CrawlFacts)> {
    let crawler = Crawler::with_registry(api, crawler_config(tasks, workers), reg.clone())?;
    let start_virtual = api.now();
    let t0 = clock.now();
    let all = tr.begin("crawler", "crawler.crawl", true);
    let s = tr.begin("crawler", "crawler.discover", false);
    let ds = crawler.discover();
    tr.end(s);
    let mut ds = ds?;
    let s = tr.begin("crawler", "crawler.expand", false);
    let r = crawler.expand(&mut ds);
    tr.end(s);
    r?;
    tr.end(all);
    let wall_s = clock.now() - t0;
    Ok((ds, CrawlFacts::read(reg, api, start_virtual, wall_s)))
}

/// One pass of `queries` through the index over the collection window:
/// every query's hits.
fn search_pass(tr: &mut Tracer, api: &ApiServer, queries: &[String]) -> Result<Vec<Vec<TweetId>>> {
    let mut hits = Vec::with_capacity(queries.len());
    for q in queries {
        let s = tr.begin("apis.query", "apis.query", false);
        let r = api.search_ids_indexed(q, Day::COLLECTION_START, Day::COLLECTION_END);
        tr.end(s);
        hits.push(r?);
    }
    Ok(hits)
}

/// [`OP_QUERY_PASSES`] passes, each timed on `clock`: the first pass's
/// hits, and each pass's reference seconds.
fn search_passes(
    tr: &mut Tracer,
    clock: &mut RefClock,
    api: &ApiServer,
    queries: &[String],
) -> Result<(Vec<Vec<TweetId>>, Vec<f64>)> {
    let mut first = None;
    let mut pass_s = Vec::with_capacity(OP_QUERY_PASSES);
    let mut t = clock.now();
    for _ in 0..OP_QUERY_PASSES {
        let hits = search_pass(tr, api, queries)?;
        first.get_or_insert(hits);
        let t1 = clock.now();
        pass_s.push(t1 - t);
        t = t1;
    }
    Ok((first.unwrap_or_default(), pass_s))
}

/// Crawls in each `search` set-up, each on a fresh server, so the
/// crawl-side metrics have as many samples there as on `crawl`.
const SEARCH_SETUP_CRAWLS: usize = 3;

/// What one operation produced, for the metrics and the output checks.
#[derive(Debug, Default)]
pub struct OpOutput {
    /// Reference seconds of the operation's calls, checks excluded.
    pub wall_s: f64,
    /// The crawls the operation or set-up ran.
    pub crawls: Vec<CrawlFacts>,
    /// Queries in each of the operation's search passes, and each pass's
    /// reference seconds.
    pub queries: Option<(usize, Vec<f64>)>,
    /// Tweets and statuses of the world the operation generated.
    pub world_size: Option<(usize, usize)>,
    /// Compared with the recorded reference when the seed has one, else
    /// with the run's first operation.
    pub checked: Vec<(&'static str, u64)>,
    /// Compared with the run's first operation.
    pub repeat: Vec<(&'static str, u64)>,
    /// Recount and consistency failures.
    pub errors: Vec<String>,
}

impl OpOutput {
    /// Record a crawl with its checks: the granted count against the
    /// reference, the attempt count and virtual time against the run's
    /// first crawl of the world, and the recounts.
    fn add_crawl(&mut self, facts: CrawlFacts) {
        self.checked.push(("granted", facts.granted));
        self.repeat.extend(facts.repeat());
        self.errors.extend(facts.recount_errors());
        self.crawls.push(facts);
    }
}

fn figure_span(id: FigureId) -> &'static str {
    match id {
        FigureId::Fig14 => "repro.fig14",
        FigureId::Fig15 => "repro.fig15",
        FigureId::Fig16 => "repro.fig16",
        FigureId::Headline => "repro.headline_fig",
        _ => "repro.fig_other",
    }
}

/// One workload in one process: its inputs and what set-up left behind.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    /// `crawl` and `search`: the worlds, by index.
    worlds: Vec<Arc<World>>,
    /// `search`: each world's server and its query list, by index.
    servers: Vec<(ApiServer, Vec<String>)>,
    /// Every time the benchmark reports is read on this clock.
    pub clock: RefClock,
}

impl Bench {
    pub fn new(workload: Workload, seed: u64) -> Bench {
        Bench {
            workload,
            seed,
            worlds: Vec::new(),
            servers: Vec::new(),
            clock: RefClock::default(),
        }
    }

    /// Set-up steps per world. Each is timed on its own, so a crawl in a
    /// set-up is read at the box's speed around it (see [`speed`]).
    pub fn setup_steps(&self) -> usize {
        match self.workload {
            Workload::Search => 1 + SEARCH_SETUP_CRAWLS,
            Workload::Study | Workload::Crawl => 1,
        }
    }

    /// Step `step` of the set-up of world `j`, in order from world 0 step
    /// 0. `study` warms up with a whole operation; `crawl` generates the
    /// world; `search` generates it, then in each later step builds a
    /// server and crawls it as `crawl` does, keeping the last server.
    /// Returns what the step produced for the output checks.
    pub fn setup(&mut self, tr: &mut Tracer, j: usize, step: usize) -> Result<OpOutput> {
        match (self.workload, step) {
            (Workload::Study, _) => self.study_op(tr, j),
            (Workload::Crawl | Workload::Search, 0) => {
                let world = self.generate(tr, crawl_scale(), j)?;
                let out = OpOutput {
                    world_size: Some((world.tweets.len(), world.statuses.len())),
                    ..OpOutput::default()
                };
                self.worlds.push(world);
                Ok(out)
            }
            (Workload::Search, _) => {
                let world = self.worlds.get(j).cloned().ok_or_else(not_set_up)?;
                let (api, reg) = build_server(tr, world)?;
                let (_, facts) = crawl(tr, &mut self.clock, &api, &reg, CRAWL_TASKS, WORKERS)?;
                let queries = query_list(&api);
                match self.servers.get_mut(j) {
                    Some(slot) => {
                        let (old, _) = std::mem::replace(slot, (api, queries));
                        drop_server(tr, old);
                    }
                    None => self.servers.push((api, queries)),
                }
                let mut out = OpOutput::default();
                out.add_crawl(facts);
                Ok(out)
            }
            (Workload::Crawl, _) => Err(not_set_up()),
        }
    }

    /// One operation on world `j`, which must have been set up.
    pub fn op(&mut self, tr: &mut Tracer, j: usize) -> Result<OpOutput> {
        match self.workload {
            Workload::Study => self.study_op(tr, j),
            Workload::Crawl => self.crawl_op(tr, j),
            Workload::Search => self.search_op(tr, j),
        }
    }

    fn generate(&self, tr: &mut Tracer, config: WorldConfig, j: usize) -> Result<Arc<World>> {
        let s = tr.begin("fedisim", "fedisim.generate", true);
        let world = World::generate(&config.with_seed(world_seed(self.seed, j)));
        tr.end(s);
        Ok(Arc::new(world?))
    }

    /// generate → serve → crawl → headline → every figure, on `small()`.
    /// The clock is also read between the layers' calls, to follow the
    /// box's speed through the operation.
    fn study_op(&mut self, tr: &mut Tracer, j: usize) -> Result<OpOutput> {
        let t0 = self.clock.now();
        let root = tr.begin("bench", "op", true);
        let world = self.generate(tr, WorldConfig::small(), j)?;
        let counts = (world.tweets.len(), world.statuses.len());
        self.clock.now();
        let (api, reg) = build_server(tr, world.clone())?;
        let (dataset, facts) = crawl(tr, &mut self.clock, &api, &reg, STUDY_TASKS, WORKERS)?;
        let queries = query_list(&api);
        let (hits, pass_s) = search_passes(tr, &mut self.clock, &api, &queries)?;
        drop_server(tr, api);
        let study = MigrationStudy { world, dataset };
        let s = tr.begin("analysis", "analysis.headline", true);
        let headline = black_box(study.headline());
        tr.end(s);
        self.clock.now();
        let render = tr.begin("repro", "repro.render", true);
        let mut figures = Vec::with_capacity(FigureId::ALL.len());
        for id in FigureId::ALL {
            let s = tr.begin("repro", figure_span(id), true);
            figures.push(study.render(id));
            tr.end(s);
        }
        tr.end(render);
        tr.end(root);
        let wall_s = self.clock.now() - t0;

        let mut out = OpOutput {
            wall_s,
            checked: vec![
                ("dataset", dataset_digest(&study.dataset)?),
                (
                    "figures",
                    figures
                        .iter()
                        .fold(FNV_OFFSET, |h, f| fnv1a(f.as_bytes(), h)),
                ),
            ],
            repeat: vec![("hits", hits_digest(&queries, &hits))],
            queries: Some((queries.len(), pass_s)),
            world_size: Some(counts),
            ..OpOutput::default()
        };
        if !figures
            .last()
            .is_some_and(|f| f.ends_with(&headline.to_table()))
        {
            out.errors
                .push("the Headline figure does not end with headline()'s table".to_string());
        }
        out.add_crawl(facts);
        Ok(out)
    }

    /// serve → crawl on a [`crawl_scale`] world from set-up, with a search pass
    /// over the fresh index.
    fn crawl_op(&mut self, tr: &mut Tracer, j: usize) -> Result<OpOutput> {
        let world = self.worlds.get(j).cloned().ok_or_else(not_set_up)?;
        let t0 = self.clock.now();
        let root = tr.begin("bench", "op", true);
        let (api, reg) = build_server(tr, world)?;
        let (dataset, facts) = crawl(tr, &mut self.clock, &api, &reg, CRAWL_TASKS, WORKERS)?;
        let queries = query_list(&api);
        let (hits, pass_s) = search_passes(tr, &mut self.clock, &api, &queries)?;
        drop_server(tr, api);
        tr.end(root);
        let wall_s = self.clock.now() - t0;

        let mut out = OpOutput {
            wall_s,
            checked: vec![("dataset", dataset_digest(&dataset)?)],
            repeat: vec![("hits", hits_digest(&queries, &hits))],
            queries: Some((queries.len(), pass_s)),
            ..OpOutput::default()
        };
        out.add_crawl(facts);
        Ok(out)
    }

    /// One pass of the §3.1 queries through the index set-up built.
    fn search_op(&mut self, tr: &mut Tracer, j: usize) -> Result<OpOutput> {
        let Bench { servers, clock, .. } = self;
        let (api, queries) = servers.get(j).ok_or_else(not_set_up)?;
        let t0 = clock.now();
        let root = tr.begin("bench", "op", true);
        let hits = search_pass(tr, api, queries)?;
        tr.end(root);
        let wall_s = clock.now() - t0;
        let mut errors = Vec::new();
        if hits.iter().all(Vec::is_empty) {
            errors.push("no query matched any tweet".to_string());
        }
        Ok(OpOutput {
            wall_s,
            checked: vec![("hits", hits_digest(queries, &hits))],
            errors,
            queries: Some((queries.len(), vec![wall_s])),
            ..OpOutput::default()
        })
    }
}

fn not_set_up() -> FlockError {
    FlockError::InvalidConfig("benchmark operation before set-up".to_string())
}
