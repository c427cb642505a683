//! Self-tests of the benchmark's inputs and checks. Run with
//! `cargo test --release --manifest-path pipebench/Cargo.toml`.

use flock_apis::{ApiConfig, ApiServer};
use flock_core::Day;
use flock_fedisim::{World, WorldConfig};
use flock_obs::Registry;
use pipebench::speed::RefClock;
use pipebench::trace::Tracer;
use pipebench::{crawl, dataset_digest, query_list};
use std::sync::Arc;

fn small_world() -> Arc<World> {
    Arc::new(World::generate(&WorldConfig::small().with_seed(1234)).expect("small world generates"))
}

/// The index answers every benchmark query exactly as the brute-force scan
/// that re-tokenizes the whole corpus does.
#[test]
fn indexed_search_equals_the_scan_for_every_benchmark_query() {
    let api = ApiServer::with_defaults(small_world()).expect("server builds");
    let queries = query_list(&api);
    assert_eq!(queries.len(), 10 + WorldConfig::small().n_instances);
    let mut hits = 0;
    for q in &queries {
        let (start, end) = (Day::COLLECTION_START, Day::COLLECTION_END);
        let indexed = api.search_ids_indexed(q, start, end).expect("query parses");
        let scan = api.search_ids_scan(q, start, end).expect("query parses");
        assert_eq!(indexed, scan, "query {q}");
        hits += indexed.len();
    }
    assert!(hits > 0, "no benchmark query matched any tweet");
}

/// The crawl's window and thread count change how it is scheduled, never
/// what it collects: the dataset digest and the Data-tier granted count
/// are the same for tasks {2, 256} × workers {1, 2}.
#[test]
fn crawl_window_and_threads_do_not_change_the_dataset() {
    let world = small_world();
    let mut seen = Vec::new();
    for tasks in [2, 256] {
        for workers in [1, 2] {
            let reg = Registry::new();
            let api = ApiServer::with_obs(world.clone(), ApiConfig::default(), reg.clone())
                .expect("server builds");
            let (ds, facts) = crawl(
                &mut Tracer::default(),
                &mut RefClock::default(),
                &api,
                &reg,
                tasks,
                workers,
            )
            .expect("crawl succeeds");
            assert_eq!(
                facts.recount_errors(),
                Vec::<String>::new(),
                "tasks {tasks} workers {workers}"
            );
            let digest = dataset_digest(&ds).expect("dataset serializes");
            seen.push((tasks, workers, digest, facts.granted));
        }
    }
    let (_, _, digest, granted) = seen[0];
    for &(tasks, workers, d, g) in &seen {
        assert_eq!((d, g), (digest, granted), "tasks {tasks} workers {workers}");
    }
}

/// A span's self time is its duration minus the time its children cover.
#[test]
fn self_time_excludes_child_spans() {
    let mut tr = Tracer::default();
    tr.set_enabled(true);
    let outer = tr.begin("bench", "op", false);
    let inner = tr.begin("apis.query", "apis.query", false);
    std::thread::sleep(std::time::Duration::from_millis(20));
    tr.end(inner);
    tr.end(outer);
    tr.set_enabled(false);
    let [op, query] = tr.spans() else {
        panic!("expected two spans");
    };
    assert_eq!(query.parent, Some(op.id));
    assert_eq!(query.self_ns, query.end_ns - query.start_ns);
    assert_eq!(
        op.self_ns,
        (op.end_ns - op.start_ns) - (query.end_ns - query.start_ns)
    );
    assert!(op.self_ns < query.self_ns);
}
