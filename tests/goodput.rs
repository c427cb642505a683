//! Crawl goodput: a refused request holds a reservation for its token, so
//! a logical request costs at most one rejection plus one grant however
//! many scheduled tasks park on the same token bucket. Without it, every
//! parked task wakes at the same refill instant, one wins and the rest
//! are refused again: attempts grow with the task window. Any window must
//! still collect the same dataset and the same Data-tier metrics.

use flock::apis::{ApiConfig, ApiServer};
use flock::crawler::prelude::*;
use flock::fedisim::{World, WorldConfig};
use flock::obs::Registry;
use std::sync::Arc;

/// Σ `flock.apis.<family>.granted` over every endpoint family.
fn granted(obs: &Registry) -> u64 {
    ["search", "users", "follows", "mastodon"]
        .iter()
        .filter_map(|f| obs.counter_value(&format!("flock.apis.{f}.granted")))
        .sum()
}

#[test]
fn attempts_stay_within_twice_the_grants_at_any_window() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(1234)).unwrap());
    let mut first: Option<(String, String)> = None;
    for tasks in [2, 256, 10_000] {
        for workers in [1, 8] {
            let obs = Registry::new();
            let api =
                ApiServer::with_obs(world.clone(), ApiConfig::default(), obs.clone()).unwrap();
            let config = CrawlerConfig {
                workers,
                tasks: Some(tasks),
                ..CrawlerConfig::default()
            };
            let mut ds = Crawler::with_registry(&api, config, obs.clone())
                .unwrap()
                .run()
                .unwrap();
            let grants = granted(&obs);
            assert!(
                grants > 0,
                "tasks={tasks} workers={workers}: nothing granted"
            );
            assert!(
                ds.stats.requests <= 2 * grants,
                "tasks={tasks} workers={workers}: {} attempts for {grants} grants",
                ds.stats.requests
            );
            // Attempts and virtual time are crawl accounting; what the
            // crawl collected must not depend on the window.
            ds.stats = CrawlStats::default();
            let cell = (serde_json::to_string(&ds).unwrap(), obs.snapshot());
            match &first {
                None => first = Some(cell),
                Some((ds0, snap0)) => {
                    assert_eq!(
                        *ds0, cell.0,
                        "dataset bytes differ at tasks={tasks} workers={workers}"
                    );
                    assert_eq!(
                        *snap0, cell.1,
                        "Data-tier snapshot differs at tasks={tasks} workers={workers}"
                    );
                }
            }
        }
    }
}
