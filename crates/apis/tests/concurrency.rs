//! Concurrency contracts of the rate limiter and the sharded server state.
//!
//! The crawler fans requests out over worker threads, so the token buckets
//! are hit from many threads at once. These tests pin down the two
//! properties the crawl relies on: a bucket never over-issues no matter how
//! acquisition interleaves, and the `retry_after_secs` it advertises is
//! honest and monotone (waiting the advertised time always suffices, and
//! waiting longer never makes things worse). Each logical request keeps
//! its key across retries, as the server's callers do.

use flock_apis::ratelimit::{RatePolicy, TokenBucket};
use flock_apis::{ApiConfig, ApiServer};
use flock_core::FlockError;
use flock_fedisim::{World, WorldConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// N threads hammering one bucket at a frozen clock: exactly `capacity`
/// acquisitions may succeed, however the lock interleaves.
#[test]
fn concurrent_acquisition_never_over_issues() {
    let capacity = 64u32;
    let bucket = Arc::new(Mutex::new(TokenBucket::new(
        RatePolicy {
            capacity,
            window_secs: 1_000_000,
        },
        0,
    )));
    let granted = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let bucket = Arc::clone(&bucket);
            let granted = Arc::clone(&granted);
            std::thread::spawn(move || {
                for i in 0..32 {
                    // 8 × 32 = 256 requests against 64 tokens.
                    if bucket.lock().try_acquire(0, &format!("t{t}:r{i}")).is_ok() {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(granted.load(Ordering::Relaxed), u64::from(capacity));
}

/// With the clock advancing concurrently (as crawler workers "sleep"),
/// total grants never exceed capacity plus what the elapsed time refilled.
#[test]
fn concurrent_acquisition_respects_refill_budget() {
    let policy = RatePolicy {
        capacity: 10,
        window_secs: 100,
    }; // 0.1 tokens/s
    let bucket = Arc::new(Mutex::new(TokenBucket::new(policy, 0)));
    let clock = Arc::new(AtomicU64::new(0));
    let granted = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let bucket = Arc::clone(&bucket);
            let clock = Arc::clone(&clock);
            let granted = Arc::clone(&granted);
            std::thread::spawn(move || {
                let mut request = 0;
                for _ in 0..200 {
                    let now = clock.load(Ordering::SeqCst);
                    match bucket.lock().try_acquire(now, &format!("t{t}:r{request}")) {
                        Ok(()) => {
                            granted.fetch_add(1, Ordering::Relaxed);
                            request += 1;
                        }
                        Err(wait) => {
                            clock.fetch_add(wait.min(5), Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = clock.load(Ordering::SeqCst);
    let budget = u64::from(policy.capacity) + (elapsed as f64 * policy.refill_rate()).ceil() as u64;
    let got = granted.load(Ordering::Relaxed);
    assert!(
        got <= budget,
        "granted {got} > budget {budget} at t={elapsed}"
    );
    assert!(
        got >= u64::from(policy.capacity),
        "burst capacity not even used"
    );
}

/// The advertised `retry_after_secs` is monotonically consistent: as the
/// clock advances toward the refill instant, the advertised wait shrinks
/// (never grows), and waiting exactly the advertised time always succeeds.
#[test]
fn retry_after_is_monotone_and_sufficient() {
    let mut bucket = TokenBucket::new(
        RatePolicy {
            capacity: 3,
            window_secs: 300,
        },
        0,
    );
    for i in 0..3 {
        bucket.try_acquire(0, &format!("burst{i}")).unwrap();
    }
    let mut last_deadline = u64::MAX;
    let mut now = 0u64;
    loop {
        match bucket.try_acquire(now, "late") {
            Ok(()) => break,
            Err(wait) => {
                assert!(wait >= 1);
                let deadline = now + wait;
                assert!(
                    deadline <= last_deadline,
                    "advertised deadline moved backwards: {deadline} after {last_deadline}"
                );
                last_deadline = deadline;
                now += 7; // creep toward the deadline in odd steps
                if now >= deadline {
                    // Waiting the advertised time must be sufficient.
                    assert!(bucket.try_acquire(deadline, "late").is_ok());
                    break;
                }
            }
        }
    }
}

/// Server-level: 8 threads share the users family; the family lock must
/// hand out exactly `capacity` tokens at a frozen clock, and rejected
/// callers must all see the same coherent retry horizon.
#[test]
fn server_families_never_over_issue_under_contention() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(11)).unwrap());
    let config = ApiConfig {
        users_policy: RatePolicy {
            capacity: 40,
            window_secs: 1_000_000,
        },
        ..ApiConfig::default()
    };
    let api = Arc::new(ApiServer::new(world.clone(), config).unwrap());
    let ids: Vec<_> = world.users.iter().take(10).map(|u| u.id).collect();
    let ok = Arc::new(AtomicU64::new(0));
    let limited = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let api = Arc::clone(&api);
            let ids = ids.clone();
            let ok = Arc::clone(&ok);
            let limited = Arc::clone(&limited);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    match api.twitter_users_lookup(&ids) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(FlockError::RateLimited { retry_after_secs }) => {
                            assert!(retry_after_secs >= 1);
                            limited.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(ok.load(Ordering::Relaxed), 40);
    assert_eq!(limited.load(Ordering::Relaxed), 40);
}

/// Families are independent: draining the search bucket must not block the
/// users or follows families (the point of breaking the single state lock).
#[test]
fn families_do_not_interfere() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(12)).unwrap());
    let config = ApiConfig {
        search_policy: RatePolicy {
            capacity: 2,
            window_secs: 1_000_000,
        },
        ..ApiConfig::default()
    };
    let api = ApiServer::new(world.clone(), config).unwrap();
    let day = flock_core::Day::COLLECTION_START;
    let end = flock_core::Day::COLLECTION_END;
    api.twitter_search("mastodon", day, end, None).unwrap();
    api.twitter_search("mastodon", day, end, None).unwrap();
    assert!(matches!(
        api.twitter_search("mastodon", day, end, None),
        Err(FlockError::RateLimited { .. })
    ));
    // Search is exhausted; users must still answer.
    let ids: Vec<_> = world.users.iter().take(5).map(|u| u.id).collect();
    assert!(api.twitter_users_lookup(&ids).is_ok());
}
