//! Token-bucket rate limiting over a virtual clock, with reservations.
//!
//! The paper's crawl was dominated by API rate limits (the Twitter follows
//! API was so restrictive the authors sampled 10% of migrants, §3.3). To
//! make the crawler exercise real backoff logic without real waiting, the
//! API layer runs on a **virtual clock**: when a request is rejected the
//! caller receives `retry_after_secs` and must advance the clock (its
//! "sleep") before retrying.
//!
//! The bucket hands out **reservations**, in the style of GCRA (the
//! generic cell rate algorithm), kept as a token-debt ledger:
//!
//! * a request that finds the bucket empty is debited *now* and refused
//!   with the exact number of seconds until its token exists — its
//!   **slot** — recorded under the request's logical key;
//! * a retry of that key at or after its slot is granted without a second
//!   debit; a retry before it is refused with the remaining wait and is
//!   not debited again;
//! * a new request arriving while reservations are pending sees their
//!   debt and queues behind them: it can never take a promised token, so
//!   slots are handed out first come, first served.
//!
//! Every caller parked on an empty bucket therefore wakes at its own slot,
//! instead of all of them waking at one refill instant where one wins and
//! the rest are refused again (a thundering herd). A logical request costs
//! at most one rejection plus one grant, and attempts ≈ grants.
//!
//! A reservation is a token spent at its slot, whenever its caller
//! actually comes back for it (the convention of Go's `rate.Limiter`
//! reservations): a late caller is still served, and a burst counted by
//! slots never exceeds `capacity`. A reservation whose caller never comes
//! back — the crawler gave up with `RetryBudgetExhausted`, or ran out of
//! transient retries — therefore costs one token interval
//! (`window_secs / capacity` seconds) and nothing more; its ledger entry
//! waits for the key to come back.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Rate-limit policy: `capacity` requests per `window_secs` rolling window,
/// implemented as a token bucket refilled continuously.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatePolicy {
    /// Bucket size (burst capacity) and per-window request budget.
    pub capacity: u32,
    /// Window length in (virtual) seconds.
    pub window_secs: u64,
}

impl RatePolicy {
    /// Twitter full-archive search: 300 requests / 15 minutes.
    pub fn twitter_search() -> Self {
        RatePolicy {
            capacity: 300,
            window_secs: 900,
        }
    }

    /// Twitter follows endpoint: 15 requests / 15 minutes — the limit that
    /// forced the paper's 10% sample.
    pub fn twitter_follows() -> Self {
        RatePolicy {
            capacity: 15,
            window_secs: 900,
        }
    }

    /// Twitter user lookup: 300 / 15 minutes.
    pub fn twitter_users() -> Self {
        RatePolicy {
            capacity: 300,
            window_secs: 900,
        }
    }

    /// Mastodon's default per-client limit: 300 requests / 5 minutes,
    /// enforced per instance.
    pub fn mastodon() -> Self {
        RatePolicy {
            capacity: 300,
            window_secs: 300,
        }
    }

    /// Tokens refilled per virtual second.
    pub fn refill_rate(&self) -> f64 {
        f64::from(self.capacity) / self.window_secs as f64
    }

    /// Units one token costs (see [`TokenBucket`]).
    fn token_units(&self) -> i128 {
        i128::from(self.window_secs)
    }

    /// Units refilled per virtual second.
    fn refill_units(&self) -> i128 {
        i128::from(self.capacity)
    }

    fn capacity_units(&self) -> i128 {
        self.refill_units().saturating_mul(self.token_units())
    }
}

/// A token bucket on a virtual clock that queues callers by reservation.
///
/// Balances are kept in exact integer *units*: one token is `window_secs`
/// units and the bucket refills `capacity` units per virtual second, so no
/// rounding drift ever moves a slot. A zero window never limits; a zero
/// capacity never refills, and its slots saturate at `u64::MAX`.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    policy: RatePolicy,
    /// Tokens not promised to anyone, in units. Negative while
    /// reservations wait for tokens that do not exist yet (the debt).
    free: i128,
    last_refill: u64,
    /// Outstanding reservations: logical key → slot.
    reserved: HashMap<String, u64>,
}

impl TokenBucket {
    /// New bucket, full at virtual time `now`.
    pub fn new(policy: RatePolicy, now: u64) -> Self {
        TokenBucket {
            policy,
            free: policy.capacity_units(),
            last_refill: now,
            reserved: HashMap::new(),
        }
    }

    fn refill(&mut self, now: u64) {
        if now > self.last_refill {
            let dt = i128::from(now - self.last_refill);
            self.free = self
                .free
                .saturating_add(dt.saturating_mul(self.policy.refill_units()))
                .min(self.policy.capacity_units());
            self.last_refill = now;
        }
    }

    /// Take one token for the logical request `key` at virtual time `now`.
    ///
    /// `Ok(())` grants the request. `Err(retry_after_secs)` refuses it:
    /// retrying the same `key` exactly `retry_after_secs` later is granted.
    /// The first refusal reserves that token; later refusals of the same
    /// key, before its slot, only report the remaining wait.
    pub fn try_acquire(&mut self, now: u64, key: &str) -> Result<(), u64> {
        self.refill(now);
        if let Some(&slot) = self.reserved.get(key) {
            // A slot that saturated at the end of time is never reached.
            if now < slot || slot == u64::MAX {
                return Err(slot.saturating_sub(now).max(1));
            }
            self.reserved.remove(key);
            return Ok(());
        }
        let token = self.policy.token_units();
        if self.free >= token {
            self.free -= token;
            return Ok(());
        }
        self.free = self.free.saturating_sub(token);
        // Seconds until the refill repays the debt up to and including
        // this token, counted from the bucket's own clock: a caller whose
        // `now` lags another caller's must not be promised a token early.
        let owed = self.free.unsigned_abs();
        let rate = self.policy.refill_units().unsigned_abs();
        let wait = if rate == 0 {
            u64::MAX
        } else {
            u64::try_from(owed.div_ceil(rate)).unwrap_or(u64::MAX)
        };
        let slot = self.last_refill.saturating_add(wait);
        self.reserved.insert(key.to_string(), slot);
        Err(slot.saturating_sub(now).max(1))
    }

    /// Remaining whole free tokens (diagnostics).
    pub fn available(&self) -> u32 {
        let token = self.policy.token_units().max(1);
        u32::try_from(self.free.max(0) / token).unwrap_or(u32::MAX)
    }

    /// Reservations handed out and not yet claimed.
    pub fn pending(&self) -> usize {
        self.reserved.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(capacity: u32, window_secs: u64) -> TokenBucket {
        TokenBucket::new(
            RatePolicy {
                capacity,
                window_secs,
            },
            0,
        )
    }

    #[test]
    fn burst_up_to_capacity_then_reject() {
        let mut b = bucket(5, 100);
        for i in 0..5 {
            assert!(b.try_acquire(0, &format!("r{i}")).is_ok());
        }
        let wait = b.try_acquire(0, "r5").unwrap_err();
        assert!(wait >= 1);
    }

    #[test]
    fn refills_over_time() {
        let mut b = bucket(10, 100);
        for i in 0..10 {
            b.try_acquire(0, &format!("r{i}")).unwrap();
        }
        // 10 tokens / 100 s = one token per 10 s.
        assert_eq!(b.try_acquire(0, "late"), Err(10));
        assert_eq!(b.try_acquire(9, "late"), Err(1));
        assert!(b.try_acquire(10, "late").is_ok());
    }

    #[test]
    fn retry_after_is_honest() {
        let mut b = bucket(2, 60);
        b.try_acquire(0, "a").unwrap();
        b.try_acquire(0, "b").unwrap();
        let wait = b.try_acquire(0, "c").unwrap_err();
        // Waiting exactly `wait` seconds must make the retry succeed.
        assert!(b.try_acquire(wait, "c").is_ok());
    }

    #[test]
    fn reservations_are_handed_out_fifo() {
        // One token per 3 s.
        let mut b = bucket(2, 6);
        b.try_acquire(0, "a").unwrap();
        b.try_acquire(0, "b").unwrap();
        let waits: Vec<u64> = ["c", "d", "e"]
            .iter()
            .map(|k| b.try_acquire(0, k).unwrap_err())
            .collect();
        assert_eq!(waits, [3, 6, 9]);
        assert_eq!(b.pending(), 3);
        for (k, slot) in [("c", 3), ("d", 6), ("e", 9)] {
            assert!(b.try_acquire(slot, k).is_ok(), "{k} at {slot}");
        }
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn early_retry_gets_the_remaining_wait_and_no_extra_debit() {
        let mut b = bucket(1, 10);
        b.try_acquire(0, "a").unwrap();
        assert_eq!(b.try_acquire(0, "b"), Err(10));
        // Hammering before the slot changes nothing.
        for t in 1..10 {
            assert_eq!(b.try_acquire(t, "b"), Err(10 - t));
        }
        // Had the early retries been debited, the next caller would queue
        // behind them; it queues behind "b" alone.
        assert_eq!(b.try_acquire(9, "c"), Err(11));
        assert!(b.try_acquire(10, "b").is_ok());
        assert!(b.try_acquire(20, "c").is_ok());
    }

    #[test]
    fn a_newcomer_cannot_jump_the_queue() {
        let mut b = bucket(1, 10);
        b.try_acquire(0, "a").unwrap();
        assert_eq!(b.try_acquire(0, "b"), Err(10));
        // At b's slot the only token is b's, even if a newcomer asks
        // first; the newcomer is queued one interval behind.
        assert_eq!(b.try_acquire(10, "new"), Err(10));
        assert!(b.try_acquire(10, "b").is_ok());
        assert!(b.try_acquire(20, "new").is_ok());
    }

    #[test]
    fn a_burst_never_exceeds_capacity() {
        let mut b = bucket(3, 30);
        // A long idle period must not accumulate more than `capacity`.
        let t = 1_000_000;
        let granted = (0..10)
            .filter(|i| b.try_acquire(t, &format!("r{i}")).is_ok())
            .count();
        assert_eq!(granted, 3);
        // The seven reserved requests are served one per 10 s slot, and
        // a crowd of newcomers at each slot gets nothing more.
        for (n, slot) in (t + 10..=t + 70).step_by(10).enumerate() {
            let mut served = 0;
            for i in 0..10 {
                if b.try_acquire(slot, &format!("r{i}")).is_ok() {
                    served += 1;
                }
                if b.try_acquire(slot, &format!("new{n}.{i}")).is_ok() {
                    served += 1;
                }
            }
            assert_eq!(served, 1, "slot {slot}");
        }
    }

    #[test]
    fn a_dropped_reservation_costs_one_token_interval() {
        let mut b = bucket(2, 20);
        b.try_acquire(0, "a").unwrap();
        b.try_acquire(0, "b").unwrap();
        assert_eq!(b.try_acquire(0, "dropped"), Err(10));
        // One interval behind the token nobody will claim.
        assert_eq!(b.try_acquire(0, "c"), Err(20));
        assert!(b.try_acquire(20, "c").is_ok());
        // It holds back nothing else: after a refill the whole burst is
        // there again.
        let granted = (0..4)
            .filter(|i| b.try_acquire(100, &format!("n{i}")).is_ok())
            .count();
        assert_eq!(granted, 2);
        assert_eq!(b.pending(), 3);
    }

    #[test]
    fn a_late_caller_still_gets_its_token() {
        let mut b = bucket(1, 10);
        b.try_acquire(0, "a").unwrap();
        assert_eq!(b.try_acquire(0, "late"), Err(10));
        assert_eq!(b.try_acquire(0, "c"), Err(20));
        // "late" misses its slot; "c" is served at its own regardless,
        // and "late" is served when it shows up.
        assert!(b.try_acquire(20, "c").is_ok());
        assert!(b.try_acquire(55, "late").is_ok());
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn a_lagging_caller_is_not_promised_an_early_token() {
        let mut b = bucket(1, 10);
        b.try_acquire(100, "a").unwrap();
        // This caller read the clock before "a" did: its token still
        // exists only one interval after the bucket's last refill.
        assert_eq!(b.try_acquire(50, "b"), Err(60));
        assert!(b.try_acquire(109, "b").is_err());
        assert!(b.try_acquire(110, "b").is_ok());
    }

    #[test]
    fn slots_saturate_instead_of_wrapping() {
        let mut b = bucket(1, u64::MAX);
        b.try_acquire(u64::MAX - 5, "a").unwrap();
        assert_eq!(b.try_acquire(u64::MAX - 5, "b"), Err(5));
        // The saturated slot is never reached, even at the end of time.
        assert_eq!(b.try_acquire(u64::MAX, "b"), Err(1));
        assert_eq!(b.try_acquire(u64::MAX, "c"), Err(1));

        // A bucket that never refills.
        let mut z = bucket(0, 900);
        assert_eq!(z.try_acquire(0, "a"), Err(u64::MAX));
        assert_eq!(z.try_acquire(1, "a"), Err(u64::MAX - 1));
    }

    #[test]
    fn sustained_rate_matches_policy() {
        let policy = RatePolicy {
            capacity: 300,
            window_secs: 900,
        };
        let mut b = TokenBucket::new(policy, 0);
        let mut now = 0u64;
        let mut granted = 0u64;
        let mut attempts = 0u64;
        // Greedy client for one hour of virtual time.
        while now < 3600 {
            attempts += 1;
            match b.try_acquire(now, &format!("r{granted}")) {
                Ok(()) => granted += 1,
                Err(wait) => now += wait,
            }
        }
        // 300 burst + 3600 s × (1/3 token/s) = ~1500.
        assert!((1400..=1600).contains(&granted), "granted {granted}");
        assert!(attempts <= 2 * granted + 1, "{attempts} attempts");
    }

    #[test]
    fn policies_have_expected_shapes() {
        assert!(RatePolicy::twitter_follows().capacity < RatePolicy::twitter_search().capacity);
        assert!(RatePolicy::mastodon().refill_rate() > RatePolicy::twitter_follows().refill_rate());
    }
}
