//! Logical crawl tasks for the discrete-event scheduler.
//!
//! When [`CrawlerConfig::tasks`](crate::pipeline::CrawlerConfig::tasks) is
//! set, the §3.2–§3.3 expand phases run on the `flock-sched` executor
//! instead of the thread-per-item worker pool: each work item (one
//! timeline, one followee record, one instance's activity) becomes a
//! lightweight state machine that *yields* whenever the legacy code would
//! have advanced the virtual clock — rate-limit slots, outage windows,
//! transient backoffs — and the executor multiplexes thousands of such
//! logical connections over a handful of OS threads, advancing the clock
//! only when nothing is runnable.
//!
//! A rate-limit refusal reserves the request's token (see
//! `flock_apis::ratelimit`): the task parks until exactly its own slot and
//! its retry there is granted. Tasks parked on one bucket therefore wake
//! one per slot, in reservation order, and each logical request costs at
//! most one refusal plus one grant however wide the task window is.
//!
//! The state machines here mirror the legacy per-item functions in
//! `pipeline.rs` step for step: the same spans, the same attempt records,
//! the same typed-outcome mapping, the same retry budgets. A task's
//! in-flight request keeps its span open across yields ([`ReqState`]),
//! and each second the executor moves the clock is charged — at event
//! fire time, via the [`WaitBill`] attached to the yield — to the same
//! `(span, phase, cause)` bucket the legacy path would have charged
//! inline. That preserves the attribution identity (per-phase wait
//! buckets + work = phase duration) under multiplexing.

use crate::dataset::{
    FolloweeRecord, MastodonCrawlOutcome, MatchedUser, TimelineStatus, TimelineTweet,
    TwitterCrawlOutcome,
};
use crate::pipeline::Crawler;
use flock_apis::server::ApiServer;
use flock_apis::types::ActivityRow;
use flock_core::{Day, FlockError, MastodonHandle, Result, TwitterUserId};
use flock_obs::trace::{self, FaultKind, SpanOutcome};
use flock_obs::WaitCause;
use flock_sched::{Clock, Executor, Step, Task};
use std::sync::atomic::Ordering;

/// What one yielded wait is charged to when its event fires: the same
/// `(span, phase, cause)` triple `Crawler::wait_out` charges inline on
/// the legacy path.
pub(crate) struct WaitBill {
    span: u64,
    phase: &'static str,
    cause: WaitCause,
}

/// One logical request in flight: the open span plus the retry budgets
/// that survive across scheduler yields. The legacy equivalent is the
/// local state of one `Crawler::request` call; here it must live in the
/// task because the stack unwinds at every yield.
pub(crate) struct ReqState {
    span: u64,
    phase: &'static str,
    label: String,
    transient: u32,
    waited: u64,
    last_outcome: SpanOutcome,
}

/// Outcome of driving one attempt of an in-flight request: either the
/// request finished (span closed, result ready) or the task must park
/// until `until` and bill the wait when it fires.
pub(crate) enum ReqPoll<T> {
    Wait { until: u64, bill: WaitBill },
    Done(Result<T>),
}

impl<'a> Crawler<'a> {
    /// Open the logical-request span for a scheduled request — the
    /// counterpart of the `span_begin` at the top of `Crawler::request`.
    fn sched_begin(&self, label: String) -> ReqState {
        let phase = self.current_phase();
        let span =
            self.obs
                .span_begin(phase, &label, None, trace::current_worker(), self.api.now());
        ReqState {
            span,
            phase,
            label,
            transient: 0,
            waited: 0,
            // Overwritten by every attempt; only an interrupt before the
            // first attempt leaves the placeholder.
            last_outcome: SpanOutcome::Fault(FaultKind::Other),
        }
    }

    /// One server attempt of an in-flight request — one iteration of the
    /// legacy `request_attempts` loop, with every inline clock advance
    /// replaced by a [`ReqPoll::Wait`] yield.
    fn sched_attempt<T>(&self, st: &mut ReqState, f: impl FnOnce() -> Result<T>) -> ReqPoll<T> {
        if let Some(cap) = self.config.abort_after_requests {
            if self.requests_made.fetch_add(1, Ordering::Relaxed) >= cap {
                return self.sched_finish(st, Err(FlockError::Interrupted));
            }
        }
        self.m.attempts.inc();
        let before = self.api.now();
        let r = {
            let _guard = trace::span_scope(st.span);
            f()
        };
        let attempt = trace::take_attempt();
        let outcome = match (&r, attempt) {
            (_, Some(a)) => a.outcome,
            (Ok(_), None) => SpanOutcome::Granted,
            (Err(FlockError::RateLimited { .. }), None) => {
                SpanOutcome::RateLimited { storm: false }
            }
            (Err(FlockError::InstanceOutage { .. }), None)
            | (Err(FlockError::InstanceUnavailable(_)), None) => {
                SpanOutcome::Fault(FaultKind::Outage)
            }
            (Err(FlockError::StaleCursor(_)), None) => SpanOutcome::StaleCursor,
            (Err(_), None) => SpanOutcome::Fault(FaultKind::Other),
        };
        self.obs.span_attempt(
            st.span,
            st.phase,
            &st.label,
            trace::current_worker(),
            attempt.map(|a| a.family),
            outcome,
            before,
            before,
        );
        st.last_outcome = outcome;
        match r {
            Ok(v) => self.sched_finish(st, Ok(v)),
            Err(FlockError::RateLimited { retry_after_secs }) => {
                self.m.rate_limited.inc();
                let cause = if outcome == (SpanOutcome::RateLimited { storm: true }) {
                    WaitCause::RetryAfterStorm
                } else {
                    WaitCause::TokenBucket
                };
                self.sched_wait(st, retry_after_secs, before, cause)
            }
            Err(FlockError::InstanceOutage { retry_after_secs }) => {
                self.m.outage_waits.inc();
                self.sched_wait(st, retry_after_secs, before, WaitCause::Outage)
            }
            Err(e) if e.is_retryable() => {
                self.m.transient_failures.inc();
                st.transient += 1;
                if st.transient > self.config.max_transient_retries {
                    return self.sched_finish(st, Err(e));
                }
                self.obs.event(
                    before,
                    "crawler.transient_retry",
                    &format!("attempt {}: {e}", st.transient),
                );
                ReqPoll::Wait {
                    until: before.saturating_add(self.config.transient_backoff_secs),
                    bill: WaitBill {
                        span: st.span,
                        phase: st.phase,
                        cause: WaitCause::TransientBackoff,
                    },
                }
            }
            Err(e) => self.sched_finish(st, Err(e)),
        }
    }

    /// The yield counterpart of `Crawler::wait_out`: record the wait,
    /// enforce the cumulative cap, and hand the deadline to the executor
    /// instead of advancing the clock here. The charge happens when the
    /// event fires, for exactly the seconds the clock actually moves.
    fn sched_wait<T>(
        &self,
        st: &mut ReqState,
        retry_after_secs: u64,
        before: u64,
        cause: WaitCause,
    ) -> ReqPoll<T> {
        self.m.retry_wait_secs.record(retry_after_secs);
        st.waited = st.waited.saturating_add(retry_after_secs);
        if st.waited > self.config.max_rate_limit_wait_secs {
            self.m.budget_exhausted.inc();
            self.obs.event(
                before,
                "crawler.retry_budget_exhausted",
                &format!(
                    "waited {}s virtual > cap {}s",
                    st.waited, self.config.max_rate_limit_wait_secs
                ),
            );
            return self.sched_finish(
                st,
                Err(FlockError::RetryBudgetExhausted {
                    waited_secs: st.waited,
                }),
            );
        }
        ReqPoll::Wait {
            until: before.saturating_add(retry_after_secs),
            bill: WaitBill {
                span: st.span,
                phase: st.phase,
                cause,
            },
        }
    }

    fn sched_finish<T>(&self, st: &ReqState, r: Result<T>) -> ReqPoll<T> {
        self.obs.span_end(st.span, self.api.now(), st.last_outcome);
        ReqPoll::Done(r)
    }
}

/// Drive one attempt of a task's current request, opening the span lazily
/// on the first attempt and closing the slot when the request finishes.
fn attempt<T>(
    c: &Crawler,
    req: &mut Option<ReqState>,
    label: impl FnOnce() -> String,
    f: impl FnOnce() -> Result<T>,
) -> ReqPoll<T> {
    let st = match req {
        Some(st) => st,
        None => req.insert(c.sched_begin(label())),
    };
    let p = c.sched_attempt(st, f);
    if matches!(p, ReqPoll::Done(_)) {
        *req = None;
    }
    p
}

/// The API server's virtual clock, seen through the scheduler's eyes:
/// `advance_to` is `ApiServer::advance_clock_to`, so the executor owns
/// every clock movement of a scheduled phase.
struct ApiClock<'a>(&'a ApiServer);

impl Clock for ApiClock<'_> {
    fn now(&self) -> u64 {
        self.0.now()
    }

    fn advance_to(&self, deadline_secs: u64) -> u64 {
        self.0.advance_clock_to(deadline_secs)
    }
}

/// Run a batch of tasks on the executor: `workers` OS threads, up to
/// `window` logical tasks in flight, waits billed to the crawler's span
/// ledger at fire time. Returns the tasks in input order.
fn run_tasks<S>(c: &Crawler, window: usize, tasks: Vec<S>) -> Result<Vec<S>>
where
    S: Task<Bill = WaitBill>,
{
    let ex = Executor::new(c.config.workers, window)?;
    let obs = &c.obs;
    Ok(ex.run(&ApiClock(c.api), tasks, |bill, applied| {
        obs.attribute_wait(bill.span, bill.phase, bill.cause, applied);
    }))
}

/// Take a finished task's output. The executor drains every task to
/// `Done`, so a missing output can only mean a task lied about being
/// done; surface it as an interrupt rather than unwrapping.
fn take_output<T>(out: Option<Result<T>>) -> Result<T> {
    out.unwrap_or(Err(FlockError::Interrupted))
}

// ---- §3.2: Twitter timelines ---------------------------------------------

type TwitterOut = (Vec<TimelineTweet>, TwitterCrawlOutcome, Option<String>);

/// State machine mirror of `Crawler::crawl_one_twitter_timeline`.
struct TwitterTimelineTask<'c, 'a> {
    c: &'c Crawler<'a>,
    m: &'c MatchedUser,
    timeline: Vec<TimelineTweet>,
    cursor: Option<String>,
    req: Option<ReqState>,
    out: Option<Result<TwitterOut>>,
}

impl TwitterTimelineTask<'_, '_> {
    fn finish(&mut self, outcome: TwitterCrawlOutcome, skip: Option<String>) -> Step<WaitBill> {
        self.out = Some(Ok((std::mem::take(&mut self.timeline), outcome, skip)));
        Step::Done
    }
}

impl Task for TwitterTimelineTask<'_, '_> {
    type Bill = WaitBill;

    fn poll(&mut self, _now: u64) -> Step<WaitBill> {
        if self.out.is_some() {
            return Step::Done;
        }
        let (c, m) = (self.c, self.m);
        let cursor = self.cursor.clone();
        let r = match attempt(
            c,
            &mut self.req,
            || format!("twitter_timeline:{}", m.twitter_id.0),
            || {
                c.api.twitter_timeline(
                    m.twitter_id,
                    Day::STUDY_START,
                    Day::STUDY_END,
                    cursor.as_deref(),
                )
            },
        ) {
            ReqPoll::Wait { until, bill } => return Step::Wait { until, bill },
            ReqPoll::Done(r) => r,
        };
        match r {
            Ok(page) => {
                self.timeline
                    .extend(page.items.into_iter().map(|t| TimelineTweet {
                        id: t.id,
                        day: t.day,
                        text: t.text,
                        source: t.source,
                    }));
                match page.next {
                    Some(cur) => {
                        self.cursor = Some(cur);
                        Step::Ready
                    }
                    None => self.finish(TwitterCrawlOutcome::Ok, None),
                }
            }
            Err(FlockError::Forbidden(msg)) => {
                let outcome = if msg.contains("suspended") {
                    TwitterCrawlOutcome::Suspended
                } else {
                    TwitterCrawlOutcome::Protected
                };
                self.finish(outcome, None)
            }
            Err(FlockError::NotFound(_)) => self.finish(TwitterCrawlOutcome::Deleted, None),
            Err(FlockError::Interrupted) => {
                self.out = Some(Err(FlockError::Interrupted));
                Step::Done
            }
            Err(e) if e.is_retryable() => {
                self.finish(TwitterCrawlOutcome::Unreachable, Some(e.to_string()))
            }
            Err(_) => self.finish(TwitterCrawlOutcome::Deleted, None),
        }
    }
}

/// Scheduled variant of the Twitter-timeline fan-out; results in
/// `matched` order, exactly like the worker-pool merge.
pub(crate) fn twitter_timelines(
    c: &Crawler,
    matched: &[MatchedUser],
    window: usize,
) -> Result<Vec<TwitterOut>> {
    let tasks: Vec<TwitterTimelineTask> = matched
        .iter()
        .map(|m| TwitterTimelineTask {
            c,
            m,
            timeline: Vec::new(),
            cursor: None,
            req: None,
            out: None,
        })
        .collect();
    let done = run_tasks(c, window, tasks)?;
    let mut merged = Vec::with_capacity(done.len());
    for t in done {
        merged.push(take_output(t.out)?);
    }
    Ok(merged)
}

// ---- §3.2: Mastodon timelines --------------------------------------------

type MastodonOut = (Vec<TimelineStatus>, MastodonCrawlOutcome, Option<String>);

/// State machine mirror of `Crawler::crawl_one_mastodon_timeline`: walk
/// each source handle's status pages (a switched user's pre-move statuses
/// live on the first instance), then classify.
struct MastodonTimelineTask<'c, 'a> {
    c: &'c Crawler<'a>,
    sources: Vec<MastodonHandle>,
    src: usize,
    cursor: Option<String>,
    statuses: Vec<TimelineStatus>,
    any_down: bool,
    skip: Option<String>,
    req: Option<ReqState>,
    out: Option<Result<MastodonOut>>,
}

impl MastodonTimelineTask<'_, '_> {
    fn next_source(&mut self) -> Step<WaitBill> {
        self.src += 1;
        self.cursor = None;
        Step::Ready
    }

    fn finalize(&mut self) -> Step<WaitBill> {
        let mut statuses = std::mem::take(&mut self.statuses);
        let out = if statuses.is_empty() {
            if self.any_down {
                (statuses, MastodonCrawlOutcome::InstanceDown, None)
            } else if self.skip.is_some() {
                (
                    statuses,
                    MastodonCrawlOutcome::Unreachable,
                    self.skip.take(),
                )
            } else {
                (statuses, MastodonCrawlOutcome::NoStatuses, None)
            }
        } else {
            statuses.sort_by_key(|s| s.day);
            (statuses, MastodonCrawlOutcome::Ok, None)
        };
        self.out = Some(Ok(out));
        Step::Done
    }
}

impl Task for MastodonTimelineTask<'_, '_> {
    type Bill = WaitBill;

    fn poll(&mut self, _now: u64) -> Step<WaitBill> {
        if self.out.is_some() {
            return Step::Done;
        }
        let Some(src) = self.sources.get(self.src).cloned() else {
            return self.finalize();
        };
        let c = self.c;
        let cursor = self.cursor.clone();
        let r = match attempt(
            c,
            &mut self.req,
            || format!("statuses:{src}"),
            || c.api.mastodon_account_statuses(&src, cursor.as_deref()),
        ) {
            ReqPoll::Wait { until, bill } => return Step::Wait { until, bill },
            ReqPoll::Done(r) => r,
        };
        match r {
            Ok(page) => {
                self.statuses
                    .extend(page.items.into_iter().map(|s| TimelineStatus {
                        day: s.day,
                        text: s.content,
                    }));
                match page.next {
                    Some(cur) => {
                        self.cursor = Some(cur);
                        Step::Ready
                    }
                    None => self.next_source(),
                }
            }
            Err(FlockError::InstanceUnavailable(_)) => {
                self.any_down = true;
                self.next_source()
            }
            Err(FlockError::Interrupted) => {
                self.out = Some(Err(FlockError::Interrupted));
                Step::Done
            }
            Err(e) if e.is_retryable() => {
                self.skip = Some(e.to_string());
                self.next_source()
            }
            Err(_) => self.next_source(),
        }
    }
}

/// Scheduled variant of the Mastodon-timeline fan-out; results in
/// `matched` order.
pub(crate) fn mastodon_timelines(
    c: &Crawler,
    matched: &[MatchedUser],
    window: usize,
) -> Result<Vec<MastodonOut>> {
    let tasks: Vec<MastodonTimelineTask> = matched
        .iter()
        .map(|m| {
            let mut sources = vec![m.resolved_handle.clone()];
            if m.switched() {
                sources.push(m.handle.clone());
            }
            MastodonTimelineTask {
                c,
                sources,
                src: 0,
                cursor: None,
                statuses: Vec::new(),
                any_down: false,
                skip: None,
                req: None,
                out: None,
            }
        })
        .collect();
    let done = run_tasks(c, window, tasks)?;
    let mut merged = Vec::with_capacity(done.len());
    for t in done {
        merged.push(take_output(t.out)?);
    }
    Ok(merged)
}

// ---- §3.3: followees ------------------------------------------------------

type FolloweeOut = (Option<FolloweeRecord>, Option<String>);

enum FolloweeStage {
    Twitter,
    Mastodon,
}

/// State machine mirror of `Crawler::crawl_one_followees`: the Twitter
/// side first (the endpoint the record hinges on), then the Mastodon
/// side, which the record survives without.
struct FolloweeTask<'c, 'a> {
    c: &'c Crawler<'a>,
    m: &'c MatchedUser,
    stage: FolloweeStage,
    twitter: Vec<TwitterUserId>,
    mastodon: Vec<MastodonHandle>,
    cursor: Option<String>,
    req: Option<ReqState>,
    out: Option<Result<FolloweeOut>>,
}

impl FolloweeTask<'_, '_> {
    fn finish_record(&mut self) -> Step<WaitBill> {
        self.out = Some(Ok((
            Some(FolloweeRecord {
                twitter: std::mem::take(&mut self.twitter),
                mastodon: std::mem::take(&mut self.mastodon),
            }),
            None,
        )));
        Step::Done
    }
}

impl Task for FolloweeTask<'_, '_> {
    type Bill = WaitBill;

    fn poll(&mut self, _now: u64) -> Step<WaitBill> {
        if self.out.is_some() {
            return Step::Done;
        }
        let (c, m) = (self.c, self.m);
        let cursor = self.cursor.clone();
        match self.stage {
            FolloweeStage::Twitter => {
                let r = match attempt(
                    c,
                    &mut self.req,
                    || format!("twitter_following:{}", m.twitter_id.0),
                    || c.api.twitter_following(m.twitter_id, cursor.as_deref()),
                ) {
                    ReqPoll::Wait { until, bill } => return Step::Wait { until, bill },
                    ReqPoll::Done(r) => r,
                };
                match r {
                    Ok(page) => {
                        self.twitter.extend(page.items);
                        match page.next {
                            Some(cur) => self.cursor = Some(cur),
                            None => {
                                self.stage = FolloweeStage::Mastodon;
                                self.cursor = None;
                            }
                        }
                        Step::Ready
                    }
                    Err(FlockError::Interrupted) => {
                        self.out = Some(Err(FlockError::Interrupted));
                        Step::Done
                    }
                    // Chaos/transient exhaustion is a coverage gap worth
                    // reporting; protected or deleted accounts are
                    // expected states and skip silently.
                    Err(e) if e.is_retryable() => {
                        self.out = Some(Ok((None, Some(e.to_string()))));
                        Step::Done
                    }
                    Err(_) => {
                        self.out = Some(Ok((None, None)));
                        Step::Done
                    }
                }
            }
            FolloweeStage::Mastodon => {
                let r = match attempt(
                    c,
                    &mut self.req,
                    || format!("mastodon_following:{}", m.resolved_handle),
                    || {
                        c.api
                            .mastodon_account_following(&m.resolved_handle, cursor.as_deref())
                    },
                ) {
                    ReqPoll::Wait { until, bill } => return Step::Wait { until, bill },
                    ReqPoll::Done(r) => r,
                };
                match r {
                    Ok(page) => {
                        self.mastodon.extend(page.items);
                        match page.next {
                            Some(cur) => {
                                self.cursor = Some(cur);
                                Step::Ready
                            }
                            None => self.finish_record(),
                        }
                    }
                    Err(FlockError::Interrupted) => {
                        self.out = Some(Err(FlockError::Interrupted));
                        Step::Done
                    }
                    // The record survives without the Mastodon side.
                    Err(_) => self.finish_record(),
                }
            }
        }
    }
}

/// Scheduled variant of the followee fan-out; results in `targets` order.
pub(crate) fn followees(
    c: &Crawler,
    targets: &[MatchedUser],
    window: usize,
) -> Result<Vec<FolloweeOut>> {
    let tasks: Vec<FolloweeTask> = targets
        .iter()
        .map(|m| FolloweeTask {
            c,
            m,
            stage: FolloweeStage::Twitter,
            twitter: Vec::new(),
            mastodon: Vec::new(),
            cursor: None,
            req: None,
            out: None,
        })
        .collect();
    let done = run_tasks(c, window, tasks)?;
    let mut merged = Vec::with_capacity(done.len());
    for t in done {
        merged.push(take_output(t.out)?);
    }
    Ok(merged)
}

// ---- Fig. 3 cross-check: weekly activity ----------------------------------

/// Per-instance outcome of the scheduled weekly-activity crawl, merged
/// into the dataset by the caller in `domains` order.
pub(crate) enum WeeklyOutcome {
    Rows(Vec<ActivityRow>),
    /// Down instances simply stay absent.
    Down,
    /// Retries exhausted; recorded as a coverage gap.
    Skipped(String),
}

struct WeeklyActivityTask<'c, 'a> {
    c: &'c Crawler<'a>,
    domain: &'c str,
    req: Option<ReqState>,
    out: Option<Result<WeeklyOutcome>>,
}

impl Task for WeeklyActivityTask<'_, '_> {
    type Bill = WaitBill;

    fn poll(&mut self, _now: u64) -> Step<WaitBill> {
        if self.out.is_some() {
            return Step::Done;
        }
        let (c, domain) = (self.c, self.domain);
        let r = match attempt(
            c,
            &mut self.req,
            || format!("weekly_activity:{domain}"),
            || c.api.mastodon_instance_activity(domain),
        ) {
            ReqPoll::Wait { until, bill } => return Step::Wait { until, bill },
            ReqPoll::Done(r) => r,
        };
        self.out = Some(match r {
            Ok(rows) => Ok(WeeklyOutcome::Rows(rows)),
            Err(FlockError::InstanceUnavailable(_)) => Ok(WeeklyOutcome::Down),
            Err(e) if e.is_retryable() => Ok(WeeklyOutcome::Skipped(e.to_string())),
            Err(e) => Err(e),
        });
        Step::Done
    }
}

/// Scheduled variant of the weekly-activity crawl; outcomes in `domains`
/// order, so coverage gaps are recorded in the same order the legacy
/// serial loop records them.
pub(crate) fn weekly_activity(
    c: &Crawler,
    domains: &[String],
    window: usize,
) -> Result<Vec<WeeklyOutcome>> {
    let tasks: Vec<WeeklyActivityTask> = domains
        .iter()
        .map(|domain| WeeklyActivityTask {
            c,
            domain,
            req: None,
            out: None,
        })
        .collect();
    let done = run_tasks(c, window, tasks)?;
    let mut merged = Vec::with_capacity(done.len());
    for t in done {
        merged.push(take_output(t.out)?);
    }
    Ok(merged)
}
