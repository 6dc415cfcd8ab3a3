//! The global-list crawler as a discrete-event simulation.
//!
//! The control server shows 50 *random* live broadcasts per query, so one
//! slow poller misses short broadcasts. The paper ran enough accounts for
//! an effective refresh every 0.25 s and verified that 0.5 s already
//! captures everything. This module reproduces that calibration: spawn
//! broadcasts with realistic lifetimes, run `accounts` staggered pollers,
//! and report discovery coverage and latency.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use livescope_cdn::control::ControlServer;
use livescope_cdn::ids::{BroadcastId, UserId};
use livescope_net::geo::GeoPoint;
use livescope_sim::process::{ticker, Tick};
use livescope_sim::{
    dist, BackendEvent, RngPool, SchedulerBackend, ShardId, ShardedScheduler, SimDuration, SimTime,
};
use livescope_telemetry::{CounterId, Telemetry, TraceEvent};

/// Crawler-calibration scenario.
#[derive(Clone, Copy, Debug)]
pub struct CoverageConfig {
    /// Crawler accounts; each refreshes every [`CoverageConfig::account_refresh`].
    pub accounts: usize,
    /// Per-account refresh period (the app's native 5 s).
    pub account_refresh: SimDuration,
    /// Broadcast arrival rate, broadcasts per second.
    pub arrivals_per_sec: f64,
    /// Mean broadcast duration, seconds (lognormal-ish mix like Fig 3).
    pub duration_median_s: f64,
    /// Lognormal sigma of broadcast duration.
    pub duration_sigma: f64,
    /// Simulated span.
    pub horizon: SimDuration,
    /// Seed for the crawl simulation's RNG pool.
    pub seed: u64,
}

impl CoverageConfig {
    /// The paper's production configuration: 20 accounts × 5 s ⇒ one
    /// refresh per 0.25 s.
    pub fn paper_production() -> Self {
        CoverageConfig {
            accounts: 20,
            account_refresh: SimDuration::from_secs(5),
            arrivals_per_sec: 2.0,
            duration_median_s: 150.0,
            duration_sigma: 1.1,
            horizon: SimDuration::from_secs(1_800),
            seed: 0xC0DE,
        }
    }

    /// Effective refresh interval across all accounts.
    pub fn effective_refresh(&self) -> SimDuration {
        self.account_refresh / self.accounts.max(1) as u64
    }

    /// Sanity-checks the knobs; [`run_coverage_traced`] calls this first.
    /// A zero refresh or a non-positive arrival rate would make the
    /// simulation re-fire at one instant forever.
    pub fn validate(&self) -> Result<(), String> {
        if self.accounts == 0 {
            return Err("accounts must be at least 1".into());
        }
        if self.account_refresh.is_zero() {
            return Err("account_refresh must be non-zero".into());
        }
        let positive = |name: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be finite and > 0, got {v}"))
            }
        };
        positive("arrivals_per_sec", self.arrivals_per_sec)?;
        positive("duration_median_s", self.duration_median_s)?;
        if !(self.duration_sigma.is_finite() && self.duration_sigma >= 0.0) {
            return Err(format!(
                "duration_sigma must be finite and >= 0, got {}",
                self.duration_sigma
            ));
        }
        Ok(())
    }
}

/// What the calibration run measured.
#[derive(Clone, Copy, Debug)]
pub struct CoverageReport {
    /// Broadcasts that went live inside the horizon.
    pub started: u64,
    /// Of those, how many the crawler saw before they ended.
    pub discovered: u64,
    /// Fraction discovered.
    pub coverage: f64,
    /// Mean start→discovery latency over discovered broadcasts, seconds.
    pub mean_discovery_latency_s: f64,
    /// Global-list queries issued.
    pub queries: u64,
}

struct World {
    control: ControlServer,
    tokens: BTreeMap<BroadcastId, String>,
    started: u64,
    discovery: BTreeMap<BroadcastId, SimDuration>,
    start_times: BTreeMap<BroadcastId, SimTime>,
    queries: u64,
    rng: SmallRng,
    arrivals_per_sec: f64,
    duration_median_s: f64,
    duration_sigma: f64,
    next_user: u64,
    telemetry: Telemetry,
    c_queries: CounterId,
    c_discovered: CounterId,
}

/// Runs the calibration simulation with telemetry disabled.
pub fn run_coverage(config: &CoverageConfig) -> CoverageReport {
    run_coverage_traced(config, &Telemetry::disabled())
}

/// Runs the calibration simulation, emitting query/discovery counters and
/// a `BroadcastDiscovered` trace event the first time any account sees a
/// broadcast. Panics on an invalid config ([`CoverageConfig::validate`]).
pub fn run_coverage_traced(config: &CoverageConfig, telemetry: &Telemetry) -> CoverageReport {
    if let Err(e) = config.validate() {
        panic!("invalid CoverageConfig: {e}");
    }
    let pool = RngPool::new(config.seed);
    let world = World {
        control: {
            let mut control =
                ControlServer::new(SmallRng::seed_from_u64(pool.stream_seed("control")), 100);
            control.attach_telemetry(telemetry);
            control
        },
        tokens: BTreeMap::new(),
        started: 0,
        discovery: BTreeMap::new(),
        start_times: BTreeMap::new(),
        queries: 0,
        rng: SmallRng::seed_from_u64(pool.stream_seed("arrivals")),
        arrivals_per_sec: config.arrivals_per_sec,
        duration_median_s: config.duration_median_s,
        duration_sigma: config.duration_sigma,
        next_user: 1,
        telemetry: telemetry.clone(),
        c_queries: telemetry.counter("crawler.global_list_queries"),
        c_discovered: telemetry.counter("crawler.broadcasts_discovered"),
    };
    let horizon = SimTime::ZERO + config.horizon;
    let mut sched = ShardedScheduler::new(pool, vec![world], SimDuration::from_secs(1));
    sched.set_telemetry(telemetry);

    // Broadcast arrival process: exponential inter-arrivals; each
    // broadcast schedules its own end.
    fn arrive(horizon: SimTime) -> BackendEvent<World> {
        Box::new(move |ctx, world: &mut World| {
            let now = ctx.now();
            if now >= horizon {
                return;
            }
            if now > SimTime::ZERO {
                let user = UserId(world.next_user);
                world.next_user += 1;
                let location = GeoPoint::new(37.77, -122.42);
                let grant = world.control.create_broadcast(now, user, &location);
                world.tokens.insert(grant.id, grant.token.clone());
                world.started += 1;
                world.start_times.insert(grant.id, now);
                let duration = SimDuration::from_secs_f64(
                    dist::log_normal(
                        &mut world.rng,
                        world.duration_median_s.ln(),
                        world.duration_sigma,
                    )
                    .clamp(5.0, 3_600.0),
                );
                let id = grant.id;
                ctx.schedule_in(
                    duration,
                    Box::new(move |ctx, world: &mut World| {
                        let token = world.tokens[&id].clone();
                        world
                            .control
                            .end_broadcast(ctx.now(), id, &token)
                            .expect("broadcast ends once");
                    }),
                );
            }
            let gap = SimDuration::from_secs_f64(dist::exponential(
                &mut world.rng,
                1.0 / world.arrivals_per_sec,
            ));
            ctx.schedule_in(gap, arrive(horizon));
        })
    }
    sched.schedule(ShardId(0), SimTime::ZERO, arrive(horizon));

    // Crawler accounts, staggered across the refresh period.
    for account in 0..config.accounts {
        let offset = config
            .account_refresh
            .mul_f64(account as f64 / config.accounts as f64);
        let poll = ticker(config.account_refresh, |ctx, world: &mut World| {
            let now = ctx.now();
            world.queries += 1;
            world.telemetry.add(world.c_queries, 1);
            for summary in world.control.global_list() {
                let id = BroadcastId(summary.broadcast_id);
                let start = world.start_times[&id];
                if let std::collections::btree_map::Entry::Vacant(slot) = world.discovery.entry(id)
                {
                    slot.insert(now.saturating_since(start));
                    world.telemetry.add(world.c_discovered, 1);
                    ctx.emit(TraceEvent::BroadcastDiscovered {
                        broadcast: id.0,
                        started_us: start.as_micros(),
                    });
                }
            }
            Tick::Again
        });
        sched.schedule(ShardId(0), SimTime::ZERO + offset, poll);
    }

    sched.run_until(horizon);
    let world = sched.into_states().pop().expect("one shard");

    let discovered = world.discovery.len() as u64;
    let mean_latency = if discovered > 0 {
        world
            .discovery
            .values()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / discovered as f64
    } else {
        0.0
    };
    CoverageReport {
        started: world.started,
        discovered,
        coverage: if world.started > 0 {
            discovered as f64 / world.started as f64
        } else {
            0.0
        },
        mean_discovery_latency_s: mean_latency,
        queries: world.queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(accounts: usize, refresh_s: f64) -> CoverageReport {
        run_coverage(&CoverageConfig {
            accounts,
            account_refresh: SimDuration::from_secs_f64(refresh_s),
            arrivals_per_sec: 1.0,
            duration_median_s: 90.0,
            duration_sigma: 1.0,
            horizon: SimDuration::from_secs(600),
            seed: 7,
        })
    }

    #[test]
    fn production_rate_captures_everything() {
        // 20 accounts × 5 s ⇒ 0.25 s effective: full coverage (§3.1).
        let report = quick(20, 5.0);
        assert!(report.started > 300, "arrival process too quiet");
        assert!(
            report.coverage > 0.99,
            "coverage {} at 0.25s effective refresh",
            report.coverage
        );
    }

    #[test]
    fn half_second_refresh_is_still_exhaustive() {
        // The paper's calibration claim: 0.5 s already captures the same
        // set as 0.25 s.
        let report = quick(10, 5.0);
        assert!(
            report.coverage > 0.99,
            "coverage {} at 0.5s effective refresh",
            report.coverage
        );
    }

    #[test]
    fn single_slow_account_misses_broadcasts() {
        // One account at 60 s refresh: 50-sample queries can't keep up
        // with short-lived broadcasts.
        let report = quick(1, 60.0);
        assert!(
            report.coverage < 0.95,
            "a slow crawler should miss some ({})",
            report.coverage
        );
    }

    #[test]
    fn more_accounts_means_faster_discovery() {
        let slow = quick(2, 5.0);
        let fast = quick(20, 5.0);
        assert!(
            fast.mean_discovery_latency_s < slow.mean_discovery_latency_s,
            "fast {} vs slow {}",
            fast.mean_discovery_latency_s,
            slow.mean_discovery_latency_s
        );
    }

    #[test]
    fn query_volume_matches_accounts_times_rate() {
        let report = quick(4, 10.0);
        // 600 s / 10 s × 4 accounts = 240 queries (±1 per account for
        // boundary effects).
        assert!(
            (236..=244).contains(&report.queries),
            "queries {}",
            report.queries
        );
    }

    #[test]
    fn crawler_coverage_rows_are_pinned() {
        // The five `crawler_coverage` artifact rows over
        // `paper_production()`, pinned absolutely: (accounts, refresh s,
        // started, discovered, queries, coverage bits, latency bits).
        #[rustfmt::skip]
        const ROWS: [(usize, u64, u64, u64, u64, u64, u64); 5] = [
            (20, 5, 3550, 3545, 7201, 0x3feff47643c931c2, 0x4000476627e3dc55),
            (10, 5, 3550, 3542, 3601, 0x3fefed8a060eb603, 0x400fd214646b36aa),
            (4, 5, 3550, 3487, 1441, 0x3fef6e9eefb3d959, 0x40236a697162274c),
            (1, 5, 3550, 3104, 361, 0x3febfaced1b42331, 0x40402917d540c216),
            (1, 30, 3550, 1678, 61, 0x3fde405312e4bdcd, 0x40598481e85a9d4e),
        ];
        for (accounts, refresh_s, started, discovered, queries, coverage, latency) in ROWS {
            let r = run_coverage(&CoverageConfig {
                accounts,
                account_refresh: SimDuration::from_secs(refresh_s),
                ..CoverageConfig::paper_production()
            });
            let row = (accounts, refresh_s);
            assert_eq!(r.started, started, "{row:?} started");
            assert_eq!(r.discovered, discovered, "{row:?} discovered");
            assert_eq!(r.queries, queries, "{row:?} queries");
            assert_eq!(r.coverage.to_bits(), coverage, "{row:?} coverage");
            assert_eq!(
                r.mean_discovery_latency_s.to_bits(),
                latency,
                "{row:?} mean_discovery_latency_s"
            );
        }
    }

    #[test]
    fn paper_production_validates() {
        CoverageConfig::paper_production().validate().unwrap();
    }

    #[test]
    fn validate_names_every_bad_arrival_rate() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let config = CoverageConfig {
                arrivals_per_sec: rate,
                ..CoverageConfig::paper_production()
            };
            let err = config.validate().unwrap_err();
            assert!(err.contains("arrivals_per_sec"), "{rate}: {err}");
        }
    }

    fn run_invalid(edit: impl FnOnce(&mut CoverageConfig)) {
        let mut config = CoverageConfig::paper_production();
        edit(&mut config);
        run_coverage(&config);
    }

    #[test]
    #[should_panic(expected = "invalid CoverageConfig: accounts")]
    fn zero_accounts_is_rejected() {
        run_invalid(|c| c.accounts = 0);
    }

    #[test]
    #[should_panic(expected = "invalid CoverageConfig: account_refresh")]
    fn zero_refresh_is_rejected() {
        run_invalid(|c| c.account_refresh = SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid CoverageConfig: arrivals_per_sec")]
    fn negative_arrival_rate_is_rejected() {
        // Before validation this never returned: every inter-arrival gap
        // was zero, so arrivals re-fired at one instant forever.
        run_invalid(|c| c.arrivals_per_sec = -2.0);
    }

    #[test]
    #[should_panic(expected = "invalid CoverageConfig: duration_median_s")]
    fn non_finite_duration_median_is_rejected() {
        run_invalid(|c| c.duration_median_s = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid CoverageConfig: duration_sigma")]
    fn negative_duration_sigma_is_rejected() {
        run_invalid(|c| c.duration_sigma = -0.5);
    }

    #[test]
    fn effective_refresh_math() {
        let c = CoverageConfig::paper_production();
        assert_eq!(c.effective_refresh(), SimDuration::from_millis(250));
    }

    #[test]
    fn traced_coverage_emits_one_discovery_event_per_broadcast() {
        let telemetry = Telemetry::recording(1 << 16);
        let report = run_coverage_traced(
            &CoverageConfig {
                accounts: 4,
                account_refresh: SimDuration::from_secs(5),
                arrivals_per_sec: 0.5,
                duration_median_s: 90.0,
                duration_sigma: 1.0,
                horizon: SimDuration::from_secs(300),
                seed: 9,
            },
            &telemetry,
        );
        let discoveries = telemetry
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::BroadcastDiscovered { .. }))
            .count() as u64;
        assert_eq!(discoveries, report.discovered);
        let snapshot = telemetry.snapshot();
        assert_eq!(
            snapshot.counter("crawler.global_list_queries"),
            Some(report.queries)
        );
        assert_eq!(
            snapshot.counter("crawler.broadcasts_discovered"),
            Some(report.discovered)
        );
        // The traced run must not change the simulation itself.
        let plain = run_coverage(&CoverageConfig {
            accounts: 4,
            account_refresh: SimDuration::from_secs(5),
            arrivals_per_sec: 0.5,
            duration_median_s: 90.0,
            duration_sigma: 1.0,
            horizon: SimDuration::from_secs(300),
            seed: 9,
        });
        assert_eq!(plain.discovered, report.discovered);
        assert_eq!(plain.queries, report.queries);
    }
}
