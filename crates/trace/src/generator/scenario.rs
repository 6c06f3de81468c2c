//! Adversarial scenario transforms over generated demand streams.
//!
//! The fault grammar ([`super::faults`]) corrupts CSV *text* to stress the
//! ingestion layer; this module stresses the *policies*: it reshapes a
//! clean demand stream into the adversarial load patterns on which
//! AP-selection strategies actually disagree — benign campus days look
//! the same under almost any sane policy. Like the fault injector, every
//! transform is deterministic: the same demands, spec and seed always
//! yield the same scenario (`s3wlan generate --scenario <spec>`).
//!
//! Spec grammar (comma-separated, see `docs/STRATEGIES.md`):
//!
//! ```text
//! surge=N:DAY:HOUR   flash crowd: N users converge on the day's hottest
//!                    building in the hour starting HOUR
//! outage=B:DAY:HOURS rolling outage: B buildings go dark back-to-back for
//!                    HOURS each from 08:00; their arrivals displace to the
//!                    next building
//! roam=N             N users' longest sessions split across two buildings
//! caps=uniform|tiered heterogeneous AP capacities (150/100/50 Mb/s tiers
//!                    by AP id; advisory — consumed at topology build)
//! ```
//!
//! Preset names expand to canonical specs and may be mixed with grammar
//! elements: `benign`, `flash-crowd`, `rolling-outage`, `hetero-caps`,
//! `roaming`. Presets are resolved against the trace's day span, so
//! [`ScenarioSpec::parse`] takes the configured number of days.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use s3_obs::{Desc, Stability, Unit};
use s3_types::{BitsPerSec, BuildingId, TimeDelta, Timestamp};

use super::CampusConfig;
use crate::record::SessionDemand;

// Scenario metrics (documented in docs/METRICS.md).
static SCENARIO_SURGED: Desc = Desc {
    name: "trace.scenario.surged",
    help: "Flash-crowd sessions added to generated demand streams",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static SCENARIO_DISPLACED: Desc = Desc {
    name: "trace.scenario.displaced",
    help: "Sessions displaced to a neighbour building by scenario outages",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static SCENARIO_ROAMED: Desc = Desc {
    name: "trace.scenario.roamed",
    help: "Sessions split across buildings by scenario roaming",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// Per-AP capacity profile of a scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CapacityProfile {
    /// Every AP keeps the topology default.
    #[default]
    Uniform,
    /// Three capacity tiers — 150, 100 and 50 Mb/s — assigned round-robin
    /// by dense AP id, so tiers vary *within* every controller domain and
    /// capacity-aware strategies face genuinely unequal candidates.
    Tiered,
}

impl CapacityProfile {
    /// The AP capacity override for the AP with dense index `ap_index`, or
    /// `None` to keep the topology default. Advisory: demand transforms
    /// never read it; the consumer applies it when building the
    /// `s3_wlan`-style topology.
    pub fn capacity_of(&self, ap_index: usize) -> Option<BitsPerSec> {
        match self {
            CapacityProfile::Uniform => None,
            CapacityProfile::Tiered => {
                const TIERS_MBPS: [f64; 3] = [150.0, 100.0, 50.0];
                Some(BitsPerSec::mbps(TIERS_MBPS[ap_index % 3]))
            }
        }
    }
}

/// What to apply, parsed from the `--scenario` spec string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Users pulled into the flash crowd.
    pub surge_users: usize,
    /// Day of the flash crowd (clamped to the trace's last day).
    pub surge_day: u64,
    /// Hour of day the flash crowd starts.
    pub surge_hour: u64,
    /// Buildings taken dark by the rolling outage.
    pub outage_buildings: usize,
    /// Day of the rolling outage (clamped to the trace's last day).
    pub outage_day: u64,
    /// Hours each building stays dark (windows are back-to-back).
    pub outage_hours: u64,
    /// Users whose longest session splits across two buildings.
    pub roam_users: usize,
    /// AP capacity profile.
    pub capacity: CapacityProfile,
}

impl ScenarioSpec {
    /// Parses the `--scenario` grammar (see the module docs). `days` is
    /// the trace's configured span, used to anchor presets near the end of
    /// the trace (where evaluation windows live).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending element.
    pub fn parse(spec: &str, days: u64) -> Result<ScenarioSpec, String> {
        let late_day = days.saturating_sub(2);
        let mut out = ScenarioSpec::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (part, None),
            };
            let count = |v: Option<&str>| -> Result<usize, String> {
                v.ok_or_else(|| format!("scenario {key:?} needs =N"))?
                    .parse::<usize>()
                    .map_err(|e| format!("bad count in scenario element {part:?}: {e}"))
            };
            let triple = |v: Option<&str>| -> Result<(usize, u64, u64), String> {
                let v = v.ok_or_else(|| format!("scenario {key:?} needs =N:DAY:HOURS"))?;
                let mut it = v.splitn(3, ':');
                let err = || format!("scenario element {part:?} needs N:DAY:HOURS");
                let n = it
                    .next()
                    .ok_or_else(err)?
                    .parse::<usize>()
                    .map_err(|e| format!("bad count in scenario element {part:?}: {e}"))?;
                let day = it
                    .next()
                    .ok_or_else(err)?
                    .parse::<u64>()
                    .map_err(|e| format!("bad day in scenario element {part:?}: {e}"))?;
                let hours = it
                    .next()
                    .ok_or_else(err)?
                    .parse::<u64>()
                    .map_err(|e| format!("bad hours in scenario element {part:?}: {e}"))?;
                Ok((n, day, hours))
            };
            let flag = |v: Option<&str>| -> Result<(), String> {
                if v.is_some() {
                    return Err(format!("scenario preset {key:?} takes no value"));
                }
                Ok(())
            };
            match key {
                "surge" => (out.surge_users, out.surge_day, out.surge_hour) = triple(value)?,
                "outage" => {
                    (out.outage_buildings, out.outage_day, out.outage_hours) = triple(value)?
                }
                "roam" => out.roam_users = count(value)?,
                "caps" => {
                    out.capacity = match value {
                        Some("uniform") => CapacityProfile::Uniform,
                        Some("tiered") => CapacityProfile::Tiered,
                        _ => {
                            return Err(format!(
                                "scenario element {part:?} needs caps=uniform|tiered"
                            ))
                        }
                    }
                }
                "benign" => flag(value)?,
                "flash-crowd" => {
                    flag(value)?;
                    (out.surge_users, out.surge_day, out.surge_hour) = (300, late_day, 9);
                }
                "rolling-outage" => {
                    flag(value)?;
                    (out.outage_buildings, out.outage_day, out.outage_hours) = (3, late_day, 2);
                }
                "hetero-caps" => {
                    flag(value)?;
                    out.capacity = CapacityProfile::Tiered;
                }
                "roaming" => {
                    flag(value)?;
                    out.roam_users = 200;
                }
                _ => {
                    return Err(format!(
                        "unknown scenario element {part:?} (known: surge, outage, roam, \
                         caps, benign, flash-crowd, rolling-outage, hetero-caps, roaming)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// True when the spec transforms nothing (capacity profiles are
    /// advisory and do not touch demands).
    pub fn is_empty(&self) -> bool {
        *self == ScenarioSpec::default()
    }
}

/// Exactly what one [`apply_scenario`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioLog {
    /// Flash-crowd sessions added.
    pub surged: u64,
    /// Sessions displaced to a neighbour building by outages.
    pub displaced: u64,
    /// Sessions split across buildings by roaming.
    pub roamed: u64,
}

impl ScenarioLog {
    /// Total demand-stream edits.
    pub fn total(&self) -> u64 {
        self.surged + self.displaced + self.roamed
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "scenario applied {} edits: surged {}, displaced {}, roamed {}",
            self.total(),
            self.surged,
            self.displaced,
            self.roamed
        )
    }
}

/// Distinct users of the stream, ascending — the deterministic sampling
/// pool for surge and roam picks.
fn distinct_users(demands: &[SessionDemand]) -> Vec<s3_types::UserId> {
    let mut users: Vec<_> = demands.iter().map(|d| d.user).collect();
    users.sort_unstable();
    users.dedup();
    users
}

/// Applies `spec` to a generated demand stream in place, re-sorting it by
/// `(arrive, user)` afterwards (the generator's canonical order). The
/// same demands, spec and seed always produce the same stream.
///
/// Transforms run in a fixed order — surge, outage, roam — each drawing
/// from one seeded RNG. Days beyond the stream's configured span clamp to
/// the last day, so presets stay meaningful on tiny configs.
pub fn apply_scenario(
    demands: &mut Vec<SessionDemand>,
    config: &CampusConfig,
    spec: &ScenarioSpec,
    seed: u64,
) -> ScenarioLog {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CE2_A210);
    let mut log = ScenarioLog::default();
    let last_day = config.days.saturating_sub(1);

    // Flash crowd: N users converge on the hottest building of the day.
    if spec.surge_users > 0 {
        let day = spec.surge_day.min(last_day);
        let mut per_building = vec![0usize; config.buildings];
        for d in demands.iter() {
            if d.arrive.day() == day {
                per_building[d.building.index()] += 1;
            }
        }
        let hot = BuildingId::new(
            per_building
                .iter()
                .enumerate()
                .max_by_key(|&(i, &n)| (n, usize::MAX - i))
                .map(|(i, _)| i as u32)
                .unwrap_or(0),
        );
        let mut pool = distinct_users(demands);
        rng.shuffle(&mut pool);
        pool.truncate(spec.surge_users);
        let mut surged = Vec::with_capacity(pool.len());
        for user in pool {
            let template = demands
                .iter()
                .find(|d| d.user == user)
                .expect("user drawn from the stream");
            let arrive = Timestamp::from_secs(day * 86_400 + spec.surge_hour * 3_600)
                + TimeDelta::secs(rng.random_range(0..1_800));
            let duration = TimeDelta::secs(rng.random_range(1_800..5_400));
            surged.push(SessionDemand {
                user,
                building: hot,
                controller: config.controller_of(hot),
                arrive,
                depart: arrive + duration,
                volume_by_app: template.volume_by_app,
            });
        }
        log.surged = surged.len() as u64;
        demands.extend(surged);
    }

    // Rolling outage: buildings 0..B go dark back-to-back from 08:00;
    // their in-window arrivals walk next door.
    if spec.outage_buildings > 0 && config.buildings > 1 {
        let day = spec.outage_day.min(last_day);
        for k in 0..spec.outage_buildings {
            let dark = BuildingId::new((k % config.buildings) as u32);
            let refuge = BuildingId::new(((dark.index() + 1) % config.buildings) as u32);
            let from =
                Timestamp::from_secs(day * 86_400 + (8 + k as u64 * spec.outage_hours) * 3_600);
            let to = from + TimeDelta::hours(spec.outage_hours);
            for d in demands.iter_mut() {
                if d.building == dark && d.arrive >= from && d.arrive < to {
                    d.building = refuge;
                    d.controller = config.controller_of(refuge);
                    log.displaced += 1;
                }
            }
        }
    }

    // Roaming: a user's longest long session splits into two halves in
    // different buildings (volumes split evenly per app realm).
    if spec.roam_users > 0 && config.buildings > 1 {
        let mut pool = distinct_users(demands);
        rng.shuffle(&mut pool);
        pool.truncate(spec.roam_users);
        let mut halves = Vec::new();
        for user in pool {
            let Some(longest) = (0..demands.len())
                .filter(|&i| {
                    demands[i].user == user && demands[i].duration() >= TimeDelta::hours(2)
                })
                .max_by_key(|&i| (demands[i].duration().as_secs(), demands[i].arrive))
            else {
                continue;
            };
            let away = {
                let offset = rng.random_range(1..config.buildings);
                let here = demands[longest].building.index();
                BuildingId::new(((here + offset) % config.buildings) as u32)
            };
            let d = &mut demands[longest];
            let mid = d.arrive + TimeDelta::secs(d.duration().as_secs() / 2);
            let mut second = SessionDemand {
                user,
                building: away,
                controller: config.controller_of(away),
                arrive: mid,
                depart: d.depart,
                volume_by_app: d.volume_by_app,
            };
            for (stay, go) in d.volume_by_app.iter_mut().zip(&mut second.volume_by_app) {
                let half = s3_types::Bytes::new(stay.as_u64() / 2);
                *go = half;
                *stay = s3_types::Bytes::new(stay.as_u64() - half.as_u64());
            }
            d.depart = mid;
            halves.push(second);
            log.roamed += 1;
        }
        demands.extend(halves);
    }

    demands.sort_by_key(|d| (d.arrive, d.user));

    let registry = s3_obs::global();
    registry.counter(&SCENARIO_SURGED).add(log.surged);
    registry.counter(&SCENARIO_DISPLACED).add(log.displaced);
    registry.counter(&SCENARIO_ROAMED).add(log.roamed);
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CampusGenerator;

    fn tiny_demands(seed: u64) -> (CampusConfig, Vec<SessionDemand>) {
        let config = CampusConfig::tiny();
        let campus = CampusGenerator::new(config.clone(), seed).generate();
        (config, campus.demands)
    }

    #[test]
    fn parse_accepts_grammar_and_presets() {
        let spec = ScenarioSpec::parse("surge=50:2:9,caps=tiered,roam=10", 3).unwrap();
        assert_eq!(
            (spec.surge_users, spec.surge_day, spec.surge_hour),
            (50, 2, 9)
        );
        assert_eq!(spec.capacity, CapacityProfile::Tiered);
        assert_eq!(spec.roam_users, 10);

        let preset = ScenarioSpec::parse("flash-crowd", 31).unwrap();
        assert_eq!(
            (preset.surge_users, preset.surge_day, preset.surge_hour),
            (300, 29, 9)
        );
        assert!(ScenarioSpec::parse("benign", 31).unwrap().is_empty());
        assert_eq!(
            ScenarioSpec::parse("hetero-caps", 31).unwrap().capacity,
            CapacityProfile::Tiered
        );
    }

    #[test]
    fn parse_rejects_unknown_elements_with_known_list() {
        let err = ScenarioSpec::parse("tsunami=3", 31).err().unwrap();
        assert!(err.contains("unknown scenario element"), "{err}");
        assert!(err.contains("flash-crowd"), "{err}");
        assert!(ScenarioSpec::parse("surge=1:2", 31).is_err());
        assert!(ScenarioSpec::parse("caps=weird", 31).is_err());
        assert!(ScenarioSpec::parse("roaming=5", 31).is_err());
    }

    #[test]
    fn same_seed_same_scenario_different_seed_differs() {
        let spec = ScenarioSpec::parse("surge=20:1:9,roam=10", 3).unwrap();
        let (config, base) = tiny_demands(11);
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base;
        let log_a = apply_scenario(&mut a, &config, &spec, 5);
        let log_b = apply_scenario(&mut b, &config, &spec, 5);
        let _ = apply_scenario(&mut c, &config, &spec, 6);
        assert_eq!(log_a, log_b);
        assert_eq!(a, b, "same seed must reproduce the same stream");
        assert_ne!(a, c, "a different seed must reshuffle the scenario");
        assert!(log_a.surged > 0 && log_a.roamed > 0);
    }

    #[test]
    fn surge_concentrates_sessions_on_one_building() {
        let spec = ScenarioSpec::parse("surge=30:2:9", 3).unwrap();
        let (config, base) = tiny_demands(7);
        let mut demands = base.clone();
        let log = apply_scenario(&mut demands, &config, &spec, 9);
        assert_eq!(demands.len(), base.len() + log.surged as usize);
        let added: Vec<_> = demands
            .iter()
            .filter(|d| d.arrive.day() == 2 && d.arrive.hour_of_day() == 9)
            .collect();
        assert!(added.len() >= log.surged as usize);
        // Sorted invariant preserved.
        assert!(demands
            .windows(2)
            .all(|w| (w[0].arrive, w[0].user) <= (w[1].arrive, w[1].user)));
    }

    #[test]
    fn outage_moves_dark_building_arrivals_next_door() {
        let spec = ScenarioSpec::parse("outage=1:1:12", 3).unwrap();
        let (config, base) = tiny_demands(13);
        let mut demands = base.clone();
        let log = apply_scenario(&mut demands, &config, &spec, 3);
        assert!(log.displaced > 0, "a 12 h outage must catch arrivals");
        assert_eq!(demands.len(), base.len(), "outages displace, never drop");
        let from = Timestamp::from_secs(86_400 + 8 * 3_600);
        let to = from + TimeDelta::hours(12);
        assert!(
            demands
                .iter()
                .filter(|d| d.arrive >= from && d.arrive < to)
                .all(|d| d.building != BuildingId::new(0)),
            "no arrivals may remain in the dark building's window"
        );
    }

    #[test]
    fn roam_splits_sessions_and_conserves_volume() {
        let spec = ScenarioSpec::parse("roam=15", 3).unwrap();
        let (config, base) = tiny_demands(21);
        let mut demands = base.clone();
        let log = apply_scenario(&mut demands, &config, &spec, 4);
        assert!(log.roamed > 0);
        assert_eq!(demands.len(), base.len() + log.roamed as usize);
        let total = |ds: &[SessionDemand]| -> u64 {
            ds.iter()
                .flat_map(|d| d.volume_by_app.iter())
                .map(|v| v.as_u64())
                .sum()
        };
        assert_eq!(
            total(&demands),
            total(&base),
            "roaming must conserve volume"
        );
    }

    #[test]
    fn tiered_caps_cycle_three_levels() {
        let caps = CapacityProfile::Tiered;
        assert_eq!(caps.capacity_of(0), Some(BitsPerSec::mbps(150.0)));
        assert_eq!(caps.capacity_of(2), Some(BitsPerSec::mbps(50.0)));
        assert_eq!(caps.capacity_of(3), Some(BitsPerSec::mbps(150.0)));
        assert_eq!(CapacityProfile::Uniform.capacity_of(0), None);
    }
}
