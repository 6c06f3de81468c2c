//! Parity of the two-pass distribution search with the sort-based one.
//!
//! The oracle below is the search the two-pass version replaced: every
//! candidate is scored in full (cost, capacity and balance) into a
//! `Vec<Candidate>` carrying its own assignment, the list is stably sorted
//! by cost, cut at `⌈N·top_fraction⌉` and extended over costs within
//! `1e-12` of the cut, and `max_by` on the balance picks the winner; the
//! beam clones each prefix per child and truncates a stably sorted level.
//! [`assign_clique`] must return the oracle's assignment and publish the
//! oracle's `core.batch.*` / `core.cost.*` counter deltas for every case:
//! enumerated and beam spaces, exact and near-tied costs at the cut-off,
//! `-0.0` cells, tied balances, partial and total capacity rejection,
//! extreme `top_fraction` values and a single AP.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use s3_core::batch::{assign_clique, ApSlot};
use s3_core::S3Config;
use s3_obs::MetricValue;
use s3_stats::balance::normalized_balance_index;
use s3_types::UserId;

/// The search counters are process-global; tests reading their deltas must
/// not interleave.
static METRICS: Mutex<()> = Mutex::new(());

const MEMBER_EPSILON_BPS: f64 = 1.0;

// ---------------------------------------------------------------- oracle

struct OracleCost {
    slot_entry: Vec<f64>,
    pair: Vec<f64>,
    demands: Vec<f64>,
    slots: usize,
}

#[derive(Clone)]
struct Candidate {
    assignment: Vec<usize>,
    cost: f64,
    balance: f64,
}

/// Counter deltas the oracle's search publishes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    cliques_assigned: u64,
    candidates_enumerated: u64,
    capacity_rejections: u64,
    beam_expansions: u64,
    beam_prunes: u64,
    fallbacks: u64,
    table_builds: u64,
    delta_evals: u64,
    lookups: u64,
}

impl OracleCost {
    fn new(
        clique: &[UserId],
        slots: &[ApSlot],
        delta: &dyn Fn(UserId, UserId) -> f64,
        demand: &dyn Fn(UserId) -> f64,
        counts: &mut Counts,
    ) -> OracleCost {
        let c = clique.len();
        let mut slot_entry = Vec::new();
        for &user in clique {
            for slot in slots {
                slot_entry.push(slot.members.iter().map(|&w| delta(user, w)).sum());
            }
        }
        let mut pair = vec![0.0; c * c];
        for i in 0..c {
            for j in i + 1..c {
                let d = delta(clique[i], clique[j]);
                pair[i * c + j] = d;
                pair[j * c + i] = d;
            }
        }
        let member_total: usize = slots.iter().map(|s| s.members.len()).sum();
        counts.table_builds += 1;
        counts.delta_evals += (c * member_total + c * c.saturating_sub(1) / 2) as u64;
        OracleCost {
            slot_entry,
            pair,
            demands: clique.iter().map(|&u| demand(u)).collect(),
            slots: slots.len(),
        }
    }

    fn lookups_per_score(&self) -> u64 {
        let c = self.demands.len();
        (c + c * c.saturating_sub(1) / 2) as u64
    }

    fn score(&self, assignment: &[usize], slots: &[ApSlot]) -> (f64, f64) {
        let m = self.slots;
        let c = self.demands.len();
        let mut added_demand = vec![0.0; m];
        let mut added_members = vec![0usize; m];
        let mut cost = 0.0;
        for (idx, &slot) in assignment.iter().enumerate() {
            cost += self.slot_entry[idx * m + slot];
            for (prev_idx, &prev_slot) in assignment[..idx].iter().enumerate() {
                if prev_slot == slot {
                    cost += self.pair[prev_idx * c + idx];
                }
            }
            added_demand[slot] += self.demands[idx];
            added_members[slot] += 1;
        }
        let mut loads = Vec::with_capacity(m);
        for s in 0..m {
            let add = added_demand[s];
            let load = slots[s].load + add;
            if load > slots[s].capacity && add > 0.0 {
                return (f64::INFINITY, 0.0);
            }
            loads.push(
                load + (slots[s].members.len() + added_members[s]) as f64 * MEMBER_EPSILON_BPS,
            );
        }
        (cost, normalized_balance_index(&loads).unwrap_or(0.0))
    }
}

fn oracle_enumerate(
    total: usize,
    cost: &OracleCost,
    slots: &[ApSlot],
    counts: &mut Counts,
) -> Vec<Candidate> {
    let (m, c) = (cost.slots, cost.demands.len());
    let mut out = Vec::new();
    let mut assignment = vec![0usize; c];
    for code in 0..total {
        let mut x = code;
        for slot in assignment.iter_mut() {
            *slot = x % m;
            x /= m;
        }
        let (cost_value, balance) = cost.score(&assignment, slots);
        if cost_value.is_finite() {
            out.push(Candidate {
                assignment: assignment.clone(),
                cost: cost_value,
                balance,
            });
        }
    }
    counts.candidates_enumerated += total as u64;
    counts.capacity_rejections += (total - out.len()) as u64;
    counts.lookups += total as u64 * cost.lookups_per_score();
    out
}

fn oracle_beam(
    cost: &OracleCost,
    slots: &[ApSlot],
    beam_width: usize,
    counts: &mut Counts,
) -> Vec<Candidate> {
    let (m, c) = (cost.slots, cost.demands.len());
    let mut beam: Vec<(Vec<usize>, f64)> = vec![(Vec::new(), 0.0)];
    for idx in 0..c {
        counts.beam_expansions += beam.len() as u64;
        let mut next = Vec::new();
        for (prefix, prefix_cost) in &beam {
            for slot in 0..m {
                let mut added = cost.slot_entry[idx * m + slot];
                for (prev_idx, &prev_slot) in prefix.iter().enumerate() {
                    if prev_slot == slot {
                        added += cost.pair[prev_idx * c + idx];
                    }
                }
                let mut assignment = prefix.clone();
                assignment.push(slot);
                next.push((assignment, prefix_cost + added));
            }
        }
        next.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
        counts.beam_prunes += next.len().saturating_sub(beam_width) as u64;
        next.truncate(beam_width);
        beam = next;
    }
    counts.candidates_enumerated += beam.len() as u64;
    counts.lookups += beam.len() as u64 * cost.lookups_per_score();
    let mut out = Vec::new();
    for (assignment, _) in &beam {
        let (cost_value, balance) = cost.score(assignment, slots);
        if cost_value.is_finite() {
            out.push(Candidate {
                assignment: assignment.clone(),
                cost: cost_value,
                balance,
            });
        }
    }
    counts.capacity_rejections += (beam.len() - out.len()) as u64;
    out
}

fn oracle_select_best(mut candidates: Vec<Candidate>, config: &S3Config) -> Option<Vec<usize>> {
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"));
    let mut keep = ((candidates.len() as f64 * config.top_fraction).ceil() as usize)
        .clamp(1, candidates.len());
    let boundary = candidates[keep - 1].cost;
    while keep < candidates.len() && candidates[keep].cost <= boundary + 1e-12 {
        keep += 1;
    }
    candidates.truncate(keep);
    candidates
        .into_iter()
        .max_by(|a, b| a.balance.partial_cmp(&b.balance).expect("finite balance"))
        .map(|c| c.assignment)
}

fn oracle_fallback(demands: &[f64], slots: &[ApSlot]) -> Vec<usize> {
    let mut loads: Vec<f64> = slots.iter().map(|s| s.load).collect();
    demands
        .iter()
        .map(|&demand| {
            let slot = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
                .map(|(i, _)| i)
                .expect("slots non-empty");
            loads[slot] += demand;
            slot
        })
        .collect()
}

/// What the oracle search did, beyond its answer: used by the coverage
/// checks so the generator provably reaches every branch of the rule.
#[derive(Debug, Default, Clone, Copy)]
struct Shape {
    beam: bool,
    fallback: bool,
    partial_rejection: bool,
    /// A candidate past the rank cut-off kept by the `1e-12` extension.
    near_tie_kept: bool,
    /// A candidate within `1e-11` above the cut-off, excluded.
    near_tie_dropped: bool,
    /// Two kept candidates share the winning balance.
    balance_tie: bool,
}

fn oracle_assign(
    clique: &[UserId],
    slots: &[ApSlot],
    delta: &dyn Fn(UserId, UserId) -> f64,
    demand: &dyn Fn(UserId) -> f64,
    config: &S3Config,
) -> (Vec<usize>, Counts, Shape) {
    let mut counts = Counts::default();
    let mut shape = Shape::default();
    if clique.is_empty() {
        return (Vec::new(), counts, shape);
    }
    let cost = OracleCost::new(clique, slots, delta, demand, &mut counts);
    counts.cliques_assigned += 1;
    let (m, c) = (slots.len(), clique.len());
    let candidates = match m
        .checked_pow(c as u32)
        .filter(|&s| s <= config.enumeration_limit)
    {
        Some(total) => oracle_enumerate(total, &cost, slots, &mut counts),
        None => {
            shape.beam = true;
            oracle_beam(&cost, slots, config.beam_width, &mut counts)
        }
    };
    shape.partial_rejection = counts.capacity_rejections > 0 && !candidates.is_empty();
    if !candidates.is_empty() {
        let mut sorted: Vec<f64> = candidates.iter().map(|c| c.cost).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let keep =
            ((sorted.len() as f64 * config.top_fraction).ceil() as usize).clamp(1, sorted.len());
        let boundary = sorted[keep - 1];
        shape.near_tie_kept = sorted[keep..]
            .iter()
            .any(|&x| x > boundary && x <= boundary + 1e-12);
        shape.near_tie_dropped = sorted
            .iter()
            .any(|&x| x > boundary + 1e-12 && x <= boundary + 1e-11);
        let kept: Vec<&Candidate> = candidates
            .iter()
            .filter(|c| c.cost <= boundary + 1e-12)
            .collect();
        let top = kept
            .iter()
            .map(|c| c.balance)
            .fold(f64::NEG_INFINITY, f64::max);
        shape.balance_tie = kept.iter().filter(|c| c.balance == top).count() > 1;
    }
    let picks = match oracle_select_best(candidates, config) {
        Some(picks) => picks,
        None => {
            shape.fallback = true;
            counts.fallbacks += 1;
            oracle_fallback(&cost.demands, slots)
        }
    };
    (picks, counts, shape)
}

// ------------------------------------------------------------- harness

fn counter(name: &str) -> u64 {
    s3_obs::global()
        .snapshot()
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        })
        .unwrap_or(0)
}

fn read_counts() -> Counts {
    Counts {
        cliques_assigned: counter("core.batch.cliques_assigned"),
        candidates_enumerated: counter("core.batch.candidates_enumerated"),
        capacity_rejections: counter("core.batch.capacity_rejections"),
        beam_expansions: counter("core.batch.beam_expansions"),
        beam_prunes: counter("core.batch.beam_prunes"),
        fallbacks: counter("core.batch.fallbacks"),
        table_builds: counter("core.cost.table_builds"),
        delta_evals: counter("core.cost.delta_evals"),
        lookups: counter("core.cost.lookups"),
    }
}

fn minus(after: &Counts, before: &Counts) -> Counts {
    Counts {
        cliques_assigned: after.cliques_assigned - before.cliques_assigned,
        candidates_enumerated: after.candidates_enumerated - before.candidates_enumerated,
        capacity_rejections: after.capacity_rejections - before.capacity_rejections,
        beam_expansions: after.beam_expansions - before.beam_expansions,
        beam_prunes: after.beam_prunes - before.beam_prunes,
        fallbacks: after.fallbacks - before.fallbacks,
        table_builds: after.table_builds - before.table_builds,
        delta_evals: after.delta_evals - before.delta_evals,
        lookups: after.lookups - before.lookups,
    }
}

/// One search problem: δ is a symmetric table over raw ids `0..ids`.
struct Case {
    clique: Vec<UserId>,
    slots: Vec<ApSlot>,
    table: Vec<f64>,
    ids: usize,
    demand: Vec<f64>,
    config: S3Config,
}

impl Case {
    fn delta(&self, a: UserId, b: UserId) -> f64 {
        if a == b {
            return 0.0;
        }
        self.table[a.raw() as usize * self.ids + b.raw() as usize]
    }

    fn demand_of(&self, u: UserId) -> f64 {
        self.demand[u.raw() as usize]
    }
}

/// Runs the library and the oracle on `case`, asserting equal answers and
/// equal counter deltas; returns what the oracle saw.
fn check(case: &Case) -> Shape {
    let delta = |a: UserId, b: UserId| case.delta(a, b);
    let demand = |u: UserId| case.demand_of(u);
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let before = read_counts();
    let picks = assign_clique(&case.clique, &case.slots, delta, demand, &case.config);
    let got = minus(&read_counts(), &before);
    let (expected, counts, shape) =
        oracle_assign(&case.clique, &case.slots, &delta, &demand, &case.config);
    assert_eq!(
        picks,
        expected,
        "assignment diverged: m = {}, clique {:?}, config {:?}",
        case.slots.len(),
        case.clique,
        case.config
    );
    assert_eq!(got, counts, "counter deltas diverged for {:?}", case.clique);
    shape
}

/// Quantized δ values so exact and near-exact cost ties are common; the
/// `1e-13`/`5e-12` offsets land inside and just outside the `1e-12` band,
/// and the inexact decimals make sums round differently when regrouped.
const DELTAS: [f64; 11] = [
    0.0,
    -0.0,
    0.25,
    0.5,
    0.25 + 1e-13,
    0.25 + 5e-12,
    0.75,
    0.125,
    0.1,
    0.2,
    0.3,
];

fn random_case(rng: &mut StdRng) -> Case {
    let m = rng.random_range(1..=5usize);
    let c = rng.random_range(1..=6usize);
    let ids = 24usize;
    let mut table = vec![0.0; ids * ids];
    for i in 0..ids {
        for j in i + 1..ids {
            let d = if rng.random_bool(0.4) {
                0.0
            } else {
                DELTAS[rng.random_range(0..DELTAS.len())]
            };
            table[i * ids + j] = d;
            table[j * ids + i] = d;
        }
    }
    // Demands from a short menu so balances tie; capacity regimes from
    // ample to binding to impossible.
    let demand: Vec<f64> = (0..ids)
        .map(|_| [0.0, 1e6, 2e6, 4e6][rng.random_range(0..4usize)])
        .collect();
    let regime = rng.random_range(0..5u32);
    let slots: Vec<ApSlot> = (0..m)
        .map(|_| {
            let load = [0.0, -0.0, 1e6, 3e6][rng.random_range(0..4usize)];
            let capacity = match regime {
                0 => 1e9,
                1 => load + [2e6, 5e6, 1e9][rng.random_range(0..3usize)],
                2 => load + 1e6,
                3 => load,
                // Already overloaded: only zero-demand arrivals fit.
                _ => load * 0.5,
            };
            let members = (0..rng.random_range(0..4usize))
                .map(|_| UserId::new(rng.random_range(0..8u32)))
                .collect();
            ApSlot {
                load,
                capacity,
                members,
            }
        })
        .collect();
    let mut pool: Vec<u32> = (8..ids as u32).collect();
    rng.shuffle(&mut pool);
    let clique = pool[..c].iter().map(|&u| UserId::new(u)).collect();
    let enumeration_limit = [20_000, 0, 16, 1][rng.random_range(0..4usize)];
    let beam_width = [256, 1, 2, 5][rng.random_range(0..4usize)];
    let top_fraction = [0.3, 1.0, 1e-9, 0.5, 0.05][rng.random_range(0..5usize)];
    Case {
        clique,
        slots,
        table,
        ids,
        demand,
        config: S3Config {
            enumeration_limit,
            beam_width,
            top_fraction,
            ..S3Config::default()
        },
    }
}

#[test]
fn random_searches_match_the_sort_based_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5EA2C4);
    let mut seen = [0usize; 7];
    for _ in 0..1_500 {
        let case = random_case(&mut rng);
        let shape = check(&case);
        let flags = [
            shape.beam,
            !shape.beam,
            shape.fallback,
            shape.partial_rejection,
            shape.near_tie_kept,
            shape.near_tie_dropped,
            shape.balance_tie,
        ];
        for (count, flag) in seen.iter_mut().zip(flags) {
            *count += flag as usize;
        }
    }
    // The generator must reach every branch of the rule, or the parity
    // above proves less than it claims.
    let names = [
        "beam",
        "enumerated",
        "fallback",
        "partial rejection",
        "near-tie kept",
        "near-tie dropped",
        "balance tie",
    ];
    for (name, &count) in names.iter().zip(&seen) {
        assert!(count >= 10, "only {count} cases with {name}: {seen:?}");
    }
}

fn uniform_case(m: usize, c: usize, config: S3Config) -> Case {
    let ids = 16;
    Case {
        clique: (0..c as u32).map(UserId::new).collect(),
        slots: (0..m)
            .map(|_| ApSlot {
                load: 0.0,
                capacity: 1e9,
                members: Vec::new(),
            })
            .collect(),
        table: vec![0.0; ids * ids],
        ids,
        demand: vec![1e6; ids],
        config,
    }
}

#[test]
fn all_equal_costs_and_balances_pick_the_oracle_winner() {
    // No social signal and identical slots: every permutation ties on cost
    // and on balance, so only the tie rule decides.
    for (m, c) in [(3, 3), (4, 2), (2, 5)] {
        for limit in [20_000, 0] {
            for top_fraction in [1.0, 0.3, 1e-9] {
                let config = S3Config {
                    enumeration_limit: limit,
                    top_fraction,
                    ..S3Config::default()
                };
                let shape = check(&uniform_case(m, c, config));
                assert!(shape.balance_tie, "m = {m}, c = {c}");
            }
        }
    }
}

#[test]
fn negative_zero_cells_tie_with_positive_zero() {
    let mut case = uniform_case(3, 3, S3Config::default());
    // δ(0, 1) = -0.0, δ(1, 2) = +0.0, slot members contribute -0.0 sums.
    case.table[1] = -0.0;
    case.table[case.ids] = -0.0;
    case.slots[1].members.push(UserId::new(9));
    for cell in [9, 9 * case.ids] {
        case.table[cell] = -0.0;
    }
    for limit in [20_000, 0] {
        case.config.enumeration_limit = limit;
        check(&case);
    }
}

#[test]
fn single_ap_and_tiny_fractions_match() {
    for c in 1..=4 {
        for top_fraction in [1.0, 1e-9, 0.3] {
            for limit in [20_000, 0] {
                let config = S3Config {
                    enumeration_limit: limit,
                    top_fraction,
                    beam_width: 1,
                    ..S3Config::default()
                };
                check(&uniform_case(1, c, config));
            }
        }
    }
}

#[test]
fn total_capacity_rejection_falls_back_like_the_oracle() {
    for limit in [20_000, 0] {
        let mut case = uniform_case(3, 3, S3Config::default());
        case.config.enumeration_limit = limit;
        for (s, slot) in case.slots.iter_mut().enumerate() {
            slot.load = 1e6 * (3 - s) as f64;
            slot.capacity = slot.load;
        }
        let shape = check(&case);
        assert!(shape.fallback);
    }
}

#[test]
fn partial_capacity_rejection_matches() {
    for limit in [20_000, 0] {
        let mut case = uniform_case(3, 3, S3Config::default());
        case.config.enumeration_limit = limit;
        // Slot 0 takes no arrival, slot 1 takes one.
        case.slots[0].capacity = 0.0;
        case.slots[1].capacity = 1.5e6;
        let shape = check(&case);
        assert!(shape.partial_rejection && !shape.fallback);
    }
}

#[test]
fn near_ties_at_the_boundary_match() {
    // Three candidates per AP pair for one user against members whose δ
    // differ by less than, and by more than, 1e-12.
    let mut case = uniform_case(4, 1, S3Config::default());
    let (a, b, c) = (0.25, 0.25 + 5e-13, 0.25 + 3e-12);
    for (s, d) in [(0, a), (1, b), (2, c), (3, 0.9)] {
        let w = 8 + s;
        case.slots[s].members.push(UserId::new(w as u32));
        case.table[w] = d;
        case.table[w * case.ids] = d;
    }
    for top_fraction in [0.25, 0.5, 0.75] {
        case.config.top_fraction = top_fraction;
        check(&case);
    }
}

#[test]
fn beam_leaves_are_costed_in_summation_order() {
    // Identical empty slots and equal demands make balances tie across
    // permutations, so the winner rests on cost ties — which the beam's
    // running prefix sums and the per-candidate sums round differently for
    // inexact δ values.
    let mut rng = StdRng::seed_from_u64(0xBEA3);
    for _ in 0..300 {
        let m = rng.random_range(2..=3usize);
        let c = rng.random_range(3..=6usize);
        let mut case = uniform_case(m, c, S3Config::default());
        for i in 0..c {
            for j in i + 1..c {
                let d = [0.1, 0.2, 0.3, 0.7][rng.random_range(0..4usize)];
                case.table[i * case.ids + j] = d;
                case.table[j * case.ids + i] = d;
            }
        }
        case.config.enumeration_limit = 0;
        case.config.top_fraction = [0.3, 1e-9][rng.random_range(0..2usize)];
        check(&case);
    }
}
