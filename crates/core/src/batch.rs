//! Algorithm 1's clique-distribution search.
//!
//! Once a maximum clique of socially tight arrivals has been extracted, its
//! members must be spread over the controller's APs. The paper enumerates
//! candidate distributions, sorts them by total added social cost
//! `Σᵢ C(APᵢ)` (∞ where the bandwidth constraint would break), keeps the
//! top 30 %, and among those picks the one with the best balance index.
//!
//! For a clique of `c` users and `m` APs the space has `mᶜ` points; we
//! enumerate exhaustively while `mᶜ` is small (`enumeration_limit`) and
//! fall back to a beam search otherwise — preserving the
//! top-fraction-then-balance selection either way (documented deviation in
//! DESIGN.md).
//!
//! The rule is evaluated in two passes instead of a sort. Pass 1 computes
//! every candidate's social cost and capacity test; the cost at rank
//! `⌈N·top_fraction⌉` among the `N` feasible ones is found by selection,
//! and the kept set is every feasible candidate within `1e-12` of it — the
//! set a stable sort cut at that rank and extended over near-ties keeps.
//! Pass 2 computes the balance index of the kept candidates only; the
//! highest balance wins, ties going to the larger cost, then to the later
//! candidate, which is the element the sorted list's `max_by` returned.

use std::sync::OnceLock;

use s3_graph::SocialGraph;
use s3_obs::{Counter, Desc, Histogram, HistogramDesc, Stability, Unit};
use s3_stats::balance::normalized_balance_index;
use s3_types::UserId;

use crate::compiled::CompiledModel;
use crate::S3Config;

/// A counter registered on first use and cached thereafter: the hot path
/// skips the registry's mutex and name lookup, and nothing is registered
/// earlier than a per-call lookup would have registered it (snapshots list
/// registered metrics only).
pub(crate) struct LazyCounter {
    desc: Desc,
    handle: OnceLock<Counter>,
}

impl LazyCounter {
    pub(crate) const fn new(desc: Desc) -> LazyCounter {
        LazyCounter {
            desc,
            handle: OnceLock::new(),
        }
    }

    pub(crate) fn get(&'static self) -> &'static Counter {
        self.handle
            .get_or_init(|| s3_obs::global().counter(&self.desc))
    }
}

/// [`LazyCounter`] for a histogram.
pub(crate) struct LazyHistogram {
    desc: HistogramDesc,
    handle: OnceLock<Histogram>,
}

impl LazyHistogram {
    pub(crate) const fn new(desc: HistogramDesc) -> LazyHistogram {
        LazyHistogram {
            desc,
            handle: OnceLock::new(),
        }
    }

    pub(crate) fn get(&'static self) -> &'static Histogram {
        self.handle
            .get_or_init(|| s3_obs::global().histogram(&self.desc))
    }
}

// Batch-selector metrics (documented in docs/METRICS.md). Hot-loop tallies
// are accumulated locally and added once per enumeration or beam level, so
// the counter traffic is negligible.
static CLIQUES_ASSIGNED: LazyCounter = LazyCounter::new(Desc {
    name: "core.batch.cliques_assigned",
    help: "Cliques placed by the batch distribution search",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static CLIQUE_SIZE: LazyHistogram = LazyHistogram::new(HistogramDesc {
    name: "core.batch.clique_size",
    help: "Members per assigned clique",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[1, 2, 3, 4, 6, 8, 12, 16],
});
static CANDIDATES_ENUMERATED: LazyCounter = LazyCounter::new(Desc {
    name: "core.batch.candidates_enumerated",
    help: "Candidate distributions decoded and scored (exhaustive and beam leaves)",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static CAPACITY_REJECTIONS: LazyCounter = LazyCounter::new(Desc {
    name: "core.batch.capacity_rejections",
    help: "Candidate distributions discarded for violating AP capacity",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static BEAM_EXPANSIONS: LazyCounter = LazyCounter::new(Desc {
    name: "core.batch.beam_expansions",
    help: "Partial assignments expanded by the beam search",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static BEAM_PRUNES: LazyCounter = LazyCounter::new(Desc {
    name: "core.batch.beam_prunes",
    help: "Partial assignments cut when truncating each beam level to beam_width",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static FALLBACKS: LazyCounter = LazyCounter::new(Desc {
    name: "core.batch.fallbacks",
    help: "Cliques placed by least-loaded fallback (every distribution violated capacity)",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static COST_TABLE_BUILDS: LazyCounter = LazyCounter::new(Desc {
    name: "core.cost.table_builds",
    help: "CliqueCost tables built (one per clique placement)",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static COST_DELTA_EVALS: LazyCounter = LazyCounter::new(Desc {
    name: "core.cost.delta_evals",
    help: "Fresh delta(u, w) evaluations while building CliqueCost tables (cache misses)",
    unit: Unit::Count,
    stability: Stability::Stable,
});
static COST_LOOKUPS: LazyCounter = LazyCounter::new(Desc {
    name: "core.cost.lookups",
    help: "Table-cell reads served from CliqueCost during candidate scoring (cache hits)",
    unit: Unit::Count,
    stability: Stability::Stable,
});

/// A projected AP state during batch assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ApSlot {
    /// Current load, bits/s.
    pub load: f64,
    /// Capacity `W(i)`, bits/s.
    pub capacity: f64,
    /// Users currently on the AP (existing associations plus any arrivals
    /// already placed earlier in this batch).
    pub members: Vec<UserId>,
}

/// The identity-free projection of an [`ApSlot`] the scoring search needs:
/// load, capacity, and member count. The compiled selector keeps these in a
/// reusable scratch instead of cloning member lists per request; member
/// *identities* live in the cost tables, never in the search state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SlotState {
    /// Current load, bits/s.
    pub(crate) load: f64,
    /// Capacity `W(i)`, bits/s.
    pub(crate) capacity: f64,
    /// Users currently on the AP (existing plus placed-this-batch).
    pub(crate) member_count: usize,
}

impl SlotState {
    pub(crate) fn of(slot: &ApSlot) -> SlotState {
        SlotState {
            load: slot.load,
            capacity: slot.capacity,
            member_count: slot.members.len(),
        }
    }
}

/// Builds the Section-IV social graph over `users`: vertices are indices
/// into `users`, edges join pairs with `delta > threshold`, weighted by
/// `delta`.
pub fn build_social_graph<D>(users: &[UserId], delta: D, threshold: f64) -> SocialGraph
where
    D: Fn(UserId, UserId) -> f64,
{
    let mut graph = SocialGraph::new(users.len());
    for i in 0..users.len() {
        for j in i + 1..users.len() {
            let d = delta(users[i], users[j]);
            if d > threshold {
                graph
                    .add_edge(i, j, d)
                    .expect("indices in range, weight validated by caller");
            }
        }
    }
    graph
}

/// [`build_social_graph`] over dense ids from a compiled model: same strict
/// `δ > threshold` edge rule, same weights, but every δ is a CSR probe and
/// the edges go in through the bulk [`SocialGraph::from_pairwise`]
/// constructor instead of per-edge validation.
pub(crate) fn build_social_graph_compiled(
    model: &CompiledModel,
    users: &[u32],
    threshold: f64,
) -> SocialGraph {
    SocialGraph::from_pairwise(users.len(), |i, j| {
        let d = model.delta_dense(users[i], users[j]);
        (d > threshold).then_some(d)
    })
}

/// Per-associated-user epsilon (bits/s) mixed into the projected load:
/// negligible against any real traffic, but it breaks exact balance ties
/// toward spreading by association count — without it, a cold-started
/// model (all demand estimates zero) would project identical balance for
/// every distribution and stack the whole batch on one AP.
const MEMBER_EPSILON_BPS: f64 = 1.0;

/// Per-clique cost tables: the slot-entry cost `C(APᵢ)` of each member
/// against each slot's existing population, the pairwise δ within the
/// clique, and the per-member demand estimates.
///
/// Building the tables once per clique turns candidate scoring into pure
/// table lookups (`O(c·(m̄ + c))` δ calls total instead of per candidate).
/// Both tables are flat row-major arrays refilled in place for every
/// clique: `slot_entry[u·m + s]` and `pair[i·c + j]`.
#[derive(Debug, Clone, Default)]
struct CliqueCost {
    /// `slot_entry[u·m + s]` = Σ δ(clique[u], w) over slot `s`'s members.
    slot_entry: Vec<f64>,
    /// `pair[i·c + j]` = δ(clique[i], clique[j]); symmetric, zero diagonal.
    pair: Vec<f64>,
    /// Demand estimate per clique member.
    demands: Vec<f64>,
    /// Slot count `m` — the row stride of `slot_entry`.
    slots: usize,
    /// Dense-id scatter row of [`CompiledModel::fill_cost_tables`].
    row: Vec<f64>,
}

impl CliqueCost {
    fn fill_hashed(
        &mut self,
        clique: &[UserId],
        slots: &[ApSlot],
        delta: &dyn Fn(UserId, UserId) -> f64,
        demand: &dyn Fn(UserId) -> f64,
    ) {
        let c = clique.len();
        self.slot_entry.clear();
        for &user in clique {
            for slot in slots {
                self.slot_entry
                    .push(slot.members.iter().map(|&w| delta(user, w)).sum());
            }
        }
        self.pair.clear();
        self.pair.resize(c * c, 0.0);
        for i in 0..c {
            for j in i + 1..c {
                let d = delta(clique[i], clique[j]);
                self.pair[i * c + j] = d;
                self.pair[j * c + i] = d;
            }
        }
        self.demands.clear();
        self.demands.extend(clique.iter().map(|&user| demand(user)));
        self.slots = slots.len();
        let member_total: usize = slots.iter().map(|s| s.members.len()).sum();
        Self::record_build(c, member_total);
    }

    /// [`CliqueCost::fill_hashed`] against the compiled data plane: the
    /// clique and the per-slot member lists are dense ids and both tables
    /// come from [`CompiledModel::fill_cost_tables`]. Metric accounting is
    /// identical — `core.cost.delta_evals` counts one eval per (member,
    /// slot-resident) pair exactly as the hashed path does.
    fn fill_compiled(&mut self, model: &CompiledModel, clique: &[u32], members: &[Vec<u32>]) {
        model.fill_cost_tables(
            clique,
            members,
            &mut self.row,
            &mut self.slot_entry,
            &mut self.pair,
        );
        self.demands.clear();
        self.demands
            .extend(clique.iter().map(|&user| model.demand_dense(user)));
        self.slots = members.len();
        let member_total: usize = members.iter().map(|row| row.len()).sum();
        Self::record_build(clique.len(), member_total);
    }

    fn record_build(c: usize, member_total: usize) {
        COST_TABLE_BUILDS.get().inc();
        COST_DELTA_EVALS
            .get()
            .add((c * member_total + c * (c.saturating_sub(1)) / 2) as u64);
    }

    /// Table cells scoring one candidate reads: one `slot_entry` cell per
    /// member plus every ordered pair of members.
    fn lookups_per_score(&self) -> u64 {
        let c = self.demands.len();
        (c + c * (c.saturating_sub(1)) / 2) as u64
    }

    /// Pass 1 for one full assignment: its social cost, or `+∞` when a
    /// slot's bandwidth constraint would break. Each placed user pays δ to
    /// the existing members of its slot and to clique members already
    /// placed there, summed in member order; per-slot demand accumulates
    /// from `0.0` in member order and only the slots the assignment uses
    /// are tested (`added` is all zero on entry and on return).
    fn feasible_cost(&self, assignment: &[usize], states: &[SlotState], added: &mut [f64]) -> f64 {
        let m = self.slots;
        let c = self.demands.len();
        let mut cost = 0.0;
        for (idx, &slot) in assignment.iter().enumerate() {
            cost += self.slot_entry[idx * m + slot];
            for (prev_idx, &prev_slot) in assignment[..idx].iter().enumerate() {
                if prev_slot == slot {
                    cost += self.pair[prev_idx * c + idx];
                }
            }
            added[slot] += self.demands[idx];
        }
        let overloaded = assignment.iter().any(|&slot| {
            let add = added[slot];
            states[slot].load + add > states[slot].capacity && add > 0.0
        });
        for &slot in assignment {
            added[slot] = 0.0;
        }
        if overloaded {
            f64::INFINITY
        } else {
            cost
        }
    }
}

/// Where the candidates of one search live: candidate `i` is either the
/// base-`m` code `i` of the exhaustive enumeration (member 0 the least
/// significant digit) or row `i` of the final beam.
#[derive(Debug, Clone, Copy)]
enum Space {
    Enumerated,
    Beam,
}

/// One child of a beam level: `pos = parent · m + slot` is its place in
/// the level's parent-major expansion order.
#[derive(Debug, Clone, Copy)]
struct Child {
    pos: usize,
    cost: f64,
}

/// Reusable working memory of the distribution search: the cost tables
/// and every per-candidate buffer, so a warm search allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchScratch {
    cost: CliqueCost,
    /// Pass-1 cost per candidate (`+∞` for a capacity violation).
    costs: Vec<f64>,
    /// Feasible costs, permuted by the rank selection.
    ranked: Vec<f64>,
    /// The candidate being scored.
    assignment: Vec<usize>,
    /// Per-slot demand / member tallies of `assignment`; all zero between
    /// candidates.
    added_demand: Vec<f64>,
    added_members: Vec<usize>,
    /// Projected load vector of the candidate being balanced.
    loads: Vec<f64>,
    /// Beam rows (one assignment prefix each, flat) and their costs.
    beam: Vec<usize>,
    next_beam: Vec<usize>,
    beam_cost: Vec<f64>,
    children: Vec<Child>,
    /// Per-slot added cost of the parent being expanded.
    child_added: Vec<f64>,
}

impl SearchScratch {
    /// Fills the cost tables of `clique` from the compiled model (see
    /// [`CliqueCost::fill_compiled`]); [`SearchScratch::search`] then
    /// distributes it.
    pub(crate) fn fill_compiled(
        &mut self,
        model: &CompiledModel,
        clique: &[u32],
        members: &[Vec<u32>],
    ) {
        self.cost.fill_compiled(model, clique, members);
    }

    /// The enumerate-or-beam + top-fraction + balance search over the
    /// filled cost tables: writes one slot index per clique member into
    /// `out`. When every distribution violates capacity the least-loaded
    /// slots are used anyway (users must be served).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty while the clique is not, or when
    /// `states` and the cost tables disagree on the slot count.
    pub(crate) fn search(&mut self, states: &[SlotState], config: &S3Config, out: &mut Vec<usize>) {
        out.clear();
        let c = self.cost.demands.len();
        if c == 0 {
            return;
        }
        assert!(!states.is_empty(), "cannot assign a clique to zero APs");
        let m = states.len();
        assert_eq!(self.cost.slots, m, "one member row per slot");
        CLIQUES_ASSIGNED.get().inc();
        CLIQUE_SIZE.get().observe(c as u64);
        self.added_demand.clear();
        self.added_demand.resize(m, 0.0);
        self.added_members.clear();
        self.added_members.resize(m, 0);

        let space = match m
            .checked_pow(c as u32)
            .filter(|&s| s <= config.enumeration_limit)
        {
            Some(total) => {
                self.enumerate(total, states);
                Space::Enumerated
            }
            None => {
                self.beam_search(states, config.beam_width);
                Space::Beam
            }
        };
        match self.pick(states, config.top_fraction, space) {
            Some(winner) => {
                self.load_candidate(space, winner);
                out.extend_from_slice(&self.assignment);
            }
            None => {
                FALLBACKS.get().inc();
                fallback_least_loaded(&self.cost.demands, states, out);
            }
        }
    }

    /// Pass 1 over the exhaustive space: codes `0..total` in order, decoded
    /// by an odometer (member 0 is the least significant base-`m` digit).
    fn enumerate(&mut self, total: usize, states: &[SlotState]) {
        let m = self.cost.slots;
        let c = self.cost.demands.len();
        self.assignment.clear();
        self.assignment.resize(c, 0);
        self.costs.clear();
        for code in 0..total {
            if code > 0 {
                for slot in self.assignment.iter_mut() {
                    *slot += 1;
                    if *slot < m {
                        break;
                    }
                    *slot = 0;
                }
            }
            let cost = self
                .cost
                .feasible_cost(&self.assignment, states, &mut self.added_demand);
            self.costs.push(cost);
        }
        let feasible = self.costs.iter().filter(|x| x.is_finite()).count();
        CANDIDATES_ENUMERATED.get().add(total as u64);
        CAPACITY_REJECTIONS.get().add((total - feasible) as u64);
        COST_LOOKUPS
            .get()
            .add(total as u64 * self.cost.lookups_per_score());
    }

    /// Pass 1 over the beam space. Each level expands every prefix over
    /// all `m` slots, keeps the `beam_width` cheapest children by (running
    /// cost, expansion order) — what a stable sort by cost and a truncation
    /// keep — and materializes only the kept prefixes. The leaves are then
    /// costed afresh in [`CliqueCost::feasible_cost`]'s accumulation order,
    /// which can round differently from the running prefix sums.
    fn beam_search(&mut self, states: &[SlotState], beam_width: usize) {
        let m = self.cost.slots;
        let c = self.cost.demands.len();
        let by_cost = |a: &Child, b: &Child| {
            a.cost
                .partial_cmp(&b.cost)
                .expect("finite costs")
                .then(a.pos.cmp(&b.pos))
        };
        self.beam.clear();
        self.beam_cost.clear();
        self.beam_cost.push(0.0);
        for idx in 0..c {
            let parents = self.beam_cost.len();
            BEAM_EXPANSIONS.get().add(parents as u64);
            self.children.clear();
            let entry = &self.cost.slot_entry[idx * m..(idx + 1) * m];
            for parent in 0..parents {
                self.child_added.clear();
                self.child_added.extend_from_slice(entry);
                let prefix = &self.beam[parent * idx..(parent + 1) * idx];
                for (prev_idx, &prev_slot) in prefix.iter().enumerate() {
                    self.child_added[prev_slot] += self.cost.pair[prev_idx * c + idx];
                }
                let cost = self.beam_cost[parent];
                for (slot, &added) in self.child_added.iter().enumerate() {
                    self.children.push(Child {
                        pos: parent * m + slot,
                        cost: cost + added,
                    });
                }
            }
            BEAM_PRUNES
                .get()
                .add(self.children.len().saturating_sub(beam_width) as u64);
            if self.children.len() > beam_width {
                self.children
                    .select_nth_unstable_by(beam_width - 1, by_cost);
                self.children.truncate(beam_width);
            }
            self.children.sort_unstable_by(by_cost);
            self.next_beam.clear();
            self.beam_cost.clear();
            for child in &self.children {
                let (parent, slot) = (child.pos / m, child.pos % m);
                self.next_beam
                    .extend_from_slice(&self.beam[parent * idx..(parent + 1) * idx]);
                self.next_beam.push(slot);
                self.beam_cost.push(child.cost);
            }
            std::mem::swap(&mut self.beam, &mut self.next_beam);
        }
        let leaves = self.beam_cost.len();
        CANDIDATES_ENUMERATED.get().add(leaves as u64);
        COST_LOOKUPS
            .get()
            .add(leaves as u64 * self.cost.lookups_per_score());
        self.costs.clear();
        for row in self.beam.chunks_exact(c) {
            let cost = self.cost.feasible_cost(row, states, &mut self.added_demand);
            self.costs.push(cost);
        }
        let feasible = self.costs.iter().filter(|x| x.is_finite()).count();
        CAPACITY_REJECTIONS.get().add((leaves - feasible) as u64);
    }

    /// Pass 2: the winning candidate index, or `None` when every candidate
    /// violated capacity. Keeps every feasible candidate whose cost is
    /// within `1e-12` of the cost at rank `⌈N·top_fraction⌉`, and scores
    /// the balance of those only.
    fn pick(&mut self, states: &[SlotState], top_fraction: f64, space: Space) -> Option<usize> {
        self.ranked.clear();
        self.ranked
            .extend(self.costs.iter().copied().filter(|x| x.is_finite()));
        let n = self.ranked.len();
        if n == 0 {
            return None;
        }
        let keep = ((n as f64 * top_fraction).ceil() as usize).clamp(1, n);
        // Ties at the cut-off stay in: "top 30 % by cost" must not split a
        // set of equal-cost distributions arbitrarily, or the balance
        // tie-break never sees them.
        let (_, &mut boundary, _) = self
            .ranked
            .select_nth_unstable_by(keep - 1, |a, b| a.partial_cmp(b).expect("finite costs"));
        let limit = boundary + 1e-12;
        // (candidate, cost, balance) of the best so far.
        let mut best: Option<(usize, f64, f64)> = None;
        for i in 0..self.costs.len() {
            let cost = self.costs[i];
            if cost > limit {
                continue;
            }
            self.load_candidate(space, i);
            let balance = self.balance(states);
            let wins = best.is_none_or(|(_, best_cost, best_balance)| {
                match balance.partial_cmp(&best_balance).expect("finite balance") {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => cost >= best_cost,
                }
            });
            if wins {
                best = Some((i, cost, balance));
            }
        }
        best.map(|(i, _, _)| i)
    }

    /// Writes candidate `i` of `space` into `self.assignment`.
    fn load_candidate(&mut self, space: Space, i: usize) {
        let m = self.cost.slots;
        let c = self.cost.demands.len();
        self.assignment.clear();
        match space {
            Space::Enumerated => {
                let mut code = i;
                for _ in 0..c {
                    self.assignment.push(code % m);
                    code /= m;
                }
            }
            Space::Beam => self
                .assignment
                .extend_from_slice(&self.beam[i * c..(i + 1) * c]),
        }
    }

    /// Projected balance index of `self.assignment`: every slot's load
    /// plus the demand the assignment adds there plus the member epsilon.
    fn balance(&mut self, states: &[SlotState]) -> f64 {
        for (idx, &slot) in self.assignment.iter().enumerate() {
            self.added_demand[slot] += self.cost.demands[idx];
            self.added_members[slot] += 1;
        }
        self.loads.clear();
        for ((state, &add), &members) in states
            .iter()
            .zip(&self.added_demand)
            .zip(&self.added_members)
        {
            let load = state.load + add;
            self.loads
                .push(load + (state.member_count + members) as f64 * MEMBER_EPSILON_BPS);
        }
        for &slot in &self.assignment {
            self.added_demand[slot] = 0.0;
            self.added_members[slot] = 0;
        }
        normalized_balance_index(&self.loads).unwrap_or(0.0)
    }
}

/// Assigns every member of `clique` to a slot index, implementing the
/// enumerate-or-beam + top-fraction + balance rule. Always returns one slot
/// per member; when every distribution violates capacity the least-loaded
/// slots are used anyway (users must be served).
///
/// # Panics
///
/// Panics if `slots` is empty while `clique` is not.
pub fn assign_clique<D, W>(
    clique: &[UserId],
    slots: &[ApSlot],
    delta: D,
    demand: W,
    config: &S3Config,
) -> Vec<usize>
where
    D: Fn(UserId, UserId) -> f64,
    W: Fn(UserId) -> f64,
{
    if clique.is_empty() {
        return Vec::new();
    }
    assert!(!slots.is_empty(), "cannot assign a clique to zero APs");
    let mut scratch = SearchScratch::default();
    scratch.cost.fill_hashed(clique, slots, &delta, &demand);
    let states: Vec<SlotState> = slots.iter().map(SlotState::of).collect();
    let mut out = Vec::with_capacity(clique.len());
    scratch.search(&states, config, &mut out);
    out
}

fn fallback_least_loaded(demands: &[f64], states: &[SlotState], out: &mut Vec<usize>) {
    let mut loads: Vec<f64> = states.iter().map(|s| s.load).collect();
    for &demand in demands {
        let slot = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .map(|(i, _)| i)
            .expect("slots non-empty");
        loads[slot] += demand;
        out.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(i: u32) -> UserId {
        UserId::new(i)
    }

    fn empty_slots(m: usize) -> Vec<ApSlot> {
        (0..m)
            .map(|_| ApSlot {
                load: 0.0,
                capacity: 1e8,
                members: Vec::new(),
            })
            .collect()
    }

    fn config() -> S3Config {
        S3Config::default()
    }

    /// δ = 1 for every distinct pair.
    fn all_tied(a: UserId, b: UserId) -> f64 {
        if a == b {
            0.0
        } else {
            1.0
        }
    }

    #[test]
    fn tight_clique_is_spread_across_aps() {
        let clique = vec![user(1), user(2), user(3)];
        let slots = empty_slots(3);
        let picks = assign_clique(&clique, &slots, all_tied, |_| 1e4, &config());
        let distinct: std::collections::HashSet<usize> = picks.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            3,
            "tight clique must use all APs: {picks:?}"
        );
    }

    #[test]
    fn clique_larger_than_ap_count_minimizes_collisions() {
        let clique: Vec<UserId> = (0..4).map(user).collect();
        let slots = empty_slots(2);
        let picks = assign_clique(&clique, &slots, all_tied, |_| 1e4, &config());
        // Optimal split is 2+2: exactly two intra-AP pairs (cost 2).
        let on_zero = picks.iter().filter(|&&p| p == 0).count();
        assert_eq!(on_zero, 2, "picks {picks:?}");
    }

    #[test]
    fn avoids_aps_holding_social_partners() {
        // User 1 arrives; user 9 (strongly related) already sits on AP 0.
        let clique = vec![user(1)];
        let mut slots = empty_slots(2);
        slots[0].members.push(user(9));
        let delta = |a: UserId, b: UserId| {
            let pair = (a.raw().min(b.raw()), a.raw().max(b.raw()));
            if pair == (1, 9) {
                0.9
            } else {
                0.0
            }
        };
        let picks = assign_clique(&clique, &slots, delta, |_| 1e4, &config());
        assert_eq!(picks, vec![1]);
    }

    #[test]
    fn respects_capacity_constraint() {
        // AP 0 is nearly full; the arrival's demand only fits AP 1, even
        // though AP 0 is socially free and AP 1 holds a partner.
        let clique = vec![user(1)];
        let mut slots = empty_slots(2);
        slots[0].load = 9.9e7;
        slots[0].capacity = 1e8;
        slots[1].members.push(user(9));
        let delta = |a: UserId, b: UserId| {
            if UserId::new(1) == a.min(b) && UserId::new(9) == a.max(b) {
                1.0
            } else {
                0.0
            }
        };
        let picks = assign_clique(&clique, &slots, delta, |_| 5e6, &config());
        assert_eq!(picks, vec![1], "capacity must override social cost");
    }

    #[test]
    fn all_overloaded_falls_back_to_least_loaded() {
        let clique = vec![user(1), user(2)];
        let mut slots = empty_slots(2);
        slots[0].load = 2e8;
        slots[1].load = 3e8; // both over capacity 1e8
        let picks = assign_clique(&clique, &slots, all_tied, |_| 1e6, &config());
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0], 0, "least loaded first in fallback");
    }

    #[test]
    fn zero_delta_prefers_balanced_loads() {
        // No social signal: the balance tie-break must pick the idle AP.
        let clique = vec![user(1)];
        let mut slots = empty_slots(2);
        slots[0].load = 5e6;
        let picks = assign_clique(&clique, &slots, |_, _| 0.0, |_| 1e6, &config());
        assert_eq!(picks, vec![1]);
    }

    #[test]
    fn beam_search_matches_enumeration_on_small_cases() {
        let clique: Vec<UserId> = (0..3).map(user).collect();
        let mut slots = empty_slots(3);
        slots[0].members.push(user(10));
        let delta = |a: UserId, b: UserId| {
            // 0-1 strongly tied; 10 tied to 2.
            let (lo, hi) = (a.raw().min(b.raw()), a.raw().max(b.raw()));
            match (lo, hi) {
                (0, 1) => 0.8,
                (2, 10) => 0.9,
                _ => 0.05,
            }
        };
        let full = assign_clique(&clique, &slots, delta, |_| 1e4, &config());
        let beamed = assign_clique(
            &clique,
            &slots,
            delta,
            |_| 1e4,
            &S3Config {
                enumeration_limit: 0, // force beam
                ..config()
            },
        );
        let mut cache = CliqueCost::default();
        cache.fill_hashed(&clique, &slots, &delta, &|_: UserId| 1e4);
        let states: Vec<SlotState> = slots.iter().map(SlotState::of).collect();
        let mut added = vec![0.0; slots.len()];
        let mut cost = |assignment: &[usize]| cache.feasible_cost(assignment, &states, &mut added);
        assert!((cost(&full) - cost(&beamed)).abs() < 1e-9);
    }

    #[test]
    fn empty_clique_is_empty_assignment() {
        let picks = assign_clique(&[], &empty_slots(2), all_tied, |_| 0.0, &config());
        assert!(picks.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero APs")]
    fn no_slots_panics() {
        let _ = assign_clique(&[user(1)], &[], all_tied, |_| 0.0, &config());
    }

    #[test]
    fn social_graph_builder_applies_threshold() {
        let users = vec![user(1), user(2), user(3)];
        let delta = |a: UserId, b: UserId| {
            let (lo, hi) = (a.raw().min(b.raw()), a.raw().max(b.raw()));
            match (lo, hi) {
                (1, 2) => 0.8,
                (1, 3) => 0.3, // exactly at threshold: NOT an edge (strict >)
                _ => 0.1,
            }
        };
        let g = build_social_graph(&users, delta, 0.3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.weight(0, 1), 0.8);
    }
}
