//! The fault plane: the one model of what the network does to a datagram.
//!
//! The paper checks a stack against one network specification
//! (`LossyNetwork`, Fig. 2(b)): loss, duplication and reordering belong to
//! the channel, never to an endpoint. [`FaultPlane`] is that channel's
//! decision procedure — link matrix (partition components plus one-way
//! dead links), a scripted schedule of matrix changes, and the
//! [`FaultPlan`] dice on a seeded [`DetRng`] — as one pure struct with no
//! lock, no queue and no clock of its own. A shell tells it the time
//! ([`FaultPlane::advance`]) and asks what happens to one copy
//! ([`FaultPlane::fate`]); only what "late" means is the shell's business.
//! [`crate::LoopbackHub`] (wall clock) holds a late copy back behind the
//! next datagram to the same recipient; `ensemble::sim::Simulation`
//! (virtual clock) gives it one extra link latency. Both re-check the
//! matrix ([`FaultPlane::link_blocked`]) when the copy finally lands, so a
//! `(seed, FaultPlan, PartitionScript)` triple means the same on both.

use ensemble_util::DetRng;
use std::collections::{HashMap, HashSet};

/// Fault probabilities applied per (packet, recipient).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability a datagram is silently dropped.
    pub drop_p: f64,
    /// Probability a datagram is delivered twice.
    pub dup_p: f64,
    /// Probability a datagram is delivered late: behind the next datagram
    /// to the same recipient (adjacent reordering).
    pub reorder_p: f64,
}

impl FaultPlan {
    /// No faults: every datagram delivered exactly once, in order.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// A lossy, reordering link for stress tests.
    pub fn lossy(drop_p: f64, dup_p: f64, reorder_p: f64) -> FaultPlan {
        FaultPlan {
            drop_p,
            dup_p,
            reorder_p,
        }
    }
}

/// Counts of faults actually injected (plus backpressure drops).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Datagrams dropped by the plan.
    pub dropped: u64,
    /// Datagrams duplicated by the plan.
    pub duplicated: u64,
    /// Datagrams held back for reordering.
    pub reordered: u64,
    /// Datagrams dropped because a recipient's ingress queue was full.
    pub backpressure_drops: u64,
    /// Datagrams dropped because sender and recipient sat in different
    /// partition components.
    pub partition_drops: u64,
    /// Datagrams dropped by an asymmetric one-way link kill.
    pub link_drops: u64,
}

/// One step of a scripted link-matrix schedule.
///
/// Components and links are keyed by the 32-bit endpoint *id* (not the
/// full wire key), so a member that rejoins with a fresh incarnation
/// stays inside the component its id belongs to — exactly what a real
/// partition does to a restarted process on the same host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionOp {
    /// Partition the listed endpoint ids into disjoint components:
    /// traffic between two listed ids flows only within a component.
    /// Ids absent from every group are unrestricted.
    Split(Vec<Vec<u32>>),
    /// Remove the component map. One-way drops installed by
    /// [`PartitionOp::DropLink`] stay in force until restored.
    Heal,
    /// Install an asymmetric one-way drop: datagrams from `from` to
    /// `to` are discarded (the reverse direction is unaffected).
    DropLink {
        /// Sender id whose datagrams are discarded.
        from: u32,
        /// Recipient id that stops hearing `from`.
        to: u32,
    },
    /// Remove a one-way drop installed by [`PartitionOp::DropLink`].
    RestoreLink {
        /// Sender id of the drop to remove.
        from: u32,
        /// Recipient id of the drop to remove.
        to: u32,
    },
}

/// A partition schedule: `(offset_ns, op)` steps applied in order as the
/// shell's clock passes `arm time + offset`. Fully determined by its steps
/// — no randomness is involved, so a chaos run replays the same schedule
/// every time, on either clock.
#[derive(Clone, Debug, Default)]
pub struct PartitionScript {
    steps: Vec<(u64, PartitionOp)>,
}

impl PartitionScript {
    /// An empty schedule.
    pub fn new() -> PartitionScript {
        PartitionScript::default()
    }

    /// Appends a step at `offset_ns` after the script is armed. Steps
    /// are sorted by offset when armed, so call order does not matter.
    pub fn at(mut self, offset_ns: u64, op: PartitionOp) -> PartitionScript {
        self.steps.push((offset_ns, op));
        self
    }
}

/// Snapshot of the active link restrictions, for test asserts and the
/// metrics exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionStatus {
    /// Disjoint components currently enforced (endpoint ids, sorted);
    /// empty when healed.
    pub components: Vec<Vec<u32>>,
    /// Active one-way drops, sorted.
    pub dead_links: Vec<(u32, u32)>,
    /// Script steps armed but not yet applied.
    pub pending_steps: usize,
}

impl PartitionStatus {
    /// True when any component split or one-way drop is in force.
    pub fn is_partitioned(&self) -> bool {
        !self.components.is_empty() || !self.dead_links.is_empty()
    }
}

/// What the network does to one copy of a datagram on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Lost: blocked by the link matrix or dropped by the plan.
    Drop,
    /// Delivered once, in order.
    Once,
    /// Delivered twice, in order.
    Twice,
    /// Delivered once, late (the shell decides what late means and
    /// re-checks [`FaultPlane::link_blocked`] when it lands).
    Late,
}

/// The link matrix, the armed script and the seeded dice (see the module
/// docs). Endpoints are named by their 32-bit id throughout.
pub struct FaultPlane {
    rng: DetRng,
    plan: FaultPlan,
    counts: FaultCounts,
    /// Endpoint id → partition component; unmapped ids are unrestricted.
    component: HashMap<u32, usize>,
    /// Asymmetric one-way drops `(from, to)`.
    dead_links: HashSet<(u32, u32)>,
    /// Armed schedule: absolute deadlines (shell-clock ns) with the next
    /// unapplied step at `cursor`.
    script: Vec<(u64, PartitionOp)>,
    cursor: usize,
}

impl FaultPlane {
    /// A healed plane injecting `plan` faults, deterministically from
    /// `seed`.
    pub fn new(seed: u64, plan: FaultPlan) -> FaultPlane {
        FaultPlane {
            rng: DetRng::new(seed),
            plan,
            counts: FaultCounts::default(),
            component: HashMap::new(),
            dead_links: HashSet::new(),
            script: Vec::new(),
            cursor: 0,
        }
    }

    /// Replaces the fault plan (e.g. to stop faults for a drain phase).
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Records a copy the shell lost to a full ingress queue, so one
    /// [`FaultCounts`] tells the whole story.
    pub fn count_backpressure_drop(&mut self) {
        self.counts.backpressure_drops += 1;
    }

    /// Arms `script` relative to `now_ns`, replacing any previously armed
    /// schedule. Steps fire as [`FaultPlane::advance`] passes each
    /// deadline.
    pub fn arm(&mut self, now_ns: u64, script: PartitionScript) {
        let mut steps = script.steps;
        steps.sort_by_key(|(offset, _)| *offset);
        self.script = steps
            .into_iter()
            .map(|(offset, op)| (now_ns.saturating_add(offset), op))
            .collect();
        self.cursor = 0;
    }

    /// Applies script steps whose deadline is at or before `now_ns`.
    pub fn advance(&mut self, now_ns: u64) {
        while let Some((deadline, op)) = self.script.get(self.cursor) {
            if *deadline > now_ns {
                break;
            }
            let op = op.clone();
            self.cursor += 1;
            self.apply(&op);
        }
    }

    /// Applies one link-matrix change immediately.
    pub fn apply(&mut self, op: &PartitionOp) {
        match op {
            PartitionOp::Split(groups) => {
                self.component.clear();
                for (idx, group) in groups.iter().enumerate() {
                    for id in group {
                        self.component.insert(*id, idx);
                    }
                }
            }
            PartitionOp::Heal => self.component.clear(),
            PartitionOp::DropLink { from, to } => {
                self.dead_links.insert((*from, *to));
            }
            PartitionOp::RestoreLink { from, to } => {
                self.dead_links.remove(&(*from, *to));
            }
        }
    }

    /// Whether the link matrix blocks `src → dst` right now, counting the
    /// drop when it does.
    pub fn link_blocked(&mut self, src: u32, dst: u32) -> bool {
        if self.dead_links.contains(&(src, dst)) {
            self.counts.link_drops += 1;
            return true;
        }
        if let (Some(a), Some(b)) = (self.component.get(&src), self.component.get(&dst)) {
            if a != b {
                self.counts.partition_drops += 1;
                return true;
            }
        }
        false
    }

    /// Decides one copy `src → dst`: the link matrix first (no dice), then
    /// drop, reorder and duplicate draws, in that order, stopping at the
    /// first that hits.
    pub fn fate(&mut self, src: u32, dst: u32) -> Fate {
        if self.link_blocked(src, dst) {
            return Fate::Drop;
        }
        if self.rng.chance(self.plan.drop_p) {
            self.counts.dropped += 1;
            return Fate::Drop;
        }
        if self.rng.chance(self.plan.reorder_p) {
            self.counts.reordered += 1;
            return Fate::Late;
        }
        if self.rng.chance(self.plan.dup_p) {
            self.counts.duplicated += 1;
            return Fate::Twice;
        }
        Fate::Once
    }

    /// The active link restrictions and remaining script steps.
    pub fn status(&self) -> PartitionStatus {
        let mut by_component: HashMap<usize, Vec<u32>> = HashMap::new();
        for (id, comp) in &self.component {
            by_component.entry(*comp).or_default().push(*id);
        }
        let mut components: Vec<Vec<u32>> = by_component.into_values().collect();
        for group in &mut components {
            group.sort_unstable();
        }
        components.sort();
        let mut dead_links: Vec<(u32, u32)> = self.dead_links.iter().copied().collect();
        dead_links.sort_unstable();
        PartitionStatus {
            components,
            dead_links,
            pending_steps: self.script.len() - self.cursor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_always_delivers_once() {
        let mut plane = FaultPlane::new(1, FaultPlan::clean());
        assert!((0..100).all(|_| plane.fate(0, 1) == Fate::Once));
        assert_eq!(plane.counts(), FaultCounts::default());
    }

    #[test]
    fn drops_at_the_configured_rate_and_counts_them() {
        let mut plane = FaultPlane::new(2, FaultPlan::lossy(0.5, 0.0, 0.0));
        let dropped = (0..10_000)
            .filter(|_| plane.fate(0, 1) == Fate::Drop)
            .count();
        assert!((4_000..6_000).contains(&dropped), "dropped = {dropped}");
        assert_eq!(plane.counts().dropped, dropped as u64);
    }

    #[test]
    fn draws_stop_at_the_first_hit() {
        // drop → reorder → dup: a certain earlier fault hides later ones.
        let fate = |plan| FaultPlane::new(3, plan).fate(0, 1);
        assert_eq!(fate(FaultPlan::lossy(1.0, 1.0, 1.0)), Fate::Drop);
        assert_eq!(fate(FaultPlan::lossy(0.0, 1.0, 1.0)), Fate::Late);
        assert_eq!(fate(FaultPlan::lossy(0.0, 1.0, 0.0)), Fate::Twice);
    }

    #[test]
    fn a_blocked_link_draws_no_dice() {
        let fates = |split: bool| {
            let mut plane = FaultPlane::new(4, FaultPlan::lossy(0.3, 0.3, 0.3));
            if split {
                plane.apply(&PartitionOp::Split(vec![vec![0], vec![2]]));
                assert!((0..50).all(|_| plane.fate(0, 2) == Fate::Drop));
                assert_eq!(plane.counts().partition_drops, 50);
            }
            (0..200).map(|_| plane.fate(0, 1)).collect::<Vec<_>>()
        };
        assert_eq!(fates(true), fates(false), "0→1 sees the same dice");
    }

    #[test]
    fn script_steps_fire_in_offset_order_as_the_clock_passes() {
        let mut plane = FaultPlane::new(5, FaultPlan::clean());
        plane.arm(
            1_000,
            PartitionScript::new()
                .at(300, PartitionOp::Heal)
                .at(100, PartitionOp::Split(vec![vec![0], vec![1]]))
                .at(200, PartitionOp::DropLink { from: 2, to: 0 }),
        );
        plane.advance(1_099);
        assert!(!plane.status().is_partitioned());
        plane.advance(1_100);
        assert_eq!(plane.status().components, vec![vec![0], vec![1]]);
        assert_eq!(plane.status().pending_steps, 2);
        plane.advance(5_000);
        let status = plane.status();
        assert!(status.components.is_empty(), "healed");
        assert_eq!(status.dead_links, vec![(2, 0)], "heal keeps dead links");
        assert_eq!(status.pending_steps, 0);
        assert_eq!(plane.fate(2, 0), Fate::Drop);
        assert_eq!(plane.fate(0, 2), Fate::Once, "one-way");
        assert_eq!(plane.counts().link_drops, 1);
    }
}
