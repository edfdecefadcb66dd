//! STT-Rename: taint computation in the rename stage (§4.1, §4.2).
//!
//! The paper's key finding is that rename-time taint tracking is
//! *fundamentally different* from register renaming: a renamed destination
//! comes from an independent source (the free list), but a destination's
//! YRoT depends on the YRoTs of the instructions it reads — including
//! instructions renamed *in the same cycle*. The YRoT of each op in a rename
//! group must therefore be computed serially, oldest first, and the whole
//! chain must finish within the cycle so the RAT taint state is up to date
//! for the next group (Figure 3). [`RenameTaintTracker::begin_group`]
//! opens a group and [`RenameTaintTracker::rename_op`] takes one op's step
//! of the chain, so a pipeline can compute each YRoT while it dispatches
//! the op; [`RenameTaintTracker::rename_group`] runs a whole group at
//! once. Each step reports the op's serial depth, which the timing model
//! (`sb-timing`) turns into the critical-path cost that caps STT-Rename's
//! frequency on wide cores (§8.3).
//!
//! Because branches may resolve out of order once they are transmitters
//! (§4.2), the RAT taint state must be checkpointed alongside the RAT
//! itself; [`RenameTaintCheckpoint`] models that (and is the source of
//! STT-Rename's flip-flop overhead in Table 4). Restored entries may be
//! stale — their root load may have become non-speculative — which the
//! caller handles by passing a liveness predicate to
//! [`RenameTaintTracker::restore`].

use sb_isa::{ArchReg, Seq, NUM_ARCH_REGS};
use std::fmt;

/// One op of a same-cycle rename group, as seen by the taint chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenameGroupOp {
    /// Sequence number assigned at rename.
    pub seq: Seq,
    /// Source architectural registers (stores: `[addr, data]`).
    pub srcs: [Option<ArchReg>; 2],
    /// Destination architectural register, if any.
    pub dst: Option<ArchReg>,
    /// Whether the op is a load (loads root new taints).
    pub is_load: bool,
    /// Whether the op is under a speculation shadow at rename time.
    pub speculative: bool,
}

/// Per-op result of the rename-group taint chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenameTaintOutcome {
    /// The op's combined YRoT over all source operands (what gates a
    /// transmitter, and what a unified store micro-op uses — the §9.2
    /// partial-issue pathology).
    pub yrot: Option<Seq>,
    /// YRoT over the first (address) operand only, for the split-store
    /// ablation.
    pub addr_yrot: Option<Seq>,
    /// YRoT over the second (data) operand only, for the split-store
    /// ablation.
    pub data_yrot: Option<Seq>,
    /// Serial position of this op's YRoT computation within the same-cycle
    /// dependency chain (1 = no in-group dependency). The maximum over a
    /// group is the chain length that must fit in one cycle.
    pub chain_depth: u32,
    /// Taint the destination register held *before* this op overwrote it
    /// (recorded so a squash walk-back can restore RAT taint state exactly,
    /// the simulator-side equivalent of restoring a YRoT checkpoint).
    pub prev_dst_taint: Option<Seq>,
}

/// A snapshot of the RAT taint extension, taken when a branch is renamed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RenameTaintCheckpoint {
    taints: Vec<Option<Seq>>,
}

impl RenameTaintCheckpoint {
    /// Number of tainted entries in the snapshot (for area accounting).
    #[must_use]
    pub fn tainted_count(&self) -> usize {
        self.taints.iter().filter(|t| t.is_some()).count()
    }
}

/// The RAT taint extension: per-architectural-register YRoT state plus the
/// same-cycle chain computation.
///
/// # Example
///
/// ```
/// use sb_core::{RenameGroupOp, RenameTaintTracker};
/// use sb_isa::{ArchReg, Seq};
///
/// let mut t = RenameTaintTracker::new();
/// // ld x1, [x2]  (speculative)  ;  add x3, x1, x4   -- same cycle
/// let group = [
///     RenameGroupOp { seq: Seq::new(1), srcs: [Some(ArchReg::int(2)), None],
///                     dst: Some(ArchReg::int(1)), is_load: true, speculative: true },
///     RenameGroupOp { seq: Seq::new(2), srcs: [Some(ArchReg::int(1)), Some(ArchReg::int(4))],
///                     dst: Some(ArchReg::int(3)), is_load: false, speculative: true },
/// ];
/// let out = t.rename_group(&group, |_| true);
/// assert_eq!(out[1].yrot, Some(Seq::new(1)), "add inherits the load's taint same-cycle");
/// assert_eq!(out[1].chain_depth, 2, "and pays a serial chain step for it");
/// ```
#[derive(Clone, Debug)]
pub struct RenameTaintTracker {
    taints: Vec<Option<Seq>>,
    /// Per architectural register: the group that last wrote its taint and
    /// the chain depth of that write. A depth counts only while its stamp
    /// equals `group`; older writes were produced before this cycle (depth
    /// 0), which spares clearing a per-register array every group.
    depths: [(u32, u32); NUM_ARCH_REGS],
    /// Stamp of the current rename group (0 = before the first group).
    group: u32,
    /// Longest same-cycle chain observed (timing-model input).
    max_chain_depth: u32,
    /// Total YRoT comparisons performed (power-proxy input).
    comparisons: u64,
}

impl Default for RenameTaintTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl RenameTaintTracker {
    /// An all-untainted tracker.
    #[must_use]
    pub fn new() -> Self {
        RenameTaintTracker {
            taints: vec![None; NUM_ARCH_REGS],
            depths: [(0, 0); NUM_ARCH_REGS],
            group: 0,
            max_chain_depth: 0,
            comparisons: 0,
        }
    }

    /// Current taint of architectural register `r`, filtered through the
    /// liveness predicate by callers as needed.
    #[must_use]
    pub fn taint_of(&self, r: ArchReg) -> Option<Seq> {
        self.taints[r.index()]
    }

    /// Opens the next same-cycle rename group: every taint written before
    /// now reads as produced in an earlier cycle (chain depth 0).
    pub fn begin_group(&mut self) {
        self.group = self.group.wrapping_add(1);
        if self.group == 0 {
            // The stamp wrapped: forget every stamp so none aliases the
            // new group.
            self.depths = [(0, 0); NUM_ARCH_REGS];
            self.group = 1;
        }
    }

    /// Computes the YRoT of the next op of the current group, updating
    /// the RAT taint state, and returns its outcome including its serial
    /// chain depth.
    ///
    /// `live` reports whether a taint root is still speculative; dead taints
    /// read as untainted (the continuous untaint rule of §3.1).
    ///
    /// Ops must be given oldest-first; the serial walk *is* the dependency
    /// chain of Figure 3.
    pub fn rename_op(
        &mut self,
        op: &RenameGroupOp,
        live: impl Fn(Seq) -> bool,
    ) -> RenameTaintOutcome {
        let mut src_yrot = [None, None];
        let mut src_depth = [0u32, 0u32];
        for (i, src) in op.srcs.iter().enumerate() {
            if let Some(r) = src {
                self.comparisons += 1;
                let t = self.taints[r.index()].filter(|&root| live(root));
                src_yrot[i] = t;
                let (stamp, depth) = self.depths[r.index()];
                if t.is_some() && stamp == self.group {
                    src_depth[i] = depth;
                }
            }
        }
        let yrot = match (src_yrot[0], src_yrot[1]) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let chain_depth = 1 + src_depth[0].max(src_depth[1]);
        self.max_chain_depth = self.max_chain_depth.max(chain_depth);

        let mut prev_dst_taint = None;
        if let Some(d) = op.dst {
            let dest_taint = if op.is_load {
                op.speculative.then_some(op.seq)
            } else {
                yrot
            };
            prev_dst_taint = std::mem::replace(&mut self.taints[d.index()], dest_taint);
            let depth = if dest_taint.is_some() { chain_depth } else { 0 };
            self.depths[d.index()] = (self.group, depth);
        }
        RenameTaintOutcome {
            yrot,
            addr_yrot: src_yrot[0],
            data_yrot: src_yrot[1],
            chain_depth,
            prev_dst_taint,
        }
    }

    /// Renames a whole same-cycle group: [`Self::begin_group`], then
    /// [`Self::rename_op`] on each op, oldest first.
    pub fn rename_group(
        &mut self,
        ops: &[RenameGroupOp],
        live: impl Fn(Seq) -> bool,
    ) -> Vec<RenameTaintOutcome> {
        self.begin_group();
        ops.iter().map(|op| self.rename_op(op, &live)).collect()
    }

    /// Snapshots the taint state (taken together with the RAT checkpoint
    /// when a branch is renamed, §4.2).
    #[must_use]
    pub fn checkpoint(&self) -> RenameTaintCheckpoint {
        RenameTaintCheckpoint {
            taints: self.taints.clone(),
        }
    }

    /// Restores a checkpoint after a misprediction, invalidating entries
    /// whose root load is no longer speculative — the staleness scrub §4.2
    /// requires.
    pub fn restore(&mut self, cp: &RenameTaintCheckpoint, live: impl Fn(Seq) -> bool) {
        for (slot, saved) in self.taints.iter_mut().zip(&cp.taints) {
            *slot = saved.filter(|&root| live(root));
        }
    }

    /// Directly sets `r`'s taint — used by squash walk-back, which unwinds
    /// ROB entries youngest-first restoring each op's `prev_dst_taint`.
    pub fn set_taint(&mut self, r: ArchReg, taint: Option<Seq>) {
        self.taints[r.index()] = taint;
    }

    /// Clears every taint (used when the pipeline fully drains).
    pub fn clear(&mut self) {
        self.taints.fill(None);
    }

    /// Longest same-cycle YRoT chain observed so far.
    #[must_use]
    pub fn max_chain_depth(&self) -> u32 {
        self.max_chain_depth
    }

    /// Total YRoT source comparisons performed (power proxy).
    #[must_use]
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of currently tainted architectural registers.
    #[must_use]
    pub fn tainted_count(&self) -> usize {
        self.taints.iter().filter(|t| t.is_some()).count()
    }
}

impl fmt::Display for RenameTaintTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tainted regs, max chain {}",
            self.tainted_count(),
            self.max_chain_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(
        seq: u64,
        srcs: [Option<ArchReg>; 2],
        dst: Option<ArchReg>,
        is_load: bool,
    ) -> RenameGroupOp {
        RenameGroupOp {
            seq: Seq::new(seq),
            srcs,
            dst,
            is_load,
            speculative: true,
        }
    }

    fn x(n: u8) -> ArchReg {
        ArchReg::int(n)
    }

    #[test]
    fn speculative_load_roots_taint() {
        let mut t = RenameTaintTracker::new();
        let out = t.rename_group(&[op(1, [Some(x(2)), None], Some(x(1)), true)], |_| true);
        assert_eq!(out[0].yrot, None, "address operand untainted");
        assert_eq!(t.taint_of(x(1)), Some(Seq::new(1)));
    }

    #[test]
    fn nonspeculative_load_does_not_taint() {
        let mut t = RenameTaintTracker::new();
        let mut o = op(1, [Some(x(2)), None], Some(x(1)), true);
        o.speculative = false;
        t.rename_group(&[o], |_| true);
        assert_eq!(t.taint_of(x(1)), None);
    }

    #[test]
    fn same_cycle_chain_propagates_and_deepens() {
        let mut t = RenameTaintTracker::new();
        // ld x1,[x2]; add x3,x1; add x4,x3  — a full-width serial chain.
        let group = [
            op(1, [Some(x(2)), None], Some(x(1)), true),
            op(2, [Some(x(1)), None], Some(x(3)), false),
            op(3, [Some(x(3)), None], Some(x(4)), false),
        ];
        let out = t.rename_group(&group, |_| true);
        assert_eq!(out[1].yrot, Some(Seq::new(1)));
        assert_eq!(out[2].yrot, Some(Seq::new(1)));
        assert_eq!(out[0].chain_depth, 1);
        assert_eq!(out[1].chain_depth, 2);
        assert_eq!(out[2].chain_depth, 3);
        assert_eq!(t.max_chain_depth(), 3);
    }

    #[test]
    fn independent_ops_have_unit_depth() {
        let mut t = RenameTaintTracker::new();
        let group = [
            op(1, [Some(x(2)), None], Some(x(1)), true),
            op(2, [Some(x(5)), None], Some(x(6)), false),
        ];
        let out = t.rename_group(&group, |_| true);
        assert_eq!(out[1].chain_depth, 1);
    }

    #[test]
    fn youngest_root_wins() {
        let mut t = RenameTaintTracker::new();
        t.rename_group(
            &[
                op(1, [Some(x(9)), None], Some(x(1)), true),
                op(2, [Some(x(9)), None], Some(x(2)), true),
            ],
            |_| true,
        );
        let out = t.rename_group(
            &[op(3, [Some(x(1)), Some(x(2))], Some(x(3)), false)],
            |_| true,
        );
        assert_eq!(
            out[0].yrot,
            Some(Seq::new(2)),
            "YRoT is the *youngest* root"
        );
    }

    #[test]
    fn dead_roots_read_untainted() {
        let mut t = RenameTaintTracker::new();
        t.rename_group(&[op(1, [Some(x(2)), None], Some(x(1)), true)], |_| true);
        // Root #1 no longer speculative: consumer sees no taint.
        let out = t.rename_group(&[op(2, [Some(x(1)), None], Some(x(3)), false)], |root| {
            root > Seq::new(1)
        });
        assert_eq!(out[0].yrot, None);
        assert_eq!(t.taint_of(x(3)), None);
    }

    #[test]
    fn overwrite_clears_taint() {
        let mut t = RenameTaintTracker::new();
        t.rename_group(&[op(1, [Some(x(2)), None], Some(x(1)), true)], |_| true);
        t.rename_group(&[op(2, [Some(x(9)), None], Some(x(1)), false)], |_| true);
        assert_eq!(t.taint_of(x(1)), None, "untainted producer overwrites");
    }

    #[test]
    fn split_store_outcomes_separate_operands() {
        let mut t = RenameTaintTracker::new();
        t.rename_group(&[op(1, [Some(x(2)), None], Some(x(1)), true)], |_| true);
        // store addr=x5 (clean), data=x1 (tainted)
        let out = t.rename_group(&[op(2, [Some(x(5)), Some(x(1))], None, false)], |_| true);
        assert_eq!(out[0].addr_yrot, None, "address operand is clean");
        assert_eq!(out[0].data_yrot, Some(Seq::new(1)));
        assert_eq!(out[0].yrot, Some(Seq::new(1)), "unified taint blocks both");
    }

    #[test]
    fn checkpoint_restore_scrubs_dead_taints() {
        let mut t = RenameTaintTracker::new();
        t.rename_group(
            &[
                op(1, [Some(x(9)), None], Some(x(1)), true),
                op(2, [Some(x(9)), None], Some(x(2)), true),
            ],
            |_| true,
        );
        let cp = t.checkpoint();
        assert_eq!(cp.tainted_count(), 2);
        t.rename_group(&[op(3, [Some(x(9)), None], Some(x(1)), true)], |_| true);
        // Restore with root #1 now dead, root #2 still live.
        t.restore(&cp, |root| root > Seq::new(1));
        assert_eq!(t.taint_of(x(1)), None, "stale entry scrubbed on restore");
        assert_eq!(t.taint_of(x(2)), Some(Seq::new(2)));
    }

    #[test]
    fn clear_untaints_everything() {
        let mut t = RenameTaintTracker::new();
        t.rename_group(&[op(1, [Some(x(2)), None], Some(x(1)), true)], |_| true);
        t.clear();
        assert_eq!(t.tainted_count(), 0);
    }

    /// The whole-group chain as it was computed before the per-op API: a
    /// zeroed depth array per group over a plain taint table. The oracle
    /// the per-op steps must equal.
    fn zeroed_array_group(
        taints: &mut [Option<Seq>; NUM_ARCH_REGS],
        ops: &[RenameGroupOp],
        live: impl Fn(Seq) -> bool,
    ) -> Vec<RenameTaintOutcome> {
        let mut depth = [0u32; NUM_ARCH_REGS];
        let mut out = Vec::new();
        for op in ops {
            let mut src_yrot = [None, None];
            let mut src_depth = [0u32, 0u32];
            for (i, src) in op.srcs.iter().enumerate() {
                if let Some(r) = src {
                    let t = taints[r.index()].filter(|&root| live(root));
                    src_yrot[i] = t;
                    if t.is_some() {
                        src_depth[i] = depth[r.index()];
                    }
                }
            }
            let yrot = match (src_yrot[0], src_yrot[1]) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            let chain_depth = 1 + src_depth[0].max(src_depth[1]);
            let mut prev_dst_taint = None;
            if let Some(d) = op.dst {
                let dest_taint = if op.is_load {
                    op.speculative.then_some(op.seq)
                } else {
                    yrot
                };
                prev_dst_taint = std::mem::replace(&mut taints[d.index()], dest_taint);
                depth[d.index()] = if dest_taint.is_some() { chain_depth } else { 0 };
            }
            out.push(RenameTaintOutcome {
                yrot,
                addr_yrot: src_yrot[0],
                data_yrot: src_yrot[1],
                chain_depth,
                prev_dst_taint,
            });
        }
        out
    }

    #[test]
    fn register_renamed_in_an_earlier_group_reads_depth_one() {
        let mut t = RenameTaintTracker::new();
        t.begin_group();
        let root = t.rename_op(&op(1, [Some(x(2)), None], Some(x(1)), true), |_| true);
        let dep = t.rename_op(&op(2, [Some(x(1)), None], Some(x(3)), false), |_| true);
        assert_eq!((root.chain_depth, dep.chain_depth), (1, 2));
        t.begin_group();
        let out = t.rename_op(&op(3, [Some(x(3)), None], Some(x(4)), false), |_| true);
        assert_eq!(out.yrot, Some(Seq::new(1)), "the taint itself carries over");
        assert_eq!(out.chain_depth, 1, "its chain depth does not");
    }

    #[test]
    fn per_op_steps_build_depth_within_a_group() {
        let mut t = RenameTaintTracker::new();
        t.begin_group();
        let depths: Vec<u32> = [
            op(1, [Some(x(9)), None], Some(x(1)), true),
            op(2, [Some(x(1)), None], Some(x(2)), false),
            op(3, [Some(x(5)), None], Some(x(6)), false),
            op(4, [Some(x(6)), Some(x(2))], Some(x(7)), false),
        ]
        .iter()
        .map(|o| t.rename_op(o, |_| true).chain_depth)
        .collect();
        // x5/x6 are untainted, so op 4's depth comes from the x1 -> x2 chain.
        assert_eq!(depths, [1, 2, 1, 3]);
        assert_eq!(t.max_chain_depth(), 3);
    }

    #[test]
    fn group_stamp_wraparound_forgets_old_depths() {
        let mut t = RenameTaintTracker::new();
        // Group 1 leaves x2 at chain depth 2.
        t.begin_group();
        assert_eq!(t.group, 1);
        t.rename_op(&op(1, [Some(x(9)), None], Some(x(1)), true), |_| true);
        t.rename_op(&op(2, [Some(x(1)), None], Some(x(2)), false), |_| true);
        // 2^32 - 1 groups later the stamp wraps back to 1: x2's old stamp
        // must not alias the new group.
        t.group = u32::MAX - 1;
        t.begin_group();
        assert_eq!(t.group, u32::MAX);
        t.begin_group();
        assert_eq!(t.group, 1);
        let out = t.rename_op(&op(3, [Some(x(2)), None], Some(x(3)), false), |_| true);
        assert_eq!(out.yrot, Some(Seq::new(1)));
        assert_eq!(out.chain_depth, 1);
        // A depth stamped in the new group still counts within it.
        let out = t.rename_op(&op(4, [Some(x(3)), None], Some(x(4)), false), |_| true);
        assert_eq!(out.chain_depth, 2);
    }

    #[test]
    fn per_op_steps_equal_the_zeroed_array_group() {
        // Deterministic pseudo-random groups over a few registers, so
        // chains, overwrites and dead roots are all common.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut per_op = RenameTaintTracker::new();
        let mut oracle = [None; NUM_ARCH_REGS];
        let mut seq = 0u64;
        for _ in 0..2_000 {
            let width = 1 + next(8) as usize;
            let group: Vec<RenameGroupOp> = (0..width)
                .map(|_| {
                    seq += 1;
                    let reg = |v: u64| (v < 6).then(|| x(1 + v as u8));
                    RenameGroupOp {
                        seq: Seq::new(seq),
                        srcs: [reg(next(8)), reg(next(8))],
                        dst: reg(next(7)),
                        is_load: next(3) == 0,
                        speculative: next(4) != 0,
                    }
                })
                .collect();
            // Roots older than a moving horizon are dead.
            let horizon = Seq::new(seq.saturating_sub(12));
            let live = |root: Seq| root > horizon;
            let want = zeroed_array_group(&mut oracle, &group, live);
            per_op.begin_group();
            let got: Vec<RenameTaintOutcome> =
                group.iter().map(|o| per_op.rename_op(o, live)).collect();
            assert_eq!(got, want);
            for r in 1..8 {
                assert_eq!(per_op.taint_of(x(r)), oracle[x(r).index()]);
            }
        }
    }

    #[test]
    fn comparisons_are_counted() {
        let mut t = RenameTaintTracker::new();
        t.rename_group(
            &[op(1, [Some(x(2)), Some(x(3))], Some(x(1)), false)],
            |_| true,
        );
        assert_eq!(t.comparisons(), 2);
    }
}
