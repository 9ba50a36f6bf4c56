//! Program allocation: the constraint model of §4.3, solved exactly.
//!
//! The model assigns each depth level of the translated program a *logical
//! RPB* `x_i ∈ 1..=M·(R+1)` (physical RPB × recirculation pass), subject to
//! the paper's constraints:
//!
//! 1. strict ordering: `x_i < x_{i+1}`;
//! 2. table entries: the entries a program installs into a physical RPB
//!    (across all its passes) must fit the RPB's free entries;
//! 3. memory: each virtual memory block needs contiguous free memory in
//!    its physical RPB;
//! 4. forwarding primitives only execute in ingress RPBs;
//! 5. two accesses to the same virtual memory at different depths must hit
//!    the same physical RPB on different passes (`x_j = x_i + M·k`) — the
//!    hardware cannot access one stage's memory from another;
//! 6. *(this implementation, see DESIGN.md)* an offset step and its memory
//!    access — and a supportive-register backup and its restore — must land
//!    in the same pass, because the translated address (`pma`) and the
//!    scratch container are not carried in the recirculation header.
//!
//! The prototype hands this model to Z3; here it is solved by exact
//! branch-and-bound (the model is small: `L ≤ 44` variables over a domain
//! of 44 values). All four objective schemes of §6.2.4 are implemented:
//! `f1 = α·x_L − β·x_1`, `f2 = x_L`, `f3 = x_L / x_1`, and the
//! hierarchical scheme (minimize `x_L`, then maximize `x_1`). `f3`'s
//! nonlinear objective defeats the bound across `x_1` values, so it
//! searches every `x_1` instead of stopping once no `x_1` can win.
//!
//! ## The fast solver
//!
//! The default solver works on an *interned* form of the model: virtual
//! memories become small integer ids (their index in `ir.memories`), so
//! `try_place`/`unplace` never clone a `String` or touch a string-keyed
//! map on the hot path. On top of the classic `x_L` bound it adds three
//! sound prunes:
//!
//! - **suffix capacity**: precomputed suffix sums of per-slot entry needs
//!   against the running total of free entries — O(1) per node;
//! - **free-slot dominance**: a slot with no entries, no memories, no
//!   forwarding and no same-pass pair (alignment NOP levels) only ever
//!   tries the smallest legal index — placing it earlier strictly
//!   dominates;
//! - **look-ahead bound**: a table, built once per solve, of the latest
//!   index each level can take so that the levels after it still fit in
//!   strict order below a given `x_L` bound with every forwarding level in
//!   an ingress RPB (constraints (1) and (4) alone). A level whose
//!   forwarding tail cannot reach an ingress RPB in time is cut at the
//!   node instead of at the leaves, which is what lets an infeasible
//!   pinned `x_1` fail in a handful of nodes instead of the whole budget.
//!
//! Every prune removes only subtrees without a feasible leaf and keeps the
//! visiting order, so the result is the reference's. The original
//! clone-heavy solver survives as [`crate::alloc_reference`] (selected by
//! [`AllocConfig::reference`]); the `alloc_equivalence` proptest suite
//! keeps the two in lockstep.

use crate::errors::{CompileError, CompileResult};
use crate::ir::{IrOp, ProgramIr};
use p4rp_dataplane::{LogicalRpb, RpbId, NUM_RPBS};
use std::collections::HashMap;

/// Per-level requirements extracted from the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotReq {
    /// Table entries this level installs (NOPs cost none).
    pub entries: usize,
    /// Virtual memories accessed at this level.
    pub mems: Vec<String>,
    /// Contains a forwarding primitive (constraint 4).
    pub is_forwarding: bool,
}

/// Extract slot requirements and same-pass pairs from a lowered program.
pub fn slot_requirements(ir: &ProgramIr) -> (Vec<SlotReq>, Vec<(usize, usize)>) {
    let mut reqs = Vec::with_capacity(ir.levels.len());
    let mut pairs = Vec::new();
    let mut backups: HashMap<u32, usize> = HashMap::new();
    for (i, level) in ir.levels.iter().enumerate() {
        let mut mems: Vec<String> = level
            .iter()
            .filter_map(|p| p.op.mem_access().map(str::to_string))
            .collect();
        mems.sort();
        mems.dedup();
        let entries = level.iter().filter(|p| p.op != IrOp::Nop).count();
        let is_forwarding = level.iter().any(|p| p.op.is_forwarding());
        for p in level {
            match &p.op {
                IrOp::MemOffset { .. } => pairs.push((i, i + 1)),
                IrOp::Backup { pair, .. } => {
                    backups.insert(*pair, i);
                }
                IrOp::Restore { pair, .. } => {
                    if let Some(&b) = backups.get(pair) {
                        pairs.push((b, i));
                    }
                }
                _ => {}
            }
        }
        reqs.push(SlotReq { entries, mems, is_forwarding });
    }
    pairs.sort();
    pairs.dedup();
    (reqs, pairs)
}

/// Snapshot of data plane resource availability, supplied by the resource
/// manager (`te_free(x)` / `mem_free(x)` in the paper's formulation).
#[derive(Debug, Clone)]
pub struct AllocView {
    /// Free table entries per physical RPB (index 0 = RPB 1).
    pub te_free: Vec<usize>,
    /// Sizes of the free contiguous memory partitions per physical RPB.
    pub mem_free: Vec<Vec<u32>>,
}

impl AllocView {
    /// A fully-free data plane (for tests and capacity analysis).
    pub fn unconstrained(table_size: usize, mem_size: u32) -> AllocView {
        AllocView {
            te_free: vec![table_size; NUM_RPBS],
            mem_free: vec![vec![mem_size]; NUM_RPBS],
        }
    }
}

/// The §6.2.4 objective schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// `f1 = α·x_L − β·x_1` (the prototype default, α=0.7, β=0.3).
    /// WeightedDiff.
    WeightedDiff { alpha: f64, beta: f64 },
    /// `f2 = x_L`.
    LastOnly,
    /// `f3 = x_L / x_1` (nonlinear: every `x_1` is searched).
    Ratio,
    /// Minimize `x_L`, then maximize `x_1` with `x_L` fixed.
    Hierarchical,
}

impl Objective {
    /// The prototype's default: α = 0.7, β = 0.3 (§6.2).
    pub fn paper_default() -> Objective {
        Objective::WeightedDiff { alpha: 0.7, beta: 0.3 }
    }
}

/// Allocator configuration.
#[derive(Debug, Clone, Copy)]
pub struct AllocConfig {
    /// Maximum recirculation iterations `R` (the prototype uses 1).
    pub max_recirc: u8,
    /// Objective.
    pub objective: Objective,
    /// Search-node budget per inner solve. The allocation scheme is
    /// best-effort (§4.3); a search that exhausts the budget without a
    /// solution reports failure, like a Z3 timeout would.
    pub node_budget: u64,
    /// Solve with the naive reference DFS (clone-heavy, no pruning beyond
    /// the `x_L` bound) instead of the interned, pruned fast solver. The
    /// reference is the semantic authority the `alloc_equivalence`
    /// proptest suite checks the fast solver against, and the "before"
    /// side of `bench_controlplane`.
    pub reference: bool,
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig {
            max_recirc: 1,
            objective: Objective::paper_default(),
            node_budget: 200_000,
            reference: false,
        }
    }
}

/// A successful allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Logical RPB index per level (1-based, length `L`).
    pub x: Vec<u16>,
    /// Physical placement of each virtual memory.
    pub mem_rpb: HashMap<String, RpbId>,
    /// Pipeline passes the program needs (1 = no recirculation).
    pub passes: u8,
    /// Objective value.
    pub objective_value: f64,
    /// Search nodes explored (solver-cost proxy for the benchmarks).
    pub nodes_explored: u64,
}

/// Solve the allocation model for one program.
pub fn allocate(
    ir: &ProgramIr,
    view: &AllocView,
    cfg: &AllocConfig,
) -> CompileResult<Allocation> {
    let (reqs, pairs) = slot_requirements(ir);
    allocate_slots(ir, &reqs, &pairs, view, cfg)
}

fn allocate_slots(
    ir: &ProgramIr,
    reqs: &[SlotReq],
    pairs: &[(usize, usize)],
    view: &AllocView,
    cfg: &AllocConfig,
) -> CompileResult<Allocation> {
    let max_index = LogicalRpb::max_index(cfg.max_recirc);
    let l = reqs.len();
    if l == 0 {
        return Err(CompileError::AllocationFailed { reason: "empty program".into() });
    }
    if l > usize::from(max_index) {
        return Err(CompileError::TooDeep { depth: l, max: usize::from(max_index) });
    }

    // Fast infeasibility prechecks before the search proper.
    let total_entries: usize = reqs.iter().map(|r| r.entries).sum();
    let total_free: usize = view.te_free.iter().sum();
    if total_entries > total_free {
        return Err(CompileError::AllocationFailed {
            reason: format!("needs {total_entries} entries, {total_free} free"),
        });
    }
    let max_te = view.te_free.iter().copied().max().unwrap_or(0);
    for (i, r) in reqs.iter().enumerate() {
        if r.entries > max_te {
            return Err(CompileError::AllocationFailed {
                reason: format!("level {i} needs {} entries, largest RPB has {max_te}", r.entries),
            });
        }
    }
    for m in &ir.memories {
        // A vmem needs one RPB with a large-enough partition *and* enough
        // entries for every level that accesses it.
        let needed: usize = reqs
            .iter()
            .filter(|r| r.mems.iter().any(|v| v == &m.name))
            .map(|r| r.entries)
            .sum();
        let ok = (0..NUM_RPBS).any(|r| {
            view.mem_free[r].iter().any(|&p| p >= m.size) && view.te_free[r] >= needed
        });
        if !ok {
            return Err(CompileError::AllocationFailed {
                reason: format!("no RPB can host memory `{}` ({} buckets)", m.name, m.size),
            });
        }
    }

    if cfg.reference {
        return crate::alloc_reference::solve(ir, reqs, pairs, view, cfg);
    }

    // Intern: virtual memories become their index in `ir.memories` (lower
    // guarantees every accessed memory is declared there), and per-slot
    // requirements carry the ids plus the dominance flag.
    let sizes: Vec<u32> = ir.memories.iter().map(|m| m.size).collect();
    let ireqs: Vec<SlotReqI> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| SlotReqI {
            entries: r.entries,
            mems: r
                .mems
                .iter()
                .map(|m| {
                    ir.memories
                        .iter()
                        .position(|d| &d.name == m)
                        .expect("lowered op references a declared memory")
                        as u16
                })
                .collect(),
            is_forwarding: r.is_forwarding,
            free: r.entries == 0
                && r.mems.is_empty()
                && !r.is_forwarding
                && !pairs.iter().any(|&(a, b)| a == i || b == i),
        })
        .collect();
    let mut entries_suffix = vec![0usize; l + 1];
    for i in (0..l).rev() {
        entries_suffix[i] = entries_suffix[i + 1] + ireqs[i].entries;
    }
    // Look-ahead: `latest[i·width + u]` is the largest index level `i` can
    // take when `x_L < u`, given strict ordering of levels `i..` and
    // constraint (4) for each forwarding level among them (0 = none).
    // `prev_ingress[c]` is the largest ingress index ≤ `c` (0 = none).
    let width = usize::from(max_index) + 2;
    let mut prev_ingress = vec![0u16; width - 1];
    for c in 1..width - 1 {
        let ingress = LogicalRpb::from_index(c as u16).rpb().is_ingress();
        prev_ingress[c] = if ingress { c as u16 } else { prev_ingress[c - 1] };
    }
    let mut latest = vec![0u16; l * width];
    for i in (0..l).rev() {
        for u in 0..width {
            let below = if i + 1 == l { u as u16 } else { latest[(i + 1) * width + u] };
            let c = below.saturating_sub(1);
            latest[i * width + u] =
                if ireqs[i].is_forwarding { prev_ingress[usize::from(c)] } else { c };
        }
    }

    let mut solver = Solver {
        budget: cfg.node_budget,
        reqs: &ireqs,
        pairs,
        sizes: &sizes,
        entries_suffix: &entries_suffix,
        latest: &latest,
        width,
        max_index,
        te_free: view.te_free.clone(),
        te_used: vec![0; NUM_RPBS],
        free_total: total_free,
        mem_free: view.mem_free.clone(),
        mem_placed: vec![None; sizes.len()],
        nodes: 0,
    };

    let best = match cfg.objective {
        Objective::LastOnly => solver.search_min_xl(None, None).map(|(x, xl)| (x, f64::from(xl))),
        Objective::Hierarchical => {
            // Phase 1: minimal x_L. Phase 2: maximal x_1 holding x_L.
            match solver.search_min_xl(None, None) {
                None => None,
                Some((x0, xl)) => {
                    let mut best: Option<(Vec<u16>, f64)> = Some((x0, f64::from(xl)));
                    for x1 in (2..=max_index.saturating_sub(l as u16 - 1)).rev() {
                        if let Some((x, got_xl)) = solver.search_min_xl(Some(x1), Some(xl)) {
                            debug_assert!(got_xl <= xl);
                            best = Some((x, f64::from(got_xl)));
                            break;
                        }
                    }
                    best
                }
            }
        }
        Objective::WeightedDiff { alpha, beta } => {
            let mut best: Option<(Vec<u16>, f64)> = None;
            // Larger x_1 reduces the objective; iterate descending so the
            // bound prunes early.
            for x1 in (1..=max_index - (l as u16 - 1)).rev() {
                // Best conceivable for this x_1: x_L = x_1 + L − 1.
                let lower = alpha * f64::from(x1 + l as u16 - 1) - beta * f64::from(x1);
                if let Some((_, score)) = &best {
                    if lower >= *score {
                        continue;
                    }
                }
                if let Some((x, xl)) = solver.search_min_xl(Some(x1), None) {
                    let score = alpha * f64::from(xl) - beta * f64::from(x1);
                    if best.as_ref().is_none_or(|(_, s)| score < *s) {
                        best = Some((x, score));
                    }
                }
            }
            best
        }
        Objective::Ratio => {
            // Nonlinear: no bound across x_1 values, so every x_1 is
            // searched.
            let mut best: Option<(Vec<u16>, f64)> = None;
            for x1 in 1..=max_index - (l as u16 - 1) {
                if let Some((x, xl)) = solver.search_min_xl(Some(x1), None) {
                    let score = f64::from(xl) / f64::from(x1);
                    if best.as_ref().is_none_or(|(_, s)| score < *s) {
                        best = Some((x, score));
                    }
                }
            }
            best
        }
    };

    let nodes = solver.nodes;
    match best {
        None => Err(CompileError::AllocationFailed {
            reason: format!("no feasible placement for {} levels", l),
        }),
        Some((x, objective_value)) => {
            // Recompute memory placement for the winning assignment.
            let mem_rpb = placement_for(reqs, &x);
            let passes = x
                .iter()
                .map(|&xi| LogicalRpb::from_index(xi).pass())
                .max()
                .unwrap_or(0)
                + 1;
            Ok(Allocation { x, mem_rpb, passes, objective_value, nodes_explored: nodes })
        }
    }
}

/// Reconstruct the vmem → RPB mapping implied by an assignment.
pub(crate) fn placement_for(reqs: &[SlotReq], x: &[u16]) -> HashMap<String, RpbId> {
    let mut out = HashMap::new();
    for (slot, req) in reqs.iter().enumerate() {
        let rpb = LogicalRpb::from_index(x[slot]).rpb();
        for vmem in &req.mems {
            out.entry(vmem.clone()).or_insert(rpb);
        }
    }
    out
}

/// Interned per-level requirements (memories by id, dominance flag).
struct SlotReqI {
    entries: usize,
    mems: Vec<u16>,
    is_forwarding: bool,
    /// No entries, no memories, no forwarding, in no same-pass pair:
    /// the slot only spends a logical index (alignment NOP levels).
    free: bool,
}

struct Solver<'a> {
    budget: u64,
    reqs: &'a [SlotReqI],
    pairs: &'a [(usize, usize)],
    /// vmem id → size.
    sizes: &'a [u32],
    /// `entries_suffix[i]` = entries needed by slots `i..`.
    entries_suffix: &'a [usize],
    /// The look-ahead table, `width` columns per slot (see `allocate_slots`).
    latest: &'a [u16],
    width: usize,
    max_index: u16,
    te_free: Vec<usize>,
    te_used: Vec<usize>,
    /// Total free entries remaining across all RPBs.
    free_total: usize,
    mem_free: Vec<Vec<u32>>,
    /// vmem id → (physical rpb index 0-based, last pass used).
    mem_placed: Vec<Option<(usize, u8)>>,
    nodes: u64,
}

impl Solver<'_> {
    /// Branch-and-bound minimizing `x_L`, optionally pinning `x_1` and
    /// bounding `x_L`. Returns the best assignment found.
    fn search_min_xl(&mut self, x1: Option<u16>, xl_cap: Option<u16>) -> Option<(Vec<u16>, u16)> {
        let mut best: Option<(Vec<u16>, u16)> = None;
        let mut x = vec![0u16; self.reqs.len()];
        let mut bound = xl_cap.map(|c| c + 1).unwrap_or(self.max_index + 1);
        let deadline = self.nodes.saturating_add(self.budget);
        self.dfs(0, 0, x1, &mut x, &mut best, &mut bound, deadline);
        best
    }

    /// The latest index `slot` can take with a completion below `bound`.
    #[inline]
    fn latest(&self, slot: usize, bound: u16) -> u16 {
        self.latest[slot * self.width + usize::from(bound)]
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        slot: usize,
        prev: u16,
        x1: Option<u16>,
        x: &mut Vec<u16>,
        best: &mut Option<(Vec<u16>, u16)>,
        bound: &mut u16,
        deadline: u64,
    ) {
        if self.nodes >= deadline {
            return;
        }
        let l = self.reqs.len();
        if slot == l {
            let xl = x[l - 1];
            if best.as_ref().is_none_or(|(_, b)| xl < *b) {
                *best = Some((x.clone(), xl));
                *bound = xl;
            }
            return;
        }
        // Suffix capacity: entries still to place exceed the total free —
        // infeasible no matter the assignment.
        if self.entries_suffix[slot] > self.free_total {
            return;
        }
        let lo = if slot == 0 { x1.unwrap_or(1) } else { prev + 1 };
        // Look-ahead bound: past `latest`, the remaining levels cannot all
        // fit, in order and with forwarding in ingress RPBs, below `bound`.
        let mut hi = self.latest(slot, *bound);
        if slot == 0 && x1.is_some() {
            hi = hi.min(lo);
        }
        if lo > hi {
            return;
        }

        if self.reqs[slot].free {
            // Dominance: placing an unconstrained slot at `lo` strictly
            // dominates any later index (same resources, looser ordering),
            // so one child decides the whole range.
            self.nodes += 1;
            x[slot] = lo;
            self.dfs(slot + 1, lo, x1, x, best, bound, deadline);
            x[slot] = 0;
            return;
        }
        for cand in lo..=hi {
            // A solution inside this subtree tightens the bound.
            if cand > self.latest(slot, *bound) {
                break;
            }
            self.nodes += 1;
            if let Some(undo) = self.try_place(slot, cand, x) {
                x[slot] = cand;
                self.dfs(slot + 1, cand, x1, x, best, bound, deadline);
                x[slot] = 0;
                self.unplace(undo);
            }
        }
    }

    /// Attempt to place `slot` at logical index `cand`; on success return
    /// the undo record.
    fn try_place(&mut self, slot: usize, cand: u16, x: &[u16]) -> Option<Undo> {
        let req = &self.reqs[slot];
        let logical = LogicalRpb::from_index(cand);
        let rpb = logical.rpb();
        let rpb_idx = usize::from(rpb.0) - 1;
        let pass = logical.pass();

        // (4) forwarding only in ingress RPBs.
        if req.is_forwarding && !rpb.is_ingress() {
            return None;
        }
        // (6) same-pass pairs where this slot is the second element.
        for &(a, b) in self.pairs {
            if b == slot {
                let xa = x[a];
                if xa != 0 && LogicalRpb::from_index(xa).pass() != pass {
                    return None;
                }
            }
        }
        // (2) table entries, cumulative per physical RPB.
        if self.te_used[rpb_idx] + req.entries > self.te_free[rpb_idx] {
            return None;
        }
        // (3)+(5) memory.
        let mut mem_undo: Vec<MemUndo> = Vec::new();
        for &m in &req.mems {
            let mi = usize::from(m);
            match self.mem_placed[mi] {
                Some((placed_rpb, last_pass)) => {
                    // Constraint (5): same physical RPB, strictly later pass.
                    if placed_rpb != rpb_idx || pass <= last_pass {
                        self.rollback(mem_undo);
                        return None;
                    }
                    self.mem_placed[mi] = Some((rpb_idx, pass));
                    mem_undo.push(MemUndo::Replaced(m, (placed_rpb, last_pass)));
                }
                None => {
                    let size = self.sizes[mi];
                    // First-fit over the free partitions.
                    match self.mem_free[rpb_idx].iter().position(|&p| p >= size) {
                        Some(part) => {
                            self.mem_free[rpb_idx][part] -= size;
                            self.mem_placed[mi] = Some((rpb_idx, pass));
                            mem_undo.push(MemUndo::Taken(m, rpb_idx, part, size));
                        }
                        None => {
                            self.rollback(mem_undo);
                            return None;
                        }
                    }
                }
            }
        }
        self.te_used[rpb_idx] += req.entries;
        self.free_total -= req.entries;
        Some(Undo { rpb_idx, entries: req.entries, mem: mem_undo })
    }

    fn unplace(&mut self, undo: Undo) {
        self.te_used[undo.rpb_idx] -= undo.entries;
        self.free_total += undo.entries;
        self.rollback(undo.mem);
    }

    fn rollback(&mut self, undo: Vec<MemUndo>) {
        for u in undo.into_iter().rev() {
            self.undo_mem(u);
        }
    }

    fn undo_mem(&mut self, u: MemUndo) {
        match u {
            MemUndo::Taken(m, rpb, part, size) => {
                self.mem_free[rpb][part] += size;
                self.mem_placed[usize::from(m)] = None;
            }
            MemUndo::Replaced(m, prev) => {
                self.mem_placed[usize::from(m)] = Some(prev);
            }
        }
    }
}

struct Undo {
    rpb_idx: usize,
    entries: usize,
    mem: Vec<MemUndo>,
}

enum MemUndo {
    Taken(u16, usize, usize, u32),
    Replaced(u16, (usize, u8)),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{lower, MemDecl};
    use p4rp_dataplane::{RPB_MEM_SIZE, RPB_TABLE_SIZE};
    use p4rp_lang::parse;

    fn ir_of(src: &str) -> ProgramIr {
        let unit = parse(src).unwrap();
        let mems: Vec<MemDecl> = unit
            .annotations
            .iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        lower(&unit.programs[0], &mems).unwrap()
    }

    fn full_view() -> AllocView {
        AllocView::unconstrained(RPB_TABLE_SIZE, RPB_MEM_SIZE)
    }

    const CACHE: &str = r#"
@ mem1 1024
program cache(<hdr.udp.dst_port, 7777, 0xffff>) {
    EXTRACT(hdr.nc.op, har);
    EXTRACT(hdr.nc.key1, sar);
    EXTRACT(hdr.nc.key2, mar);
    BRANCH:
    case(<har, 0, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        RETURN;
        LOADI(mar, 512);
        MEMREAD(mem1);
        MODIFY(hdr.nc.value, sar);
    };
    case(<har, 1, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        DROP;
        LOADI(mar, 512);
        EXTRACT(hdr.nc.value, sar);
        MEMWRITE(mem1);
    };
    FORWARD(32);
}
"#;

    #[test]
    fn cache_allocates_without_recirculation_on_empty_plane() {
        let ir = ir_of(CACHE);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        assert_eq!(alloc.x.len(), 10);
        assert_eq!(alloc.passes, 1, "10 levels fit one pass: {:?}", alloc.x);
        // Strictly increasing.
        for w in alloc.x.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Forwarding levels landed in ingress RPBs.
        let (reqs, _) = slot_requirements(&ir);
        for (slot, req) in reqs.iter().enumerate() {
            if req.is_forwarding {
                assert!(LogicalRpb::from_index(alloc.x[slot]).is_ingress());
            }
        }
        assert!(alloc.mem_rpb.contains_key("mem1"));
    }

    #[test]
    fn forwarding_constraint_forces_ingress() {
        // A long prefix pushes the DROP deep; it must still land in an
        // ingress RPB of some pass.
        let mut body = String::new();
        for i in 0..12 {
            body.push_str(&format!("LOADI(har, {i});\n"));
        }
        body.push_str("DROP;\n");
        let src = format!("program p(<f,1,1>) {{ {body} }}");
        let ir = ir_of(&src);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        let last = *alloc.x.last().unwrap();
        assert!(LogicalRpb::from_index(last).is_ingress());
        assert_eq!(alloc.passes, 2, "forwarding after depth 12 needs a second pass");
    }

    #[test]
    fn same_memory_twice_requires_recirculation() {
        let src = r#"
@ m 256
program p(<f,1,1>) {
    LOADI(mar, 0);
    MEMREAD(m);
    LOADI(mar, 1);
    MEMWRITE(m);
}
"#;
        let ir = ir_of(src);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        assert_eq!(alloc.passes, 2, "constraint (5): same vmem → same RPB, next pass");
        let (reqs, _) = slot_requirements(&ir);
        let mem_slots: Vec<usize> = reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.mems.is_empty())
            .map(|(i, _)| i)
            .collect();
        let r0 = LogicalRpb::from_index(alloc.x[mem_slots[0]]);
        let r1 = LogicalRpb::from_index(alloc.x[mem_slots[1]]);
        assert_eq!(r0.rpb(), r1.rpb());
        assert!(r1.pass() > r0.pass());
    }

    #[test]
    fn offset_and_access_share_a_pass() {
        let src = "@ m 64\nprogram p(<f,1,1>) { LOADI(mar, 0); MEMREAD(m); }";
        let ir = ir_of(src);
        let (_, pairs) = slot_requirements(&ir);
        assert_eq!(pairs, vec![(1, 2)]);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        assert_eq!(
            LogicalRpb::from_index(alloc.x[1]).pass(),
            LogicalRpb::from_index(alloc.x[2]).pass()
        );
    }

    #[test]
    fn memory_exhaustion_fails_cleanly() {
        let ir = ir_of(CACHE);
        let mut view = full_view();
        for parts in &mut view.mem_free {
            *parts = vec![512]; // less than the requested 1024 everywhere
        }
        let err = allocate(&ir, &view, &AllocConfig::default()).unwrap_err();
        assert!(matches!(err, CompileError::AllocationFailed { .. }));
    }

    #[test]
    fn entry_exhaustion_fails_cleanly() {
        let ir = ir_of(CACHE);
        let mut view = full_view();
        for te in &mut view.te_free {
            *te = 1;
        }
        assert!(allocate(&ir, &view, &AllocConfig::default()).is_err());
    }

    #[test]
    fn too_deep_program_rejected() {
        let mut body = String::new();
        for i in 0..45 {
            body.push_str(&format!("LOADI(har, {i});\n"));
        }
        let src = format!("program p(<f,1,1>) {{ {body} }}");
        let ir = ir_of(&src);
        assert!(matches!(
            allocate(&ir, &full_view(), &AllocConfig::default()),
            Err(CompileError::TooDeep { depth: 45, max: 44 })
        ));
    }

    #[test]
    fn objectives_trade_x1_for_xl() {
        let ir = ir_of(CACHE);
        let view = full_view();
        let f2 = allocate(&ir, &view, &AllocConfig { objective: Objective::LastOnly, ..Default::default() })
            .unwrap();
        let f1 = allocate(&ir, &view, &AllocConfig::default()).unwrap();
        let f3 = allocate(&ir, &view, &AllocConfig { objective: Objective::Ratio, ..Default::default() })
            .unwrap();
        let h = allocate(
            &ir,
            &view,
            &AllocConfig { objective: Objective::Hierarchical, ..Default::default() },
        )
        .unwrap();
        // f2 minimizes x_L outright.
        assert!(f2.x.last() <= f1.x.last());
        assert!(f2.x.last() <= f3.x.last());
        // Hierarchical keeps f2's x_L but pushes x_1 as high as possible.
        assert_eq!(h.x.last(), f2.x.last());
        assert!(h.x[0] >= f2.x[0]);
        // f1/f3 start later (larger x_1) than plain f2's greedy start.
        assert!(f1.x[0] >= f2.x[0]);
        assert!(f3.x[0] >= f2.x[0]);
        // Ratio explores the most nodes (slowest scheme, Figure 12).
        assert!(f3.nodes_explored >= f1.nodes_explored);
    }

    #[test]
    fn cumulative_entries_across_passes_respected() {
        // Two accesses to the same vmem force both passes through one
        // physical RPB; its entry budget must absorb both levels.
        let src = r#"
@ m 64
program p(<f,1,1>) {
    LOADI(mar, 0);
    MEMREAD(m);
    LOADI(mar, 1);
    MEMWRITE(m);
}
"#;
        let ir = ir_of(src);
        let mut view = full_view();
        // Every RPB can hold only one entry — the shared RPB needs 2.
        for te in &mut view.te_free {
            *te = 1;
        }
        assert!(allocate(&ir, &view, &AllocConfig::default()).is_err());
    }

    #[test]
    fn r0_disables_recirculation() {
        let src = r#"
@ m 256
program p(<f,1,1>) {
    LOADI(mar, 0);
    MEMREAD(m);
    LOADI(mar, 1);
    MEMWRITE(m);
}
"#;
        let ir = ir_of(src);
        let cfg = AllocConfig { max_recirc: 0, ..Default::default() };
        // Same-vmem-twice needs a second pass; with R = 0 it must fail.
        assert!(allocate(&ir, &full_view(), &cfg).is_err());
    }

    #[test]
    fn two_memories_can_share_an_rpb_or_split() {
        let src = r#"
@ a 1024
@ b 1024
program p(<f,1,1>) {
    HASH_5_TUPLE_MEM(a);
    MEMADD(a);
    HASH_5_TUPLE_MEM(b);
    MEMADD(b);
}
"#;
        let ir = ir_of(src);
        let alloc = allocate(&ir, &full_view(), &AllocConfig::default()).unwrap();
        assert_eq!(alloc.passes, 1);
        assert_eq!(alloc.mem_rpb.len(), 2);
        assert_ne!(alloc.mem_rpb["a"], alloc.mem_rpb["b"], "sequential accesses → distinct RPBs");
    }
}
