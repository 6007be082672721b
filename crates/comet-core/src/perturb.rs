//! The basic-block perturbation algorithm Γ (paper §5.2, Algorithm 1,
//! Appendices C–D).
//!
//! Given a set of features to preserve, Γ randomly perturbs every other
//! feature independently:
//!
//! * *vertices* (instructions) are deleted (when η need not be
//!   preserved) or their opcode is replaced with another opcode
//!   accepting the same operands — opcodes with no valid replacement
//!   (`lea`) are retained, the paper's Appendix D case;
//! * *edges* (data dependencies) are broken by renaming the carrying
//!   operand registers to others of the same type and size, or by
//!   displacing the carrying memory address.
//!
//! Operand occurrences that carry a *preserved* dependency are
//! protected from renaming, and a post-check guarantees every preserved
//! feature survives in the emitted block (re-attempting the stochastic
//! choices when a rare interaction — e.g. an opcode replacement turning
//! a read into an interposing write — would violate one).
//!
//! # Hot path
//!
//! Γ runs once per model query — tens of thousands of times per
//! explanation — so the sampler has two entry points. The original
//! [`Perturber::perturb`] allocates a fresh [`PerturbedBlock`] per
//! call; [`Perturber::perturb_into`] instead writes into a caller-held
//! [`PerturbScratch`] (instruction buffers, protection tables, the
//! rebuilt block, and the surviving-feature bitmask), reaching zero
//! steady-state heap allocations. Both paths draw from the RNG in
//! exactly the same order, so seeded explanations are byte-identical
//! whichever entry point the caller uses.

use std::collections::HashSet;

#[cfg(test)]
use comet_graph::DepKind;
use comet_graph::{BlockGraph, DepConfig, DepEdge, EdgeSetScratch};
use comet_isa::{
    opcode_replacements, BasicBlock, Instruction, Opcode, Operand, RegClass, Register, Size,
};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bitset::{FeatureMask, FeaturePool};
use crate::feature::{extract_features, Feature, FeatureSet};

/// What counts as perturbing "the instruction feature" (paper
/// Appendix E.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementScheme {
    /// Only opcode changes perturb an instruction feature (the paper's
    /// default — higher explanation accuracy).
    OpcodeOnly,
    /// Operand renames (type- and size-preserving) also count as
    /// instruction perturbations.
    WholeInstruction,
}

/// Γ's stochastic parameters (defaults follow the paper's §6 settings
/// and Appendix E ablations).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerturbConfig {
    /// Probability of retaining a non-preserved instruction
    /// (`p_I,ret`, paper: 0.5).
    pub p_inst_retain: f64,
    /// Probability of *explicitly* retaining a non-preserved data
    /// dependency — the lower bound for `p_D,ret` (paper Appendix E.3:
    /// 0.1).
    pub p_dep_retain: f64,
    /// Probability that a perturbed instruction is deleted rather than
    /// replaced (`p_del`, paper Appendix E.2: 0.33).
    pub p_delete: f64,
    /// Instruction replacement scheme (paper Appendix E.4).
    pub scheme: ReplacementScheme,
}

impl Default for PerturbConfig {
    fn default() -> PerturbConfig {
        PerturbConfig {
            p_inst_retain: 0.5,
            p_dep_retain: 0.1,
            p_delete: 0.33,
            scheme: ReplacementScheme::OpcodeOnly,
        }
    }
}

/// A perturbed block together with the original-block features that
/// survive in it (used for both precision and coverage estimation).
#[derive(Debug, Clone)]
pub struct PerturbedBlock {
    /// The perturbed basic block (always valid).
    pub block: BasicBlock,
    /// Features of the *original* block still present.
    pub surviving: FeatureSet,
}

/// Caller-held scratch for [`Perturber::perturb_into`].
///
/// Holds every buffer one perturbation sample needs — the working
/// instruction slots, protection tables, the rebuilt output block, the
/// dependency-analysis scratch, and the surviving-feature bitmask — so
/// repeated sampling reuses warm allocations instead of rebuilding a
/// fresh block graph per sample. Create one per sampling loop with
/// [`Perturber::make_scratch`]; it is tied to that perturber's block
/// and feature pool.
#[derive(Debug, Clone)]
pub struct PerturbScratch {
    insts: Vec<Instruction>,
    alive: Vec<bool>,
    keep_opcode: Vec<bool>,
    opcode_changed: Vec<bool>,
    operands_changed: Vec<bool>,
    protected_regs: HashSet<(usize, Register)>,
    protected_mem: HashSet<usize>,
    new_index: Vec<usize>,
    block: BasicBlock,
    surviving: FeatureMask,
    edges: EdgeSetScratch,
    reg_candidates: Vec<Register>,
    reg_fresh: Vec<Register>,
    rename_positions: Vec<usize>,
    rename_choices: Vec<Register>,
}

impl PerturbScratch {
    /// The perturbed block produced by the last
    /// [`Perturber::perturb_into`] call.
    pub fn block(&self) -> &BasicBlock {
        &self.block
    }

    /// The surviving-feature mask (over the perturber's
    /// [`FeaturePool`]) of the last [`Perturber::perturb_into`] call.
    pub fn surviving(&self) -> &FeatureMask {
        &self.surviving
    }
}

/// The perturbation sampler for one target block.
#[derive(Debug, Clone)]
pub struct Perturber<'a> {
    block: &'a BasicBlock,
    graph: BlockGraph,
    pool: FeaturePool,
    /// Per-instruction opcode replacement candidates, precomputed once
    /// (they depend only on the original instruction).
    replacements: Vec<Vec<Opcode>>,
    config: PerturbConfig,
}

const MAX_ATTEMPTS: usize = 8;

impl<'a> Perturber<'a> {
    /// Build a perturber (analyzes the block's multigraph once).
    pub fn new(block: &'a BasicBlock, config: PerturbConfig) -> Perturber<'a> {
        let graph = BlockGraph::build(block);
        let pool = FeaturePool::new(extract_features(block, &graph));
        // The pool's index layout is positional: instruction `i` at
        // index `i`, edge `j` (in graph order) at `block.len() + j`, η
        // last. `extract_features` guarantees this; the edge loop and
        // survival check rely on it.
        debug_assert!(graph.edges().iter().enumerate().all(|(j, e)| {
            pool.feature(block.len() + j)
                == Feature::Dependency { kind: e.kind, src: e.src, dst: e.dst }
        }));
        debug_assert_eq!(pool.feature(pool.len() - 1), Feature::NumInstructions);
        let replacements = block.iter().map(opcode_replacements).collect();
        Perturber { block, graph, pool, replacements, config }
    }

    /// The target block.
    pub fn block(&self) -> &BasicBlock {
        self.block
    }

    /// The block's multigraph.
    pub fn graph(&self) -> &BlockGraph {
        &self.graph
    }

    /// The candidate features P̂ of the block.
    pub fn features(&self) -> &[Feature] {
        self.pool.features()
    }

    /// The interned feature pool (P̂ in dense index space).
    pub fn pool(&self) -> &FeaturePool {
        &self.pool
    }

    /// The configuration in use.
    pub fn config(&self) -> &PerturbConfig {
        &self.config
    }

    /// Allocate scratch buffers for [`Perturber::perturb_into`].
    pub fn make_scratch(&self) -> PerturbScratch {
        let n = self.block.len();
        PerturbScratch {
            insts: self.block.instructions().to_vec(),
            alive: vec![true; n],
            keep_opcode: vec![false; n],
            opcode_changed: vec![false; n],
            operands_changed: vec![false; n],
            protected_regs: HashSet::new(),
            protected_mem: HashSet::new(),
            new_index: vec![0; n],
            block: self.block.clone(),
            surviving: self.pool.empty_mask(),
            edges: EdgeSetScratch::new(),
            reg_candidates: Vec::new(),
            reg_fresh: Vec::new(),
            rename_positions: Vec::new(),
            rename_choices: Vec::new(),
        }
    }

    /// Sample one perturbation that preserves `preserve` (β′ ~ D_F).
    ///
    /// Preserved features are guaranteed to be in
    /// [`PerturbedBlock::surviving`]; on the rare stochastic
    /// interactions that would violate one, the draw is retried, and
    /// after a bounded number of attempts the unperturbed block is
    /// returned (the identity perturbation — β ∈ Π(F) by definition).
    ///
    /// Allocating wrapper around [`Perturber::perturb_into`]; sampling
    /// loops should hold a [`PerturbScratch`] and call that instead.
    pub fn perturb<R: Rng>(&self, preserve: &FeatureSet, rng: &mut R) -> PerturbedBlock {
        debug_assert!(
            preserve.iter().all(|f| self.pool.index_of(f).is_some()),
            "preserve set contains features not in the block"
        );
        let mask = self.pool.mask_of(preserve);
        let mut scratch = self.make_scratch();
        self.perturb_into(&mask, rng, &mut scratch);
        PerturbedBlock {
            block: scratch.block.clone(),
            surviving: self.pool.set_of(&scratch.surviving),
        }
    }

    /// Allocation-free [`Perturber::perturb`]: the perturbed block and
    /// surviving-feature mask are written into `scratch`
    /// ([`PerturbScratch::block`], [`PerturbScratch::surviving`]).
    /// `preserve` is a mask over [`Perturber::pool`]. Draws from the
    /// RNG in exactly the same order as `perturb`, so the two are
    /// interchangeable under a fixed seed.
    pub fn perturb_into<R: Rng>(
        &self,
        preserve: &FeatureMask,
        rng: &mut R,
        scratch: &mut PerturbScratch,
    ) {
        for _ in 0..MAX_ATTEMPTS {
            self.attempt_into(preserve, rng, scratch);
            if preserve.is_subset(&scratch.surviving) {
                return;
            }
        }
        // Identity perturbation: the original block, all features
        // surviving (β ∈ Π(F) by definition).
        scratch.block.rebuild_from(self.block.iter()).expect("original block is non-empty");
        scratch.surviving.fill_to(self.pool.len());
    }

    fn attempt_into<R: Rng>(&self, preserve: &FeatureMask, rng: &mut R, s: &mut PerturbScratch) {
        let n = self.block.len();
        let eta_index = self.pool.len() - 1;
        let preserve_eta = preserve.contains(eta_index);

        // Vertices whose opcode (and, for preserved dependencies, whose
        // carrying operands) must stay intact.
        s.keep_opcode.fill(false);
        s.protected_regs.clear();
        s.protected_mem.clear();
        for index in preserve.iter() {
            match self.pool.feature(index) {
                Feature::Instruction(i) => {
                    s.keep_opcode[i] = true;
                    if self.config.scheme == ReplacementScheme::WholeInstruction {
                        protect_instruction(
                            self.block,
                            i,
                            &mut s.protected_regs,
                            &mut s.protected_mem,
                        );
                    }
                }
                Feature::Dependency { kind, src, dst } => {
                    s.keep_opcode[src] = true;
                    s.keep_opcode[dst] = true;
                    if let Some(edge) = self.graph.find_edge(kind, src, dst) {
                        for reg in edge.cause_registers() {
                            s.protected_regs.insert((src, reg.full()));
                            s.protected_regs.insert((dst, reg.full()));
                        }
                        if edge.has_memory_cause() {
                            s.protected_mem.insert(src);
                            s.protected_mem.insert(dst);
                        }
                    }
                }
                Feature::NumInstructions => {}
            }
        }

        // --- vertex perturbations -----------------------------------
        for (i, original) in self.block.iter().enumerate() {
            s.insts[i].clone_from(original);
            s.alive[i] = true;
            s.opcode_changed[i] = false;
            s.operands_changed[i] = false;
        }
        for i in 0..n {
            if s.keep_opcode[i] || rng.gen::<f64>() < self.config.p_inst_retain {
                continue;
            }
            if !preserve_eta && rng.gen::<f64>() < self.config.p_delete {
                s.alive[i] = false;
                continue;
            }
            if let Some(&new_opcode) = self.replacements[i].choose(rng) {
                s.insts[i].opcode = new_opcode;
                s.opcode_changed[i] = true;
            }
            // Under the whole-instruction scheme, operand renames are
            // part of instruction perturbation as well.
            if self.config.scheme == ReplacementScheme::WholeInstruction && rng.gen_bool(0.5) {
                let renamed = rename_random_operand(
                    &mut s.insts[i],
                    i,
                    &s.protected_regs,
                    rng,
                    &mut s.rename_positions,
                    &mut s.rename_choices,
                );
                if renamed {
                    s.operands_changed[i] = true;
                }
            }
        }

        // --- edge perturbations --------------------------------------
        for (j, edge) in self.graph.edges().iter().enumerate() {
            if preserve.contains(n + j) {
                continue;
            }
            if !s.alive[edge.src] || !s.alive[edge.dst] {
                continue; // already gone with its vertex
            }
            if rng.gen::<f64>() < self.config.p_dep_retain {
                continue; // explicit retention
            }
            break_edge(edge, s, rng);
        }

        // --- rebuild & survival --------------------------------------
        let mut new_len = 0;
        for i in 0..n {
            if s.alive[i] {
                s.new_index[i] = new_len;
                new_len += 1;
            }
        }
        if new_len == 0 {
            // Blocks must be non-empty; retain the first instruction.
            s.insts[0].clone_from(&self.block.instructions()[0]);
            s.alive[0] = true;
            s.opcode_changed[0] = false;
            s.operands_changed[0] = false;
            s.new_index[0] = 0;
            new_len = 1;
        }
        // Invariant: at least one instruction is alive (backfilled
        // above) and every instruction came from a valid block,
        // possibly with operands renamed within their register class —
        // still well-formed.
        let kept = s.insts.iter().zip(&s.alive).filter_map(|(inst, &a)| a.then_some(inst));
        s.block.rebuild_from(kept).expect("perturbation produced an invalid block");
        s.edges.compute(&s.block, DepConfig::default());

        s.surviving.clear();
        for (index, feature) in self.pool.features().iter().enumerate() {
            let present = match *feature {
                Feature::Instruction(i) => {
                    s.alive[i]
                        && !s.opcode_changed[i]
                        && (self.config.scheme == ReplacementScheme::OpcodeOnly
                            || !s.operands_changed[i])
                }
                Feature::Dependency { kind, src, dst } => {
                    s.alive[src]
                        && s.alive[dst]
                        && s.edges.contains(kind, s.new_index[src], s.new_index[dst])
                }
                Feature::NumInstructions => new_len == n,
            };
            if present {
                s.surviving.insert(index);
            }
        }
    }
}

/// Break one dependency edge by perturbing the carrying operands of
/// the consumer instruction. Protected occurrences are skipped, so
/// a break attempt can fail (implicit retention — the paper's
/// block-specific probability effect, Appendix D).
fn break_edge<R: Rng>(edge: &DepEdge, s: &mut PerturbScratch, rng: &mut R) {
    for cause in edge.cause_registers() {
        let full = cause.full();
        if s.protected_regs.contains(&(edge.dst, full)) {
            continue;
        }
        let replacement = pick_replacement_register(
            full,
            &s.insts,
            &s.alive,
            &mut s.reg_candidates,
            &mut s.reg_fresh,
            rng,
        );
        rename_register(&mut s.insts[edge.dst], full, replacement);
    }
    if edge.has_memory_cause() && !s.protected_mem.contains(&edge.dst) {
        displace_memory(&mut s.insts[edge.dst], 64 * (1 + rng.gen_range(0..4)));
    }
}

/// Bit position of an architectural register in the 32-bit used-set
/// bitmap: 16 GPRs then 16 vector registers, by hardware index.
fn reg_bit(full: Register) -> u32 {
    let class_base = match full.class() {
        RegClass::Gpr => 0,
        RegClass::Vec => 16,
    };
    1u32 << (class_base + u32::from(full.index()))
}

/// Choose a register of the same class to substitute for `full`,
/// preferring registers unused anywhere in the current block so no
/// new dependencies form. The used set is a 32-bit bitmap (the two
/// register files have 16 names each), so the block scan is a few OR
/// instructions per operand; `candidates`/`fresh` are scratch buffers,
/// cleared and refilled each call.
fn pick_replacement_register<R: Rng>(
    full: Register,
    insts: &[Instruction],
    alive: &[bool],
    candidates: &mut Vec<Register>,
    fresh: &mut Vec<Register>,
    rng: &mut R,
) -> Register {
    let mut used = 0u32;
    for (inst, &live) in insts.iter().zip(alive) {
        if !live {
            continue;
        }
        for operand in &inst.operands {
            match operand {
                Operand::Reg(r) => used |= reg_bit(r.full()),
                Operand::Mem(m) => {
                    for r in m.address_registers() {
                        used |= reg_bit(r.full());
                    }
                }
                Operand::Imm(_) => {}
            }
        }
    }
    let full_size = match full.class() {
        RegClass::Gpr => Size::B64,
        RegClass::Vec => Size::B256,
    };
    candidates.clear();
    candidates.extend(
        Register::all(full.class(), full_size).filter(|r| *r != full && !r.is_stack_pointer()),
    );
    fresh.clear();
    fresh.extend(candidates.iter().copied().filter(|r| used & reg_bit(*r) == 0));
    // Invariant: both register classes have ≥ 15 members besides
    // `full` and the stack pointer, so `candidates` is never empty.
    *fresh.choose(rng).or_else(|| candidates.choose(rng)).expect("register file exhausted")
}

/// Protect every register and memory operand of an instruction.
fn protect_instruction(
    block: &BasicBlock,
    index: usize,
    protected_regs: &mut HashSet<(usize, Register)>,
    protected_mem: &mut HashSet<usize>,
) {
    for operand in &block.instructions()[index].operands {
        match operand {
            Operand::Reg(r) => {
                protected_regs.insert((index, r.full()));
            }
            Operand::Mem(m) => {
                protected_mem.insert(index);
                for r in m.address_registers() {
                    protected_regs.insert((index, r.full()));
                }
            }
            Operand::Imm(_) => {}
        }
    }
}

/// Substitute every occurrence of the architectural register `full`
/// (at any width) in the instruction by the same-width view of
/// `replacement`.
fn rename_register(inst: &mut Instruction, full: Register, replacement: Register) {
    let swap = |reg: Register| -> Register {
        if reg.full() == full {
            replacement.with_size(reg.size()).unwrap_or(reg)
        } else {
            reg
        }
    };
    for operand in &mut inst.operands {
        match operand {
            Operand::Reg(r) => *r = swap(*r),
            Operand::Mem(m) => {
                m.base = m.base.map(swap);
                m.index = m.index.map(swap);
            }
            Operand::Imm(_) => {}
        }
    }
}

/// Shift the instruction's memory operand by `delta` bytes, breaking
/// address-carried dependencies.
fn displace_memory(inst: &mut Instruction, delta: i64) {
    for operand in &mut inst.operands {
        if let Operand::Mem(m) = operand {
            m.disp += delta;
        }
    }
}

/// Rename one random non-protected register operand to another of the
/// same class and size. Returns whether a rename happened. The
/// `positions`/`choices` buffers are scratch, cleared each call.
fn rename_random_operand<R: Rng>(
    inst: &mut Instruction,
    index: usize,
    protected_regs: &HashSet<(usize, Register)>,
    rng: &mut R,
    positions: &mut Vec<usize>,
    choices: &mut Vec<Register>,
) -> bool {
    positions.clear();
    positions.extend(inst.operands.iter().enumerate().filter_map(|(pos, op)| match op {
        Operand::Reg(r)
            if !protected_regs.contains(&(index, r.full())) && !r.is_stack_pointer() =>
        {
            Some(pos)
        }
        _ => None,
    }));
    let Some(&pos) = positions.choose(rng) else {
        return false;
    };
    let Operand::Reg(old) = inst.operands[pos] else { unreachable!() };
    choices.clear();
    choices.extend(
        Register::all(old.class(), old.size()).filter(|r| *r != old && !r.is_stack_pointer()),
    );
    if let Some(&new) = choices.choose(rng) {
        inst.operands[pos] = Operand::Reg(new);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_isa::parse_block;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn feature_dep(kind: DepKind, src: usize, dst: usize) -> Feature {
        Feature::Dependency { kind, src, dst }
    }

    #[test]
    fn preserved_features_always_survive() {
        let block = parse_block(
            "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx",
        )
        .unwrap();
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let all_features: Vec<Feature> = perturber.features().to_vec();
        for feature in all_features {
            let mut preserve = FeatureSet::new();
            preserve.insert(feature);
            for _ in 0..50 {
                let result = perturber.perturb(&preserve, &mut rng);
                assert!(
                    preserve.is_subset(&result.surviving),
                    "{feature} lost in:\n{}",
                    result.block
                );
                assert!(result.block.is_valid());
            }
        }
    }

    #[test]
    fn empty_preserve_set_produces_diverse_blocks() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let mut distinct = HashSet::new();
        for _ in 0..200 {
            let result = perturber.perturb(&FeatureSet::new(), &mut rng);
            distinct.insert(result.block.to_string());
        }
        assert!(distinct.len() > 40, "only {} distinct perturbations", distinct.len());
    }

    #[test]
    fn eta_preservation_fixes_length() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx\nimul r9, r10").unwrap();
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut preserve = FeatureSet::new();
        preserve.insert(Feature::NumInstructions);
        for _ in 0..100 {
            let result = perturber.perturb(&preserve, &mut rng);
            assert_eq!(result.block.len(), 4);
        }
        // And without it, deletions happen.
        let mut shrunk = false;
        for _ in 0..100 {
            let result = perturber.perturb(&FeatureSet::new(), &mut rng);
            shrunk |= result.block.len() < 4;
        }
        assert!(shrunk, "no deletion in 100 free perturbations");
    }

    #[test]
    fn preserved_dependency_keeps_endpoint_opcodes() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut preserve = FeatureSet::new();
        preserve.insert(feature_dep(DepKind::Raw, 0, 1));
        for _ in 0..100 {
            let result = perturber.perturb(&preserve, &mut rng);
            // Endpoints' opcodes must be intact (positions may shift
            // only if earlier instructions were deleted; here 0 and 1
            // are the first two).
            assert_eq!(result.block.instructions()[0].opcode.name(), "add");
            assert_eq!(result.block.instructions()[1].opcode.name(), "mov");
        }
    }

    #[test]
    fn dependencies_get_broken_when_not_preserved() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx").unwrap();
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let dep = feature_dep(DepKind::Raw, 0, 1);
        let mut broken = 0;
        let trials = 200;
        for _ in 0..trials {
            let result = perturber.perturb(&FeatureSet::new(), &mut rng);
            if !result.surviving.contains(&dep) {
                broken += 1;
            }
        }
        assert!(broken > trials / 3, "dependency broken only {broken}/{trials} times");
    }

    #[test]
    fn lea_is_never_replaced() {
        let block = parse_block("lea rdx, [rax + 1]\nadd rcx, rdx").unwrap();
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let result = perturber.perturb(&FeatureSet::new(), &mut rng);
            for inst in &result.block {
                if inst.mem_operand().is_some() && inst.opcode.name() == "lea" {
                    // fine: lea retained
                }
            }
            // If instruction 0 survived, it must still be a lea.
            if result.block.len() == 2 {
                assert_eq!(result.block.instructions()[0].opcode.name(), "lea");
            }
        }
    }

    #[test]
    fn perturbations_are_reproducible_per_seed() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let a = perturber.perturb(&FeatureSet::new(), &mut StdRng::seed_from_u64(9));
        let b = perturber.perturb(&FeatureSet::new(), &mut StdRng::seed_from_u64(9));
        assert_eq!(a.block, b.block);
        assert_eq!(a.surviving, b.surviving);
    }

    /// The scratch entry point and the allocating wrapper must consume
    /// the RNG identically and agree on block + surviving set, for
    /// every preserve set — this is the determinism contract that lets
    /// the explainer use the scratch path without changing seeded
    /// output.
    #[test]
    fn scratch_path_matches_allocating_path() {
        let block = parse_block(
            "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx",
        )
        .unwrap();
        for scheme in [ReplacementScheme::OpcodeOnly, ReplacementScheme::WholeInstruction] {
            let config = PerturbConfig { scheme, ..PerturbConfig::default() };
            let perturber = Perturber::new(&block, config);
            let mut scratch = perturber.make_scratch();
            let mut preserve_sets: Vec<FeatureSet> = vec![FeatureSet::new()];
            preserve_sets.extend(perturber.features().iter().map(|&f| [f].into_iter().collect()));
            for (i, preserve) in preserve_sets.iter().enumerate() {
                let mask = perturber.pool().mask_of(preserve);
                let mut rng_a = StdRng::seed_from_u64(1000 + i as u64);
                let mut rng_b = StdRng::seed_from_u64(1000 + i as u64);
                for _ in 0..20 {
                    let via_wrapper = perturber.perturb(preserve, &mut rng_a);
                    perturber.perturb_into(&mask, &mut rng_b, &mut scratch);
                    assert_eq!(via_wrapper.block, *scratch.block(), "preserve {preserve:?}");
                    assert_eq!(
                        via_wrapper.surviving,
                        perturber.pool().set_of(scratch.surviving()),
                        "preserve {preserve:?}"
                    );
                    // The streams must stay aligned, not just start so.
                    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn whole_instruction_scheme_perturbs_operands() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\nsub r9, r10\nxor r11, r12").unwrap();
        let config =
            PerturbConfig { scheme: ReplacementScheme::WholeInstruction, ..Default::default() };
        let perturber = Perturber::new(&block, config);
        let mut rng = StdRng::seed_from_u64(6);
        let mut operand_changes = 0;
        for _ in 0..200 {
            let result = perturber.perturb(&FeatureSet::new(), &mut rng);
            // Count perturbed blocks where some surviving-length
            // instruction has different operands but same opcode count.
            if result.block.len() == block.len() {
                for (orig, new) in block.iter().zip(&result.block) {
                    if orig.opcode == new.opcode && orig.operands != new.operands {
                        operand_changes += 1;
                        break;
                    }
                }
            }
        }
        assert!(operand_changes > 5, "got {operand_changes}");
    }
}
