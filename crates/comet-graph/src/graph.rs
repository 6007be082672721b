//! Basic-block multigraph construction (paper §5.1, Figure 1(ii)).

use std::collections::BTreeMap;

use comet_isa::{BasicBlock, Register};
use serde::{Deserialize, Serialize};

use crate::dep::{DepCause, DepEdge, DepKind};

/// Configuration for dependency analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepConfig {
    /// Include hazards through *implicit* register operands (`div`'s
    /// `rax`/`rdx`, `push`/`pop`'s `rsp`).
    ///
    /// Defaults to `false`: the paper's multigraph is built from the
    /// block's tokens, so its dependency features only cover explicit
    /// operands (e.g. the case-study RAW edge 3→6 through `rax` exists
    /// even though the intervening `div` implicitly writes `rax`).
    /// Timing models still honour implicit operands regardless.
    pub include_implicit: bool,
    /// Include memory-carried hazards between overlapping memory
    /// operands. Defaults to `true`.
    pub include_memory: bool,
}

impl Default for DepConfig {
    fn default() -> DepConfig {
        DepConfig { include_implicit: false, include_memory: true }
    }
}

/// The multigraph G = (V, E) of a basic block: vertices are the
/// instructions annotated with their program-order positions, edges are
/// labelled data dependencies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockGraph {
    num_vertices: usize,
    edges: Vec<DepEdge>,
}

impl BlockGraph {
    /// Analyze a block with the default [`DepConfig`].
    pub fn build(block: &BasicBlock) -> BlockGraph {
        BlockGraph::build_with(block, DepConfig::default())
    }

    /// Analyze a block with an explicit configuration.
    pub fn build_with(block: &BasicBlock, config: DepConfig) -> BlockGraph {
        let n = block.len();
        let effects: Vec<_> = block
            .iter()
            .map(|inst| {
                if config.include_implicit {
                    inst.effects()
                } else {
                    // The paper's multigraph observes the block's
                    // tokens, so only explicit operand occurrences
                    // carry dependencies by default.
                    inst.explicit_effects()
                }
            })
            .collect();

        // (kind, src, dst) -> causes, kept ordered for determinism.
        let mut causes: BTreeMap<(DepKind, usize, usize), Vec<DepCause>> = BTreeMap::new();
        for_each_hazard(&effects, config, |kind, src, dst, cause| {
            let entry = causes.entry((kind, src, dst)).or_default();
            if !entry.contains(&cause) {
                entry.push(cause);
            }
        });

        let edges = causes
            .into_iter()
            .map(|((kind, src, dst), causes)| DepEdge { kind, src, dst, causes })
            .collect();
        BlockGraph { num_vertices: n, edges }
    }

    /// Number of vertices (instructions).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// All dependency edges, ordered deterministically.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Edges of one hazard kind.
    pub fn edges_of_kind(&self, kind: DepKind) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }

    /// The edge with the given identity, if present.
    pub fn find_edge(&self, kind: DepKind, src: usize, dst: usize) -> Option<&DepEdge> {
        self.edges.iter().find(|e| e.id() == (kind, src, dst))
    }

    /// Edges incident to the given vertex.
    pub fn incident_edges(&self, vertex: usize) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.src == vertex || e.dst == vertex)
    }
}

/// Enumerate every hazard occurrence of a block, given per-instruction
/// effects. This is the single source of truth for dependency
/// semantics: both the cause-carrying [`BlockGraph::build_with`] and
/// the allocation-free [`EdgeSetScratch`] drive it, so the two can
/// never disagree on which edges exist. The same `(kind, src, dst)`
/// identity may be emitted more than once (with distinct or duplicate
/// causes); consumers deduplicate.
fn for_each_hazard(
    effects: &[comet_isa::Effects],
    config: DepConfig,
    mut add: impl FnMut(DepKind, usize, usize, DepCause),
) {
    let n = effects.len();

    // Register-carried hazards, by full (aliasing-collapsed) register.
    for j in 0..n {
        for read in &effects[j].reg_reads {
            // RAW: latest earlier writer of the register.
            if let Some(i) = latest_writer(effects, read.full(), j) {
                add(DepKind::Raw, i, j, DepCause::Register(read.full()));
            }
        }
        for write in &effects[j].reg_writes {
            let full = write.full();
            if let Some(i) = latest_writer(effects, full, j) {
                // WAW with the previous writer.
                add(DepKind::Waw, i, j, DepCause::Register(full));
                // WAR with readers after that writer.
                for (k, fx) in effects.iter().enumerate().take(j).skip(i + 1) {
                    if fx.reg_reads.iter().any(|r| r.full() == full) {
                        add(DepKind::War, k, j, DepCause::Register(full));
                    }
                }
            } else {
                // No earlier writer: WAR with every earlier reader.
                for (k, fx) in effects.iter().enumerate().take(j) {
                    if fx.reg_reads.iter().any(|r| r.full() == full) {
                        add(DepKind::War, k, j, DepCause::Register(full));
                    }
                }
            }
        }
    }

    // Memory-carried hazards (conservative: every conflicting pair).
    if config.include_memory {
        for j in 0..n {
            for i in 0..j {
                for iw in &effects[i].mem_writes {
                    if effects[j].mem_reads.iter().any(|jr| iw.may_alias(jr)) {
                        add(DepKind::Raw, i, j, DepCause::Memory(*iw));
                    }
                    if effects[j].mem_writes.iter().any(|jw| iw.may_alias(jw)) {
                        add(DepKind::Waw, i, j, DepCause::Memory(*iw));
                    }
                }
                for ir in &effects[i].mem_reads {
                    if effects[j].mem_writes.iter().any(|jw| ir.may_alias(jw)) {
                        add(DepKind::War, i, j, DepCause::Memory(*ir));
                    }
                }
            }
        }
    }
}

/// Reusable buffers for repeated *edge-identity* analysis.
///
/// The explanation loop's perturbation sampler needs to know, for
/// millions of freshly perturbed blocks, *which* `(kind, src, dst)`
/// dependency identities exist — but never their causes. Building a
/// full [`BlockGraph`] per sample allocates a `BTreeMap`, per-edge
/// cause vectors, and per-instruction effect vectors; this scratch
/// computes exactly the same identity set (it runs the same
/// `for_each_hazard` core) into buffers that are reused across
/// calls, making steady-state recomputation allocation-free under the
/// default [`DepConfig`].
#[derive(Debug, Default, Clone)]
pub struct EdgeSetScratch {
    effects: Vec<comet_isa::Effects>,
    ids: Vec<(DepKind, usize, usize)>,
}

impl EdgeSetScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> EdgeSetScratch {
        EdgeSetScratch::default()
    }

    /// Recompute the edge-identity set of `block`, replacing the
    /// previous contents. With `config.include_implicit` set the
    /// per-instruction implicit-operand lookup still allocates; the
    /// default (explicit-only) configuration does not.
    pub fn compute(&mut self, block: &BasicBlock, config: DepConfig) {
        let n = block.len();
        if self.effects.len() < n {
            self.effects.resize_with(n, Default::default);
        }
        for (inst, slot) in block.iter().zip(&mut self.effects) {
            if config.include_implicit {
                *slot = inst.effects();
            } else {
                inst.explicit_effects_into(slot);
            }
        }
        self.ids.clear();
        let ids = &mut self.ids;
        for_each_hazard(&self.effects[..n], config, |kind, src, dst, _cause| {
            ids.push((kind, src, dst));
        });
        ids.sort_unstable();
        ids.dedup();
    }

    /// Whether the most recently computed block has the given edge.
    /// Agrees exactly with [`BlockGraph::find_edge`] on that block.
    pub fn contains(&self, kind: DepKind, src: usize, dst: usize) -> bool {
        self.ids.binary_search(&(kind, src, dst)).is_ok()
    }

    /// The sorted, deduplicated edge identities of the last
    /// [`EdgeSetScratch::compute`] call.
    pub fn ids(&self) -> &[(DepKind, usize, usize)] {
        &self.ids
    }
}

/// Index of the last instruction before `j` that writes `full`.
fn latest_writer(effects: &[comet_isa::Effects], full: Register, j: usize) -> Option<usize> {
    (0..j).rev().find(|&i| effects[i].reg_writes.iter().any(|w| w.full() == full))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_isa::parse_block;

    #[test]
    fn motivating_example_has_single_raw_edge() {
        // add rcx, rax ; mov rdx, rcx ; pop rbx  — RAW 1->2 via rcx.
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
        let g = BlockGraph::build(&block);
        assert_eq!(g.num_vertices(), 3);
        let raw: Vec<_> = g.edges_of_kind(DepKind::Raw).collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].id(), (DepKind::Raw, 0, 1));
        let rcx = Register::from_name("rcx").unwrap();
        assert_eq!(raw[0].cause_registers().collect::<Vec<_>>(), vec![rcx]);
    }

    #[test]
    fn case_study_two_matches_paper() {
        let block = parse_block(
            "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx",
        )
        .unwrap();
        let g = BlockGraph::build(&block);
        // Paper: RAW between 3 and 6 due to rax (1-based).
        assert!(g.find_edge(DepKind::Raw, 2, 5).is_some(), "{:?}", g.edges());
        // Paper: WAR between 1 and 2 due to edx.
        let war = g.find_edge(DepKind::War, 0, 1).expect("WAR 1->2");
        let rdx = Register::from_name("rdx").unwrap();
        assert!(war.cause_registers().any(|r| r == rdx));
        // RAW 1->3 via rcx (lea reads rcx, mov ecx wrote it).
        assert!(g.find_edge(DepKind::Raw, 0, 2).is_some());
    }

    #[test]
    fn implicit_operands_excluded_by_default_but_includable() {
        let block = parse_block("lea rax, [rcx + rax - 1]\ndiv rcx\nimul rax, rcx").unwrap();
        let default = BlockGraph::build(&block);
        // Without implicit rax effects of div, RAW lea->imul survives.
        assert!(default.find_edge(DepKind::Raw, 0, 2).is_some());
        let full = BlockGraph::build_with(
            &block,
            DepConfig { include_implicit: true, include_memory: true },
        );
        // With implicit effects, div's rax write interposes.
        assert!(full.find_edge(DepKind::Raw, 0, 2).is_none());
        assert!(full.find_edge(DepKind::Raw, 1, 2).is_some());
    }

    #[test]
    fn waw_detected_between_consecutive_writers() {
        let block = parse_block("mov rax, rbx\nmov rax, rcx").unwrap();
        let g = BlockGraph::build(&block);
        assert!(g.find_edge(DepKind::Waw, 0, 1).is_some());
        assert!(g.edges_of_kind(DepKind::Raw).next().is_none());
    }

    #[test]
    fn aliased_registers_carry_dependencies() {
        let block = parse_block("add eax, ecx\nmov rdx, rax").unwrap();
        let g = BlockGraph::build(&block);
        // eax write feeds rax read.
        assert!(g.find_edge(DepKind::Raw, 0, 1).is_some());
    }

    #[test]
    fn memory_dependencies_detected() {
        let block = parse_block(
            "mov qword ptr [rdi + 8], rax\nmov rbx, qword ptr [rdi + 8]\nmov qword ptr [rdi + 8], rcx",
        )
        .unwrap();
        let g = BlockGraph::build(&block);
        let raw = g.find_edge(DepKind::Raw, 0, 1).expect("store->load RAW");
        assert!(raw.has_memory_cause());
        assert!(g.find_edge(DepKind::Waw, 0, 2).is_some());
        assert!(g.find_edge(DepKind::War, 1, 2).is_some());
    }

    #[test]
    fn disjoint_memory_is_independent() {
        let block = parse_block("mov qword ptr [rdi], rax\nmov rbx, qword ptr [rdi + 16]").unwrap();
        let g = BlockGraph::build(&block);
        assert!(g.edges_of_kind(DepKind::Raw).all(|e| !e.has_memory_cause()));
    }

    #[test]
    fn multiple_causes_collapse_into_one_edge() {
        // Both rax and rbx are RAW-carried 1->2.
        let block = parse_block("add rax, rbx\nimul rax, rax").unwrap();
        let g = BlockGraph::build(&block);
        let raw: Vec<_> = g.edges_of_kind(DepKind::Raw).collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].causes.len(), 1); // only rax carried
        let block2 = parse_block("add rax, rbx\nsub rbx, rax\nadd rax, rbx").unwrap();
        let g2 = BlockGraph::build(&block2);
        // Edge 2->3 carries both rax (2 rw rax? no: sub rbx, rax reads rax writes rbx)
        let edge = g2.find_edge(DepKind::Raw, 1, 2).unwrap();
        assert_eq!(edge.causes.len(), 1); // rbx
    }

    #[test]
    fn war_without_earlier_writer() {
        let block = parse_block("mov rdx, rcx\nmov rcx, rbx").unwrap();
        let g = BlockGraph::build(&block);
        assert!(g.find_edge(DepKind::War, 0, 1).is_some());
    }

    #[test]
    fn edge_set_scratch_agrees_with_full_build() {
        let blocks = [
            "add rcx, rax\nmov rdx, rcx\npop rbx",
            "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx",
            "mov qword ptr [rdi + 8], rax\nmov rbx, qword ptr [rdi + 8]\nmov qword ptr [rdi + 8], rcx",
            "mov rdx, rcx\nmov rcx, rbx",
            "add rax, rbx\nimul rax, rax",
        ];
        let mut scratch = EdgeSetScratch::new();
        for (config_name, config) in [
            ("default", DepConfig::default()),
            ("implicit", DepConfig { include_implicit: true, include_memory: true }),
            ("no-memory", DepConfig { include_implicit: false, include_memory: false }),
        ] {
            for text in blocks {
                let block = parse_block(text).unwrap();
                let graph = BlockGraph::build_with(&block, config);
                // Reused (never reset) scratch must still match a fresh build.
                scratch.compute(&block, config);
                let built: Vec<_> = graph.edges().iter().map(DepEdge::id).collect();
                assert_eq!(scratch.ids(), &built[..], "{config_name}:\n{text}");
                for &(kind, src, dst) in scratch.ids() {
                    assert!(scratch.contains(kind, src, dst));
                }
                assert!(!scratch.contains(DepKind::Raw, 97, 98));
            }
        }
    }

    #[test]
    fn incident_edges_cover_both_endpoints() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
        let g = BlockGraph::build(&block);
        assert_eq!(g.incident_edges(0).count(), 1);
        assert_eq!(g.incident_edges(1).count(), 1);
        assert_eq!(g.incident_edges(2).count(), 0);
    }
}
