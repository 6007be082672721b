//! Instructions and basic blocks.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::IsaError;
use crate::operand::{MemOperand, Operand, OperandKind};
use crate::reg::{RegClass, Register, Size};
use crate::sig::{signatures, Signature};
use crate::Opcode;

/// A single decoded x86 instruction.
///
/// Fields are public in the passive-data-structure spirit; use
/// [`Instruction::new`] to construct validated instructions and
/// [`Instruction::is_valid`] to re-check after mutation.
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// Explicit operands in Intel (destination-first) order.
    pub operands: Vec<Operand>,
}

/// `clone_from` reuses the destination's operand buffer, so samplers
/// that rewrite the same instruction slots millions of times do not
/// reallocate once buffers have warmed up.
impl Clone for Instruction {
    fn clone(&self) -> Instruction {
        Instruction { opcode: self.opcode, operands: self.operands.clone() }
    }

    fn clone_from(&mut self, source: &Instruction) {
        self.opcode = source.opcode;
        self.operands.clone_from(&source.operands);
    }
}

/// Upper bound on explicit operand counts used for stack staging in
/// the allocation-free effect computation (x86 needs at most 3).
const MAX_STAGED_OPERANDS: usize = 4;

impl Instruction {
    /// Construct a validated instruction.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidOperands`] if the opcode accepts no
    /// signature matching the operand kinds.
    pub fn new(opcode: Opcode, operands: Vec<Operand>) -> Result<Instruction, IsaError> {
        let inst = Instruction { opcode, operands };
        if inst.matching_signature().is_none() {
            return Err(IsaError::InvalidOperands { opcode, kinds: inst.operand_kinds() });
        }
        Ok(inst)
    }

    /// The structural kinds of the operands.
    pub fn operand_kinds(&self) -> Vec<OperandKind> {
        self.operands.iter().map(Operand::kind).collect()
    }

    /// The first signature of the opcode matching this instruction's
    /// operands, if any.
    pub fn matching_signature(&self) -> Option<&'static Signature> {
        let kinds = self.operand_kinds();
        signatures(self.opcode).iter().find(|sig| sig.matches(&kinds))
    }

    /// Whether the operands match one of the opcode's signatures.
    pub fn is_valid(&self) -> bool {
        self.matching_signature().is_some()
    }

    /// Registers and memory locations read and written by this
    /// instruction, including implicit operands (`div` reads/writes
    /// `rax`/`rdx`; `push`/`pop` read/write `rsp`).
    ///
    /// Address registers of any memory operand are always read,
    /// including for `lea` whose memory operand is otherwise untouched.
    pub fn effects(&self) -> Effects {
        let mut effects = self.explicit_effects();
        for (reg, access) in implicit_operands(self.opcode) {
            if access.reads() {
                effects.reg_reads.push(reg);
            }
            if access.writes() {
                effects.reg_writes.push(reg);
            }
        }
        effects
    }

    /// Like [`Instruction::effects`], but restricted to the *explicit*
    /// operands — the effects visible in the instruction's tokens,
    /// which is what the paper's multigraph construction observes.
    pub fn explicit_effects(&self) -> Effects {
        let mut effects = Effects::default();
        self.explicit_effects_into(&mut effects);
        effects
    }

    /// Allocation-free variant of [`Instruction::explicit_effects`]:
    /// clears `out` and refills it in place, reusing its buffers. The
    /// operand-kind staging that [`Instruction::matching_signature`]
    /// would heap-allocate goes through a stack buffer instead, so a
    /// warmed-up `Effects` makes this a zero-allocation call — the
    /// contract the perturbation sampler's scratch path relies on.
    pub fn explicit_effects_into(&self, out: &mut Effects) {
        out.clear();
        let mut staged = [OperandKind::Imm; MAX_STAGED_OPERANDS];
        let sig = if self.operands.len() <= MAX_STAGED_OPERANDS {
            let kinds = &mut staged[..self.operands.len()];
            for (kind, operand) in kinds.iter_mut().zip(&self.operands) {
                *kind = operand.kind();
            }
            signatures(self.opcode).iter().find(|sig| sig.matches(kinds))
        } else {
            self.matching_signature()
        };
        let Some(sig) = sig else {
            return;
        };
        let effects = out;
        for (operand, access) in self.operands.iter().zip(sig.accesses) {
            match operand {
                Operand::Reg(reg) => {
                    if access.reads() {
                        effects.reg_reads.push(*reg);
                    }
                    if access.writes() {
                        effects.reg_writes.push(*reg);
                    }
                }
                Operand::Mem(mem) => {
                    effects.reg_reads.extend(mem.address_registers());
                    if access.reads() {
                        effects.mem_reads.push(*mem);
                    }
                    if access.writes() {
                        effects.mem_writes.push(*mem);
                    }
                }
                Operand::Imm(_) => {}
            }
        }
    }

    /// Whether the instruction loads from memory.
    pub fn reads_memory(&self) -> bool {
        !self.effects().mem_reads.is_empty() || self.opcode == Opcode::Pop
    }

    /// Whether the instruction stores to memory.
    pub fn writes_memory(&self) -> bool {
        !self.effects().mem_writes.is_empty() || self.opcode == Opcode::Push
    }

    /// The memory operand, if the instruction has one.
    pub fn mem_operand(&self) -> Option<&MemOperand> {
        self.operands.iter().find_map(Operand::as_mem)
    }
}

/// Implicit register operands of an opcode (beyond the explicit operand
/// list): `mul`/`div`/`idiv` read and write `rax`/`rdx`, stack operations
/// read and write `rsp`.
pub fn implicit_operands(opcode: Opcode) -> Vec<(Register, crate::sig::Access)> {
    use crate::sig::Access;
    match opcode {
        Opcode::Mul | Opcode::Div | Opcode::Idiv => vec![
            (Register::new(RegClass::Gpr, 0, Size::B64), Access::ReadWrite), // rax
            (Register::new(RegClass::Gpr, 2, Size::B64), Access::ReadWrite), // rdx
        ],
        Opcode::Push | Opcode::Pop => {
            vec![(
                Register::new(RegClass::Gpr, crate::reg::RSP_INDEX, Size::B64),
                Access::ReadWrite,
            )]
        }
        _ => Vec::new(),
    }
}

/// The register and memory effects of one instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// Registers whose value is read.
    pub reg_reads: Vec<Register>,
    /// Registers whose value is written.
    pub reg_writes: Vec<Register>,
    /// Memory locations loaded from.
    pub mem_reads: Vec<MemOperand>,
    /// Memory locations stored to.
    pub mem_writes: Vec<MemOperand>,
}

impl Effects {
    /// Empty all four effect lists, keeping their allocations.
    pub fn clear(&mut self) {
        self.reg_reads.clear();
        self.reg_writes.clear();
        self.mem_reads.clear();
        self.mem_writes.clear();
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        for (i, operand) in self.operands.iter().enumerate() {
            if i == 0 {
                write!(f, " ")?;
            } else {
                write!(f, ", ")?;
            }
            // `lea`'s memory operand is conventionally printed without a
            // size keyword: it is an address computation, not an access.
            match (self.opcode, operand) {
                (Opcode::Lea, Operand::Mem(mem)) => {
                    let full = mem.to_string();
                    let bracket = full.find('[').unwrap_or(0);
                    write!(f, "{}", &full[bracket..])?;
                }
                _ => write!(f, "{operand}")?,
            }
        }
        Ok(())
    }
}

/// A straight-line sequence of instructions with no control flow.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BasicBlock {
    insts: Vec<Instruction>,
}

impl BasicBlock {
    /// Construct a validated, non-empty basic block.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::EmptyBlock`] for an empty instruction list, or
    /// [`IsaError::InvalidOperands`] if any instruction is invalid.
    pub fn new(insts: Vec<Instruction>) -> Result<BasicBlock, IsaError> {
        if insts.is_empty() {
            return Err(IsaError::EmptyBlock);
        }
        for inst in &insts {
            if !inst.is_valid() {
                return Err(IsaError::InvalidOperands {
                    opcode: inst.opcode,
                    kinds: inst.operand_kinds(),
                });
            }
        }
        Ok(BasicBlock { insts })
    }

    /// Number of instructions (the paper's η feature).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the block is empty (never true for validated blocks).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instructions in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.insts
    }

    /// The instruction at `index`.
    pub fn get(&self, index: usize) -> Option<&Instruction> {
        self.insts.get(index)
    }

    /// Iterate over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.insts.iter()
    }

    /// Rebuild this block in place from `insts`, reusing the existing
    /// instruction and operand buffers (each slot is overwritten with
    /// [`Clone::clone_from`]). This is the hot-path counterpart of
    /// [`BasicBlock::new`] for samplers that materialize millions of
    /// variant blocks: once buffers have warmed up it performs no heap
    /// allocation.
    ///
    /// Per-instruction validity is checked only with `debug_assert!`
    /// (the full check allocates); callers must supply instructions
    /// that are already well-formed, e.g. clones of validated
    /// instructions with class- and size-preserving register renames.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::EmptyBlock`] if `insts` yields nothing; the
    /// block is left unchanged in that case.
    pub fn rebuild_from<'i, I>(&mut self, insts: I) -> Result<(), IsaError>
    where
        I: IntoIterator<Item = &'i Instruction>,
    {
        let mut len = 0;
        for inst in insts {
            if len < self.insts.len() {
                self.insts[len].clone_from(inst);
            } else {
                self.insts.push(inst.clone());
            }
            len += 1;
        }
        if len == 0 {
            return Err(IsaError::EmptyBlock);
        }
        self.insts.truncate(len);
        debug_assert!(self.is_valid(), "rebuild_from produced an invalid block");
        Ok(())
    }

    /// Whether every instruction is valid (for defensive re-checks after
    /// manual construction).
    pub fn is_valid(&self) -> bool {
        !self.insts.is_empty() && self.insts.iter().all(Instruction::is_valid)
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, inst) in self.insts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{inst}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a BasicBlock {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(name: &str) -> Operand {
        Operand::reg(Register::from_name(name).unwrap())
    }

    #[test]
    fn constructs_valid_instruction() {
        let add = Instruction::new(Opcode::Add, vec![r("rcx"), r("rax")]).unwrap();
        assert_eq!(add.to_string(), "add rcx, rax");
    }

    #[test]
    fn rejects_invalid_operands() {
        let err = Instruction::new(Opcode::Add, vec![r("rcx"), r("eax")]).unwrap_err();
        assert!(matches!(err, IsaError::InvalidOperands { .. }));
    }

    #[test]
    fn effects_of_alu() {
        let add = Instruction::new(Opcode::Add, vec![r("rcx"), r("rax")]).unwrap();
        let fx = add.effects();
        let rcx = Register::from_name("rcx").unwrap();
        let rax = Register::from_name("rax").unwrap();
        assert!(fx.reg_reads.contains(&rcx) && fx.reg_reads.contains(&rax));
        assert_eq!(fx.reg_writes, vec![rcx]);
        assert!(fx.mem_reads.is_empty() && fx.mem_writes.is_empty());
    }

    #[test]
    fn effects_of_store() {
        let mem = MemOperand::base_disp(Register::from_name("rdi").unwrap(), 24, Size::B64);
        let store = Instruction::new(Opcode::Mov, vec![Operand::Mem(mem), r("rdx")]).unwrap();
        let fx = store.effects();
        assert_eq!(fx.mem_writes.len(), 1);
        assert!(fx.mem_reads.is_empty());
        // Address register is read.
        assert!(fx.reg_reads.contains(&Register::from_name("rdi").unwrap()));
        assert!(store.writes_memory() && !store.reads_memory());
    }

    #[test]
    fn effects_of_lea_do_not_touch_memory() {
        let mem = MemOperand::base_disp(Register::from_name("rax").unwrap(), 1, Size::B64);
        let lea = Instruction::new(Opcode::Lea, vec![r("rdx"), Operand::Mem(mem)]).unwrap();
        let fx = lea.effects();
        assert!(fx.mem_reads.is_empty() && fx.mem_writes.is_empty());
        assert!(fx.reg_reads.contains(&Register::from_name("rax").unwrap()));
        assert_eq!(fx.reg_writes, vec![Register::from_name("rdx").unwrap()]);
        assert_eq!(lea.to_string(), "lea rdx, [rax + 1]");
    }

    #[test]
    fn div_has_implicit_rax_rdx() {
        let div = Instruction::new(Opcode::Div, vec![r("rcx")]).unwrap();
        let fx = div.effects();
        let rax = Register::from_name("rax").unwrap();
        let rdx = Register::from_name("rdx").unwrap();
        assert!(fx.reg_reads.contains(&rax) && fx.reg_writes.contains(&rax));
        assert!(fx.reg_reads.contains(&rdx) && fx.reg_writes.contains(&rdx));
    }

    #[test]
    fn push_pop_use_rsp() {
        let push = Instruction::new(Opcode::Push, vec![r("rbx")]).unwrap();
        let rsp = Register::from_name("rsp").unwrap();
        let fx = push.effects();
        assert!(fx.reg_reads.contains(&rsp) && fx.reg_writes.contains(&rsp));
        assert!(push.writes_memory());
        let pop = Instruction::new(Opcode::Pop, vec![r("rbx")]).unwrap();
        assert!(pop.reads_memory());
    }

    #[test]
    fn empty_block_rejected() {
        assert_eq!(BasicBlock::new(vec![]).unwrap_err(), IsaError::EmptyBlock);
    }

    #[test]
    fn block_display_is_one_instruction_per_line() {
        let block = BasicBlock::new(vec![
            Instruction::new(Opcode::Add, vec![r("rcx"), r("rax")]).unwrap(),
            Instruction::new(Opcode::Mov, vec![r("rdx"), r("rcx")]).unwrap(),
        ])
        .unwrap();
        assert_eq!(block.to_string(), "add rcx, rax\nmov rdx, rcx");
        assert_eq!(block.len(), 2);
    }
}
