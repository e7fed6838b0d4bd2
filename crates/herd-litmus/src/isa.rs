//! The unified mini instruction set covering the paper's Power, ARM and
//! x86 litmus fragments (Sec 5).
//!
//! One abstract [`Instr`] type serves all three ISAs; the per-ISA
//! assembly syntaxes are handled by the parser and pretty printer. The
//! fragment is exactly what the paper's tests use: loads and stores
//! (register-indirect, optionally indexed), constant moves, `xor`/`add`
//! (for false dependencies), compare, conditional branch, labels and
//! fences.

use herd_core::event::Fence;
use std::fmt;

/// A general-purpose register (`r0`..`r63`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Which assembly dialect a program is written in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Isa {
    /// IBM Power (`lwz`, `stw`, `sync`, `lwsync`, `eieio`, `isync`...).
    Power,
    /// ARMv7 (`ldr`, `str`, `dmb`, `dsb`, `isb`...).
    Arm,
    /// x86 (`mov`, `mfence`).
    X86,
}

impl Isa {
    /// The fences this dialect may use.
    pub fn fences(self) -> &'static [Fence] {
        match self {
            Isa::Power => &[Fence::Sync, Fence::Lwsync, Fence::Eieio, Fence::Isync],
            Isa::Arm => &[Fence::Dmb, Fence::Dsb, Fence::DmbSt, Fence::DsbSt, Fence::Isb],
            Isa::X86 => &[Fence::Mfence],
        }
    }

    /// The dialect's control fence, if any.
    pub fn control_fence(self) -> Option<Fence> {
        match self {
            Isa::Power => Some(Fence::Isync),
            Isa::Arm => Some(Fence::Isb),
            Isa::X86 => None,
        }
    }

    /// The dialect's full fence.
    pub fn full_fence(self) -> Fence {
        match self {
            Isa::Power => Fence::Sync,
            Isa::Arm => Fence::Dmb,
            Isa::X86 => Fence::Mfence,
        }
    }

    /// The dialect's lightweight fence, if any.
    pub fn lightweight_fence(self) -> Option<Fence> {
        match self {
            Isa::Power => Some(Fence::Lwsync),
            Isa::Arm | Isa::X86 => None,
        }
    }

    /// Conventional name used in litmus headers.
    pub fn header_name(self) -> &'static str {
        match self {
            Isa::Power => "PPC",
            Isa::Arm => "ARM",
            Isa::X86 => "X86",
        }
    }

    /// Parses a litmus header name.
    pub fn from_header(s: &str) -> Option<Isa> {
        match s.to_ascii_uppercase().as_str() {
            "PPC" | "POWER" => Some(Isa::Power),
            "ARM" | "ARMV7" => Some(Isa::Arm),
            "X86" | "X86_64" => Some(Isa::X86),
            _ => None,
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.header_name())
    }
}

/// A memory operand.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Addr {
    /// Register-indirect: the register holds the address
    /// (`0(r2)` / `[r2]`).
    Reg(Reg),
    /// Register plus index register (`lwzx rD,rI,rB` / `ldr rD,[rB,rI]`);
    /// the index must fold to zero at run time (false dependencies).
    Indexed {
        /// Base register (holds the address).
        base: Reg,
        /// Index register (must evaluate to 0).
        index: Reg,
    },
    /// A direct location name (x86 `[x]` style).
    Direct(String),
}

/// Branch conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if the last comparison was equal (`beq`).
    Eq,
    /// Branch if the last comparison was not equal (`bne`).
    Ne,
    /// Unconditional (`b`).
    Always,
}

/// One instruction of the unified fragment.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Load: `lwz rD,0(rA)` / `ldr rD,[rA]` / `mov rD,[x]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Memory operand.
        addr: Addr,
    },
    /// Store: `stw rS,0(rA)` / `str rS,[rA]` / `mov [x],rS`.
    Store {
        /// Source register.
        src: Reg,
        /// Memory operand.
        addr: Addr,
    },
    /// Store an immediate (x86 `mov [x],$1`).
    StoreImm {
        /// Immediate value.
        val: i64,
        /// Memory operand.
        addr: Addr,
    },
    /// Constant move: `li rD,v` / `mov rD,#v` / `mov rD,$v`.
    MoveImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        val: i64,
    },
    /// Register move: `mr rD,rS` / `mov rD,rS`.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Exclusive or: `xor rD,rA,rB` / `eor rD,rA,rB`.
    Xor {
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Reg,
    },
    /// Addition: `add rD,rA,rB`.
    Add {
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Reg,
    },
    /// Compare register with immediate: `cmpwi rS,v` / `cmp rS,#v`;
    /// writes the (abstract) condition register.
    CmpImm {
        /// Compared register.
        src: Reg,
        /// Immediate value.
        val: i64,
    },
    /// Compare two registers: `cmpw rA,rB` / `cmp rA,rB`. Comparing a
    /// register with itself is the classic false control dependency
    /// (always equal, but the branch still depends on the register).
    CmpReg {
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Reg,
    },
    /// Conditional or unconditional branch to a label.
    Branch {
        /// Condition on the last comparison.
        cond: BranchCond,
        /// Target label.
        label: String,
    },
    /// A label (branch target).
    Label(String),
    /// A fence instruction.
    Fence(Fence),
}

impl Instr {
    /// Renders the instruction in the given dialect's assembly syntax
    /// (parsable back by [`crate::parse::parse`] under that ISA).
    pub fn render(&self, isa: Isa) -> String {
        let mem = |addr: &Addr| -> String {
            match (isa, addr) {
                (Isa::Power, Addr::Reg(a)) => format!("0({a})"),
                (Isa::Arm, Addr::Reg(a)) => format!("[{a}]"),
                (Isa::Arm, Addr::Indexed { base, index }) => format!("[{base},{index}]"),
                (Isa::X86, Addr::Reg(a)) => format!("[{a}]"),
                (_, Addr::Direct(l)) => format!("[{l}]"),
                (_, other) => format!("{other:?}"),
            }
        };
        match (isa, self) {
            (Isa::Power, _) => self.to_string(),
            (Isa::Arm, Instr::Load { dst, addr }) => format!("ldr {dst},{}", mem(addr)),
            (Isa::Arm, Instr::Store { src, addr }) => format!("str {src},{}", mem(addr)),
            (Isa::Arm, Instr::MoveImm { dst, val }) => format!("mov {dst},#{val}"),
            (Isa::Arm, Instr::Move { dst, src }) => format!("mov {dst},{src}"),
            (Isa::Arm, Instr::Xor { dst, a, b }) => format!("eor {dst},{a},{b}"),
            (Isa::Arm, Instr::Add { dst, a, b }) => format!("add {dst},{a},{b}"),
            (Isa::Arm, Instr::CmpImm { src, val }) => format!("cmp {src},#{val}"),
            (Isa::Arm, Instr::CmpReg { a, b }) => format!("cmp {a},{b}"),
            (Isa::X86, Instr::Load { dst, addr }) => format!("mov {dst},{}", mem(addr)),
            (Isa::X86, Instr::Store { src, addr }) => format!("mov {},{src}", mem(addr)),
            (Isa::X86, Instr::StoreImm { val, addr }) => format!("mov {},${val}", mem(addr)),
            (Isa::X86, Instr::MoveImm { dst, val }) => format!("mov {dst},${val}"),
            (Isa::X86, Instr::Move { dst, src }) => format!("mov {dst},{src}"),
            (_, other) => other.to_string(),
        }
    }
}

impl fmt::Display for Instr {
    /// Prints in Power syntax (the common notation of the paper's figures).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Load { dst, addr: Addr::Reg(a) } => write!(f, "lwz {dst},0({a})"),
            Instr::Load { dst, addr: Addr::Indexed { base, index } } => {
                write!(f, "lwzx {dst},{index},{base}")
            }
            Instr::Load { dst, addr: Addr::Direct(l) } => write!(f, "mov {dst},[{l}]"),
            Instr::Store { src, addr: Addr::Reg(a) } => write!(f, "stw {src},0({a})"),
            Instr::Store { src, addr: Addr::Indexed { base, index } } => {
                write!(f, "stwx {src},{index},{base}")
            }
            Instr::Store { src, addr: Addr::Direct(l) } => write!(f, "mov [{l}],{src}"),
            Instr::StoreImm { val, addr: Addr::Direct(l) } => write!(f, "mov [{l}],${val}"),
            Instr::StoreImm { val, addr } => write!(f, "st ${val},{addr:?}"),
            Instr::MoveImm { dst, val } => write!(f, "li {dst},{val}"),
            Instr::Move { dst, src } => write!(f, "mr {dst},{src}"),
            Instr::Xor { dst, a, b } => write!(f, "xor {dst},{a},{b}"),
            Instr::Add { dst, a, b } => write!(f, "add {dst},{a},{b}"),
            Instr::CmpImm { src, val } => write!(f, "cmpwi {src},{val}"),
            Instr::CmpReg { a, b } => write!(f, "cmpw {a},{b}"),
            Instr::Branch { cond: BranchCond::Eq, label } => write!(f, "beq {label}"),
            Instr::Branch { cond: BranchCond::Ne, label } => write!(f, "bne {label}"),
            Instr::Branch { cond: BranchCond::Always, label } => write!(f, "b {label}"),
            Instr::Label(l) => write!(f, "{l}:"),
            Instr::Fence(fence) => write!(f, "{fence}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_fence_tables() {
        assert!(Isa::Power.fences().contains(&Fence::Lwsync));
        assert_eq!(Isa::Arm.control_fence(), Some(Fence::Isb));
        assert_eq!(Isa::X86.control_fence(), None);
        assert_eq!(Isa::X86.full_fence(), Fence::Mfence);
        assert_eq!(Isa::from_header("ppc"), Some(Isa::Power));
        assert_eq!(Isa::from_header("MIPS"), None);
    }

    #[test]
    fn display_power_syntax() {
        let i = Instr::Load { dst: Reg(1), addr: Addr::Reg(Reg(2)) };
        assert_eq!(i.to_string(), "lwz r1,0(r2)");
        let i = Instr::Load { dst: Reg(4), addr: Addr::Indexed { base: Reg(3), index: Reg(9) } };
        assert_eq!(i.to_string(), "lwzx r4,r9,r3");
        assert_eq!(Instr::Fence(Fence::Lwsync).to_string(), "lwsync");
    }
}
