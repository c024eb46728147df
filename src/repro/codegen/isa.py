"""DLX-style instruction set and function-unit classes.

The paper's simulator consumes three-address DLX code (its Fig. 2).  We
model exactly the operation repertoire those listings use:

* integer index arithmetic (``t2 <- I - 2``) on the integer ALU;
* address scaling by the 4-byte word size (``t1 <- 4 * I``) on the shifter;
* floating-point add/subtract on the FP ALU, multiply on the (shared)
  multiplier, divide on the divider;
* loads and stores (``t4 <- A[t3]``, ``B[t1] <- t8``) on the load/store
  unit, including the fused compute-and-store form the paper's Fig. 2 uses
  for instruction 26 (``A[t1] <- t18 + t21``);
* ``Wait_Signal``/``Send_Signal`` on a dedicated synchronization port
  (they consume an issue slot but no arithmetic unit; the paper's Fig. 4
  schedules never place two in one cycle).

Function-unit *classes* are architectural; how many physical units serve a
class — and whether, say, one "adder" serves both the integer and FP ALU
classes as in the paper's Fig. 4 walkthrough — is the machine
configuration's business (:mod:`repro.sched.machine`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.deps.subscripts import Affine

Operand = Union[str, int, float]
"""A register name (``t7``, ``I``) or an immediate constant."""


class FuClass(enum.Enum):
    """Architectural function-unit class of an operation."""

    # Identity hash, computed in C: members are dict keys on every
    # scheduling step, and Enum's default ``hash(self._name_)`` is Python.
    __hash__ = object.__hash__

    LOAD_STORE = "load/store"
    INT_ALU = "integer"
    FP_ALU = "float"
    MULTIPLIER = "multiplier"
    DIVIDER = "divider"
    SHIFTER = "shifter"
    SYNC = "sync"


class Opcode(enum.Enum):
    """DLX-style operation repertoire (see module docs for the mapping)."""

    __hash__ = object.__hash__  # see FuClass

    IADD = "iadd"
    ISUB = "isub"
    INEG = "ineg"
    SHIFT = "shift"  # multiply by a power of two (address scaling)
    IMUL = "imul"
    IDIV = "idiv"
    FADD = "fadd"
    FSUB = "fsub"
    FNEG = "fneg"
    FMUL = "fmul"
    FDIV = "fdiv"
    ICMP = "icmp"  # integer compare, result 1/0 (guard predicates)
    FCMP = "fcmp"  # floating-point compare
    LOAD = "load"
    STORE = "store"
    STORE_OP = "store_op"  # fused compute + store
    WAIT = "wait"
    SEND = "send"


OPCODE_FU: dict[Opcode, FuClass] = {
    Opcode.IADD: FuClass.INT_ALU,
    Opcode.ISUB: FuClass.INT_ALU,
    Opcode.INEG: FuClass.INT_ALU,
    Opcode.SHIFT: FuClass.SHIFTER,
    Opcode.IMUL: FuClass.MULTIPLIER,
    Opcode.IDIV: FuClass.DIVIDER,
    Opcode.FADD: FuClass.FP_ALU,
    Opcode.FSUB: FuClass.FP_ALU,
    Opcode.FNEG: FuClass.FP_ALU,
    Opcode.FMUL: FuClass.MULTIPLIER,
    Opcode.FDIV: FuClass.DIVIDER,
    Opcode.ICMP: FuClass.INT_ALU,
    Opcode.FCMP: FuClass.FP_ALU,
    Opcode.LOAD: FuClass.LOAD_STORE,
    Opcode.STORE: FuClass.LOAD_STORE,
    Opcode.STORE_OP: FuClass.LOAD_STORE,
    Opcode.WAIT: FuClass.SYNC,
    Opcode.SEND: FuClass.SYNC,
}

# Arithmetic symbol for the semantics evaluator.
OPCODE_SYM: dict[Opcode, str] = {
    Opcode.IADD: "+",
    Opcode.ISUB: "-",
    Opcode.FADD: "+",
    Opcode.FSUB: "-",
    Opcode.IMUL: "*",
    Opcode.FMUL: "*",
    Opcode.IDIV: "/",
    Opcode.FDIV: "/",
    Opcode.SHIFT: "*",
}

WORD_SIZE = 4


@dataclass(frozen=True)
class MemAccess:
    """Memory effect of a load/store.

    ``variable`` is the array (or memory-resident scalar) name; ``address``
    the operand holding the byte address (``None`` for scalars, immediate
    ``int`` for constant subscripts); ``affine`` the subscript's affine form
    when known — used for exact within-iteration disambiguation; ``is_store``
    distinguishes the direction.  ``private`` marks processor-local storage
    (spill slots): each processor has its own copy, so such accesses never
    communicate between iterations.
    """

    variable: str
    address: Operand | None
    is_store: bool
    affine: Affine | None = None
    is_scalar: bool = False
    private: bool = False

    def may_alias(self, other: "MemAccess") -> bool:
        """Conservative same-iteration alias test: same variable and not
        provably different affine subscripts."""
        if self.variable != other.variable:
            return False
        if self.is_scalar or other.is_scalar:
            return True
        if self.affine is None or other.affine is None:
            return True
        return self.affine == other.affine


@dataclass(frozen=True)
class SyncInfo:
    """Synchronization payload of a WAIT/SEND instruction."""

    pair_ids: tuple[int, ...]
    source_label: str
    distance: int | None = None  # waits only


@dataclass(frozen=True)
class Instruction:
    """One three-address instruction in Fig. 2 style.

    ``iid`` is the 1-based position in the lowered listing (the paper's
    instruction numbers).  ``dest`` is the destination register (``None``
    for stores and sync ops); ``srcs`` are register/immediate operands —
    for memory ops the address operand is in ``mem``, while ``srcs`` holds
    the stored value(s).  ``stmt_pos`` points back at the synchronized-body
    statement this instruction was lowered from.
    """

    iid: int
    opcode: Opcode
    dest: str | None = None
    srcs: tuple[Operand, ...] = ()
    mem: MemAccess | None = None
    sync: SyncInfo | None = None
    stmt_pos: int | None = None
    fused: Opcode | None = None  # inner arithmetic opcode of a STORE_OP
    cmp: str | None = None  # relational operator of an ICMP/FCMP
    pred: str | None = None  # predicate register of a guarded store

    @property
    def fu(self) -> FuClass:
        return OPCODE_FU[self.opcode]

    @property
    def sym(self) -> str | None:
        if self.opcode is Opcode.STORE_OP:
            assert self.fused is not None
            return OPCODE_SYM.get(self.fused)
        return OPCODE_SYM.get(self.opcode)

    @property
    def is_sync(self) -> bool:
        return self.opcode in (Opcode.WAIT, Opcode.SEND)

    @property
    def is_mem(self) -> bool:
        return self.mem is not None

    def uses(self) -> tuple[str, ...]:
        """Register names this instruction reads (operands, address,
        predicate)."""
        regs = [s for s in self.srcs if isinstance(s, str)]
        if self.mem is not None and isinstance(self.mem.address, str):
            regs.append(self.mem.address)
        if self.pred is not None:
            regs.append(self.pred)
        return tuple(regs)

    def __str__(self) -> str:  # pragma: no cover - delegates
        return render_instruction(self)


def _fmt_operand(op: Operand) -> str:
    return op if isinstance(op, str) else str(op)


def _fmt_mem(mem: MemAccess) -> str:
    if mem.is_scalar:
        return mem.variable
    return f"{mem.variable}[{_fmt_operand(mem.address)}]"


def render_instruction(instr: Instruction) -> str:
    """Render in the paper's Fig. 2 notation, e.g. ``t12 <- 4 * t11``."""
    if instr.opcode is Opcode.WAIT:
        assert instr.sync is not None
        return f"Wait_Signal({instr.sync.source_label}, I-{instr.sync.distance})"
    if instr.opcode is Opcode.SEND:
        assert instr.sync is not None
        return f"Send_Signal({instr.sync.source_label})"
    if instr.opcode is Opcode.LOAD:
        assert instr.mem is not None
        return f"{instr.dest} <- {_fmt_mem(instr.mem)}"
    guard_prefix = f"[{instr.pred}] " if instr.pred is not None else ""
    if instr.opcode is Opcode.STORE:
        assert instr.mem is not None
        return f"{guard_prefix}{_fmt_mem(instr.mem)} <- {_fmt_operand(instr.srcs[0])}"
    if instr.opcode is Opcode.STORE_OP:
        assert instr.mem is not None and instr.sym is not None
        a, b = instr.srcs
        return (
            f"{guard_prefix}{_fmt_mem(instr.mem)} <- "
            f"{_fmt_operand(a)} {instr.sym} {_fmt_operand(b)}"
        )
    if instr.opcode in (Opcode.ICMP, Opcode.FCMP):
        a, b = instr.srcs
        return f"{instr.dest} <- {_fmt_operand(a)} {instr.cmp} {_fmt_operand(b)}"
    if instr.opcode in (Opcode.INEG, Opcode.FNEG):
        return f"{instr.dest} <- -{_fmt_operand(instr.srcs[0])}"
    assert instr.sym is not None, f"cannot render {instr.opcode}"
    a, b = instr.srcs
    return f"{instr.dest} <- {_fmt_operand(a)} {instr.sym} {_fmt_operand(b)}"
