"""Restructuring driver: DO loop → DOACROSS candidate.

Mirrors the paper's statistical model (Fig. 5): take a loop Parafrase could
not make DOALL, apply induction-variable substitution, scalar expansion and
reduction replacement, then reclassify.  A loop that comes out DOACROSS
proceeds to synchronization insertion; DOALL needs no synchronization;
SERIAL is dropped from the study (as the paper's type-6 "others" mostly
were).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.deps import DependenceGraph, LoopClass, analyze_loop, classify_loop
from repro.ir.ast_nodes import Loop
from repro.transforms.induction import InductionInfo, substitute_induction
from repro.transforms.reduction import ReductionInfo, replace_reductions
from repro.transforms.scalar_expansion import expand_scalars


@dataclass
class RestructureResult:
    """Everything the rest of the pipeline needs about a restructured loop."""

    original: Loop
    loop: Loop
    classification: LoopClass
    graph: DependenceGraph
    expanded_scalars: list[str] = field(default_factory=list)
    reductions: list[ReductionInfo] = field(default_factory=list)
    inductions: list[InductionInfo] = field(default_factory=list)

    @property
    def is_doacross(self) -> bool:
        return self.classification is LoopClass.DOACROSS


def restructure(
    loop: Loop,
    induction_bases: dict[str, int] | None = None,
    apply_induction: bool = True,
    apply_expansion: bool = True,
    apply_reduction: bool = True,
) -> RestructureResult:
    """Apply the three transforms (each optional, for ablations) and classify.

    Order matters and matches practice: induction substitution first (it
    restores affine subscripts the other analyses need), then reduction
    replacement (before expansion, because an expanded accumulator would no
    longer match the ``s = s + e`` pattern), then scalar expansion for the
    remaining temporaries.
    """
    original = loop
    inductions: list[InductionInfo] = []
    reductions: list[ReductionInfo] = []
    expanded: list[str] = []

    if apply_induction:
        loop, inductions = substitute_induction(loop, bases=induction_bases)
    if apply_reduction:
        loop, reductions = replace_reductions(loop)
    if apply_expansion:
        loop, expanded = expand_scalars(loop)

    graph = analyze_loop(loop)
    classification = classify_loop(graph)
    if classification is LoopClass.DOACROSS:
        loop = Loop(
            index=loop.index,
            lower=loop.lower,
            upper=loop.upper,
            body=loop.body,
            step=loop.step,
            is_doacross=True,
            name=loop.name,
        )
        # Same body objects, so the dependences carry over unchanged.
        graph = DependenceGraph(loop=loop, deps=graph.deps)

    return RestructureResult(
        original=original,
        loop=loop,
        classification=classification,
        graph=graph,
        expanded_scalars=expanded,
        reductions=reductions,
        inductions=inductions,
    )
