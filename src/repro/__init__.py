"""repro: reproduction of Hwang (IPPS 1997), "An Efficient Technique of
Instruction Scheduling on a Superscalar-Based Multiprocessor".

The package implements the paper's full pipeline from Fortran-style DO
loops to DOACROSS parallel execution times on a simulated superscalar
multiprocessor, with both the baseline list scheduler and the paper's
synchronization-aware scheduler.

Quick start::

    from repro import compile_loop, evaluate_loop, paper_machine

    compiled = compile_loop('''
    DO I = 1, 100
      S1: B(I) = A(I-2) + E(I+1)
      S2: G(I-3) = A(I-1) * E(I+2)
      S3: A(I) = B(I) + C(I+3)
    ENDDO
    ''')
    result = evaluate_loop(compiled, paper_machine(4, 1))
    print(result.t_list, result.t_new, f"{result.improvement:.1f}%")

Subpackages: :mod:`repro.ir` (frontend), :mod:`repro.deps` (dependence
analysis), :mod:`repro.transforms` (restructuring), :mod:`repro.sync`
(synchronization insertion), :mod:`repro.codegen` (DLX lowering),
:mod:`repro.dfg` (data-flow graph + Sigwat partition), :mod:`repro.sched`
(schedulers), :mod:`repro.sim` (simulators), :mod:`repro.workloads`
(benchmark corpora), :mod:`repro.perf` (sweep-scale caching, process
parallelism and the batch engine), :mod:`repro.obs` (trace spans,
metrics, profiling, decision provenance, the bench-regression tracker
and exporters),
:mod:`repro.robust` (fault injection, deadlock diagnosis, hardened
sweep evaluation and the differential fuzz harness),
:mod:`repro.service` (the typed op registry behind the CLI and the
long-lived HTTP compilation service — ``repro serve``).

Pipeline entry points take their knobs as one frozen
:class:`~repro.options.EvalOptions` value (the stable API; 2.0.0
removed the old per-function keyword arguments — ``docs/api.md`` maps
each onto its field)::

    from repro import EvalOptions, evaluate_loop
    result = evaluate_loop(compiled, machine,
                           options=EvalOptions(exact_simulation=True))
"""

from repro.obs import DecisionJournal, MetricsRegistry, RecordingTracer, Tracer
from repro.options import EvalOptions
from repro.pipeline import (
    CompiledLoop,
    CorpusEvaluation,
    LoopEvaluation,
    ProgramEvaluation,
    compile_loop,
    evaluate_corpus,
    evaluate_loop,
    evaluate_program,
)
from repro.perf import BatchEvaluator, CompileCache, ParallelEvaluator
from repro.robust import (
    BlockedWait,
    DeadlockError,
    FailureRecord,
    FaultPlan,
    RobustPolicy,
)
from repro.report import (
    SCHEMA_VERSION,
    corpus_record,
    evaluation_record,
    explain_record,
    schedule_record,
    to_json,
)
from repro.sched.machine import figure4_machine, paper_cases, paper_machine
from repro.service import (
    OP_REGISTRY,
    OpResult,
    OpSpec,
    evaluate_op,
    op_epilog,
    sweep_op,
)

__version__ = "2.0.0"

__all__ = [
    "BlockedWait",
    "BatchEvaluator",
    "CompileCache",
    "CompiledLoop",
    "CorpusEvaluation",
    "DeadlockError",
    "DecisionJournal",
    "EvalOptions",
    "FailureRecord",
    "FaultPlan",
    "LoopEvaluation",
    "MetricsRegistry",
    "OP_REGISTRY",
    "OpResult",
    "OpSpec",
    "ParallelEvaluator",
    "ProgramEvaluation",
    "RecordingTracer",
    "ReproService",
    "RobustPolicy",
    "SCHEMA_VERSION",
    "Tracer",
    "__version__",
    "compile_loop",
    "corpus_record",
    "evaluate_corpus",
    "evaluate_loop",
    "evaluate_op",
    "evaluate_program",
    "evaluation_record",
    "explain_record",
    "figure4_machine",
    "op_epilog",
    "paper_cases",
    "paper_machine",
    "schedule_record",
    "sweep_op",
    "to_json",
]


def __getattr__(name: str):
    # The HTTP server stack stays lazy (http.server + the batcher) so
    # `import repro` costs the same as before the service split.
    if name == "ReproService":
        from repro.service.server import ReproService

        return ReproService
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
