"""Statement-level dependence analysis tests."""

import pytest

from repro.deps import DepKind, analyze_loop
from repro.ir import parse_loop


def deps_of(source):
    return analyze_loop(parse_loop(source))


def find(graph, kind=None, variable=None, carried=None):
    out = []
    for d in graph:
        if kind is not None and d.kind is not kind:
            continue
        if variable is not None and d.variable != variable:
            continue
        if carried is not None and d.loop_carried != carried:
            continue
        out.append(d)
    return out


class TestArrayFlow:
    def test_paper_fig1_dependences(self):
        graph = deps_of(
            """
            DO I = 1, 100
              S1: B(I) = A(I-2) + E(I+1)
              S2: G(I-3) = A(I-1) * E(I+2)
              S3: A(I) = B(I) + C(I+3)
            ENDDO
            """
        )
        carried = sorted((d.source, d.sink, d.distance) for d in graph.loop_carried())
        assert carried == [(2, 0, 2), (2, 1, 1)]
        assert all(d.kind is DepKind.FLOW for d in graph.loop_carried())
        indep = find(graph, carried=False)
        assert [(d.source, d.sink, d.variable) for d in indep] == [(0, 2, "B")]

    def test_self_dependence(self):
        graph = deps_of("DO I = 1, 10\n A(I) = A(I-1) + 1\nENDDO")
        [dep] = graph.loop_carried()
        assert (dep.source, dep.sink, dep.distance) == (0, 0, 1)
        assert dep.kind is DepKind.FLOW

    def test_forward_carried_dependence(self):
        graph = deps_of("DO I = 1, 10\n A(I) = 1\n B(I) = A(I-1)\nENDDO")
        [dep] = graph.loop_carried()
        assert (dep.source, dep.sink, dep.distance) == (0, 1, 1)

    def test_anti_dependence_carried(self):
        # read A(I+1) at k, write A(I) at k+1: anti, distance 1.
        graph = deps_of("DO I = 1, 10\n B(I) = A(I+1)\n A(I) = 1\nENDDO")
        antis = find(graph, kind=DepKind.ANTI, carried=True)
        assert [(d.source, d.sink, d.distance) for d in antis] == [(0, 1, 1)]

    def test_output_dependence_carried(self):
        graph = deps_of("DO I = 1, 10\n A(I) = 1\n A(I+1) = 2\nENDDO")
        outs = find(graph, kind=DepKind.OUTPUT, carried=True)
        assert [(d.source, d.sink, d.distance) for d in outs] == [(1, 0, 1)]

    def test_no_dependence_between_disjoint_arrays(self):
        graph = deps_of("DO I = 1, 10\n A(I) = X(I)\n B(I) = Y(I)\nENDDO")
        assert len(graph) == 0

    def test_read_read_is_no_dependence(self):
        graph = deps_of("DO I = 1, 10\n B(I) = A(I) + A(I-1)\nENDDO")
        assert find(graph, variable="A") == []

    def test_distance_beyond_trip_count_ignored(self):
        graph = deps_of("DO I = 1, 5\n A(I) = A(I-50)\nENDDO")
        assert graph.loop_carried() == []

    def test_non_affine_subscript_is_irregular(self):
        graph = deps_of("DO I = 1, 10\n A(K) = 1\n B(I) = A(I)\nENDDO")
        irregular = graph.irregular()
        assert irregular and all(d.distance is None for d in irregular)

    def test_loop_independent_same_statement_anti(self):
        graph = deps_of("DO I = 1, 10\n A(I) = A(I) + 1\nENDDO")
        [dep] = find(graph, kind=DepKind.ANTI)
        assert not dep.loop_carried
        assert dep.source == dep.sink == 0


class TestScalars:
    def test_covered_temp_flow_is_loop_independent(self):
        graph = deps_of("DO I = 1, 10\n T = X(I)\n A(I) = T\nENDDO")
        flows = find(graph, kind=DepKind.FLOW, variable="T")
        assert [(d.source, d.sink, d.distance) for d in flows] == [(0, 1, 0)]

    def test_covered_temp_anti_back_to_write(self):
        graph = deps_of("DO I = 1, 10\n T = X(I)\n A(I) = T\nENDDO")
        antis = find(graph, kind=DepKind.ANTI, variable="T")
        assert [(d.source, d.sink, d.distance) for d in antis] == [(1, 0, 1)]

    def test_upward_exposed_read_carries_flow(self):
        graph = deps_of("DO I = 1, 10\n A(I) = T\n T = X(I)\nENDDO")
        flows = find(graph, kind=DepKind.FLOW, variable="T", carried=True)
        assert [(d.source, d.sink, d.distance) for d in flows] == [(1, 0, 1)]

    def test_writes_carry_output_dependence(self):
        graph = deps_of("DO I = 1, 10\n T = X(I)\n T = Y(I)\n A(I) = T\nENDDO")
        outs = find(graph, kind=DepKind.OUTPUT, variable="T")
        assert (0, 1, 0) in [(d.source, d.sink, d.distance) for d in outs]
        assert (1, 0, 1) in [(d.source, d.sink, d.distance) for d in outs]

    def test_read_only_scalar_no_dependence(self):
        graph = deps_of("DO I = 1, 10\n A(I) = C0 * X(I)\nENDDO")
        assert find(graph, variable="C0") == []

    def test_loop_index_reads_no_dependence(self):
        graph = deps_of("DO I = 1, 10\n A(I) = I + 1\nENDDO")
        assert len(graph) == 0

    def test_assignment_to_index_rejected(self):
        with pytest.raises(ValueError, match="loop index"):
            deps_of("DO I = 1, 10\n I = I + 1\nENDDO")

    def test_reduction_scalar_carries_flow(self):
        graph = deps_of("DO I = 1, 10\n S = S + X(I)\nENDDO")
        flows = find(graph, kind=DepKind.FLOW, variable="S", carried=True)
        assert flows, "accumulator must carry a flow dependence"


class TestGraphQueries:
    def test_carried_into(self):
        graph = deps_of("DO I = 1, 10\n A(I) = A(I-1)\n B(I) = A(I-2)\nENDDO")
        assert {d.sink for d in graph.carried_into(1)} == {1}
        assert all(d.sink == 1 for d in graph.carried_into(1))

    def test_of_kind_and_on_variable(self):
        graph = deps_of("DO I = 1, 10\n A(I) = A(I-1)\nENDDO")
        assert graph.of_kind(DepKind.FLOW) == graph.on_variable("A")

    def test_len_and_iter(self):
        graph = deps_of("DO I = 1, 10\n A(I) = A(I-1)\nENDDO")
        assert len(graph) == len(list(graph))


class TestRebound:
    """``DependenceGraph.rebound``: reuse only when no dependence can change."""

    SOURCE = """
        DO I = 1, 100
          B(I) = A(I-2) + E(I+1)
          A(I) = B(I) + C(I+3)
        ENDDO
    """

    def test_relabelled_loop_reuses_the_dependences(self):
        from repro.sync.insertion import _ensure_labels

        loop = parse_loop(self.SOURCE)
        graph = analyze_loop(loop)
        labelled = _ensure_labels(loop)
        rebound = graph.rebound(labelled)
        assert rebound is not None and rebound.loop is labelled
        assert rebound.deps == graph.deps
        assert all(a is b for a, b in zip(rebound.deps, graph.deps))

    def test_new_reference_objects_force_reanalysis(self):
        graph = analyze_loop(parse_loop(self.SOURCE))
        assert graph.rebound(parse_loop(self.SOURCE)) is None  # equal, not same

    def test_changed_bounds_or_body_length_force_reanalysis(self):
        from repro.ir.ast_nodes import Const, Loop

        loop = parse_loop(self.SOURCE)
        graph = analyze_loop(loop)
        shorter = Loop(loop.index, loop.lower, Const(1), loop.body)
        assert graph.rebound(shorter) is None
        truncated = Loop(loop.index, loop.lower, loop.upper, loop.body[:1])
        assert graph.rebound(truncated) is None
