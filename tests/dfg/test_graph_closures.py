"""Bitset ancestor/descendant closures of DataFlowGraph against BFS.

The closures are int masks over topological positions, built lazily in one
pass and dropped on every mutation; a plain breadth-first search over
``pred``/``succ`` is the reference.
"""

from collections import deque

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dfg.graph import DataFlowGraph, EdgeKind


def bfs(adjacency, node, step):
    seen = set()
    queue = deque(step(e) for e in adjacency[node])
    while queue:
        cur = queue.popleft()
        if cur not in seen:
            seen.add(cur)
            queue.extend(step(e) for e in adjacency[cur])
    return seen


def bfs_ancestors(graph, node):
    return bfs(graph.pred, node, lambda e: e.src)


def bfs_descendants(graph, node):
    return bfs(graph.succ, node, lambda e: e.dst)


@st.composite
def dags(draw):
    """A random DAG over shuffled ids (edges follow a random hidden order,
    so topological positions differ from ids), plus one more edge that
    keeps it acyclic."""
    n = draw(st.integers(1, 16))
    ids = draw(st.permutations(range(1, n + 1)))
    graph = DataFlowGraph()
    for node in sorted(ids):
        graph.add_node(node)
    possible = [(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)]
    if possible:
        edges = draw(
            st.lists(st.sampled_from(possible), max_size=min(len(possible), 30), unique=True)
        )
        for src, dst in edges:
            graph.add_edge(src, dst, EdgeKind.REG)
    extra = draw(st.sampled_from(possible)) if possible else None
    return graph, extra


def assert_closures_match_bfs(graph):
    order = graph.topological_order()
    for node in graph.nodes:
        assert graph.ancestors(node) == bfs_ancestors(graph, node)
        assert graph.descendants(node) == bfs_descendants(graph, node)
        assert graph.nodes_of(graph.ancestor_mask(node)) == [
            n for n in order if n in bfs_ancestors(graph, node)
        ]
        assert graph.descendant_mask(node) == graph.mask_of(bfs_descendants(graph, node))


@given(dags())
@settings(max_examples=120, deadline=None)
def test_closures_equal_bfs(case):
    graph, _ = case
    assert_closures_match_bfs(graph)


@given(dags())
@settings(max_examples=120, deadline=None)
def test_closures_follow_a_later_add_edge(case):
    graph, extra = case
    assert_closures_match_bfs(graph)  # builds the masks
    if extra is not None and not graph.has_edge(*extra):
        graph.add_edge(*extra, EdgeKind.MEM_FLOW)
    assert_closures_match_bfs(graph)


def test_closures_follow_a_later_add_node():
    graph = DataFlowGraph()
    for node in (1, 2):
        graph.add_node(node)
    graph.add_edge(1, 2, EdgeKind.REG)
    assert graph.descendants(1) == {2}
    graph.add_node(3)
    graph.add_edge(2, 3, EdgeKind.REG)
    assert graph.descendants(1) == {2, 3}
    assert graph.ancestors(3) == {1, 2}
    assert graph.topological_order() == [1, 2, 3]


def test_masks_are_not_pickled():
    import pickle

    graph = DataFlowGraph()
    for node in (1, 2, 3):
        graph.add_node(node)
    graph.add_edge(1, 3, EdgeKind.REG)
    graph.ancestors(3)
    again = pickle.loads(pickle.dumps(graph))
    assert "_closure" not in again.__dict__
    assert again == graph
    assert again.ancestors(3) == {1}
