"""Data-flow graph structure over instruction ids."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class EdgeKind(enum.Enum):
    """Why the destination instruction must follow the source."""

    REG = "reg"  # true register dependence (producer -> consumer)
    REG_ANTI = "reg_anti"  # reader -> next writer of a reused register
    REG_OUTPUT = "reg_output"  # writer -> next writer of a reused register
    MEM_FLOW = "mem_flow"  # store -> load, same location, same iteration
    MEM_ANTI = "mem_anti"  # load -> store
    MEM_OUTPUT = "mem_output"  # store -> store
    SYNC_SRC_SIG = "src_sig"  # dependence source -> its Send_Signal
    SYNC_WAT_SNK = "wat_snk"  # Wait_Signal -> its dependence sink


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: EdgeKind

    def __str__(self) -> str:  # pragma: no cover - diagnostics
        return f"{self.src} -[{self.kind.value}]-> {self.dst}"


@dataclass
class DataFlowGraph:
    """Directed acyclic graph over 1-based instruction ids.

    ``nodes`` is the full ordered id list (listing order); ``succ``/``pred``
    are adjacency maps built as edges are added.  The graph is acyclic by
    construction (every edge points from a lower listing position to a
    higher one is *not* guaranteed — sync arcs respect listing order too,
    but we verify acyclicity in :meth:`topological_order`).

    Reachability is answered from closures kept as int bitmasks over
    *topological positions* (bit ``k`` is ``topological_order()[k]``): one
    ancestor and one descendant mask per node, built lazily in one pass
    over the topological order and dropped by :meth:`add_node` and
    :meth:`add_edge`.  Masks rather than sets keep a cached graph small, and
    a mask's set bits, lowest first, list its nodes in topological order
    (:meth:`nodes_of`).
    """

    nodes: list[int] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    succ: dict[int, list[Edge]] = field(default_factory=dict)
    pred: dict[int, list[Edge]] = field(default_factory=dict)
    # Derived reachability state (a ``_Closure``), not a field: rebuilt on
    # first query, dropped on mutation and when pickled.
    _closure = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_closure", None)
        return state

    def add_node(self, node: int) -> None:
        self.nodes.append(node)
        self.succ.setdefault(node, [])
        self.pred.setdefault(node, [])
        self._closure = None

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> Edge:
        if src == dst:
            raise ValueError(f"self edge on node {src}")
        edge = Edge(src, dst, kind)
        self.edges.append(edge)
        self.succ[src].append(edge)
        self.pred[dst].append(edge)
        self._closure = None
        return edge

    def has_edge(self, src: int, dst: int) -> bool:
        return any(e.dst == dst for e in self.succ.get(src, ()))

    def successors(self, node: int) -> list[int]:
        return [e.dst for e in self.succ[node]]

    def predecessors(self, node: int) -> list[int]:
        return [e.src for e in self.pred[node]]

    def in_degree(self, node: int) -> int:
        return len(self.pred[node])

    # -- algorithms ----------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; raises ``ValueError`` on a cycle."""
        return list(self._closures().order)

    def _closures(self) -> "_Closure":
        if self._closure is None:
            self._closure = _Closure.build(self)
        return self._closure

    def bit(self, node: int) -> int:
        """The single-bit mask of ``node``."""
        return 1 << self._closures().position[node]

    def mask_of(self, nodes: Iterable[int]) -> int:
        """The mask of a set of nodes."""
        position = self._closures().position
        mask = 0
        for node in nodes:
            mask |= 1 << position[node]
        return mask

    def nodes_of(self, mask: int) -> list[int]:
        """The nodes of ``mask``, in topological order."""
        order = self._closures().order
        out = []
        while mask:
            low = mask & -mask
            out.append(order[low.bit_length() - 1])
            mask ^= low
        return out

    def ancestor_mask(self, node: int) -> int:
        """Mask of all nodes with a directed path to ``node`` (excluding it)."""
        closure = self._closures()
        return closure.ancestors[closure.position[node]]

    def descendant_mask(self, node: int) -> int:
        """Mask of all nodes reachable from ``node`` (excluding it)."""
        closure = self._closures()
        return closure.descendants[closure.position[node]]

    def ancestors(self, node: int) -> set[int]:
        """All nodes with a directed path to ``node`` (excluding it)."""
        return set(self.nodes_of(self.ancestor_mask(node)))

    def descendants(self, node: int) -> set[int]:
        """All nodes reachable from ``node`` (excluding it)."""
        return set(self.nodes_of(self.descendant_mask(node)))

    def shortest_path(self, start: int, goal: int) -> list[int] | None:
        """Fewest-nodes directed path from ``start`` to ``goal`` (BFS),
        inclusive of both endpoints; ``None`` if unreachable."""
        if start == goal:
            return [start]
        parent: dict[int, int] = {start: start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for edge in self.succ[cur]:
                if edge.dst in parent:
                    continue
                parent[edge.dst] = cur
                if edge.dst == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(edge.dst)
        return None

    def weakly_connected_components(self) -> list[set[int]]:
        """Connected components ignoring edge direction, in order of their
        smallest member."""
        seen: set[int] = set()
        components: list[set[int]] = []
        for node in self.nodes:
            if node in seen:
                continue
            component: set[int] = set()
            stack = [node]
            while stack:
                cur = stack.pop()
                if cur in component:
                    continue
                component.add(cur)
                stack.extend(e.dst for e in self.succ[cur])
                stack.extend(e.src for e in self.pred[cur])
            seen |= component
            components.append(component)
        components.sort(key=min)
        return components

    def critical_path_length(self, latency: "Iterable[tuple[int, int]] | None" = None) -> int:
        """Longest path length in nodes (unit latency); a quick diagnostic."""
        order = self.topological_order()
        dist = {n: 1 for n in self.nodes}
        for node in order:
            for edge in self.succ[node]:
                dist[edge.dst] = max(dist[edge.dst], dist[node] + 1)
        return max(dist.values(), default=0)

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class _Closure:
    """Topological order plus per-position ancestor/descendant bitmasks."""

    order: list[int]
    position: dict[int, int]
    ancestors: list[int]
    descendants: list[int]

    @classmethod
    def build(cls, graph: DataFlowGraph) -> "_Closure":
        # Kahn's algorithm.
        indeg = {n: len(graph.pred[n]) for n in graph.nodes}
        ready = deque(n for n in graph.nodes if indeg[n] == 0)
        order: list[int] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for edge in graph.succ[node]:
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(graph.nodes):
            raise ValueError("data-flow graph contains a cycle")
        position = {node: k for k, node in enumerate(order)}
        ancestors = [0] * len(order)
        for k, node in enumerate(order):
            mask = 0
            for edge in graph.pred[node]:
                j = position[edge.src]
                mask |= ancestors[j] | 1 << j
            ancestors[k] = mask
        descendants = [0] * len(order)
        for k in range(len(order) - 1, -1, -1):
            mask = 0
            for edge in graph.succ[order[k]]:
                j = position[edge.dst]
                mask |= descendants[j] | 1 << j
            descendants[k] = mask
        return cls(order, position, ancestors, descendants)
