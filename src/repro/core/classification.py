"""Classification-based link steering (Section 2.3, Algorithm 1).

To disambiguate homonymous concept labels, NNexus compares the subject
classes of the link *source* entry against the classes of every candidate
link *target* and keeps the candidates at minimum class distance.

Distances are shortest paths in the classification tree whose edges carry
the paper's depth-decaying weights::

    w(e) = b ** (height - i - 1)

where ``b`` is the base weight (default 10; ``b = 1`` degenerates to the
non-weighted hop count), ``height`` is the tree height and ``i`` the
edge's distance from the root.  Deep edges are therefore cheap and edges
near the root expensive, encoding "classes deeper in a subtree are more
closely related than classes higher in the same subtree".

The paper computes all-pairs shortest paths with Johnson's algorithm at
startup; :class:`ClassificationGraph` implements Johnson (Bellman–Ford
reweighting + per-node Dijkstra) from scratch, and tests check it against
Floyd–Warshall.  The linker does not run it: on a forest no row is read.

Steering path
-------------
Class codes are *interned* to dense integer ids at graph-build time
(``normalize_code`` runs once per code, on insertion), and the shortest-
path machinery works over int-indexed flat arrays: a CSR-shaped
adjacency (``index``/``neighbors``/``weights``).  A scheme-built graph is
a forest, so a class-pair distance is an O(depth) walk up to the lowest
common ancestor over parent arrays built once.  A graph with cycles
(bridge edges from ontology mapping) falls back to dense Dijkstra rows,
filled lazily per source.  :class:`ClassificationSteering` assigns every
class list a *signature* — the sorted tuple of interned ids — and
Algorithm 1's distance is the minimum over the signature pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.core.errors import NNexusError, UnknownClassError
from repro.ontology.scheme import ClassificationScheme, normalize_code

__all__ = [
    "INFINITE_DISTANCE",
    "DEFAULT_BASE_WEIGHT",
    "UNKNOWN_CLASS_ID",
    "ClassificationGraph",
    "SteeringResult",
    "ClassificationSteering",
]

#: Distance reported when two classes are unreachable from one another
#: (or when an object carries no classification at all).
INFINITE_DISTANCE = float("inf")

#: The paper's default weight base ("The weights are assigned with base 10").
DEFAULT_BASE_WEIGHT = 10.0

#: Interned id for codes the graph has never seen; always at infinite
#: distance from everything (including itself).
UNKNOWN_CLASS_ID = -1

_EMPTY_MAPPING: Mapping[str, float] = MappingProxyType({})


class NegativeCycleError(NNexusError):
    """Johnson's algorithm detected a negative-weight cycle."""


class ClassificationGraph:
    """A weighted undirected graph over classification codes.

    Usually built from a :class:`ClassificationScheme` via
    :meth:`from_scheme`, which applies the depth-decaying weight formula.
    Arbitrary extra edges (e.g. cross-scheme bridges added by ontology
    mapping) can be attached afterwards with :meth:`add_edge`.

    Codes are interned to dense integer ids on insertion; the string API
    (:meth:`distance`, :meth:`dijkstra`, ...) survives unchanged while
    the hot path (:meth:`distance_between_ids`) never touches a string.

    Concurrency contract: mutation (:meth:`add_node`, :meth:`add_edge`,
    and the builders that call them — :meth:`from_scheme`, ontology
    mapping's ``add_scheme_to_graph`` / ``merge_into_graph``) must finish
    before the graph is shared.  After that, any number of threads may
    read it: the lazy CSR, forest and row tables are built from locals
    and published by one assignment, so a racing fill recomputes the same
    value.
    """

    def __init__(self) -> None:
        # String-keyed adjacency: the mutation/introspection surface.
        self._adjacency: dict[str, dict[str, float]] = {}
        # Interning tables: normalized code <-> dense id.
        self._id_of: dict[str, int] = {}
        self._codes: list[str] = []
        # Int-keyed adjacency mirror used to build the CSR arrays.
        self._adj_ids: list[dict[int, float]] = []
        # Lazily built CSR flat arrays (index, neighbors, weights).
        self._csr: tuple[list[int], list[int], list[float]] | None = None
        # Dense Dijkstra rows per source id (the distance memo).
        self._rows: dict[int, list[float]] = {}
        # Forest fast path: (parent, parent_weight, depth, component) flat
        # arrays when the graph is acyclic, None when it has cycles,
        # "unchecked" before the lazy detection runs.
        self._forest: tuple[list[int], list[float], list[int], list[int]] | None | str = (
            "unchecked"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scheme(
        cls, scheme: ClassificationScheme, base_weight: float = DEFAULT_BASE_WEIGHT
    ) -> "ClassificationGraph":
        """Weighted graph for ``scheme`` with ``w(e) = b**(height - i - 1)``.

        The graph is complete when this returns, so its forest tables
        are built here rather than by the first distance query, which
        would pay for them inside a link's steer stage.
        """
        if base_weight <= 0:
            raise ValueError("base_weight must be positive")
        graph = cls()
        height = max(scheme.height(), 1)
        for parent, child, edge_depth in scheme.edges():
            weight = base_weight ** (height - edge_depth - 1)
            graph.add_edge(parent, child, weight)
        graph._tree_arrays()
        return graph

    def _intern(self, normalized: str) -> int:
        """Id of ``normalized``, interning it (and its tables) if new."""
        class_id = self._id_of.get(normalized)
        if class_id is None:
            class_id = len(self._codes)
            self._id_of[normalized] = class_id
            self._codes.append(normalized)
            self._adjacency[normalized] = {}
            self._adj_ids.append({})
        return class_id

    def _mutated(self) -> None:
        self._csr = None
        self._forest = "unchecked"
        self._rows.clear()

    def add_node(self, code: str) -> None:
        """Ensure a class node exists (no edges)."""
        self._intern(normalize_code(code))
        self._mutated()

    def add_edge(self, code_a: str, code_b: str, weight: float) -> None:
        """Add an undirected weighted edge between two classes."""
        if weight < 0:
            raise ValueError("edge weights must be non-negative")
        a = normalize_code(code_a)
        b = normalize_code(code_b)
        id_a = self._intern(a)
        id_b = self._intern(b)
        self._adjacency[a][b] = weight
        self._adjacency[b][a] = weight
        self._adj_ids[id_a][id_b] = weight
        self._adj_ids[id_b][id_a] = weight
        self._mutated()

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def class_id(self, code: str) -> int:
        """Dense id of a class code (:data:`UNKNOWN_CLASS_ID` if absent)."""
        return self._id_of.get(normalize_code(code), UNKNOWN_CLASS_ID)

    def code_of(self, class_id: int) -> str:
        """Code for an interned id (inverse of :meth:`class_id`)."""
        if 0 <= class_id < len(self._codes):
            return self._codes[class_id]
        raise UnknownClassError("graph", f"id:{class_id}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, code: str) -> bool:
        return normalize_code(code) in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def nodes(self) -> list[str]:
        """All class codes present in the graph."""
        return list(self._codes)

    def neighbors(self, code: str) -> Mapping[str, float]:
        """Adjacent classes and edge weights of ``code``.

        Returns a **read-only live view** (not a copy): callers may
        iterate and look up freely, but the mapping reflects later
        mutations and rejects writes.  Hot paths therefore probe
        neighborhoods without allocating a dict per call.
        """
        inner = self._adjacency.get(normalize_code(code))
        if inner is None:
            return _EMPTY_MAPPING
        return MappingProxyType(inner)

    # ------------------------------------------------------------------
    # Flat-array machinery (the fast path)
    # ------------------------------------------------------------------
    def _tables(self) -> tuple[list[int], list[int], list[float]]:
        """CSR arrays ``(index, neighbors, weights)``, built lazily.

        ``index`` has ``n + 1`` entries; node ``i``'s edges live at
        positions ``index[i]:index[i + 1]`` of the two flat arrays.
        """
        csr = self._csr
        if csr is None:
            index = [0] * (len(self._codes) + 1)
            neighbors: list[int] = []
            weights: list[float] = []
            for node_id, adjacent in enumerate(self._adj_ids):
                for neighbor_id, weight in adjacent.items():
                    neighbors.append(neighbor_id)
                    weights.append(weight)
                index[node_id + 1] = len(neighbors)
            csr = self._csr = (index, neighbors, weights)
        return csr

    def _edges_ids(self) -> list[tuple[int, int, float]]:
        """Directed ``(a, b, w)`` edge list over interned ids.

        Shared by :meth:`bellman_ford` and :meth:`johnson_all_pairs`
        (which used to rebuild it with identical comprehensions).
        Both directions of every undirected edge are present.
        """
        index, neighbors, weights = self._tables()
        edges: list[tuple[int, int, float]] = []
        for node_id in range(len(self._codes)):
            for slot in range(index[node_id], index[node_id + 1]):
                edges.append((node_id, neighbors[slot], weights[slot]))
        return edges

    def _dijkstra_ids(
        self, source: int, potentials: Sequence[float] | None = None
    ) -> list[float]:
        """Dense distance row from ``source`` over the CSR arrays."""
        index, neighbors, weights = self._tables()
        distances = [INFINITE_DISTANCE] * len(self._codes)
        distances[source] = 0.0
        frontier: list[tuple[float, int]] = [(0.0, source)]
        push = heapq.heappush
        pop = heapq.heappop
        while frontier:
            cost, node = pop(frontier)
            if cost > distances[node]:
                continue
            for slot in range(index[node], index[node + 1]):
                neighbor = neighbors[slot]
                weight = weights[slot]
                if potentials is not None:
                    weight += potentials[node] - potentials[neighbor]
                candidate = cost + weight
                if candidate < distances[neighbor]:
                    distances[neighbor] = candidate
                    push(frontier, (candidate, neighbor))
        return distances

    def _row(self, source: int) -> list[float]:
        """Memoized dense Dijkstra row for an interned source id."""
        row = self._rows.get(source)
        if row is None:
            row = self._dijkstra_ids(source)
            self._rows[source] = row
        return row

    def _tree_arrays(
        self,
    ) -> tuple[list[int], list[float], list[int], list[int]] | None:
        """Forest structure ``(parent, parent_weight, depth, component)``.

        Built in O(V + E) by BFS over the CSR arrays (by
        :meth:`from_scheme`, and lazily after a later mutation); returns
        ``None`` when the graph contains a cycle (bridge edges added by
        ontology mapping, random test graphs), in which case distance
        queries fall back to memoized Dijkstra rows.  On a forest —
        every scheme-built classification tree — the shortest path
        between two classes is *the* tree path, so distances reduce to
        an O(depth) walk to the lowest common ancestor.
        """
        forest = self._forest
        if forest != "unchecked":
            return forest  # type: ignore[return-value]
        index, neighbors, weights = self._tables()
        count = len(self._codes)
        parent = [-1] * count
        parent_weight = [0.0] * count
        depth = [0] * count
        component = [-1] * count
        for start in range(count):
            if component[start] != -1:
                continue
            component[start] = start
            stack = [start]
            while stack:
                node = stack.pop()
                for slot in range(index[node], index[node + 1]):
                    neighbor = neighbors[slot]
                    if neighbor == parent[node]:
                        continue
                    if component[neighbor] != -1:
                        # Back/cross edge (or self-loop): not a forest.
                        self._forest = None
                        return None
                    component[neighbor] = start
                    parent[neighbor] = node
                    parent_weight[neighbor] = weights[slot]
                    depth[neighbor] = depth[node] + 1
                    stack.append(neighbor)
        built = (parent, parent_weight, depth, component)
        self._forest = built
        return built

    def _tree_distance(
        self,
        id_a: int,
        id_b: int,
        arrays: tuple[list[int], list[float], list[int], list[int]],
    ) -> float:
        """Exact distance on a forest: walk both ids up to their LCA."""
        parent, parent_weight, depth, component = arrays
        if component[id_a] != component[id_b]:
            return INFINITE_DISTANCE
        cost = 0.0
        depth_a = depth[id_a]
        depth_b = depth[id_b]
        while depth_a > depth_b:
            cost += parent_weight[id_a]
            id_a = parent[id_a]
            depth_a -= 1
        while depth_b > depth_a:
            cost += parent_weight[id_b]
            id_b = parent[id_b]
            depth_b -= 1
        while id_a != id_b:
            cost += parent_weight[id_a] + parent_weight[id_b]
            id_a = parent[id_a]
            id_b = parent[id_b]
        return cost

    # ------------------------------------------------------------------
    # Shortest paths (string API)
    # ------------------------------------------------------------------
    def dijkstra(self, source: str) -> dict[str, float]:
        """Single-source shortest-path distances from ``source``.

        Only reachable nodes appear in the result (historical contract).
        """
        source_id = self.class_id(source)
        if source_id == UNKNOWN_CLASS_ID:
            raise UnknownClassError("graph", normalize_code(source))
        row = self._row(source_id)
        codes = self._codes
        return {
            codes[node_id]: dist
            for node_id, dist in enumerate(row)
            if dist != INFINITE_DISTANCE
        }

    def bellman_ford(self, source: str) -> dict[str, float]:
        """Bellman–Ford distances from ``source``; detects negative cycles.

        Needed for the reweighting step of Johnson's algorithm.  On the
        non-negative tree weights produced by :meth:`from_scheme` this
        returns the same distances as Dijkstra (slower).  Unreachable
        nodes appear with :data:`INFINITE_DISTANCE` (historical contract).
        """
        source_id = self.class_id(source)
        if source_id == UNKNOWN_CLASS_ID:
            raise UnknownClassError("graph", normalize_code(source))
        distances = [INFINITE_DISTANCE] * len(self._codes)
        distances[source_id] = 0.0
        edges = self._edges_ids()
        for _ in range(len(self._codes) - 1):
            changed = False
            for a, b, weight in edges:
                if distances[a] + weight < distances[b]:
                    distances[b] = distances[a] + weight
                    changed = True
            if not changed:
                break
        for a, b, weight in edges:
            if distances[a] + weight < distances[b]:
                raise NegativeCycleError("negative-weight cycle detected")
        return {code: distances[node_id] for node_id, code in enumerate(self._codes)}

    def johnson_all_pairs(self) -> dict[str, dict[str, float]]:
        """All-pairs shortest paths via Johnson's algorithm.

        A virtual source connected to every node with zero-weight edges is
        used for the Bellman–Ford potential computation, then every node
        runs Dijkstra over the reweighted edges.  Potentials are all zero
        here because our weights are non-negative, but the full algorithm
        is implemented as the paper specifies it (and exercised by tests
        against brute-force Floyd–Warshall).  The linker never calls it:
        on a forest :meth:`distance_between_ids` walks the tree instead,
        and off a forest rows fill lazily per source.
        """
        # Bellman-Ford from the virtual source; directed zero edges into
        # every node mean every potential is reachable.
        potentials = [0.0] * len(self._codes)
        edges = self._edges_ids()
        # |V| + 1 nodes including the virtual source -> |V| relaxation
        # rounds suffice; a change in the extra round means a cycle.
        for _ in range(len(self._codes) + 1):
            changed = False
            for a, b, weight in edges:
                if potentials[a] + weight < potentials[b]:
                    potentials[b] = potentials[a] + weight
                    changed = True
            if not changed:
                break
        else:
            raise NegativeCycleError("negative-weight cycle detected")
        codes = self._codes
        result: dict[str, dict[str, float]] = {}
        for node_id, code in enumerate(codes):
            reweighted = self._dijkstra_ids(node_id, potentials)
            row = [
                (
                    cost - potentials[node_id] + potentials[other]
                    if cost != INFINITE_DISTANCE
                    else INFINITE_DISTANCE
                )
                for other, cost in enumerate(reweighted)
            ]
            result[code] = {
                codes[other]: dist
                for other, dist in enumerate(row)
                if dist != INFINITE_DISTANCE
            }
        return result

    def distance(self, code_a: str, code_b: str) -> float:
        """Shortest-path distance between two classes.

        A walk to the lowest common ancestor on a forest, otherwise the
        lazily memoized Dijkstra row of ``code_a``.
        """
        return self.distance_between_ids(self.class_id(code_a), self.class_id(code_b))

    def distance_between_ids(self, id_a: int, id_b: int) -> float:
        """Shortest-path distance between two interned ids (the fast path).

        Unknown ids (:data:`UNKNOWN_CLASS_ID`) are infinitely far from
        everything, matching the string API's behaviour for codes the
        graph has never seen.
        """
        if id_a < 0 or id_b < 0:
            return INFINITE_DISTANCE
        if id_a == id_b:
            return 0.0
        arrays = self._tree_arrays()
        if arrays is not None:
            return self._tree_distance(id_a, id_b, arrays)
        return self._row(id_a)[id_b]


@dataclass
class SteeringResult:
    """Outcome of Algorithm 1 for one match.

    ``winners`` are the candidate object ids at minimum distance (ties
    preserved — the linker applies priority/recency tie-breaks);
    ``distances`` records the distance computed for every candidate.
    """

    winners: tuple[int, ...]
    distances: dict[int, float] = field(default_factory=dict)

    @property
    def best_distance(self) -> float:
        if not self.winners:
            return INFINITE_DISTANCE
        return self.distances[self.winners[0]]


class ClassificationSteering:
    """Algorithm 1: pick the candidate targets closest in classification.

    Parameters
    ----------
    graph:
        Weighted classification graph (one scheme, or several bridged by
        ontology-mapping edges).

    A source or candidate without classes is charged
    :data:`INFINITE_DISTANCE`.  The paper leaves such objects
    undifferentiated; placing them beyond every real distance makes
    classified candidates always win over unclassified ones, while ties
    among unclassified candidates survive for downstream tie-breaking.
    """

    def __init__(self, graph: ClassificationGraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> ClassificationGraph:
        return self._graph

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    def signature(self, classes: Sequence[str]) -> tuple[int, ...]:
        """Interned class signature: sorted unique ids of ``classes``.

        Codes unknown to the graph intern to :data:`UNKNOWN_CLASS_ID`,
        so "no classes at all" (the empty signature) stays distinct from
        "classes the graph cannot place".
        """
        if not classes:
            return ()
        class_id = self._graph.class_id
        return tuple(sorted({class_id(code) for code in classes}))

    def signature_distance(
        self, source_signature: tuple[int, ...], target_signature: tuple[int, ...]
    ) -> float:
        """Alg. 1 min-distance between two class signatures."""
        if not source_signature or not target_signature:
            return INFINITE_DISTANCE
        best = INFINITE_DISTANCE
        distance_between_ids = self._graph.distance_between_ids
        for source_id in source_signature:
            for target_id in target_signature:
                candidate = distance_between_ids(source_id, target_id)
                if candidate < best:
                    if candidate == 0.0:
                        return 0.0
                    best = candidate
        return best

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def pair_distance(
        self, source_classes: Sequence[str], target_classes: Sequence[str]
    ) -> float:
        """Minimum distance over all source/target class pairs (Alg. 1, l.5)."""
        return self.signature_distance(
            self.signature(source_classes), self.signature(target_classes)
        )

    def steer(
        self,
        source_classes: Sequence[str],
        candidates: Mapping[int, Sequence[str]],
    ) -> SteeringResult:
        """Run Algorithm 1 over ``candidates`` (object id -> class list)."""
        source_signature = self.signature(source_classes)
        return self.steer_signatures(
            source_signature,
            {oid: self.signature(classes) for oid, classes in candidates.items()},
        )

    def steer_signatures(
        self,
        source_signature: tuple[int, ...],
        candidates: Mapping[int, tuple[int, ...]],
    ) -> SteeringResult:
        """Algorithm 1 over pre-interned signatures (the linker fast path)."""
        if not candidates:
            return SteeringResult(winners=(), distances={})
        signature_distance = self.signature_distance
        distances = {
            oid: signature_distance(source_signature, target_signature)
            for oid, target_signature in candidates.items()
        }
        best = min(distances.values())
        winners = tuple(sorted(oid for oid, d in distances.items() if d == best))
        return SteeringResult(winners=winners, distances=distances)


def brute_force_all_pairs(graph: ClassificationGraph) -> dict[str, dict[str, float]]:
    """Floyd–Warshall reference implementation for testing Johnson."""
    nodes = graph.nodes()
    dist: dict[str, dict[str, float]] = {
        a: {b: (0.0 if a == b else INFINITE_DISTANCE) for b in nodes} for a in nodes
    }
    for a in nodes:
        for b, weight in graph.neighbors(a).items():
            dist[a][b] = min(dist[a][b], weight)
    for k in nodes:
        row_k = dist[k]
        for i in nodes:
            via = dist[i][k]
            if via == INFINITE_DISTANCE:
                continue
            row_i = dist[i]
            for j in nodes:
                candidate = via + row_k[j]
                if candidate < row_i[j]:
                    row_i[j] = candidate
    return dist


def default_steering(
    scheme: ClassificationScheme,
    base_weight: float = DEFAULT_BASE_WEIGHT,
) -> ClassificationSteering:
    """Convenience constructor: weighted graph + steering for ``scheme``."""
    graph = ClassificationGraph.from_scheme(scheme, base_weight=base_weight)
    return ClassificationSteering(graph)
