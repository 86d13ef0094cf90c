"""Weighted graphs and the spectral quantities behind gossip rates.

The Laplacian uses the edge activation probabilities as weights, so its
second-smallest eigenvalue mu_gossip is the decay rate of naive randomized
gossip.  Effective resistances come from the Moore-Penrose pseudo-inverse
(the Laplacian is singular on constants; the pseudo-inverse restricted to
mean-zero vectors is the standard electrical-network reading), and their
maximum R_max plays the statistical condition number of the edge-sampling
least-squares objective.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from numbers import Rational, Real

import numpy as np

from .problems import _EIG_REL_TOL, WeightedDraw, normalized_weights, parse_choice, parse_int
from .records import Record

Array = np.ndarray


class GraphError(ValueError):
    """Invalid graph description; ``violations`` lists each fault, which
    the message joins by "; "."""

    def __init__(self, *violations: str):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class DisconnectedGraphError(GraphError):
    """The graph does not connect all nodes."""


class Graph(Record):
    """Connected undirected graph with a probability weight per edge.

    Graphs compare and hash by value (``records``): nodes, edges and edge
    weights; the derived ``edge_draw``, which draws an edge with its
    probability, and ``spectrum`` take no part.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    edge_probs: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_draw", WeightedDraw(self.edge_probs))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def spectrum(self) -> "SpectralCache":
        """The graph's ``spectral`` quantities, decomposed on first read;
        the graph is immutable, so they never go stale."""
        return spectral(self)


def _validate(node_count: int, edges, probs=None) -> Graph:
    """The graph of ``edges`` with weights ``probs`` (default uniform),
    normalized; one GraphError names every self-loop, edge outside the node
    range, duplicate edge and bad weight, and a graph of fewer than 2 nodes
    without such faults is refused."""
    normalized = [(min(v, w), max(v, w)) for v, w in edges]
    faults, seen = [], set()
    for (v, w), e in zip(edges, normalized):
        if v == w:
            faults.append(f"self-loop at node {v}")
        elif not (0 <= e[0] and e[1] < node_count):
            faults.append(f"edge ({v}, {w}) leaves the node range")
        elif e in seen:
            faults.append(f"duplicate edge {e}")
        seen.add(e)
    if node_count < 2 and not faults:
        raise GraphError("graphs need at least 2 nodes")
    probs = np.full(len(edges), 1.0 / len(edges)) if probs is None else \
        np.asarray(probs, dtype=float)
    if probs.shape != (len(edges),):
        raise GraphError("need exactly one weight per edge")
    bad = [normalized[i] for i in np.flatnonzero(~(np.isfinite(probs) & (probs > 0)))]
    if bad:
        faults.append(f"edge weights must be finite and > 0; edges {bad} are not")
    if faults:
        raise GraphError(*faults)
    probs = normalized_weights(probs)
    bad = [normalized[i] for i in np.flatnonzero(probs == 0)]
    if bad:
        raise GraphError(f"edge weights underflow to probability 0 beside the others: edges {bad}")

    # Connectivity, by one stack walk over the nodes the edges name: its
    # work is bounded by the edge count, however large a node index is.
    adjacency: dict[int, list[int]] = {}
    for v, w in normalized:
        adjacency.setdefault(v, []).append(w)
        adjacency.setdefault(w, []).append(v)
    seen_nodes, stack = {0}, [0]
    while stack:
        for w in adjacency.get(stack.pop(), ()):
            if w not in seen_nodes:
                seen_nodes.add(w)
                stack.append(w)
    if len(seen_nodes) != node_count:
        missing = islice((v for v in range(node_count) if v not in seen_nodes), 8)
        raise DisconnectedGraphError(
            f"graph is disconnected; unreachable nodes {list(missing)}"
        )
    return Graph(node_count=node_count, edges=tuple(normalized), edge_probs=probs)


def line_graph(m: int) -> Graph:
    """Path on m nodes, uniform edge probabilities."""
    return _validate(m, [(i, i + 1) for i in range(m - 1)])


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise GraphError("cycles need at least 3 nodes")
    return _validate(m, [(i, (i + 1) % m) for i in range(m)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols 2-D grid, uniform edge probabilities."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError("grid needs at least 2 nodes")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return _validate(rows * cols, edges)


def complete_graph(m: int) -> Graph:
    return _validate(m, [(v, w) for v in range(m) for w in range(v + 1, m)])


def _whole(index) -> bool:
    """Whether ``index`` is a whole real number.  An integer or a fraction is
    tested exactly: as a float, 10**400 would overflow."""
    if isinstance(index, Rational):
        return index.denominator == 1
    return isinstance(index, Real) and float(index).is_integer()


def edge_list_graph(edges, weights=None) -> Graph:
    """Graph on nodes 0..max index from explicit edges; weights (default
    uniform) are normalized.  An empty list is refused, and one GraphError
    names every edge with a node index that is neither an integer nor a
    whole real number (text and None among them)."""
    if len(edges) == 0:
        raise GraphError("empty edge list")
    faults = [f"edge ({v}, {w}) has a node index that is not an integer" for v, w in edges
              if not (_whole(v) and _whole(w))]
    if faults:
        raise GraphError(*faults)
    edges = [(int(v), int(w)) for v, w in edges]
    return _validate(1 + max(max(v, w) for v, w in edges), edges, weights)


def parse_edge_lines(text: str) -> Graph:
    """Parse an explicit weighted edge list, one ``v w p`` triple per line;
    one GraphError names every line that is not one."""
    edges, weights, faults = [], [], []
    for line in text.strip().splitlines():
        try:
            v, w, p = line.split()
            edges.append((int(v), int(w)))
            weights.append(float(p))
        except ValueError:
            faults.append(f"expected 'v w p', got {line!r}")
    if faults:
        raise GraphError(*faults)
    return edge_list_graph(edges, np.array(weights))


# Each topology: its builder, the [graph] fields it reads (its arguments, in
# order) and the least value of its size fields, or None when its one field
# is the text of an edge list.
TOPOLOGIES = {
    "line": (line_graph, ("nodes",), 2),
    "cycle": (cycle_graph, ("nodes",), 3),
    "grid": (grid_graph, ("rows", "cols"), 1),
    "complete": (complete_graph, ("nodes",), 2),
    "edge_list": (parse_edge_lines, ("edges",), None),
}
TOPOLOGY_FIELDS = {name: keys for name, (_, keys, _) in TOPOLOGIES.items()}


def build_graph(topology: str, **kwargs) -> Graph:
    """Dispatch on a topology keyword (harness entry point); fields other
    than the topology's own are ignored.  Before anything is built, one
    GraphError names every size field that ``parse_int`` refuses."""
    try:
        build, keys, least = TOPOLOGIES[parse_choice(topology, TOPOLOGIES, "topology")]
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    missing = [key for key in keys if key not in kwargs]
    if missing:
        raise GraphError(f"topology {topology} needs " + " and ".join(map(repr, missing)))
    if least is None:
        return build(*(kwargs[key] for key in keys))
    sizes, faults = [], []
    for key in keys:
        try:
            sizes.append(parse_int(kwargs[key], least))
        except ValueError as exc:
            faults.append(f"{key} {exc}")
    if faults:
        raise GraphError(*faults)
    return build(*sizes)


class SpectralCache(Record):
    """What the engines read of the Laplacian, computed once per graph: the
    gossip gap, the effective resistance of each edge and their maximum."""

    mu_gossip: float
    r_eff: Array
    r_max: float


def laplacian_matrix(graph: Graph) -> Array:
    lap = np.zeros((graph.node_count, graph.node_count))
    for (v, w), p in zip(graph.edges, graph.edge_probs):
        lap[v, v] += p
        lap[w, w] += p
        lap[v, w] -= p
        lap[w, v] -= p
    return lap


def spectral(graph: Graph) -> SpectralCache:
    """Eigendecompose the Laplacian and keep the quantities gossip reads;
    the Laplacian and its pseudo-inverse are not kept."""
    lap = laplacian_matrix(graph)
    eigvals, q = np.linalg.eigh(lap)
    top = float(eigvals[-1])
    if eigvals[1] <= _EIG_REL_TOL * top:
        weak = [e for e, p in zip(graph.edges, graph.edge_probs) if p <= _EIG_REL_TOL * top]
        named = f"; edges {weak} have probability <= {_EIG_REL_TOL:g} x its largest eigenvalue"
        raise DisconnectedGraphError(
            "Laplacian has a repeated zero eigenvalue" + (named if weak else "")
        )
    mu_gossip = float(eigvals[1])
    basis = q[:, 1:]
    pinv = (basis / eigvals[1:]) @ basis.T
    r_eff = np.array(
        [pinv[v, v] + pinv[w, w] - 2.0 * pinv[v, w] for v, w in graph.edges]
    )
    return SpectralCache(
        mu_gossip=mu_gossip,
        r_eff=r_eff,
        r_max=float(r_eff.max()),
    )
