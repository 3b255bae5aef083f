"""Graph representation, partitions, block sufficient statistics, and file I/O.

Conventions
-----------
Graphs are undirected weighted multigraphs with nonnegative integer edge
weights (edge counts).  A self-loop of weight w contributes 2w to the degree
of its node and w to the total edge weight m, i.e. the adjacency diagonal
stores A_ii = 2w.  With this bookkeeping the identities

    sum_i k_i = 2m,    sum_rs m_rs = 2m,    kappa_r = sum_s m_rs

hold exactly in integer arithmetic.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

__all__ = [
    "Graph",
    "Partition",
    "BlockStats",
    "GraphFormatError",
    "EmptyBlockMoveError",
    "parse_edge_list",
    "load_edge_list",
    "write_edge_list",
    "read_labels",
    "write_labels",
    "block_stats",
    "apply_relocation",
    "edges_into_blocks",
]


class GraphFormatError(ValueError):
    """Malformed edge-list or label input."""


class EmptyBlockMoveError(ValueError):
    """A relocation would leave its source block empty."""


def _count(name: str, value, low: int = 1) -> int:
    """``value`` as an int >= low, else ValueError naming the field."""
    try:
        if isinstance(value, bool):  # an int, but never a count
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


class Graph:
    """Immutable weighted undirected multigraph with cached degree statistics.

    Parameters
    ----------
    n : int
        Number of nodes; node ids are 0..n-1.
    edges : iterable of (u, v, w)
        Edge multiset.  Entries are canonicalized to u <= v and repeated
        (u, v) pairs are merged by summing weights.  Weights must be
        nonnegative integers; zero-weight entries are dropped.  File and
        user edge lists always take these checks; only the program's own
        sampler skips them (``_from_canonical``).

    Attributes
    ----------
    edges : tuple of (u, v, w)
        Canonical sorted edge list, all weights >= 1.
    degree : tuple of int
        Weighted degrees k_i (self-loops count twice).
    total_weight : int
        m = (1/2) sum_i k_i.
    adjacency : tuple of tuple of (j, A_ij)
        Off-diagonal adjacency row of each node.
    self_weight : tuple of int
        Diagonal adjacency A_ii (twice the self-loop weight).
    """

    __slots__ = ("n", "edges", "degree", "total_weight", "adjacency",
                 "self_weight")

    def __init__(self, n: int, edges) -> None:
        try:
            n = operator.index(n)
        except TypeError:
            raise GraphFormatError(f"non-integer node count {n!r}") from None
        if n < 0:
            raise GraphFormatError(f"negative node count {n}")
        acc: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            try:
                u, v, w = operator.index(u), operator.index(v), operator.index(w)
            except TypeError:
                raise GraphFormatError(
                    f"non-integer edge entry ({u!r}, {v!r}, {w!r})") from None
            if u < 0 or v < 0:
                raise GraphFormatError(f"negative node id in edge ({u}, {v})")
            if u >= n or v >= n:
                raise GraphFormatError(f"node id {max(u, v)} out of range for n={n}")
            if w < 0:
                raise GraphFormatError(f"negative weight {w} on edge ({u}, {v})")
            key = (u, v) if u <= v else (v, u)
            acc[key] = acc.get(key, 0) + w

        canon = tuple(sorted((u, v, w) for (u, v), w in acc.items() if w > 0))
        del acc
        self._derive(n, canon)

    @classmethod
    def _from_canonical(cls, n: int, edges: tuple) -> "Graph":
        """The graph of ``edges``, which must be canonical (a sorted tuple of
        distinct (u, v, w), 0 <= u <= v < n, w >= 1, all Python ints), built
        without the checks: only for the program's own sampler, whose edges
        cannot fail them.  File and user edge lists go through ``Graph``."""
        graph = cls.__new__(cls)
        graph._derive(n, edges)
        return graph

    def _derive(self, n: int, canon: tuple) -> None:
        degree = [0] * n
        self_weight = [0] * n
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, w in canon:
            degree[u] += w
            degree[v] += w
            if u == v:
                self_weight[u] = 2 * w
            else:
                adj[u].append((v, w))
                adj[v].append((u, w))

        self.n = n
        self.edges = canon
        self.degree = tuple(degree)
        self.total_weight = sum(degree) // 2
        self.adjacency = tuple(map(tuple, adj))
        self.self_weight = tuple(self_weight)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)}, m={self.total_weight})"


@dataclass
class Partition:
    """Assignment of each node to one of k blocks.

    Blocks are labelled 0..k-1.  Empty blocks are representable (generators
    may produce them); the local search is what keeps its own partitions
    surjective.
    """

    k: int
    assign: list[int]

    def __post_init__(self) -> None:
        self.k = _count("k", self.k)
        for b in self.assign:
            try:
                b = operator.index(b)
            except TypeError:
                raise ValueError(f"non-integer block id {b!r}") from None
            if not 0 <= b < self.k:
                raise ValueError(f"block id {b} out of range [0, {self.k})")

    @property
    def n(self) -> int:
        return len(self.assign)

    def block_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for b in self.assign:
            sizes[b] += 1
        return sizes

    def copy(self) -> "Partition":
        return Partition(self.k, list(self.assign))


@dataclass
class BlockStats:
    """Sufficient statistics of a (graph, partition) pair.

    m_block[r][s] is the edge count between blocks r and s in the
    double-counting convention (m_rr twice the internal weight), kappa[r]
    the degree sum of block r, and two_m = 2m.  All integers, so relocation
    updates are exact.
    """

    k: int
    m_block: list[list[int]]
    kappa: list[int]
    two_m: int

    def copy(self) -> "BlockStats":
        return BlockStats(self.k, [row[:] for row in self.m_block],
                          list(self.kappa), self.two_m)


def parse_edge_list(text, *, index_base: int = 0) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Each non-comment line is "u v" or "u v w" with integer ids and an
    optional nonnegative integer weight (default 1).  Lines starting with
    '#' are comments.  A directive line "n <count>" declares the node count,
    which allows trailing isolated nodes; ``Graph`` rejects ids at or beyond
    it.  Repeated (u, v) lines accumulate weight.

    Parameters
    ----------
    text : str or bytes
        Edge-list content.
    index_base : int, keyword-only
        0 for 0-based ids (default) or 1 for 1-based input files.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if index_base not in (0, 1):
        raise ValueError(f"index_base must be 0 or 1, got {index_base}")

    declared = None
    entries: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0].lower() == "n":
            if len(tokens) != 2:
                raise GraphFormatError(f"line {lineno}: malformed node-count directive {line!r}")
            try:
                declared_here = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed node count {tokens[1]!r}") from None
            if declared is None:
                declared = declared_here
            elif declared != declared_here:
                raise GraphFormatError(
                    f"line {lineno}: node count {declared_here} conflicts with {declared}")
            continue
        if len(tokens) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 'u v [w]', got {line!r}")
        try:
            u = int(tokens[0])
            v = int(tokens[1])
            w = int(tokens[2]) if len(tokens) == 3 else 1
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed integer token in {line!r}") from None
        entries.append((u - index_base, v - index_base, w))

    n = declared if declared is not None else max(
        [0] + [max(u, v) + 1 for u, v, _ in entries])
    return Graph(n, entries)


def load_edge_list(path, *, index_base: int = 0) -> Graph:
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read(), index_base=index_base)


def _write_text(path, text: str) -> None:
    """Write text as UTF-8, newlines untranslated: every artifact goes here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json(value) -> str:
    """The artifact JSON layout: sorted keys, two-space indent, final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def write_edge_list(graph: Graph, path) -> None:
    """Write a graph in the edge-list format (with an explicit n directive)."""
    _write_text(path, f"n {graph.n}\n"
                + "".join(f"{u} {v} {w}\n" for u, v, w in graph.edges))


def read_labels(path) -> list[int]:
    """Read a label file: one block id per line, the i-th label line (blank
    and '#' lines skipped) holding the block of node i."""
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed label {line!r}") from None
    return labels


def write_labels(labels, path) -> None:
    _write_text(path, "".join(f"{int(b)}\n" for b in labels))


def block_stats(graph: Graph, partition: Partition) -> BlockStats:
    """Compute the block sufficient statistics (m_rs, kappa_r) exactly."""
    if partition.n != graph.n:
        raise ValueError(f"partition covers {partition.n} nodes, graph has {graph.n}")
    k = partition.k
    assign = partition.assign
    m = [[0] * k for _ in range(k)]
    for u, v, w in graph.edges:
        r, s = assign[u], assign[v]
        m[r][s] += w
        m[s][r] += w
    return BlockStats(k, m, [sum(row) for row in m], 2 * graph.total_weight)


def edges_into_blocks(graph: Graph, partition: Partition, i: int) -> list[int]:
    """d_ir = sum_{j != i} A_ij z_jr, the edge weight from i into each block."""
    d = [0] * partition.k
    assign = partition.assign
    for j, w in graph.adjacency[i]:
        d[assign[j]] += w
    return d


def _check_move(graph: Graph, partition: Partition, i: int, b: int) -> int:
    """Source block of node i, after checking that moving i to b is legal.

    Raises ValueError if the partition does not cover the graph or i is not
    a node (checked first), if b is i's block or out of range, and
    EmptyBlockMoveError if the move would leave the source block empty.
    """
    if partition.n != graph.n:
        raise ValueError(f"partition covers {partition.n} nodes, graph has {graph.n}")
    if not 0 <= i < graph.n:
        raise ValueError(f"node id {i} out of range [0, {graph.n})")
    a = partition.assign[i]
    if b == a:
        raise ValueError(f"node {i} already in block {b}")
    if not 0 <= b < partition.k:
        raise ValueError(f"block id {b} out of range [0, {partition.k})")
    if partition.assign.count(a) == 1:
        raise EmptyBlockMoveError(f"moving node {i} would empty block {a}")
    return a


def _relocate_stats(stats: BlockStats, d: list[int], k_i: int, self_a: int,
                    a: int, b: int) -> None:
    """Apply the move of a node (degree k_i, diagonal A_ii = self_a, block
    edge profile d) from block a to block b, in place.  O(K).  With m_rr
    counted twice, rows a and b need no update of their own."""
    m = stats.m_block
    for r in range(stats.k):
        dr = d[r]
        if dr:
            m[a][r] -= dr
            m[r][a] -= dr
            m[b][r] += dr
            m[r][b] += dr
    m[a][a] -= self_a
    m[b][b] += self_a
    stats.kappa[a] -= k_i
    stats.kappa[b] += k_i


def apply_relocation(stats: BlockStats, graph: Graph, partition: Partition,
                     i: int, b: int) -> BlockStats:
    """Stats after relocating node i to block b, without rebuilding them.

    The returned statistics equal ``block_stats`` recomputed on the modified
    partition, bit-exactly, and cost O(K + deg(i)).  ``partition`` is the
    pre-move assignment and is not modified.

    Raises
    ------
    EmptyBlockMoveError
        If the move would leave block ``partition.assign[i]`` empty.
    ValueError
        If i or b is out of range, b is i's block, or the partition's length
        is not the graph's node count.
    """
    a = _check_move(graph, partition, i, b)
    out = stats.copy()
    d = edges_into_blocks(graph, partition, i)
    _relocate_stats(out, d, graph.degree[i], graph.self_weight[i], a, b)
    return out
