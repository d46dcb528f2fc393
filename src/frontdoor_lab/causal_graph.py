"""Causal DAGs with explicit latent nodes and the graph queries of the pipeline.

A graph has one constructor, ``Dag(nodes, edges)``: ``nodes`` holds
``(name, kind)`` pairs with kind ``"observed"`` or ``"latent"``, and ``edges``
holds ``(parent, child)`` pairs of names.  It checks its input and raises
:class:`FrontdoorLabError` for an item that is not such a pair, a name that is
not a ``str``, an empty or repeated name, an unknown kind, an undeclared
endpoint, a duplicate edge or a directed cycle, which its message spells out.
A ``Dag`` is immutable once built.  Queries cover d-separation
(implemented as linear-time ball-bouncing reachability), the
missing-at-random check for a (value, indicator) node pair, and the
identifiability condition that forbids latent-touching paths between a
treatment and any of its children.

Graphs can be declared in a plain-text format, one declaration per line::

    # lines starting with '#' are comments
    node U latent
    node X observed
    edge U X

Two graph files ship with the package under ``graphs/``: the four-node
mediation structure with a latent confounder (``frontdoor_dag``) and its
study-design expansion with measurement copies, missingness indicators and
sampling indicators (``frontdoor_design_dag``).
"""

from __future__ import annotations

from collections import deque
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterable

from .errors import FrontdoorLabError, parse_file

_KINDS = ("observed", "latent")


def _is_pair(item) -> bool:
    return isinstance(item, (tuple, list)) and len(item) == 2


class Dag:
    """Directed acyclic graph over named nodes tagged observed or latent.

    ``Dag(nodes, edges)`` validates its input as the module docstring says.
    Instances are immutable and safe to query concurrently.
    """

    __slots__ = ("_parents", "_children", "_latent")

    def __init__(self, nodes: Iterable[tuple[str, str]], edges: Iterable[tuple[str, str]]):
        # dicts as ordered sets: the cycle search sees the edges in input
        # order, so the cycle a message names does not depend on hashing
        parents: dict[str, dict[str, None]] = {}
        latent = set()
        for node in nodes:
            if not _is_pair(node) or not isinstance(node[0], str):
                raise FrontdoorLabError(
                    f"node must be a (name, kind) pair with a str name, got {node!r}"
                )
            name, kind = node
            if not name:
                raise FrontdoorLabError("node names must be nonempty")
            if name in parents:
                raise FrontdoorLabError(f"node declared twice: {name!r}")
            if kind not in _KINDS:
                raise FrontdoorLabError(
                    f"node kind must be 'observed' or 'latent', got {kind!r} for {name!r}"
                )
            parents[name] = {}
            if kind == "latent":
                latent.add(name)

        children: dict[str, set[str]] = {name: set() for name in parents}
        for edge in edges:
            if not _is_pair(edge) or not all(isinstance(end, str) for end in edge):
                raise FrontdoorLabError(f"edge must be a pair of node names, got {edge!r}")
            parent, child = edge
            for end in edge:
                if end not in parents:
                    raise FrontdoorLabError(f"edge endpoint not declared: {end!r}")
            if parent in parents[child]:
                raise FrontdoorLabError(f"duplicate edge: {parent} -> {child}")
            parents[child][parent] = None
            children[parent].add(child)

        try:
            TopologicalSorter(parents).prepare()
        except CycleError as exc:
            # in edge direction, first == last
            raise FrontdoorLabError("cycle detected: " + " -> ".join(exc.args[1])) from None
        self._parents = {name: frozenset(ps) for name, ps in parents.items()}
        self._children = {name: frozenset(cs) for name, cs in children.items()}
        self._latent = frozenset(latent)

    @property
    def node_names(self) -> frozenset[str]:
        return frozenset(self._parents)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((p, c) for c, ps in self._parents.items() for p in ps)

    def is_latent(self, name: str) -> bool:
        self._require(name)
        return name in self._latent

    def parents(self, name: str) -> frozenset[str]:
        self._require(name)
        return self._parents[name]

    def children(self, name: str) -> frozenset[str]:
        self._require(name)
        return self._children[name]

    def _require(self, name: str) -> None:
        if name not in self._parents:
            raise FrontdoorLabError(f"unknown node: {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._parents == other._parents and self._latent == other._latent

    def __repr__(self) -> str:
        return f"Dag(nodes={sorted(self._parents)}, edges={sorted(self.edges)})"


# ------------------------------------------------------------- separation


def _as_name_set(g: Dag, nodes: Iterable[str], label: str) -> frozenset[str]:
    # a str is an iterable of its characters, not a set of names
    if isinstance(nodes, str):
        raise FrontdoorLabError(f"{label} must be a set of node names, got {nodes!r}")
    out = frozenset(nodes)
    for name in out:
        if name not in g.node_names:
            raise FrontdoorLabError(f"unknown node in {label}: {name!r}")
    return out


def d_separated(
    g: Dag,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``c``.

    Blocking follows the standard rules: a chain or fork is blocked when its
    middle node is in ``c``; a collider is blocked unless it or one of its
    descendants is in ``c``.  Computed by reachability over (node, direction)
    states rather than path enumeration, so each query is linear in the size
    of the graph.
    """
    set_a = _as_name_set(g, a, "first set")
    set_b = _as_name_set(g, b, "second set")
    set_c = _as_name_set(g, c, "conditioning set")
    if set_a & set_b or set_a & set_c or set_b & set_c:
        raise FrontdoorLabError("query sets must be pairwise disjoint")
    if not set_a or not set_b:
        return True
    reachable = _reachable(g, set_a, set_c)
    return not (reachable & set_b)


def _reachable(g: Dag, sources: frozenset[str], given: frozenset[str]) -> set[str]:
    """Nodes connected to ``sources`` by at least one active trail."""
    # Ancestral closure of the conditioning set: these nodes open colliders.
    anc = set(given)
    queue = deque(given)
    while queue:
        node = queue.popleft()
        for parent in g.parents(node):
            if parent not in anc:
                anc.add(parent)
                queue.append(parent)

    UP, DOWN = 0, 1  # UP: arrived from a child; DOWN: arrived from a parent
    visited: set[tuple[str, int]] = set()
    reached: set[str] = set()
    frontier = deque((s, UP) for s in sources)
    while frontier:
        node, direction = frontier.popleft()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in given:
            reached.add(node)
        if direction == UP and node not in given:
            for parent in g.parents(node):
                frontier.append((parent, UP))
            for child in g.children(node):
                frontier.append((child, DOWN))
        elif direction == DOWN:
            if node not in given:
                for child in g.children(node):
                    frontier.append((child, DOWN))
            if node in anc:  # collider at node is open
                for parent in g.parents(node):
                    frontier.append((parent, UP))
    return reached


def mar_holds(
    g: Dag,
    value_node: str,
    indicator_node: str,
    given: Iterable[str] = (),
) -> bool:
    """Certify the missing-at-random condition for one (value, indicator) pair.

    True iff the indicator is d-separated from the underlying value given the
    conditioning set, i.e. missingness is independent of the missing value.
    """
    return d_separated(g, {indicator_node}, {value_node}, given)


def bidirected_path_exists(g: Dag, a: str, b: str) -> bool:
    """True iff some path between ``a`` and ``b`` uses only latent-touching edges.

    An edge qualifies when at least one endpoint is a latent node; the path is
    read ignoring edge direction.  Both query nodes must be observed.
    """
    for name in (a, b):
        if g.is_latent(name):
            raise FrontdoorLabError(f"query node must be observed: {name!r}")
    return a != b and b in _latent_edge_reach(g, a)


def _latent_edge_reach(g: Dag, a: str) -> set[str]:
    """``a`` and every node joined to it by a path of latent-touching edges."""
    seen = {a}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        for neighbour in g.parents(node) | g.children(node):
            if neighbour not in seen and (g.is_latent(node) or g.is_latent(neighbour)):
                seen.add(neighbour)
                queue.append(neighbour)
    return seen


def frontdoor_identifiable(g: Dag, x: str) -> bool:
    """True iff no child of ``x`` is reachable from it through latent-touching edges.

    This is the child criterion for identifying the causal effect of ``x``
    by frontdoor-style adjustment; a node with no children passes vacuously.
    A latent child always fails it: the edge from ``x`` to that child touches
    a latent node, so the child is reached through that edge alone.
    """
    if g.is_latent(x):
        raise FrontdoorLabError(f"treatment node must be observed: {x!r}")
    return not g.children(x) & _latent_edge_reach(g, x)


# ------------------------------------------------------------- text format


def dag_from_text(text: str) -> Dag:
    """Parse the plain-text graph format (``node``/``edge`` declarations)."""
    nodes: list[tuple[str, str]] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "node" and len(parts) == 3 and parts[2] in _KINDS:
            nodes.append((parts[1], parts[2]))
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise FrontdoorLabError(f"line {lineno}: cannot parse {raw!r}")
    return Dag(nodes, edges)


def load_graph(path) -> Dag:
    """The graph in the file ``path``; an error names the file."""
    return parse_file(path, dag_from_text)


# ------------------------------------------------------------- built-ins

_GRAPHS = Path(__file__).parent / "graphs"


def frontdoor_dag() -> Dag:
    """Mediation structure with a latent confounder of treatment and outcome."""
    return load_graph(_GRAPHS / "frontdoor.graph")


def frontdoor_design_dag() -> Dag:
    """Study-design expansion of :func:`frontdoor_dag`.

    Underlying variables are latent; their recorded copies (``X*``, ``Z*``,
    ``Y*``), the missingness indicators (``M_X``, ``M_Z``) and the sampling
    indicators (``m_1``, ``m_Omega``) are observed.  Each indicator masks the
    recorded copy of its variable, and both missingness indicators are driven
    by the outcome.
    """
    return load_graph(_GRAPHS / "frontdoor_design.graph")
