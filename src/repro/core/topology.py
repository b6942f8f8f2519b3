"""Routing topologies: which node pairs may appear as consecutive hops.

The paper analyses rerouting over a clique — every node can forward to every
other node — and all closed forms in :mod:`repro.core.anonymity` and
:mod:`repro.combinatorics` assume exactly that.  Real deployments restrict
the next-hop relation: trust zones, partial meshes, partitioned networks with
a few bridge links.  :class:`Topology` captures that relation as an explicit
undirected graph over the ``N`` node identities, and the rest of the stack
(:class:`~repro.core.model.SystemModel`, the exhaustive analyzer, the
Bayesian inference engine, the batch ``topology`` engine) picks it up from
the model.

Semantics
---------
* A rerouting path ``sender -> i1 -> ... -> il`` must traverse edges of the
  topology: ``(sender, i1)`` and every ``(ik, ik+1)`` must be adjacent.  The
  final delivery to the receiver is *not* an edge — the receiver lives
  outside the node set, exactly as on the clique.
* Under the cycle-allowed path model every hop is drawn **uniformly over the
  neighbours of the current holder** (the row-normalised transition matrix),
  which reduces to the paper's "uniform over the other ``N - 1`` nodes" law
  on the clique.
* Under the simple path model a path of the drawn length is **uniform over
  all simple paths of that length from the sender**; lengths with no simple
  path for a given sender are redrawn, i.e. the length distribution is
  renormalised over the sender's feasible lengths.  On the clique every
  length up to ``N - 1`` is feasible for every sender and the law reduces to
  the uniform ordered arrangements of the paper.

Topologies are frozen, hashable, and picklable, so they ride on the frozen
:class:`~repro.core.model.SystemModel` through the sharded backend and the
service cache unchanged.  Every topology has a canonical ``spec`` string
(``"ring"``, ``"grid:2x3"``, ``"two-zone:3:3:1"``, ...) that round-trips via
:meth:`Topology.from_spec` — the form the service's
:class:`~repro.service.request.EstimateRequest` serialises.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import ClassVar

from repro.exceptions import ConfigurationError

__all__ = ["Topology", "TopologyPathLaw"]

#: Refuse to enumerate more than this many paths per (sender, length) pair;
#: the same guard rail as the exhaustive analyzer's.
_MAX_PATHS_PER_LENGTH = 2_000_000

#: Pairings :meth:`Topology.random_regular` draws by rejection, from the
#: generators seeded ``(seed, 0) .. (seed, 511)``; switch repair then draws
#: from ``(seed, 512) .. (seed, 1023)`` until one pairing can be repaired.
_PAIRING_ATTEMPTS = 512


def _validate_adjacency(adjacency: tuple[tuple[int, ...], ...]) -> None:
    n = len(adjacency)
    if n < 2:
        raise ConfigurationError(
            f"a topology needs at least 2 nodes, got {n}"
        )
    for row in adjacency:
        if len(row) != n:
            raise ConfigurationError(
                f"adjacency matrix must be square, got a row of length "
                f"{len(row)} in an {n}-node topology"
            )
    for i in range(n):
        if adjacency[i][i]:
            raise ConfigurationError(
                f"topology must have no self-loops, node {i} links to itself"
            )
        for j in range(n):
            if adjacency[i][j] not in (0, 1):
                raise ConfigurationError(
                    f"adjacency entries must be 0 or 1, got "
                    f"{adjacency[i][j]!r} at ({i}, {j})"
                )
            if adjacency[i][j] != adjacency[j][i]:
                raise ConfigurationError(
                    f"topology must be undirected, entries ({i}, {j}) and "
                    f"({j}, {i}) disagree"
                )
    for i in range(n):
        if not any(adjacency[i]):
            raise ConfigurationError(
                f"every node needs at least one neighbour, node {i} has none"
            )
    # Connectivity: a disconnected topology has senders that can never reach
    # parts of the system, and the renormalised path law is ill-defined.
    seen = {0}
    frontier = deque([0])
    while frontier:
        node = frontier.popleft()
        for other in range(n):
            if adjacency[node][other] and other not in seen:
                seen.add(other)
                frontier.append(other)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ConfigurationError(
            f"topology must be connected; nodes {missing} are unreachable from node 0"
        )


def _adjacency_spec(adjacency: tuple[tuple[int, ...], ...]) -> str:
    """Canonical ``adj:<hex>`` spec: upper-triangle bits, row-major, hex-packed."""
    n = len(adjacency)
    bits = [
        adjacency[i][j] for i in range(n) for j in range(i + 1, n)
    ]
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    width = (len(bits) + 3) // 4
    return f"adj:{value:0{width}x}" if bits else "adj:0"


def _adjacency_from_hex(digits: str, n_nodes: int) -> tuple[tuple[int, ...], ...]:
    n_bits = n_nodes * (n_nodes - 1) // 2
    try:
        value = int(digits, 16)
    except ValueError:
        raise ConfigurationError(
            f"invalid adjacency spec digits {digits!r}; expected hexadecimal"
        ) from None
    if value >= 1 << n_bits:
        raise ConfigurationError(
            f"adjacency spec {digits!r} encodes more than the "
            f"{n_bits} upper-triangle bits of an {n_nodes}-node topology"
        )
    matrix = [[0] * n_nodes for _ in range(n_nodes)]
    for index in range(n_bits):
        bit = (value >> (n_bits - 1 - index)) & 1
        if not bit:
            continue
        # Recover (i, j) from the row-major upper-triangle index.
        i, offset = 0, index
        row_len = n_nodes - 1
        while offset >= row_len:
            offset -= row_len
            i += 1
            row_len -= 1
        j = i + 1 + offset
        matrix[i][j] = matrix[j][i] = 1
    return tuple(tuple(row) for row in matrix)


def _reachable(
    n_nodes: int, edges: list[tuple[int, int]], start: int, skip: int = -1
) -> set[int]:
    """Nodes reachable from ``start`` over ``edges``, ignoring edge ``skip``."""
    neighbours: list[list[int]] = [[] for _ in range(n_nodes)]
    for index, (a, b) in enumerate(edges):
        if index != skip:
            neighbours[a].append(b)
            neighbours[b].append(a)
    seen = {start}
    frontier = [start]
    while frontier:
        for other in neighbours[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def _switch_repair(
    n_nodes: int, degree: int, seed: tuple[int, int]
) -> list[tuple[int, int]] | None:
    """Edges of a connected simple ``degree``-regular graph, by edge switching.

    Draws one pairing from the generator seeded with ``seed``, then removes
    its self-loops and repeated edges with switches: a bad pair ``(a, b)``
    and another pair ``(c, d)`` become ``(a, c), (b, d)`` when that creates
    no loop and no repeat.  Every node keeps its degree and each switch
    removes at least one bad pair, so the loop ends.  Components are then
    joined one at a time by switching an edge that lies on a cycle of the
    component holding node 0 with an edge of another component.  Partners
    come from the generator and everything else from a fixed order, so the
    edges are a pure function of the arguments.  Returns ``None`` when no
    switch applies (e.g. ``degree = 1`` on more than two nodes).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n_nodes), degree)
    rng.shuffle(stubs)
    edges = [
        (int(stubs[k]), int(stubs[k + 1])) for k in range(0, len(stubs), 2)
    ]

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    multiplicity = Counter(key(a, b) for a, b in edges)

    def switch(i: int) -> bool:
        a, b = edges[i]
        for j in rng.permutation(len(edges)).tolist():
            if j == i:
                continue
            for c, d in (edges[j], edges[j][::-1]):
                new_ac, new_bd = key(a, c), key(b, d)
                if (
                    a == c
                    or b == d
                    or new_ac == new_bd
                    or multiplicity[new_ac]
                    or multiplicity[new_bd]
                ):
                    continue
                multiplicity[key(a, b)] -= 1
                multiplicity[key(c, d)] -= 1
                multiplicity[new_ac] += 1
                multiplicity[new_bd] += 1
                edges[i], edges[j] = (a, c), (b, d)
                return True
        return False

    while True:
        bad = [
            i
            for i, (a, b) in enumerate(edges)
            if a == b or multiplicity[key(a, b)] > 1
        ]
        if not bad:
            break
        if not any(switch(i) for i in bad):
            return None

    while True:
        component = _reachable(n_nodes, edges, 0)
        if len(component) == n_nodes:
            return edges
        outside = min(set(range(n_nodes)) - component)
        cycle_edge = next(
            (
                i
                for i, (a, b) in enumerate(edges)
                if a in component and b in _reachable(n_nodes, edges, a, skip=i)
            ),
            None,
        )
        if cycle_edge is None:
            return None
        other = next(i for i, edge in enumerate(edges) if outside in edge)
        (a, b), (c, d) = edges[cycle_edge], edges[other]
        edges[cycle_edge], edges[other] = (a, c), (b, d)


@dataclass(frozen=True)
class Topology:
    """An undirected, connected next-hop graph over the ``N`` node identities.

    ``adjacency`` is a symmetric 0/1 matrix (tuple of tuples) with an empty
    diagonal; ``spec`` is the canonical string form that names the topology
    in requests, CLI options, and cache digests.  Use the named constructors
    (:meth:`clique`, :meth:`ring`, :meth:`star`, :meth:`grid`,
    :meth:`random_regular`, :meth:`two_zone`) or :meth:`from_spec` rather
    than building matrices by hand.
    """

    adjacency: tuple[tuple[int, ...], ...]
    spec: str = field(default="", compare=False)
    # Per-node data, set once by __post_init__.  Declared ClassVar so that
    # they are not dataclass fields: equality, hashing, repr and the spec
    # ignore them, and pickling still carries them in the instance dict.
    _neighbors: ClassVar[tuple[tuple[int, ...], ...]]
    _degrees: ClassVar[tuple[int, ...]]

    def __post_init__(self) -> None:
        adjacency = tuple(tuple(int(v) for v in row) for row in self.adjacency)
        object.__setattr__(self, "adjacency", adjacency)
        _validate_adjacency(adjacency)
        if not self.spec:
            object.__setattr__(self, "spec", _adjacency_spec(adjacency))
        neighbors = tuple(
            tuple(other for other, bit in enumerate(row) if bit) for row in adjacency
        )
        object.__setattr__(self, "_neighbors", neighbors)
        object.__setattr__(self, "_degrees", tuple(map(len, neighbors)))

    # ------------------------------------------------------------------ #
    # Named constructors                                                  #
    # ------------------------------------------------------------------ #

    @classmethod
    def clique(cls, n_nodes: int) -> "Topology":
        """The complete graph — the paper's (and the repo's default) setting."""
        adjacency = tuple(
            tuple(1 if i != j else 0 for j in range(n_nodes))
            for i in range(n_nodes)
        )
        return cls(adjacency, spec="clique")

    @classmethod
    def ring(cls, n_nodes: int) -> "Topology":
        """A cycle: node ``i`` links to ``i ± 1 (mod N)``."""
        if n_nodes < 3:
            raise ConfigurationError(f"a ring needs at least 3 nodes, got {n_nodes}")
        adjacency = [[0] * n_nodes for _ in range(n_nodes)]
        for i in range(n_nodes):
            j = (i + 1) % n_nodes
            adjacency[i][j] = adjacency[j][i] = 1
        return cls(tuple(tuple(row) for row in adjacency), spec="ring")

    @classmethod
    def star(cls, n_nodes: int) -> "Topology":
        """A hub-and-spoke graph: node ``0`` is the hub, all others are leaves."""
        if n_nodes < 3:
            raise ConfigurationError(f"a star needs at least 3 nodes, got {n_nodes}")
        adjacency = [[0] * n_nodes for _ in range(n_nodes)]
        for leaf in range(1, n_nodes):
            adjacency[0][leaf] = adjacency[leaf][0] = 1
        return cls(tuple(tuple(row) for row in adjacency), spec="star")

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        """A 4-neighbour ``rows x cols`` lattice; node ``r * cols + c``."""
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ConfigurationError(
                f"a grid needs at least 2 nodes, got {rows}x{cols}"
            )
        n = rows * cols
        adjacency = [[0] * n for _ in range(n)]
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    adjacency[node][node + 1] = adjacency[node + 1][node] = 1
                if r + 1 < rows:
                    adjacency[node][node + cols] = adjacency[node + cols][node] = 1
        return cls(
            tuple(tuple(row) for row in adjacency), spec=f"grid:{rows}x{cols}"
        )

    @classmethod
    def random_regular(cls, n_nodes: int, degree: int, seed: int = 0) -> "Topology":
        """A random ``degree``-regular graph, deterministic per ``seed``.

        Uses the configuration (pairing) model with rejection of self-loops,
        multi-edges, and disconnected outcomes.  A pairing is simple with
        probability about ``exp((1 - degree**2) / 4)``, so for ``degree >= 6``
        every one of the 512 attempts usually fails; further pairings are then
        repaired with degree-preserving edge switches (:func:`_switch_repair`,
        after Steger & Wormald, "Generating random regular graphs quickly",
        1999).  Specs the rejection loop realises keep their exact graph, and
        the construction depends only on ``(n_nodes, degree, seed)``, so the
        spec round-trips through the service digest.
        """
        import numpy as np

        if not 1 <= degree < n_nodes:
            raise ConfigurationError(
                f"a regular topology needs 1 <= degree < N, got degree={degree} "
                f"for N={n_nodes}"
            )
        if (n_nodes * degree) % 2:
            raise ConfigurationError(
                f"N * degree must be even for a {degree}-regular graph on "
                f"{n_nodes} nodes"
            )
        spec = f"regular:{degree}:{seed}"
        for attempt in range(_PAIRING_ATTEMPTS):
            rng = np.random.default_rng((seed, attempt))
            stubs = np.repeat(np.arange(n_nodes), degree)
            rng.shuffle(stubs)
            adjacency = [[0] * n_nodes for _ in range(n_nodes)]
            ok = True
            for k in range(0, len(stubs), 2):
                a, b = int(stubs[k]), int(stubs[k + 1])
                if a == b or adjacency[a][b]:
                    ok = False
                    break
                adjacency[a][b] = adjacency[b][a] = 1
            if not ok:
                continue
            try:
                return cls(tuple(tuple(row) for row in adjacency), spec=spec)
            except ConfigurationError:
                continue  # disconnected pairing; redraw
        for attempt in range(_PAIRING_ATTEMPTS, 2 * _PAIRING_ATTEMPTS):
            edges = _switch_repair(n_nodes, degree, (seed, attempt))
            if edges is None:
                continue  # no switch applies from this pairing; redraw
            adjacency = [[0] * n_nodes for _ in range(n_nodes)]
            for a, b in edges:
                adjacency[a][b] = adjacency[b][a] = 1
            return cls(tuple(tuple(row) for row in adjacency), spec=spec)
        raise ConfigurationError(
            f"could not realise a connected {degree}-regular topology on "
            f"{n_nodes} nodes from seed {seed}"
        )

    @classmethod
    def two_zone(cls, zone_a: int, zone_b: int, bridges: int = 1) -> "Topology":
        """Two internal cliques joined by ``bridges`` bridge edges.

        Nodes ``0 .. zone_a-1`` form one clique, ``zone_a .. zone_a+zone_b-1``
        the other; bridge ``k`` links node ``k`` to node ``zone_a + k``.  This
        is the "partitioned network" fixture: with ``bridges=1`` the two
        bridge endpoints are cut vertices, and every cross-zone path funnels
        through one edge.  ``bridges=0`` is rejected as disconnected.
        """
        if zone_a < 1 or zone_b < 1 or zone_a + zone_b < 2:
            raise ConfigurationError(
                f"two-zone topologies need non-empty zones, got {zone_a} and {zone_b}"
            )
        if bridges > min(zone_a, zone_b):
            raise ConfigurationError(
                f"cannot place {bridges} bridges between zones of "
                f"{zone_a} and {zone_b} nodes"
            )
        n = zone_a + zone_b
        adjacency = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(zone_a), 2):
            adjacency[i][j] = adjacency[j][i] = 1
        for i, j in itertools.combinations(range(zone_a, n), 2):
            adjacency[i][j] = adjacency[j][i] = 1
        for k in range(bridges):
            adjacency[k][zone_a + k] = adjacency[zone_a + k][k] = 1
        return cls(
            tuple(tuple(row) for row in adjacency),
            spec=f"two-zone:{zone_a}:{zone_b}:{bridges}",
        )

    @classmethod
    def from_spec(cls, spec: str, n_nodes: int) -> "Topology":
        """Parse a canonical spec string for a system of ``n_nodes`` nodes.

        Accepted forms: ``clique``, ``ring``, ``star``, ``grid:RxC``,
        ``regular:<degree>:<seed>``, ``two-zone:<a>:<b>:<bridges>``, and the
        generic ``adj:<hex>`` upper-triangle encoding produced by
        :attr:`spec` for hand-built matrices.
        """
        spec = str(spec).strip().lower()
        if not spec:
            raise ConfigurationError("topology spec must be a non-empty string")
        head, _, rest = spec.partition(":")

        def _ints(text: str, count: int, what: str) -> list[int]:
            parts = text.replace("x", ":").split(":") if text else []
            if len(parts) != count or not all(
                p.lstrip("-").isdigit() for p in parts
            ):
                raise ConfigurationError(
                    f"invalid {what} spec {spec!r}; expected "
                    f"{what}:{':'.join(['<int>'] * count)}"
                )
            return [int(p) for p in parts]

        if head == "clique":
            topology = cls.clique(n_nodes)
        elif head == "ring":
            topology = cls.ring(n_nodes)
        elif head == "star":
            topology = cls.star(n_nodes)
        elif head == "grid":
            rows, cols = _ints(rest, 2, "grid")
            topology = cls.grid(rows, cols)
        elif head == "regular":
            degree, seed = _ints(rest, 2, "regular")
            topology = cls.random_regular(n_nodes, degree, seed)
        elif head == "two-zone":
            zone_a, zone_b, bridges = _ints(rest, 3, "two-zone")
            topology = cls.two_zone(zone_a, zone_b, bridges)
        elif head == "adj":
            topology = cls(_adjacency_from_hex(rest, n_nodes))
        else:
            raise ConfigurationError(
                f"unknown topology spec {spec!r}; expected clique, ring, star, "
                "grid:RxC, regular:<degree>:<seed>, two-zone:<a>:<b>:<bridges>, "
                "or adj:<hex>"
            )
        if topology.n_nodes != n_nodes:
            raise ConfigurationError(
                f"topology spec {spec!r} describes {topology.n_nodes} nodes "
                f"but the system has n_nodes={n_nodes}"
            )
        return topology

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the topology."""
        return len(self.adjacency)

    @property
    def is_clique(self) -> bool:
        """True when every node pair is adjacent (the paper's setting)."""
        n = self.n_nodes
        return all(
            self.adjacency[i][j] for i in range(n) for j in range(n) if i != j
        )

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return sum(sum(row) for row in self.adjacency) // 2

    def degree(self, node: int) -> int:
        """Number of neighbours of ``node``; O(1), counted at construction."""
        return self._degrees[node]

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Neighbours of ``node``, in ascending identity order.

        O(1): the tuples are built once, at construction.
        """
        return self._neighbors[node]

    def are_connected(self, source: int, destination: int) -> bool:
        """True when ``source`` and ``destination`` share an edge (one hop).

        An O(1) adjacency lookup; an identity outside ``0 .. N-1`` raises
        :class:`ConfigurationError`.
        """
        n = self.n_nodes
        for node in (source, destination):
            if not 0 <= node < n:
                raise ConfigurationError(
                    f"node {node} is outside the valid range [0, {n})"
                )
        return bool(self.adjacency[source][destination])

    def validate_path(self, sender: int, path: Sequence[int]) -> bool:
        """True when every hop of ``sender -> path[0] -> ...`` is an edge."""
        previous = sender
        for node in path:
            if not self.are_connected(previous, node):
                return False
            previous = node
        return True

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every undirected edge as an ``(i, j)`` pair with ``i < j``."""
        n = self.n_nodes
        for i in range(n):
            for j in range(i + 1, n):
                if self.adjacency[i][j]:
                    yield (i, j)

    def transition_matrix(self) -> tuple[tuple[float, ...], ...]:
        """Row-normalised next-hop law: ``1 / degree(i)`` on each edge.

        This is the matrix the cycle-allowed samplers draw hops from and
        whose powers the graph-general walk counts in
        :mod:`repro.combinatorics.walks` take.
        """
        return tuple(
            tuple(
                bit / self.degree(i) for bit in row
            )
            for i, row in enumerate(self.adjacency)
        )

    def without_edge(self, i: int, j: int) -> "Topology":
        """Copy of the topology with the edge ``(i, j)`` removed.

        Raises :class:`ConfigurationError` when the edge does not exist or
        its removal disconnects the graph (validation re-runs on the copy).
        Used by the edge-removal monotonicity experiments and tests.
        """
        if i == j or not self.adjacency[i][j]:
            raise ConfigurationError(
                f"topology has no edge ({i}, {j}) to remove"
            )
        matrix = [list(row) for row in self.adjacency]
        matrix[i][j] = matrix[j][i] = 0
        return Topology(tuple(tuple(row) for row in matrix))

    def describe(self) -> str:
        """Readable one-liner used in reports and error messages."""
        return (
            f"{self.spec} ({self.n_nodes} nodes, {self.n_edges} edges)"
        )

    # ------------------------------------------------------------------ #
    # Path enumeration                                                    #
    # ------------------------------------------------------------------ #

    def simple_paths(
        self, start: int, length: int, max_paths: int = _MAX_PATHS_PER_LENGTH
    ) -> tuple[tuple[int, ...], ...]:
        """Every simple path of exactly ``length`` intermediates from ``start``.

        Paths are tuples of intermediate node identities (``start`` itself is
        excluded, matching the repo-wide path convention); the order is the
        deterministic DFS order over ascending neighbour identities.  Raises
        when more than ``max_paths`` paths exist.
        """
        if length == 0:
            return ((),)
        neighbors = self._neighbors
        paths: list[tuple[int, ...]] = []
        visited = [False] * self.n_nodes
        visited[start] = True
        prefix: list[int] = []
        last = length - 1

        def extend(current: int) -> None:
            complete = len(prefix) == last
            for node in neighbors[current]:
                if visited[node]:
                    continue
                if complete:
                    paths.append((*prefix, node))
                    if len(paths) > max_paths:
                        raise ConfigurationError(
                            f"more than {max_paths} simple paths of length {length} "
                            f"from node {start} on topology {self.spec}; reduce the "
                            "system size or path length"
                        )
                    continue
                visited[node] = True
                prefix.append(node)
                extend(node)
                prefix.pop()
                visited[node] = False

        extend(start)
        return tuple(paths)

    def walks(
        self, start: int, length: int, max_paths: int = _MAX_PATHS_PER_LENGTH
    ) -> Iterator[tuple[int, ...]]:
        """Every ``length``-hop walk from ``start`` (cycle-allowed paths).

        Yields tuples of intermediate identities in deterministic DFS order;
        revisits (including of ``start``) are allowed, consecutive nodes must
        be adjacent.  Raises after ``max_paths`` walks.
        """
        if length == 0:
            yield ()
            return
        neighbors = self._neighbors
        count = 0
        prefix: list[int] = []
        last = length - 1

        def extend(current: int) -> Iterator[tuple[int, ...]]:
            nonlocal count
            complete = len(prefix) == last
            for node in neighbors[current]:
                if complete:
                    count += 1
                    if count > max_paths:
                        raise ConfigurationError(
                            f"more than {max_paths} walks of length {length} from "
                            f"node {start} on topology {self.spec}; reduce the "
                            "system size or path length"
                        )
                    yield (*prefix, node)
                    continue
                prefix.append(node)
                yield from extend(node)
                prefix.pop()

        yield from extend(start)


class TopologyPathLaw:
    """The exact path-selection law of one topology-routed strategy.

    Binds a :class:`Topology`, a path model (``allow_cycles``), and a
    path-length pmf, and exposes — per sender — the complete list of
    ``(length, path, probability)`` outcomes.  Probabilities sum to one for
    every sender:

    * cycle-allowed: a walk of length ``l`` has probability
      ``P(l) * prod(1 / degree(hop holder))`` — the row-normalised
      transition-matrix law, which always realises every length;
    * simple: a path of length ``l`` has probability
      ``(P(l) / Z_sender) / #paths(sender, l)`` where ``Z_sender`` sums
      ``P(l)`` over the sender's *feasible* lengths (those with at least one
      simple path) — the redraw-on-infeasible-length law.

    This single object defines the law for every consumer — the exhaustive
    analyzer, the Bayesian inference engine, the batch ``topology`` engine,
    and the event-engine selectors — so they can never disagree.
    """

    def __init__(
        self,
        topology: Topology,
        allow_cycles: bool,
        length_probs: Mapping[int, float],
        max_paths: int = _MAX_PATHS_PER_LENGTH,
    ) -> None:
        self._topology = topology
        self._allow_cycles = bool(allow_cycles)
        self._length_probs = {
            int(length): float(prob)
            for length, prob in sorted(length_probs.items())
            if prob > 0.0
        }
        if not self._length_probs:
            raise ConfigurationError(
                "the path law needs a non-empty length distribution"
            )
        if min(self._length_probs) < 0:
            raise ConfigurationError("path lengths must be >= 0")
        self._max_paths = int(max_paths)
        self._entries: dict[int, tuple[tuple[int, tuple[int, ...], float], ...]] = {}
        self._path_sets: dict[int, dict[int, tuple[tuple[int, ...], ...]]] = {}

    @property
    def topology(self) -> Topology:
        """The topology the law walks on."""
        return self._topology

    @property
    def allow_cycles(self) -> bool:
        """Whether the law enumerates walks (True) or simple paths (False)."""
        return self._allow_cycles

    def feasible_lengths(self, sender: int) -> dict[int, float]:
        """The sender's renormalised length pmf (identical to the input for walks)."""
        if self._allow_cycles:
            return dict(self._length_probs)
        path_sets = self._simple_path_sets(sender)
        feasible = {
            length: prob
            for length, prob in self._length_probs.items()
            if path_sets[length]
        }
        total = sum(feasible.values())
        if total <= 0.0:
            raise ConfigurationError(
                f"no feasible path length for sender {sender} on topology "
                f"{self._topology.spec}; every supported length has zero simple paths"
            )
        return {length: prob / total for length, prob in feasible.items()}

    def entries(self, sender: int) -> tuple[tuple[int, tuple[int, ...], float], ...]:
        """Every ``(length, path, probability)`` outcome for ``sender``.

        The order is deterministic (ascending length, DFS path order) and the
        probabilities sum to one; cached per sender.  Simple-path outcomes
        hold the very tuples :meth:`feasible_lengths` enumerated.
        """
        cached = self._entries.get(sender)
        if cached is not None:
            return cached
        topology = self._topology
        out: list[tuple[int, tuple[int, ...], float]] = []
        if self._allow_cycles:
            for length, prob in self._length_probs.items():
                for walk in topology.walks(sender, length, self._max_paths):
                    out.append(
                        (length, walk, self._walk_probability(sender, walk, prob))
                    )
        else:
            path_sets = self._simple_path_sets(sender)
            for length, prob in self.feasible_lengths(sender).items():
                paths = path_sets[length]
                share = prob / len(paths)
                out.extend((length, path, share) for path in paths)
        entries = tuple(out)
        self._entries[sender] = entries
        return entries

    def _walk_probability(
        self, sender: int, walk: tuple[int, ...], length_prob: float
    ) -> float:
        weight = length_prob
        current = sender
        for node in walk:
            weight /= self._topology.degree(current)
            current = node
        return weight

    def _simple_path_sets(self, sender: int) -> dict[int, tuple[tuple[int, ...], ...]]:
        """The sender's simple paths per supported length, enumerated once."""
        path_sets = self._path_sets.get(sender)
        if path_sets is None:
            path_sets = {
                length: self._topology.simple_paths(sender, length, self._max_paths)
                for length in self._length_probs
            }
            self._path_sets[sender] = path_sets
        return path_sets
