"""Directed acyclic graphs, equivalence classes and constraint masks.

A DAG on p nodes is stored as a frozenset of (tail, head) arcs over integer
node ids 0..p-1.  The completed partially directed version (CPDAG) keeps the
arcs every covariance-equivalent DAG shares and leaves the rest undirected.
A ConstraintMask records arcs that background knowledge forbids; conversion
and enumeration both honour it.  Nodes are positional: their names travel
with the data and the outputs, not with the graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import factorial, prod
from operator import or_

import numpy as np

from .errors import ConstraintViolation, ExtensionCapExceeded, NoExtension

Arc = tuple[int, int]


class ConstraintMask:
    """Boolean forbidden-arc matrix: forbidden[a, b] means a -> b may never appear.

    The diagonal is always forbidden.  Instances are immutable; derive new
    masks with with_forbidden().
    """

    __slots__ = ("n_nodes", "forbidden")

    def __init__(self, n_nodes: int, forbidden: np.ndarray | None = None):
        if forbidden is None:
            mat = np.zeros((n_nodes, n_nodes), dtype=bool)
        else:
            mat = np.array(forbidden, dtype=bool, copy=True)
            if mat.shape != (n_nodes, n_nodes):
                raise ConstraintViolation(
                    f"mask shape {mat.shape} does not match n_nodes={n_nodes}"
                )
        np.fill_diagonal(mat, True)
        mat.setflags(write=False)
        self.n_nodes = n_nodes
        self.forbidden = mat

    @classmethod
    def empty(cls, n_nodes: int) -> "ConstraintMask":
        return cls(n_nodes)

    def allows(self, a: int, b: int) -> bool:
        return not self.forbidden[a, b]

    def with_forbidden(self, arcs) -> "ConstraintMask":
        mat = np.array(self.forbidden, copy=True)
        for a, b in arcs:
            mat[a, b] = True
        return ConstraintMask(self.n_nodes, mat)

    def __repr__(self):
        k = int(self.forbidden.sum()) - self.n_nodes
        return f"ConstraintMask(n_nodes={self.n_nodes}, extra_forbidden={k})"


def topological_order(n_nodes: int, arcs) -> list[int] | None:
    """Kahn's algorithm; returns None when the arc set has a cycle.

    Ties are broken by node id so the order is deterministic.
    """
    indeg = [0] * n_nodes
    children: list[list[int]] = [[] for _ in range(n_nodes)]
    for a, b in arcs:
        indeg[b] += 1
        children[a].append(b)
    ready = sorted(i for i in range(n_nodes) if indeg[i] == 0)
    order: list[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        fresh = []
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                fresh.append(c)
        if fresh:
            ready = sorted(ready + fresh)
    if len(order) != n_nodes:
        return None
    return order


def is_acyclic(n_nodes: int, arcs) -> bool:
    return topological_order(n_nodes, arcs) is not None


@dataclass(frozen=True)
class Dag:
    """Immutable directed acyclic graph over nodes 0..n_nodes-1.

    labels, when given, must name every node; no stage reads them.
    """

    n_nodes: int
    arcs: frozenset[Arc]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.n_nodes:
            raise ValueError("label count does not match n_nodes")
        if not isinstance(self.arcs, frozenset):
            object.__setattr__(self, "arcs", frozenset(self.arcs))
        for a, b in self.arcs:
            if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes) or a == b:
                raise ValueError(f"bad arc ({a}, {b})")
        if not is_acyclic(self.n_nodes, self.arcs):
            raise ValueError("arc set has a directed cycle")

    def parents(self, v: int) -> list[int]:
        return sorted(a for a, b in self.arcs if b == v)


@dataclass(frozen=True)
class Cpdag:
    """Completed partially directed graph: compelled arcs plus undirected edges.

    Undirected edges are stored once as (a, b) with a < b.
    """

    n_nodes: int
    directed: frozenset[Arc]
    undirected: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not isinstance(self.directed, frozenset):
            object.__setattr__(self, "directed", frozenset(self.directed))
        if not isinstance(self.undirected, frozenset):
            object.__setattr__(
                self,
                "undirected",
                frozenset((min(a, b), max(a, b)) for a, b in self.undirected),
            )
        seen = set()
        for a, b in self.directed:
            if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes) or a == b:
                raise ValueError(f"bad arc ({a}, {b})")
            seen.add((min(a, b), max(a, b)))
        for a, b in self.undirected:
            if not (0 <= a < b < self.n_nodes):
                raise ValueError(f"bad undirected edge ({a}, {b})")
            if (a, b) in seen:
                raise ValueError(f"edge ({a}, {b}) is both directed and undirected")

    def skeleton(self) -> frozenset[tuple[int, int]]:
        skel = set(self.undirected)
        skel.update((min(a, b), max(a, b)) for a, b in self.directed)
        return frozenset(skel)


def repair_arcs(adj: np.ndarray, rng: np.random.Generator) -> None:
    """Make a boolean adjacency matrix acyclic in place by clearing arcs on cycles.

    While a cycle remains, one arc of the cycle _find_cycle returns is
    cleared, chosen uniformly by the supplied generator, so the result
    depends only on the matrix and the generator's state.  Only set cells
    are cleared, so the matrix keeps to any mask it kept to.
    """
    while (cycle := _find_cycle(adj)) is not None:
        adj[cycle[int(rng.integers(len(cycle)))]] = False


def _find_cycle(adj: np.ndarray) -> list[Arc] | None:
    """Return the arcs of one directed cycle of a boolean adjacency matrix,
    or None if it is acyclic: the first cycle a depth-first search from
    node 0 meets, visiting each node's children in ascending order."""
    n_nodes = len(adj)
    children: list[list[int]] = [[] for _ in range(n_nodes)]
    for a, b in np.argwhere(adj).tolist():
        children[a].append(b)
    color = [0] * n_nodes  # 0 unvisited, 1 on stack, 2 done

    for start in range(n_nodes):
        if color[start] != 0:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            v, i = stack[-1]
            if i < len(children[v]):
                stack[-1] = (v, i + 1)
                c = children[v][i]
                if color[c] == 1:
                    # walk the stack back from v to c to recover the cycle
                    cyc = [(v, c)]
                    node = v
                    for u, _ in reversed(stack[:-1]):
                        cyc.append((u, node))
                        node = u
                        if u == c:
                            break
                    return cyc
                if color[c] == 0:
                    color[c] = 1
                    stack.append((c, 0))
            else:
                color[v] = 2
                stack.pop()
    return None


def arc_matrix(n_nodes: int, arcs) -> np.ndarray:
    """Boolean adjacency matrix with mat[a, b] set for every arc (a, b)."""
    mat = np.zeros((n_nodes, n_nodes), dtype=bool)
    for a, b in arcs:
        mat[a, b] = True
    return mat


def neighbours(n_nodes: int, edges) -> list[int]:
    """Per node, the bitmask of its neighbours over the undirected edges."""
    adj = [0] * n_nodes
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def reachability(adj: np.ndarray) -> np.ndarray:
    """reach[a, b] is True when a directed path of length >= 1 leads a -> b.

    adj is a p x p boolean (or 0/1) matrix.  The closure of (I | adj) by
    repeated squaring covers every path length up to p; a node lies on a
    directed cycle exactly when its diagonal entry is set.
    """
    p = adj.shape[0]
    m = adj.astype(np.uint8)
    reach = m | np.eye(p, dtype=np.uint8)
    steps = 1
    while steps < p:
        reach = (reach @ reach > 0).astype(np.uint8)
        steps *= 2
    return (m @ reach) > 0


def cyclic_rows(adjs: np.ndarray) -> np.ndarray:
    """Which matrices of an (N, p, p) boolean batch hold a directed cycle.

    Kahn's source removal on every row at once: each step deletes all nodes
    with no in-arc left, until no row has a source.  A node that survives
    lies on a cycle or downstream of one.
    """
    a = adjs.astype(np.float32)  # exact for any in-degree; its matmul beats int16's
    indeg = a.sum(axis=1)
    alive = np.ones(indeg.shape, dtype=bool)
    while True:
        src = alive & (indeg == 0)
        if not src.any():
            return alive.any(axis=1)
        alive &= ~src
        indeg -= np.matmul(src[:, None, :].astype(np.float32), a)[:, 0, :]


def _bits(word: int):
    """The node ids whose bits are set in word, lowest first."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def _meek_closure(und: list[int], par: list[int], ch: list[int]) -> None:
    """Orient undirected edges in place until Meek's rules reach a fixpoint.

    und, par and ch hold per-node bitmasks of the undirected neighbours,
    parents and children.  Each pass tests every undirected edge (a, b),
    a < b, in ascending order and both ways, against R1-R4; the rules are
    sound and reach the same maximal pattern in any firing order, background
    knowledge included (Meek 1995).
    """
    nodes = range(len(und))
    adj = [und[v] | par[v] | ch[v] for v in nodes]  # orienting keeps adjacency

    def forced(u: int, v: int) -> bool:
        """Whether one of R1-R4 orients the undirected edge u - v as u -> v."""
        into_v = und[u] & par[v]  # c with u - c -> v
        apart = und[u] & ~adj[v] & ~(1 << v)  # k with u - k, k and v non-adjacent
        return bool(
            # R1: w -> u with w and v non-adjacent
            par[u] & ~adj[v]
            # R2: u -> w -> v
            or ch[u] & par[v]
            # R3: u - c -> v and u - d -> v with c and d non-adjacent (two or more c)
            or into_v & (into_v - 1)
            and any(into_v >> c & 1 and into_v & ~adj[c] & ~(1 << c) for c in nodes)
            # R4: u - k -> l -> v with k and v non-adjacent
            or apart and any(apart >> k & 1 and ch[k] & par[v] for k in nodes)
        )

    changed = True
    while changed:
        changed = False
        for a in nodes:
            for b in _bits(und[a] & -(2 << a)):  # the undirected neighbours above a
                for u, v in ((a, b), (b, a)):
                    if not forced(u, v):
                        continue
                    und[u] &= ~(1 << v)
                    und[v] &= ~(1 << u)
                    ch[u] |= 1 << v
                    par[v] |= 1 << u
                    changed = True
                    break


def dag_to_cpdag(dag: Dag, mask: ConstraintMask | None = None) -> Cpdag:
    """Convert a DAG to the pattern of its (mask-constrained) equivalence class.

    The arcs of every v-structure a -> c <- b (a, b non-adjacent) start
    directed, and so does every arc whose reversal the mask forbids; Meek's
    rules R1-R4 then orient the rest to the maximally oriented pattern.
    Without a mask this is the ordinary CPDAG.  Raises ConstraintViolation
    when the DAG itself breaks the mask, or when the pattern orients an arc
    against the DAG.
    """
    n = dag.n_nodes
    if mask is not None:
        if mask.n_nodes != n:
            raise ConstraintViolation("mask size does not match graph")
        for a, b in dag.arcs:
            if not mask.allows(a, b):
                raise ConstraintViolation(f"input arc {a} -> {b} is forbidden")

    adj, dag_par = neighbours(n, dag.arcs), [0] * n
    for a, c in dag.arcs:
        dag_par[c] |= 1 << a
    und, par, ch = [0] * n, [0] * n, [0] * n
    for a, c in dag.arcs:
        # compelled: c has another parent not adjacent to a, or the mask forbids c -> a
        if dag_par[c] & ~adj[a] & ~(1 << a) or mask is not None and not mask.allows(c, a):
            par[c] |= 1 << a
            ch[a] |= 1 << c
        else:
            und[a] |= 1 << c
            und[c] |= 1 << a
    _meek_closure(und, par, ch)
    directed = frozenset((a, c) for c in range(n) for a in _bits(par[c]))
    if not directed <= dag.arcs:
        a, c = min(directed - dag.arcs)
        raise ConstraintViolation(f"closure derived {a} -> {c}, against the source DAG")
    undirected = frozenset((a, b) for a in range(n) for b in _bits(und[a] & -(2 << a)))
    return Cpdag(n, directed, undirected)


EXTENSION_CAP = 4096  # the most class members enumerate_extensions returns


def enumerate_extensions(
    cpdag: Cpdag, mask: ConstraintMask | None = None
) -> list[tuple[int, ...]]:
    """All DAGs in the equivalence class the pattern represents.

    Each member is a tuple of per-node parent bitmasks: bit a of entry b is
    set when the member has the arc a -> b.  Each extension keeps every
    directed arc, orients every undirected edge, creates no new v-structure,
    stays acyclic and respects the mask.  The free edges are oriented in
    sorted order, (a, b) before (b, a), with the cycle test read off
    per-node ancestor bitsets.  Raises NoExtension when none exists and
    ExtensionCapExceeded when the class is larger than EXTENSION_CAP.
    """
    n = cpdag.n_nodes
    if mask is not None:
        for a, b in cpdag.directed:
            if not mask.allows(a, b):
                raise ConstraintViolation(f"pattern arc {a} -> {b} is forbidden")
    order = topological_order(n, cpdag.directed)
    if order is None:
        raise NoExtension("directed part of the pattern is cyclic")
    choices = [
        [(u, v) for u, v in ((a, b), (b, a)) if mask is None or mask.allows(u, v)]
        for a, b in sorted(cpdag.undirected)
    ]
    # v-structure test needs adjacency of the full skeleton, which extensions share
    adj = neighbours(n, cpdag.skeleton())
    parents = [0] * n
    for a, b in cpdag.directed:
        parents[b] |= 1 << a
    ancestors = [0] * n
    for v in order:
        for a in _bits(parents[v]):
            ancestors[v] |= ancestors[a] | 1 << a

    results: list[tuple[int, ...]] = []

    def place(k: int) -> None:
        if k == len(choices):
            results.append(tuple(parents))
            if len(results) > EXTENSION_CAP:
                raise ExtensionCapExceeded(
                    f"equivalence class exceeds cap of {EXTENSION_CAP} members"
                )
            return
        for u, v in choices[k]:
            # u -> v joins a parent of v not adjacent to u, or closes a cycle
            if parents[v] & ~adj[u] or ancestors[u] >> v & 1:
                continue
            saved = ancestors.copy()
            above = ancestors[u] | 1 << u
            for w in range(n):  # v and everything below it
                if w == v or ancestors[w] >> v & 1:
                    ancestors[w] |= above
            parents[v] |= 1 << u
            place(k + 1)
            parents[v] &= ~(1 << u)
            ancestors[:] = saved

    place(0)
    if not results:
        raise NoExtension("pattern admits no consistent acyclic extension")
    return results


def components(adj: list[int], nodes: int) -> list[int]:
    """Connected components, as node bitmasks, of the graph with per-node
    neighbour bitmasks ``adj`` induced on the bitmask ``nodes``."""
    out = []
    while nodes:
        comp, grown = 0, nodes & -nodes
        while grown:
            comp |= grown
            grown = nodes & ~comp & reduce(or_, (adj[v] for v in _bits(grown)))
        out.append(comp)
        nodes &= ~comp
    return out


def count_orientations(adj: list[int], nodes: int) -> int:
    """Members of the class of one connected chordal undirected component.

    ``adj`` holds per-node neighbour bitmasks and ``nodes`` the component.
    Clique-Picking (Wienöbst, Bannach & Liśkiewicz 2021, AAAI): each member
    puts one maximal clique first.  Over the cliques of a clique tree, add
    the clique's orderings that start with no separator on its path from
    the root, times the counts of the components Meek's rules leave
    undirected once the clique comes first.  With the memo this is
    polynomial, and a k-clique counts as k! in one step.  A component
    that is not chordal has no member and raises NoExtension.
    """
    n = len(adj)
    memo: dict[int, int] = {}

    def count(nodes: int) -> int:
        if nodes in memo:
            return memo[nodes]
        # maximum cardinality search: each node with its visited neighbours is a clique
        seen, cliques = 0, []
        for _ in range(nodes.bit_count()):
            v = max(_bits(nodes & ~seen), key=lambda u: (adj[u] & seen).bit_count())
            cliques.append(adj[v] & seen | 1 << v)
            seen |= 1 << v
        if any(c & ~adj[u] & ~(1 << u) for c in cliques for u in _bits(c)):
            raise NoExtension("an undirected component is not chordal")
        cliques = [c for c in dict.fromkeys(cliques) if not any(c & d == c != d for d in cliques)]
        # Prim's maximum-weight spanning tree of the clique graph is a clique tree
        parent = {cliques[0]: 0}  # 0: the root has none
        while len(parent) < len(cliques):
            c, p = max(((c, p) for c in cliques if c not in parent for p in parent),
                       key=lambda cp: (cp[0] & cp[1]).bit_count())
            parent[c] = p
        memo[nodes] = 0
        for clique in cliques:
            # sizes of the separators on the path to the root inside the clique
            seps, c = set(), clique
            while parent[c]:
                if c & parent[c] & ~clique == 0:
                    seps.add((c & parent[c]).bit_count())
                c = parent[c]
            # orderings of each separator, and last of the clique, that start with no smaller one
            starts: list[tuple[int, int]] = []
            for s in sorted(seps) + [clique.bit_count()]:
                starts.append((s, factorial(s) - sum(factorial(s - r) * f for r, f in starts)))
            # the clique first, in ascending order, over the component's own edges
            rest = nodes & ~clique
            und, par, ch = [0] * n, [0] * n, [0] * n
            for v in _bits(clique):
                par[v], ch[v] = clique & ((1 << v) - 1), clique & -(2 << v) | adj[v] & rest
            for v in _bits(rest):
                und[v], par[v] = adj[v] & rest, adj[v] & clique
            _meek_closure(und, par, ch)
            memo[nodes] += starts[-1][1] * prod(count(comp) for comp in components(und, rest))
        return memo[nodes]

    return count(nodes)
