import itertools
import math
import time

import numpy as np
import pytest

from oracles import (
    all_dag_arcsets,
    class_key,
    equivalence_class,
    member_arcs,
    oracle_dag_to_cpdag,
    oracle_enumerate_extensions,
    oracle_is_acyclic,
    oracle_skeleton,
    oracle_v_structures,
    union_orientation,
)
from stablesearch import graphs
from stablesearch.errors import (
    ConstraintViolation,
    ExtensionCapExceeded,
    NoExtension,
)
from stablesearch.graphs import (
    ConstraintMask,
    Cpdag,
    Dag,
    arc_matrix,
    cyclic_rows,
    dag_to_cpdag,
    enumerate_extensions,
    is_acyclic,
    reachability,
    repair_arcs,
    topological_order,
)


def as_pattern(cpdag):
    return (frozenset(cpdag.directed), frozenset(cpdag.undirected))


def test_is_acyclic_basic():
    assert is_acyclic(3, set())
    assert not is_acyclic(3, {(0, 1), (1, 2), (2, 0)})
    assert is_acyclic(3, {(0, 1), (0, 2), (1, 2)})


def test_dag_rejects_cycles_and_self_loops():
    with pytest.raises(ValueError):
        Dag(2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(ValueError):
        Dag(2, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Dag(2, frozenset({(0, 2)}))


def test_mask_diagonal_and_immutability():
    mask = ConstraintMask.empty(3)
    assert not mask.allows(0, 0)
    assert mask.allows(0, 1)
    with pytest.raises(ValueError):
        mask.forbidden[0, 1] = True
    harder = mask.with_forbidden([(0, 1)])
    assert harder.allows(1, 0) and not harder.allows(0, 1)
    assert mask.allows(0, 1)  # original untouched


def arc_set(adj):
    return frozenset(map(tuple, np.argwhere(adj).tolist()))


def test_repair_two_cycle_reaches_both_outcomes():
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        adj = arc_matrix(2, {(0, 1), (1, 0)})
        repair_arcs(adj, rng)
        arcs = arc_set(adj)
        assert arcs in (frozenset({(0, 1)}), frozenset({(1, 0)}))
        seen.add(arcs)
    assert len(seen) == 2


def test_repair_cuts_one_arc_of_each_disjoint_cycle():
    seen = set()
    for seed in range(40):
        adj = arc_matrix(4, {(0, 1), (1, 0), (2, 3), (3, 2)})
        fortran = np.asfortranarray(adj)
        rng, rng_f = np.random.default_rng(seed), np.random.default_rng(seed)
        repair_arcs(adj, rng)
        repair_arcs(fortran, rng_f)
        arcs = arc_set(adj)
        assert len(arcs & {(0, 1), (1, 0)}) == 1 and len(arcs & {(2, 3), (3, 2)}) == 1
        # the cut depends on the matrix's cells, not on its memory layout
        assert np.array_equal(fortran, adj)
        assert rng_f.bit_generator.state == rng.bit_generator.state
        seen.add(arcs)
    assert len(seen) == 4


def test_repair_keeps_valid_dag_intact():
    rng = np.random.default_rng(7)
    universe = all_dag_arcsets(4)
    for arcs in universe[::17]:
        adj = arc_matrix(4, arcs)
        repair_arcs(adj, rng)
        assert arc_set(adj) == arcs


def test_repair_always_returns_mask_respecting_dag():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        raw = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < 0.5
        }
        forbidden = rng.random((n, n)) < 0.2
        mask = ConstraintMask(n, forbidden)
        raw = {arc for arc in raw if mask.allows(*arc)}  # the search holds no other cells
        adj = arc_matrix(n, raw)
        repair_arcs(adj, rng)
        arcs = arc_set(adj)
        assert is_acyclic(n, arcs)
        assert all(mask.allows(a, b) for a, b in arcs)
        assert arcs <= raw


def test_empty_dag_converts_to_empty_cpdag():
    out = dag_to_cpdag(Dag(4, frozenset()))
    assert out.directed == frozenset() and out.undirected == frozenset()


def test_complete_dag_converts_to_fully_undirected():
    for n in (2, 3, 4, 5):
        arcs = frozenset((a, b) for a in range(n) for b in range(a + 1, n))
        out = dag_to_cpdag(Dag(n, arcs))
        assert out.directed == frozenset()
        assert out.undirected == frozenset(
            (a, b) for a in range(n) for b in range(a + 1, n)
        )


def test_chain_and_collider_patterns_match_union_oracle():
    universe = all_dag_arcsets(3)

    chain = frozenset({(0, 1), (1, 2)})
    expect = union_orientation(equivalence_class(3, chain, universe))
    assert expect == (frozenset(), frozenset({(0, 1), (1, 2)}))
    assert as_pattern(dag_to_cpdag(Dag(3, chain))) == expect

    collider = frozenset({(0, 2), (1, 2)})
    expect = union_orientation(equivalence_class(3, collider, universe))
    assert expect == (frozenset({(0, 2), (1, 2)}), frozenset())
    assert as_pattern(dag_to_cpdag(Dag(3, collider))) == expect


def test_forbidden_reversal_keeps_arc_directed():
    mask = ConstraintMask.empty(2).with_forbidden([(1, 0)])
    out = dag_to_cpdag(Dag(2, frozenset({(0, 1)})), mask)
    assert out.directed == frozenset({(0, 1)}) and out.undirected == frozenset()


def test_conversion_rejects_forbidden_input_arc():
    mask = ConstraintMask.empty(2).with_forbidden([(0, 1)])
    with pytest.raises(ConstraintViolation):
        dag_to_cpdag(Dag(2, frozenset({(0, 1)})), mask)


def test_conversion_rejects_a_closure_that_contradicts_the_dag(monkeypatch):
    def against(und, par, ch):
        # orient the undirected edge 0 - 1 as 1 -> 0, against the DAG's 0 -> 1
        und[0] &= ~0b10
        und[1] &= ~0b01
        ch[1] |= 0b01
        par[0] |= 0b10

    monkeypatch.setattr(graphs, "_meek_closure", against)
    with pytest.raises(ConstraintViolation, match="derived 1 -> 0, against the source DAG"):
        dag_to_cpdag(Dag(2, frozenset({(0, 1)})))


def test_meek_closure_orients_a_bare_pattern():
    # 0 -> 2 <- 1 with 2 - 3 and 3 - 4: R1 orients 2 -> 3, then 3 -> 4
    und = [0, 0, 0b01000, 0b10100, 0b01000]
    par = [0, 0, 0b00011, 0, 0]
    ch = [0b00100, 0b00100, 0, 0, 0]
    graphs._meek_closure(und, par, ch)
    assert und == [0] * 5
    assert par == [0, 0, 0b00011, 0b00100, 0b01000]
    assert ch == [0b00100, 0b00100, 0b01000, 0b10000, 0]


def test_equivalence_partition_matches_oracle_on_three_nodes():
    universe = all_dag_arcsets(3)
    assert len(universe) == 25
    for x, y in itertools.combinations(universe, 2):
        same_class = class_key(x) == class_key(y)
        same_cpdag = as_pattern(dag_to_cpdag(Dag(3, x))) == as_pattern(
            dag_to_cpdag(Dag(3, y))
        )
        assert same_class == same_cpdag


def test_unconstrained_pattern_equals_union_orientation_four_nodes():
    universe = all_dag_arcsets(4)
    assert len(universe) == 543
    rng = np.random.default_rng(11)
    for i in rng.choice(len(universe), size=60, replace=False):
        arcs = universe[i]
        expect = union_orientation(equivalence_class(4, arcs, universe))
        assert as_pattern(dag_to_cpdag(Dag(4, arcs))) == expect


def test_constrained_pattern_equals_union_over_allowed_members():
    rng = np.random.default_rng(5)
    universe = all_dag_arcsets(4)
    checked = 0
    while checked < 120:
        arcs = universe[int(rng.integers(len(universe)))]
        forbidden = rng.random((4, 4)) < 0.25
        for a, b in arcs:
            forbidden[a, b] = False  # the input must stay legal
        mask = ConstraintMask(4, forbidden)
        out = dag_to_cpdag(Dag(4, arcs), mask)
        members = equivalence_class(4, arcs, universe, forbidden=mask.forbidden)
        assert arcs in members
        assert as_pattern(out) == union_orientation(members)
        # mask invariants
        for a, b in out.directed:
            assert mask.allows(a, b)
        for a, b in out.undirected:
            assert mask.allows(a, b) and mask.allows(b, a)
        checked += 1


def random_dag(rng, p, rate):
    order = rng.permutation(p)
    upper = np.triu(rng.random((p, p)) < rate, k=1)
    return Dag(p, {(int(order[i]), int(order[j])) for i, j in zip(*np.nonzero(upper))})


def consistent_mask(rng, dag, rate=0.3):
    """A random mask that forbids none of the DAG's own arcs."""
    forbidden = rng.random((dag.n_nodes, dag.n_nodes)) < rate
    for a, b in dag.arcs:
        forbidden[a, b] = False
    return ConstraintMask(dag.n_nodes, forbidden)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_pattern_describes_its_class_at_larger_p(masked):
    rng = np.random.default_rng(31 if masked else 29)
    checked = 0
    for _ in range(250):
        p = int(rng.integers(5, 13))
        dag = random_dag(rng, p, 0.35)
        arcs = dag.arcs
        mask = consistent_mask(rng, dag) if masked else None
        out = dag_to_cpdag(dag, mask)
        skeleton, v_structures = oracle_skeleton(arcs), oracle_v_structures(arcs)
        # maximal: no orientation beyond what the whole (masked) class shares,
        # with the class enumerated from the v-structures alone
        colliders = {(x, c) for a, c, b in v_structures for x in (a, b)}
        loose = Cpdag(p, colliders, skeleton - oracle_skeleton(colliders))
        try:
            members = [member_arcs(d) for d in enumerate_extensions(out, mask)]
            whole = [member_arcs(d) for d in enumerate_extensions(loose, mask)]
        except ExtensionCapExceeded:
            continue
        checked += 1
        for m in members:
            assert oracle_skeleton(m) == skeleton
            assert oracle_v_structures(m) == v_structures
            assert mask is None or all(mask.allows(a, b) for a, b in m)
        assert arcs in members
        assert as_pattern(out) == union_orientation(members)
        assert sorted(map(sorted, whole)) == sorted(map(sorted, members))
    assert checked >= 200


def conversion_outcome(convert, dag, mask):
    """The pattern a conversion gives, or the type of the error it raises."""
    try:
        return as_pattern(convert(dag, mask))
    except ConstraintViolation as exc:
        return type(exc)


def test_conversion_matches_the_four_pass_oracle():
    rng = np.random.default_rng(41)
    dags = [Dag(n, arcs) for n in range(1, 5) for arcs in all_dag_arcsets(n)]
    dags += [random_dag(rng, p, rng.uniform(0.1, 0.6)) for p in range(5, 17) for _ in range(40)]
    kinds = set()
    for dag in dags:
        # unmasked, under a consistent mask, and under a mask that may forbid
        # an input arc
        for mask in (None, consistent_mask(rng, dag),
                     ConstraintMask(dag.n_nodes, rng.random((dag.n_nodes,) * 2) < 0.05)):
            want = conversion_outcome(oracle_dag_to_cpdag, dag, mask)
            assert conversion_outcome(dag_to_cpdag, dag, mask) == want
            kinds.add(want if isinstance(want, type) else bool(want[1]))
    assert kinds == {True, False, ConstraintViolation}


@pytest.mark.parametrize("rate", [0.05, 0.3])
def test_cyclic_rows_matches_reachability_and_oracle(rate):
    rng = np.random.default_rng(11)
    for p in range(1, 21):
        adjs = rng.random((12, p, p)) < rate
        adjs[:, np.arange(p), np.arange(p)] = False
        got = cyclic_rows(adjs)
        assert got.shape == (12,) and got.dtype == bool
        for adj, cyclic in zip(adjs, got):
            assert cyclic == reachability(adj).diagonal().any()
            assert cyclic != oracle_is_acyclic(p, list(zip(*np.nonzero(adj))))


def test_cyclic_rows_triangle_all_cyclic_and_empty_batches():
    tri = arc_matrix(3, [(0, 1), (1, 2), (2, 0)])
    chain = arc_matrix(3, [(0, 1), (1, 2)])
    assert cyclic_rows(np.stack([chain, tri, chain])).tolist() == [False, True, False]
    # a cycle with an acyclic tail upstream and downstream of it
    tailed = arc_matrix(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
    two_cycle = arc_matrix(5, [(0, 4), (4, 0)])
    assert cyclic_rows(np.stack([tailed, two_cycle])).tolist() == [True, True]
    assert cyclic_rows(np.zeros((0, 4, 4), dtype=bool)).shape == (0,)


def test_enumerate_single_edge_and_directed_only():
    two = enumerate_extensions(Cpdag(2, frozenset(), frozenset({(0, 1)})))
    assert {member_arcs(d) for d in two} == {frozenset({(0, 1)}), frozenset({(1, 0)})}

    fixed = Cpdag(3, frozenset({(0, 2), (1, 2)}), frozenset())
    out = enumerate_extensions(fixed)
    assert len(out) == 1 and member_arcs(out[0]) == frozenset({(0, 2), (1, 2)})


def test_enumerate_path_has_three_members():
    # brute force over the 4 orientations of 0-1-2: only the collider at 1 drops
    legal = []
    for o1 in ((0, 1), (1, 0)):
        for o2 in ((1, 2), (2, 1)):
            arcs = frozenset({o1, o2})
            if (0, 1) in arcs and (2, 1) in arcs:
                continue  # collider introduces a new v-structure
            legal.append(arcs)
    assert len(legal) == 3

    path = Cpdag(3, frozenset(), frozenset({(0, 1), (1, 2)}))
    out = enumerate_extensions(path)
    assert {member_arcs(d) for d in out} == set(legal)


def test_enumerate_is_deterministic():
    pattern = Cpdag(4, frozenset(), frozenset({(0, 1), (1, 2), (2, 3)}))
    first = [member_arcs(d) for d in enumerate_extensions(pattern)]
    second = [member_arcs(d) for d in enumerate_extensions(pattern)]
    assert first == second


def test_enumerate_cap_and_empty_class(monkeypatch):
    path = Cpdag(3, frozenset(), frozenset({(0, 1), (1, 2)}))
    monkeypatch.setattr(graphs, "EXTENSION_CAP", 2)
    with pytest.raises(ExtensionCapExceeded):
        enumerate_extensions(path)

    square = Cpdag(4, frozenset(), frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    with pytest.raises(NoExtension):
        enumerate_extensions(square)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_enumerate_clique_gives_every_order_once(k):
    # the members of an undirected k-clique are its k! total orders; the
    # later edges close a cycle only through chains of up to k - 1 arcs
    clique = Cpdag(k, frozenset(), frozenset(itertools.combinations(range(k), 2)))
    out = enumerate_extensions(clique)
    orders = {tuple(topological_order(k, member_arcs(d))) for d in out}
    assert len(out) == len(orders) == math.factorial(k)
    assert orders == set(itertools.permutations(range(k)))


def test_enumerate_respects_mask():
    pattern = Cpdag(2, frozenset(), frozenset({(0, 1)}))
    mask = ConstraintMask.empty(2).with_forbidden([(1, 0)])
    out = enumerate_extensions(pattern, mask)
    assert [member_arcs(d) for d in out] == [frozenset({(0, 1)})]


def test_enumerate_cap_is_exact(monkeypatch):
    # a 6-clique has 720 members; a 7-clique's 5,040 pass the default cap
    assert graphs.EXTENSION_CAP == 4096
    seven = Cpdag(7, frozenset(), frozenset(itertools.combinations(range(7), 2)))
    with pytest.raises(ExtensionCapExceeded):
        enumerate_extensions(seven)
    six = Cpdag(6, frozenset(), frozenset(itertools.combinations(range(6), 2)))
    monkeypatch.setattr(graphs, "EXTENSION_CAP", 720)
    assert len(enumerate_extensions(six)) == 720
    monkeypatch.setattr(graphs, "EXTENSION_CAP", 719)
    with pytest.raises(ExtensionCapExceeded):
        enumerate_extensions(six)


def outcome(enumerate_class, cpdag, mask):
    """The members' arc sets in order, or the type of the error raised."""
    try:
        return [member_arcs(m) if isinstance(m, tuple) else m.arcs
                for m in enumerate_class(cpdag, mask)]
    except (ConstraintViolation, ExtensionCapExceeded, NoExtension) as exc:
        return type(exc)


def random_pattern(rng, p):
    """A skeleton whose edges are compelled along a random order (so that
    compelled chains form), rarely against it (so that some compelled parts
    are cyclic), or left undirected."""
    order = rng.permutation(p)
    directed, undirected = set(), set()
    for i, j in itertools.combinations(range(p), 2):
        a, b = int(order[i]), int(order[j])
        r = rng.random()
        if r < 0.2:
            directed.add((a, b))
        elif r < 0.23:
            directed.add((b, a))
        elif r < 0.6:
            undirected.add((min(a, b), max(a, b)))
    return Cpdag(p, frozenset(directed), frozenset(undirected))


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_enumerate_matches_the_dag_building_oracle_in_order(masked):
    # random patterns, and the patterns of random dense DAGs for larger classes
    rng = np.random.default_rng(37 if masked else 35)
    seen, largest = set(), 0
    for p in range(3, 9):
        for _ in range(30):
            order = rng.permutation(p)
            upper = np.triu(rng.random((p, p)) < 0.5, k=1)
            dag = Dag(p, {(int(order[i]), int(order[j])) for i, j in zip(*np.nonzero(upper))})
            mask = ConstraintMask(p, rng.random((p, p)) < 0.15) if masked else None
            for pattern in (random_pattern(rng, p), dag_to_cpdag(dag)):
                want = outcome(oracle_enumerate_extensions, pattern, mask)
                assert outcome(enumerate_extensions, pattern, mask) == want
                if isinstance(want, list):
                    largest = max(largest, len(want))
                seen.add(want if isinstance(want, type) else min(len(want), 2))
    expected = {1, 2, NoExtension}  # one member, more, and no member
    assert seen == (expected | {ConstraintViolation} if masked else expected)
    assert largest >= 16


def test_enumerate_raises_what_the_oracle_raises():
    cases = [
        # compelled 0 -> 1 -> 2 -> 0 is cyclic
        (Cpdag(3, {(0, 1), (1, 2), (2, 0)}, frozenset()), None, NoExtension),
        (Cpdag(3, {(0, 1)}, {(1, 2)}), ConstraintMask.empty(3).with_forbidden([(0, 1)]),
         ConstraintViolation),
        # the 4-cycle skeleton: any orientation makes a collider or a cycle
        (Cpdag(4, frozenset(), {(0, 1), (1, 2), (2, 3), (0, 3)}), None, NoExtension),
        # the compelled chain 0 -> 1 -> 2 leaves 0 - 2 only 0 -> 2, which is forbidden
        (Cpdag(3, {(0, 1), (1, 2)}, {(0, 2)}),
         ConstraintMask.empty(3).with_forbidden([(0, 2)]), NoExtension),
    ]
    for pattern, mask, error in cases:
        assert outcome(oracle_enumerate_extensions, pattern, mask) is error
        assert outcome(enumerate_extensions, pattern, mask) is error


def test_roundtrip_every_small_dag_is_in_its_own_class():
    for n in (2, 3, 4):
        universe = all_dag_arcsets(n)
        for arcs in universe:
            cp = dag_to_cpdag(Dag(n, arcs))
            members = {member_arcs(d) for d in enumerate_extensions(cp)}
            assert arcs in members
            # the enumerated class is exactly the oracle class
            assert members == set(equivalence_class(n, arcs, universe))


def random_chordal_component(rng, p):
    """A connected chordal graph as per-node neighbour bitmasks: each new
    node joins a clique of the earlier ones, so the insertion order reversed
    is a perfect elimination order."""
    adj = [0] * p
    for v in range(1, p):
        clique = [int(rng.integers(v))]
        for w in rng.permutation(v):
            if w != clique[0] and rng.random() < 0.6 and all(adj[w] >> c & 1 for c in clique):
                clique.append(int(w))
        for w in clique:
            adj[v] |= 1 << w
            adj[w] |= 1 << v
    perm = [int(v) for v in rng.permutation(p)]
    out = [0] * p
    for a in range(p):
        for b in range(p):
            if adj[a] >> b & 1:
                out[perm[a]] |= 1 << perm[b]
    return out


def test_count_orientations_matches_enumeration_on_chordal_components():
    rng = np.random.default_rng(79)
    sizes = set()
    for case in range(800):
        p = 1 + case % 8
        adj = random_chordal_component(rng, p)
        edges = {(a, b) for a in range(p) for b in range(a + 1, p) if adj[a] >> b & 1}
        assert graphs.components(adj, (1 << p) - 1) == [(1 << p) - 1]
        want = len(enumerate_extensions(Cpdag(p, frozenset(), frozenset(edges))))
        assert graphs.count_orientations(adj, (1 << p) - 1) == want
        sizes.add(want)
    assert len(sizes) > 50


def test_count_orientations_of_a_component_inside_a_larger_graph():
    # the path 1 - 3 - 5 has 3 members, whatever the other nodes hold
    adj = [0b000100, 0b001000, 0b000001, 0b100010, 0, 0b001000]
    assert graphs.components(adj, 0b111111) == [0b000101, 0b101010, 0b010000]
    assert graphs.count_orientations(adj, 0b101010) == 3
    assert graphs.count_orientations(adj, 0b000101) == 2


def test_count_orientations_counts_a_12_clique_in_one_step():
    adj = [0xFFF & ~(1 << v) for v in range(12)]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        count = graphs.count_orientations(adj, 0xFFF)
        best = min(best, time.perf_counter() - start)
    assert count == math.factorial(12)
    assert best < 0.01


def test_graph_types_reject_bad_input():
    with pytest.raises(ConstraintViolation, match=r"mask shape \(2, 2\) does not match n_nodes=3"):
        ConstraintMask(3, np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="label count does not match n_nodes"):
        Dag(2, frozenset(), ("a",))
    assert Dag(2, frozenset()).labels is None  # no names are made up
    with pytest.raises(ValueError, match=r"bad arc \(0, 3\)"):
        Cpdag(3, frozenset({(0, 3)}), frozenset())
    with pytest.raises(ValueError, match=r"bad undirected edge \(1, 1\)"):
        Cpdag(3, frozenset(), frozenset({(1, 1)}))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is both directed and undirected"):
        Cpdag(3, frozenset({(1, 0)}), frozenset({(0, 1)}))
    with pytest.raises(ConstraintViolation, match="mask size does not match graph"):
        dag_to_cpdag(Dag(3, frozenset({(0, 1)})), ConstraintMask.empty(4))
