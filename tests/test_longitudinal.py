import logging

import numpy as np
import pytest

from oracles import unreshape
from stablesearch import longitudinal, pipeline
from stablesearch.errors import DegenerateData, InvalidPrior, ShapeMismatch
from stablesearch.graphs import is_acyclic
from stablesearch.longitudinal import (
    Layout,
    LongitudinalDataset,
    baseline_slice,
    intra_slice_mask,
    layout_from_dict,
    layout_to_dict,
    reshape,
    run_longitudinal,
    subsample_subjects,
    transition_labels,
    transition_mask,
    transition_problem,
)
from stablesearch.scoring import Column, Dataset, sample_covariance
from stablesearch.search import SearchParams
from stablesearch.seeding import SUBSAMPLE_LANE, derived_rng


def make_long(s, p, T, rng=None, scramble=False):
    rng = rng or np.random.default_rng(0)
    layout = Layout(tuple(f"V{i}" for i in range(p)), T)
    names = layout.column_names()
    values = rng.standard_normal((s, p * T))
    if scramble:
        perm = rng.permutation(len(names))
        names = [names[i] for i in perm]
        values = values[:, perm]
    return LongitudinalDataset(Dataset(names, values), layout)


def test_reshape_shapes():
    frame = reshape(make_long(179, 4, 6))
    assert frame.values.shape == (895, 8)
    frame = reshape(make_long(2, 4, 3))
    assert frame.values.shape == (4, 8)

    tiny = make_long(1, 1, 2)
    frame = reshape(tiny)
    assert frame.values.shape == (1, 2)
    assert list(frame.values[0]) == list(tiny.data.values[0])
    assert frame.names == ("V0_prev", "V0_cur")


def test_reshape_row_bookkeeping():
    # row r holds subject r // (T-1) at pair (t, t+1), t = r % (T-1)
    ld = make_long(3, 2, 4)
    frame = reshape(ld)
    T = 4
    for r in range(frame.n_rows):
        subj, t = divmod(r, T - 1)
        for v_i, v in enumerate(ld.layout.variables):
            prev = ld.data.values[subj, ld.column(v, t)]
            cur = ld.data.values[subj, ld.column(v, t + 1)]
            assert frame.values[r, v_i] == prev
            assert frame.values[r, 2 + v_i] == cur


def test_reshape_unreshape_roundtrip():
    ld = make_long(7, 3, 5, scramble=True)
    back = unreshape(reshape(ld), ld.layout)
    for v in ld.layout.variables:
        for k in range(5):
            a = ld.data.values[:, ld.column(v, k)]
            b = back.data.values[:, back.column(v, k)]
            assert np.array_equal(a, b)


def test_layout_is_the_column_authority():
    ld = make_long(10, 3, 4, scramble=True)
    base = baseline_slice(ld)
    assert base.names == ("V0", "V1", "V2")
    for j, v in enumerate(base.names):
        expected = ld.data.values[:, ld.column(v, 0)]
        assert np.array_equal(base.values[:, j], expected)


def test_baseline_slice_single_variable():
    ld = make_long(5, 1, 3)
    base = baseline_slice(ld)
    assert base.values.shape == (5, 1)


def test_dataset_layout_mismatch():
    layout = Layout(("A", "B"), 2)
    with pytest.raises(ShapeMismatch):
        LongitudinalDataset(
            Dataset(["A_t0", "A_t1", "B_t0"], np.zeros((4, 3))), layout
        )
    with pytest.raises(ShapeMismatch):
        LongitudinalDataset(
            Dataset(["A_t0", "A_t1", "B_t0", "X_t1"], np.zeros((4, 4))), layout
        )
    # one slice is not longitudinal
    with pytest.raises(ShapeMismatch):
        LongitudinalDataset(Dataset(["A_t0", "B_t0"], np.zeros((4, 2))), Layout(("A", "B"), 1))


def test_kind_must_be_stable_across_slices():
    layout = Layout(("A",), 2)
    cols = [Column("A_t0", "continuous"), Column("A_t1", "discrete")]
    with pytest.raises(ShapeMismatch):
        LongitudinalDataset(Dataset(cols, np.random.default_rng(0).random((4, 2))), layout)


def test_presence_drops_columns_and_fills_sides():
    layout = Layout(("A", "B"), 3, presence={"A": [0]})
    names = layout.column_names()
    assert names == ["A_t0", "B_t0", "B_t1", "B_t2"]
    vals = np.arange(8.0).reshape(2, 4)
    ld = LongitudinalDataset(Dataset(names, vals), layout)
    frame = reshape(ld)
    assert frame.values.shape == (4, 4)
    # A's prev side at t=1 borrows its only observation, slice 0
    subj0_pair1 = frame.values[1]
    assert subj0_pair1[0] == vals[0, 0]
    # A's cur side always borrows slice 0 too
    assert subj0_pair1[2] == vals[0, 0]

    back = unreshape(frame, layout)
    assert np.array_equal(back.data.values[:, back.column("A", 0)], vals[:, 0])


def test_layout_validation_and_json_roundtrip():
    with pytest.raises(ShapeMismatch):
        Layout((), 2)
    with pytest.raises(ShapeMismatch):
        Layout(("A", "A"), 2)
    with pytest.raises(ShapeMismatch):
        Layout(("A",), 2, column_pattern="missing_placeholders")
    with pytest.raises(ShapeMismatch):
        Layout(("A",), 2, presence={"B": [0]})
    with pytest.raises(ShapeMismatch):
        Layout(("A",), 2, presence={"A": [5]})

    layout = Layout(("A", "B"), 3, presence={"A": [0, 2]})
    again = layout_from_dict(layout_to_dict(layout))
    assert again == layout
    assert layout_from_dict({"variables": ["X"], "slices": 2}).presence == {
        "X": (0, 1)
    }
    with pytest.raises(ShapeMismatch):
        layout_from_dict({"variables": ["X"]})
    for bad, message in [
        ({"variables": [1, 2], "slices": 3}, r"variables\[0\] must be a string, not 1"),
        ({"variables": "AB", "slices": 3}, "variables must be a list, not 'AB'"),
        ({"variables": ["A", "B"], "slices": 2.7}, "slices must be an integer"),
        ({"variables": ["A"], "slices": 2, "presence": {"A": [1.9, 0]}},
         r"presence\['A'\]\[0\] must be an integer, not 1.9"),
        ({"variables": ["A"], "slices": 2, "presence": {"A": "01"}},
         r"presence\['A'\] must be a list, not '01'"),
        ({"variables": ["A"], "slices": 2, "presence": {"A": [True]}},
         r"presence\['A'\]\[0\] must be an integer, not True"),
        ({"variables": ["A"], "slices": 2, "presense": {"A": [0]}},
         "layout has unknown key 'presense'"),
        # A at slices 10 and 11 and A1 at slices 0 and 1 share two column names
        ({"variables": ["A", "A1"], "slices": 12, "column_pattern": "<var><k>"},
         "layout gives two cells the column name 'A10'"),
    ]:
        with pytest.raises(ShapeMismatch, match=f"^bad layout: {message}"):
            layout_from_dict(bad)


def test_transition_mask_allowed_pair_count():
    mask = transition_mask(("A", "B"))
    allowed = [
        (i, j)
        for i in range(4)
        for j in range(4)
        if i != j and mask.allows(i, j)
    ]
    # 4 inter-slice prev->cur plus 2 intra-cur
    assert len(allowed) == 6
    assert set(allowed) == {(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 2)}

    single = transition_mask(("A",))
    assert single.allows(0, 1) and not single.allows(1, 0)

    assert transition_labels(("A", "B")) == ("A_prev", "B_prev", "A_cur", "B_cur")


def long_data(layout, rows=12, seed=5):
    names = layout.column_names()
    values = np.random.default_rng(seed).standard_normal((rows, len(names)))
    return LongitudinalDataset(Dataset(names, values), layout)


def kept_arcs(mask):
    n = mask.n_nodes
    return {(a, b) for a in range(n) for b in range(n) if mask.allows(a, b)}


def test_transition_mask_prior_and_roles():
    mask = transition_mask(("A", "B", "C"), prior=[("A", "B"), ("A", "C")])
    p = 3
    assert not mask.allows(p + 0, p + 1)
    assert not mask.allows(p + 0, p + 2)
    assert mask.allows(p + 1, p + 0)
    # the cur block is the intra-slice mask of the same prior
    intra = intra_slice_mask(("A", "B", "C"), [("A", "B"), ("A", "C")])
    assert np.array_equal(mask.forbidden[p:, p:], intra.forbidden)

    # prev_only A leaves A_cur out, cur_only B leaves B_prev out
    ld = long_data(Layout(("A", "B"), 3))
    frame, mask, _ = transition_problem(
        ld, SearchParams(seed=1), 2, prev_only=("A",), cur_only=("B",)
    )
    assert frame.names == ("A_prev", "B_cur")
    assert np.array_equal(frame.values, reshape(ld).values[:, [0, 3]])
    # the active sides still interact
    assert kept_arcs(mask) == {(0, 1)}


def test_prior_slice_rule():
    with pytest.raises(InvalidPrior):
        transition_mask(("A", "B"), prior=[("A_prev", "B")])
    with pytest.raises(InvalidPrior):
        transition_mask(("A", "B"), prior=[("A", "Z")])
    with pytest.raises(InvalidPrior):
        intra_slice_mask(("A", "B"), [("A_prev", "B")])
    # the _cur suffix is tolerated since the prior is intra-slice by definition
    mask = transition_mask(("A", "B"), prior=[("A_cur", "B_cur")])
    assert not mask.allows(2, 3)
    # a variable whose own name ends in a suffix is matched by that name first
    mask = intra_slice_mask(("A", "A_cur", "B_prev"), [("A_cur", "B_prev"), ("B_prev", "A")])
    forbidden = {(a, b) for a, b in np.argwhere(mask.forbidden).tolist() if a != b}
    assert forbidden == {(1, 2), (2, 0)}


def test_transition_problem_leaves_out_sides_that_read_no_observed_slice():
    layout = Layout(
        ("treat", "x", "cens"),
        4,
        presence={"treat": [0], "cens": [1, 2, 3]},
    )
    frame, mask, _ = transition_problem(long_data(layout), SearchParams(seed=1), 2)
    # treat is observed at no cur position; cens is observed at prev
    # positions 1 and 2, so both of its sides enter
    assert frame.names == ("treat_prev", "x_prev", "cens_prev", "x_cur", "cens_cur")
    assert kept_arcs(mask) == {
        (a, b) for a in range(3) for b in (3, 4)
    } | {(3, 4), (4, 3)}
    # observed at the last slice only, late enters on the current side only
    layout = Layout(("x", "late"), 3, presence={"late": [2]})
    frame, mask, _ = transition_problem(long_data(layout), SearchParams(seed=1), 2)
    assert frame.names == ("x_prev", "x_cur", "late_cur")
    assert kept_arcs(mask) == {(0, 1), (0, 2), (1, 2), (2, 1)}


@pytest.mark.parametrize("prior, prev_only, cur_only, message", [
    ([("A", "Z")], ("Z",), (), "prior references unknown variable 'Z'"),
    ([("A_prev", "B")], (), (), "prior entry 'A_prev' refers to the previous slice"),
    ((), ("Z",), ("Y",), "prev_only references unknown variable 'Z'"),
    ((), ("A",), ("Y",), "cur_only references unknown variable 'Y'"),
    ((), ("A_prev",), (), "prev_only entry 'A_prev' refers to the previous slice"),
    ((), ("A",), ("A_cur",), "variable 'A' is in both prev_only and cur_only"),
])
def test_transition_problem_names_the_bad_setting(prior, prev_only, cur_only, message):
    ld = long_data(Layout(("A", "B"), 3))
    with pytest.raises(InvalidPrior, match=f"^{message}"):
        transition_problem(ld, SearchParams(seed=1), 2, prior, "subject", prev_only, cur_only)


def test_transition_problem_leaves_out_nodes_the_mask_isolates():
    # B is observed only at slice 0 and C only at the last slice, so B_cur
    # and C_prev would repeat B_prev and C_cur
    ld = long_data(Layout(("A", "B", "C"), 3, presence={"B": [0], "C": [2]}))
    full = reshape(ld)
    frame, mask, subsets = transition_problem(ld, SearchParams(seed=1), 2, prior=[("C", "A")])
    assert frame.names == ("A_prev", "B_prev", "A_cur", "C_cur")
    assert frame.values.flags.c_contiguous
    assert np.array_equal(frame.values, full.values[:, [0, 1, 3, 5]])
    # the subject draws of the full frame, restricted to the kept columns
    rng = derived_rng(1, SUBSAMPLE_LANE, 0)
    for sub, ref in zip(subsets, subsample_subjects(full, 12, 2, rng), strict=True):
        assert sub.columns == frame.columns
        assert np.array_equal(sub.values, ref.values[:, [0, 1, 3, 5]])
    # every kept node keeps its arcs: prev to cur, and cur to cur unless the prior forbids it
    assert kept_arcs(mask) == {(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}



def test_transition_problem_warns_once_per_kept_node_read_from_a_later_slice(caplog):
    # C_prev would borrow slice 2 too, but the mask isolates it and it is left out
    ld = long_data(Layout(("A", "B", "C"), 3, presence={"B": [0], "C": [2]}))
    with caplog.at_level(logging.WARNING, logger="stablesearch.longitudinal"):
        transition_problem(ld, SearchParams(seed=1), 2)
    assert [r.getMessage() for r in caplog.records] == [
        "transition node 'C_cur' reads a later slice: 'C' is unobserved at slice 1 "
        "and is filled from slice 2"
    ]


def test_transition_problem_warns_once_per_kept_cur_node_read_from_an_earlier_slice(caplog):
    # A_cur of the pair (0, 1) reads slice 0, the values of A_prev; A_prev
    # reading slice 0 at slice 1 carries its own past forward and is not named
    ld = long_data(Layout(("A", "B"), 3, presence={"A": [0, 2]}))
    with caplog.at_level(logging.WARNING, logger="stablesearch.longitudinal"):
        transition_problem(ld, SearchParams(seed=1), 2)
    assert [r.getMessage() for r in caplog.records] == [
        "transition node 'A_cur' reads an earlier slice: 'A' is unobserved at slice 1 "
        "and is filled from slice 0"
    ]


def test_datasets_hold_their_values_in_c_order():
    layout = Layout(("A", "B"), 2)
    values = np.asfortranarray(np.random.default_rng(2).standard_normal((10, 4)))
    ld = LongitudinalDataset(Dataset(layout.column_names(), values), layout)
    assert ld.data.values.flags.c_contiguous
    assert baseline_slice(ld).values.flags.c_contiguous


def test_subsample_subjects_draws_half():
    ld = make_long(11, 2, 3)
    frame = reshape(ld)
    subsets = subsample_subjects(frame, ld.n_subjects, 4, np.random.default_rng(0))
    assert len(subsets) == 4
    # each subject owns two consecutive frame rows, one per slice pair
    blocks = {frame.values[2 * i : 2 * i + 2].tobytes() for i in range(11)}
    for s in subsets:
        assert s.n_rows == 5 * 2 and s.columns == frame.columns
        drawn = {s.values[2 * j : 2 * j + 2].tobytes() for j in range(5)}
        assert len(drawn) == 5 and drawn <= blocks
    with pytest.raises(DegenerateData):
        subsample_subjects(reshape(make_long(3, 2, 3)), 3, 4, np.random.default_rng(0))


def reshaped_draws(ld, n_subsets, rng):
    """Reference whole-subject subsets: draw wide rows, then reshape each draw."""
    s = ld.n_subjects
    return [
        reshape(LongitudinalDataset(
            ld.data.take_rows(rng.choice(s, size=s // 2, replace=False)), ld.layout
        ))
        for _ in range(n_subsets)
    ]


@pytest.mark.parametrize("T, presence", [
    (2, None),
    (4, None),
    # V0 borrows slice 1 at slice 0 (forward) and slice 2 at slice 3
    # (backward); V2 fills slice 1 backward and slice 2 forward
    (4, {"V0": (1, 2), "V2": (0, 3)}),
])
def test_subsample_subjects_are_the_reshaped_draws(T, presence):
    layout = Layout(("V0", "V1", "V2"), T, presence=presence)
    names = layout.column_names()
    values = np.random.default_rng(T).standard_normal((21, len(names)))
    ld = LongitudinalDataset(Dataset(names, values), layout)
    blocks = subsample_subjects(reshape(ld), ld.n_subjects, 5, np.random.default_rng(2))
    old = reshaped_draws(ld, 5, np.random.default_rng(2))
    for new, ref in zip(blocks, old, strict=True):
        assert new.columns == ref.columns
        assert np.array_equal(new.values, ref.values)
        assert (sample_covariance(new) == sample_covariance(ref)).all()


def test_transition_problem_rejects_unknown_unit():
    ld = make_long(8, 2, 3)
    params = SearchParams(seed=1)
    with pytest.raises(ValueError, match="subsample_unit"):
        transition_problem(ld, params, 2, subsample_unit="subjects")
    frame, _, subsets = transition_problem(ld, params, 2, subsample_unit="row")
    assert subsets is None and frame.n_rows == 16
    _, _, subsets = transition_problem(ld, params, 2)
    assert [s.n_rows for s in subsets] == [8, 8]


def autoregressive_long():
    """Two variables over three slices, each slice 0.9 times the last plus noise."""
    rng = np.random.default_rng(8)
    s, T = 60, 3
    layout = Layout(("A", "B"), T)
    base = rng.standard_normal((s, 2))
    t1 = 0.9 * base + 0.4 * rng.standard_normal((s, 2))
    t2 = 0.9 * t1 + 0.4 * rng.standard_normal((s, 2))
    wide = np.column_stack(
        [base[:, 0], t1[:, 0], t2[:, 0], base[:, 1], t1[:, 1], t2[:, 1]]
    )
    names = ["A_t0", "A_t1", "A_t2", "B_t0", "B_t1", "B_t2"]
    return LongitudinalDataset(Dataset(names, wide), layout)


def test_run_longitudinal_masks_hold_on_every_model():
    ld = autoregressive_long()
    params = SearchParams(generations=4, population_size=8, seed=3)
    baseline, transition = run_longitudinal(ld, params, n_subsets=6)

    assert baseline.labels == ("A", "B")
    assert transition.labels == ("A_prev", "B_prev", "A_cur", "B_cur")
    tmask = transition_mask(("A", "B"))
    for res in transition.subset_results:
        assert not res.failed
        for m in res.models:
            assert is_acyclic(m.dag.n_nodes, m.dag.arcs)
            for a, b in m.dag.arcs:
                assert tmask.allows(a, b)
                assert a >= 2 or b >= 2  # never prev-internal
                assert not (a >= 2 and b < 2)  # never backward

    # determinism of the composed run
    again = run_longitudinal(ld, params, n_subsets=6)
    assert again[1].pi_bic == transition.pi_bic
    assert [m.dag.arcs for r in again[1].subset_results for m in r.models] == [
        m.dag.arcs for r in transition.subset_results for m in r.models
    ]


def test_run_longitudinal_reshapes_each_subset_once(monkeypatch):
    calls = []

    def counted(ld):
        calls.append(ld.data.n_rows)
        return reshape(ld)

    monkeypatch.setattr(longitudinal, "reshape", counted)
    params = SearchParams(generations=4, population_size=8, seed=3)
    _, transition = run_longitudinal(autoregressive_long(), params, n_subsets=6)
    assert transition.estimates  # the effects stage ran on the subsets
    # the whole frame (60 subjects) once; the subsets are its row blocks
    assert calls == [60]


def test_run_longitudinal_row_unit_switch():
    rng = np.random.default_rng(9)
    ld = make_long(40, 2, 3, rng=rng)
    params = SearchParams(generations=3, population_size=8, seed=1)
    baseline, transition = run_longitudinal(ld, params, n_subsets=5, subsample_unit="row")
    assert transition.pi_bic >= 0
    with pytest.raises(ValueError):
        run_longitudinal(ld, params, subsample_unit="bogus")


def test_run_longitudinal_starts_one_pool_for_both_models(in_process_pool):
    ld = make_long(40, 2, 3)
    params = SearchParams(generations=3, population_size=8, seed=1)
    baseline, transition = run_longitudinal(ld, params, n_subsets=5, parallelism=4)
    assert in_process_pool == [4]
    assert [r.index for r in baseline.subset_results] == list(range(5))
    assert [r.index for r in transition.subset_results] == list(range(5))
    serial = run_longitudinal(ld, params, n_subsets=5)
    assert in_process_pool == [4]
    for got, want in zip((baseline, transition), serial):
        assert got.graph == want.graph and got.pi_bic == want.pi_bic


def test_run_longitudinal_rejects_unknown_unit_before_searching(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(pipeline, "run_searches", no_search)
    params = SearchParams(generations=3, population_size=8, seed=1)
    with pytest.raises(ValueError, match="subsample_unit"):
        run_longitudinal(make_long(40, 2, 3), params, subsample_unit="bogus")
