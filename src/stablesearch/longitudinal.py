"""Longitudinal decomposition: baseline slice, transition reshaping, masks.

A longitudinal dataset has s subjects, p variables and T time slices, one
column per observed (variable, slice).  Structure search runs on two derived
problems: a baseline model over the first slice, and a stationary transition
model over 2p nodes [previous slice, current slice] fed with the reshaped
matrix that stacks every consecutive slice pair of every subject.  The
transition constraints are structural: nothing inside the previous slice,
nothing backward in time; a node they leave no arc is left out.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidPrior, ShapeMismatch, require
from .graphs import ConstraintMask
from .pipeline import PipelineResult, run_pipelines
# sample_covariance is not called here: bench/tracer.py wraps
# stablesearch.longitudinal.sample_covariance by name, and
# tests/test_bench_hooks.py requires that the name resolves
from .scoring import Column, Dataset, sample_covariance  # noqa: F401
from .search import SearchParams
from .seeding import PIPELINE_LANE, SUBSAMPLE_LANE, derived_rng, derived_seed
from .stability import subsample_blocks

log = logging.getLogger(__name__)

PREV_SUFFIX = "_prev"
CUR_SUFFIX = "_cur"


@dataclass(frozen=True)
class Layout:
    """Maps (variable, slice) to a column name.

    ``presence`` lists the slices at which a variable is observed and
    defaults to all of them.  ``column_pattern`` uses the placeholders
    <var> and <k>.
    """

    variables: tuple[str, ...]
    slices: int
    column_pattern: str = "<var>_t<k>"
    presence: dict[str, tuple[int, ...]] | None = None

    def __post_init__(self):
        variables = tuple(self.variables)
        object.__setattr__(self, "variables", variables)
        if not variables or len(set(variables)) != len(variables):
            raise ShapeMismatch("layout needs distinct, non-empty variable names")
        if self.slices < 1:
            raise ShapeMismatch("layout needs at least one time slice")
        if "<var>" not in self.column_pattern or "<k>" not in self.column_pattern:
            raise ShapeMismatch("column_pattern must contain <var> and <k>")
        full = tuple(range(self.slices))
        presence = {v: full for v in variables}
        for v, ks in (self.presence or {}).items():
            if v not in presence:
                raise ShapeMismatch(f"presence lists unknown variable {v!r}")
            ks = tuple(sorted(set(ks)))
            if not ks or ks[0] < 0 or ks[-1] >= self.slices:
                raise ShapeMismatch(f"presence for {v!r} is empty or out of range")
            presence[v] = ks
        object.__setattr__(self, "presence", presence)
        names = self.column_names()
        if len(set(names)) < len(names):
            shared = next(name for name in names if names.count(name) > 1)
            raise ShapeMismatch(f"layout gives two cells the column name {shared!r}")

    def column_name(self, var: str, k: int) -> str:
        return self.column_pattern.replace("<var>", var).replace("<k>", str(k))

    def observed(self, var: str, k: int) -> bool:
        return k in self.presence[var]

    def column_names(self) -> list[str]:
        return [
            self.column_name(v, k)
            for v in self.variables
            for k in self.presence[v]
        ]

    def fill_slice(self, var: str, k: int) -> int:
        """Slice to read for (var, k): k itself, or the nearest observed one."""
        ks = self.presence[var]
        if k in ks:
            return k
        return min(ks, key=lambda j: (abs(j - k), j))


# the layout file holds Layout's fields, and may leave out the last two
LAYOUT_FILE = {
    "variables": [str], "slices": int, "column_pattern?": str, "presence?": {str: [int]}
}


def layout_from_dict(obj) -> Layout:
    try:
        require("layout", obj, LAYOUT_FILE)
        return Layout(**obj)
    except (ShapeMismatch, ValueError) as exc:
        raise ShapeMismatch(f"bad layout: {exc}") from exc


def layout_to_dict(layout: Layout) -> dict:
    full = tuple(range(layout.slices))
    partial = {
        v: list(ks) for v, ks in layout.presence.items() if ks != full
    }
    out = {
        "variables": list(layout.variables),
        "slices": layout.slices,
        "column_pattern": layout.column_pattern,
    }
    if partial:
        out["presence"] = partial
    return out


class LongitudinalDataset:
    """Wide-format longitudinal data bound to a layout.

    The layout map is the authority on which column belongs to which
    (variable, slice); physical column order in the file is irrelevant.
    """

    __slots__ = ("data", "layout", "_where")

    def __init__(self, data: Dataset, layout: Layout):
        if layout.slices < 2:
            raise ShapeMismatch("longitudinal data needs at least two slices")
        expected = layout.column_names()
        if sorted(expected) != sorted(data.names):
            missing = set(expected) - set(data.names)
            extra = set(data.names) - set(expected)
            raise ShapeMismatch(
                f"data columns do not match the layout "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        where = {name: i for i, name in enumerate(data.names)}
        self.data = data
        self.layout = layout
        self._where = {
            (v, k): where[layout.column_name(v, k)]
            for v in layout.variables
            for k in layout.presence[v]
        }
        for v in layout.variables:
            kinds = {
                data.columns[self._where[(v, k)]].kind for k in layout.presence[v]
            }
            if len(kinds) > 1:
                raise ShapeMismatch(f"variable {v!r} changes kind across slices")

    @property
    def n_subjects(self) -> int:
        return self.data.n_rows

    @property
    def p(self) -> int:
        return len(self.layout.variables)

    def column(self, var: str, k: int) -> int:
        return self._where[(var, k)]

    def kind_of(self, var: str) -> str:
        first = self.layout.presence[var][0]
        return self.data.columns[self._where[(var, first)]].kind


def baseline_slice(data: LongitudinalDataset) -> Dataset:
    """First-slice columns, renamed to the bare variable names."""
    lay = data.layout
    vars0 = [v for v in lay.variables if lay.observed(v, 0)]
    if not vars0:
        raise ShapeMismatch("no variable is observed at the first slice")
    idx = [data.column(v, 0) for v in vars0]
    cols = [Column(v, data.kind_of(v)) for v in vars0]
    return Dataset(cols, data.data.values[:, idx])


def reshape(data: LongitudinalDataset) -> Dataset:
    """Stack the [x(t), x(t+1)] blocks for t = 0 .. T-2, subject-major.

    Row r holds subject r // (T-1) at the slice pair t = r % (T-1).

    A variable unobserved at a needed slice is filled from its nearest
    observed slice.
    """
    lay = data.layout
    s, p, T = data.n_subjects, data.p, lay.slices
    values = data.data.values
    out = np.empty((s * (T - 1), 2 * p))
    for t in range(T - 1):
        idx = [data.column(v, lay.fill_slice(v, k)) for k in (t, t + 1) for v in lay.variables]
        out[t :: T - 1] = values[:, idx]
    kinds = [data.kind_of(v) for v in lay.variables] * 2
    names = transition_labels(lay.variables)
    return Dataset([Column(n, k) for n, k in zip(names, kinds)], out)


def _variable_index(variables: tuple[str, ...], name: str, setting: str = "prior") -> int:
    """Index of a slice variable that ``setting`` names: exact name first, then current-slice."""
    if name not in variables and name.endswith(PREV_SUFFIX):
        raise InvalidPrior(
            f"{setting} entry {name!r} refers to the previous slice; {setting} "
            "applies within one slice only"
        )
    plain = name if name in variables else name.removesuffix(CUR_SUFFIX)
    try:
        return variables.index(plain)
    except ValueError:
        raise InvalidPrior(f"{setting} references unknown variable {name!r}") from None


def intra_slice_mask(variables, prior=()) -> ConstraintMask:
    """Mask over one slice's p variables from prior forbidden arcs."""
    variables = tuple(variables)
    pairs = [
        (_variable_index(variables, a), _variable_index(variables, b))
        for a, b in prior
    ]
    return ConstraintMask.empty(len(variables)).with_forbidden(pairs)


def transition_mask(variables, prior=()) -> ConstraintMask:
    """Mask over the 2p transition nodes, prev block first.

    Forbidden: every arc into a prev node (among prev nodes, or from a cur
    node back in time), and among the cur nodes the prior's intra-slice arcs,
    as ``intra_slice_mask`` forbids them.
    """
    cur = intra_slice_mask(variables, prior).forbidden
    p = len(cur)
    forbidden = np.zeros((2 * p, 2 * p), dtype=bool)
    forbidden[:, :p] = True  # no arc into the prev slice
    forbidden[p:, p:] = cur
    return ConstraintMask(2 * p, forbidden)


def transition_labels(variables) -> tuple[str, ...]:
    variables = tuple(variables)
    return tuple(v + PREV_SUFFIX for v in variables) + tuple(
        v + CUR_SUFFIX for v in variables
    )


def subsample_subjects(
    frame: Dataset, n_subjects: int, n_subsets: int, rng: np.random.Generator
) -> list[Dataset]:
    """Subsets of ``frame``, each the row blocks of floor(s/2) subjects drawn
    without replacement.

    Rows reshaped from one subject are dependent, so stability selection on
    the transition model resamples whole subjects by default.  ``reshape``
    is subject-major, so a draw's blocks in draw order are the reshape of
    the drawn subjects.
    """
    return subsample_blocks(frame, n_subjects, n_subsets, rng, "subjects")


def transition_problem(
    data: LongitudinalDataset, params: SearchParams, n_subsets: int, prior=(),
    subsample_unit: str = "subject", prev_only=(), cur_only=(),
):
    """Set up the transition model's search: (frame, mask, subsets).

    One pass over the 2p nodes decides which enter.  A node is left out when
    its side reads no observed slice of its variable, when ``prev_only`` or
    ``cur_only`` pins its variable to the other side (a variable in both is
    an error), or when, after those, ``transition_mask`` leaves it no arc.
    The frame (the reshaped data) and the mask are cut to the kept nodes
    once.  Each kept node that is filled from a later slice, at some slice
    its variable is unobserved, gets one warning, and so does each kept cur
    node filled from an earlier one (it may repeat its prev node's values).
    With ``subsample_unit`` "subject", the subsets are whole-subject draws
    of the frame's rows seeded from ``params``; with "row", subsets is None
    and the pipeline subsamples the frame's rows.
    """
    if subsample_unit not in ("subject", "row"):
        raise ValueError("subsample_unit must be 'subject' or 'row'")
    lay, p = data.layout, data.p
    forbidden = np.array(transition_mask(lay.variables, prior).forbidden)
    prev = {_variable_index(lay.variables, v, "prev_only") for v in prev_only}
    cur = {_variable_index(lay.variables, v, "cur_only") for v in cur_only}
    if prev & cur:
        v = lay.variables[min(prev & cur)]
        raise InvalidPrior(f"variable {v!r} is in both prev_only and cur_only")
    pinned = {p + i for i in prev} | cur
    fills = []  # per node, the (slice, slice read) pairs of its side
    for i in range(2 * p):
        v, side = lay.variables[i % p], i // p  # prev reads slices 0..T-2, cur 1..T-1
        fills.append([(k, lay.fill_slice(v, k)) for k in range(side, side + lay.slices - 1)])
        if i in pinned or all(j != k for k, j in fills[i]):
            forbidden[i, :] = forbidden[:, i] = True
    keep = np.flatnonzero(~(forbidden.all(axis=0) & forbidden.all(axis=1)))
    frame = reshape(data)
    for i in keep:
        late = [(k, j) for k, j in fills[i] if j > k]
        early = [(k, j) for k, j in fills[i] if j < k and i >= p]
        for when, reads in (("a later", late), ("an earlier", early)):
            if reads:
                log.warning(
                    "transition node %r reads %s slice: %r is unobserved at slice %d "
                    "and is filled from slice %d", frame.names[i], when, lay.variables[i % p],
                    *reads[0],
                )
    frame = Dataset([frame.columns[i] for i in keep], frame.values[:, keep])
    mask = ConstraintMask(len(keep), forbidden[np.ix_(keep, keep)])
    if subsample_unit == "row":
        return frame, mask, None
    rng = derived_rng(params.seed, SUBSAMPLE_LANE, 0)
    return frame, mask, subsample_subjects(frame, data.n_subjects, n_subsets, rng)


def run_longitudinal(
    data: LongitudinalDataset,
    params: SearchParams,
    prior=(),
    pi_sel: float = 0.6,
    n_subsets: int = 100,
    parallelism: int = 1,
    subsample_unit: str = "subject",
    prev_only=(),
    cur_only=(),
) -> tuple[PipelineResult, PipelineResult]:
    """Baseline and transition stability pipelines on longitudinal data.

    The baseline model searches the first slice under the prior's
    intra-slice mask; the transition model searches the reshaped slice pairs
    under the structural mask (see ``transition_problem``), both in one map.  ``prior`` lists
    forbidden intra-slice arcs by variable name and applies to both parts.
    ``subsample_unit`` is "subject" (draw whole subjects' reshaped rows) or
    "row" (subsample the reshaped rows directly).
    """
    t_params = replace(params, seed=derived_seed(params.seed, PIPELINE_LANE, 1))
    frame, mask, subsets = transition_problem(
        data, t_params, n_subsets, prior, subsample_unit, prev_only, cur_only
    )
    base = baseline_slice(data)
    base_params = replace(params, seed=derived_seed(params.seed, PIPELINE_LANE, 0))
    baseline, transition = run_pipelines(
        [(base, intra_slice_mask(base.names, prior), base_params, None),
         (frame, mask, t_params, subsets)],
        n_subsets, pi_sel, parallelism,
    )
    return baseline, transition
