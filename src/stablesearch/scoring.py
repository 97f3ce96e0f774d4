"""Linear-Gaussian SEM scoring: ML fit of DAGs against a sample covariance.

Maximum likelihood for a linear-Gaussian DAG model decomposes per node into a
least-squares regression of the node on its parents, solvable from covariance
blocks alone.  At the optimum, with coefficient matrix C (row j holds node
j's weights) and residual variances psi, the implied covariance
Sigma = (I-C)^-1 diag(psi) (I-C)^-T satisfies ln|Sigma| = sum_j ln psi_j and
tr(S Sigma^-1) = p, so the deviance reduces to
chi_square = (n-1) * (sum_j ln psi_j - ln|S|) with no matrix inversion.
Scorer computes it for whole batches of adjacency matrices, each scored under
its own covariance of a stack (one per search), reading fits on at most one
parent from a closed-form table (small_fits) and the rest from log_psi, the
one ln psi kernel (a stacked solve per parent count, which exact_front's local
scores share); fit_dag_ml is its call on one DAG.  FitResult.scored adds
BIC's k ln n for k arcs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, ShapeMismatch
from .graphs import Dag, arc_matrix

CONTINUOUS = "continuous"
DISCRETE = "discrete"

MAX_CONDITION = 1e12

INFEASIBLE = float("inf")  # the chi-square of a degenerate fit


@dataclass(frozen=True)
class Column:
    name: str
    kind: str = CONTINUOUS

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"unknown column kind {self.kind!r}")


class Dataset:
    """Complete numeric data matrix with named, kinded columns."""

    __slots__ = ("columns", "values")

    def __init__(self, columns, values):
        values = np.array(values, dtype=float, order="C")
        if values.ndim != 2:
            raise ShapeMismatch("values must be a 2-d matrix")
        cols = tuple(c if isinstance(c, Column) else Column(str(c)) for c in columns)
        if values.shape[1] != len(cols):
            raise ShapeMismatch(
                f"{len(cols)} columns declared but values have {values.shape[1]}"
            )
        if len({c.name for c in cols}) != len(cols):
            raise ShapeMismatch(f"duplicate column names in {[c.name for c in cols]}")
        if not np.all(np.isfinite(values)):
            raise DegenerateData("data contains missing or non-finite values")
        self.columns = cols
        self.values = values
        self.values.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def kinds(self) -> tuple[str, ...]:
        return tuple(c.kind for c in self.columns)

    def take_rows(self, idx) -> "Dataset":
        return Dataset(self.columns, self.values[np.asarray(idx)])


def rank_normalize(data: Dataset) -> Dataset:
    """Replace discrete columns by standardized midranks.

    Continuous columns pass through untouched; kinds are preserved so that
    effect standardization can still tell the two apart.
    """
    values = np.array(data.values, copy=True)
    for j, col in enumerate(data.columns):
        if col.kind != DISCRETE:
            continue
        _, inv, counts = np.unique(values[:, j], return_inverse=True, return_counts=True)
        ranks = (np.cumsum(counts) - (counts - 1) / 2)[inv]  # midranks
        sd = ranks.std(ddof=1)
        if sd == 0:
            raise DegenerateData(f"discrete column {col.name!r} is constant")
        values[:, j] = (ranks - ranks.mean()) / sd
    return Dataset(data.columns, values)


def load_dataset(csv_path, kinds: dict[str, str] | None = None) -> Dataset:
    """Read a header+rows CSV; `kinds` maps column name -> kind (default continuous)."""
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.reader(fh.readlines())
        except UnicodeDecodeError as exc:
            raise DegenerateData(f"{csv_path}: {exc}") from None
        try:
            header = next(reader)
        except StopIteration:
            raise DegenerateData(f"{csv_path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ShapeMismatch(f"{csv_path}:{lineno}: wrong field count")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise DegenerateData(f"{csv_path}:{lineno}: {exc}") from None
    if not rows:
        raise DegenerateData(f"{csv_path}: no data rows")
    kinds = kinds or {}
    unknown = set(kinds) - set(header)
    if unknown:
        raise ShapeMismatch(f"kind declared for unknown columns {sorted(unknown)}")
    cols = [Column(name, kinds.get(name, CONTINUOUS)) for name in header]
    return Dataset(cols, np.array(rows))


def is_singular(block: np.ndarray) -> bool:
    """Whether covariance `block` is numerically singular: a variance is not
    positive, or the correlation matrix (free of units) is ill conditioned."""
    sd = np.sqrt(np.diag(block))
    return not np.all(sd > 0) or np.linalg.cond(block / np.outer(sd, sd)) > MAX_CONDITION


def sample_covariance(data: Dataset) -> np.ndarray:
    """Unbiased (n-1 divisor) sample covariance of the dataset.

    Fewer than p+2 rows, a column whose products overflow, columns constant
    up to rounding and numerically singular matrices raise DegenerateData;
    a singular one names its collinear columns.
    """
    n, p = data.values.shape
    if n < p + 2:
        raise DegenerateData(f"need at least p+2={p + 2} rows, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.atleast_2d(np.cov(data.values, rowvar=False, ddof=1))
    if not np.isfinite(cov).all():
        bad = data.columns[int(np.argmin(np.isfinite(cov).all(axis=0)))].name
        raise DegenerateData(f"column {bad!r} overflows the sample covariance")
    cov = (cov + cov.T) / 2.0
    sd = np.sqrt(np.diag(cov))
    # a spread at rounding level of the column's magnitude is no variance
    flat = sd <= n * np.finfo(float).eps * np.abs(data.values).max(axis=0)
    if np.any(flat):
        bad = data.columns[int(np.argmax(flat))].name
        raise DegenerateData(f"column {bad!r} has zero variance")
    if is_singular(cov):
        # the columns in the correlation's near-null direction are collinear
        _, vecs = np.linalg.eigh(cov / np.outer(sd, sd))
        names = [c.name for c, w in zip(data.columns, vecs[:, 0]) if abs(w) > 1e-3]
        raise DegenerateData(
            f"sample covariance is numerically singular: columns "
            f"{', '.join(map(repr, names))} are collinear"
        )
    return cov


@dataclass(frozen=True)
class FitResult:
    chi_square: float
    complexity: int
    bic: float

    @classmethod
    def scored(cls, chi_square: float, complexity: int, n: int) -> "FitResult":
        """The fit of a model with `complexity` arcs on n rows, with its BIC."""
        return cls(chi_square, complexity, chi_square + complexity * float(np.log(n)))


def log_psi(covs: np.ndarray, search: np.ndarray, heads: np.ndarray,
            parents: np.ndarray) -> np.ndarray:
    """ln psi, the residual variance of node heads[i] regressed on the parents
    in row i of the (m, c) array under covariance covs[search[i]] of the
    (S, p, p) stack, by one stacked solve; +inf where the parent block is
    singular or the residual is not positive and finite.  A singular block
    fails the whole stack, so a failed stack is solved again row by row."""
    at = search[:, None]
    rhs = covs[at, parents, heads[:, None]]
    blocks = covs[at[:, :, None], parents[:, :, None], parents[:, None, :]]
    try:
        coef = np.linalg.solve(blocks, rhs[..., None])
    except np.linalg.LinAlgError:
        if len(heads) == 1:
            return np.array([INFEASIBLE])
        return np.concatenate([log_psi(covs, search[i : i + 1], heads[i : i + 1],
                                       parents[i : i + 1]) for i in range(len(heads))])
    resid = covs[search, heads, heads] - (rhs[:, None, :] @ coef)[:, 0, 0]  # rounds as rhs @ b does
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((resid > 0) & np.isfinite(resid), np.log(resid), INFEASIBLE)


def small_fits(covs: np.ndarray) -> np.ndarray:
    """ln psi of node j on parent a at [s, a, j] under covs[s] of the (S, p, p)
    stack, on no parent at [s, p, j]; +inf on the diagonal and where the fit
    degenerates.  A 1x1 solve is one division and a one-element dot one
    product: the same floats a solve gives."""
    p = covs.shape[1]
    var = np.diagonal(covs, axis1=1, axis2=2)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = np.concatenate([var - covs * (covs / var.transpose(0, 2, 1)), var], axis=1)
        table = np.where((resid > 0) & np.isfinite(resid), np.log(resid), INFEASIBLE)
    table[:, np.arange(p), np.arange(p)] = INFEASIBLE
    return table


NOT_DEFINITE = "covariance is not positive definite"


def definite(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per covariance of an (S, p, p) stack: whether it is positive definite,
    read from its determinant's sign only, and its log determinant."""
    sign, logdet = np.linalg.slogdet(covs)
    return sign > 0, logdet


class Scorer:
    """Chi-square scoring of whole batches, one ln psi per (search, node, parents).

    Search s scores against covs[s] of an (S, p, p) stack, from ns[s] rows.
    The chi-square decomposes over nodes: a fit on at most one parent is read
    from the small_fits table, others from a dict per (search, node) keyed by
    the parent column's packed bits (_packed).  A call's missing keys are
    scored by log_psi, one stacked solve per parent count over every search.
    Every covariance must pass definite().
    """

    def __init__(self, covs: np.ndarray, ns):
        ok, self.logdet_s = definite(covs)
        if not ok.all():
            raise DegenerateData(NOT_DEFINITE)
        self.covs = covs
        self.ns = np.asarray(ns)
        self.small_fits = small_fits(covs)
        # at s * p + j: node j's packed column of 2+ parents -> ln psi under covs[s]
        self.fits: list[dict[bytes, float]] = [{} for _ in range(covs.shape[0] * covs.shape[1])]

    def chi_squares(self, adjs: np.ndarray, search: np.ndarray) -> np.ndarray:
        """Chi-square per matrix of an (N, p, p) batch, matrix i scored under
        search[i]; +inf for degenerate fits."""
        p = adjs.shape[1]
        # [r, j]: node j's parent count in matrix r, and the sum of their
        # indices (its parent, if one), by one float32 matmul: exact here, and
        # faster than boolean reductions
        weights = np.stack((np.ones(p), np.arange(p))).astype(np.float32)
        counted = np.matmul(weights, adjs.astype(np.float32)).astype(np.int64)
        in_degree = counted[:, 0]
        parent = np.where(in_degree == 1, counted[:, 1], p)
        logs = self.small_fits[search[:, None], parent, np.arange(p)]
        rows, nodes = np.nonzero(in_degree >= 2)  # the fits the table cannot score
        slots = (search[rows] * p + nodes).tolist()  # the fits dict of each (search, node)
        keys, fits = _packed(adjs[rows, :, nodes]), self.fits
        vals = [fits[slot].get(key) for slot, key in zip(slots, keys)]
        if None in vals:  # new keys: one kernel call per parent count, each key once
            new = {(slots[i], keys[i]): i for i, val in enumerate(vals) if val is None}
            first = np.fromiter(new.values(), np.int64, len(new))
            counts = in_degree[rows[first], nodes[first]]
            for c in sorted(set(counts.tolist())):  # not np.unique: its first call takes ~12 ms
                at = first[counts == c]
                parents = np.nonzero(adjs[rows[at], :, nodes[at]])[1].reshape(-1, c)
                psis = log_psi(self.covs, search[rows[at]], nodes[at], parents)
                for i, val in zip(at.tolist(), psis.tolist()):
                    fits[slots[i]][keys[i]] = val
            vals = [fits[slot][key] for slot, key in zip(slots, keys)]
        logs[rows, nodes] = vals
        total = np.cumsum(logs, axis=1)[:, -1]  # in node order, as a scalar running sum adds
        return np.maximum((self.ns[search] - 1) * (total - self.logdet_s[search]), 0.0)


def _packed(bits: np.ndarray) -> list[bytes]:
    """One bytes per row of a 2-d boolean array: the row's packed bits."""
    flat = np.ascontiguousarray(np.packbits(bits, axis=1))  # C order for the view
    return flat.view(f"V{flat.shape[1]}").ravel().tolist()


def fit_dag_ml(dag: Dag, cov: np.ndarray, n: int) -> FitResult:
    """ML fit of the DAG against covariance `cov` computed from n rows: the
    scorer's chi-square of its one adjacency matrix."""
    p = cov.shape[0]
    if dag.n_nodes != p:
        raise ShapeMismatch(f"dag has {dag.n_nodes} nodes, covariance is {p}x{p}")
    scorer = Scorer(cov[None], (n,))
    chi = scorer.chi_squares(arc_matrix(p, dag.arcs)[None], np.zeros(1, int)).item()
    if chi == INFEASIBLE:
        raise DegenerateData("a node's regression on its parents is degenerate")
    return FitResult.scored(chi, len(dag.arcs), n)
