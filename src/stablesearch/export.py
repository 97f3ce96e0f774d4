"""Artifact writers: CSV tables, annotated DOT graphs, SVG charts, JSON.

All writers are deterministic: fixed row orderings, repr() for floats, and
LF line endings, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from bisect import bisect_left

import numpy as np

from .errors import InvalidPrior, require
from .stability import EDGE, AnnotatedCausalGraph, StabilityGraph


def _csv_field(value) -> str:
    text = str(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(fields) -> str:
    return ",".join(_csv_field(f) for f in fields) + "\n"


def _formatted(values: np.ndarray, fmt) -> np.ndarray:
    """fmt applied once per distinct float, taken by its bits (0.0 and -0.0
    print differently), as an object array of values' shape."""
    bits = values.view(np.int64)
    distinct = np.unique(bits)
    text = np.array([fmt(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[np.searchsorted(distinct, bits)]


def stability_csv(sg: StabilityGraph) -> str:
    """Long-format table: kind, from, to, complexity, probability, imputed."""
    header = _csv_line(["kind", "from", "to", "complexity", "probability", "imputed"])
    keys, curves = sg.stacked()
    kind = _csv_field(sg.kind)
    labels = [_csv_field(name) for name in sg.labels]
    cells = np.empty(curves.shape + (4,), dtype=object)
    heads = [f"{kind},{labels[a]},{labels[b]}," for a, b in keys]
    cells[..., 0] = np.array(heads, dtype=object)[:, None]
    cells[..., 1] = [f"{j}," for j in range(curves.shape[1])]
    cells[..., 2] = _formatted(curves, repr)
    cells[..., 3] = [",true\n" if flag else ",false\n" for flag in sg.imputed]
    return header + "".join(cells.ravel().tolist())


def effects_csv(estimates, labels) -> str:
    """One row per estimated causal path."""
    out = [_csv_line(["source", "target", "median", "standardized", "n_values"])]
    ordered = sorted(estimates, key=lambda e: (e.source, e.target))
    for est in ordered:
        out.append(
            _csv_line(
                [
                    labels[est.source],
                    labels[est.target],
                    repr(float(est.median)),
                    "" if est.standardized is None else repr(float(est.standardized)),
                    est.n_values,
                ]
            )
        )
    return "".join(out)


def roc_csv(points) -> str:
    out = [_csv_line(["fpr", "tpr"])]
    for fpr, tpr in points:
        out.append(_csv_line([repr(float(fpr)), repr(float(tpr))]))
    return "".join(out)


def _edge_label(reliability: float, effect: float | None) -> str:
    text = f"{reliability:g}"
    if effect is not None:
        text += f"/{effect:.2f}"
    return text


def _dot_id(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def annotated_dot(graph: AnnotatedCausalGraph) -> str:
    """DOT text with reliability/effect labels, e.g. ``label="1/0.71"``."""
    ids = [_dot_id(name) for name in graph.labels]
    lines = ["digraph G {"]
    lines.extend(f"  {node};" for node in ids)
    for a, b in sorted(graph.directed):
        label = _edge_label(graph.directed[(a, b)], graph.effects.get((a, b)))
        lines.append(f'  {ids[a]} -> {ids[b]} [label="{label}"];')
    for a, b in sorted(graph.undirected):
        label = _edge_label(graph.undirected[(a, b)], None)
        lines.append(f'  {ids[a]} -- {ids[b]} [dir=none, label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dict(graph: AnnotatedCausalGraph) -> dict:
    return {
        "labels": list(graph.labels),
        "directed": [
            [a, b, rel] for (a, b), rel in sorted(graph.directed.items())
        ],
        "undirected": [
            [a, b, rel] for (a, b), rel in sorted(graph.undirected.items())
        ],
        "effects": [
            [a, b, val] for (a, b), val in sorted(graph.effects.items())
        ],
    }


def _svg_text(label: str) -> str:
    # "]" too, as a label ending in "]]" before the ">" separator would
    # write "]]>", which XML text may not contain
    return label.replace("&", "&amp;").replace("<", "&lt;").replace("]", "&#93;")


PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def stability_svg(sg: StabilityGraph, pi_sel: float, pi_bic: int) -> str:
    """Self-contained line chart of every stability curve.

    The shaded box marks the acceptance region: complexities up to the BIC
    pick, probability at or above the selection threshold.  Curves that
    enter it are colored and labeled, the rest stay gray.
    """
    width, height = 720, 440
    left, right, top, bottom = 60, 150, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    max_j = sg.max_complexity

    def x(j: float) -> float:
        return left + (j / max_j) * plot_w if max_j else left + plot_w / 2

    def y(p: float) -> float:
        return top + (1.0 - p) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    window_j = min(pi_bic, max_j)
    parts.append(
        f'<rect x="{x(0):.1f}" y="{y(1.0):.1f}" '
        f'width="{x(window_j) - x(0):.1f}" '
        f'height="{y(pi_sel) - y(1.0):.1f}" fill="#dce9f5"/>'
    )
    # axes and ticks
    parts.append(
        f'<line x1="{left}" y1="{y(0):.1f}" x2="{left + plot_w}" '
        f'y2="{y(0):.1f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{y(0):.1f}" x2="{left}" y2="{top}" stroke="black"/>'
    )
    for tick in np.linspace(0.0, 1.0, 6):
        parts.append(
            f'<text x="{left - 8}" y="{y(tick) + 4:.1f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{tick:.1f}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{y(tick):.1f}" x2="{left}" '
            f'y2="{y(tick):.1f}" stroke="black"/>'
        )
    step = 1 if max_j <= 20 else max(1, max_j // 10)
    for j in range(0, max_j + 1, step):
        parts.append(
            f'<text x="{x(j):.1f}" y="{y(0) + 16:.1f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{j}</text>'
        )
        parts.append(
            f'<line x1="{x(j):.1f}" y1="{y(0):.1f}" x2="{x(j):.1f}" '
            f'y2="{y(0) + 4:.1f}" stroke="black"/>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">model complexity</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">selection probability</text>'
    )
    parts.append(
        f'<line x1="{x(0):.1f}" y1="{y(pi_sel):.1f}" x2="{x(max_j):.1f}" '
        f'y2="{y(pi_sel):.1f}" stroke="#888888" stroke-dasharray="4 3"/>'
    )

    keys, curves = sg.stacked()
    ys = top + (1.0 - curves) * plot_h  # the same doubles as y(curve)
    points = np.empty(curves.shape + (2,), dtype=object)
    points[..., 0] = [f"{' ' if j else ''}{x(j):.1f}," for j in range(max_j + 1)]
    points[..., 1] = _formatted(ys, "{:.1f}".format)
    sep = "-" if sg.kind == EDGE else ">"
    color_i = 0
    labeled_y: list[float] = []  # sorted; placed labels lie 12 px or more apart
    reliability = sg.reliability(pi_bic)
    rows = points.reshape(len(keys), 2 * (max_j + 1)).tolist()
    for key, row, label_y in zip(keys, rows, ys[:, -1].tolist()):
        pts = "".join(row)
        if reliability[key] >= pi_sel:
            color = PALETTE[color_i % len(PALETTE)]
            color_i += 1
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
            a, b = key
            at = bisect_left(labeled_y, label_y)
            while any(abs(label_y - o) < 12 for o in labeled_y[max(at - 1, 0) : at + 1]):
                label_y += 12
                at = bisect_left(labeled_y, label_y, at)
            labeled_y.insert(at, label_y)
            parts.append(
                f'<text x="{left + plot_w + 6}" y="{label_y + 4:.1f}" '
                f'font-size="11" font-family="sans-serif" fill="{color}">'
                f"{_svg_text(sg.labels[a])}{sep}{_svg_text(sg.labels[b])}</text>"
            )
        else:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="#cccccc" '
                f'stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def dataset_csv(names, values) -> str:
    # a float's repr holds no comma, quote or newline, so no cell needs quoting
    rows = np.asarray(values, dtype=float).tolist()
    return _csv_line(names) + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            exc.reason += f" in {path}"
            raise
        except json.JSONDecodeError as exc:
            exc.args = (f"{exc} in {path}",)
            raise


def prior_from_dict(obj) -> list[tuple[str, str]]:
    """Parse ``{"forbidden": [["A", "B"], ...]}`` into name pairs."""
    try:
        require("prior", obj, {"forbidden": [(str, str)]})
    except ValueError as exc:
        raise InvalidPrior(f"bad prior: {exc}") from exc
    return [tuple(entry) for entry in obj["forbidden"]]
