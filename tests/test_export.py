"""Artifact writer tests: CSV layout, DOT labels, SVG structure, JSON."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from stablesearch.effects import EffectEstimate
from stablesearch.errors import InvalidPrior
from stablesearch.export import (
    _csv_line,
    annotated_dot,
    dataset_csv,
    effects_csv,
    graph_to_dict,
    prior_from_dict,
    read_json,
    roc_csv,
    stability_csv,
    stability_svg,
    write_json,
)
from stablesearch.scoring import load_dataset
from stablesearch.stability import CAUSAL_PATH, EDGE, AnnotatedCausalGraph, StabilityGraph


def make_sg(kind=EDGE, labels=("A", "B", "C")):
    probs = {
        (0, 1): np.array([0.0, 0.5, 1.0]),
        (0, 2): np.array([0.0, 0.25, 1.0]),
        (1, 2): np.array([0.0, 0.75, 1.0]),
    }
    return StabilityGraph(kind, labels, probs, np.array([False, True, False]))


def test_stability_csv_layout():
    text = stability_csv(make_sg())
    lines = text.splitlines()
    assert lines[0] == "kind,from,to,complexity,probability,imputed"
    assert lines[1] == "edge,A,B,0,0.0,false"
    assert lines[2] == "edge,A,B,1,0.5,true"
    assert lines[3] == "edge,A,B,2,1.0,false"
    # one row per (pair, complexity), plus the header
    assert len(lines) == 1 + 3 * 3
    assert text.endswith("\n")
    assert "\r" not in text
    # a graph with no pairs (one node) writes the header alone
    single = StabilityGraph(EDGE, ("A",), {}, np.array([False, True]))
    assert stability_csv(single) == lines[0] + "\n"
    assert "<polyline" not in stability_svg(single, 0.6, 1)


def test_stability_csv_key_order_does_not_matter():
    base = make_sg()
    shuffled = StabilityGraph(
        base.kind,
        base.labels,
        {k: base.probabilities[k] for k in [(1, 2), (0, 1), (0, 2)]},
        base.imputed,
    )
    assert stability_csv(base) == stability_csv(shuffled)


def test_csv_quoting():
    sg = make_sg(labels=('wei,rd', 'qu"ote', "plain"))
    lines = stability_csv(sg).splitlines()
    assert lines[1].startswith('edge,"wei,rd","qu""ote",0')


def field_per_field_csv(sg):
    """The writer stability_csv replaced: every field of every row quoted alone."""

    def field(value):
        text = str(value)
        if any(c in text for c in ',"\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    rows = [["kind", "from", "to", "complexity", "probability", "imputed"]]
    for a, b in sorted(sg.probabilities):
        for j, prob in enumerate(sg.probabilities[(a, b)]):
            flag = "true" if sg.imputed[j] else "false"
            rows.append([sg.kind, sg.labels[a], sg.labels[b], j, repr(float(prob)), flag])
    return "".join(",".join(field(f) for f in row) + "\n" for row in rows)


def random_sg(kind, labels, rng, length=13):
    p = len(labels)
    pairs = [(a, b) for a in range(p) for b in range(p) if a != b]
    if kind == EDGE:
        pairs = [(a, b) for a, b in pairs if a < b]
    probs = {key: rng.random(length) for key in pairs}
    probs[pairs[0]][:3] = [0.0, 1.0, 1 / 3][:length]
    return StabilityGraph(kind, labels, probs, rng.random(length) < 0.4)


def grid_sg(kind, labels, rng, length=13):
    """Curves as stability_graphs builds them: anchors on a k/12 grid,
    interpolated between, so values repeat within and across curves."""
    sg = random_sg(kind, labels, rng, length)
    grid = np.arange(length)
    probs = {
        key: np.interp(grid, grid[::3], rng.integers(0, 13, len(grid[::3])) / 12)
        for key in sg.probabilities
    }
    probs[min(probs)][:4] = [-0.0, 0.0, -0.0, 1 / 3][:length]
    return StabilityGraph(kind, labels, probs, sg.imputed)


@pytest.mark.parametrize("kind", [EDGE, CAUSAL_PATH])
def test_stability_csv_equals_per_field_writer(kind):
    labels = ('wei,rd', 'qu"ote', "plain", "X1_t")
    for make in (random_sg, grid_sg):
        sg = make(kind, labels, np.random.default_rng(12))
        assert sg.imputed.any() and not sg.imputed.all()
        assert stability_csv(sg) == field_per_field_csv(sg)
    values = np.concatenate(list(sg.probabilities.values()))
    assert len(np.unique(values)) < len(values) / 2
    rows = stability_csv(sg).splitlines()[1:5]
    assert [row.split(",")[-2] for row in rows] == ["-0.0", "0.0", "-0.0", repr(1 / 3)]


@pytest.mark.parametrize("length", [1, 2, 13])
def test_svg_points_equal_per_point_writer(length):
    max_j = length - 1
    # the chart's plot area: 720 x 440 with margins 60, 150, 30 and 50

    def x(j):
        return 60 + (j / max_j) * 510 if max_j else 60 + 510 / 2

    def y(v):
        return 30 + (1.0 - v) * 360

    for make in (random_sg, grid_sg):
        sg = make(CAUSAL_PATH, ('wei,rd', 'qu"ote', "plain"), np.random.default_rng(length), length)
        text = stability_svg(sg, pi_sel=0.5, pi_bic=length // 2)
        got = [line.split('"')[1] for line in text.splitlines() if line.startswith("<polyline")]
        want = [
            " ".join(f"{x(j):.1f},{y(v):.1f}" for j, v in enumerate(sg.probabilities[key]))
            for key in sorted(sg.probabilities)
        ]
        assert got == want


def scanned_label_ys(sg, pi_sel, pi_bic):
    """Label y's as the chart placed them before its bisect search: each label
    starts at its curve's end and moves down 12 px while any placed one is
    nearer than 12."""
    placed = []
    for key, reliability in sg.reliability(pi_bic).items():
        if reliability >= pi_sel:
            label_y = 30 + (1.0 - sg.probabilities[key][-1]) * 360
            while any(abs(label_y - other) < 12 for other in placed):
                label_y += 12
            placed.append(label_y)
    return [f"{v + 4:.1f}" for v in placed]


@pytest.mark.parametrize("seed", range(4))
def test_svg_label_ys_equal_the_scanning_writer(seed):
    # many relevant curves ending on a few probabilities, so labels pile up
    rng = np.random.default_rng(seed)
    sg = grid_sg(CAUSAL_PATH, tuple(f"V{i}" for i in range(9)), rng)
    for curve in sg.probabilities.values():
        curve[-1] = rng.choice([1.0, 11 / 12, 0.95, 0.5, 0.49, 0.0])
        curve[0] = rng.choice([0.7, 1.0])
    got = [
        line.split('y="')[1].split('"')[0]
        for line in stability_svg(sg, 0.6, 0).splitlines()
        if line.startswith("<text") and 'fill="#' in line
    ]
    assert len(got) > 30
    assert got == scanned_label_ys(sg, 0.6, 0)


def test_effects_csv_rows_sorted_and_none_blank():
    ests = [
        EffectEstimate(2, 0, 0.31, None, 4),
        EffectEstimate(0, 2, 0.7071, 0.5, 12),
    ]
    lines = effects_csv(ests, ("A", "B", "C")).splitlines()
    assert lines[0] == "source,target,median,standardized,n_values"
    assert lines[1] == "A,C,0.7071,0.5,12"
    assert lines[2] == "C,A,0.31,,4"


def test_roc_csv():
    text = roc_csv([(0.0, 0.0), (0.25, 1.0), (1.0, 1.0)])
    assert text == "fpr,tpr\n0.0,0.0\n0.25,1.0\n1.0,1.0\n"


def make_graph():
    return AnnotatedCausalGraph(
        3,
        ("A", "B", "C"),
        {(0, 1): 1.0, (1, 2): 0.8},
        {(0, 2): 0.65},
        {(0, 1): 0.714},
    )


def test_annotated_dot_labels():
    text = annotated_dot(make_graph())
    assert text.startswith("digraph G {")
    assert '"A" -> "B" [label="1/0.71"];' in text
    assert '"B" -> "C" [label="0.8"];' in text
    assert '"A" -- "C" [dir=none, label="0.65"];' in text
    assert text.endswith("}\n")
    # every node declared even if isolated
    for name in ("A", "B", "C"):
        assert f'"{name}";' in text
    # a DOT ID escapes its quotes and backslashes
    graph = make_graph()
    odd = AnnotatedCausalGraph(3, ('q"t', "R&D", "a\\b"), graph.directed,
                               graph.undirected, graph.effects)
    lines = annotated_dot(odd).splitlines()
    assert lines[1:4] == ['  "q\\"t";', '  "R&D";', '  "a\\\\b";']
    assert '  "q\\"t" -> "R&D" [label="1/0.71"];' in lines
    assert '  "q\\"t" -- "a\\\\b" [dir=none, label="0.65"];' in lines


def test_annotated_dot_isolated_nodes():
    graph = AnnotatedCausalGraph(2, ("X1", "X2"), {}, {}, {})
    text = annotated_dot(graph)
    assert '"X1";' in text and '"X2";' in text
    assert "->" not in text and "--" not in text


def test_graph_dict_roundtrip():
    obj = json.loads(json.dumps(graph_to_dict(make_graph())))
    assert obj == {
        "labels": ["A", "B", "C"],
        "directed": [[0, 1, 1.0], [1, 2, 0.8]],
        "undirected": [[0, 2, 0.65]],
        "effects": [[0, 1, 0.714]],
    }


def test_svg_is_wellformed_and_highlights_relevant():
    for kind, sep in ((EDGE, "-"), (CAUSAL_PATH, ">")):
        labels = ("R&D", "x<y", 'q"t', "a>b", "c]]")
        sg = random_sg(kind, labels, np.random.default_rng(3), length=4)
        root = ET.fromstring(stability_svg(sg, pi_sel=0.01, pi_bic=3))
        names = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
        assert {f"{labels[a]}{sep}{labels[b]}" for a, b in sg.probabilities} <= names

    sg = make_sg()
    text = stability_svg(sg, pi_sel=0.6, pi_bic=1)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    body = text
    # one polyline per pair
    assert body.count("<polyline") == 3
    # only (1, 2) reaches 0.75 >= 0.6 inside the complexity window [0, 1]
    assert body.count('stroke-width="2"') == 1
    assert body.count('stroke="#cccccc"') == 2
    assert ">B-C</text>" in body
    assert "A-B" not in body.replace("B-C", "")
    # shaded acceptance region and dashed threshold line
    assert '#dce9f5' in body
    assert 'stroke-dasharray' in body


def test_svg_path_arrow_labels():
    sg = make_sg(kind=CAUSAL_PATH)
    text = stability_svg(sg, pi_sel=0.2, pi_bic=2)
    assert ">A&gt;B</text>" in text or ">A>B</text>" in text


def test_svg_deterministic():
    a = stability_svg(make_sg(), 0.6, 2)
    b = stability_svg(make_sg(), 0.6, 2)
    assert a == b


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(7, 3))
    text = dataset_csv(("A", "B", "C"), values)
    path = tmp_path / "d.csv"
    path.write_text(text)
    data = load_dataset(path)
    assert data.names == ("A", "B", "C")
    # repr() floats survive the trip exactly
    assert np.array_equal(data.values, values)


def per_field_dataset_csv(names, values):
    """Reference writer: every cell through the quoting check."""
    out = [_csv_line(names)]
    for row in values:
        out.append(_csv_line([repr(float(v)) for v in row]))
    return "".join(out)


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_dataset_csv_matches_the_per_field_writer(rows):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-7, 1e16, 1e20, -1e20, 0.1]
    values = np.resize(np.array(special), (rows, len(special)))
    if rows:
        values[-1] = np.random.default_rng(rows).normal(size=len(special)) * 1e9
    names = [f"c{j}" for j in range(len(special) - 1)] + ['odd, "name"']
    text = dataset_csv(names, values)
    assert text == per_field_dataset_csv(names, values)
    assert text.count("\n") == rows + 1


def test_json_helpers(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": 1, "a": [2.5, "z"]})
    raw = path.read_text()
    assert raw.index('"a"') < raw.index('"b"')
    assert raw.endswith("\n")
    assert read_json(path) == {"b": 1, "a": [2.5, "z"]}


def test_prior_dict_parsing():
    prior = prior_from_dict({"forbidden": [["A", "B"], ("C", "A")]})
    assert prior == [("A", "B"), ("C", "A")]
    with pytest.raises(InvalidPrior):
        prior_from_dict(["A", "B"])
    with pytest.raises(InvalidPrior):
        prior_from_dict({"forbidden": [["A", "B", "C"]]})
    with pytest.raises(InvalidPrior):
        prior_from_dict({"allowed": []})
    for forbidden in (5, None):
        with pytest.raises(InvalidPrior, match="^bad prior: forbidden must be a list"):
            prior_from_dict({"forbidden": forbidden})
