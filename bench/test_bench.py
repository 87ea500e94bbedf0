"""The benchmark's own tests: its oracles, its negative controls, cold passes.

    python3 -m pytest -q bench/test_bench.py

The negative controls feed each workload's check a wrong output and require
the check to reject it, so a passing benchmark run says something.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SEEDS = W.Seeds()


@pytest.fixture
def m():
    return W.load_mucone(SRC)


# -- the independent counts, against brute force -------------------------------


def _inside_polygon(ring, x, y):
    n = len(ring)
    return all((ring[(i + 1) % n][0] - ring[i][0]) * (y - ring[i][1])
               - (ring[(i + 1) % n][1] - ring[i][1]) * (x - ring[i][0]) >= 0
               for i in range(n))


@pytest.mark.parametrize("shift", range(6))
def test_pick_count_matches_brute_force(shift):
    for name, verts, count in W.dilate_families(W.Seeds(shift)):
        pts = verts(2)
        if len(pts[0]) != 2:
            continue
        ring = W._hull_order(pts)
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        brute = sum(_inside_polygon(ring, x, y)
                    for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1))
        assert count(2) == W.pick_count(pts) == brute, name


@pytest.mark.parametrize("t", [1, 2, 3, 5])
def test_ehrhart_closed_forms_match_brute_force(t):
    cube = list(itertools.product(range(-t, 3 * t + 1), repeat=3))
    assert W.simplex_count(3, t) == sum(min(p) >= 0 and sum(p) <= t for p in cube)
    assert W.box_count((2, 1, 3), t) == sum(
        0 <= x <= 2 * t and 0 <= y <= t and 0 <= z <= 3 * t for x, y, z in cube)
    assert W.cross_polytope3_count(t) == sum(sum(map(abs, p)) <= t for p in cube)
    assert W.simplex_count(2, t) == (t + 1) * (t + 2) // 2


def test_mu0_closed_forms_on_known_cones(m):
    """The 2D closed form and the orthant value, on cones with known mu0."""
    V, C = m.linalg.Vector, m.geometry.Cone
    std, second = W.gram_maps(m, 2)
    orthant = C([V([1, 0]), V([0, 1])])
    assert W.mu0_closed_form(orthant, std, True) == Fraction(1, 4)
    skew = C([V([1, 0]), V([1, 1])])
    # <w1,w2> = 1, |w1|^2 = 1, |w2|^2 = 2: 1/4 - (1/12)(1 + 1/2)
    assert W.mu0_closed_form(skew, std, True) == Fraction(1, 8)
    assert W.mu0_closed_form(C([V([2, 3])]), second, False) == Fraction(1, 2)
    assert W.mu0_closed_form(C([V([1, 1, 0]), V([0, 0, 1])]), W.gram_maps(m, 3)[0],
                             True) is None


# -- negative controls -------------------------------------------------------------


def _verify_op(m, name):
    p = next(p for p in W.polytope_corpus(m, SEEDS) if p.name == name)
    return (p, W.gram_maps(m, p.ambient)[1], SEEDS.direction)


@pytest.mark.parametrize("name", ["tri-skew", "square"])
def test_verify_check_rejects_a_corrupted_mu_table(m, name):
    op = _verify_op(m, name)
    p, cmap, seed = op
    table = m.interp.mu_table(p, cmap, W.VERIFY_ORDER)
    assert W.VerifyCorpus.check(op, m.valuations.verify_interpolator(
        p, cmap, order=W.VERIFY_ORDER, seed=seed, table=table)) is None
    entries = list(table.entries)
    face, val = next((f, v) for f, v in entries if f.dim == 0)
    bumped = val.series + m.series.MultiSeries.constant(
        Fraction(1, 7), val.series.nvars, val.series.order)
    entries[entries.index((face, val))] = (
        face, m.interp.MuValue(val.cone, val.map_key, val.order, bumped, val.provenance))
    bad = m.interp.MuTable(p, table.map_key, table.order, entries)
    rep = m.valuations.verify_interpolator(p, cmap, order=W.VERIFY_ORDER, seed=seed,
                                           table=bad)
    assert W.VerifyCorpus.check(op, rep) is not None


def test_verify_check_rejects_a_wrong_lattice_count(m):
    """Both sides agreeing is not enough: their t^0 term must be the count."""
    op = _verify_op(m, "rect-3x2")
    rep = W.VerifyCorpus.call(m, op)
    assert W.VerifyCorpus.check(op, rep) is None
    wrong_box = (m.geometry.Polytope([m.linalg.Vector(list(v)) for v in
                                      [(0, 0), (3, 0), (3, 3), (0, 3)]], name="sq"),) + op[1:]
    assert W.VerifyCorpus.check(wrong_box, rep) is not None


def test_count_check_rejects_an_off_by_one_count(m):
    ops = [op for op in W.CountDilates.setup(m, SEEDS) if op[0].name == "box-2x1x3-2"]
    outputs = [W.CountDilates.call(m, op) for op in ops]
    assert len(ops) == 2 and W.CountDilates.check_pass(ops, outputs) == []
    assert W.CountDilates.check(ops[0], outputs[0] + 1) is not None
    assert W.CountDilates.check(ops[0], outputs[0] - 1) is not None
    # one map off by one: also caught as a disagreement between the maps
    assert len(W.CountDilates.check_pass(ops, [outputs[0], outputs[1] + 1])) == 2


def test_mu_check_rejects_a_perturbed_coefficient(m):
    ops = W.MuCrossval.setup(m, SEEDS)
    op = next(op for op in ops if len(op[0].generators) == 2 and op[0].ambient == 2)
    a, b = W.MuCrossval.call(m, op)
    assert W.MuCrossval.check(op, (a, b)) is None
    coeffs = dict(b.series.coeffs)
    expo = max(coeffs)
    coeffs[expo] += Fraction(1, 1000)
    perturbed = m.interp.MuValue(b.cone, b.map_key, b.order,
                                 m.series.MultiSeries(b.series.nvars, b.series.order, coeffs),
                                 b.provenance)
    assert W.MuCrossval.check(op, (a, perturbed)) is not None
    # both pipelines shifted alike still miss the closed form for mu0
    shift = m.series.MultiSeries.constant(Fraction(1, 1000), a.series.nvars, a.series.order)
    both = [m.interp.MuValue(v.cone, v.map_key, v.order, v.series + shift, v.provenance)
            for v in (a, b)]
    assert W.MuCrossval.check(op, tuple(both)) is not None


# -- passes start cold -------------------------------------------------------------


def _counts(tracer):
    values = tracer.metrics(0.0)
    return {k: values[k] for k, unit in PER_LAYER.items() if unit == "count"}


def _traced_pass(workload):
    tracer = Tracer()
    m = W.load_mucone(SRC)
    tracer.install(m)
    ops = workload.setup(m, SEEDS)
    outputs, errors = W.run_pass(m, workload, ops)
    assert not errors and not workload.check_pass(ops, outputs)
    return tracer


@pytest.fixture
def few_dilates(monkeypatch):
    monkeypatch.setattr(W, "DILATES", 3)


def test_passes_start_cold(few_dilates):
    """Two fresh passes repeat every count exactly: no warm cache leaks."""
    first = _counts(_traced_pass(W.CountDilates))
    second = _counts(_traced_pass(W.CountDilates))
    assert first == second
    assert first["interp.mu_calls"] > 0 and first["interp.reduce_calls"] > 0


def test_a_warm_pass_shows_in_the_counts(few_dilates):
    """The control for the test above: a second pass in the same import,
    with its mu cache warm, computes less."""
    tracer = Tracer()
    m = W.load_mucone(SRC)
    tracer.install(m)
    ops = W.CountDilates.setup(m, SEEDS)
    W.run_pass(m, W.CountDilates, ops)
    cold = _counts(tracer)
    W.run_pass(m, W.CountDilates, W.CountDilates.setup(m, SEEDS))
    warm = {k: v - cold[k] for k, v in _counts(tracer).items()}
    assert warm["interp.reduce_calls"] < cold["interp.reduce_calls"]
    assert warm["geometry.subdivide_calls"] < cold["geometry.subdivide_calls"]
