"""The pair distance that the det sphere and the area ball declare: each
closed form against a pure-Python reference bit for bit, its exact
symmetry, the witness scan below it, the numpy calls it avoids, and
``eval_phi`` and everything that reads it taking it without a witness
scan."""

from __future__ import annotations

import ast
import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import area_phi_reference, det_phi_reference, hexes
from twometric import (WitnessSet, area_ball_space, det_sphere_space, quasi_from_two_metric,
                       sphere_witnesses, witness_refinement_gap)
from twometric import core, spaces
from twometric.core import eval_phi

SPACES = {
    "det-sphere": (det_sphere_space, det_phi_reference),
    **{f"area-ball-{dim}": (lambda dim=dim: area_ball_space(dim), area_phi_reference)
       for dim in (2, 3, 5, 9)},
}


def pairs(name, count=400, seed=0):
    """The space, its reference, and two stacks of points: sampled pairs,
    then pairs of one point, of a point and its negative, of a point and a
    neighbour 1e-9 away, with signed zeros, and with a NaN coordinate."""
    make, reference = SPACES[name]
    space = make()
    rng = np.random.default_rng(seed)
    X, Y = (space.sample(rng, count) for _ in range(2))
    x = X[0]
    near = x + 1e-9 * rng.normal(size=x.shape)
    zero = np.zeros_like(x)
    signed = zero.copy()
    signed[0] = -0.0
    nan = x.copy()
    nan[-1] = np.nan
    X = np.concatenate([X, [x, x, x, zero, signed, nan, x]])
    Y = np.concatenate([Y, [x, -x, near, signed, x, x, nan]])
    return space, reference, X, Y


@pytest.mark.parametrize("name", SPACES)
def test_each_closed_form_has_the_bits_of_its_python_reference(name):
    space, reference, X, Y = pairs(name)
    want = [reference(x, y) for x, y in zip(X, Y)]
    assert hexes(space.phi(X, Y)) == hexes(want)
    assert sum(np.isnan(want)) == 2


@pytest.mark.parametrize("name", SPACES)
def test_each_closed_form_is_exactly_symmetric(name):
    space, _, X, Y = pairs(name, seed=1)
    W = WitnessSet(space.sample(np.random.default_rng(1), 8))
    assert hexes(space.phi(X, Y)) == hexes(space.phi(Y, X))
    assert hexes(eval_phi(space, X, Y, W)) == hexes(eval_phi(space, Y, X, W))


def test_the_area_form_keeps_its_accuracy_for_close_points():
    # |x|^2 |y|^2 - (x . y)^2 cancels for close points; the foot of the
    # perpendicular from 0 does not: at a distance of 1e-9 the pair
    # distance is about 0.5 * (R + dist) * 1e-9, well below the 1e-8 of a
    # Cauchy modulus
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 3))
    x *= 0.45 / np.linalg.norm(x, axis=1, keepdims=True)
    y = x + 1e-9 * rng.normal(size=x.shape) / np.sqrt(3)
    d = np.linalg.norm(y - x, axis=1)
    phi = area_ball_space(3).phi(x, y)
    assert (phi >= 0.25 * d * (1 - 1e-12)).all() and (phi <= 0.5 * d * (1 + 1e-12)).all()


# The rounding allowance of the witness scan against the closed form: 8
# units of eps, absolute.  Every pair distance here is at most 1, and each
# side rounds within a few eps of its exact value, the witness side also
# through the norms of the sampled points, which are 1 (or R) within an eps.
ALLOWANCE = 8 * np.finfo(float).eps


def maximiser(name, x, y):
    """A domain point where d(x, y, .) reaches the closed form, or None:
    the unit normal of x and y on the sphere, and the ball's boundary point
    farthest from the line xy."""
    if name == "det-sphere":
        c = np.cross(x, y)
        n = np.linalg.norm(c)
        return c / n if n > 0 else None
    e = y - x
    if not e @ e > 0:
        return None
    p = x - (x @ e) / (e @ e) * e
    n = np.linalg.norm(p)
    return -spaces.BALL_RADIUS * p / n if n > 0 else None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SPACES)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["sampled", "close", "equal", "scaled"]), st.integers(1, 40),
       st.booleans())
# two draws whose lines pass near the ball's centre, where the Gram form of
# the distance from 0 cancelled to 15 eps below the witness scan
@example(name="area-ball-2", seed=345402078, kind="sampled", count=1, at_max=True)
@example(name="area-ball-2", seed=355, kind="sampled", count=1, at_max=True)
def test_the_witness_phi_never_exceeds_the_declared_phi(name, seed, kind, count, at_max):
    space = SPACES[name][0]()
    rng = np.random.default_rng(seed)
    X, Y = space.sample(rng, 30), space.sample(rng, 30)
    if kind == "close":
        Y = X + 10.0 ** -rng.integers(3, 15, size=(30, 1)) * rng.normal(size=X.shape)
    elif kind == "equal":
        Y = X.copy()
    elif kind == "scaled":       # on the sphere, the antipode
        Y = -X if name == "det-sphere" else 0.5 * X
    if name == "det-sphere":
        Y = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    W = space.sample(rng, count)
    witness = replace(space, phi=None)
    declared = space.phi(X, Y)
    for i in range(len(X)):
        z = maximiser(name, X[i], Y[i]) if at_max else None
        ws = WitnessSet(W if z is None else np.concatenate([W, [z]]))
        assert eval_phi(witness, X[i], Y[i], ws) <= declared[i] + ALLOWANCE


def test_the_closed_forms_avoid_blas_order_calls():
    # no np.dot, no matmul or @, and no norm, whose bits follow the BLAS
    # build, in the two closed forms and the helpers of spaces they call
    tree = ast.parse(inspect.getsource(spaces))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen = ["_det_phi", "_area_phi"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(defs[name]):
            assert not isinstance(node, ast.MatMult), name
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("dot", "matmul", "norm", "einsum", "inner"), name
            if isinstance(node, ast.Name) and node.id in defs and node.id not in seen:
                todo.append(node.id)
    assert {"_cross", "_dot", "_differences", "_coords", "_lengths"} <= seen


def test_witness_refinement_gap_is_zero_where_phi_is_declared():
    for space, W, gap in ((det_sphere_space(), sphere_witnesses(128, 0), "0x1.f7e68b46844e0p-6"),
                          (area_ball_space(3), WitnessSet.sampled(area_ball_space(3), 128, 0),
                           "0x1.56d0c577dbe40p-6")):
        assert witness_refinement_gap(space, W) == 0.0
        # the witness scans of a copy without it keep their gap
        assert float.hex(witness_refinement_gap(replace(space, phi=None), W)) == gap


def counting(space):
    """The space with a kernel that counts its calls."""
    calls = []

    def kernel(X, Y, Z):
        calls.append(1)
        return space.d_batch(X, Y, Z)
    return replace(space, d_batch=core.broadcasting(kernel)), calls


@pytest.mark.parametrize("budget", [1, 7, 2 ** 15])
@pytest.mark.parametrize("name", ["det-sphere", "area-ball-5"])
def test_eval_phi_reads_the_declared_phi_in_blocks(name, budget, monkeypatch):
    # the point form, the row-number form and broadcast shapes give the
    # bits of one call on the stacked pairs, at every block size, with the
    # planted NaN in its own pairs and no kernel call
    space, _, X, Y = pairs(name, count=40, seed=3)
    want = hexes(space.phi(X, Y))
    W = WitnessSet(space.sample(np.random.default_rng(3), 5))
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    counted, calls = counting(space)
    P = np.concatenate([X, Y])
    rows = np.arange(len(X))
    assert hexes(eval_phi(counted, X, Y, W)) == want
    assert hexes(eval_phi(counted, rows, len(X) + rows, W, P)) == want
    one = eval_phi(counted, X[3], Y[3], W)
    assert isinstance(one, float) and float.hex(one) == want[3]
    grid = eval_phi(counted, X[:, None], Y[None, :6], W)
    assert grid.shape == (len(X), 6)
    assert hexes(grid) == hexes(space.phi(np.repeat(X, 6, axis=0), np.tile(Y[:6], (len(X), 1))))
    assert not calls


def test_the_quasi_distance_of_a_space_is_its_declared_phi():
    space = det_sphere_space()
    X, Y = (space.sample(np.random.default_rng(4), 50) for _ in range(2))
    quasi = quasi_from_two_metric(space, sphere_witnesses(8, 0))
    assert hexes(quasi.phi(X, Y)) == hexes(space.phi(X, Y))
