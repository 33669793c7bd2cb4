"""Certifier: finite differences, hypothesis checks, calibrated conclusion."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from decimal import Decimal, localcontext
from importlib import resources

import numpy as np
import pytest

from conftest import certify_reference, triangle_area2
from twometric import (CertInput, SpherePatch, calibrate_ratio_constant,
                       certifier_baseline, certify, hessian_bound_fd,
                       jacobian_fd)
from twometric import cli
from twometric.baselines import within_regression
from twometric.certify import _STEP, _max_radius, _spectral_norms
from twometric.core import _stacks, broadcasting
from twometric.spaces import _SANDWICH_ROWS

BASE = certifier_baseline()
PATCH = SpherePatch(0.2)
INNER = 0.1


def linear_map(A):
    A = np.asarray(A, dtype=float)
    return lambda x: A @ np.asarray(x, dtype=float)


def quad_map(A, mu):
    A = np.asarray(A, dtype=float)

    def F(x):
        x = np.asarray(x, dtype=float)
        return A @ x + mu * np.array([x[0] ** 2, x[0] * x[1]])

    return F


def stacked_map(A, mu=0.0, shift=(0.0, 0.0)):
    """quad_map(A, mu) plus a constant shift, marked ``broadcasting``: one
    call maps a whole stack of points (the form the CLI uses)."""
    A = np.asarray(A, dtype=float)

    @broadcasting
    def F(x):
        x = np.asarray(x, dtype=float)
        out = np.matmul(A, x[..., None])[..., 0]
        if mu:
            out = out + mu * np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)
        return out + np.asarray(shift)

    return F


def jacobian_per_point(F, x, step=1e-5):
    """The central differences one column at a time, as jacobian_fd once
    computed them for a single point."""
    cols = []
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((np.asarray(F(x + e), dtype=float)
                     - np.asarray(F(x - e), dtype=float)) / (2.0 * step))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_jacobian_recovers_linear_map(rng):
    A = rng.normal(size=(2, 2))
    for _ in range(10):
        x = rng.random(2) * 0.05
        assert np.abs(jacobian_fd(linear_map(A), x) - A).max() <= 1e-10


def test_jacobian_on_quadratic_map():
    F = lambda x: np.array([x[0] ** 2, x[1]])  # noqa: E731
    J = jacobian_fd(F, np.array([0.1, 0.0]))
    assert np.abs(J - np.array([[0.2, 0.0], [0.0, 1.0]])).max() <= 1e-8


def test_jacobian_error_is_second_order_in_step():
    # a central difference of x^3 with step h is 3 x^2 + h^2 exactly; the
    # rounding error here is about 1e-15
    F = lambda x: np.array([x[0] ** 3, x[1]])  # noqa: E731
    x = np.array([0.05, 0.0])
    exact = 3 * 0.05 ** 2
    err = jacobian_fd(F, x)[0, 0] - exact
    assert abs(err - _STEP ** 2) <= 1e-12


def test_jacobian_margin_enforcement():
    with pytest.raises(ValueError, match="margin"):
        jacobian_fd(linear_map(np.eye(2)), np.array([0.0999999, 0.0]), radius=0.1)


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_jacobian_on_a_stack_equals_per_point_calls(rng, mu):
    A = rng.normal(size=(2, 2))
    X = PATCH.sample(rng, 60, radius=0.09)
    per_point = quad_map(A, mu)
    stack = jacobian_fd(per_point, X, radius=INNER)
    assert stack.shape == (60, 2, 2)
    for x, J in zip(X, stack):
        assert np.array_equal(jacobian_fd(per_point, x, radius=INNER), J)
        assert np.array_equal(jacobian_per_point(per_point, x), J)
    # a marked map is called once per shifted stack, with the same bits
    calls = []
    marked = stacked_map(A, mu)

    @broadcasting
    def counted(x):
        calls.append(np.shape(x))
        return marked(x)

    assert np.array_equal(jacobian_fd(counted, X), stack)
    assert calls == [X.shape] * 4
    assert np.array_equal(jacobian_fd(stacked_map(A, mu), X.reshape(3, 20, 2)),
                          stack.reshape(3, 20, 2, 2))
    with pytest.raises(ValueError, match="margin"):
        jacobian_fd(per_point, np.vstack([X, [[0.0999999, 0.0]]]), radius=INNER)


def test_hessian_bound_vanishes_for_linear_maps(rng):
    pts = PATCH.sample(np.random.default_rng(1), 20, radius=0.05)
    assert hessian_bound_fd(linear_map(rng.normal(size=(2, 2))), pts) <= 1e-6


def test_hessian_bound_matches_analytic_curvature():
    mu = 0.05
    F = lambda x: np.array([mu * x[0] ** 2, x[1]])  # noqa: E731
    pts = PATCH.sample(np.random.default_rng(2), 30, radius=0.05)
    assert hessian_bound_fd(F, pts) == pytest.approx(2 * mu, rel=1e-3)


def test_hessian_bound_monotone_in_sample_set():
    mu = 0.05
    F = quad_map(0.25 * np.eye(2), mu)
    pts = PATCH.sample(np.random.default_rng(3), 40, radius=0.05)
    small = hessian_bound_fd(F, pts[:10])
    assert hessian_bound_fd(F, pts) >= small


# ---------------------------------------------------------------------------
# spectral norms of 2 x 2 matrices, in closed form
# ---------------------------------------------------------------------------

# The closed form's error, argued as in Higham, *Accuracy and Stability of
# Numerical Algorithms* (2002), section 3.1, with u = 2^-53: the scaled
# entries are exact, each of the four sums rounds once (a relative error of
# at most u), ``hypot`` adds at most one ulp (2u) to its rounded arguments,
# the last sum rounds once more, and the halving and the power-of-two
# scalings are exact.  So the relative error is at most 4u + O(u^2), which
# is under 2 ulps of a normal result; a subnormal result rounds once more,
# by at most half an ulp.
ULP_BOUND = 2.0
SUBNORMAL_ULP_BOUND = 2.5


def spectral_norm_reference(M) -> Decimal:
    """The larger singular value of a 2 x 2 float matrix to 50 digits, from
    the larger eigenvalue of M^T M: sqrt((t + sqrt(t^2 - 4 det^2)) / 2),
    with t the sum of the squared entries."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c, d = (Decimal(x) for x in np.ravel(M).tolist())
        t = a * a + b * b + c * c + d * d
        det = a * d - b * c
        return ((t + max(t * t - 4 * det * det, Decimal(0)).sqrt()) / 2).sqrt()


def ulps_off(norms, M) -> np.ndarray:
    """Each norm against the reference of its matrix, in ulps of the
    reference."""
    want = [spectral_norm_reference(m) for m in M]
    return np.array([float(abs(Decimal(g) - w) / Decimal(math.ulp(float(w))))
                     for g, w in zip(norms.tolist(), want)])


def matrix_families() -> dict:
    rng = np.random.default_rng(61)
    n = 10 ** 4
    angles, scales = rng.uniform(0, 2 * np.pi, 500), rng.lognormal(0, 3, 500)
    a, b = rng.normal(size=(2, 500))
    u, v = rng.normal(size=(2, 500, 2))
    k = np.ldexp(1.0, rng.integers(-5, 5, 500))
    return {
        "random": rng.normal(size=(n, 2, 2)) * rng.lognormal(0, 2, (n, 1, 1)),
        # sigma_1 = sigma_2: rounded rotations, and [[a, -b], [b, a]] exactly
        "scaled rotations": np.concatenate([
            scales[:, None, None] * np.stack([np.cos(angles), -np.sin(angles),
                                              np.sin(angles), np.cos(angles)], -1).reshape(-1, 2, 2),
            np.stack([a, -b, b, a], -1).reshape(-1, 2, 2)]),
        # rank 1: rounded outer products, and rows that are exact multiples
        "rank 1": np.concatenate([u[:, :, None] * v[:, None, :],
                                  np.stack([a, b, k * a, k * b], -1).reshape(-1, 2, 2)]),
        # entries whose sums would overflow unscaled; the norm is a float
        "near 1e308": rng.uniform(-8e307, 8e307, (2000, 2, 2)),
        "near 1e300": rng.normal(size=(2000, 2, 2)) * 1e300,
        "subnormal": rng.integers(-1000, 1000, (2000, 2, 2)) * 5e-324,
        "mixed scales": rng.normal(size=(2000, 2, 2)) * 10.0 ** rng.integers(-310, 300, (2000, 2, 2)),
    }


@pytest.mark.parametrize("family", matrix_families())
def test_spectral_norms_are_within_the_ulp_bound_of_a_50_digit_reference(family):
    M = matrix_families()[family]
    norms = _spectral_norms(M)      # an overflow warning fails the test
    off = ulps_off(norms, M)
    subnormal = norms < np.finfo(float).tiny
    assert np.isfinite(norms).all()
    assert off[~subnormal].max(initial=0.0) <= ULP_BOUND
    assert off[subnormal].max(initial=0.0) <= SUBNORMAL_ULP_BOUND


def test_spectral_norms_of_exact_cases():
    assert _spectral_norms(np.zeros((3, 2, 2))).tolist() == [0.0] * 3
    assert _spectral_norms(np.eye(2)) == 1.0
    assert _spectral_norms(np.array([[3.0, 0.0], [0.0, -4.0]])) == 4.0
    assert _spectral_norms(np.array([[5e-324, 0.0], [0.0, 0.0]])) == 5e-324
    assert _spectral_norms(np.array([[1e308, 0.0], [0.0, -1e308]])) == 1e308
    with pytest.raises(ValueError, match="2 x 2"):
        _spectral_norms(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_gives_a_nan_norm_without_a_warning(bad):
    M = np.random.default_rng(62).normal(size=(12, 2, 2))
    rows = [1, 4, 7, 10]
    for row, (i, j) in zip(rows, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        M[row, i, j] = bad
    norms = _spectral_norms(M)
    assert np.flatnonzero(np.isnan(norms)).tolist() == rows
    finite = np.setdiff1d(np.arange(12), rows)
    assert norms[finite].tolist() == [float(_spectral_norms(M[r])) for r in finite]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def make_input(F, A, proximity=None):
    return CertInput(map=F, jac_target=A, norm_bound=BASE["C_A"], patch=PATCH,
                     inner_radius=INNER, ratio_constant=BASE["C_prime"],
                     proximity=proximity)


@pytest.mark.parametrize("field, value", [("ratio_constant", 0.0), ("ratio_constant", -1.0),
                                          ("proximity", 0.0), ("proximity", -1e-3)])
def test_cert_input_refuses_a_constant_or_budget_at_or_below_zero(field, value):
    # a bound or a budget of 0 passes no map, and the verdict line would
    # read "<= bound 0"
    A = 0.25 * np.eye(2)
    inp = dict(map=linear_map(A), jac_target=A, norm_bound=BASE["C_A"], patch=PATCH,
               inner_radius=INNER, ratio_constant=BASE["C_prime"])
    with pytest.raises(ValueError, match="must be positive"):
        CertInput(**{**inp, field: value})


@pytest.mark.parametrize("family", ["random", "cancelling", "quarter identity"])
def test_det_is_abs_of_ad_minus_bc_in_that_order(family):
    # |det A| gives every certify artifact's det_A and bound, and the default
    # budget c_prime: abs(a*d - b*c) on Python floats, whatever the LAPACK
    # build, where an LU factorisation rounds in its own order
    rng = np.random.default_rng(sum(map(ord, family)))
    for _ in range(10):
        if family == "random":
            A = rng.uniform(-1.0, 1.0, (2, 2))
        elif family == "cancelling":
            # rows a relative 2^-30 from parallel: the two products cancel
            A = rng.uniform(0.2, 0.7) * np.array([[1.0, 1.0 + 2.0 ** -30], [1.0, 1.0]])
            A = A[rng.permutation(2)]
        else:
            A = 0.25 * np.eye(2)
        (a, b), (c, d) = A.tolist()
        want = abs(a * d - b * c)
        inp = make_input(linear_map(A), A)
        assert float(inp.proximity).hex() == (0.01 * want / BASE["C_A"]).hex()
        result = certify(inp, samples=4, ratio_triples=4, seed=3)
        assert float(result.det_target).hex() == want.hex()
        assert float(result.bound).hex() == (BASE["C_prime"] * want).hex()
        assert result.to_json()["det_A"] == want
    if family == "quarter identity":
        assert want == 0.0625


def test_certify_quarter_identity_passes():
    A = 0.25 * np.eye(2)
    result = certify(make_input(linear_map(A), A), seed=5)
    assert result.passes and result.conclusion_ok
    assert result.worst_ratio <= BASE["C_prime"] * 0.0625
    assert result.max_jac_dev <= 1e-10
    assert result.c_prime == pytest.approx(0.01 * 0.0625 / BASE["C_A"])


def test_certify_small_quadratic_perturbation_passes():
    A = 0.25 * np.eye(2)
    result = certify(make_input(quad_map(A, 1e-4), A), seed=6)
    assert result.passes and result.conclusion_ok
    assert result.max_hessian == pytest.approx(2e-4, rel=1e-2)


def test_certify_rejects_planted_jacobian_violation():
    A = 0.25 * np.eye(2)
    probe = certify(make_input(linear_map(A), A), seed=7)
    shift = 10.0 * probe.c_prime

    def bad(x):
        x = np.asarray(x, dtype=float)
        return A @ x + shift * np.array([x[0], 0.0])

    result = certify(make_input(bad, A), seed=7)
    assert not result.passes
    assert result.worst_ratio is None
    hypotheses = [f["hypothesis"] for f in result.failures]
    assert "jacobian_proximity" in hypotheses
    fail = result.failures[0]
    assert fail["value"] == pytest.approx(shift, rel=1e-6)
    assert np.linalg.norm(fail["witness"]) <= INNER


@pytest.mark.parametrize("counts", [{"samples": 0}, {"ratio_triples": 0},
                                    {"samples": -3, "ratio_triples": 5}])
def test_certify_refuses_sample_counts_below_one(counts):
    A = 0.25 * np.eye(2)
    with pytest.raises(ValueError, match="sample counts must be >= 1"):
        certify(make_input(linear_map(A), A), **counts)


def test_certify_budget_monotonicity():
    A = 0.25 * np.eye(2)
    F = quad_map(A, 1e-4)
    generous = certify(make_input(F, A, proximity=1e-3), seed=8)
    strict = certify(make_input(F, A, proximity=1e-6), seed=8)
    assert generous.passes and not strict.passes


def test_certify_flags_range_escape():
    A = 0.25 * np.eye(2)

    def escaping(x):
        return A @ np.asarray(x, dtype=float) + np.array([0.19, 0.0])

    result = certify(make_input(escaping, A), seed=9)
    assert not result.passes
    assert any(f["hypothesis"] == "range_containment" for f in result.failures)


# ---------------------------------------------------------------------------
# the conclusion in blocks, against the one-pass conclusion
# ---------------------------------------------------------------------------

B = _SANDWICH_ROWS
A_CLI = np.array([[0.6, -0.2], [0.3, 0.5]])
SAMPLES, SEED = 150, 11


def ratio_stacks(triples):
    """The three stacks of triples that ``certify`` draws for its
    conclusion at ``SAMPLES`` and ``SEED``, after the points of its
    hypotheses."""
    rng = np.random.default_rng(SEED)
    PATCH.sample(rng, SAMPLES, radius=INNER - 2.5 * _STEP)
    return _stacks(lambda rng, n: PATCH.sample(rng, n, radius=INNER), rng, triples, 3)


def conclusion_case(case):
    """``(map, triples, failures)`` of a case of the blocked conclusion: the
    CLI's map of ``A_CLI``, one that sends one sampled point outside the
    patch, one that is NaN near the rim of the disc, or one with a
    quadratic term."""
    F = stacked_map(A_CLI)
    if case.startswith("escape"):
        triples = 2 * B + 1
        row = {"escape-first": 5, "escape-middle": B + 17, "escape-last": 2 * B}[case]
        point = ratio_stacks(triples)[1][row]
        out = broadcasting(lambda x: np.where((np.asarray(x) == point).all(axis=-1, keepdims=True),
                                              [0.3, 0.0], F(x)))
        return out, triples, ["range_containment"]
    if case == "nan":
        nan = broadcasting(lambda x: np.where(np.linalg.norm(x, axis=-1, keepdims=True) > 0.09997,
                                              np.nan, F(x)))
        return nan, 20_000, ["range_containment"]
    if case == "quad":
        return stacked_map(A_CLI, 0.5), 20_000, ["jacobian_proximity", "hessian_bound"]
    return F, int(case), []


# one row, the edges of one block and of two, the block at the row budget
# of 2 ** 14, and four blocks and one row
@pytest.mark.parametrize("case", ["1", str(B - 1), str(B), str(B + 1), str(2 * B - 1), str(2 * B),
                                  str(2 * B + 1), str(4 * B + 1), "20000",
                                  "escape-first", "escape-middle", "escape-last", "nan", "quad"])
def test_the_blocked_conclusion_is_the_one_pass_conclusion(case, monkeypatch):
    # a numpy warning fails this test, as every test here; the images that
    # leave the patch end the scan in the block that holds them, before
    # any of them reaches the patch kernel
    F, triples, failures = conclusion_case(case)
    inp = make_input(F, A_CLI)
    radii, kernel = [], SpherePatch.metric_batch

    def recording(self, *P):
        radii.extend(_max_radius(Q) for Q in P)
        return kernel(self, *P)

    monkeypatch.setattr(SpherePatch, "metric_batch", recording)
    got = certify(inp, samples=SAMPLES, ratio_triples=triples, seed=SEED)
    assert np.max(radii, initial=0.0) <= PATCH.radius
    monkeypatch.undo()
    want = certify_reference(inp, samples=SAMPLES, ratio_triples=triples, seed=SEED)
    assert got.to_json() == want.to_json()
    assert [f["hypothesis"] for f in got.failures] == failures
    if failures:
        assert got.worst_ratio is None and got.ratio_samples == 0
    else:
        assert float(got.worst_ratio).hex() == float(want.worst_ratio).hex()
        assert got.passes and 0 < got.ratio_samples <= triples


@pytest.mark.parametrize("mu, shift, failures", [
    (0.0, (0.0, 0.0), []),
    (0.5, (0.0, 0.0), ["jacobian_proximity", "hessian_bound"]),
    (0.0, (0.19, 0.0), ["range_containment"]),
])
def test_certify_marked_and_unmarked_maps_agree(mu, shift, failures):
    A = np.array([[0.3, -0.1], [0.05, 0.25]])
    marked = stacked_map(A, mu, shift)
    unmarked = lambda x: marked(x)  # noqa: E731 - the same map without the mark
    per_point = lambda x: quad_map(A, mu)(x) + np.asarray(shift)  # noqa: E731
    results = [certify(make_input(F, A), samples=150, ratio_triples=800, seed=11).to_json()
               for F in (marked, unmarked, per_point)]
    assert results[0] == results[1] == results[2]
    assert [f["hypothesis"] for f in results[0]["failures"]] == failures


def test_certify_validates_reference_matrix():
    with pytest.raises(ValueError, match="invertible"):
        make_input(linear_map(np.zeros((2, 2))), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="norm cap"):
        make_input(linear_map(3 * np.eye(2)), 3 * np.eye(2))


def with_singular_values(rng, s1, s2):
    """R(a) diag(s1, s2) R(b) for rotations by random angles a and b."""
    a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
    R = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])  # noqa: E731
    return R(a) @ np.diag([s1, s2]) @ R(b)


def random_matrices(rng, count):
    """Matrices with normal entries, scaled over six decades."""
    return rng.normal(size=(count, 2, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1, 1))


def test_the_norm_cap_refuses_what_lapack_refuses(rng):
    # the closed-form norm against the SVD's, on random matrices and on
    # matrices within a relative 1e-9 or 1e-6 of the cap and its allowance
    edge = BASE["C_A"] + 1e-12
    near = [with_singular_values(rng, edge * (1.0 + e), edge * rng.uniform(0.3, 1.0))
            for e in (-1e-6, -1e-9, 1e-9, 1e-6) for _ in range(50)]
    for A in [*random_matrices(rng, 2000), *near]:
        try:
            make_input(linear_map(A), A)
            refused = False
        except ValueError as exc:
            if "invertible" in str(exc):
                continue
            assert "norm cap" in str(exc)
            refused = True
        assert refused == (np.linalg.norm(A, 2) > edge)
    with pytest.raises(ValueError, match="norm cap"):
        make_input(linear_map(np.eye(2)), [[1.0, 0.0], [0.0, np.nan]])


def test_the_condition_cap_refuses_what_lapack_refuses(rng, monkeypatch, capsys):
    # the CLI's s1^2 / |det A| against np.linalg.cond, on random matrices
    # and on matrices within a relative 1e-9 or 1e-6 of the cap, over six
    # decades of scale, and at scales where s1^2 or det A of the unscaled
    # matrix would overflow or underflow; a matrix inside the cap goes on
    # to CertInput
    def past(**_):
        raise ValueError("past the condition check")

    monkeypatch.setattr(cli, "CertInput", past)
    cap = BASE["max_condition"]
    near = [with_singular_values(rng, s, s / (cap * (1.0 + e)))
            for e in (-1e-6, -1e-9, 1e-9, 1e-6) for s in 10.0 ** rng.uniform(-3.0, 3.0, 25)]
    extreme = [scale * with_singular_values(rng, 1.0, c)
               for scale in (1e-300, 1e-160, 1e160, 1e300) for c in (0.5, 0.2)]
    for A in [*random_matrices(rng, 300), *near, *extreme, np.diag([1.0, 1.0 / cap]),
              np.zeros((2, 2))]:
        A = np.asarray(A)
        argv = ["certify", "--A=" + ",".join(map(repr, A.ravel().tolist()))]
        assert cli.main(argv) == 2
        err, want = capsys.readouterr().err, np.linalg.cond(A)
        if want <= cap:
            assert err == "error: past the condition check\n"
        else:
            got = float(err.split("condition number ")[1].split(",")[0])
            assert got == pytest.approx(want, rel=1e-5)


def test_displacement_stays_within_jacobian_budget(rng):
    # the quantitative core: F(y)-F(x)-A(y-x) is controlled by the sampled
    # Jacobian deviation along the segment
    A = 0.25 * np.eye(2)
    mu = 1e-4
    F = quad_map(A, mu)
    budget = np.sqrt(5.0) * mu * INNER  # analytic sup of ||J - A|| on the disc
    for _ in range(100):
        x, y = PATCH.sample(rng, 2, radius=INNER)
        disp = np.linalg.norm(F(y) - F(x) - A @ (y - x))
        dist = np.linalg.norm(y - x)
        assert disp <= (budget + 4.0 * budget * dist) * dist + 1e-15


def test_flat_ratio_is_exactly_the_determinant(rng):
    A = rng.normal(size=(2, 2)) * 0.3
    det = abs(np.linalg.det(A))
    for _ in range(50):
        x, y, z = PATCH.sample(rng, 3, radius=INNER)
        flat = triangle_area2(x, y, z)
        if flat < 1e-10:
            continue
        assert triangle_area2(A @ x, A @ y, A @ z) == pytest.approx(
            det * flat, rel=1e-9)


def test_patch_ratio_within_convexity_sandwich(rng):
    from twometric import convexity_baseline

    C = convexity_baseline()["C"]
    A = 0.25 * np.eye(2)
    det = 0.0625
    worst_lo, worst_hi = np.inf, 0.0
    for _ in range(200):
        x, y, z = PATCH.sample(rng, 3, radius=INNER)
        h0, = PATCH.metric_batch(x[None], y[None], z[None])
        if h0 < 1e-12:
            continue
        ratio, = PATCH.metric_batch((A @ x)[None], (A @ y)[None], (A @ z)[None]) / h0
        worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    assert worst_hi <= C ** 2 * det
    assert worst_lo >= det / C ** 2


def test_ratio_constant_baseline_regression():
    report = calibrate_ratio_constant(
        patch_radius=BASE["patch_r"], inner_radius=BASE["inner_radius"],
        norm_bound=BASE["C_A"], matrices=BASE["matrices"],
        triples=BASE["triples"], max_condition=BASE["max_condition"],
        seed=BASE["seed"])
    assert within_regression(report["C_prime"], BASE["C_prime"])


def test_calibration_reproduces_the_packaged_baselines(tmp_path):
    out = tmp_path / "baselines.json"
    subprocess.run([sys.executable, "-m", "twometric.calibrate", "--out", str(out)],
                   check=True, capture_output=True)
    packaged = resources.files("twometric").joinpath("data/baselines.json").read_bytes()
    assert out.read_bytes() == packaged


def test_cert_result_json_schema():
    A = 0.25 * np.eye(2)
    payload = certify(make_input(linear_map(A), A), seed=10).to_json()
    assert {"pass", "max_jac_dev", "max_hessian", "c_prime", "C_prime",
            "det_A", "worst_ratio", "bound"} <= set(payload)
    assert payload["pass"] is True


def test_max_radius_has_the_bits_of_the_norm_of_a_concatenation():
    rng = np.random.default_rng(24)
    stacks = [rng.normal(size=(20_000, 2)) * 0.1 for _ in range(3)]
    want = np.linalg.norm(np.concatenate(stacks), axis=1).max()
    assert float(np.max([_max_radius(F) for F in stacks])).hex() == float(want).hex()
    stacks[1][5, 0] = np.nan
    assert np.isnan(np.max([_max_radius(F) for F in stacks]))
    x = np.array([0.03, -0.04])
    assert float(_max_radius(x)).hex() == float(np.linalg.norm(x)).hex()
    assert _max_radius(np.zeros((0, 2))) == 0.0
    grid = stacks[0][:600].reshape(20, 30, 2)
    assert _max_radius(grid) == np.linalg.norm(grid, axis=-1).max()


def test_certify_fails_range_on_nan_images():
    # NaN only beyond |x| > 0.09995: the Jacobian points stay clean, some
    # ratio samples do not
    A = 0.25 * np.eye(2)

    def F(x):
        x = np.asarray(x, dtype=float)
        return A @ x * (np.nan if np.linalg.norm(x) > 0.09995 else 1.0)

    result = certify(make_input(F, A), seed=1)
    assert not result.passes
    assert [f["hypothesis"] for f in result.failures] == ["range_containment"]
    assert result.worst_ratio is None and result.conclusion_ok is None


class NanRatioPatch(SpherePatch):
    """The patch metric, NaN on triples whose first point has x_0 > 0.09."""

    def metric_batch(self, X, Y, Z):
        return np.where(np.asarray(X)[..., 0] > 0.09, np.nan, super().metric_batch(X, Y, Z))


def test_certify_reports_a_nan_ratio():
    A = 0.25 * np.eye(2)
    inp = CertInput(map=linear_map(A), jac_target=A, norm_bound=BASE["C_A"],
                    patch=NanRatioPatch(0.2), inner_radius=INNER,
                    ratio_constant=BASE["C_prime"])
    result = certify(inp, seed=2)
    assert np.isnan(result.worst_ratio) and result.conclusion_ok is False
    out = json.loads(json.dumps(result.to_json(), allow_nan=False))
    assert out["worst_ratio"] is None and out["non_finite"] is True
    assert out["max_jac_dev"] is not None


def test_certify_fails_on_a_nan_jacobian():
    A = 0.25 * np.eye(2)

    def F(x):
        x = np.asarray(x, dtype=float)
        return A @ x * (np.nan if x[0] > 0.08 else 1.0)

    result = certify(make_input(F, A), seed=3)
    assert not result.passes and np.isnan(result.max_jac_dev) and np.isnan(result.max_hessian)
    jac, hess = result.failures
    assert jac["hypothesis"] == "jacobian_proximity" and np.isnan(jac["value"])
    assert hess["hypothesis"] == "hessian_bound" and np.isnan(hess["value"])
    # the witness is the first sampled point whose Jacobian is not finite
    pts = PATCH.sample(np.random.default_rng(3), 400, radius=INNER - 2.5e-5)
    finite = np.isfinite(jacobian_fd(F, pts)).all(axis=(1, 2))
    first = np.argmin(finite)
    assert 0 < first and (~finite[first + 1:]).any()
    assert jac["witness"] == pts[first].tolist()

    out = json.loads(json.dumps(result.to_json(), allow_nan=False))
    assert out["max_jac_dev"] is None and out["max_hessian"] is None
    assert out["non_finite"] is True and out["c_prime"] == result.c_prime
    for record in out["failures"]:
        assert record["value"] is None and record["non_finite"] is True


def test_hessian_bound_is_nan_on_a_nan_map():
    def F(x):
        x = np.asarray(x, dtype=float)
        return x * (np.nan if x[0] > 0.05 else 1.0)

    points = np.array([[0.0, 0.0], [0.06, 0.0]])
    assert hessian_bound_fd(F, points[:1]) == 0.0
    assert np.isnan(hessian_bound_fd(F, points))


def test_finite_results_carry_no_non_finite_flag():
    A = 0.25 * np.eye(2)
    out = certify(make_input(quad_map(A, 0.5), A), seed=1).to_json()
    assert "non_finite" not in out and out["failures"]
    assert all("non_finite" not in record for record in out["failures"])


def test_hessian_bound_of_an_overflowing_map_is_nan_without_a_warning():
    # the second differences of 1e308 x0 x pass the float range; a warning
    # fails this test
    def F(x):
        x = np.asarray(x, dtype=float)
        return x + 1e308 * x[0] * x

    assert np.isnan(hessian_bound_fd(F, np.array([[0.1, 0.05]])))
