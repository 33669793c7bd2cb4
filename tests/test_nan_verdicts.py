"""No verdict passes on NaN: one NaN planted in a finite table, and each
verdict on that table must fail, report NaN, or keep the NaN out; one NaN
planted in a sampled quasi-distance value, and each quasi verdict must
report it or refuse; one NaN planted in a kernel or a map at a point the
contraction factor, the orbit outcome or the certificate evaluates, and
each must raise, fail or report NaN."""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sphere_points, trajectory
from twometric import (CertInput, ContractionViolation, FiniteTwoMetricSpace, Line,
                       SpherePatch, SphereContractionParams, WitnessSet, area_ball_space, audit,
                       banach_direct, banach_multcost, banach_power, certify,
                       check_quasi_axioms, classify, det_metric, det_sphere_space,
                       detect_outcome, enumerate_lines, eval_phi, interval_space,
                       make_sphere_map, measured_contraction_factor, orbit,
                       quotient_by_zero_phi, sphere_witnesses, unit_sphere)
from twometric.baselines import certifier_baseline
from twometric.certify import _STEP
from twometric.core import broadcasting
from twometric.spaces import det_metric_batch


@st.composite
def nan_tables(draw):
    """A sphere table on n points, the last a copy of point 0 (pair
    distance 0) and at least one off the planted equatorial line, with NaN
    at one triple, whose key comes in any order."""
    n = draw(st.integers(4, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = random_sphere_points(rng, n - 1, planted_equatorial=draw(st.integers(0, n - 2)))
    space = FiniteTwoMetricSpace.from_points(pts + [pts[0]], det_metric)
    key = tuple(draw(st.permutations(range(n)))[:3])
    if draw(st.booleans()):              # through the zero-distance pair
        key = (0, n - 1, draw(st.integers(1, n - 2)))
    space.table[key] = float("nan")
    return space, tuple(sorted(key)), draw(st.integers(0, 99))


def nan_free_classes(space, tol=1e-12):
    """The number of classes when every pair whose phi, from scalar
    lookups, is <= tol is merged; a NaN phi is not."""
    n = space.n
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(n), 2):
        if np.max([space.d(i, j, k) for k in range(n)]) <= tol:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


@settings(max_examples=60, deadline=None)
@given(nan_tables())
def test_a_planted_nan_reaches_every_finite_table_verdict(case):
    space, nan_triple, seed = case

    report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                   triples=500, seed=seed)
    non_finite = [r.axiom for r in report.records if not np.isfinite(r.max_violation)]
    assert non_finite and set(non_finite) <= set(report.failing())
    assert any(rec.get("non_finite") for rec in report.to_json()["axioms"])

    for line in enumerate_lines(space):
        assert not set(nan_triple) <= set(line.members)

    quotient = quotient_by_zero_phi(space)
    assert quotient.n == nan_free_classes(space)
    if {0, space.n - 1} <= set(nan_triple):     # the one zero pair has phi NaN
        assert quotient is space


# ---------------------------------------------------------------------------
# the quasi-distance verdicts
# ---------------------------------------------------------------------------

def planted_phi(space, p):
    """``space`` with phi NaN on every pair that holds the point p."""
    return replace(space, phi=lambda x, y: np.where((x == p) | (y == p), np.nan,
                                                    space.phi(x, y)))


SOLVERS = {
    "direct": (lambda space: space, banach_direct, 1.0 / 3.0),
    "power": (lambda space: replace(space, C=2.0), banach_power, 0.6),
    "multcost": (lambda space: replace(space, psi=lambda x, y, z: 0.1 * np.abs(z),
                                       psi_bound=0.1), banach_multcost, 0.5),
}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 99))
def test_a_planted_nan_reaches_the_quasi_axioms(seed, i):
    base = interval_space()
    rng = np.random.default_rng(seed)
    X, Y, Z = (rng.random(100) for _ in range(3))
    report = check_quasi_axioms(planted_phi(base, X[i]), samples=100, seed=seed)
    assert all(np.isnan(report[key]) for key in ("reflexivity", "symmetry", "triangle"))
    costed = replace(base, psi=lambda x, y, z: np.where(z == Z[i], np.nan, 0.0), psi_bound=1.0)
    report = check_quasi_axioms(costed, samples=100, seed=seed)
    assert report["triangle"] == 0.0
    assert np.isnan(report["multiplicative_triangle"]) and np.isnan(report["cost_magnitude"])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SOLVERS)), st.integers(0, 2 ** 32 - 1), st.integers(0, 99),
       st.integers(0, 40))
def test_a_planted_nan_stops_every_banach_solver(name, seed, i, n):
    make, solver, k = SOLVERS[name]
    space = make(interval_space())
    F = lambda x: k * x  # noqa: E731
    # NaN on one sampled pair of the factor check: the solver raises
    rng = np.random.default_rng(seed + 1 if name == "multcost" else seed)
    X = rng.random(100)
    with pytest.raises(ContractionViolation, match="NaN"):
        solver(planted_phi(space, X[i]), F, 1.0, k, seed=seed)
    # NaN at one iterate, the start included: the tail check fails
    clean = solver(space, F, 1.0, k, seed=seed)
    assert clean.tail_bound_ok

    def Fa(x):  # the map the solver iterates: F^a for banach_power, else F
        for _ in range(clean.power):
            x = F(x)
        return x

    iterates = trajectory(Fa, 1.0, clean.steps)
    assert iterates[-1] == clean.fixed_point
    p = iterates[n % len(iterates)]
    run = solver(planted_phi(space, p), F, 1.0, k, seed=seed)
    assert not run.tail_bound_ok and np.isnan(run.tail_margin)
    # NaN in one sampled cost, or in its image: banach_multcost raises
    if name == "multcost":
        rng = np.random.default_rng(seed)
        Z = [rng.random(100) for _ in range(3)][2]
        for q in (Z[i], k * Z[i]):
            costed = replace(space, psi=lambda x, y, z: np.where(z == q, np.nan, 0.1 * np.abs(z)))
            with pytest.raises(ContractionViolation, match="NaN"):
                solver(costed, F, 1.0, k, seed=seed)



def nan_where(kernel, mask):
    """The kernel, NaN on the triples where ``mask`` holds."""
    @broadcasting
    def d_batch(*points):
        return np.where(mask(*points), np.nan, kernel(*points))
    return d_batch


def high(at):
    """Whether point ``at`` of the triple has y above 0.95."""
    return lambda *points: np.asarray(points[at])[..., 1] > 0.95


def one_pair(*points):
    """Whether the triples are a scan against one fixed pair, as only the
    passer membership check of a line case makes in classify."""
    single = all(np.size(P) == np.shape(P)[-1] for P in points[1:])
    return np.full(np.broadcast_shapes(*(np.shape(P)[:-1] for P in points)), single)


EQUATOR_ORBIT = ((0.1, 0.5, 0.0), [0.6, 0.0, 0.8])    # Cauchy on the clean kernel
ALTERNATING = ((0.1, 0.5, np.pi / 2), [1.0, 0.0, 0.0])  # rotates e1 to e2 and back


@pytest.mark.parametrize("case, mask, tag, notes", [
    (EQUATOR_ORBIT, high(2), "CauchySequence",
     ["cauchy modulus is NaN", "pair distance from the first passer is NaN"]),
    (EQUATOR_ORBIT, high(0), "CauchySequence", ["candidate residuals are NaN"]),
    (ALTERNATING, one_pair, "LineCase", ["passer membership defect is NaN"]),
])
def test_a_planted_nan_lowers_the_classify_confidence(case, mask, tag, notes):
    # phi by the witness scan, which meets the NaN of the kernel
    sphere = replace(det_sphere_space(), phi=None)
    planted = replace(sphere, d_batch=nan_where(det_metric_batch, mask))
    check_classify_confidence(case, sphere, planted, tag, notes)


def test_a_nan_in_the_declared_phi_lowers_the_classify_confidence():
    # the NaN that a witness above y = 0.95 puts into every pair's phi,
    # planted in the declared phi
    sphere = det_sphere_space()
    planted = replace(sphere, phi=lambda X, Y: np.full(np.shape(sphere.phi(X, Y)), np.nan))
    check_classify_confidence(EQUATOR_ORBIT, sphere, planted, "CauchySequence", [
        "cauchy modulus is NaN", "pair distance from the first passer is NaN"])


def check_classify_confidence(case, space, planted, tag, notes):
    params, x0 = case
    W = sphere_witnesses(128, seed=0)
    seq = orbit(make_sphere_map(SphereContractionParams(*params)), unit_sphere(x0), 200, W).points
    clean = classify(space, seq, W)
    assert clean.tag == tag and not clean.low_confidence
    verdict = classify(planted, seq, W)
    assert verdict.low_confidence
    for note in notes:
        assert any(note in n for n in verdict.notes), verdict.notes


def last_run_case():
    """200 random sphere points, whose tail starts at 100: the last run of
    classify's candidate scan holds the tail pair (198, 199) alone."""
    return np.asarray(det_sphere_space().sample(np.random.default_rng(3), 200))


def check_tri_modulus_is_nan(space, seq):
    verdict = classify(space, seq, sphere_witnesses(16, seed=0))
    assert np.isnan(verdict.tri_cauchy_modulus) and verdict.low_confidence
    assert "tri-cauchy modulus is NaN" in verdict.notes
    return verdict


def test_a_nan_in_a_triple_of_the_last_run_reaches_the_tri_modulus():
    """classify reads the triple modulus off its candidate scan, each
    candidate from its cut on; a kernel that is NaN only at (x_100, x_198,
    x_199), in the last run of pairs (those with first point x_198), which
    the candidate x_100 alone holds, makes the modulus NaN, with its
    note."""
    seq = last_run_case()

    @broadcasting
    def d_batch(X, Y, Z):
        hit = ((X == seq[100]).all(axis=-1) & (Y == seq[198]).all(axis=-1)
               & (Z == seq[199]).all(axis=-1))
        return np.where(hit, np.nan, det_metric_batch(X, Y, Z))

    verdict = check_tri_modulus_is_nan(replace(det_sphere_space(), d_batch=d_batch, phi=None),
                                       seq)
    assert not np.isnan(verdict.cauchy_modulus)
    assert "1 candidate residuals are NaN" in verdict.notes


def test_a_nan_point_in_the_last_run_reaches_the_tri_modulus():
    seq = last_run_case()
    seq[198, 1] = np.nan
    check_tri_modulus_is_nan(det_sphere_space(), seq)


@pytest.mark.parametrize("space, bad, notes", [
    (area_ball_space(3), np.inf,
     ["cauchy modulus is NaN", "tri-cauchy modulus is NaN", "116 candidate residuals are NaN"]),
    (area_ball_space(3), 1e200,
     ["cauchy modulus is NaN", "tri-cauchy modulus is NaN", "116 candidate residuals are NaN"]),
    (det_sphere_space(), np.inf,
     ["cauchy modulus is inf", "tri-cauchy modulus is NaN", "116 candidate residuals are NaN"]),
    # the det kernel on a coordinate of 1e200 overflows to inf, not NaN: an
    # inf modulus gets a note as a NaN one does
    (det_sphere_space(), 1e200, ["cauchy modulus is inf"]),
], ids=["ball-inf", "ball-1e200", "sphere-inf", "sphere-1e200"])
def test_an_inf_or_overflowing_point_reaches_its_verdict_without_a_warning(space, bad, notes):
    """A coordinate of inf or 1e200 at x_198 of 200 random points: classify,
    eval_phi and Line.defects give NaN or a large value there and raise no
    numpy warning, which the test run turns into an error."""
    seq = np.asarray(space.sample(np.random.default_rng(3), 200))
    seq[198, 0] = bad
    W = WitnessSet.sampled(space, 16, seed=0)
    verdict = classify(space, seq, W)
    assert verdict.tag == "NoPoint" and verdict.notes == notes
    assert verdict.low_confidence == bool(notes)
    assert not (eval_phi(space, seq[198], seq[:3], W) <= 1.0).any()
    defects = Line(seq[0], seq[1], 1e-9).defects(space, seq[196:200])
    assert np.isfinite(defects[[0, 1, 3]]).all() and not defects[2] <= 1.0


# ---------------------------------------------------------------------------
# the contraction factor, the orbit outcome and the certificate
# ---------------------------------------------------------------------------

def nan_at(f, p, radius=0.0):
    """The map f, NaN at the points within ``radius`` of p."""
    @broadcasting
    def g(x):
        x = np.asarray(x, dtype=float)
        near = np.linalg.norm(x - p, axis=-1, keepdims=True) <= radius
        return np.where(near, np.nan, f(x))
    return g


def at_point(slot, p):
    """Whether point ``slot`` of the triple is p."""
    return lambda *points: (np.asarray(points[slot]) == p).all(axis=-1)


def planted_kernel(map_, mask):
    return replace(map_, space=replace(map_.space, d_batch=nan_where(det_metric_batch, mask),
                                       phi=None))


def either_is(p):
    """Whether either point of the pair is p."""
    return lambda X, Y: at_point(0, p)(X, Y) | at_point(1, p)(X, Y)


def phi_nan_where(map_, mask):
    """The map on its space with the declared phi NaN on the pairs where
    ``mask`` holds."""
    phi = map_.space.phi
    return replace(map_, space=replace(map_.space, phi=lambda X, Y: np.where(
        mask(X, Y), np.nan, phi(X, Y))))


SQUEEZE = (SphereContractionParams(0.1, 0.5, np.pi / 7), [0.8, 0.0, 0.6])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 499), st.integers(0, 2), st.booleans())
def test_a_planted_nan_reaches_the_measured_factor(seed, i, slot, in_map):
    map_ = make_sphere_map(SQUEEZE[0])
    rng = np.random.default_rng(seed)
    p = [map_.domain_sample(rng, 500) for _ in range(3)][slot][i]
    # NaN in one sampled triple's d, or in the image of one sampled point
    planted = (replace(map_, f=nan_at(map_.f, p)) if in_map
               else planted_kernel(map_, at_point(slot, p)))
    assert np.isnan(measured_contraction_factor(planted, samples=500, seed=seed))


def outcomes(declared):
    """The map, the witnesses and the clean outcome of each squeeze angle,
    with phi declared by the map's space or scanned over the witnesses."""
    W = sphere_witnesses(32, seed=0)
    runs = {}
    for theta in (0.0, np.pi / 7):
        map_ = make_sphere_map(replace(SQUEEZE[0], theta=theta))
        if not declared:
            map_ = replace(map_, space=replace(map_.space, phi=None))
        runs[theta] = (map_, W, detect_outcome(map_, unit_sphere(SQUEEZE[1]), 120, witnesses=W))
    return runs


@pytest.fixture(scope="module")
def clean_outcomes():
    return outcomes(declared=False)


@pytest.fixture(scope="module")
def declared_outcomes():
    return outcomes(declared=True)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0.0, np.pi / 7]), st.integers(0, 120), st.integers(0, 2),
       st.booleans())
def test_a_planted_nan_in_detect_outcome_fails_or_is_reported(
        clean_outcomes, theta, step, slot, in_map):
    map_, W, clean = clean_outcomes[theta]
    assert clean.tag == ("FixedPoint" if theta == 0.0 else "FixedLine")
    p = clean.trace.points[step]
    # NaN in d whenever one orbit point fills a slot, or in the map's image of it
    planted = (replace(map_, f=nan_at(map_.f, p)) if in_map
               else planted_kernel(map_, at_point(slot, p)))
    check_fails_or_reported(planted, W, clean)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0.0, np.pi / 7]), st.integers(0, 120))
def test_a_planted_nan_in_the_declared_phi_fails_or_is_reported(declared_outcomes, theta, step):
    map_, W, clean = declared_outcomes[theta]
    assert clean.tag == ("FixedPoint" if theta == 0.0 else "FixedLine")
    p = clean.trace.points[step]
    # NaN in phi whenever one orbit point is either point of the pair
    check_fails_or_reported(phi_nan_where(map_, either_is(p)), W, clean)


def test_generators_that_span_no_line_leave_the_outcome_indeterminate(declared_outcomes):
    # NaN in phi on every pair with orbit point 63: classify takes the first
    # NaN pair of passers, which span no great circle, as its generators
    map_, W, clean = declared_outcomes[np.pi / 7]
    p = clean.trace.points[63]
    outcome = detect_outcome(phi_nan_where(map_, either_is(p)), unit_sphere(SQUEEZE[1]), 120,
                             witnesses=W)
    assert outcome.classification.tag == "LineCase"
    assert "cauchy modulus is NaN" in outcome.classification.notes
    assert outcome.tag == "Indeterminate" and outcome.line is None
    assert outcome.diagnostic == ("no line through the generators: generators are "
                                  "(anti)parallel; circle undefined")


def check_fails_or_reported(planted, W, clean):
    outcome = detect_outcome(planted, unit_sphere(SQUEEZE[1]), 120, witnesses=W)
    if outcome.tag != "Indeterminate":
        cls = outcome.classification
        reported = cls.low_confidence and any("NaN" in note for note in cls.notes)
        # a passing verdict either says it saw a NaN or never met one
        assert reported or outcome.to_json() == clean.to_json()


def test_a_nan_pair_distance_between_mapped_line_members_is_reported(clean_outcomes):
    """The fixed-line check asks whether the first mapped line member is
    separated from the others; a NaN pair distance is neither separated
    nor collapsed to one point, and the verdict names it."""
    map_, W, clean = clean_outcomes[np.pi / 7]
    check_mapped_members_nan(planted_kernel, map_, W, clean)


def test_a_nan_in_the_declared_phi_between_mapped_line_members_is_reported(declared_outcomes):
    map_, W, clean = declared_outcomes[np.pi / 7]
    check_mapped_members_nan(phi_nan_where, map_, W, clean)


def check_mapped_members_nan(plant, map_, W, clean):
    """NaN where slots 0 and 1 hold the first mapped member and a mapped
    member, as only the separation scan fills them, planted by ``plant``."""
    images = map_.f(np.asarray(clean.line.members))

    def is_image(P):
        return (np.asarray(P)[..., None, :] == images).all(axis=-1).any(axis=-1)

    def first_image_pair(X, Y, *rest):
        first = at_point(0, images[0])(X, Y) | at_point(1, images[0])(X, Y)
        return first & is_image(X) & is_image(Y)

    outcome = detect_outcome(plant(map_, first_image_pair), unit_sphere(SQUEEZE[1]),
                             120, witnesses=W)
    assert outcome.tag == "Indeterminate"
    assert outcome.diagnostic == "pair distance between mapped line members 0 and 0 is NaN"
    assert outcome.to_json()["line"] == clean.to_json()["line"]
    json.dumps(outcome.to_json(), allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["jacobian", "ratio"]),
       st.integers(0, 49), st.integers(0, 2))
def test_a_planted_nan_fails_the_certificate(seed, where, i, slot):
    A = 0.25 * np.eye(2)
    base = certifier_baseline()
    patch, inner, step = SpherePatch(0.2), 0.1, _STEP

    @broadcasting
    def F(x):
        return np.matmul(A, np.asarray(x, dtype=float)[..., None])[..., 0]

    def run(f):
        inp = CertInput(map=f, jac_target=A, norm_bound=base["C_A"], patch=patch,
                        inner_radius=inner, ratio_constant=base["C_prime"])
        return certify(inp, samples=50, ratio_triples=50, seed=seed)

    clean = run(F)
    assert clean.passes and clean.conclusion_ok
    rng = np.random.default_rng(seed)
    pts = patch.sample(rng, 50, radius=max(inner - 2.5 * step, inner * 0.5))
    if where == "jacobian":        # the difference points around one sample
        result = run(nan_at(F, pts[i], radius=2.0 * step))
        assert not result.passes
        assert result.failures[0]["hypothesis"] == "jacobian_proximity"
    else:                          # one point of the ratio triples
        p = [patch.sample(rng, 50, radius=inner) for _ in range(3)][slot][i]
        result = run(nan_at(F, p))
        assert not result.passes
        assert [f["hypothesis"] for f in result.failures] == ["range_containment"]
