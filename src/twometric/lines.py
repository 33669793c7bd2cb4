"""Colinearity, lines, and classification of point sequences.

A triple is colinear when d vanishes (numerically: stays under a tolerance);
a line is a maximal subset all of whose triples are colinear.  Under the
transitivity axiom two points at positive pair distance lie on exactly one
line, namely the set of points colinear with both.

For a sequence (x_i), the tail property "d(y, x_i, x_j) -> 0 over tail
pairs" singles out the candidate limit objects.  For a tail that is not
Cauchy for the pair distance, the set of points with that property is
empty, a single point, or a line; a Cauchy tail makes the property hold
everywhere.  ``classify`` turns these finite-tail numerics into a tagged
verdict with thresholds recorded in the evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .core import (FiniteTwoMetricSpace, TwoMetricSpace, WitnessSet, _d_many,
                   _d_max, _phi_many, _triples, eval_phi, point_json, point_key)

# Deterministic stream for subsampling oversized pair/triple scans.
_SUBSAMPLE_SEED = 0x5EED
_MAX_PAIRS = 20000
_MAX_TRIPLES = 200000


@dataclass(frozen=True)
class Thresholds:
    """Numeric policy for classification and outcome detection.

    All judgments are finite-sample estimates; these knobs are recorded in
    every piece of evidence that used them.
    """

    lim: float = 1e-6           # tail residual for candidate limit points
    cauchy: float = 1e-8        # pair-distance modulus for the Cauchy tag
    tri_cauchy: float = 1e-8    # triple modulus reported alongside
    min_phi: float = 1e-6       # distinctness floor for pairs of points
    colinear: float = 1e-6      # membership / invariance defect tolerance
    fixed_point: float = 1e-8   # residual phi(y, F(y)) for a fixed point
    min_length: int = 50
    tail_fraction: float = 0.5

    def to_json(self) -> dict:
        return {
            "lim": self.lim,
            "cauchy": self.cauchy,
            "tri_cauchy": self.tri_cauchy,
            "min_phi": self.min_phi,
            "colinear": self.colinear,
            "fixed_point": self.fixed_point,
            "min_length": self.min_length,
            "tail_fraction": self.tail_fraction,
        }


# ---------------------------------------------------------------------------
# colinearity and lines
# ---------------------------------------------------------------------------

def is_colinear(space: TwoMetricSpace, x, y, z, tolerance: float = 1e-9) -> bool:
    return float(_d_max(space, x, y, z)) <= tolerance


@dataclass(frozen=True)
class Line:
    """A line presented by two generators plus a membership tolerance; on
    finite spaces the maximal member set is materialized explicitly."""

    g1: Any
    g2: Any
    tolerance: float
    members: tuple | None = None

    def defect(self, space: TwoMetricSpace, a) -> float:
        return float(_d_max(space, a, self.g1, self.g2))

    def contains(self, space: TwoMetricSpace, a) -> bool:
        return self.defect(space, a) <= self.tolerance

    def contains_each(self, space: TwoMetricSpace, points) -> np.ndarray:
        """``contains`` of each point stacked on the first axis, in one
        kernel scan; a NaN defect is not contained."""
        P = np.asarray(points)
        return _d_max(space, P[:, None], self.g1, self.g2) <= self.tolerance

    def to_json(self) -> dict:
        return {
            "generators": [point_json(self.g1), point_json(self.g2)],
            "tolerance": float(self.tolerance),
            "members": None if self.members is None
            else [point_json(m) for m in self.members],
        }


@dataclass(frozen=True)
class TransitivityProbe:
    """Result of checking that colinearity propagates across a shared pair."""

    premises_hold: bool
    conclusion_holds: bool
    inconclusive: bool
    derived_tolerance: float | None
    pair_phi: float | None

    @property
    def holds(self) -> bool:
        return (not self.inconclusive) and (not self.premises_hold or self.conclusion_holds)


def transitivity_probe(space: TwoMetricSpace, x, y, z, w,
                       witnesses: WitnessSet, tolerance: float = 1e-9,
                       min_phi: float = 1e-6) -> TransitivityProbe:
    """If (x,y,z) and (y,z,w) are colinear at the tolerance and y, z are
    separated, then (x,y,w) and (x,z,w) must be colinear at tolerance
    2*tol/phi(y,z).  Inconclusive when phi(y,z) is below the floor."""
    pair_phi = eval_phi(space, y, z, witnesses)
    if pair_phi <= min_phi:
        return TransitivityProbe(False, False, True, None, pair_phi)
    derived = 2.0 * tolerance / pair_phi
    # premises (x,y,z), (y,z,w) and conclusions (x,y,w), (x,z,w) in one call
    values = _d_many(space, [x, y, x, x], [y, z, y, z], [z, w, w, w])
    premises = bool((values[:2] <= tolerance).all())
    conclusion = bool((values[2:] <= derived).all())
    return TransitivityProbe(premises, conclusion, False, derived, pair_phi)


def line_through(space: TwoMetricSpace, x, y, witnesses: WitnessSet,
                 tolerance: float = 1e-9, min_phi: float = 1e-6) -> Line:
    """The unique line through two separated points: everything colinear
    with both.  On finite spaces the member set is materialized and its
    internal triples verified."""
    pair_phi = eval_phi(space, x, y, witnesses)
    if pair_phi <= min_phi:
        raise ValueError(
            f"line undefined: generators have pair distance {pair_phi:.3g} <= {min_phi:.3g}")
    if space.size is None:
        return Line(x, y, tolerance)
    members = _members(space, x, y, tolerance)
    rows = np.asarray(members, np.intp)[_triples(len(members))]
    # a NaN member triple is not colinear either
    bad = np.flatnonzero(~(_d_many(space, *rows.T) <= tolerance))
    if len(bad):
        raise RuntimeError(f"member triple {tuple(rows[bad[0]].tolist())} is not colinear; "
                           "transitivity fails on this space")
    return Line(x, y, tolerance, members)


def _members(space: TwoMetricSpace, g1, g2, tolerance: float) -> tuple:
    """The indices a of a space with ``size`` points (an ``as_space()``
    table) where d(a, g1, g2) <= tolerance."""
    near = Line(int(g1), int(g2), tolerance).contains_each(space, np.arange(space.size))
    return tuple(np.flatnonzero(near).tolist())


def maximal_colinear_sets(space: FiniteTwoMetricSpace,
                          tolerance: float = 1e-12) -> set[frozenset]:
    """All maximal subsets whose internal triples vanish; a NaN entry is
    not colinear.

    The closure of a pair x, y is every z with (x, y, z) colinear.  When
    the closure is colinear itself it is the only maximal set through x and
    y.  Every other maximal set has only pairs whose closure is not
    colinear ("ambiguous" pairs, such as two points at pair distance zero),
    so the candidate/excluded recursion runs on those pairs alone.  A set
    it finds that is not maximal extends by some w with a non-ambiguous
    pair (m, w), so it lies in the closure of that pair and is dropped.
    """
    n = space.n
    if n < 3:
        return {frozenset(range(n))}
    C = space.dense() <= tolerance
    I, J = np.triu_indices(n, k=1)
    closures, which = np.unique(C[I, J], axis=0, return_inverse=True)
    members = [np.flatnonzero(row) for row in closures]
    # a closure of at most three points is colinear by its construction
    colinear = np.array([len(s) < 4 or C[np.ix_(s, s, s)].all() for s in members])
    lines = {frozenset(s.tolist()) for s, ok in zip(members, colinear) if ok}

    ambiguous = np.zeros((n, n), dtype=bool)
    ambiguous[I, J] = ambiguous[J, I] = ~colinear[which.ravel()]
    found: list[frozenset] = []

    def fits(current: list[int], v: int, P: np.ndarray) -> np.ndarray:
        """The points of P that extend current + [v]."""
        return P[ambiguous[v, P] & C[current, v][:, P].all(axis=0)]

    def extend(current: list[int], cand: np.ndarray, excluded: np.ndarray) -> None:
        if not len(cand) and not len(excluded):
            found.append(frozenset(current))
            return
        for i, v in enumerate(cand.tolist()):
            extend(current + [v], fits(current, v, cand[i + 1:]),
                   fits(current, v, np.concatenate([excluded, cand[:i]])))

    extend([], np.flatnonzero(ambiguous.any(axis=1)), np.array([], dtype=np.intp))
    return lines.union(s for s in found if not any(s <= line for line in lines))


def enumerate_lines(space: FiniteTwoMetricSpace,
                    tolerance: float = 1e-12) -> list[Line]:
    """Every line of a finite space, as explicit member sets sorted for
    reproducibility.  Generators are the extreme members of each set."""
    lines = []
    for members in sorted(maximal_colinear_sets(space, tolerance),
                          key=lambda s: sorted(s)):
        ordered = tuple(sorted(members))
        g1 = ordered[0]
        g2 = ordered[-1] if len(ordered) > 1 else ordered[0]
        lines.append(Line(g1, g2, tolerance, ordered))
    return lines


# ---------------------------------------------------------------------------
# tail residuals and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimEstimate:
    candidate: Any
    start: int
    residual: float


def _pair_arrays(length: int, start: int, cap: int = _MAX_PAIRS):
    idx_i, idx_j = np.triu_indices(length - start, k=1)
    idx_i, idx_j = idx_i + start, idx_j + start
    if len(idx_i) > cap:
        pick = np.random.default_rng(_SUBSAMPLE_SEED).choice(
            len(idx_i), size=cap, replace=False)
        idx_i, idx_j = idx_i[pick], idx_j[pick]
    return idx_i, idx_j


def _triple_arrays(length: int, start: int, cap: int = _MAX_TRIPLES):
    """Index triples i < j < k of the tail from ``start``: all of them in
    lexicographic order, a seeded subsample of ``cap`` of them when there
    are more, or, past 120 tail points, the first ``cap`` rows of three
    distinct entries among ``2 * cap`` random draws, each sorted."""
    m = length - start
    if m > 120 or math.comb(m, 3) > 4 * cap:
        draws = np.random.default_rng(_SUBSAMPLE_SEED).integers(0, m, size=(cap * 2, 3))
        a, b, c = draws.T
        # a sorted row is strictly increasing exactly when its entries are
        # distinct, so only the rows kept need sorting
        keep = np.flatnonzero((a != b) & (b != c) & (a != c))[:cap]
        combos = np.sort(draws[keep], axis=1)
    else:
        combos = _triples(m)
        if len(combos) > cap:
            pick = np.random.default_rng(_SUBSAMPLE_SEED).choice(
                len(combos), size=cap, replace=False)
            combos = combos[pick]
    return combos + start


def lim_residual(space: TwoMetricSpace, y, sequence, start: int = 0) -> LimEstimate:
    """Worst d(y, x_i, x_j) over tail pairs i < j starting at ``start``."""
    seq = np.asarray(sequence)
    if start >= len(seq):
        raise ValueError("tail start beyond sequence length")
    if len(seq) - start < 2:
        return LimEstimate(y, start, 0.0)
    idx_i, idx_j = _pair_arrays(len(seq), start)
    return LimEstimate(y, start, float(_d_max(space, y, seq[idx_i], seq[idx_j])))


@dataclass
class Classification:
    """Tagged verdict for a sequence, with the numbers that produced it."""

    tag: str                      # NoPoint | UniquePoint | CauchySequence | LineCase
    cauchy_modulus: float
    tri_cauchy_modulus: float
    thresholds: Thresholds
    limit: Any = None             # CauchySequence
    point: Any = None             # UniquePoint
    line: Line | None = None      # LineCase
    passers: list = field(default_factory=list)
    passer_residuals: list = field(default_factory=list)
    derived_colinear_tol: float | None = None
    passer_defect: float | None = None
    low_confidence: bool = False
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "tag": self.tag,
            "cauchy_modulus": float(self.cauchy_modulus),
            "tri_cauchy_modulus": float(self.tri_cauchy_modulus),
            "thresholds": self.thresholds.to_json(),
            "passers": [point_json(p) for p in self.passers],
            "low_confidence": bool(self.low_confidence),
            "notes": list(self.notes),
        }
        if self.limit is not None:
            out["limit"] = point_json(self.limit)
        if self.point is not None:
            out["point"] = point_json(self.point)
        if self.line is not None:
            out["line"] = self.line.to_json()
        return out


def _dedupe_candidates(candidates):
    seen = set()
    out = []
    for c in candidates:
        key = point_key(c)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def classify(space: TwoMetricSpace, sequence, witnesses: WitnessSet,
             thresholds: Thresholds = Thresholds()) -> Classification:
    """Classify a sequence tail.

    The tail is the last ``tail_fraction`` of the sequence.  Candidates for
    the limit search are the witness points plus all tail points.  A sequence
    can land in several cases at once; ties resolve by the fixed priority
    Cauchy > Line > UniquePoint > NoPoint, since a Cauchy tail makes the tail
    property hold everywhere.
    """
    seq = np.asarray(sequence)
    n = len(seq)
    if n < thresholds.min_length:
        raise ValueError(f"sequence length {n} below minimum {thresholds.min_length}")
    start = n - max(2, int(round(n * thresholds.tail_fraction)))

    idx_i, idx_j = _pair_arrays(n, start)
    cauchy_modulus = float(_phi_many(space, seq[idx_i], seq[idx_j], witnesses).max())
    combos = _triple_arrays(n, start)
    tri_modulus = float(_d_many(space, seq[combos[:, 0]], seq[combos[:, 1]],
                                seq[combos[:, 2]]).max())

    candidates = _dedupe_candidates(list(np.asarray(witnesses.points)) + list(seq[start:]))
    # Tail residual of every candidate: one scan over candidates x pairs.
    residuals = _d_max(space, np.asarray(candidates)[:, None], seq[idx_i], seq[idx_j])

    passing = [i for i in range(len(candidates)) if residuals[i] <= thresholds.lim]
    passers = [candidates[i] for i in passing]
    passer_residuals = [float(residuals[i]) for i in passing]

    notes = []
    low = False
    if thresholds.cauchy < cauchy_modulus <= 10.0 * thresholds.cauchy:
        low = True
        notes.append("cauchy modulus within 10x of threshold")
    if thresholds.tri_cauchy < tri_modulus <= 10.0 * thresholds.tri_cauchy:
        low = True
        notes.append("tri-cauchy modulus within 10x of threshold")
    near = [float(r) for r in residuals
            if thresholds.lim < r <= 10.0 * thresholds.lim]
    if near:
        low = True
        notes.append(f"{len(near)} candidate residuals within 10x of lim threshold")

    base = Classification(
        tag="NoPoint",
        cauchy_modulus=cauchy_modulus,
        tri_cauchy_modulus=tri_modulus,
        thresholds=thresholds,
        passers=passers,
        passer_residuals=passer_residuals,
        low_confidence=low,
        notes=notes,
    )

    if cauchy_modulus <= thresholds.cauchy:
        return replace(base, tag="CauchySequence", limit=seq[-1])

    if not passers:
        return base
    # Greedy clustering at the pair-distance floor, taking the passers in
    # turn, has passers[0] as its first representative, and finds a second
    # one exactly when some passer lies farther than the floor from it.
    if (_phi_many(space, passers[:1], passers, witnesses) > thresholds.min_phi).any():
        # Generators: the two passers farthest apart in pair distance.
        P = np.asarray(passers)
        pi, pj = np.triu_indices(len(passers), k=1)
        phis = _phi_many(space, P[pi], P[pj], witnesses)
        best = int(np.argmax(phis))
        g1, g2 = passers[pi[best]], passers[pj[best]]
        # Anti-Cauchy gap feeds the derived colinearity tolerance for the
        # passer set: residual <= lim on tail pairs plus a witnessed pair at
        # distance >= gap force d(p, p', p'') <= 6*lim*(1 + 1/gap).
        gap = cauchy_modulus
        derived = 6.0 * thresholds.lim * (1.0 + 1.0 / gap)
        defect = float(_d_max(space, P, g1, g2))
        extra_notes = list(notes)
        if defect > derived:
            low = True
            extra_notes.append(
                f"passer membership defect {defect:.3g} exceeds derived tolerance {derived:.3g}")
        members = (None if space.size is None
                   else _members(space, g1, g2, thresholds.colinear))
        line = Line(g1, g2, thresholds.colinear, members)
        return replace(base, tag="LineCase", line=line, derived_colinear_tol=derived,
                       passer_defect=defect, low_confidence=low, notes=extra_notes)
    return replace(base, tag="UniquePoint", point=passers[0])
