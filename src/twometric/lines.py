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

from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np

from .core import (FiniteTwoMetricSpace, TwoMetricSpace, WitnessSet, _d_max, _key_classes,
                   _strict, eval_phi, point_json, points_json)

# Deterministic stream for subsampling oversized pair scans.
_SUBSAMPLE_SEED = 0x5EED
_MAX_PAIRS = 20000


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
        return asdict(self)


# ---------------------------------------------------------------------------
# colinearity and lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    """A line presented by two generators plus a membership tolerance; on
    finite spaces the maximal member set is materialized explicitly."""

    g1: Any
    g2: Any
    tolerance: float
    members: tuple | None = None

    def defects(self, space: TwoMetricSpace, points) -> np.ndarray:
        """d(p, g1, g2) of each point p stacked on the first axis, in one
        kernel scan."""
        P = np.concatenate([np.asarray(points), [self.g1, self.g2]])
        k = len(P) - 2
        return _d_max(space, np.arange(k)[:, None], k, k + 1, P)

    def contains_each(self, space: TwoMetricSpace, points) -> np.ndarray:
        """Whether each point stacked on the first axis lies on the line,
        d(p, g1, g2) <= tolerance; a NaN defect is not contained."""
        return self.defects(space, points) <= self.tolerance

    def to_json(self) -> dict:
        return {
            "generators": [point_json(self.g1), point_json(self.g2)],
            "tolerance": float(self.tolerance),
            "members": None if self.members is None
            else points_json(self.members),
        }


def _members(space: TwoMetricSpace, line: Line) -> tuple:
    """The indices a of a space with ``size`` points (an ``as_space()``
    table) that lie on the line."""
    return tuple(np.flatnonzero(line.contains_each(space, np.arange(space.size))).tolist())


# Table entries at or below this count as colinear in ``enumerate_lines``.
_COLINEAR = 1e-12


def maximal_colinear_sets(space: FiniteTwoMetricSpace) -> set[frozenset]:
    """All maximal subsets whose internal triples vanish (stay at or below
    ``_COLINEAR``); a NaN entry is not colinear.

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
    C = space.dense() <= _COLINEAR
    I, J = np.triu_indices(n, k=1)
    # one bytes item per closure row: its bits in order, so the items sort
    # as the boolean rows do, and far faster than np.unique(axis=0)
    packed = np.packbits(C[I, J], axis=1)
    _, first, which = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                return_index=True, return_inverse=True)
    closures = C[I[first], J[first]]
    points, ends = np.nonzero(closures)[1].tolist(), np.cumsum(closures.sum(axis=1)).tolist()
    members = [points[a:b] for a, b in zip([0] + ends, ends)]
    # a closure of at most three points is colinear by its construction
    colinear = np.array([len(s) < 4 or C[np.ix_(s, s, s)].all() for s in members])
    lines = {frozenset(s) for s, ok in zip(members, colinear.tolist()) if ok}

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


def line_members(space: FiniteTwoMetricSpace) -> list[list[int]]:
    """The member list of every line of a finite space, each sorted, in
    sorted order: the lines of ``maximal_colinear_sets`` as the CLI's
    artifacts write them."""
    return sorted(sorted(members) for members in maximal_colinear_sets(space))


def enumerate_lines(space: FiniteTwoMetricSpace) -> list[Line]:
    """Every line of a finite space, with the members and in the order of
    ``line_members``.  Generators are the extreme members of each line."""
    return [Line(m[0], m[-1], _COLINEAR, tuple(m)) for m in line_members(space)]


# ---------------------------------------------------------------------------
# tail residuals and classification
# ---------------------------------------------------------------------------

def _pair_arrays(length: int, start: int):
    """Index pairs i < j of the tail from ``start``, in lexicographic
    order: all of them, or, when there are more than ``_MAX_PAIRS``, those
    at the positions in ``np.triu_indices`` order of a seeded draw of
    ``_MAX_PAIRS`` without repeats.  A position turns into its pair by the
    start ``i * k - i * (i + 1) / 2`` of each row i of the k tail points,
    so no array holds every pair."""
    k = length - start
    count = k * (k - 1) // 2
    if count <= _MAX_PAIRS:
        i, j = np.triu_indices(k, k=1)
    else:
        pick = np.sort(np.random.default_rng(_SUBSAMPLE_SEED).choice(count, _MAX_PAIRS,
                                                                     replace=False))
        rows = np.arange(k)
        starts = rows * k - rows * (rows + 1) // 2
        i = np.searchsorted(starts, pick, side="right") - 1
        j = pick - starts[i] + i + 1
    return i + start, j + start


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
    low_confidence: bool = False
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        """Strict JSON, by the rule of ``core._strict``."""
        out = _strict({
            "tag": self.tag,
            "cauchy_modulus": float(self.cauchy_modulus),
            "tri_cauchy_modulus": float(self.tri_cauchy_modulus),
            "thresholds": self.thresholds.to_json(),
            "passers": points_json(self.passers),
            "low_confidence": bool(self.low_confidence),
            "notes": list(self.notes),
        })
        if self.limit is not None:
            out["limit"] = point_json(self.limit)
        if self.point is not None:
            out["point"] = point_json(self.point)
        if self.line is not None:
            out["line"] = self.line.to_json()
        return out


def classify(space: TwoMetricSpace, sequence, witnesses: WitnessSet,
             thresholds: Thresholds = Thresholds()) -> Classification:
    """Classify a sequence tail.

    The tail is the last ``tail_fraction`` of the sequence, and at least 3
    points; a sequence shorter than 3 points or than ``min_length`` is
    refused with a ``ValueError``.  Candidates for the limit search are the
    witness points plus all tail points, each point once: two points are one
    where ``core._key_classes`` puts them in one class, and each class is
    taken at its first point, the witnesses before the tail.  The Cauchy
    modulus and the candidates' residuals are taken over the tail pairs of
    ``_pair_arrays``, and the triple modulus over every tail triple i < j <
    k whose pair (j, k) is one of them (every triple up to 200 tail
    points), read off the candidate scan.  A residual is read only against
    ``lim``, against 10 ``lim`` and for NaN, and of the held triples only
    their max, so the scan is asked for no more (``core._d_max``'s
    ``classes``); the triple modulus stays exact in its bits.  A line's
    generators are the first pair of passers, in ``np.triu_indices`` order,
    whose phi is the largest or NaN, by one ``eval_phi`` over every passer
    pair.  A sequence can land in several cases at once; ties resolve by the
    fixed priority Cauchy > Line > UniquePoint > NoPoint, since a Cauchy
    tail makes the tail property hold everywhere.
    """
    seq = np.asarray(sequence)
    n = len(seq)
    least = max(3, thresholds.min_length)
    if n < least:
        raise ValueError(f"sequence length {n} below minimum {least}")
    start = n - max(3, int(round(n * thresholds.tail_fraction)))

    idx_i, idx_j = _pair_arrays(n, start)
    cauchy_modulus = float(eval_phi(space, idx_i, idx_j, witnesses, seq).max())

    # Candidates are the witnesses and the tail, each point once, at its
    # first position and with its first tail position: a class found in
    # the witnesses only reads a position past the tail.  One scan over
    # candidates x pairs gives each candidate's residual, the max over its
    # row, and the triples it holds, the max from its cut on: a candidate
    # at tail position t holds the triples (t, i, j) with i past t, which
    # follow the pairs before them.
    points = np.concatenate([np.asarray(witnesses.points), seq[start:]])
    m = len(witnesses)
    classes = _key_classes(points)
    pick = np.unique(classes, return_index=True)[1]
    position = np.unique(np.roll(classes, -m), return_index=True)[1]
    cuts = np.searchsorted(idx_i, start + position, side="right")
    residuals, held = _d_max(space, pick[:, None], m - start + idx_i, m - start + idx_j, points,
                             cuts, (thresholds.lim, 10.0 * thresholds.lim)).T
    tri_modulus = float(held.max())
    passers = list(points[pick[residuals <= thresholds.lim]])

    # Every note lowers the confidence.  A NaN or infinite modulus fails
    # every threshold test below, so it gets a note of its own rather than
    # a clean tag.
    notes = [f"{name} is {'NaN' if np.isnan(value) else value}"
             for name, value in (("cauchy modulus", cauchy_modulus),
                                 ("tri-cauchy modulus", tri_modulus))
             if not np.isfinite(value)]
    if thresholds.cauchy < cauchy_modulus <= 10.0 * thresholds.cauchy:
        notes.append("cauchy modulus within 10x of threshold")
    if thresholds.tri_cauchy < tri_modulus <= 10.0 * thresholds.tri_cauchy:
        notes.append("tri-cauchy modulus within 10x of threshold")
    near = [float(r) for r in residuals
            if thresholds.lim < r <= 10.0 * thresholds.lim]
    if near:
        notes.append(f"{len(near)} candidate residuals within 10x of lim threshold")
    nan_residuals = int(np.isnan(residuals).sum())
    if nan_residuals:
        notes.append(f"{nan_residuals} candidate residuals are NaN")

    base = Classification(
        tag="NoPoint",
        cauchy_modulus=cauchy_modulus,
        tri_cauchy_modulus=tri_modulus,
        thresholds=thresholds,
        passers=passers,
        low_confidence=bool(notes),
        notes=notes,
    )

    if cauchy_modulus <= thresholds.cauchy:
        return replace(base, tag="CauchySequence", limit=seq[-1])

    if not passers:
        return base
    # Greedy clustering at the pair-distance floor, taking the passers in
    # turn, has passers[0] as its first representative, and finds a second
    # one exactly when some passer lies farther than the floor from it.
    spread = eval_phi(space, passers[:1], passers, witnesses)
    if np.isnan(spread).any():
        notes = notes + ["pair distance from the first passer is NaN"]
    if (spread > thresholds.min_phi).any():
        # Generators: the two passers farthest apart in pair distance.
        P = np.asarray(passers)
        pi, pj = np.triu_indices(len(P), k=1)
        best = int(np.argmax(eval_phi(space, pi, pj, witnesses, P)))
        g1, g2 = passers[pi[best]], passers[pj[best]]
        # Anti-Cauchy gap feeds the derived colinearity tolerance for the
        # passer set: residual <= lim on tail pairs plus a witnessed pair at
        # distance >= gap force d(p, p', p'') <= 6*lim*(1 + 1/gap).
        gap = cauchy_modulus
        derived = 6.0 * thresholds.lim * (1.0 + 1.0 / gap)
        line = Line(g1, g2, thresholds.colinear)
        defect = float(line.defects(space, P).max())
        if np.isnan(defect):
            notes = notes + ["passer membership defect is NaN"]
        elif defect > derived:
            notes = notes + [f"passer membership defect {defect:.3g} exceeds "
                             f"derived tolerance {derived:.3g}"]
        if space.size is not None:
            line = replace(line, members=_members(space, line))
        return replace(base, tag="LineCase", line=line, low_confidence=bool(notes), notes=notes)
    return replace(base, tag="UniquePoint", point=passers[0], low_confidence=bool(notes),
                   notes=notes)
