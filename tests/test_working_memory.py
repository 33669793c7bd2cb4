"""Working memory of the sampled checks and of a table's save: the sandwich
scan holds its stacks and one block of rows, ``certify``'s conclusion its
three stacks and one block of images and ratios, ``audit`` holds one draw
of five stacks, lets it go before its phi stage, and lets its report hold
none of them, and ``save`` holds the parts of one block of entries at a
time.

Peaks are taken with ``tracemalloc``, which sees numpy's data buffers, after
one untraced call, so one-time allocations of the first call do not count.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np

from conftest import random_sphere_table
from twometric import WitnessSet, area_ball_space, audit, convexity_bound
from twometric.cli import main
from twometric.core import AXIOM_ORDER

MB = 1e6


def traced_peak(f) -> float:
    """The peak of the memory that ``f()`` allocates, in MB."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_the_sandwich_scan_holds_its_stacks_and_one_block():
    # the three stacks of 10**5 planar points are 4.8 MB; the one-pass scan
    # peaked at about 16 MB, over every row's temporaries at once
    assert traced_peak(lambda: convexity_bound(samples=10 ** 5)) <= 8.0


def test_the_certify_conclusion_holds_its_stacks_and_one_block(tmp_path, capsys):
    # the CLI's map at 2 * 10**5 triples: the three stacks are 9.6 MB, and
    # the one-pass conclusion, mapping every stack and taking every ratio at
    # once, peaked at 53 MB
    argv = ["certify", "--triples", str(2 * 10 ** 5), "--out", str(tmp_path)]
    assert traced_peak(lambda: main(argv)) <= 16.0
    assert '"pass": true' in (tmp_path / "certify.json").read_text()


def test_the_audit_holds_a_few_stacks_at_a_time():
    # the one-pass audit held all 14 sampled stacks to its end: about 10 MB;
    # two draws at a time and every phi-stage array at once took 4.9 MB, and
    # one draw of five stacks with the phi stage's arrays let go takes 3.1
    space = area_ball_space(5)
    W = WitnessSet.sampled(space, 128, 0)
    assert traced_peak(lambda: audit(space, witnesses=W, triples=8000)) <= 4.0


def test_the_audit_phi_stage_holds_less_than_the_draw():
    # at 10**5 tuples the five stacks of 5-d points are 20 MB and the Trans
    # kernel calls peak at 38.4 MB; the phi stage, holding its index draws,
    # pair numbers, unique keys and witness stacks at once, peaked at 60 MB
    space = area_ball_space(5)
    W = WitnessSet.sampled(space, 128, 0)
    assert traced_peak(lambda: audit(space, witnesses=W, triples=10 ** 5)) <= 42.0


def noise(X, Y, Z):
    """A value in [0, 2) that is not symmetric and not 0 on repeated
    points."""
    return (1e3 * (X[..., 0] + 2.0 * Y[..., 0] + 3.0 * Z[..., 0])) % 2.0


def zero(X, Y):
    return np.zeros(np.broadcast_shapes(X.shape, Y.shape)[:-1])


def quartic(X, Y):
    return 1e3 * np.sum((X - Y) ** 2, axis=-1) ** 2


def test_each_witness_owns_its_points():
    # the noise breaks the five sampled axioms; a pair distance of 0 breaks
    # N and DphiLipschitz, and one that grows as the fourth power AT and
    # CostTriangle, each with a witness drawn from the witness set
    ball = area_ball_space(5)
    W = WitnessSet.sampled(ball, 16, 0)
    failed = set()
    for space in (replace(ball, d_batch=noise, phi=zero), replace(ball, phi=quartic)):
        for record in audit(space, witnesses=W, triples=300, seed=2).records:
            if record.witness is not None:
                failed.add(record.axiom)
                assert all(p.base is None for p in record.witness)
    assert failed == set(AXIOM_ORDER)


def test_save_holds_one_block_of_parts(tmp_path):
    # an 80-point table is 82,160 entries and 7.2 MB of file; written in one
    # join, its parts, tokens and text peaked at 30.5 MB, and in blocks of
    # 2**11 entries the peak is about 3.4 MB, most of it the stored values
    # and their indices
    table = random_sphere_table(np.random.default_rng(0), 80)
    assert traced_peak(lambda: table.save(tmp_path / "table.json")) <= 6.0
