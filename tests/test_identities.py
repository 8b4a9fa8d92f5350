"""The registry's identities, pinned bitwise: ids that are the same computation
must return the same floats, at both lags, on exactly Hermitian inputs and on
inputs that are Hermitian only within HERMITIAN_TOL."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ncstein import (
    build_filtration,
    column_q_norm,
    herm,
    l1_norm_positive,
    run_inequality,
    sample_unitary,
)
from ncstein.search import seeded_inputs

SEEDS = (0, 1, 2)
LAGS = (0, 1)


def _sides(report):
    return report.lhs.value, report.rhs.value, report.ratio


def _dd_p(xs, filt, p, lag):
    # (S_{p,1}), the dual Doob inequality, is s_pq at q = 1
    return [_sides(run_inequality("dd_p", xs, filt, p, lag=lag)),
            _sides(run_inequality("s_pq", xs, filt, p, 1, lag))]


def _l1(xs, filt, p, lag):
    # the ell_1 norm of a positive sequence is its column norm at q = 1, and dd_p's rhs
    return [l1_norm_positive(xs, p).value, column_q_norm(xs, p, 1).value,
            run_inequality("dd_p", xs, filt, p, lag=lag).rhs.value]


def _s_qq(xs, filt, p, lag):
    # s_qq is s_pq at p = q; lag 1 is s_qq's default, so it goes in as None
    return [_sides(run_inequality("s_qq", xs, filt, p, p, None if lag else 0)),
            _sides(run_inequality("s_pq", xs, filt, p, p, lag))]


def _semicommutative(xs, filt, p, lag):
    # a process over a two-atom base, atom 0 holding the sequence and atom 1 its
    # reverse, is an s_pq instance on the classical chain it lives on
    d = xs.shape[-1]
    chain = build_filtration("classical", d, probabilities=(Fraction(1, 3), Fraction(2, 3)),
                             depth=len(xs))
    seq = np.zeros((len(xs), chain.dim, chain.dim), complex)
    for block, cell in zip((xs, xs[::-1]), chain.levels[-1].cells):
        for s in cell:
            seq[:, s * d:(s + 1) * d, s * d:(s + 1) * d] = block
    q = min(p, 2.0)
    return [_sides(run_inequality("semicommutative", seq, chain, p, q, lag)),
            _sides(run_inequality("s_pq", seq, chain, p, q, lag))]


def _s_isometry(xs, filt, p, lag):
    # s_isometry on (x_n, y_n) for Haar unitaries y_n is s_pq on herm(y_n* x_n y_n)
    ys = np.stack([sample_unitary(xs.shape[-1], 7 * len(xs) + n) for n in range(len(xs))])
    q = min(p, 2.0)
    return [_sides(run_inequality("s_isometry", xs, filt, p, q, lag, ys)),
            _sides(run_inequality("s_pq", herm(ys.conj().swapaxes(1, 2) @ xs @ ys), filt, p, q,
                                  lag))]


def _doob(xs, filt, p, lag):
    # doob_maximal on a is s_p_inf on (a, ..., a), one copy per level: the lhs ends
    a = xs[0]
    doob = run_inequality("doob_maximal", [a], filt, p, lag=lag)
    sp_inf = run_inequality("s_p_inf", [a] * len(filt), filt, p, lag=lag)
    return [(r.lhs.value, r.lhs.bound, r.lhs_upper.value, r.lhs_upper.bound)
            for r in (doob, sp_inf)]


IDENTITIES = {
    "dd_p": (_dd_p, (1.0, 1.5, 2.0, 3.0)),
    "l1": (_l1, (1.0, 1.5, 2.0, 3.0)),
    "s_qq": (_s_qq, (1.0, 1.5, 2.0, 3.0)),
    "semicommutative": (_semicommutative, (1.0, 1.5, 2.0, 3.0)),
    "s_isometry": (_s_isometry, (1.0, 1.5, 2.0, 3.0)),
    "doob_maximal": (_doob, (1.5, 3.0, math.inf)),
}


def _inputs(kind, dim, seed, noise):
    """A seeded positive sequence with one term per level of the filtration; with
    noise, each term moves by 1e-12 times a real Gaussian matrix, so that it is
    Hermitian only within tolerance."""
    filt = build_filtration(kind, dim)
    xs = seeded_inputs("s_pq", filt, len(filt), seed)[0]
    if noise:
        xs = xs + 1e-12 * np.random.default_rng(seed).standard_normal(xs.shape)
    return xs, filt


@pytest.mark.parametrize("noise", [False, True], ids=["hermitian", "within-tolerance"])
@pytest.mark.parametrize("kind, dim", [("dyadic", 4), ("dyadic", 8), ("tensor", 8)])
@pytest.mark.parametrize("identity", IDENTITIES)
def test_registry_identity(identity, kind, dim, noise):
    sides, exponents = IDENTITIES[identity]
    for seed in SEEDS:
        xs, filt = _inputs(kind, dim, seed, noise)
        for p in exponents:
            for lag in LAGS:
                first, *others = sides(xs, filt, p, lag)
                assert all(other == first for other in others), (seed, p, lag, first, others)
