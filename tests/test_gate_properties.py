"""Property tests of the one residual-norm gate, opcore._norms_above, behind the
adapted, unitary and projection checks and is_adapted: its decision is the SVD's,
a term with a non-finite entry is refused without an SVD, is_adapted's residual is
the largest SVD norm bit for bit, and run_inequality's adapted check agrees with
is_adapted."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncstein import build_filtration, is_adapted, run_inequality, sample_adapted_positive
from ncstein.expectation import ADAPTED_TOL, _condition
from ncstein.inequality import PROJECTION_TOL, UNITARY_CHECK_TOL
from ncstein.opcore import _norms_above

TOLS = (0.0, ADAPTED_TOL, UNITARY_CHECK_TOL, PROJECTION_TOL)  # is_adapted's and each gate's
TERMS = ("zero", "negative-zero", "rank-one-below", "rank-one-above", "dense", "huge",
         "inf", "-inf", "nan")


def _term(kind: str, d: int, tol: float, rng: np.random.Generator) -> np.ndarray:
    """One d x d residual of the given kind at the tolerance tol."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "zero":
        return np.zeros((d, d), complex)
    if kind == "negative-zero":
        return np.full((d, d), complex(-0.0, -0.0))
    if kind.startswith("rank-one"):  # operator norm tol (1 -+ 1e-12), up to rounding
        u, v = g[0], g[-1].conj()
        c = tol * (1 - 1e-12 if kind.endswith("below") else 1 + 1e-12)
        return c * np.outer(u, v.conj()) / np.linalg.norm(u) / np.linalg.norm(v)
    if kind == "dense":
        return g * max(tol, 1e-12) * 10 ** rng.uniform(-3, 3)
    if kind == "huge":
        return g * 1e300
    term = g * 10 ** rng.uniform(-12, 0)
    i, j = rng.integers(d, size=2)
    value = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan}[kind]
    term[i, j] = complex(value, term[i, j].imag) if rng.integers(2) else complex(
        term[i, j].real, value)
    return term


@settings(derandomize=True, deadline=None, max_examples=150)
@given(d=st.sampled_from((1, 2, 3, 8)), tol=st.sampled_from(TOLS),
       kinds=st.lists(st.sampled_from(TERMS), min_size=1, max_size=6),
       seed=st.integers(0, 2**16))
def test_gate_decides_every_term_as_its_svd_norm(d, tol, kinds, seed):
    rng = np.random.default_rng(seed)
    diffs = np.array([_term(kind, d, tol, rng) for kind in kinds])
    norm, svd_inputs = np.linalg.norm, []

    def spy(a, *args, **kwargs):
        svd_inputs.append(a)
        return norm(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "norm", spy):
        norms = _norms_above(diffs, tol)
    assert all(np.isfinite(a).all() for a in svd_inputs)  # no SVD of a non-finite term
    for term, value in zip(diffs, norms):
        refused = not np.isfinite(term).all() or not norm(term, 2) <= tol
        assert (not value <= tol) == refused
        if not np.isfinite(term).all():
            assert value == np.inf


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kind=st.sampled_from(("dyadic", "tensor")), lag=st.sampled_from((0, 1)),
       off_level=st.lists(st.booleans(), min_size=1, max_size=4),
       log_c=st.floats(-100, 100), seed=st.integers(0, 2**16))
def test_is_adapted_residual_is_the_largest_svd_norm(kind, lag, off_level, log_c, seed):
    # adapted terms (zero residual on the dyadic chain, round-off on the tensor one)
    # mixed with unadapted ones, at scales 1e-100 to 1e100
    filt = build_filtration(kind, 8)
    rng = np.random.default_rng(seed)
    xs = np.array(sample_adapted_positive(filt, len(off_level), seed, lag))
    for n in np.flatnonzero(off_level):
        xs[n] = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    xs *= 10.0 ** log_c
    expected = float(np.linalg.norm(_condition(xs, filt, lag) - xs, 2, axis=(1, 2)).max())
    check = is_adapted(xs, filt, lag)
    assert check.residual.hex() == expected.hex()
    assert check.adapted == (expected <= ADAPTED_TOL)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kind=st.sampled_from(("dyadic", "tensor")),
       bumps=st.lists(st.tuples(
           st.integers(0, 3), st.integers(0, 7), st.integers(0, 7),
           st.sampled_from((0.0, ADAPTED_TOL * (1 - 1e-12), ADAPTED_TOL * (1 + 1e-12), 1e-14,
                            1e-9, 1.0))), max_size=3),
       seed=st.integers(0, 2**16))
def test_adapted_check_refuses_exactly_what_is_adapted_refuses(kind, bumps, seed):
    filt = build_filtration(kind, 8)
    xs = np.array(sample_adapted_positive(filt, 4, seed))
    for n, i, j, c in bumps:
        xs[n, i, j] += c
    try:
        run_inequality("s_12_adapted", xs, filt, 1, 2)
        refused = False
    except ValueError as err:
        assert str(err).startswith("sequence is not adapted")
        refused = True
    assert refused == (not is_adapted(xs, filt, 0).adapted)
