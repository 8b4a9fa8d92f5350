"""Property tests of the Schatten and column norms: positive homogeneity over
two hundred orders of magnitude at every exponent, with no overflow."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncstein import column_q_norm, schatten_norm
from ncstein.opcore import herm, _complex_gaussians


@settings(derandomize=True, deadline=None, max_examples=60)
@given(log_c=st.floats(-100, 100), p=st.one_of(st.floats(1, 1e3), st.just(math.inf)),
       q=st.floats(1, 2), seed=st.integers(0, 2**32 - 1))
def test_norms_are_homogeneous(log_c, p, q, seed):
    c = 10.0**log_c
    z = _complex_gaussians(np.random.default_rng(seed), 3, 4)
    xs = herm(z.conj().swapaxes(1, 2) @ z)  # column norms at q != 2 take PSD terms
    assert schatten_norm(c * z[0], p) == pytest.approx(c * schatten_norm(z[0], p), rel=1e-12)
    assert column_q_norm(c * xs, p, q).value == pytest.approx(
        c * column_q_norm(xs, p, q).value, rel=1e-12)
