"""Property tests of the Schatten, column and CR_p norms: positive homogeneity
over two hundred orders of magnitude at every exponent, with no overflow, the
PSD power core's and the ell_inf core's batch invariance across leading axes,
the ell_inf bracket's sandwich between max_n ||x_n||_p and ||sum_n x_n||_p, and
the column core's per-block path on classical chains against its dense path."""

import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from ncstein import build_filtration, column_q_norm, crp_norm, linf_norm_positive, schatten_norm
from ncstein.opcore import _abs_q_stack, _complex_gaussians, _gram, _psd_draws
from ncstein.seqnorm import _column_norms, _linf_bracket


@settings(derandomize=True, deadline=None, max_examples=60)
@example(log_c=-60.0, p=1.0, q=1.5, seed=0)  # an absolute floor in a CR_p solve shows here
@given(log_c=st.floats(-100, 100),
       p=st.one_of(st.floats(1, 2, exclude_max=True), st.floats(1, 1e3), st.just(math.inf)),
       q=st.floats(1, 2), seed=st.integers(0, 2**32 - 1))
def test_norms_are_homogeneous(log_c, p, q, seed):
    c = 10.0**log_c
    z = _complex_gaussians(np.random.default_rng(seed), 3, 4)
    xs = _gram(z)  # column norms at q != 2 take PSD terms
    assert schatten_norm(c * z[0], p) == pytest.approx(c * schatten_norm(z[0], p), rel=1e-12, abs=0)
    assert column_q_norm(c * xs, p, q).value == pytest.approx(
        c * column_q_norm(xs, p, q).value, rel=1e-12, abs=0)
    crp, scaled = crp_norm(z, p), crp_norm(c * z, p)
    assert scaled.value == pytest.approx(c * crp.value, rel=1e-12, abs=0)
    if p < 2:  # an upper end with the splitting c z = a + b behind it
        a, b = (np.stack(part) for part in (scaled.certificate.column_part,
                                            scaled.certificate.row_part))
        assert np.abs(a + b - c * z).max() <= 1e-12 * c * np.abs(z).max()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lead=st.sampled_from(((1, 1), (3, 1), (2, 3), (4, 2), (2, 1, 1), (2, 2, 3), (2, 3, 2))),
       dim=st.integers(1, 6), q=st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0, 7.0)),
       p=st.sampled_from((1.0, 2.5, math.inf)), seed=st.integers(0, 2**32 - 1))
def test_power_core_scores_a_sequence_alike_in_any_stack(lead, dim, q, p, seed):
    # leading shapes (k, n) and (2, k, n): the powers, the per-sequence scales (q > 2)
    # and the column norms of the whole stack are those of each sequence on its own, its
    # norm taken as a batch of one as the kernels take it (a 0-d norm would go through
    # numpy's scalar pow, which can differ from the array pow in the last bit)
    xs = _psd_draws(np.random.default_rng(seed), math.prod(lead), dim).reshape(*lead, dim, dim)
    powers, scales = _abs_q_stack(xs, q)
    norms = _column_norms(xs, p, q)
    for idx in np.ndindex(lead[:-1]):
        own_powers, own_scale = _abs_q_stack(xs[idx], q)
        assert powers[idx].tobytes() == own_powers.tobytes()
        assert np.float64(scales if q <= 2 else scales[idx]) == own_scale
        assert norms[idx].tobytes() == _column_norms(xs[idx][None], p, q)[0].tobytes()


@settings(derandomize=True, deadline=None, max_examples=12)
@given(lead=st.sampled_from(((1,), (3,), (2, 2), (2, 3))), dim=st.integers(1, 3),
       n=st.integers(1, 3), p=st.sampled_from((1.5, 2.0, math.inf)),
       seed=st.integers(0, 2**32 - 1))
def test_linf_core_brackets_a_sequence_alike_in_any_stack(lead, dim, n, p, seed):
    # leading shapes (k,) and (2, k): both ends of every sequence, certificates included,
    # are those of the sequence bracketed alone as a batch of one
    xs = _psd_draws(np.random.default_rng(seed), math.prod(lead) * n, dim)
    xs = xs.reshape(*lead, n, dim, dim)
    lower, upper = _linf_bracket(xs, p)
    assert lower.shape == upper.shape == lead
    for idx in np.ndindex(lead):
        alone = _linf_bracket(xs[idx][None], p)
        assert pickle.dumps((lower[idx], upper[idx])) == pickle.dumps((alone[0][0], alone[1][0]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(dim=st.integers(1, 4), n=st.integers(1, 3),
       p=st.sampled_from((1.0, 1.5, 2.0, 3.0, math.inf)), seed=st.integers(0, 2**32 - 1))
def test_linf_bracket_sits_in_its_sandwich(dim, n, p, seed):
    # a >= x_n gives ||a||_p >= max_n ||x_n||_p, so the upper end lies above that, and
    # a = sum_n x_n is a majorant of positive terms, so the lower end lies below its norm
    xs = _psd_draws(np.random.default_rng(seed), n, dim)
    lower, upper = linf_norm_positive(xs, p)
    floor, ceiling = max(schatten_norm(x, p) for x in xs), schatten_norm(xs.sum(axis=0), p)
    assert floor <= upper.value * (1 + 1e-14)
    assert lower.value <= ceiling * (1 + 1e-14)
    assert lower.value <= upper.value * (1 + 1e-14)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=4), block=st.integers(1, 4),
       n=st.integers(1, 3), k=st.integers(1, 2),
       pq=st.sampled_from(((1.0, 1.0), (2.5, 1.0), (1.5, 1.5), (4.0, 1.5), (2.0, 2.0),
                           (3.0, 2.0), (3.0, 3.0), (8.0, 8.0))),
       seed=st.integers(0, 2**32 - 1))
def test_block_column_norms_match_the_dense_path(counts, block, n, k, pq, seed):
    # atoms of rational weights c_i / sum(c) on a classical chain, and k sequences of n
    # block functions on them: one PSD block per atom and term, copied into its slots
    p, q = pq
    filt = build_filtration("classical", block,
                            probabilities=[Fraction(c, sum(counts)) for c in counts])
    top, d = filt.levels[-1], filt.dim
    draws = _psd_draws(np.random.default_rng(seed), len(counts) * k * n, block)
    xs = np.zeros((k, n, top.atoms, block, top.atoms, block), complex)
    for cell, blocks in zip(top.cells, draws.reshape(len(counts), k, n, block, block)):
        for slot in cell:
            xs[:, :, slot, :, slot, :] = blocks
    xs = xs.reshape(k, n, d, d)
    dense = _column_norms(xs, p, q)
    np.testing.assert_allclose(_column_norms(xs, p, q, block), dense, rtol=1e-12, atol=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero spectrum, scaled or not, raises no warning
        assert (_column_norms(np.zeros_like(xs), p, q, block) == 0).all()
    if top.atoms > 1:  # one entry off the blocks: the dense path, to the byte
        xs[-1, -1, 0, -1] = xs[-1, -1, -1, 0] = 1e-3
        assert _column_norms(xs, p, q, block).tobytes() == _column_norms(xs, p, q).tobytes()
