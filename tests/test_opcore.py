"""Operator kernel: decompositions, powers, norms, generators."""

import math

import numpy as np
import pytest

from ncstein import opcore as oc

from oracles import schatten_from_eig, svd_abs

INF = math.inf


def test_hermitian_eig_identity():
    w, u = oc.hermitian_eig(np.eye(3))
    np.testing.assert_allclose(w, [1, 1, 1], atol=1e-14)
    assert oc.op_norm(u.conj().T @ u - np.eye(3)) <= 1e-10


def test_hermitian_eig_diagonal():
    w, _ = oc.hermitian_eig(np.diag([-4.0, 3.0]))
    np.testing.assert_allclose(w, [-4, 3], atol=1e-14)


def test_hermitian_eig_reconstruction():
    h = oc.sample_hermitian(5, 123)
    w, u = oc.hermitian_eig(h)
    recon = (u * w) @ u.conj().T
    assert oc.op_norm(recon - h) <= 1e-10 * max(1, oc.op_norm(h))
    assert np.all(np.diff(w) >= 0)
    assert oc.op_norm(u.conj().T @ u - np.eye(5)) <= 1e-10


def test_hermitian_eig_rejections():
    with pytest.raises(ValueError, match="square"):
        oc.hermitian_eig(np.ones((2, 3)))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        oc.hermitian_eig(skew)
    with pytest.raises(ValueError, match="finite"):
        oc.as_operator(np.array([[np.nan, 0], [0, 1]]))


def test_abs_op_examples():
    np.testing.assert_allclose(oc.abs_op(-np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(oc.abs_op(np.diag([3.0, -4.0])), np.diag([3.0, 4.0]), atol=1e-12)


def test_abs_op_against_svd_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = oc.abs_op(x)
        assert oc.op_norm(got - svd_abs(x)) <= 1e-9 * max(1, oc.op_norm(x))
        # result squared recovers x* x
        assert oc.op_norm(got @ got - x.conj().T @ x) <= 1e-9 * max(1, oc.op_norm(x) ** 2)


def test_psd_power_examples():
    np.testing.assert_allclose(oc.psd_power(np.eye(3), 0.7), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(oc.psd_power(np.diag([4.0, 9.0]), 0.5),
                               np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_power_inverse_oracle():
    a = oc.sample_psd(4, 7)
    cube_root = oc.psd_power(a, 1.0 / 3.0)
    back = cube_root @ cube_root @ cube_root
    assert oc.op_norm(back - a) <= 1e-8 * max(1, oc.op_norm(a))


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_psd_power_round_trip(r):
    a = oc.sample_psd(3, 55)
    again = oc.psd_power(oc.psd_power(a, r), 1.0 / r)
    assert oc.op_norm(again - a) <= 1e-8 * max(1, oc.op_norm(a))


def test_psd_power_rejections():
    with pytest.raises(ValueError, match="not PSD"):
        oc.psd_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError, match="positive"):
        oc.psd_power(np.eye(2), 0.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_schatten_identity(p):
    assert oc.schatten_norm(np.eye(4), p) == pytest.approx(1.0, abs=1e-14)


def test_schatten_examples():
    assert oc.schatten_norm(np.diag([2.0, 0.0]), 1) == pytest.approx(1.0, abs=1e-14)
    x = oc.sample_hermitian(6, 42) + 1j * oc.sample_hermitian(6, 43)
    assert oc.schatten_norm(x, 2.5) == pytest.approx(schatten_from_eig(x, 2.5), abs=1e-10)


def test_schatten_monotone_in_p():
    x = oc.sample_hermitian(5, 9)
    ps = [1.0, 1.3, 2.0, 2.7, 4.0, 10.0, INF]
    vals = [oc.schatten_norm(x, p) for p in ps]
    for lo, hi in zip(vals[:-1], vals[1:]):
        assert hi >= lo - 1e-10


@pytest.mark.parametrize("dim", (1, 4, 6, 8))
def test_stacked_svd_gives_each_matrix_its_schatten_norms(dim):
    # the axioms take the norms of E(x) and x from one SVD of their stack
    rng = np.random.default_rng(dim)
    pair = np.stack([oc._complex_gaussian(rng, dim), oc._complex_gaussian(rng, dim)])
    spectra = np.linalg.svd(pair, compute_uv=False)
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        assert [float(oc._p_mean(s, p, top=0)) for s in spectra] == \
            [oc.schatten_norm(x, p) for x in pair]


def test_schatten_rejects_small_p():
    with pytest.raises(ValueError, match=">= 1"):
        oc.schatten_norm(np.eye(2), 0.5)


def test_conjugate_exponent():
    assert oc.conjugate_exponent(2) == 2
    assert oc.conjugate_exponent(1) == INF
    assert oc.conjugate_exponent(INF) == 1
    assert oc.conjugate_exponent(3) == pytest.approx(1.5, abs=1e-15)
    for p in (1.0, 1.25, 2.0, 7.0, INF):
        assert oc.conjugate_exponent(oc.conjugate_exponent(p)) == pytest.approx(p, rel=1e-12)


def test_sample_unitary():
    u = oc.sample_unitary(4, 7)
    assert oc.op_norm(u.conj().T @ u - np.eye(4)) <= 1e-10


def test_sample_psd():
    x = oc.sample_psd(3, 1)
    assert np.linalg.eigvalsh(x)[0] >= -1e-12


def test_sample_projection_family():
    family = oc.sample_projection_family(4, 4, 2)
    assert len(family) == 4
    for i, r in enumerate(family):
        assert oc.op_norm(r @ r - r) <= 1e-10
        assert oc.op_norm(r - r.conj().T) <= 1e-12
        for j in range(i):
            assert oc.op_norm(family[i] @ family[j]) <= 1e-10
    total = sum(family)
    assert np.linalg.eigvalsh(total)[-1] <= 1 + 1e-10


def test_sample_determinism_and_rejection():
    a = oc.sample_hermitian(3, 11)
    b = oc.sample_hermitian(3, 11)
    np.testing.assert_array_equal(a, b)
    assert oc.op_norm(a - oc.sample_hermitian(3, 12)) > 1e-3
    with pytest.raises(ValueError, match="count <= dim"):
        oc.sample_projection_family(3, 4, 0)


def test_triangle_inequality():
    for seed in range(8):
        x = oc.sample_hermitian(4, seed)
        y = oc.sample_hermitian(4, seed + 100)
        for p in (1.0, 2.0, 3.5, INF):
            lhs = oc.schatten_norm(x + y, p)
            assert lhs <= oc.schatten_norm(x, p) + oc.schatten_norm(y, p) + 1e-10


def test_hoelder_pairing():
    for seed in range(8):
        x = oc.sample_hermitian(4, seed)
        y = oc.sample_hermitian(4, seed + 200)
        for p in (1.0, 1.5, 2.0, 3.0):
            bound = oc.schatten_norm(x, p) * oc.schatten_norm(y, oc.conjugate_exponent(p))
            assert abs(oc.ntrace(x @ y)) <= bound + 1e-10


def test_unitary_invariance():
    x = oc.sample_hermitian(4, 3) + 1j * oc.sample_hermitian(4, 4)
    u = oc.sample_unitary(4, 5)
    v = oc.sample_unitary(4, 6)
    for p in (1.0, 2.0, 2.5, INF):
        assert oc.schatten_norm(u @ x @ v, p) == pytest.approx(
            oc.schatten_norm(x, p), abs=1e-10
        )


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_power_monotone_for_small_exponents(r):
    for seed in range(30):
        a = oc.sample_psd(3, seed)
        b = a + oc.sample_psd(3, seed + 10_000)
        gap = oc.psd_power(b, r) - oc.psd_power(a, r)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-8


def test_power_not_monotone_at_two():
    # t^2 is not operator monotone; a violating pair must show up quickly
    for seed in range(1000):
        a = oc.sample_psd(2, seed)
        b = a + oc.sample_psd(2, seed + 10**6)
        gap = oc.psd_power(b, 2) - oc.psd_power(a, 2)
        if np.linalg.eigvalsh(gap)[0] < -1e-6:
            return
    pytest.fail("no monotonicity violation found for r = 2 in 1000 trials")
