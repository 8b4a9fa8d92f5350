"""Operator kernel: decompositions, powers, norms, generators."""

import math

import numpy as np
import pytest

from ncstein import SearchConfig, build_filtration, run_inequality
from ncstein import opcore as oc
from ncstein.seqnorm import column_q_norm, _column_norms, _root_norms

from oracles import (clip_abs_q_stack, clip_column_norms, clip_psd_power, clip_root_norms,
                     complex_gaussians_formula, schatten_from_eig, svd_abs)

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


def per_item_stack(seq):
    """The term-by-term validation that as_stack's one pass must agree with."""
    items = [oc.as_operator(x) for x in seq]
    if not items:
        raise ValueError("operator sequence must be nonempty")
    dims = {x.shape[0] for x in items}
    if len(dims) != 1:
        raise ValueError(f"operator sequence mixes dimensions {sorted(dims)}")
    return np.stack(items)


def _with(value, at):
    xs = np.zeros((3, 2, 2), complex)
    xs[at] = value
    return xs


# each case builds a fresh input, since a generator is consumed by one pass
INVALID_STACKS = {
    "empty": lambda: [],
    "empty-array": lambda: np.zeros((0, 2, 2)),
    "2-D": lambda: np.eye(3),
    "non-square": lambda: np.ones((2, 2, 3)),
    "non-square-term": lambda: [np.eye(2), [[1.0, 2.0]]],
    "mixed-dims": lambda: [np.eye(2), np.eye(3)],
    "ragged": lambda: [[[1, 2], [3, 4]], [[1, 2], [3]]],
    "4-D": lambda: np.zeros((1, 2, 2, 2)),
    "nan-real": lambda: _with(np.nan, (2, 1, 0)),
    "inf-real": lambda: _with(-np.inf, (0, 0, 0)),
    "nan-imag": lambda: _with(complex(0.0, np.nan), (1, 0, 1)),
    "inf-imag": lambda: _with(complex(1.0, np.inf), (2, 1, 1)),
    "0x0-terms": lambda: np.zeros((2, 0, 0)),
    "generator": lambda: (x for x in (np.eye(2), np.full((2, 2), np.nan))),
    "generator-mixed": lambda: (x for x in (np.eye(2), np.eye(3))),
    "not-numbers": lambda: [[["a", "b"], ["c", "d"]]],
}


@pytest.mark.parametrize("case", INVALID_STACKS)
def test_as_stack_raises_the_per_item_error(case):
    with pytest.raises(Exception) as expected:
        per_item_stack(INVALID_STACKS[case]())
    with pytest.raises(expected.type) as got:
        oc.as_stack(INVALID_STACKS[case]())
    assert str(got.value) == str(expected.value)


def _signed_zeros():
    xs = oc._complex_gaussians(np.random.default_rng(4), 3, 4)
    xs.real[0, ::2] = -0.0
    xs.imag[1, :, 1::2] = -0.0
    xs[2, 3] = complex(-0.0, 0.0)
    return xs


VALID_STACKS = {
    "complex-array": _signed_zeros,
    "list-of-arrays": lambda: list(_signed_zeros()),
    "real-array": lambda: np.arange(18.0).reshape(2, 3, 3) - 9,
    "int-lists": lambda: [[[1, 2], [3, 4]], [[0, -1], [5, 6]]],
    "tuple": lambda: (np.eye(2), np.ones((2, 2), complex)),
    "generator": lambda: (x for x in _signed_zeros()),
    "1x1": lambda: [[[complex(-0.0, -0.0)]]],
}


@pytest.mark.parametrize("case", VALID_STACKS)
def test_as_stack_gives_the_per_item_bytes(case):
    expected = np.stack([oc.as_operator(x) for x in VALID_STACKS[case]()])
    got = oc.as_stack(VALID_STACKS[case]())
    assert got.dtype == expected.dtype == np.complex128 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_as_stack_never_aliases_its_input():
    # column_q_norm writes |x| over each non-PSD term of the stack it validated
    xs = _signed_zeros()
    before = xs.copy()
    got = oc.as_stack(xs)
    assert got is not xs and not np.shares_memory(got, xs)
    got[...] = 7.0
    assert xs.tobytes() == before.tobytes()
    column_q_norm(xs, 2, 1.5)
    assert xs.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# The one-pass draw and the np.maximum clamp keep the bytes of the plain formulas
# ---------------------------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("count, dim", [(1, 1), (3, 2), (100, 8), (7, 32)])
def test_complex_gaussians_keep_the_formula_bytes(count, dim):
    for seed in range(5):
        got = oc._complex_gaussians(np.random.default_rng([seed, count]), count, dim)
        expected = complex_gaussians_formula(np.random.default_rng([seed, count]), count, dim)
        assert got.dtype == expected.dtype == np.complex128 and got.shape == expected.shape
        assert np.array_equal(_bits(got), _bits(expected))
    # one draw against the same count drawn in chunks of at most three
    rng = np.random.default_rng([5, count])
    chunks = [oc._complex_gaussians(rng, min(3, count - lo), dim) for lo in range(0, count, 3)]
    whole = complex_gaussians_formula(np.random.default_rng([5, count]), count, dim)
    assert np.array_equal(_bits(np.concatenate(chunks)), _bits(whole))


def _clamp_cases(monkeypatch):
    """Stacks xs[3, 4, 8, 8] of PSD terms: rank-2 Gram matrices, whose spectra hold
    round-off negatives, and Gram matrices plus 1. From here on eigh and eigvalsh start
    every spectrum whose bottom is above 1/2 with -1e-300, -0.0 and +0.0, for the package
    and the oracles alike."""
    z = oc._complex_gaussians(np.random.default_rng(12), 3, 8).reshape(12, 2, 8)
    xs = oc._gram(z).reshape(3, 4, 8, 8)
    xs[:, ::2] += np.eye(8)
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def pin(w):
        w[w[..., 0] > 0.5, :3] = (-1e-300, -0.0, 0.0)
        return w

    monkeypatch.setattr(np.linalg, "eigh", lambda a: (pin(eigh(a)[0]), eigh(a)[1]))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pin(eigvalsh(a)))
    return xs


def test_clamped_spectra_are_not_vacuous(monkeypatch):
    xs = _clamp_cases(monkeypatch)
    w = np.linalg.eigh(oc.herm(xs))[0]
    pinned = np.broadcast_to([-1e-300, -0.0, 0.0], (3, 2, 3))
    assert np.array_equal(_bits(w[:, ::2, :3]), _bits(pinned))
    assert (w[:, 1::2, :6] < 0).sum() >= 6 and (w[:, 1::2, :6] > 0).sum() >= 6
    assert (np.abs(w[:, 1::2, :6]) < 1e-13).all() and (w[:, :, 6:] > 0.1).all()


@pytest.mark.parametrize("q", [1.5, 3.0])
def test_abs_q_stack_keeps_the_clip_bytes(monkeypatch, q):
    xs = _clamp_cases(monkeypatch)
    powers, scale = oc._abs_q_stack(xs, q)
    expected, expected_scale = clip_abs_q_stack(xs, q)
    assert np.array_equal(_bits(powers), _bits(expected))
    assert np.array_equal(_bits(np.asarray(scale, float)), _bits(np.asarray(expected_scale, float)))


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_root_and_column_norms_keep_the_clip_bytes(monkeypatch, p, q):
    xs = _clamp_cases(monkeypatch)
    for s in (xs, xs.sum(axis=1)):
        assert np.array_equal(_bits(_root_norms(s, p, q)), _bits(clip_root_norms(s, p, q)))
    assert np.array_equal(_bits(_column_norms(xs, p, q)), _bits(clip_column_norms(xs, p, q)))


@pytest.mark.parametrize("r", [0.5, 1.5, 3.0])
def test_psd_power_keeps_the_clip_bytes(monkeypatch, r):
    xs = _clamp_cases(monkeypatch)
    for a in xs.reshape(-1, 8, 8):
        assert np.array_equal(_bits(oc.psd_power(a, r)), _bits(clip_psd_power(a, r)))


# as_exponent is the one exponent rule: every public call that takes p or q refuses a
# value that is not a real number or "inf" with a ValueError that names the exponent
@pytest.mark.parametrize("value", [None, True, "3", 10**400],
                         ids=["none", "bool", "string", "past-float-range"])
@pytest.mark.parametrize("name", ["p", "q"])
def test_every_exponent_entry_refuses_a_bad_value_by_name(name, value):
    seq, filt = [np.eye(4)] * 3, build_filtration("dyadic", 4)
    p, q = {"p": (value, 2), "q": (3, value)}[name]
    for call in (lambda: oc.as_exponent(value, name),
                 lambda: run_inequality("s_pq", seq, filt, p, q),
                 lambda: SearchConfig(inequality_id="s_pq", p=p, q=q, filt=filt, seq_len=3),
                 lambda: column_q_norm(seq, p, q)):
        with pytest.raises(ValueError) as refused:
            call()
        assert type(refused.value) is ValueError
        assert f"exponent {name}" in str(refused.value), str(refused.value)


@pytest.mark.parametrize("value, expected", [("inf", INF), (math.inf, INF),
                                             (np.int64(3), 3.0), (np.float64(2.5), 2.5)])
def test_exponents_accept_inf_and_numpy_scalars(value, expected):
    filt = build_filtration("dyadic", 4)
    p = oc.as_exponent(value)
    assert type(p) is float and p == expected
    assert run_inequality("doob_maximal", [oc.sample_psd(4, 0)], filt, value).p == expected
    assert SearchConfig(inequality_id="doob_maximal", p=value, filt=filt).p == expected
    assert column_q_norm([np.eye(4)] * 3, value, 2).value == pytest.approx(3 ** 0.5)
