"""Sequence norms: column/row, CR_p, ell_1, and the ell_inf bracket."""

import math
import pickle

import numpy as np
import pytest

from ncstein import (
    build_filtration,
    column_q_norm,
    crp_norm,
    herm,
    l1_norm_positive,
    linf_norm_positive,
    op_norm,
    psd_power,
    row_2_norm,
    run_inequality,
    sample_adapted_positive,
    sample_hermitian,
    sample_projection_family,
    sample_psd,
    schatten_norm,
)
from ncstein.opcore import _complex_gaussians, _psd_draws
from ncstein.seqnorm import (
    _abs_q_stack,
    _barrier,
    _crp_split,
    _hermitian_basis,
    _newton_system,
    _root_norms,
)

from oracles import (column_norm_svd, crp_dual_lower, scalar_lpq, schatten_from_eig,
                     verify_bracket)

INF = math.inf


def diag_seq(rows):
    return [np.diag(np.asarray(r, dtype=float)).astype(complex) for r in rows]


def test_column_singleton():
    x = sample_hermitian(3, 1) + 1j * sample_hermitian(3, 2)
    for p, q in ((1.0, 1.0), (2.5, 1.5), (3.0, 2.0)):
        assert column_q_norm([x], p, q).value == pytest.approx(
            schatten_norm(x, p), abs=1e-10
        )


def test_column_of_non_psd_terms_matches_svd_oracle():
    # column_q_norm reads a term that is not PSD as |x| at its boundary, for every q
    seq = [sample_hermitian(4, 1) + 1j * sample_hermitian(4, 2), sample_hermitian(4, 3),
           sample_psd(4, 4)]
    for p, q in ((2.5, 1.0), (2.5, 1.5), (3.0, 2.0), (3.0, 3.0)):
        assert column_q_norm(seq, p, q).value == pytest.approx(
            column_norm_svd(seq, p, q), rel=1e-12)


def test_column_copies_scale():
    x = sample_psd(3, 5)
    for n_copies in (2, 5):
        for q in (1.0, 1.5, 2.0):
            got = column_q_norm([x] * n_copies, 2.5, q).value
            want = n_copies ** (1.0 / q) * schatten_norm(x, 2.5)
            assert got == pytest.approx(want, rel=1e-10)


def test_column_diagonal_oracle():
    rng = np.random.default_rng(0)
    fs = rng.uniform(0.1, 2.0, size=(3, 4))
    got = column_q_norm(diag_seq(fs), 2.5, 1.5).value
    want = scalar_lpq(fs, 2.5, 1.5, np.full(4, 0.25))
    assert got == pytest.approx(want, abs=1e-10)


def test_column_routes_agree():
    # the eigenvalue route mean(w^(p/q))^(1/p) against the explicit root
    seq = [sample_psd(4, s) for s in range(3)]
    s = herm(_abs_q_stack(np.stack(seq), 2.0)[0].sum(axis=0))
    for p in (1.5, 2.0, 3.0):
        direct = schatten_norm(psd_power(s, 0.5), p)
        assert _root_norms(s, p, 2.0) == pytest.approx(direct, rel=1e-9)


def test_column_rejections():
    with pytest.raises(ValueError, match="nonempty"):
        column_q_norm([], 2, 2)
    for q in (INF, "inf"):
        with pytest.raises(ValueError, match="linf_norm_positive"):
            column_q_norm([np.eye(2)], 2, q)


def test_row_equals_column_for_hermitian():
    seq = [sample_hermitian(3, s) for s in range(3)]
    assert row_2_norm(seq, 2.5).value == pytest.approx(
        column_q_norm(seq, 2.5, 2).value, rel=1e-12
    )


def test_row_singleton_adjoint():
    x = sample_hermitian(3, 7) + 1j * sample_hermitian(3, 8)
    assert row_2_norm([x], 3).value == pytest.approx(schatten_norm(x, 3), abs=1e-10)


def test_row_differs_from_column_for_nonnormal():
    rng = np.random.default_rng(3)
    seq = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
    col = column_q_norm(seq, 4, 2).value
    row = row_2_norm(seq, 4).value
    assert abs(col - row) > 1e-6
    # both match a decomposition-independent evaluation
    s_col = sum(x.conj().T @ x for x in seq)
    s_row = sum(x @ x.conj().T for x in seq)
    assert col == pytest.approx(schatten_from_eig(np.linalg.cholesky(s_col).conj().T, 4), rel=1e-9)
    assert row == pytest.approx(schatten_from_eig(np.linalg.cholesky(s_row).conj().T, 4), rel=1e-9)


def test_crp_p2_hermitian():
    seq = [sample_hermitian(3, s) for s in range(2)]
    assert crp_norm(seq, 2).value == pytest.approx(column_q_norm(seq, 2, 2).value, rel=1e-12)


def test_crp_max_branch():
    rng = np.random.default_rng(9)
    seq = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
    v = crp_norm(seq, 3)
    assert v.bound == "exact"
    assert v.value == pytest.approx(
        max(column_q_norm(seq, 3, 2).value, row_2_norm(seq, 3).value), rel=1e-12
    )


def test_crp_split_branch_feasibility():
    rng = np.random.default_rng(11)
    seq = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
    v = crp_norm(seq, 1.5)
    assert v.bound == "upper"
    cap = min(column_q_norm(seq, 1.5, 2).value, row_2_norm(seq, 1.5).value)
    assert v.value <= cap + 1e-9
    a, b = v.certificate.column_part, v.certificate.row_part
    for x, aa, bb in zip(seq, a, b):
        assert op_norm(aa + bb - x) <= 1e-10


def test_crp_split_agrees_with_max_at_p2():
    # the infimal-splitting value at p = 2 must match the max branch
    seq = [sample_hermitian(2, s) for s in range(2)]
    split = _crp_split(np.stack(seq).astype(complex)[None], 2.0)[0]
    assert split.value == pytest.approx(crp_norm(seq, 2).value, abs=1e-6)


def crp_family():
    """(p, sequence) for p in {1, 1.25, 1.5, 1.75} and seeds 0-9: d = 4 with 3 terms
    at even seeds, d = 8 with 4 terms at odd ones; the terms by seed mod 3 are
    complex Gaussians, sample_psd draws, or an adapted positive sequence on dyadic d."""
    for p in (1.0, 1.25, 1.5, 1.75):
        for seed in range(10):
            d, n = (4, 3) if seed % 2 == 0 else (8, 4)
            if seed % 3 == 0:
                yield p, _complex_gaussians(np.random.default_rng(seed), n, d)
            elif seed % 3 == 1:
                yield p, np.stack([sample_psd(d, 100 * seed + m) for m in range(n)])
            else:
                yield p, np.stack(sample_adapted_positive(build_filtration("dyadic", d), n, seed))


def test_crp_split_against_its_dual_lower_end():
    # every splitting reassembles x, and the dual lower end of its own splitting
    # brackets it: at or below it, by a median relative gap of round-off at each p
    gaps = {}
    for p, seq in crp_family():
        upper = crp_norm(seq, p)
        a, b = (np.stack(part) for part in (upper.certificate.column_part,
                                            upper.certificate.row_part))
        assert np.abs(a + b - seq).max() <= 1e-12 * np.abs(seq).max()
        lower = crp_dual_lower(seq, p, upper.certificate)
        assert 0 < lower <= upper.value * (1 + 1e-12)
        gaps.setdefault(p, []).append(1 - lower / upper.value)
    for p, gap in gaps.items():
        assert np.median(gap) <= 1e-8, p
        assert max(gap) <= 1e-2, p


def test_crp_split_scores_a_sequence_alike_in_any_batch():
    # a fixed step count: each sequence's value and splitting are those it gets alone
    for p in (1.0, 1.5):
        xs = np.stack([seq for q, seq in crp_family() if q == p and seq.shape[-1] == 4])
        batch = _crp_split(xs, p)
        for k, x in enumerate(xs):
            assert pickle.dumps(batch[k]) == pickle.dumps(_crp_split(x[None], p)[0])


def test_crp_split_of_degenerate_terms():
    # a zero term, rank-one terms, a single term and a zero sequence: no RuntimeWarning
    # (the suite makes one a failure), a reassembling splitting, and exact 0 for zero
    psd = sample_psd(4, 3)
    v = np.linalg.eigh(psd)[1][:, -1:]
    cases = (np.stack([psd, np.zeros((4, 4)), 2 * psd]), np.stack([v @ v.T.conj(), 3j * v @ v.T]),
             psd[None])
    for p in (1.0, 1.5):
        zero = crp_norm(np.zeros((2, 4, 4)), p)
        assert (zero.value, zero.bound) == (0.0, "exact")
        for seq in cases:
            value = crp_norm(seq, p)
            assert value.bound == "upper" and value.value > 0
            a, b = value.certificate.column_part, value.certificate.row_part
            assert np.abs(np.stack(a) + np.stack(b) - seq).max() <= 1e-12 * np.abs(seq).max()


def test_public_norms_return_the_checkers_bits():
    # column_q_norm, l1_norm_positive and crp_norm at p >= 2 take the checker's route
    filts = {d: build_filtration("dyadic", d) for d in (4, 8)}
    for seed in range(60):
        filt = filts[(4, 8)[seed % 2]]
        seq = _psd_draws(np.random.default_rng(seed), 3, filt.dim)
        for p, q in ((3.0, 1.5), (2.0, 1.5), (4.0, 2.0)):
            rhs = run_inequality("s_pq", seq, filt, p, q).rhs
            assert column_q_norm(seq, p, q).value == rhs.value
        for p in (1.5, 3.0):
            assert l1_norm_positive(seq, p).value == run_inequality("dd_p", seq, filt, p).rhs.value
        adapted = sample_adapted_positive(filt, 3, seed)
        assert crp_norm(adapted, 3).value == run_inequality("crp_stein", adapted, filt, 3).rhs.value


def test_l1_norm():
    x = sample_psd(3, 1)
    assert l1_norm_positive([x], 2).value == pytest.approx(schatten_norm(x, 2), rel=1e-12)
    projections = sample_projection_family(4, 3, seed=2)
    for p in (1.0, 2.0, 3.0, INF):
        assert l1_norm_positive(projections, p).value == pytest.approx(1.0, abs=1e-10)
    seq = [sample_psd(4, s) for s in range(3)]
    assert l1_norm_positive(seq, 2).value == pytest.approx(
        schatten_norm(sum(seq), 2), rel=1e-12
    )
    with pytest.raises(ValueError, match="not positive"):
        l1_norm_positive([np.diag([1.0, -1.0])], 2)


def test_linf_singleton_collapse():
    x = sample_psd(4, 3)
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        br = linf_norm_positive([x], p)
        target = schatten_norm(x, p)
        assert br.lower.value == pytest.approx(target, abs=1e-6)
        assert br.upper.value == pytest.approx(target, abs=1e-6)
        assert br.lower.value <= br.upper.value + 1e-8


def test_linf_orthogonal_diagonals():
    seq = diag_seq([[1.0, 0.0], [0.0, 1.0]])
    br = linf_norm_positive(seq, 2)
    assert br.lower.value >= 1 - 1e-6
    assert br.upper.value == pytest.approx(1.0, abs=1e-9)


def test_linf_constant_sequence():
    x = sample_psd(3, 11)
    for n_copies in (2, 4):
        br = linf_norm_positive([x] * n_copies, 2.5)
        assert br.lower.value == pytest.approx(schatten_norm(x, 2.5), abs=1e-6)
        assert br.upper.value == pytest.approx(schatten_norm(x, 2.5), abs=1e-6)


def test_linf_zero_sequence():
    br = linf_norm_positive([np.zeros((3, 3))] * 2, 2)
    assert br.lower.value == 0.0 and br.upper.value == 0.0
    assert br.lower.bound == "exact" and br.upper.bound == "exact"


# criterion 7's first 30 brackets (shapes and exponents cycle together, so
# p = 1 and p = inf both occur) plus the original seeds 100-102, p = 2 instance
C7_SHAPES = ((2, 1), (3, 2), (4, 3), (5, 2), (6, 4), (3, 5))
C7_EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)
LINF_CASES = {"seeds100-102-p2": ([sample_psd(4, 100 + n) for n in range(3)], 2.0)}
for _seed in range(30):
    _dim, _terms = C7_SHAPES[_seed % 6]
    LINF_CASES[f"c7-seed{_seed}-p{C7_EXPONENTS[_seed % 5]:g}"] = (
        [sample_psd(_dim, 40_000 * _seed + n) for n in range(_terms)], C7_EXPONENTS[_seed % 5])


@pytest.fixture(scope="module")
def linf_brackets():
    return {case: linf_norm_positive(seq, p) for case, (seq, p) in LINF_CASES.items()}


@pytest.mark.parametrize("case", list(LINF_CASES))
def test_linf_certificates(case, linf_brackets):
    seq, p = LINF_CASES[case]
    br = linf_brackets[case]
    verify_bracket(seq, p, br)
    # the bracket is closed: each gap at most 1e-5, the family's median at most 1e-6
    gaps = [(b.upper.value - b.lower.value) / b.upper.value for b in linf_brackets.values()]
    assert (br.upper.value - br.lower.value) / br.upper.value <= 1e-5
    assert np.median(gaps) <= 1e-6


def test_barrier_derivatives_match_finite_differences():
    d = 3
    basis = _hermitian_basis(d)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(d * d), atol=1e-14)
    xs = np.stack([sample_psd(d, 60 + n) for n in range(2)])
    xs /= 2 * max(op_norm(x) for x in xs)
    a = np.eye(d) + 0.1 * herm(sample_hermitian(d, 61))
    eps = 1e-5
    for p in (1.0, 1.5, 3.0):
        grad, _, hess = _newton_system(xs, a, p, 2.0, basis)
        for k in range(d * d):
            step = basis[:, k].reshape(d, d) * eps  # basis matrix k
            fd_grad = (_barrier(xs, a + step, p, 2.0) - _barrier(xs, a - step, p, 2.0)) / (2 * eps)
            assert fd_grad == pytest.approx(grad[k], rel=1e-6, abs=1e-7), (p, k)
            fd_hess = (_newton_system(xs, a + step, p, 2.0, basis)[0]
                       - _newton_system(xs, a - step, p, 2.0, basis)[0]) / (2 * eps)
            np.testing.assert_allclose(fd_hess, hess[:, k], rtol=1e-5, atol=1e-6)


def test_large_exponents_do_not_overflow():
    # ||1e3 1||^p passes 1e308 at p = 200; each norm scales by the top of its spectrum
    big = 1e3 * np.eye(2)
    assert schatten_norm(big, 200) == 1000.0
    assert column_q_norm([big], 200, 1.5).value == pytest.approx(1000.0, rel=1e-14)
    seq = [big, big / 2]
    br = linf_norm_positive(seq, 200)
    assert br.upper.value == pytest.approx(1000.0, rel=1e-12)
    assert (br.upper.value - br.lower.value) / br.upper.value <= 1e-5
    verify_bracket(seq, 200, br)


@pytest.mark.parametrize("case,q", [("psd-d4", 400.0), ("identity", 600.0),
                                    ("psd-d16-rhs1", 600.0), ("non-psd-d8", 600.0),
                                    ("small", 600.0)])
def test_large_inner_exponent_does_not_overflow(case, q):
    # each sequence is divided by the exact top of its spectra (of |x| for a non-PSD
    # term) before the inner power, and its norm multiplied back: the top's power is 1,
    # so it neither overflows (an eigenvalue above 5.9 passes 1e308 at q = 400) nor
    # underflows
    if case == "psd-d4":
        seq = [sample_psd(4, n) for n in range(3)]
    elif case == "identity":
        seq = [np.eye(4)]
    elif case == "psd-d16-rhs1":  # a witness normalized to rhs 1
        seq = [sample_psd(16, n) for n in range(3)]
        seq = [x / column_q_norm(seq, q, q).value for x in seq]
    elif case == "non-psd-d8":
        seq = [sample_hermitian(8, n) + 1j * sample_hermitian(8, 10 + n) for n in range(3)]
    else:
        seq = [1e-3 * sample_psd(4, n) for n in range(2)]
    value = column_q_norm(seq, q, q).value
    # at p = q the column norm is (sum_n ||x_n||_q^q)^(1/q)
    norms = np.array([schatten_norm(x, q) for x in seq])
    top = norms.max()
    assert value == pytest.approx(top * np.sum((norms / top) ** q) ** (1 / q), rel=1e-12)
    if case == "psd-d16-rhs1":
        assert value == pytest.approx(1.0, rel=1e-12)
    scaled = column_q_norm([2**20 * x for x in seq], q, q).value
    assert scaled == pytest.approx(2**20 * value, rel=1e-12)


def test_linf_bracket_order():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        seq = [sample_psd(d, 500 * seed + k) for k in range(n)]
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, INF]))
        br = linf_norm_positive(seq, p, seed=seed)
        assert br.lower.value <= br.upper.value + 1e-8


def test_classical_reduction_diagonals():
    rng = np.random.default_rng(21)
    fs = rng.uniform(0.0, 2.0, size=(3, 4))
    seq = diag_seq(fs)
    w = np.full(4, 0.25)
    for p in (1.5, 2.0, 3.0):
        assert column_q_norm(seq, p, 2).value == pytest.approx(
            scalar_lpq(fs, p, 2, w), abs=1e-6
        )
        assert l1_norm_positive(seq, p).value == pytest.approx(
            scalar_lpq(fs, p, 1, w), abs=1e-6
        )
        br = linf_norm_positive(seq, p)
        want = scalar_lpq(fs, p, INF, w)
        assert br.lower.value == pytest.approx(want, abs=1e-6)
        assert br.upper.value == pytest.approx(want, abs=1e-6)


def test_homogeneity():
    seq = [sample_psd(3, s) for s in range(2)]
    c = 2.75
    for p in (1.0, 2.0, 3.0):
        assert column_q_norm([c * x for x in seq], p, 2).value == pytest.approx(
            c * column_q_norm(seq, p, 2).value, rel=1e-10
        )
        assert l1_norm_positive([c * x for x in seq], p).value == pytest.approx(
            c * l1_norm_positive(seq, p).value, rel=1e-10
        )
        assert crp_norm([c * x for x in seq], p).value == pytest.approx(
            c * crp_norm(seq, p).value, rel=1e-10
        )


def test_row_is_column_of_adjoints_by_construction():
    rng = np.random.default_rng(33)
    seq = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
    assert row_2_norm(seq, 2.5).value == column_q_norm(
        [x.conj().T for x in seq], 2.5, 2
    ).value
