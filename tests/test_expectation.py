"""Conditional expectations, filtrations, adaptedness."""

import math

import numpy as np
import pytest

from ncstein import (
    CellAverage,
    Filtration,
    Pinching,
    TensorFactor,
    axiom_residuals,
    build_filtration,
    cond_exp,
    herm,
    is_adapted,
    level_index,
    ntrace,
    op_norm,
    pinching_from_sizes,
    sample_adapted_positive,
    sample_hermitian,
    sample_psd,
    schatten_norm,
    tower_residual,
)
from ncstein.opcore import _complex_gaussian

from oracles import axiom_residuals_reference, tower_residual_reference

INF = math.inf


def test_pinching_kills_off_diagonal():
    x = np.array([[1.0, 5.0], [5.0, 9.0]], dtype=complex)
    e = cond_exp(x, pinching_from_sizes([1, 1]))
    np.testing.assert_allclose(e, np.diag([1.0, 9.0]), atol=1e-14)
    assert ntrace(x) == pytest.approx(5.0)
    assert ntrace(e) == pytest.approx(5.0)


def test_tensor_factor_elementary():
    a = sample_hermitian(2, 1)
    b = sample_hermitian(2, 2)
    spec = TensorFactor((2, 2), 1)
    out = cond_exp(np.kron(a, b), spec)
    np.testing.assert_allclose(out, ntrace(b) * np.kron(a, np.eye(2)), atol=1e-12)


def test_trivial_subalgebra_gives_trace():
    x = sample_hermitian(4, 3)
    out = cond_exp(x, TensorFactor((2, 2), 0))
    np.testing.assert_allclose(out, ntrace(x) * np.eye(4), atol=1e-12)


def test_cell_average():
    blocks = [sample_hermitian(2, s) for s in range(3)]
    x = np.zeros((6, 6), dtype=complex)
    for i, blk in enumerate(blocks):
        x[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blk
    spec = CellAverage(((0, 1), (2,)), 2)
    out = cond_exp(x, spec)
    avg = (blocks[0] + blocks[1]) / 2
    np.testing.assert_allclose(out[0:2, 0:2], avg, atol=1e-14)
    np.testing.assert_allclose(out[2:4, 2:4], avg, atol=1e-14)
    np.testing.assert_allclose(out[4:6, 4:6], blocks[2], atol=1e-14)
    assert ntrace(out) == pytest.approx(complex(ntrace(x)).real, abs=1e-12)


def test_cond_exp_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        cond_exp(np.eye(3), pinching_from_sizes([1, 1]))


def test_spec_validation():
    with pytest.raises(ValueError, match="contiguous"):
        Pinching(((0, 2), (1,)))
    with pytest.raises(ValueError, match="cover"):
        Pinching(((0,), (2,)))
    with pytest.raises(ValueError, match="retained"):
        TensorFactor((2, 2), 3)
    with pytest.raises(ValueError, match="cover"):
        CellAverage(((0,), (2,)), 1)


def test_axiom_residuals_fixed_point():
    spec = pinching_from_sizes([2, 2])
    x = cond_exp(sample_hermitian(4, 8), spec)
    assert op_norm(cond_exp(x, spec) - x) <= 1e-14


def test_axiom_residuals_nilpotent():
    spec = pinching_from_sizes([1, 1])
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    e = cond_exp(x, spec)
    np.testing.assert_allclose(e, np.zeros((2, 2)), atol=1e-15)
    assert abs(ntrace(e) - ntrace(x)) <= 1e-15


def test_axiom_residuals_tensor():
    res = axiom_residuals(TensorFactor((2, 2), 1), trials=50, seed=0)
    assert res.max_residual() <= 1e-10


def test_axiom_residuals_pinching():
    res = axiom_residuals(pinching_from_sizes([1, 1, 2]), trials=50, seed=1)
    assert res.max_residual() <= 1e-10
    assert set(res.contractivity) == {1.0, 2.0, 3.0, INF}


CELL_CHAIN = Filtration(tuple(CellAverage(cells, 2) for cells in (
    ((0, 1, 2),), ((0,), (1, 2)), ((0,), (1,), (2,)))))
AXIOM_LEVELS = [(name, level, spec) for name, filt in (
    ("dyadic8", build_filtration("dyadic", 8)),
    ("tensor8", build_filtration("tensor", local_dims=(2, 2, 2))),
    ("tensor232", build_filtration("tensor", local_dims=(2, 3, 2))),
    ("cells", CELL_CHAIN),
) for level, spec in enumerate(filt.levels)]


@pytest.mark.parametrize("name, level, spec", AXIOM_LEVELS,
                         ids=[f"{name}-{level}" for name, level, _ in AXIOM_LEVELS])
def test_axiom_residuals_equal_per_exponent_reference(name, level, spec):
    # one stacked SVD per trial gives the floats of one Schatten norm per exponent
    for seed in range(5):
        for trials in (1, 7):
            assert (axiom_residuals(spec, trials, seed)
                    == axiom_residuals_reference(spec, trials, seed))


TOWER_CHAINS = {
    "dyadic8": build_filtration("dyadic", 8),
    "dyadic16": build_filtration("dyadic", 16),
    "tensor8": build_filtration("tensor", local_dims=(2, 2, 2)),
    "tensor232": build_filtration("tensor", local_dims=(2, 3, 2)),
}


@pytest.mark.parametrize("name", TOWER_CHAINS)
def test_tower_residual_equals_reference(name):
    # the trusted stacked core gives the floats of the validating cond_exp
    filt = TOWER_CHAINS[name]
    for seed in range(5):
        for trials in (1, 5, 12):
            expected = tower_residual_reference(filt, trials, seed)
            assert tower_residual(filt, trials, seed) == expected


def test_make_filtration_dyadic():
    filt = build_filtration("dyadic", 4)
    assert [spec.blocks for spec in filt.levels] == [
        ((0,), (1,), (2,), (3,)),
        ((0, 1), (2, 3)),
        ((0, 1, 2, 3),),
    ]
    with pytest.raises(ValueError, match="power of 2"):
        build_filtration("dyadic", 6)


def test_make_filtration_tensor():
    filt = build_filtration("tensor", local_dims=(2, 2))
    assert len(filt) == 3
    x = sample_hermitian(4, 5)
    np.testing.assert_allclose(
        cond_exp(x, filt.levels[0]), ntrace(x) * np.eye(4), atol=1e-12
    )
    with pytest.raises(ValueError, match="unknown filtration"):
        build_filtration("weird", dim=4)


def test_filtration_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        Filtration((pinching_from_sizes([2, 2]), pinching_from_sizes([1, 1, 1, 1])))
    with pytest.raises(ValueError, match="increasing"):
        Filtration((TensorFactor((2, 2), 1), TensorFactor((2, 2), 0)))


@pytest.mark.parametrize("kind,kwargs", [
    ("dyadic", {"dim": 4}),
    ("tensor", {"local_dims": (2, 2)}),
])
def test_tower_property(kind, kwargs):
    filt = build_filtration(kind, **kwargs)
    assert tower_residual(filt, trials=20, seed=3) <= 1e-10


def test_residuals_need_a_trial():
    # zero trials would report 0.0, a pass that checked nothing
    filt = build_filtration("dyadic", 4)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        tower_residual(filt, trials=0, seed=3)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        axiom_residuals(filt.levels[0], trials=0, seed=3)


def test_level_index():
    assert level_index(0, 1, 3) == 0
    assert level_index(2, 1, 3) == 1
    assert level_index(2, 0, 3) == 2
    with pytest.raises(ValueError, match="levels exist"):
        level_index(3, 0, 3)
    with pytest.raises(ValueError, match="lag"):
        level_index(0, 2, 3)


def test_is_adapted_constant_level0():
    filt = build_filtration("dyadic", 4)
    x0 = cond_exp(sample_psd(4, 0), filt.levels[0])
    verdict = is_adapted([x0, x0, x0], filt, lag=0)
    assert verdict.adapted and verdict.residual <= 1e-12


def test_is_adapted_off_diagonal_residual():
    filt = build_filtration("dyadic", 2)
    x = np.array([[0.0, 0.25], [0.25, 0.0]])
    verdict = is_adapted([x], filt, lag=0)
    assert not verdict.adapted
    assert verdict.residual == pytest.approx(0.25, abs=1e-12)


def test_projection_makes_adapted():
    filt = build_filtration("tensor", local_dims=(2, 2))
    raw = [sample_hermitian(4, s) for s in range(3)]
    projected = [cond_exp(x, filt.levels[n]) for n, x in enumerate(raw)]
    assert is_adapted(projected, filt, lag=0).adapted


def test_sample_adapted_positive():
    filt = build_filtration("dyadic", 8)
    seq = sample_adapted_positive(filt, 4, seed=5)
    assert is_adapted(seq, filt, lag=0).adapted
    for x in seq:
        assert np.linalg.eigvalsh(herm(x))[0] >= -1e-10
    again = sample_adapted_positive(filt, 4, seed=5)
    for a, b in zip(seq, again):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kind,kwargs", [
    ("dyadic", {"dim": 8}),
    ("tensor", {"local_dims": (2, 2, 2)}),
])
def test_expectation_invariants(kind, kwargs):
    filt = build_filtration(kind, **kwargs)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = _complex_gaussian(rng, filt.dim)
        z = _complex_gaussian(rng, filt.dim)
        psd = herm(z.conj().T @ z)
        for spec in filt.levels:
            ex = cond_exp(x, spec)
            assert abs(ntrace(ex) - ntrace(x)) <= 1e-10
            assert np.linalg.eigvalsh(herm(cond_exp(psd, spec)))[0] >= -1e-10
            assert op_norm(cond_exp(x.conj().T, spec) - ex.conj().T) <= 1e-12
            for p in (1.0, 2.0, 3.0, INF):
                assert schatten_norm(ex, p) <= schatten_norm(x, p) + 1e-9
