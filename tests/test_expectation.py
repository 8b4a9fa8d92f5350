"""Conditional expectations, filtrations, adaptedness."""

import json
import math
import tracemalloc
from fractions import Fraction

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
from ncstein import cli, expectation
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


@pytest.mark.parametrize("spec", (
    build_filtration("dyadic", 16).levels[2],
    build_filtration("tensor", local_dims=(2, 3, 2)).levels[1],
    CELL_CHAIN.levels[1],
), ids=("dyadic16", "tensor232", "cells"))
def test_axiom_residuals_chunks_keep_the_floats(monkeypatch, spec):
    # chunks of one trial, and of three trials, which do not divide the seven drawn,
    # give the floats of one chunk and of the per-trial oracle; one SVD per chunk
    trials, d = 7, spec.dim
    whole = axiom_residuals(spec, trials, 5)
    assert whole == axiom_residuals_reference(spec, trials, 5)
    svd, chunks = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: chunks.append(1) or svd(*a, **kw))
    for per_chunk in (1, 3):
        chunks.clear()
        monkeypatch.setattr(expectation, "NOISE_ENTRIES", per_chunk * 8 * d * d)
        assert axiom_residuals(spec, trials, 5) == whole
        assert len(chunks) == -(-trials // per_chunk)


def test_axiom_levels_memory_is_bounded(monkeypatch):
    # a chunk's trial count counts every array the chunk holds (each subalgebra's share of
    # the (L, 5, k, d, d) spectrum stack and of its gathered nonzero matrices, psd, and
    # the working set of the subalgebra being conditioned), and a chunk's arrays are freed
    # before the next is drawn: at d = 32, on the top level alone and on all six levels,
    # the traced peak of two full chunks stays within four NOISE_ENTRIES complex entries
    # (16 MiB), the bound the chunk size keeps
    filt = build_filtration("dyadic", 32)
    svd, chunks = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: chunks.append(1) or svd(*a, **kw))
    for specs in (filt.levels[-1:], filt.levels):
        per_chunk = 4 * expectation.NOISE_ENTRIES // ((11 * len(specs) + 21) * filt.dim ** 2)
        assert per_chunk >= 2
        chunks.clear()
        tracemalloc.start()
        try:
            expectation._axiom_levels(specs, 2 * per_chunk, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chunks) == 2
        assert peak <= 4 * expectation.NOISE_ENTRIES * 16


def test_axiom_levels_equal_per_level_reference():
    # one core scores every level of a chain, level i on the stream seed + i, with the
    # floats of the per-trial oracle: here on the cell chain, which the CLI never builds
    for seed in range(3):
        for trials in (1, 7):
            assert expectation._axiom_levels(CELL_CHAIN.levels, trials, seed) == [
                axiom_residuals_reference(spec, trials, seed + i)
                for i, spec in enumerate(CELL_CHAIN.levels)]


@pytest.mark.parametrize("kind", ("tensor", "dyadic"))
def test_axioms_command_chunks_keep_the_rows(monkeypatch, kind):
    # chunks of one trial, and of three, which do not divide the seven drawn, across
    # every level at once, give the rows of one chunk byte for byte
    cfg = cli.parse_config(json.dumps({"command": "axioms", "filtration": kind, "dim": 8,
                                       "trials": 7}))

    def rows():
        return [(row["level"], row["check"], row["value"].hex())
                for row in cli._run_axioms(cfg)[0]]

    # the chunk is 4 NOISE_ENTRIES // ((11 L + 21) d^2) trials, and 4 divides d^2 = 64
    whole, entries = rows(), (11 * len(cfg.filt) + 21) * cfg.filt.dim ** 2 // 4
    for per_chunk in (1, 3):
        monkeypatch.setattr(expectation, "NOISE_ENTRIES", per_chunk * entries)
        assert rows() == whole


TOWER_CHAINS = {
    "dyadic8": build_filtration("dyadic", 8),
    "dyadic16": build_filtration("dyadic", 16),
    "tensor8": build_filtration("tensor", local_dims=(2, 2, 2)),
    "tensor232": build_filtration("tensor", local_dims=(2, 3, 2)),
    "cells": CELL_CHAIN,
}


@pytest.mark.parametrize("name", TOWER_CHAINS)
def test_tower_residual_equals_reference(name):
    # the trusted stacked core gives the floats of the validating cond_exp
    filt = TOWER_CHAINS[name]
    for seed in range(5):
        for trials in (1, 5, 12):
            expected = tower_residual_reference(filt, trials, seed)
            assert tower_residual(filt, trials, seed) == expected


@pytest.mark.parametrize("name", ("dyadic16", "tensor232", "cells"))
def test_tower_residual_chunks_keep_the_floats(monkeypatch, name):
    # chunks of one trial, and of three trials, which do not divide the seven drawn,
    # give the floats of one chunk and of the per-trial oracle; one SVD per chunk
    filt, trials = TOWER_CHAINS[name], 7
    whole = tower_residual(filt, trials, 5)
    assert whole == tower_residual_reference(filt, trials, 5)
    norm, chunks = np.linalg.norm, []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: chunks.append(1) or norm(*a, **kw))
    for per_chunk in (1, 3):
        chunks.clear()
        monkeypatch.setattr(expectation, "NOISE_ENTRIES", per_chunk * (len(filt) * filt.dim) ** 2)
        assert tower_residual(filt, trials, 5) == whole
        assert len(chunks) == -(-trials // per_chunk)


def test_tower_residual_memory_is_bounded():
    # a chunk holds the L^2 differences of its trials, so the chunk bound counts them,
    # not only the noise: at d = 32 (six levels) the traced peak stays within four
    # NOISE_ENTRIES complex entries
    tracemalloc.start()
    try:
        tower_residual(build_filtration("dyadic", 32), 64, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * expectation.NOISE_ENTRIES * 16


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


def test_make_filtration_classical():
    # an atom of weight k/m becomes k slots of weight 1/m: weights 1/3 and 2/3 give
    # three slots, atom 1 owning slots 1 and 2, and level n splits atoms 0..n-1 off
    filt = build_filtration("classical", 2, probabilities=(Fraction(1, 3), Fraction(2, 3)))
    assert filt.dim == 6 and [level.block_dim for level in filt.levels] == [2, 2]
    assert [level.cells for level in filt.levels] == [((0, 1, 2),), ((0,), (1, 2))]
    # on a block function (a on atom 0, b on atom 1) the normalized trace is the
    # weighted expectation, and E_0 is that expectation on every slot
    a, b = sample_psd(2, 1), sample_psd(2, 2)
    x = np.zeros((6, 6), dtype=complex)
    x[:2, :2], x[2:4, 2:4], x[4:, 4:] = a, b, b
    assert ntrace(x) == pytest.approx(ntrace(a) / 3 + 2 * ntrace(b) / 3, rel=1e-14)
    np.testing.assert_array_equal(cond_exp(x, filt.levels[-1]), x)
    np.testing.assert_allclose(cond_exp(x, filt.levels[0]), np.kron(np.eye(3), (a + 2 * b) / 3),
                               rtol=0, atol=1e-14)


def test_classical_filtration_depth_repeats_the_finest_level():
    weights = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    filt = build_filtration("classical", 8, probabilities=weights, depth=6)
    cells = [level.cells for level in filt.levels]
    assert filt.dim == 32 and len(filt) == 6
    assert cells[:3] == [((0, 1, 2, 3),), ((0,), (1, 2, 3)), ((0,), (1,), (2, 3))]
    assert cells[3:] == [cells[2]] * 3
    # a depth below the atom count keeps one level per atom
    assert len(build_filtration("classical", 8, probabilities=weights, depth=2)) == 3


def test_classical_filtration_refuses_bad_weights():
    for weights in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(-1, 2)),
                    (Fraction(1), Fraction(0)), (), None):
        with pytest.raises(ValueError, match="classical probabilities must be positive and "
                                             "sum to 1"):
            build_filtration("classical", 2, probabilities=weights)
    # a denominator of 2^55 (the float 0.1) or 10^9 is refused before any slot is laid
    # out, as is one just past (slots * dim)^2 = NOISE_ENTRIES at 64 slots of 8 x 8
    for weights, dim, slots in (((Fraction(0.1), 1 - Fraction(0.1)), 2, 2**55),
                                ((Fraction(1, 10**9), Fraction(10**9 - 1, 10**9)), 2, 10**9),
                                ((Fraction(1, 65), Fraction(64, 65)), 8, 65)):
        with pytest.raises(ValueError, match=f"need {slots} slots of dimension {dim}"):
            build_filtration("classical", dim, probabilities=weights)
    assert build_filtration("classical", 8, probabilities=(Fraction(1, 64),
                                                           Fraction(63, 64))).dim == 512


QUARTERS = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def test_equal_shapes_share_one_chain():
    tensor = build_filtration("tensor", 8, [2, 2, 2])
    assert build_filtration("tensor", None, (2, 2, 2)) is tensor
    assert build_filtration("tensor", np.int64(8), [np.int64(2)] * 3) is tensor
    assert build_filtration("tensor", 8) is tensor  # local_dims default to (2, 2, 2)
    classical = build_filtration("classical", 8, probabilities=QUARTERS, depth=4)
    assert build_filtration("classical", 8, probabilities=(0.25, 0.25, 0.5), depth=4) is classical
    assert build_filtration("dyadic", 8, depth=1) is build_filtration("dyadic", 8, depth=5)
    # depth is a classical chain's shape, and local_dims a tensor chain's
    deeper = build_filtration("classical", 8, probabilities=QUARTERS, depth=5)
    assert deeper is not classical and len(deeper) == 5 and len(classical) == 4
    other = build_filtration("tensor", 8, [2, 4])
    assert other is not tensor and len(other) == 3 and len(tensor) == 4


def test_the_slot_bound_is_checked_before_the_shared_chain(monkeypatch):
    build_filtration("classical", 8, probabilities=QUARTERS, depth=4)  # 4 slots of 8 x 8
    monkeypatch.setattr(expectation, "NOISE_ENTRIES", (4 * 8) ** 2 - 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="^classical probabilities need 4 slots of dimension "
                                             "8, more than an operator of at most 1023 entries "
                                             "holds$"):
            build_filtration("classical", 8, probabilities=QUARTERS, depth=4)


def test_classical_chain_passes_the_axiom_gate():
    filt = build_filtration("classical", 2, probabilities=(Fraction(1, 4), Fraction(1, 4),
                                                           Fraction(1, 2)), depth=4)
    for res in expectation._axiom_levels(filt.levels, 6, 0):
        assert res.max_residual() <= cli.AXIOM_GATE
    assert tower_residual(filt, 6, 0) <= cli.AXIOM_GATE


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


def test_a_cached_term_plan_still_refuses_a_bool_lag():
    # True == 1 as a dict key: a lag-1 plan used to let a later lag True through
    filt = build_filtration("dyadic", 4)
    assert is_adapted([np.eye(4)] * 2, filt, lag=1).adapted
    with pytest.raises(ValueError, match="lag must be the integer 0 or 1, got True"):
        is_adapted([np.eye(4)] * 2, filt, lag=True)


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
