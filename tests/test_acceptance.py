"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run in definition order; the final test checks the whole module's
wall-clock budget. Every tolerance is a fixed literal here, never computed.

One probe (test_criterion_05b) searches M_2 with diagonal pinching for a
q = 3 convexity violation. No such violation exists: for PSD
x = [[a, b], [b*, c]] the pinched gap E(x^3) - E(x)^3 equals
diag(|b|^2 (2a + c), |b|^2 (a + 2c)), which is always PSD; every subalgebra
of M_2 is a unitary rotation of the diagonal one or trivial, and the trivial
case reduces to the power-mean inequality. That probe therefore fails by
construction, documenting that the q = 3 check needs block dimension >= 2
inside a larger space; test_criterion_05 carries the attainable
demonstration at block size 2 inside M_4.
"""

import json
import math
import time
from itertools import cycle

import numpy as np
import pytest

import ncstein as nc
from ncstein.cli import CSV_COLUMNS, parse_config, run_command
from ncstein.inequality import run_inequality

from oracles import scalar_lpq, verify_bracket

INF = math.inf
MODULE_START = time.time()


def report(criterion, detail, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"PASS {criterion}: {detail}{stamp}")


def both_filtrations(dim):
    yield "dyadic", nc.build_filtration("dyadic", dim)
    yield "tensor", nc.build_filtration("tensor", local_dims=(2,) * (dim.bit_length() - 1))


def test_criterion_01_expectation_axioms():
    t0 = time.time()
    worst = 0.0
    for dim in (4, 8, 16):
        for name, filt in both_filtrations(dim):
            for level, spec in enumerate(filt.levels):
                res = nc.axiom_residuals(spec, trials=100, seed=dim + level)
                worst = max(worst, res.max_residual())
                assert res.projection <= 1e-9, (name, dim, level)
                assert res.bimodule <= 1e-9, (name, dim, level)
                assert res.trace <= 1e-9, (name, dim, level)
                assert res.positivity <= 1e-9, (name, dim, level)
                assert res.adjoint <= 1e-9, (name, dim, level)
                for p in (1.0, 2.0, 3.0, INF):
                    assert res.contractivity[p] <= 1e-9, (name, dim, level, p)
            tower = nc.tower_residual(filt, trials=100, seed=dim)
            worst = max(worst, tower)
            assert tower <= 1e-9, (name, dim)
    elapsed = time.time() - t0
    assert elapsed < 30
    report("criterion 1", f"axiom residuals <= 1e-9 (worst {worst:.2e}), "
           f"both families, d in 4/8/16, 100 samples", elapsed)


def _sqq_cases():
    # sizes under the caps d <= 8, N <= 6, constrained by filtration depth
    shapes = cycle([(2, 2, "dyadic"), (4, 3, "dyadic"), (4, 4, "tensor"),
                    (8, 5, "dyadic"), (8, 4, "tensor"), (8, 5, "tensor")])
    for seed in range(200):
        yield seed, next(shapes)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_criterion_02_sqq_constant_one(q):
    t0 = time.time()
    worst = 0.0
    for seed, (dim, n_terms, kind) in _sqq_cases():
        filt = nc.build_filtration(kind, dim)
        seq = [nc.sample_psd(dim, 10_000 * seed + 71 * n) for n in range(n_terms)]
        rep = nc.run_inequality("s_qq", seq, filt, q, q, 1)
        worst = max(worst, rep.ratio)
        assert rep.ratio <= 1 + 1e-8, (q, seed, dim, n_terms, kind)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(f"criterion 2 (q={q})", f"200 seeded ratios <= 1 + 1e-8 (worst {worst:.12f})",
           elapsed)


def test_criterion_03_dual_doob_equality_at_p1():
    worst = 0.0
    shapes = cycle([(4, 3, "dyadic"), (8, 4, "tensor"), (8, 4, "dyadic"),
                    (2, 2, "dyadic")])
    for seed in range(200):
        dim, n_terms, kind = next(shapes)
        filt = nc.build_filtration(kind, dim)
        seq = [nc.sample_psd(dim, 20_000 * seed + 13 * n) for n in range(n_terms)]
        rep = nc.run_inequality("dd_p", seq, filt, 1)
        gap = abs(rep.lhs.value - rep.rhs.value)
        worst = max(worst, gap)
        assert gap <= 1e-10, (seed, gap)
    report("criterion 3", f"200 seeded equalities |lhs - rhs| <= 1e-10 (worst {worst:.2e})")


def test_criterion_04_adapted_s12_constant_two():
    t0 = time.time()
    filt = nc.build_filtration("dyadic", 8)
    cfg = nc.SearchConfig(inequality_id="s_12_adapted", p=1, q=2, filt=filt,
                          seq_len=4, budget=10_000, restarts=8, seed=2024)
    result = nc.estimate_constant(cfg)
    assert result.best_ratio <= 2 + 1e-6
    replay = run_inequality("s_12_adapted", result.witness, filt, 1, 2, 1)
    assert abs(replay.ratio - result.best_ratio) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 180
    report("criterion 4", f"adapted (1,2)-instance search best ratio "
           f"{result.best_ratio:.6f} <= 2 + 1e-6, replay matches", elapsed)


def test_criterion_05_jensen_and_monotonicity():
    t0 = time.time()
    specs = [nc.pinching_from_sizes([2, 2]), nc.pinching_from_sizes([1, 1, 2]),
             nc.TensorFactor((2, 2), 1), nc.TensorFactor((2, 2), 0)]
    for q in (1.25, 1.5, 2.0):
        for seed in range(200):
            spec = specs[seed % len(specs)]
            _, mn = nc.jensen_gap(nc.sample_psd(4, 300 * seed), spec, q)
            assert mn >= -1e-8, (q, seed, mn)
    # non-vacuity: q = 3 escapes the operator-convex range once the
    # conditioning has block size >= 2 inside a larger space
    violation = None
    for seed in range(1000):
        _, mn = nc.jensen_gap(nc.sample_psd(4, seed), nc.pinching_from_sizes([2, 2]), 3)
        if mn < -1e-6:
            violation = (seed, mn)
            break
    assert violation is not None

    for r in (0.25, 0.5, 1.0):
        for seed in range(200):
            a = nc.sample_psd(3, seed)
            b = a + nc.sample_psd(3, seed + 10**6)
            gap = nc.psd_power(b, r) - nc.psd_power(a, r)
            assert np.linalg.eigvalsh(gap)[0] >= -1e-8, (r, seed)
    mono_violation = None
    for seed in range(1000):
        a = nc.sample_psd(2, seed)
        b = a + nc.sample_psd(2, seed + 10**6)
        gap = nc.psd_power(b, 2) - nc.psd_power(a, 2)
        mn = np.linalg.eigvalsh(gap)[0]
        if mn < -1e-6:
            mono_violation = (seed, mn)
            break
    assert mono_violation is not None
    elapsed = time.time() - t0
    report("criterion 5", "convexity gaps >= -1e-8 on [1.25, 2], q=3 violation at "
           f"block size 2 (seed {violation[0]}), monotonicity holds on (0, 1], "
           f"r=2 violation (seed {mono_violation[0]})", elapsed)


def test_criterion_05b_jensen_q3_violation_on_m2():
    # There is no q = 3 violation on M_2: the pinched gap is
    # diag(|b|^2 (2a+c), |b|^2 (a+2c)) >= 0 for every PSD input, and the
    # trivial subalgebra reduces to tau(x^3) >= tau(x)^3. This probe fails
    # by construction; the attainable form needs block dimension >= 2
    # inside a larger space (see criterion 5).
    filt = nc.build_filtration("dyadic", 2)
    for seed in range(1000):
        _, mn = nc.jensen_gap(nc.sample_psd(2, seed), filt.levels[0], 3)
        if mn < -1e-6:
            report("criterion 5b", f"q=3 violation on M_2 at seed {seed}")
            return
    pytest.fail(
        "no q = 3 convexity violation exists on M_2 with diagonal pinching: "
        "E(x^3) - E(x)^3 = diag(|b|^2 (2a+c), |b|^2 (a+2c)) >= 0 for every "
        "PSD x = [[a, b], [b*, c]]; the probe needs block dimension >= 2 "
        "inside a larger space, as demonstrated in criterion 5"
    )


def test_criterion_06_classical_reduction():
    t0 = time.time()
    rng = np.random.default_rng(66)
    dim = 4
    weights = np.full(dim, 1 / dim)
    filt = nc.build_filtration("dyadic", dim)
    fs = rng.uniform(0.1, 2.0, size=(3, dim))
    seq = [np.diag(f).astype(complex) for f in fs]

    # pinching fixes diagonals, so the classical filtration is the discrete
    # one and conditioning acts as the identity on the scalar side
    stein = nc.run_inequality("s_pq", seq, filt, 3, 2, 0)
    assert stein.lhs.value == pytest.approx(scalar_lpq(fs, 3, 2, weights), abs=1e-10)
    assert stein.rhs.value == pytest.approx(scalar_lpq(fs, 3, 2, weights), abs=1e-10)

    dd = nc.run_inequality("dd_p", seq, filt, 2)
    assert dd.lhs.value == pytest.approx(scalar_lpq(fs, 2, 1, weights), abs=1e-10)
    assert dd.rhs.value == pytest.approx(scalar_lpq(fs, 2, 1, weights), abs=1e-10)

    f = fs[0]
    doob = nc.run_inequality("doob_maximal", [np.diag(f).astype(complex)], filt, 2)
    doob_want = scalar_lpq(np.tile(f, (len(filt), 1)), 2, INF, weights)
    assert doob.lhs.value == pytest.approx(doob_want, abs=1e-6)
    assert doob.lhs_upper.value == pytest.approx(doob_want, abs=1e-6)
    assert doob.rhs.value == pytest.approx(float(weights @ f**2) ** 0.5, abs=1e-10)

    spinf = nc.run_inequality("s_p_inf", seq, filt, 2)
    want_inf = scalar_lpq(fs, 2, INF, weights)
    assert spinf.rhs.value == pytest.approx(want_inf, abs=1e-6)
    assert spinf.rhs_lower.value == pytest.approx(want_inf, abs=1e-6)
    assert spinf.lhs.value == pytest.approx(want_inf, abs=1e-6)

    assert nc.column_q_norm(seq, 2.5, 1.5).value == pytest.approx(
        scalar_lpq(fs, 2.5, 1.5, weights), abs=1e-10)
    assert nc.l1_norm_positive(seq, 2.5).value == pytest.approx(
        scalar_lpq(fs, 2.5, 1, weights), abs=1e-10)
    bracket = nc.linf_norm_positive(seq, 2.5)
    assert bracket.lower.value == pytest.approx(scalar_lpq(fs, 2.5, INF, weights), abs=1e-6)
    assert bracket.upper.value == pytest.approx(scalar_lpq(fs, 2.5, INF, weights), abs=1e-6)
    elapsed = time.time() - t0
    report("criterion 6", "diagonal inputs match the scalar oracle "
           "(1e-10 closed form, 1e-6 brackets)", elapsed)


def test_criterion_07_linf_bracket_sanity():
    t0 = time.time()
    shapes = cycle([(2, 1), (3, 2), (4, 3), (5, 2), (6, 4), (3, 5)])
    exponents = cycle([1.0, 1.5, 2.0, 3.0, INF])
    for seed in range(200):
        dim, n_terms = next(shapes)
        p = next(exponents)
        seq = [nc.sample_psd(dim, 40_000 * seed + n) for n in range(n_terms)]
        verify_bracket(seq, p, nc.linf_norm_positive(seq, p, seed=seed))
    x = nc.sample_psd(4, 777)
    for p in (1.0, 2.0, 2.5, INF):
        single = nc.linf_norm_positive([x], p)
        constant = nc.linf_norm_positive([x] * 3, p)
        target = nc.schatten_norm(x, p)
        for seq, br in (([x], single), ([x] * 3, constant)):
            verify_bracket(seq, p, br)
            assert br.lower.value == pytest.approx(target, abs=1e-6)
            assert br.upper.value == pytest.approx(target, abs=1e-6)
    elapsed = time.time() - t0
    report("criterion 7", "200 certified brackets ordered to 1e-8; singleton and constant "
           "sequences collapse to ||x||_p within 1e-6", elapsed)


def test_criterion_08_s22_search_sanity():
    t0 = time.time()
    filt = nc.build_filtration("dyadic", 4)
    cfg = nc.SearchConfig(inequality_id="s_qq", p=2, q=2, filt=filt, seq_len=4,
                          budget=5000, restarts=8, seed=0)
    result = nc.estimate_constant(cfg)
    assert 1 - 1e-6 <= result.best_ratio <= 1 + 1e-8
    coarsest = filt.levels[0]
    for x in result.witness:
        assert nc.op_norm(nc.cond_exp(x, coarsest) - x) <= 1e-10
    assert result.best_ratio >= 1 - 1e-10
    elapsed = time.time() - t0
    report("criterion 8", f"(2,2)-search returns {result.best_ratio:.12f} with a "
           "coarsest-level witness at ratio >= 1 - 1e-10", elapsed)


def test_criterion_09_cli_determinism(tmp_path):
    t0 = time.time()
    config = {"command": "search", "inequality": "s_qq", "p": 2, "q": 2,
              "dim": 4, "seq_len": 3, "budget": 400, "restarts": 4, "seed": 3}
    blobs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        cfg = parse_config(json.dumps({**config, "out": str(out)}))
        assert run_command(cfg) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    lines = blobs[0].decode().strip().splitlines()
    assert lines[0].split(",") == list(CSV_COLUMNS)
    assert len(lines[1].split(",")) == len(CSV_COLUMNS)
    elapsed = time.time() - t0
    report("criterion 9", "identical configs produce byte-identical reports; "
           "CSV schema validates", elapsed)


def test_criterion_10_total_runtime():
    elapsed = time.time() - MODULE_START
    assert elapsed < 300
    report("criterion 10", f"acceptance suite wall clock {elapsed:.1f}s < 300s")
