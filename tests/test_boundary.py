"""run_inequality is the one validating boundary: on inputs that pass its
checks it returns exactly the registry kernel's sides, and it names the
first input that fails them. Every count field of the library, and
SearchConfig's step_scale, is checked by its one owner, its type included."""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncstein import (CellAverage, Pinching, SearchConfig, TensorFactor, axiom_residuals,
                     build_filtration, run_inequality, tower_residual)
from ncstein.expectation import _axiom_levels, _condition
from ncstein.inequality import INEQUALITIES, _first
from ncstein.opcore import herm, _complex_gaussians

# positive-seq ids whose inputs must be PSD, at one exponent pair each
EXPONENTS = {"s_pq": (3.0, 1.5), "s_qq": (1.5, 1.5), "dd_p": (2.0, None), "s_p_inf": (2.0, None)}


def sides(report):
    ends = (report.lhs, report.rhs, report.lhs_upper, report.rhs_lower)
    return [(end.value, end.bound) for end in ends if end is not None]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(inequality_id=st.sampled_from(sorted(EXPONENTS)), dim=st.sampled_from((2, 4)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_boundary_checks_once_then_runs_the_kernel(inequality_id, dim, seed, data):
    filt = build_filtration("dyadic", dim)
    # terms at lag 0 on the proper levels (the last level is the full algebra)
    n = data.draw(st.integers(1, len(filt) - 1), label="terms")
    z = _complex_gaussians(np.random.default_rng(seed), n, dim)
    xs = herm(z.conj().swapaxes(1, 2) @ z)
    p, q = EXPONENTS[inequality_id]
    ineq = INEQUALITIES[inequality_id]

    report = run_inequality(inequality_id, xs, filt, p, q, 0)
    kernel = _first(ineq.kernel(xs[None], filt, *ineq.validate(p, q), 0))
    assert sides(report) == [(side.value, side.bound) for side in kernel]

    bad = data.draw(st.integers(0, n - 1), label="non-PSD term")
    flipped = xs.copy()
    flipped[bad] *= -1
    with pytest.raises(ValueError, match=f"sequence item {bad} is not positive semidefinite"):
        run_inequality(inequality_id, flipped, filt, p, q, 0)

    adapted = _condition(xs, filt, 0)
    off = data.draw(st.integers(0, n - 1), label="non-adapted term")
    adapted[off] = xs[off]  # z* z lies in no proper pinching
    with pytest.raises(ValueError, match="not adapted"):
        run_inequality("s_12_adapted", adapted, filt, 1, 2, 1)


def _count(minimum):
    """Whether a value passes the integer rule with this minimum."""
    return lambda v: (not isinstance(v, bool) and isinstance(v, (int, np.integer))
                      and v >= minimum)


def _finite_positive(v):
    return (not isinstance(v, bool) and isinstance(v, (int, float, np.integer))
            and math.isfinite(v) and v > 0)


DYADIC2 = build_filtration("dyadic", 2)
ONE_ATOM = (1,)  # the classical chain of one atom
# a SearchConfig is one instance: doob_maximal's one operator skips the depth rule, so
# any seq_len fits it
DOOB = dict(inequality_id="doob_maximal", p=2, filt=DYADIC2)


def _singletons(v):
    """Singleton blocks covering 0..9, v's first, so that each count SMALL draws is an index."""
    return ((v,), *((i,) for i in range(10) if i != v))


# each library entry's value rules: (the name its refusal shows, which values it accepts,
# the call with the value in place)
FIELDS = {
    "SearchConfig.seq_len": ("seq_len", _count(1), lambda v: SearchConfig(**DOOB, seq_len=v)),
    "SearchConfig.budget": ("budget", _count(1),
                            lambda v: SearchConfig(**DOOB, budget=v, restarts=1)),
    "SearchConfig.restarts": ("restarts", _count(1),
                              lambda v: SearchConfig(**DOOB, budget=100, restarts=v)),
    "SearchConfig.seed": ("seed", _count(0), lambda v: SearchConfig(**DOOB, seed=v)),
    "SearchConfig.step_scale": ("step_scale", _finite_positive,
                                lambda v: SearchConfig(**DOOB, step_scale=v)),
    "build_filtration.dim": ("dim", _count(1), lambda v: build_filtration(
        "classical", v, probabilities=ONE_ATOM)),
    "build_filtration.local_dims": ("local_dims", _count(1),
                                    lambda v: build_filtration("tensor", None, [v, 2])),
    # None is the default (2, 2) at dim 4; a list of counts must multiply to 4
    "build_filtration.local_dims-list": (
        "local_dims", lambda v: v is None or (isinstance(v, list) and bool(v) and all(
            map(_count(1), v)) and math.prod(v) == 4),
        lambda v: build_filtration("tensor", 4, v)),
    "build_filtration.depth": ("depth", _count(1), lambda v: build_filtration(
        "classical", 2, probabilities=ONE_ATOM, depth=v)),
    "TensorFactor.local_dims": ("local_dims", _count(1), lambda v: TensorFactor((2, v), 1)),
    "CellAverage.block_dim": ("block_dim", _count(1), lambda v: CellAverage(((0,),), v)),
    "CellAverage.cells": ("cells entry", _count(0), lambda v: CellAverage(_singletons(v), 1)),
    "Pinching.blocks": ("blocks entry", _count(0), lambda v: Pinching(_singletons(v))),
    "axiom_residuals.trials": ("trials", _count(1),
                               lambda v: axiom_residuals(DYADIC2.levels[0], v, 0)),
    "axiom_residuals.seed": ("seed", _count(0),
                             lambda v: axiom_residuals(DYADIC2.levels[0], 1, v)),
    "_axiom_levels.trials": ("trials", _count(1), lambda v: _axiom_levels(DYADIC2.levels, v, 0)),
    "_axiom_levels.seed": ("seed", _count(0), lambda v: _axiom_levels(DYADIC2.levels, 1, v)),
    "tower_residual.trials": ("trials", _count(1), lambda v: tower_residual(DYADIC2, v, 0)),
    "tower_residual.seed": ("seed", _count(0), lambda v: tower_residual(DYADIC2, 1, v)),
}
# small values, so that a rule that lets a float through cannot build a large space
SMALL = st.integers(-3, 9)
VALUES = st.one_of(
    st.booleans(), SMALL, SMALL.map(np.int64), SMALL.map(np.int32), SMALL.map(float),
    st.floats(-3, 9), st.sampled_from((math.nan, math.inf, -math.inf)), st.text(max_size=3),
    st.none(), st.lists(SMALL, max_size=2))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(entry=st.sampled_from(sorted(FIELDS)), value=VALUES)
def test_each_value_rule_accepts_or_names_its_field(entry, value):
    # a value the rule accepts is taken; any other is refused with a ValueError that
    # names the field, never a TypeError or numpy's words
    name, accepts, call = FIELDS[entry]
    if accepts(value):
        call(value)
    else:
        with pytest.raises(ValueError, match=re.escape(name)):
            call(value)
