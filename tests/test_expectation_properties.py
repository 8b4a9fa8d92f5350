"""Property tests of the conditional expectations: the axioms and the tower
property hold within the CLI's gate on randomly shaped subalgebras, beyond the
stock dyadic and power-of-two tensor families, and the containment test agrees
with a brute-force oracle on pairs from every family."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from ncstein.cli import AXIOM_GATE
from ncstein.expectation import (CellAverage, TensorFactor, axiom_residuals, build_filtration,
                                 pinching_from_sizes, tower_residual, _contains)

from oracles import contains_by_units

# tensor factors of 2 and 3, up to a total dimension of 12
LOCAL_DIMS = st.lists(st.integers(2, 3), min_size=1, max_size=3).filter(
    lambda dims: math.prod(dims) <= 12)


@st.composite
def cell_averages(draw):
    """A random partition of 1-4 atoms into cells, with blocks of size 1-3."""
    labels = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    cells = [tuple(i for i, label in enumerate(labels) if label == cell)
             for cell in sorted(set(labels))]
    return CellAverage(tuple(cells), draw(st.integers(1, 3)))


SUBALGEBRAS = st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=4).map(pinching_from_sizes),
    LOCAL_DIMS.flatmap(lambda dims: st.builds(TensorFactor, st.just(tuple(dims)),
                                              st.integers(0, len(dims)))),
    cell_averages(),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=SUBALGEBRAS, seed=st.integers(0, 2**32 - 1))
def test_axioms_hold_on_random_subalgebras(spec, seed):
    assert spec.dim <= 12
    residuals = axiom_residuals(spec, 3, seed)
    fields = [residuals.projection, residuals.bimodule, residuals.trace, residuals.positivity,
              residuals.adjoint, *residuals.contractivity.values()]
    assert len(fields) == 9 and max(fields) <= AXIOM_GATE, (spec, residuals)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(local_dims=LOCAL_DIMS, seed=st.integers(0, 2**32 - 1))
def test_tower_holds_on_random_tensor_factors(local_dims, seed):
    assert tower_residual(build_filtration("tensor", local_dims=local_dims), 3, seed) <= AXIOM_GATE


@st.composite
def subalgebras_of(draw, dim):
    """A pinching, tensor factor or cell average of dimension dim, of random shape."""
    kind = draw(st.sampled_from(("pinching", "tensor", "cells")))
    if kind == "pinching":
        ends = [0, *sorted(draw(st.sets(st.integers(1, dim - 1)))), dim] if dim > 1 else [0, 1]
        return pinching_from_sizes([hi - lo for lo, hi in zip(ends, ends[1:])])
    if kind == "tensor":
        dims, rest = [], dim
        while rest > 1:
            dims.append(draw(st.sampled_from([f for f in range(2, rest + 1) if rest % f == 0])))
            rest //= dims[-1]
        return TensorFactor(tuple(dims) or (1,), draw(st.integers(0, len(dims) or 1)))
    block = draw(st.sampled_from([b for b in range(1, dim + 1) if dim % b == 0]))
    labels = draw(st.lists(st.integers(0, 2), min_size=dim // block, max_size=dim // block))
    return CellAverage(tuple(tuple(i for i, label in enumerate(labels) if label == cell)
                             for cell in sorted(set(labels))), block)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pair=st.integers(1, 8).flatmap(lambda d: st.tuples(subalgebras_of(d), subalgebras_of(d))))
@example(pair=(TensorFactor((2, 2), 2), pinching_from_sizes([1, 1, 1, 1])))  # mixed, contained
@example(pair=(pinching_from_sizes([2, 2]), TensorFactor((2, 2), 1)))  # mixed, not contained
def test_containment_matches_the_oracle_on_every_family(pair):
    outer, inner = pair
    assert _contains(outer, inner) == contains_by_units(outer, inner), (outer, inner)
