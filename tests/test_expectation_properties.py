"""Property tests of the conditional expectations: the axioms and the tower
property hold within the CLI's gate on randomly shaped subalgebras, beyond the
stock dyadic and power-of-two tensor families."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncstein.cli import AXIOM_GATE
from ncstein.expectation import (CellAverage, TensorFactor, axiom_residuals, build_filtration,
                                 pinching_from_sizes, tower_residual)

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
