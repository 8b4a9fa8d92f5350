"""run_inequality is the one validating boundary: on inputs that pass its
checks it returns exactly the registry kernel's sides, and it names the
first input that fails them."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncstein import build_filtration, run_inequality
from ncstein.expectation import _condition
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
