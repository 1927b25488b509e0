"""``CheckReport.from_residuals`` against a sort of every entry.

Only the largest ``_DETAIL_CAP`` values and their ties can reach a report's
details, so only those are sorted; a NaN orders nothing, and with one the
report sorts every entry as before.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from swl.core import _DETAIL_CAP, CheckReport  # noqa: E402


def full_sort(residuals, tol, slack):
    res = {k: float(r) for k, r in residuals.items()}
    worst = sorted(res.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    max_res = worst[0][1] if worst else 0.0
    return ("pass" if max_res <= tol + slack else "fail"), max_res, worst[:_DETAIL_CAP]


# few distinct values, so ties (and -0.0 beside 0.0) are common
values = st.one_of(st.sampled_from([0.0, -0.0, 1e-12, 0.5, 2.0, math.inf, -math.inf]),
                   st.floats(0.0, 1.0), st.just(math.nan))
keys = st.one_of(st.tuples(st.just("theta"), st.integers(0, 200)),
                 st.tuples(st.integers(-3, 3), st.integers(-3, 3)))


@given(residuals=st.dictionaries(keys, values, max_size=3 * _DETAIL_CAP),
       tol=st.sampled_from([0.0, 1e-9, 1.0]), slack=st.sampled_from([0.0, 0.5]))
@example(residuals={("theta", d): 0.5 for d in range(2 * _DETAIL_CAP)}, tol=0.0, slack=0.0)
@example(residuals={("theta", d): (math.nan if d == 7 else 1.0 / (d + 1))
                    for d in range(2 * _DETAIL_CAP)}, tol=1e-9, slack=0.0)
def test_details_are_those_of_a_full_sort(residuals, tol, slack):
    rep = CheckReport.from_residuals("x", residuals, tol, slack=slack)
    verdict, max_res, details = full_sort(residuals, tol, slack)
    # by repr, so a NaN equals itself and -0.0 differs from 0.0
    assert (rep.verdict, repr(rep.max_residual), repr(rep.details)) == \
        (verdict, repr(max_res), repr(details))
