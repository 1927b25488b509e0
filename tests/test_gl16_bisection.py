"""The level-by-level GL16 route against the per-pair recursion, bit for bit.

The reference below is the GL16 route as a recursion: each (f, g) pair is
split at the breakpoints of its atoms and at the gaussians' +-10 sigma
cuts, and each interval is bisected depth first, every step evaluating
the integrand once on the nodes of its panels.  The route under test
bisects every interval of every pair at once, level by level.  Both must
give the same bits, the signs of zeros included, and name the same panel
when the bisection depth runs out.
"""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from swl import EXPONENTIAL, HAAR, FunctionSpec, Window  # noqa: E402
from swl.bases import K_elem, L_elem, _evaluate, factor_atoms  # noqa: E402
from swl.core import keep_mask  # noqa: E402
from swl.quadrature import (  # noqa: E402
    _atom_table,
    _gl_sums,
    inner_products,
    oracle_F_coords,
    oracle_G_coords,
)

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def _reference_gl16(fn, panels):
    mids = [0.5 * (a + b) for a, b in panels]
    halves = [0.5 * (b - a) for a, b in panels]
    vals = fn(np.concatenate([mid + half * _NODES for mid, half in zip(mids, halves)]))
    return [half * complex(np.dot(_WEIGHTS, vals[16 * k:16 * k + 16]))
            for k, half in enumerate(halves)]


def _reference_adaptive(fn, a, b, tol, depth, whole=None):
    mid = 0.5 * (a + b)
    if whole is None:
        whole, left, right = _reference_gl16(fn, [(a, b), (a, mid), (mid, b)])
    else:
        left, right = _reference_gl16(fn, [(a, mid), (mid, b)])
    if abs(whole - (left + right)) <= tol:
        return left + right
    if depth <= 0:
        raise ArithmeticError(f"GL16 quadrature did not converge on [{a!r}, {b!r}] "
                              f"within tolerance {tol!r}: bisection depth exhausted")
    return (_reference_adaptive(fn, a, mid, tol / 2, depth - 1, left)
            + _reference_adaptive(fn, mid, b, tol / 2, depth - 1, right))


def reference(f, g, quadrature_tol=1e-10, depth=40):
    """integral f conj(g) by the recursion, f or g a gaussian."""
    fa, ga = factor_atoms(f), factor_atoms(g)
    if fa == () or ga == ():
        return 0j
    halves = [h.support()[1] for h, atoms in ((f, fa), (g, ga)) if atoms is None]
    q = math.lcm(*(h.denominator for h in halves))
    K = max([0] + [at[2] for atoms in (fa, ga) if atoms for at in atoms])
    den = q << K
    points = [{(end * q) << (K - at[2]) for at in atoms for end in at[:2]}
              for atoms in (fa, ga) if atoms]
    points += [{-cut, cut} for cut in (h.numerator * (den // h.denominator) for h in halves)]
    lo, hi = max(map(min, points)), min(map(max, points))
    if hi <= lo:
        return 0j
    cuts = sorted(p for p in set().union(*points) if lo <= p <= hi)
    f_at = f.evaluate if fa is None else partial(_evaluate, fa)
    g_at = g.evaluate if ga is None else partial(_evaluate, ga)

    def integrand(xs):
        return f_at(xs) * np.conjugate(g_at(xs))

    total_len = (hi - lo) / den
    acc = 0j
    for a, b in zip(cuts, cuts[1:]):
        share = quadrature_tol * ((b - a) / den) / total_len
        acc += _reference_adaptive(integrand, a / den, b / den, share, depth)
    return acc


def _bits(values):
    # by repr, so the sign of a zero counts too
    return [repr(complex(v)) for v in values]


def _keys(w, model):
    if model == "F":
        return [(i, n) for i in w.trans_labels
                for n in range(w.trans_range[0], w.trans_range[1] + 1)]
    return [(s, j, m) for s, j in w.dil_labels for m in range(w.dil_range[0], w.dil_range[1] + 1)]


@st.composite
def gaussian_windows(draw):
    fam = draw(st.sampled_from([HAAR, EXPONENTIAL]))
    w = Window.symmetric(fam, draw(st.integers(0, 3 if fam is HAAR else 2)),
                         draw(st.integers(0, 4)), draw(st.integers(0, 5)))
    # the +-10 sigma cut inside a translation cell or a dilation box, on an
    # element end, or short of most elements
    cut = draw(st.one_of(
        st.builds(lambda n, t: n + t, st.integers(0, 4), st.floats(0.05, 0.95)),
        st.builds(lambda m, t: 2.0 ** -m * (1 + t), st.integers(-3, 5), st.floats(0.05, 0.95)),
        st.builds(lambda m: 2.0 ** -m, st.integers(-2, 6)),
        st.floats(0.01, 0.3),
    ))
    return fam, w, cut / 10


@settings(max_examples=30)
@example(window=(HAAR, Window.symmetric(HAAR, 3, 4, 6), 0.137))
@example(window=(EXPONENTIAL, Window.symmetric(EXPONENTIAL, 2, 4, 4), 0.25))
@given(window=gaussian_windows())
def test_grids_match_the_recursion(window):
    fam, w, sigma = window
    g = FunctionSpec.gaussian(sigma)
    for model, grid, make in (("F", oracle_F_coords, L_elem), ("G", oracle_G_coords, K_elem)):
        keys = _keys(w, model)
        want = np.array([reference(g, make(fam, *key)) for key in keys])
        got = inner_products(g, [make(fam, *key) for key in keys])
        assert _bits(got) == _bits(want)
        kept = keep_mask(want)
        assert [(tuple(k), repr(v)) for k, v in grid(g, fam, w).items()] == \
            [(k, repr(v)) for k, v, keep in zip(keys, want.tolist(), kept) if keep]


coefficients = st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                           allow_infinity=False), min_size=1, max_size=5)


@st.composite
def gapped_specs(draw):
    # 1-4 pieces on the 1/32 grid of [-4, 4], most with gaps between them
    cuts = sorted(draw(st.sets(st.integers(-128, 128), min_size=2, max_size=8)))
    cuts = cuts[:len(cuts) // 2 * 2]
    return FunctionSpec.piecewise([(Fraction(lo, 32), Fraction(hi, 32), tuple(draw(coefficients)))
                                   for lo, hi in zip(cuts[0::2], cuts[1::2])])


sigmas = st.one_of(st.floats(0.01, 3.0), st.sampled_from([0.05, 0.1, 0.25, 1 / 3, 0.4]))


@settings(max_examples=40)
@given(spec=gapped_specs(), s1=sigmas, s2=sigmas)
def test_piecewise_and_gaussians_in_both_orders(spec, s1, s2):
    g1, g2 = FunctionSpec.gaussian(s1), FunctionSpec.gaussian(s2)
    elem = L_elem(HAAR, 3, 0)
    # the spec first: the gaussians take the GL16 route, the element the exact one
    got = inner_products(spec, [g1, elem, g2])
    assert _bits([got[0], got[2]]) == _bits([reference(spec, g1), reference(spec, g2)])
    # a gaussian first: every other factor takes the GL16 route
    got = inner_products(g1, [spec, g2, elem, FunctionSpec.zero(), g1])
    want = [reference(g1, spec), reference(g1, g2), reference(g1, elem), 0j, reference(g1, g1)]
    assert _bits(got) == _bits(want)


@settings(max_examples=20)
@given(s1=sigmas, s2=sigmas)
def test_gaussian_against_gaussian(s1, s2):
    g1, g2 = FunctionSpec.gaussian(s1), FunctionSpec.gaussian(s2)
    assert _bits(inner_products(g1, [g2, g1])) == _bits([reference(g1, g2), reference(g1, g1)])


def test_depth_exhaustion_names_the_reference_panel():
    # at depth 3, panels of width 1/8 cannot resolve 400 and 500 periods per
    # unit; the first failing pair is the one at [3, 4), though the one at
    # [-2, -1) lies further left, and the message names its leftmost panel
    g = FunctionSpec.gaussian(2.0)
    elems = [L_elem(EXPONENTIAL, 0, 1), L_elem(EXPONENTIAL, 400, 3), L_elem(EXPONENTIAL, 1, 0),
             L_elem(EXPONENTIAL, 500, -2)]
    messages = []
    for elem in elems:
        try:
            reference(g, elem, depth=3)
        except ArithmeticError as exc:
            messages.append(str(exc))
    assert len(messages) == 2
    atoms = _atom_table(None, [factor_atoms(e) for e in elems])
    with pytest.raises(ArithmeticError) as raised:
        _gl_sums(g, atoms, np.arange(len(elems)), {}, 1e-10, depth=3)
    assert str(raised.value) == messages[0]
    assert "[3.0, 3.125]" in messages[0]


def test_no_panel_converges_raises_promptly(monkeypatch):
    # 2^43 periods per unit: no panel converges down to depth 40.  The levels
    # are bisected a bounded chunk of panels at a time, leftmost chunk first,
    # so the leftmost chain reaches the depth after one call per level and
    # raises what the recursion raises, with a bounded working set
    from swl import quadrature

    g, elem = FunctionSpec.gaussian(2.0), K_elem(EXPONENTIAL, 1, 2 ** 40, 3)
    with pytest.raises(ArithmeticError) as want:
        reference(g, elem)
    sizes = []
    panel_sums = quadrature._panel_sums

    def counted(integrand, lo, hi, at):
        sizes.append(len(lo))
        return panel_sums(integrand, lo, hi, at)

    monkeypatch.setattr(quadrature, "_panel_sums", counted)
    with pytest.raises(ArithmeticError) as got:
        inner_products(g, [elem])
    assert str(got.value) == str(want.value)
    assert len(sizes) == 41 and max(sizes) <= 4 * quadrature._PANELS
