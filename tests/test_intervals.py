"""Outward-rounded interval arithmetic: containment is the whole contract."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorshift import PolynomialMap
from cantorshift.intervals import (
    _outward,
    enclose_fraction,
    enclose_point,
    vbabs2,
    vbadd,
    vbmul,
    vbsquare,
    viadd,
    vimul,
    visq,
    visub,
)
from cantorshift.maps import p_eval

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def interval(lo, hi):
    return (min(lo, hi), max(lo, hi))


def pick(iv, t):
    """A sample point certainly inside the interval (clamped: the float
    blend can round past an endpoint)."""
    return min(max(iv[0] + t * (iv[1] - iv[0]), iv[0]), iv[1])


def one(*values):
    """Scalars as length-1 arrays, the batch the vector kernels take."""
    return tuple(np.array([v], dtype=np.float64) for v in values)


def holds(iv, q):
    """The computed interval (length-1 arrays) contains the exact q."""
    return Fraction(float(iv[0][0])) <= q <= Fraction(float(iv[1][0]))


@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
def test_real_ops_contain_samples(a, b, c, d, ta, tb):
    x = one(*interval(a, b))
    y = one(*interval(c, d))
    px = Fraction(pick(interval(a, b), ta))
    py = Fraction(pick(interval(c, d), tb))
    assert holds(viadd(*x, *y), px + py)
    assert holds(visub(*x, *y), px - py)
    assert holds(vimul(*x, *y), px * py)
    assert holds(visq(*x), px * px)


@given(finite, finite, finite, finite, finite, finite, finite, finite,
       st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200)
def test_complex_ops_contain_samples(a, b, c, d, e, f, g, h, t1, t2, t3, t4):
    u = interval(a, b) + interval(c, d)
    v = interval(e, f) + interval(g, h)
    xu, yu = Fraction(pick(u[:2], t1)), Fraction(pick(u[2:], t2))
    xv, yv = Fraction(pick(v[:2], t3)), Fraction(pick(v[2:], t4))
    s = vbadd(one(*u), one(*v))
    assert holds(s[:2], xu + xv) and holds(s[2:], yu + yv)
    p = vbmul(one(*u), one(*v))
    assert holds(p[:2], xu * xv - yu * yv) and holds(p[2:], xu * yv + yu * xv)
    q = vbsquare(one(*u))
    assert holds(q[:2], xu * xu - yu * yu) and holds(q[2:], 2 * xu * yu)


def test_enclose_fraction_contains_exact():
    for q in (Fraction(1, 3), Fraction(-7, 10), Fraction(22, 7), Fraction(0)):
        lo, hi = enclose_fraction(q)
        assert Fraction(lo) <= q <= Fraction(hi)



def test_enclose_fraction_saturates_past_the_float_range():
    # float() of such a rational raises OverflowError; the enclosure is the
    # last finite float to infinity, on the rational's side
    top = sys.float_info.max
    for q in (Fraction(10) ** 400, Fraction(top) + Fraction(top), Fraction(3) ** 700 / 7):
        assert enclose_fraction(q) == (top, math.inf)
        assert enclose_fraction(-q) == (-math.inf, -top)
    # past DBL_MAX but within half an ulp it rounds to DBL_MAX, still finite
    q = Fraction(top) + 1
    assert enclose_fraction(q) == (top, math.inf) and enclose_fraction(-q) == (-math.inf, -top)
    assert enclose_fraction(top) == (top, top)

def contains_exact(box, re, im):
    return (Fraction(box[0]) <= re <= Fraction(box[1])
            and Fraction(box[2]) <= im <= Fraction(box[3]))


def test_interval_and_box_types():
    box = enclose_point((Fraction(1, 3), Fraction(-1, 7)))
    assert contains_exact(box, Fraction(1, 3), Fraction(-1, 7))
    assert box[1] - box[0] < 1e-15
    assert box[3] - box[2] < 1e-15


def test_square_image_by_hand():
    # z^2 - 6 over [1,2] x [0,1]i: exact image has re in [-6,-2], im in [0,4]
    pmap = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    e = pmap.eval_box((1.0, 2.0, 0.0, 1.0))
    assert e[0] <= -6.0 and e[1] >= -2.0
    assert e[2] <= 0.0 and e[3] >= 4.0
    # and it should be tight to within a sliver
    assert e[0] > -6.001 and e[1] < -1.999
    assert e[2] > -0.001 and e[3] < 4.001


def test_point_box_contains_exact_value():
    pmap = PolynomialMap([("0.5", "-0.25"), ("0", "1"), ("1", "0")])
    z = (Fraction(3, 7), Fraction(-2, 9))
    exact = p_eval(pmap.exact_coefficients, z)
    e = pmap.eval_box(enclose_point(z))
    assert contains_exact(e, exact[0], exact[1])


def test_small_box_certified_away_from_disk():
    # z^2 - 6 near 0 maps near -6, certified to miss the disk of radius 4
    pmap = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    e = pmap.eval_box((-0.1, 0.1, -0.1, 0.1))
    # lower bound of |w| over the enclosure must exceed 4
    far = min(abs(e[0]), abs(e[1]))
    assert e[1] < 0  # entirely on the negative side
    assert math.hypot(far, max(abs(e[2]), abs(e[3]))) > 4.0 or far > 4.0


def test_monotone_under_inclusion():
    pmap = PolynomialMap([("1", "0.5"), ("-3", "0"), ("0", "0"), ("1", "0")])
    eo = pmap.eval_box((-1.0, 1.0, -1.0, 1.0))
    ei = pmap.eval_box((-0.5, 0.25, -0.1, 0.9))
    assert eo[0] <= ei[0] and ei[1] <= eo[1]
    assert eo[2] <= ei[2] and ei[3] <= eo[3]


def test_overflow_reports_infinite_box():
    pmap = PolynomialMap([("0", "0"), ("0", "0"), ("1", "0")])
    e = pmap.eval_box((-1e300, 1e300, -1e300, 1e300))
    assert not all(map(math.isfinite, e))
    assert e[0] == -math.inf and e[1] == math.inf


# every double except NaN, with the extremes and zeros drawn often
anyfloat = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                     sys.float_info.max, -sys.float_info.max, 1e154, -1e154]))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# exact interval arithmetic on Fraction pairs: the value each kernel's
# formula has before rounding, which its outward-rounded result contains
def x_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def x_sub(a, b):
    return a[0] - b[1], a[1] - b[0]


def x_mul(a, b):
    p = [x * y for x in a for y in b]
    return min(p), max(p)


def x_sq(a):
    if a[0] >= 0:
        return a[0] * a[0], a[1] * a[1]
    if a[1] <= 0:
        return a[1] * a[1], a[0] * a[0]
    return Fraction(0), max(a[0] * a[0], a[1] * a[1])


def pairs(box):
    return [box[:2], box[2:]]


def encloses(lo, hi, exact):
    """Float bounds (possibly infinite) around an exact interval."""
    return ((lo == -math.inf or Fraction(lo) <= exact[0])
            and (hi == math.inf or exact[1] <= Fraction(hi)))


def kernel_results(u, o):
    """Every kernel on the boxes u and the second operand o (a box of
    floats or of arrays): name -> (computed pairs, exact pairs of the box b
    of an element of u and the box o)."""
    x, y = o[:2], o[2:]
    return {
        "viadd": ([viadd(u[0], u[1], *x)],
                  lambda b, o: [x_add(b[:2], o[:2])]),
        "visub": ([visub(u[0], u[1], *y)],
                  lambda b, o: [x_sub(b[:2], o[2:])]),
        "vimul": ([vimul(u[0], u[1], *y)],
                  lambda b, o: [x_mul(b[:2], o[2:])]),
        "visq": ([visq(u[0], u[1])],
                 lambda b, o: [x_sq(b[:2])]),
        "vbadd": (pairs(vbadd(u, o)),
                  lambda b, o: [x_add(b[:2], o[:2]), x_add(b[2:], o[2:])]),
        "vbmul": (pairs(vbmul(u, o)),
                  lambda b, o: [x_sub(x_mul(b[:2], o[:2]), x_mul(b[2:], o[2:])),
                                x_add(x_mul(b[:2], o[2:]), x_mul(b[2:], o[:2]))]),
        "vbsquare": (pairs(vbsquare(u)),
                     lambda b, o: [x_sub(x_sq(b[:2]), x_sq(b[2:])),
                                   x_add(x_mul(b[:2], b[2:]), x_mul(b[:2], b[2:]))]),
        "vbabs2": ([vbabs2(u, o)],
                   lambda b, o: [x_add(x_sq(x_sub(b[:2], o[:2])),
                                       x_sq(x_sub(b[2:], o[2:])))]),
    }


@given(st.lists(st.tuples(anyfloat, anyfloat, anyfloat, anyfloat), min_size=1, max_size=8))
@settings(max_examples=300)
def test_vector_kernels_on_any_floats(rects):
    # every kernel on infinities, signed zeros, subnormals and DBL_MAX: no
    # NaN, ordered bounds, and, for finite inputs, the exact result inside.
    # The first operand comes as boxes and as point boxes (lo is hi), the
    # second as floats (a point or zero there takes its fast path) and as
    # arrays (the generic path)
    boxes = [(min(a, b), max(a, b), min(c, d), max(c, d)) for a, b, c, d in rects]
    arr = tuple(np.array(col) for col in zip(*boxes))
    other = boxes[0]
    firsts = {"box": (arr, lambda b: b),
              "point": ((arr[0], arr[0], arr[2], arr[2]), lambda b: (b[0], b[0], b[2], b[2]))}
    wide = tuple(np.full(len(boxes), v) for v in other)
    is_finite = [all(map(math.isfinite, b)) for b in boxes]
    for form, (u, lift) in firsts.items():
        with np.errstate(all="ignore"):  # overflow and inf - inf are expected
            by_floats, by_arrays = kernel_results(u, other), kernel_results(u, wide)
        for name, (got, exact) in by_floats.items():
            got = got + by_arrays[name][0]
            for lo, hi in got:
                assert not (np.isnan(lo).any() or np.isnan(hi).any()), (name, form)
                assert (lo <= hi).all(), (name, form)
            if not is_finite[0]:  # the second operand of every binary kernel
                continue
            for n, box in enumerate(boxes):
                if is_finite[n]:
                    want = exact(tuple(map(Fraction, lift(box))), tuple(map(Fraction, other)))
                    for (lo, hi), w in zip(got, want + want):
                        assert encloses(float(lo[n]), float(hi[n]), w), (name, form, box, other)

def test_outward_matches_nextafter_bitwise():
    """The bit-step rounding against its definition: np.nextafter after
    widening a NaN at either end to the whole line."""
    def reference(lo, hi):
        nan = np.isnan(lo) | np.isnan(hi)
        lo = np.where(nan, -math.inf, lo)
        hi = np.where(nan, math.inf, hi)
        return np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)

    special = np.array([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
                        -sys.float_info.max, math.inf, -math.inf, math.nan,
                        1e154, 1e308, -1e154, -1e308, sys.float_info.min, 1.0])
    rng = np.random.default_rng(20261018)
    patterns = rng.integers(-2 ** 63, 2 ** 63, size=(2, 200_000), dtype=np.int64)
    lo = np.concatenate([np.repeat(special, len(special)), patterns[0].view(np.float64)])
    hi = np.concatenate([np.tile(special, len(special)), patterns[1].view(np.float64)])
    with np.errstate(over="ignore"):
        want = reference(lo, hi)
    got = _outward(lo.copy(), hi.copy())
    for g, w in zip(got, want):
        assert np.array_equal(bits(g), bits(w))


def test_vector_abs2_bounds_contain_samples():
    boxes = [(-1.0, 2.0, 0.5, 3.0), (4.0, 4.5, -2.0, -1.5)]
    arr = tuple(np.array(col) for col in zip(*boxes))
    center = (0.25, 0.25, -0.5, -0.5)
    lo, hi = vbabs2(arr, center)
    for n, (rl, rh, il, ih) in enumerate(boxes):
        for z in (complex(rl, il), complex(rh, ih), complex((rl + rh) / 2, (il + ih) / 2)):
            d2 = abs(z - complex(0.25, -0.5)) ** 2
            assert lo[n] <= d2 <= hi[n]


def test_sharp_eval_tighter_near_critical_point():
    # near z = 1 the derivative of z^3 - 3z + 2 vanishes; the centered form
    # must beat plain Horner by an order of magnitude there
    pmap = PolynomialMap([("2", "0"), ("-3", "0"), ("0", "0"), ("1", "0")])
    h = 1e-3
    box = (1.0 - h, 1.0 + h, -h, h)
    arr = tuple(np.array([v]) for v in box)
    sharp = pmap.eval_boxes_sharp(arr)
    plain = pmap.eval_boxes(arr)
    w_sharp = float(sharp[1][0] - sharp[0][0])
    w_plain = float(plain[1][0] - plain[0][0])
    assert w_sharp < w_plain / 10
    # and soundness: the sharp box still contains the true image of corners
    for z in (complex(1 - h, -h), complex(1 + h, h), complex(1, 0)):
        w = z ** 3 - 3 * z + 2
        assert sharp[0][0] <= w.real <= sharp[1][0]
        assert sharp[2][0] <= w.imag <= sharp[3][0]


# what the fast paths must carry bit for bit: signed zeros, infinities,
# NaN (also with the all-ones payload), subnormals and DBL_MAX
SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan,
                    np.array(-1, dtype=np.int64).view(np.float64), 5e-324, -5e-324,
                    sys.float_info.min, sys.float_info.max, -sys.float_info.max, -1.5])


def endpoints(seed, n=4096):
    """Seeded intervals lo <= hi over the whole double range, a fifth of
    the endpoints special, some with a NaN at one end only."""
    rng = np.random.default_rng(seed)

    def draw():
        with np.errstate(over="ignore"):
            x = np.ldexp(rng.normal(size=n), rng.integers(-1080, 1030, n))
        special = rng.random(n) < 0.2
        x[special] = rng.choice(SPECIAL, special.sum())
        return x

    a, b = draw(), draw()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    lo[rng.random(n) < 0.02] = math.nan
    hi[rng.random(n) < 0.02] = SPECIAL[5]
    return lo, hi


def same_bits(got, want):
    return all(np.array_equal(bits(g), bits(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_point_paths_match_generic_bitwise(seed):
    # a point given as one array (or equal floats) against the same values
    # given as two arrays, which the dispatch cannot take for a point
    lo, hi = endpoints(seed)
    p, q = lo, hi[::-1].copy()
    scalars = [float(v) for v in SPECIAL if not math.isnan(v)] + [2.5, -1e-300]
    with np.errstate(all="ignore"):
        assert same_bits(_outward(p, p), _outward(p, p.copy()))
        assert same_bits(visq(p, p), visq(p, p.copy()))
        assert same_bits(vimul(lo, hi, p, p), vimul(lo, hi, p, p.copy()))
        assert same_bits(vimul(p, p, lo, hi), vimul(p, p.copy(), lo, hi))
        assert same_bits(vimul(p, p, q, q), vimul(p, p.copy(), q, q.copy()))
        for s in scalars:
            full = np.full(len(lo), s)
            assert same_bits(vimul(lo, hi, s, s), vimul(lo, hi, full, full.copy())), s
            assert same_bits(vimul(s, s, lo, hi), vimul(full, full.copy(), lo, hi)), s
            assert same_bits(vimul(p, p, s, s), vimul(p, p.copy(), full, full.copy())), s


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_zero_paths_match_generic_bitwise(seed):
    # an exact zero factor or addend, as floats of either sign, against
    # the generic path on arrays of that zero; also a point operand
    lo, hi = endpoints(seed)
    for zlo, zhi in ((0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0)):
        zl, zh = np.full(len(lo), zlo), np.full(len(lo), zhi)
        for a in ((lo, hi), (lo, lo)):
            with np.errstate(all="ignore"):
                assert same_bits(vimul(*a, zlo, zhi), vimul(*a, zl, zh))
                assert same_bits(vimul(zlo, zhi, *a), vimul(zl, zh, *a))
                assert same_bits(viadd(*a, zlo, zhi), viadd(*a, zl, zh))
                assert same_bits(visub(*a, zlo, zhi), visub(*a, zl, zh))


def test_visq_matches_case_split_formula():
    # the squares computed once against the case split they replace
    def reference(alo, ahi):
        neg = ahi <= 0.0
        straddle = (alo < 0.0) & (ahi > 0.0)
        lo = np.where(neg, ahi * ahi, alo * alo)
        hi = np.where(neg, alo * alo, ahi * ahi)
        lo = np.where(straddle, 0.0, lo)
        hi = np.where(straddle, np.maximum(alo * alo, ahi * ahi), hi)
        lo, hi = _outward(lo, hi)
        return np.where(lo == -5e-324, 0.0, lo), hi

    for seed in (7, 8, 9):
        lo, hi = endpoints(seed)
        with np.errstate(all="ignore"):
            assert same_bits(visq(lo, hi), reference(lo, hi))
