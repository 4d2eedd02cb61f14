"""Outward-rounded interval arithmetic on IEEE doubles.

Real intervals are ``(lo, hi)`` pairs of endpoints; complex enclosures are
axis-aligned rectangles ``(re_lo, re_hi, im_lo, im_hi)``, tuples of four
floats outside the kernels.  The ``v*`` kernels compute them on numpy
arrays of endpoints, one interval or rectangle per element; a single box
is a batch of length one.  Every arithmetic step is widened by one ulp, so
a computed enclosure contains the exact real/complex result independently
of the host's rounding mode.  This one-ulp epsilon inflation is the
portable substitute for directed rounding.  The kernels widen by the exact
one-ulp step of the int64 bit pattern, b -+ sign(b) (``_outward``), which
gives np.nextafter's bits on every input: only +0 either way, -0 going up,
the infinities and NaN need np.nextafter itself.  Scalar ``math.nextafter``
remains only where an exact value is enclosed once (``enclose_fraction``,
``isqrt_hi``).

The kernels look at what their operands are and skip the work that cannot
change a bit of the result (degenerate intervals: Moore, Kearfott and
Cloud, *Introduction to Interval Analysis*, SIAM 2009, ch. 2):
- a point, with lo and hi one array or equal floats (a float midpoint, a
  real coefficient, the Krawczyk inverse): ``vimul`` takes two products
  against an interval and one against a point, ``visq`` one, and
  ``_outward`` one sign.  The products it skips repeat the ones
  it takes, so the min and max are the same values;
- an exact 0.0 factor, given as floats (the imaginary part of a real
  coefficient): ``vimul`` returns (-5e-324, 5e-324) where the other factor
  is finite and the whole line elsewhere, which is what the generic ``+-0``
  products and ``0 * inf`` NaNs give after ``_outward``;
- an exact 0.0 second operand of ``viadd`` or ``visub``, given as floats
  (a real coefficient's imaginary part, a disk centred on an axis): they
  return ``_outward`` of the first operand, since x + 0.0 differs from x
  only at -0 and in NaN payloads, which ``_outward`` rounds alike;
- ``visq`` of an interval computes each square once: on lo <= hi the
  smaller square is the lower bound, or 0 on a straddle, and a zero
  lower bound is rounded without np.nextafter.
Other operands take the generic formulas, and
``tests/test_intervals.py`` pins every fast path to it bit for bit.

Overflow is not an error: bounds saturate at +-inf and any NaN produced by
``inf * 0`` style products is widened to the whole line, which keeps every
result a valid (possibly infinite) enclosure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INF = math.inf
_nextafter = math.nextafter


def isqrt_hi(x):
    """A float upper bound for sqrt(x), x >= 0."""
    if x < 0.0:
        raise ValueError("isqrt_hi of a negative number")
    return _nextafter(math.sqrt(x), _INF)


def enclose_fraction(q) -> tuple:
    """Smallest float interval containing an exact rational (or int/float)."""
    q = Fraction(q)
    f = float(q)
    if math.isinf(f):
        return (-_INF, _INF) if f != f else ((f, _INF) if f > 0 else (-_INF, f))
    fq = Fraction(f)
    if fq == q:
        return (f, f)
    if fq < q:
        return (f, _nextafter(f, _INF))
    return (_nextafter(f, -_INF), f)


def enclose_point(z) -> tuple:
    """(re_lo, re_hi, im_lo, im_hi): the smallest float box containing the
    exact point z = (re, im)."""
    r = enclose_fraction(z[0])
    i = enclose_fraction(z[1])
    return (r[0], r[1], i[0], i[1])


def boverlap(u, v):
    """Closed-rectangle overlap test (False certifies disjointness), of
    float walls or, elementwise, of arrays of walls."""
    return (u[0] <= v[1]) & (v[0] <= u[1]) & (u[2] <= v[3]) & (v[2] <= u[3])


def _one_box(rect):
    """A single rectangle as a batch of length one for the vector kernels."""
    return tuple(np.array([v], dtype=np.float64) for v in rect)


# ---------------------------------------------------------------------------
# vectorized kernels: outward-rounded operations on ndarray endpoints, the
# library's one float box arithmetic; ``_outward`` provides the one-ulp
# inflation elementwise, by stepping bit patterns.
# ---------------------------------------------------------------------------

_TINY = math.ulp(0.0)  # 5e-324, the least positive subnormal


def _is_point(lo, hi):
    """A degenerate interval: one array as both ends, or equal floats."""
    return lo is hi or (isinstance(lo, float) and isinstance(hi, float) and lo == hi)


def _is_zero(lo, hi):
    """The exact interval [0, 0], given as floats."""
    return isinstance(lo, float) and isinstance(hi, float) and lo == 0.0 and hi == 0.0


def _outward(lo, hi):
    """np.nextafter(lo, -inf) and np.nextafter(hi, +inf) elementwise, with
    a NaN at either end widened to the whole line, bit for bit.

    Apart from its sign bit, a double's int64 bit pattern b orders like its
    magnitude, so the next double down is b - sign(b) and the next one up
    is b + sign(b): two integer passes per end, one ``np.sign`` and one
    subtraction or addition in place, instead of np.nextafter's
    per-element call.  A point (lo is hi) takes one sign for both ends.
    The step is wrong exactly at +0 (whose sign is 0) either way, -0 going
    up, -inf going down and +inf going up, where it yields +0 itself or a
    NaN pattern.  Those and every NaN input fail the strict comparisons
    below, and only that subset goes through np.nextafter.  (+inf going
    down gives DBL_MAX, -inf going up -DBL_MAX and DBL_MAX going up +inf,
    as np.nextafter does.)
    """
    bl = lo.view(np.int64)
    down = np.sign(bl)
    if lo is hi:
        up = bl + down
    else:
        bh = hi.view(np.int64)
        up = np.sign(bh)
        up += bh
    np.subtract(bl, down, out=down)
    down = down.view(np.float64)
    up = up.view(np.float64)
    ok = down < lo
    ok &= up > hi
    if not ok.all():
        idx = np.flatnonzero(~ok)
        l = lo.take(idx)
        h = hi.take(idx)
        nan = np.isnan(l) | np.isnan(h)
        np.put(down, idx, np.nextafter(np.where(nan, -_INF, l), -_INF))
        np.put(up, idx, np.nextafter(np.where(nan, _INF, h), _INF))
    return down, up


def _outward_of(lo, hi):
    """x + 0.0 and x - 0.0 rounded outward: ``_outward`` of x itself.  The
    sum differs from x only at -0 and in NaN payloads, which ``_outward``
    rounds alike."""
    return _outward(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))


def viadd(alo, ahi, blo, bhi):
    if _is_zero(blo, bhi):
        return _outward_of(alo, ahi)
    return _outward(alo + blo, ahi + bhi)


def visub(alo, ahi, blo, bhi):
    if _is_zero(blo, bhi):
        return _outward_of(alo, ahi)
    return _outward(alo - bhi, ahi - blo)


def vimul(alo, ahi, blo, bhi):
    # a zero or point factor goes second (a product commutes bit for bit,
    # up to NaN payloads, which _outward widens)
    if _is_zero(alo, ahi) or (_is_point(alo, ahi) and not _is_point(blo, bhi)):
        alo, ahi, blo, bhi = blo, bhi, alo, ahi
    if _is_zero(blo, bhi):
        # every product is +-0 where the other factor is finite, else a
        # NaN (0 * inf): the generic bounds after _outward, without the
        # products or np.nextafter
        finite = np.isfinite(alo) & np.isfinite(ahi)
        return np.where(finite, -_TINY, -_INF), np.where(finite, _TINY, _INF)
    if _is_point(blo, bhi):
        p = alo * blo
        if _is_point(alo, ahi):
            return _outward(p, p)
        q = ahi * blo
        return _outward(np.minimum(p, q), np.maximum(p, q))
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _outward(lo, hi)


def visq(alo, ahi):
    if _is_point(alo, ahi):
        sq = alo * alo
        lo, hi = _outward(sq, sq)
        # a zero lower bound is exact and stays: +0 (and nothing else)
        # steps down to -_TINY
        return np.where(lo == -_TINY, 0.0, lo), hi
    # on lo <= hi the smaller square is the lower bound, or 0 on a
    # straddle, and the larger one the upper bound.  A square is never -0,
    # and a lower bound of +0 (kept exact) or _TINY both round down to
    # +0, so raising +0 to _TINY gives the same bits without _outward's
    # np.nextafter fallback
    a2 = alo * alo
    b2 = ahi * ahi
    lo, hi = _outward(np.maximum(np.minimum(a2, b2), _TINY), np.maximum(a2, b2))
    straddle = alo < 0.0
    straddle &= ahi > 0.0
    return np.where(straddle, 0.0, lo), hi


def vbadd(u, v):
    xlo, xhi = viadd(u[0], u[1], v[0], v[1])
    ylo, yhi = viadd(u[2], u[3], v[2], v[3])
    return (xlo, xhi, ylo, yhi)


def vbmul(u, v):
    rlo1, rhi1 = vimul(u[0], u[1], v[0], v[1])
    rlo2, rhi2 = vimul(u[2], u[3], v[2], v[3])
    xlo, xhi = visub(rlo1, rhi1, rlo2, rhi2)
    ilo1, ihi1 = vimul(u[0], u[1], v[2], v[3])
    ilo2, ihi2 = vimul(u[2], u[3], v[0], v[1])
    ylo, yhi = viadd(ilo1, ihi1, ilo2, ihi2)
    return (xlo, xhi, ylo, yhi)


def vbsquare(u):
    slo1, shi1 = visq(u[0], u[1])
    slo2, shi2 = visq(u[2], u[3])
    xlo, xhi = visub(slo1, shi1, slo2, shi2)
    plo, phi = vimul(u[0], u[1], u[2], u[3])
    ylo, yhi = viadd(plo, phi, plo, phi)
    return (xlo, xhi, ylo, yhi)


def vbabs2(u, center):
    """Lower/upper arrays for |z - c|^2 over rectangles u; c a scalar box."""
    c = np.float64
    dxlo, dxhi = visub(u[0], u[1], c(center[0]), c(center[1]))
    dylo, dyhi = visub(u[2], u[3], c(center[2]), c(center[3]))
    sxlo, sxhi = visq(dxlo, dxhi)
    sylo, syhi = visq(dylo, dyhi)
    return viadd(sxlo, sxhi, sylo, syhi)
