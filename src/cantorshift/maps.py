"""Polynomial map model: exact coefficients, certified critical points,
escape radius, and the restriction-hypothesis validator.

Coefficients are exact Gaussian rationals (decimal-string real/imaginary
parts), converted once to outward-rounded interval rectangles.  Keeping the
exact values around buys two things: bit-reproducible float enclosures on
any platform, and exact orbits.  Every orbit is walked by ``DyadicOrbit``,
whose one rule places each point against the domain circle: exactly while
an exact orbit stays in the lattice (1/D)Z[i], where a revisit is possible,
and at its first point past it; else on adaptive-precision dyadic balls,
with the exact point deciding where a ball straddles it at the ceiling.
Float rectangles go through the vector kernels of ``intervals`` only, a
single one as a batch of length one.

Every simple root is certified by one batched Krawczyk loop (``_krawczyk``):
companion-matrix eigenvalues seed a numpy Krawczyk test on any monic exact
polynomial, with every enclosure outward-rounded.  It has two callers.

* ``certified_roots``, which derives the critical points: exact square-free
  decomposition over the Gaussian rationals fixes every multiplicity, the
  simple roots of each factor are certified in one batch, and each
  certified box's root is decided exact by one evaluation at the one
  Gaussian-rational point it can be.
* ``witness_preimages``: the preimages f^{-1}(w) of many exact points w,
  one tree level's witness points, in one batch.  d pairwise-disjoint
  certified boxes prove d simple roots, so no square-free decomposition is
  needed; any point the batch cannot answer that way goes to the exact
  ``certified_roots``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .errors import PrecisionExceeded
from .intervals import (
    _one_box,
    boverlap,
    enclose_fraction,
    enclose_point,
    vbabs2,
    vbadd,
    vbmul,
    vbsquare,
    viadd,
    visq,
    visub,
)

# size guard for exact orbit points and ceiling of the dyadic-ball precision
_MAX_ORBIT_BITS = 2_000_000


# ---------------------------------------------------------------------------
# exact Gaussian-rational scalars and polynomials
# ---------------------------------------------------------------------------

QC_ZERO = (Fraction(0), Fraction(0))
QC_ONE = (Fraction(1), Fraction(0))


def parse_exact(s) -> Fraction:
    """Decimal string (or int/Fraction, not bool) to an exact rational.
    Raises ValueError for a bool, a non-finite string, or one whose digits
    and exponent take over ``_MAX_ORBIT_BITS`` bits (estimated first)."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    try:
        value = Decimal(str(s).strip())
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal number: {s!r}") from exc
    if not value.is_finite():
        raise ValueError(f"not a finite decimal number: {s!r}")
    _, digits, exponent = value.as_tuple()
    if any(digits) and (len(digits) + abs(exponent)) * math.log2(10) > _MAX_ORBIT_BITS:
        raise ValueError(f"decimal number too large for an exact value: {s!r}")
    return Fraction(value)


def parse_point(z):
    """An exact (Fraction, Fraction) point from a pair of decimal strings /
    rationals, or from a finite complex number at its exact float value."""
    if isinstance(z, complex):
        if not cmath.isfinite(z):
            raise ValueError(f"not a finite point: {z!r}")
        return (Fraction(z.real), Fraction(z.imag))
    return (parse_exact(z[0]), parse_exact(z[1]))


def qc_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def qc_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def qc_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qc_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def qc_is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


def qc_bits(a) -> int:
    return (a[0].numerator.bit_length() + a[0].denominator.bit_length()
            + a[1].numerator.bit_length() + a[1].denominator.bit_length())


# polynomials are tuples of Gaussian rationals, ascending powers

def p_normalize(p):
    q = list(p)
    while q and qc_is_zero(q[-1]):
        q.pop()
    return tuple(q)


def p_degree(p) -> int:
    return len(p) - 1


def p_derivative(p):
    return tuple((k * c[0], k * c[1]) for k, c in enumerate(p) if k > 0)


def p_eval(p, z):
    acc = QC_ZERO
    for c in reversed(p):
        acc = qc_add(qc_mul(acc, z), c)
    return acc


def p_monic(p):
    p = p_normalize(p)
    lead = p[-1]
    if lead == QC_ONE:
        return p
    return tuple(qc_div(c, lead) for c in p)


def p_divmod(a, b):
    """Exact polynomial division over the Gaussian rationals."""
    a = list(p_normalize(a))
    b = p_normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = p_degree(b)
    lead = b[-1]
    q = [QC_ZERO] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        coef = qc_div(a[-1], lead)
        q[k] = coef
        for i, bc in enumerate(b):
            a[k + i] = qc_sub(a[k + i], qc_mul(coef, bc))
        while a and qc_is_zero(a[-1]):
            a.pop()
    return tuple(q), tuple(a)


def p_gcd(a, b):
    """Monic gcd via Euclid; exact, so termination and result are certain."""
    a, b = p_normalize(a), p_normalize(b)
    while b:
        _, r = p_divmod(a, b)
        a, b = b, p_normalize(r)
    if not a:
        return ()
    return p_monic(a)


def p_sub(a, b):
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        ca = a[k] if k < len(a) else QC_ZERO
        cb = b[k] if k < len(b) else QC_ZERO
        out.append(qc_sub(ca, cb))
    return p_normalize(tuple(out))


def squarefree_decomposition(p):
    """Yun's algorithm: [(g_1, 1), (g_2, 2), ...] with the g_i monic,
    square-free, pairwise coprime, and p = lead * prod g_i^i."""
    p = p_monic(p)
    if p_degree(p) < 1:
        return []
    dp = p_derivative(p)
    a = p_gcd(p, dp)
    b, _ = p_divmod(p, a)
    c, _ = p_divmod(dp, a)
    d = p_sub(c, p_derivative(b))
    out = []
    i = 1
    while p_degree(b) > 0:
        a = p_gcd(b, d)
        if p_degree(a) > 0:
            out.append((p_monic(a), i))
        b, _ = p_divmod(b, a)
        c, _ = p_divmod(d, a)
        d = p_sub(c, p_derivative(b))
        i += 1
    return out


def _complex(c):
    return complex(float(c[0]), float(c[1]))


def _enclosures(p):
    """Outward enclosures of exact coefficients, in their order, with None
    for an exact zero (the kernels skip its addition)."""
    return [None if qc_is_zero(c) else enclose_point(c) for c in p]


def _companion_roots(lower):
    """Approximations to every root of monic polynomials, one stacked
    eigenvalue call on their companion matrices: row m of ``lower`` holds
    the coefficients of polynomial m below its leading one (ascending), and
    its roots come out at positions m*n .. m*n + n - 1."""
    m, n = lower.shape
    companion = np.zeros((m, n, n), dtype=complex)
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    companion[:, :, n - 1] = -lower
    return np.linalg.eigvals(companion).reshape(m * n)


@dataclass(frozen=True)
class CriticalPoint:
    """A certified critical point: its enclosure, a float rectangle
    ``(re_lo, re_hi, im_lo, im_hi)``, its multiplicity in f', and the exact
    Gaussian-rational value when ``certified_roots`` finds one (used for
    exact orbit walks)."""

    enclosure: tuple
    multiplicity: int
    exact: tuple = None  # (Fraction re, Fraction im) or None

    def point_str(self) -> str:
        if self.exact is not None:
            return f"{self.exact[0]}{'+' if self.exact[1] >= 0 else ''}{self.exact[1]}i"
        re_lo, re_hi, im_lo, im_hi = self.enclosure
        re, im = 0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi)
        return f"~{re!r}{'+' if im >= 0 else ''}{im!r}i"


def certified_roots(poly):
    """Certified root enclosures of an exact-coefficient polynomial.

    Returns (enclosure, multiplicity, exact-or-None) triples covering every
    root, each enclosure a float rectangle ``(re_lo, re_hi, im_lo, im_hi)``.
    Multiplicities come from exact square-free decomposition (so they sum to
    the degree by construction), and the simple roots of each square-free
    factor are certified in one Krawczyk batch (``_krawczyk``) seeded by its
    companion eigenvalues.  Enclosures are checked pairwise disjoint;
    results are in canonical (re_lo, im_lo) order.

    Each certified box holds exactly one root r, and ``exact`` is r itself
    when r is a Gaussian rational found as follows.  With D the lcm of the
    factor's coefficient denominators, D * factor has coefficients in Z[i]
    and leading coefficient D, so q | D for r = p/q in lowest terms over the
    UFD Z[i] (rational root theorem), that is D * r lies in Z[i].  Only the
    Gaussian integer n nearest D times the box midpoint is tested: if n / D
    lies in the box and the factor vanishes there exactly, the root gets
    that value and the tight enclosure of the exact point.  The test finds
    every Gaussian-rational root whose box is narrower than 1/D, which holds
    unless |r| is above about 2^50 / D; any other root keeps its Krawczyk
    box with ``exact`` None.
    """
    poly = p_monic(poly)
    found = []
    for factor, mult in squarefree_decomposition(poly):
        seeds = _companion_roots(np.array([[_complex(c) for c in factor[:-1]]]))
        X, answered = _krawczyk(_Monic(factor), seeds)
        if not answered.all():
            raise PrecisionExceeded(
                f"could not certify the simple roots near {seeds[~answered]}")
        den = math.lcm(*(part.denominator for c in factor for part in c))
        for box in X.T.tolist():
            # the one point of (1/den)Z[i] that can be the box's root
            z = tuple(Fraction(round(den * Fraction(0.5 * (lo + hi))), den)
                      for lo, hi in (box[:2], box[2:]))
            if (box[0] <= z[0] <= box[1] and box[2] <= z[1] <= box[3]
                    and qc_is_zero(p_eval(factor, z))):
                found.append((enclose_point(z), mult, z))
            else:
                found.append((tuple(box), mult, None))
    total = sum(m for _, m, _ in found)
    if total != p_degree(poly):
        raise PrecisionExceeded(
            f"certified {total} roots (with multiplicity), expected {p_degree(poly)}")
    for a in range(len(found)):
        for b in range(a + 1, len(found)):
            if boverlap(found[a][0], found[b][0]):
                raise PrecisionExceeded("root enclosures overlap")
    found.sort(key=lambda t: (t[0][0], t[0][2]))
    return tuple(found)


def derive_critical_points(pmap: "PolynomialMap"):
    """Certified enclosures of all roots of f', with multiplicities
    summing to d - 1, the degree of f' (``certified_roots`` checks it)."""
    roots = certified_roots(p_derivative(pmap.exact_coefficients))
    return tuple(CriticalPoint(box, mult, exact) for box, mult, exact in roots)


# The one Krawczyk contraction loop (``_krawczyk``), behind both
# ``certified_roots`` and ``witness_preimages``: the half-widths of the
# start boxes tried in turn around an approximation, the most contraction
# rounds per box, and the width ratio that counts as stalled (either side of
# K /\ X above it ends the contraction, so a side already at float
# resolution does not keep the other contracting into the denormals).
_KRAWCZYK_WIDTHS = (1e-8, 1e-10, 1e-6, 1e-4, 1e-2)
_KRAWCZYK_ROUNDS = 80
_KRAWCZYK_STALL = 0.96


def _krawczyk_boxes(g, X, const):
    """One vectorized Krawczyk step for the monic exact polynomial g (a
    ``_Monic``) on rectangles X.

    ``const``, when given, holds per rectangle the enclosure of the constant
    term that replaces g's own, e.g. a_0 - w for f - w.  Returns
    K(X) = m - Y*g(m) + (1 - Y*g'(X)) * (X - m) and the mask of rectangles
    with |1 - Y*g'(X)| < 1, both outward-rounded: every coefficient is
    enclosed from its exact value, g(m) is enclosed on the float point m,
    g' does not depend on the constant term, and Y is a float inverse of
    g'(m) whose error only costs contraction (Y = 0, used where g'(m) is 0,
    fails the test).
    """
    mx = 0.5 * (X[0] + X[1])
    my = 0.5 * (X[2] + X[3])
    mid = (mx, mx, my, my)
    with np.errstate(all="ignore"):
        y = 1.0 / np.polyval(g.deriv_desc, mx + 1j * my)
    y = np.where(np.isfinite(y), y, 0.0)
    Y = (y.real,) * 2 + (y.imag,) * 2  # point boxes, one array per part
    ygm = vbmul(Y, g.eval_boxes(mid, constant=const))
    ygx = vbmul(Y, g.eval_deriv_boxes(X))
    E = visub(1.0, 1.0, ygx[0], ygx[1]) + visub(0.0, 0.0, ygx[2], ygx[3])
    Xm = visub(X[0], X[1], mx, mx) + visub(X[2], X[3], my, my)
    K = vbadd(vbadd(mid, (-ygm[1], -ygm[0], -ygm[3], -ygm[2])), vbmul(E, Xm))
    _, mag2 = viadd(*visq(E[0], E[1]), *visq(E[2], E[3]))
    return K, mag2 < 1.0


def _krawczyk(g, seeds, const=None):
    """Certify simple roots of g around the approximations ``seeds``, all in
    lockstep.  ``const`` is None or an (n, 4) array of per-seed constant
    terms (see ``_krawczyk_boxes``).

    Each seed tries the start widths in turn until K(X) lies inside X with
    |1 - Y*g'(X)| < 1: X then holds exactly one root of g, and it is simple
    (Krawczyk, Computing 4, 1969).  A certified box contracts,
    X <- K(X) /\\ X, until it stalls, empties or runs out of rounds.
    Returns the boxes as a (4, n) array and the mask of the seeds answered
    that way.
    """
    n = len(seeds)
    widths = np.array(_KRAWCZYK_WIDTHS)
    X = np.empty((4, n))
    stage = np.zeros(n, dtype=np.int64)   # index into widths
    rounds = np.zeros(n, dtype=np.int64)
    certified = np.zeros(n, dtype=bool)
    answered = np.zeros(n, dtype=bool)

    def start(idx):
        w = widths[stage[idx]]
        s = seeds[idx]
        X[:, idx] = (s.real - w, s.real + w, s.imag - w, s.imag + w)
        rounds[idx] = 0
        certified[idx] = False

    active = np.flatnonzero(np.isfinite(seeds))
    start(active)
    while active.size:
        x = tuple(X[:, active])
        K, contracting = _krawczyk_boxes(
            g, x, None if const is None else tuple(const[active].T))
        inside = (x[0] < K[0]) & (K[1] < x[1]) & (x[2] < K[2]) & (K[3] < x[3])
        ok = certified[active] | (inside & contracting)
        # a box that fails its first test moves on to the next start width
        failed = active[~ok]
        stage[failed] += 1
        retry = failed[stage[failed] < len(widths)]
        start(retry)
        # a certified box contracts, X <- K /\ X, until it stalls
        kept = active[ok]
        certified[kept] = True
        old = X[:, kept]
        new = np.stack((np.maximum(old[0], K[0][ok]), np.minimum(old[1], K[1][ok]),
                        np.maximum(old[2], K[2][ok]), np.minimum(old[3], K[3][ok])))
        empty = (new[0] > new[1]) | (new[2] > new[3])
        X[:, kept[~empty]] = new[:, ~empty]
        rounds[kept] += 1
        stalled = ((new[1] - new[0] > _KRAWCZYK_STALL * (old[1] - old[0]))
                   | (new[3] - new[2] > _KRAWCZYK_STALL * (old[3] - old[2])))
        done = empty | stalled | (rounds[kept] >= _KRAWCZYK_ROUNDS)
        answered[kept[done]] = True
        active = np.concatenate((retry, kept[~done]))
    return X, answered


def witness_preimages(pmap: "PolynomialMap", points):
    """Certified roots of f(z) = w for many exact points w at once.

    Returns, per point, d ``(rectangle, 1)`` pairs, each rectangle a float
    tuple ``(re_lo, re_hi, im_lo, im_hi)``, in the canonical
    (re_lo, im_lo) order of ``certified_roots``, or None.  The roots of
    every g = f - w are seeded by one stacked eigenvalue call on the
    companion matrices and certified in one ``_krawczyk`` batch, with the
    constant term a_0 - w enclosed from its exact value per seed.  g(m) is
    enclosed on the float point box m, which keeps the test sound (Rump,
    "Verification methods", Acta Numerica 2010).  A point is answered only
    when all d boxes are certified and pairwise disjoint: they then hold d
    distinct simple roots, every root of g, so each has multiplicity 1.
    None leaves the point to ``certified_roots``, whose exact square-free
    decomposition decides multiplicities.
    """
    if not points:
        return []
    d = pmap.degree
    a0 = pmap.exact_coefficients[0]
    consts = [(a0[0] - w[0], a0[1] - w[1]) for w in points]
    lower = np.empty((len(points), d), dtype=complex)
    lower[:, 0] = [_complex(c) for c in consts]
    lower[:, 1:] = [_complex(c) for c in pmap.exact_coefficients[1:d]]
    seeds = _companion_roots(lower)
    cb = np.repeat(np.array([enclose_point(c) for c in consts]), d, axis=0)
    X, answered = _krawczyk(pmap, seeds, cb)

    out = []
    for p in range(len(points)):
        if not answered[p * d:(p + 1) * d].all():
            out.append(None)
            continue
        boxes = sorted(map(tuple, X[:, p * d:(p + 1) * d].T.tolist()),
                       key=lambda b: (b[0], b[2]))
        if any(boverlap(boxes[a], boxes[b])
               for a in range(d) for b in range(a + 1, d)):
            out.append(None)
            continue
        out.append(tuple((b, 1) for b in boxes))
    return out


# ---------------------------------------------------------------------------
# the map and domain types
# ---------------------------------------------------------------------------

class _Monic:
    """A monic polynomial with exact Gaussian-rational coefficients
    (ascending) and the vector kernels that enclose it and its derivative
    over rectangles, every coefficient enclosed outward from its exact
    value."""

    def __init__(self, coeffs):
        self.exact_coefficients = coeffs
        self.degree = len(coeffs) - 1
        self._nonzero_boxes = _enclosures(coeffs[:-1])
        deriv = p_derivative(coeffs)
        self._deriv_boxes_desc = _enclosures(deriv)[::-1]
        self.deriv_desc = [_complex(c) for c in reversed(deriv)]  # floats, for numpy

    def eval_boxes(self, boxes, constant=None):
        """Enclosure over rectangles: ``boxes`` is a 4-tuple of ndarrays
        (re_lo, re_hi, im_lo, im_hi).

        Monic Horner, monotone under inclusion, with two cheap sharpenings:
        zero coefficients skip their addition, and the first accumulated
        product acc*z with acc still equal to z uses the dedicated square
        (which keeps the signs of x^2 and y^2, noticeably tightening
        iterated images).

        ``constant``, when given, is a 4-tuple of rectangles that replaces
        the constant coefficient per box, e.g. enclosures of a_0 - w for
        f - w.

        Point boxes (one array as both walls of a part) and the exact 0.0
        imaginary part of a real coefficient take the kernels' cheaper
        paths (see ``intervals``), with the generic path's bits."""
        lower = self._nonzero_boxes
        if constant is not None:
            lower = [constant] + lower[1:]
        acc = boxes
        if lower[-1] is not None:
            acc = vbadd(acc, lower[-1])
        for k in range(self.degree - 2, -1, -1):
            acc = vbsquare(acc) if acc is boxes else vbmul(acc, boxes)
            if lower[k] is not None:
                acc = vbadd(acc, lower[k])
        return acc

    def eval_deriv_boxes(self, boxes):
        """Enclosure of the derivative over rectangles (generic Horner; the
        derivative is not monic).

        Horner starts from the leading coefficient d of f' as a float box
        (d, d, 0.0, 0.0), so the first product is a real point times the
        rectangles (two products per part) and two exact zero factors,
        which the kernels answer without multiplying (see ``intervals``).
        Every real coefficient after it adds an exact 0.0 imaginary part,
        which is the outward rounding of the accumulator alone."""
        acc = self._deriv_boxes_desc[0]
        for c in self._deriv_boxes_desc[1:]:
            acc = vbmul(acc, boxes)
            if c is not None:
                acc = vbadd(acc, c)
        return acc


class PolynomialMap(_Monic):
    """Monic polynomial map of degree at least 2 with exact
    Gaussian-rational coefficients."""

    def __init__(self, coefficients):
        coeffs = tuple((parse_exact(re), parse_exact(im)) for re, im in coefficients)
        if len(coeffs) < 3:
            raise ValueError("degree must be at least 2")
        if coeffs[-1] != QC_ONE:
            raise ValueError("leading coefficient must be exactly 1")
        super().__init__(coeffs)
        # D: lcm of every coefficient denominator (see _orbit_status)
        self.coefficient_denominator = math.lcm(
            *(part.denominator for c in coeffs for part in c))
        self._criticals = None

    @property
    def critical_points(self):
        if self._criticals is None:
            self._criticals = derive_critical_points(self)
        return self._criticals

    def eval_exact(self, z):
        """Exact image of an exact point; z is a (Fraction, Fraction) pair."""
        return p_eval(self.exact_coefficients, z)

    def eval_box(self, box4):
        """``eval_boxes`` of one rectangle, a tuple of four floats.  The
        benchmark's tracer is its only caller; ROADMAP item 1 deletes the
        method and the tracer's layer together."""
        return tuple(float(a[0]) for a in self.eval_boxes(_one_box(box4)))

    def eval_boxes_sharp(self, boxes):
        """Vectorized enclosure intersecting plain Horner with the centered
        mean-value form f(m) + f'(B) * (B - m).

        Plain interval Horner cannot see derivative cancellation, so near a
        critical point its relative overestimation diverges; the centered
        form is quadratically sharp exactly there.  Both forms enclose the
        true image, hence so does their intersection.  Every box is
        evaluated on its own, in one pass over the batch: the classifier
        bounds its batches by ``tree._WAVE_SLICE``.

        f(m) is the Horner scheme on the point boxes (mx, mx, my, my), one
        array per part, so its kernels multiply and round each point once
        (see ``intervals``), with the bits of the generic path.  A batch of
        point boxes (``_chain_inside`` passes midpoints) takes the same
        paths in the plain form.
        """
        plain = self.eval_boxes(boxes)
        mx = 0.5 * (boxes[0] + boxes[1])
        my = 0.5 * (boxes[2] + boxes[3])
        at_mid = self.eval_boxes((mx, mx, my, my))
        fp = self.eval_deriv_boxes(boxes)
        dlo, dhi = visub(boxes[0], boxes[1], mx, mx)
        elo, ehi = visub(boxes[2], boxes[3], my, my)
        centered = vbadd(at_mid, vbmul(fp, (dlo, dhi, elo, ehi)))
        return (np.maximum(plain[0], centered[0]),
                np.minimum(plain[1], centered[1]),
                np.maximum(plain[2], centered[2]),
                np.minimum(plain[3], centered[3]))

    def describe(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            re, im = self.exact_coefficients[k]
            if re == 0 and im == 0:
                continue
            if im == 0:
                c = str(re)
            elif re == 0:
                c = f"{im}i"
            else:
                c = f"({re}{'+' if im >= 0 else ''}{im}i)"
            terms.append(f"{c}*z^{k}" if k else c)
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"PolynomialMap(degree={self.degree})"


def escape_radius(pmap: PolynomialMap) -> Fraction:
    """Safe escape radius R = 1 + sum |a_k| over non-leading coefficients.

    Uses |re| + |im| as the (exact, rational) bound for each modulus, so R
    stays an exact rational; |z| > R implies |f(z)| > |z|, hence the closed
    disk of radius R contains the filled-in set of the global polynomial.
    """
    total = Fraction(0)
    for re, im in pmap.exact_coefficients[:-1]:
        total += abs(re) + abs(im)
    return 1 + total


class DomainDisk:
    """The round domain U: exact center and radius."""

    def __init__(self, center, radius):
        self.center = (parse_exact(center[0]), parse_exact(center[1]))
        self.radius = parse_exact(radius)
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")
        self.center_box = enclose_point(self.center)
        r2 = self.radius * self.radius
        self.r2 = r2
        lo, hi = enclose_fraction(r2)
        self.r2_lo = lo  # float <= exact R^2
        self.r2_hi = hi  # float >= exact R^2

    def classify_exact(self, z) -> str:
        """'in' / 'out' / 'boundary' for an exact point, decided exactly."""
        dx = z[0] - self.center[0]
        dy = z[1] - self.center[1]
        d2 = dx * dx + dy * dy
        if d2 < self.r2:
            return "in"
        if d2 > self.r2:
            return "out"
        return "boundary"

    def sides(self, walls):
        """Arrays of rectangles classified in one vector pass: the masks
        of those certified inside the open disk and of those certified
        outside the closed disk."""
        d2_lo, d2_hi = vbabs2(walls, self.center_box)
        return d2_hi < self.r2_lo, d2_lo > self.r2_hi

    def contains_cover(self, cover) -> bool:
        """True certifies every cell of the cover lies in the open disk
        (``sides`` puts every cell inside)."""
        return bool(self.sides(cover.frame.cell_walls(cover.r, cover.i, cover.j))[0].all())

    def __repr__(self):
        return f"DomainDisk(center=({self.center[0]}, {self.center[1]}), radius={self.radius})"


# ---------------------------------------------------------------------------
# orbits as dyadic balls
# ---------------------------------------------------------------------------

def _floor_scaled(x, prec) -> int:
    """floor(x * 2**prec) for an exact rational (or float) x."""
    x = Fraction(x)
    return (x.numerator << prec) // x.denominator


def _ceil_scaled(x, prec) -> int:
    x = Fraction(x)
    return -((-x.numerator << prec) // x.denominator)


def _dyadic_rect(rect, prec):
    """The least box at scale 2**prec around an exact or float rectangle."""
    return (_floor_scaled(rect[0], prec), _ceil_scaled(rect[1], prec),
            _floor_scaled(rect[2], prec), _ceil_scaled(rect[3], prec))


def _dyadic_point(z, prec):
    return _dyadic_rect((z[0], z[0], z[1], z[1]), prec)


def _imul_int(alo, ahi, blo, bhi):
    """Exact integer interval product."""
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    return min(p1, p2, p3, p4), max(p1, p2, p3, p4)


def _isq_int(lo, hi):
    """Exact integer interval square, keeping the sign of x^2."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


def _dadd(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])


def _dmul(u, v, prec):
    """Complex box product at scale 2**prec: exact products, then one
    floor (lower bounds) or ceiling (upper bounds) shift."""
    rr = _imul_int(u[0], u[1], v[0], v[1])
    ii = _imul_int(u[2], u[3], v[2], v[3])
    ri = _imul_int(u[0], u[1], v[2], v[3])
    ir = _imul_int(u[2], u[3], v[0], v[1])
    return ((rr[0] - ii[1]) >> prec, -((ii[0] - rr[1]) >> prec),
            (ri[0] + ir[0]) >> prec, -((-ri[1] - ir[1]) >> prec))


def _dsquare(u, prec):
    """Box square, tighter than _dmul(u, u) because x^2 and y^2 keep
    their signs."""
    xx = _isq_int(u[0], u[1])
    yy = _isq_int(u[2], u[3])
    xy = _imul_int(u[0], u[1], u[2], u[3])
    return ((xx[0] - yy[1]) >> prec, -((yy[0] - xx[1]) >> prec),
            (2 * xy[0]) >> prec, -((-2 * xy[1]) >> prec))


class DyadicOrbit:
    """The one orbit walker: certified enclosures of an orbit, and the one
    rule that places each orbit point against the domain circle (``side``).

    Boxes are dyadic, ``(re_lo, re_hi, im_lo, im_hi)`` of Python ints over
    2**prec.  The seed is an exact point ``(re, im)`` or a rectangle
    ``(re_lo, re_hi, im_lo, im_hi)`` of floats or rationals, such as the
    enclosure of a critical point known only that way; the boxes then hold
    the orbit of every point of the rectangle.  An exact orbit is carried
    exactly while it stays in the lattice (1/D)Z[i] (``_leaves_lattice``),
    each box the point's own, and so is its first point past the lattice,
    which seeds the boxes.  Each later step applies f in the Horner order of
    ``_Monic.eval_boxes`` with exact integer products rounded once outward,
    so every box contains the exact orbit point.  Precision adapts as for
    Arb's midpoint-radius balls: whenever a box straddles the circle, or
    has kept fewer than half of its ``prec`` bits, it doubles and the walk
    restarts from the seed, up to a ceiling: ``_MAX_ORBIT_BITS`` for an
    exact point, and for a rectangle the precision that holds it exactly
    (at least 64 bits).  Past the lattice the exact orbit is advanced
    lazily, for the steps where a caller needs it, below the same bit guard.
    """

    def __init__(self, pmap: PolynomialMap, disk: DomainDisk, z, prec: int = 64):
        self.pmap = pmap
        self.step = 0
        self._classify = disk.classify_exact
        if len(z) == 4:
            self._seed, self._exact, self._lattice = (0, z), None, None
            self._ceiling = max(64, *(Fraction(v).denominator.bit_length() - 1 for v in z))
        else:
            self._carry(z)
            self._ceiling = _MAX_ORBIT_BITS
        cden = math.lcm(disk.center[0].denominator, disk.center[1].denominator)
        # the disk scaled to integers: center * cden and R^2 as a fraction
        self._disk = (int(disk.center[0] * cden), int(disk.center[1] * cden),
                      cden, disk.r2.numerator, disk.r2.denominator)
        self._set_prec(min(prec, self._ceiling))

    def _carry(self, z):
        # z: the exact point of this step and the seed of the boxes
        self._exact = (self.step, z)
        self._lattice = None if _leaves_lattice(self.pmap, z) else z
        self._seed = (self.step, (z[0], z[0], z[1], z[1]))

    def _set_prec(self, prec):
        """(Re)compute the box of the current step at precision ``prec``."""
        self.prec = prec
        self._coeffs = [None if qc_is_zero(c) else _dyadic_point(c, prec)
                        for c in self.pmap.exact_coefficients[:-1]]
        base, rect = self._seed
        box = _dyadic_rect(rect, prec)
        for _ in range(self.step - base):
            box = self._image(box)
        self.box = box

    def _refine(self) -> bool:
        if self.prec >= self._ceiling:
            return False
        self._set_prec(min(2 * self.prec, self._ceiling))
        return True

    def _image(self, z):
        acc = z
        c = self._coeffs[-1]
        if c is not None:
            acc = _dadd(acc, c)
        for k in range(len(self._coeffs) - 2, -1, -1):
            acc = _dsquare(acc, self.prec) if acc is z else _dmul(acc, z, self.prec)
            c = self._coeffs[k]
            if c is not None:
                acc = _dadd(acc, c)
        return acc

    def _too_wide(self) -> bool:
        b = self.box
        return max(b[1] - b[0], b[3] - b[2]).bit_length() > self.prec // 2

    def advance(self):
        """Enclose the next orbit point."""
        self.step += 1
        if self._lattice is None:
            self.box = self._image(self.box)
            while self._too_wide() and self._refine():
                pass
        else:
            self._carry(self.pmap.eval_exact(self._lattice))
            self.box = _dyadic_rect(self._seed[1], self.prec)

    def _side(self):
        cx, cy, cden, rn, rd = self._disk
        b, p = self.box, self.prec
        dx = (b[0] * cden - (cx << p), b[1] * cden - (cx << p))
        dy = (b[2] * cden - (cy << p), b[3] * cden - (cy << p))
        sx, sy = _isq_int(*dx), _isq_int(*dy)
        r2 = (rn * cden * cden) << (2 * p)  # R^2 at the scale of |z - c|^2
        if (sx[1] + sy[1]) * rd < r2:
            return "in"
        if (sx[0] + sy[0]) * rd > r2:
            return "out"
        return None

    def side(self):
        """'in' (inside the open disk), 'out' (outside the closed disk) or
        'boundary', certified: exactly for a carried point, never refining;
        else by the box up to the ceiling, then by the exact point.  A box
        that straddles the circle while the exact point has at most ``prec``
        bits answers "boundary" at once if that point is on the circle; an
        exact "in" or "out" still refines, so the boxes stay as they were.
        None past the size guard, or for a rectangle seed."""
        k, z = self._exact or (None, None)
        if k != self.step:
            while (s := self._side()) is None:
                z = self._exact_within(self.prec)
                if z is not None and self._classify(z) == "boundary":
                    return "boundary"
                if not self._refine():
                    break
            if s is not None or (z := self.exact_point()) is None:
                return s
        return self._classify(z)

    def meets(self, rect) -> bool:
        """Closed overlap of the box with an exact or float rectangle
        ``(re_lo, re_hi, im_lo, im_hi)``; False certifies disjointness."""
        b, p = self.box, self.prec
        return (b[0] <= _floor_scaled(rect[1], p) and _ceil_scaled(rect[0], p) <= b[1]
                and b[2] <= _floor_scaled(rect[3], p) and _ceil_scaled(rect[2], p) <= b[3])

    def exact_point(self):
        """The exact orbit point at the current step, or None for a
        rectangle seed or once the exact orbit passes the
        ``_MAX_ORBIT_BITS`` size guard."""
        return self._exact_within(_MAX_ORBIT_BITS)

    def _exact_within(self, bits):
        """The exact orbit point at the current step, or None for a
        rectangle seed or once the exact orbit passes ``bits`` bits; the
        exact orbit is advanced no further than that."""
        if self._exact is None:
            return None
        k, z = self._exact
        while k < self.step and qc_bits(z) <= bits:
            z = self.pmap.eval_exact(z)
            k += 1
        self._exact = (k, z)
        if k < self.step or qc_bits(z) > bits:
            return None
        return z


# ---------------------------------------------------------------------------
# restriction-hypothesis validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionReport:
    """Outcome of checking the polynomial-like restriction hypotheses."""

    n_components: int
    branch_degrees: tuple
    compactly_contained: bool
    critical_escape_flags: tuple  # one dict per critical point
    periodic_critical_flag: bool
    hypothesis_ok: bool
    warnings: tuple = ()

    def summary_lines(self):
        lines = [
            f"components N = {self.n_components}, branch degrees = {list(self.branch_degrees)}",
            f"U' compactly contained in U: {self.compactly_contained}",
        ]
        for st in self.critical_escape_flags:
            lines.append(
                f"critical {st['point']} (mult {st['multiplicity']}): "
                f"in U' = {st['in_restriction']}, orbit = {st['status']}"
                + (f" (step {st['escape_step']})" if st["escape_step"] is not None else "")
                + (" [periodic]" if st["periodic"] else ""))
        lines.append(f"hypothesis_ok = {self.hypothesis_ok}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return lines


def _leaves_lattice(pmap, z) -> bool:
    """The no-revisit certificate: True when the exact point z = (a + bi)/q
    (q reduced) has q not dividing D, the lcm of the coefficient
    denominators.

    Then some prime p has v_p(q) > v_p(D).  Since gcd(a, b, q) = 1, some
    Gaussian prime P over p divides a + bi less often than it divides p
    (P = 1 + i for p = 2), so |z|_P > |1/D|_P >= max(1, |a_k|_P^(1/(d-k)))
    for every coefficient a_k.  The leading term then dominates
    P-adically, |f(z)|_P = |z|_P^d, so |z_n|_P grows strictly along the
    rest of the orbit and stays above |w|_P <= |1/D|_P for every earlier
    point w of (1/D)Z[i]: no later point equals any earlier one.
    """
    q = math.lcm(z[0].denominator, z[1].denominator)
    return pmap.coefficient_denominator % q != 0


def _orbit_status(pmap, disk, z, horizon):
    """Walk the orbit of z, an exact point or a rectangle, through step
    ``horizon`` on one ``DyadicOrbit``; returns (status, escape_step,
    periodic).  A step the walker places outside U escapes, and one on the
    circle, or one it cannot place, leaves the orbit "undecided".
    ``periodic`` marks an exact return to the start; a revisit of a later
    point makes the start strictly preperiodic, bounded but not periodic.
    Revisits are sought among the walker's lattice points, the image of the
    one at the horizon included: in the finite set (1/D)Z[i] /\\ U every
    revisit is found, and past it ``_leaves_lattice`` rules any out.
    """
    orbit, seen = DyadicOrbit(pmap, disk, z), set()
    for step in range(horizon + 1):
        side = orbit.side()
        if side != "in":
            return ("escapes", step, False) if side == "out" else ("undecided", None, False)
        if orbit._lattice is not None:
            seen.add(orbit._lattice)
        elif step == horizon:
            break
        orbit.advance()
        if orbit._lattice in seen:
            return "in_Uprime", None, orbit._lattice == z
    return "in_Uprime", None, False


def validate_restriction(pmap: PolynomialMap, disk: DomainDisk, level1, pavement,
                         horizon: int = 20) -> RestrictionReport:
    """Check the generalized polynomial-like hypotheses against computed
    level-1 data.

    ``level1`` is the list of level-1 components (each with a
    ``local_degree`` and ``contains_critical``), and ``pavement`` the
    PavedCover of all their cells.  Checks: N >= 2; separation of the
    level-1 cover from the boundary circle of U, certified where
    ``compactly_contained`` is True (False does not certify contact);
    branch degrees summing to the map degree; and one ``_orbit_status``
    walk per critical point.  An orbit that can be neither certified to
    escape nor certified non-periodic within the horizon yields
    "undecided" and a warning, not a failure.
    """
    n = len(level1)
    degrees = tuple(c.local_degree for c in level1)
    warnings = []

    compact = disk.contains_cover(pavement)
    placed = {cidx for comp in level1 for cidx in comp.contains_critical}
    rects = np.array([c.enclosure for c in pmap.critical_points]).reshape(-1, 4)
    overlaps = np.isin(np.arange(len(rects)), pavement.overlapping(rects.T)[0])

    crit_status = []
    periodic_flag = False
    violation = False
    for cidx, crit in enumerate(pmap.critical_points):
        in_restr = True if cidx in placed else (None if overlaps[cidx] else False)
        status, esc_step, periodic = _orbit_status(
            pmap, disk, crit.enclosure if crit.exact is None else crit.exact, horizon)
        if periodic:
            periodic_flag = True
        if in_restr and (status == "escapes" or periodic):
            violation = True
        if in_restr and status == "undecided":
            warnings.append(
                f"critical point {crit.point_str()} in U': orbit neither escapes nor is "
                f"certified non-periodic within horizon {horizon}; proceeding")
        if in_restr is None:
            warnings.append(
                f"critical point {crit.point_str()}: membership in U' undecided at this resolution")
        crit_status.append({
            "point": crit.point_str(),
            "multiplicity": crit.multiplicity,
            "in_restriction": in_restr,
            "status": status,
            "escape_step": esc_step,
            "periodic": periodic,
        })

    degree_sum_ok = sum(degrees) == pmap.degree
    ok = (n >= 2 and compact and degree_sum_ok and not violation
          and all(s["in_restriction"] is not None for s in crit_status))
    return RestrictionReport(
        n_components=n,
        branch_degrees=degrees,
        compactly_contained=compact,
        critical_escape_flags=tuple(crit_status),
        periodic_critical_flag=periodic_flag,
        hypothesis_ok=ok,
        warnings=tuple(warnings),
    )
