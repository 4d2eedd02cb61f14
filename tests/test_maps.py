"""Map model: exact parsing, critical points, escape radius, validation."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorshift import (
    DomainDisk,
    PolynomialMap,
    ResolutionPolicy,
    derive_critical_points,
    escape_radius,
    validate_restriction,
)
import cantorshift.maps as maps_mod
from cantorshift.covers import Frame
from cantorshift.intervals import boverlap, enclose_point
from cantorshift.maps import (
    DyadicOrbit,
    _leaves_lattice,
    _orbit_status,
    certified_roots,
    p_derivative,
    p_eval,
    qc_bits,
    squarefree_decomposition,
    witness_preimages,
)
from cantorshift.tree import _WAVE_SLICE, _TreeBuilder

from conftest import CUBIC_B_IM, CUBIC_B_RE, paved, shifted_coefficients


def test_map_requires_monic_and_degree_two():
    with pytest.raises(ValueError):
        PolynomialMap([("1", "0"), ("2", "0"), ("3", "0")])  # lead 3
    with pytest.raises(ValueError):
        PolynomialMap([("1", "0"), ("1", "0")])  # degree 1


@pytest.mark.parametrize("radius", ["0", "-2"])
def test_disk_radius_below_or_at_zero_is_rejected(radius):
    with pytest.raises(ValueError) as info:
        DomainDisk(("0", "0"), radius)
    assert str(info.value) == "disk radius must be positive"


def test_exact_decimal_parsing():
    pmap = PolynomialMap([("0.1", "-0.25"), ("0", "0"), ("1", "0")])
    assert pmap.exact_coefficients[0] == (Fraction(1, 10), Fraction(-1, 4))


@pytest.mark.parametrize("text", ["inf", "-Infinity", "NaN", "sNaN", "1e999999999",
                                  "-2.5e-999999999", "1e700000"])
def test_non_finite_or_oversized_decimals_are_rejected(text):
    # answered from the digits and exponent, without building the integer
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        maps_mod.parse_exact(text)


@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_numbers(value):
    # bool is an int subclass; a JSON true must not read as 1
    with pytest.raises(ValueError, match=f"not a decimal number: {value}"):
        maps_mod.parse_exact(value)
    assert maps_mod.parse_exact(int(value)) == int(value)


def test_decimal_size_estimate_before_parsing(monkeypatch):
    # (digits + |exponent|) * log2(10) bits against the guard; zero is small
    monkeypatch.setattr(maps_mod, "_MAX_ORBIT_BITS", 100)
    assert maps_mod.parse_exact("1e29") == 10 ** 29
    assert maps_mod.parse_exact("-0.5e-28") == Fraction(-5, 10 ** 29)
    assert maps_mod.parse_exact("0e999999999") == 0
    for text in ("1e30", "1.5e30", "1e-30"):
        with pytest.raises(ValueError, match="too large"):
            maps_mod.parse_exact(text)


def test_parse_point():
    assert maps_mod.parse_point(complex(0.5, -2)) == (Fraction(1, 2), Fraction(-2))
    assert maps_mod.parse_point(("0.1", Fraction(1, 3))) == (Fraction(1, 10), Fraction(1, 3))
    for z in (complex("inf"), complex(0, float("-inf")), complex("nan")):
        with pytest.raises(ValueError, match="not a finite point"):
            maps_mod.parse_point(z)


def test_critical_points_quadratic():
    pmap = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    crits = pmap.critical_points
    assert len(crits) == 1
    assert crits[0].multiplicity == 1
    assert crits[0].exact == (Fraction(0), Fraction(0))


def test_critical_points_pure_cube():
    pmap = PolynomialMap([("0", "0"), ("0", "0"), ("0", "0"), ("1", "0")])
    crits = pmap.critical_points
    assert len(crits) == 1
    assert crits[0].multiplicity == 2
    assert crits[0].exact == (Fraction(0), Fraction(0))


def test_critical_points_cubic_family():
    pmap = PolynomialMap([("0.375", "0"), ("-3", "0"), ("0", "0"), ("1", "0")])
    crits = pmap.critical_points
    assert [c.multiplicity for c in crits] == [1, 1]
    assert {c.exact for c in crits} == {(Fraction(-1), Fraction(0)),
                                        (Fraction(1), Fraction(0))}
    # enclosures are disjoint and contain the exact roots
    a, b = crits
    assert a.enclosure[1] < b.enclosure[0]


def test_certified_roots_irrational():
    # z^2 - 2: roots +-sqrt(2), certified without exact representation
    roots = certified_roots(((Fraction(-2), Fraction(0)),
                             (Fraction(0), Fraction(0)),
                             (Fraction(1), Fraction(0))))
    assert len(roots) == 2
    import math
    vals = sorted((r[0][0] + r[0][1]) / 2 for r in roots)
    assert abs(vals[0] + math.sqrt(2)) < 1e-9
    assert abs(vals[1] - math.sqrt(2)) < 1e-9
    assert all(m == 1 for _, m, _ in roots)


def test_critical_multiplicities_sum():
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def run(coeffs):
        pmap = PolynomialMap([(str(c), "0") for c in coeffs] + [("1", "0")])
        crits = derive_critical_points(pmap)
        assert sum(c.multiplicity for c in crits) == pmap.degree - 1
    run()


def test_certified_roots_fuzz_against_numeric():
    # random small-integer polynomials: certified enclosures must cover the
    # numerically computed roots with matching total multiplicity (or the
    # separation must honestly fail)
    import numpy as np
    from cantorshift.errors import PrecisionExceeded

    rng = np.random.default_rng(8)
    for _ in range(60):
        deg = int(rng.integers(2, 6))
        ints = rng.integers(-4, 5, size=deg)
        coeffs = tuple((Fraction(int(c)), Fraction(0)) for c in ints) + ((Fraction(1), Fraction(0)),)
        try:
            roots = certified_roots(coeffs)
        except PrecisionExceeded:
            continue  # clustered roots may defeat separation; an honest outcome
        assert sum(m for _, m, _ in roots) == deg
        numeric = np.roots([1.0] + [float(c) for c in ints[::-1]])
        for z in numeric:
            hit = any(box[0] - 1e-7 <= z.real <= box[1] + 1e-7
                      and box[2] - 1e-7 <= z.imag <= box[3] + 1e-7
                      for box, _, _ in roots)
            assert hit, f"numeric root {z} not covered for {ints}"


def _mp_roots_in(mp, coeffs, roots):
    """Check certified_roots output against mpmath.polyroots at 60 digits:
    every mpmath root lies in exactly one enclosure (an exact root within
    1e-40 of its value), and each enclosure holds as many mpmath roots as
    its multiplicity, so a simple root's box holds exactly one."""
    with mp.workdps(60):
        def mpc(z):
            return mp.mpc(mp.mpf(z[0].numerator) / z[0].denominator,
                          mp.mpf(z[1].numerator) / z[1].denominator)

        ref = mp.polyroots([mpc(c) for c in reversed(coeffs)], maxsteps=400, extraprec=300)

        def holds(root, box, exact):
            if exact is not None:
                return abs(root - mpc(exact)) < mp.mpf("1e-40")
            return (box[0] <= root.real <= box[1]
                    and box[2] <= root.imag <= box[3])

        hits = [[holds(z, box, exact) for box, _, exact in roots] for z in ref]
    assert all(sum(h) == 1 for h in hits), f"mpmath roots not isolated for {coeffs}"
    assert [sum(h[e] for h in hits) for e in range(len(roots))] == [m for _, m, _ in roots]


def _qc_poly_mul(a, b):
    out = [(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            p = (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
            out[i + j] = (out[i + j][0] + p[0], out[i + j][1] + p[1])
    return tuple(out)


def test_certified_roots_match_mpmath_polyroots():
    mp = pytest.importorskip("mpmath")
    # (z - (1+i)/2)^2 (z^2 - 2): the double root is a 1x1 companion batch
    half = (Fraction(1, 2), Fraction(1, 2))
    lin = ((-half[0], -half[1]), (Fraction(1), Fraction(0)))
    quad = ((Fraction(-2), Fraction(0)), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    coeffs = _qc_poly_mul(_qc_poly_mul(lin, lin), quad)
    roots = certified_roots(coeffs)
    assert [m for _, m, _ in roots] == [1, 2, 1]
    assert [exact for _, _, exact in roots] == [None, half, None]
    _mp_roots_in(mp, coeffs, roots)
    # (z - 1)^2 (z + 2) (z^2 - 3): exact rational roots beside certified ones
    cubic = tuple((Fraction(c), Fraction(0)) for c in (2, -3, 0, 1))
    coeffs = _qc_poly_mul(cubic, ((Fraction(-3), Fraction(0)),) + quad[1:])
    roots = certified_roots(coeffs)
    assert [(m, exact is None) for _, m, exact in roots] == [
        (1, False), (1, True), (2, False), (1, True)]
    _mp_roots_in(mp, coeffs, roots)
    # (z - i)(z + i)(z - 3/4)(z^2 - 3): non-real Gaussian-rational roots are
    # exact too, and +-sqrt(3) stay enclosures
    i_pair = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    three_quarters = ((Fraction(-3, 4), Fraction(0)), (Fraction(1), Fraction(0)))
    coeffs = _qc_poly_mul(_qc_poly_mul(i_pair, three_quarters),
                          ((Fraction(-3), Fraction(0)),) + quad[1:])
    roots = certified_roots(coeffs)
    assert [(m, exact) for _, m, exact in roots] == [
        (1, None), (1, (Fraction(0), Fraction(-1))), (1, (Fraction(0), Fraction(1))),
        (1, (Fraction(3, 4), Fraction(0))), (1, None)]
    _mp_roots_in(mp, coeffs, roots)
    # products of (z - r_j)^m_j with small Gaussian-rational r_j: every root
    # comes back exact, with its multiplicity, inside its enclosure (this
    # fixes every root; polyroots at 60 digits resolves a root of
    # multiplicity m only to about 10^(-60/m))
    rng = np.random.default_rng(17)
    for _ in range(20):
        chosen = {}
        while len(chosen) < int(rng.integers(1, 4)):
            r = tuple(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in "ri")
            chosen[r] = int(rng.integers(1, 4))
        coeffs = ((Fraction(1), Fraction(0)),)
        for r, m in chosen.items():
            for _ in range(m):
                coeffs = _qc_poly_mul(coeffs, ((-r[0], -r[1]), (Fraction(1), Fraction(0))))
        roots = certified_roots(coeffs)
        assert {exact: m for _, m, exact in roots} == chosen
        assert all(box[0] <= re <= box[1] and box[2] <= im <= box[3]
                   for box, _, (re, im) in roots)
    # random Gaussian-rational polynomials of degree 2..6
    rng = np.random.default_rng(50)
    for _ in range(30):
        deg = int(rng.integers(2, 7))
        tail = tuple((Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
                      Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))))
                     for _ in range(deg))
        coeffs = tail + ((Fraction(1), Fraction(0)),)
        _mp_roots_in(mp, coeffs, certified_roots(coeffs))


@pytest.mark.parametrize("c", ["-0.46797447697", "-0.16605545957", "-2.47357937827"])
def test_critical_points_take_at_most_one_exact_evaluation_per_root(monkeypatch, c):
    # z^3 + c z + 1: the critical points +-sqrt(-c / 3) are irrational, and
    # a divisor search over the rational root theorem's candidates evaluated
    # f' exactly 165,888 to 294,912 times on these maps
    calls = []
    monkeypatch.setattr(maps_mod, "p_eval", lambda p, z: calls.append(z) or p_eval(p, z))
    pmap = PolynomialMap([("1", "0"), (c, "0"), ("0", "0"), ("1", "0")])
    crits = pmap.critical_points
    root = math.sqrt(-float(Fraction(c)) / 3)
    assert [(cp.multiplicity, cp.exact) for cp in crits] == [(1, None), (1, None)]
    for cp, x in zip(crits, (-root, root)):
        box = cp.enclosure
        assert abs(complex(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3])) - x) < 1e-12
    assert len(calls) <= len(crits)


# ---------------------------------------------------------------------------
# batched witness preimages against the exact path
# ---------------------------------------------------------------------------

_dyadic = st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 4, 8]))
_dyadic_c = st.tuples(_dyadic, _dyadic)


@given(tail=st.lists(_dyadic_c, min_size=2, max_size=4),
       witnesses=st.lists(_dyadic_c, min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_witness_preimages_agree_with_certified_roots(tail, witnesses):
    pmap = PolynomialMap(tail + [(Fraction(1), Fraction(0))])
    d = pmap.degree
    batch = witness_preimages(pmap, witnesses)
    assert len(batch) == len(witnesses)
    for w, roots in zip(witnesses, batch):
        if roots is None:
            continue  # left to the exact path
        rects = [box for box, _ in roots]
        assert len(rects) == d and all(m == 1 for _, m in roots)
        assert rects == sorted(rects, key=lambda b: (b[0], b[2]))
        assert not any(boverlap(rects[a], rects[b])
                       for a in range(d) for b in range(a + 1, d))
        exact = certified_roots(shifted_coefficients(pmap, w))
        assert sum(m for _, m, _ in exact) == d
        hits = [[e for e, (box, _, _) in enumerate(exact)
                 if boverlap(rect, box)] for rect in rects]
        assert all(len(h) == 1 for h in hits)
        # d simple roots: the exact path finds each once, with multiplicity 1
        assert sorted(h[0] for h in hits) == list(range(len(exact)))
        assert all(m == 1 for _, m, _ in exact)


def test_witness_preimages_leave_multiple_roots_to_the_exact_path():
    quad = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    zero, crit_value = (Fraction(0), Fraction(0)), (Fraction(-6), Fraction(0))
    # z^2 - 6 - (-6) = z^2: a double root at the critical point 0
    assert witness_preimages(quad, [crit_value]) == [None]
    answered, skipped = witness_preimages(quad, [zero, crit_value])
    assert len(answered) == 2 and skipped is None
    # the cubic at w = f(+1): z^3 - 3z + 2 = (z - 1)^2 (z + 2)
    cubic = _cubic()
    w = cubic.eval_exact((Fraction(1), Fraction(0)))
    assert shifted_coefficients(cubic, w)[0] == (Fraction(2), Fraction(0))
    assert witness_preimages(cubic, [w]) == [None]


@pytest.mark.parametrize("seeds", [[6 ** 0.5, 6 ** 0.5], [6 ** 0.5, 0.0]])
def test_witness_preimages_answer_only_with_d_disjoint_certified_boxes(monkeypatch, seeds):
    # two seeds on one root of z^2 - 6 certify the same root twice; a seed at
    # the critical point 0 never certifies: neither answers the point
    import numpy as np
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([seeds], dtype=complex))
    quad = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    assert witness_preimages(quad, [(Fraction(0), Fraction(0))]) == [None]


def test_witness_preimages_enclose_rational_roots():
    # z^2 - 6 - (-2) = z^2 - 4: roots -2 and 2, enclosed without exact values
    quad = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    (roots,) = witness_preimages(quad, [(Fraction(-2), Fraction(0))])
    for (box, mult), x in zip(roots, (-2, 2)):
        assert mult == 1
        assert box[0] <= x <= box[1] and box[2] <= 0 <= box[3]


def test_krawczyk_stops_when_either_side_stalls():
    # the real side of a real root reaches float resolution in a few
    # rounds; the contraction must stop there, not shrink the imaginary
    # side on into the denormals
    quad = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    (roots,) = witness_preimages(quad, [(Fraction(0), Fraction(0))])
    for (box, _), x in zip(roots, (-math.sqrt(6), math.sqrt(6))):
        assert box[0] <= x <= box[1] and box[2] <= 0 <= box[3]
        assert box[3] - box[2] >= 2.0 ** -1022


def test_escape_radius_values():
    assert escape_radius(PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])) == 7
    assert escape_radius(PolynomialMap(
        [("0", "0"), ("0", "0"), ("0", "0"), ("1", "0")])) == 1
    assert escape_radius(PolynomialMap(
        [("0.1", "0"), ("-3", "0"), ("0", "0"), ("1", "0")])) == Fraction(41, 10)


def test_escape_radius_expels_circle_samples():
    # interval check of |f(z)| > |z| on samples of |z| = 1.05 R: the image
    # enclosure lies outside the closed disk of radius r, and so does the
    # exact image
    import cmath
    for coeffs in ([("-6", "0"), ("0", "0"), ("1", "0")],
                   [("0.1", "0"), ("-3", "0"), ("0", "0"), ("1", "0")],
                   [("0", "0"), ("0", "0"), ("0", "0"), ("1", "0")]):
        pmap = PolynomialMap(coeffs)
        r = float(escape_radius(pmap)) * 1.05
        disk = DomainDisk(("0", "0"), Fraction(r))
        for t in range(16):
            z = r * cmath.exp(2j * cmath.pi * t / 16)
            e = pmap.eval_box((z.real, z.real, z.imag, z.imag))
            assert disk.sides([[v] for v in e])[1][0]
            assert disk.classify_exact(pmap.eval_exact((Fraction(z.real), Fraction(z.imag)))) == "out"


def test_squarefree_decomposition_multiplicity():
    # (z - 1)^2 (z + 2) = z^3 - 3z + 2
    poly = ((Fraction(2), Fraction(0)), (Fraction(-3), Fraction(0)),
            (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    parts = squarefree_decomposition(poly)
    assert sorted(m for _, m in parts) == [1, 2]
    for factor, mult in parts:
        root = Fraction(1) if mult == 2 else Fraction(-2)
        assert p_eval(factor, (root, Fraction(0))) == (0, 0)


def _level1(pmap, disk):
    """The level-1 components and the level-1 pavement, built without the
    restriction validation that ``build_tree`` runs on them."""
    builder = _TreeBuilder(pmap, disk, ResolutionPolicy(max_resolution=24, max_boxes=2_000_000))
    builder._build_level0()
    builder._build_level(1)
    return builder.levels[1], builder.built[1].pavement


def test_validate_quadratic_hypothesis_ok():
    pmap = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    disk = DomainDisk(("0", "0"), "4")
    report = validate_restriction(pmap, disk, *_level1(pmap, disk), horizon=20)
    assert report.n_components == 2
    assert sorted(report.branch_degrees) == [1, 1]
    assert report.compactly_contained
    assert report.hypothesis_ok
    st0 = report.critical_escape_flags[0]
    assert st0["in_restriction"] is False
    assert st0["status"] == "escapes"


def test_validate_fixed_critical_point_fails():
    # z^2 on the disk of radius 2: the critical point 0 is a fixed point
    pmap = PolynomialMap([("0", "0"), ("0", "0"), ("1", "0")])
    disk = DomainDisk(("0", "0"), "2")
    report = validate_restriction(pmap, disk, *_level1(pmap, disk), horizon=20)
    assert report.periodic_critical_flag
    assert not report.hypothesis_ok
    assert report.n_components == 1


def test_validate_boundary_contact_fails_containment():
    # z^2 - 6 on the disk of radius 3: the preimage touches |z| = 3 at +-3
    pmap = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    disk = DomainDisk(("0", "0"), "3")
    report = validate_restriction(pmap, disk, *_level1(pmap, disk), horizon=20)
    assert not report.compactly_contained
    assert not report.hypothesis_ok


def _enclosure_only_cubic():
    # z^3 - 2z + 3/2: the critical points +-sqrt(2/3) are irrational, known
    # only by their enclosures
    return (PolynomialMap([("1.5", "0"), ("-2", "0"), ("0", "0"), ("1", "0")]),
            DomainDisk(("0", "0"), "4.5"))


def test_validate_walks_enclosure_only_critical_points():
    pmap, disk = _enclosure_only_cubic()
    report = validate_restriction(pmap, disk, *_level1(pmap, disk), horizon=20)
    assert [c.exact for c in pmap.critical_points] == [None, None]
    minus, plus = report.critical_escape_flags  # canonical order: -sqrt(2/3) first
    assert (minus["status"], minus["escape_step"]) == ("escapes", 2)
    assert (plus["status"], plus["escape_step"]) == ("in_Uprime", None)
    # a 60-digit walk agrees: f^2(-sqrt(2/3)) leaves |z| < 4.5, and the
    # orbit of +sqrt(2/3) stays inside with a wide margin through step 20
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    for sign, escape in ((-1, 2), (1, None)):
        z = sign * mp.sqrt(mp.mpf(2) / 3)
        steps = []
        for step in range(21):
            if abs(z) > 4.5:
                steps.append(step)
                break
            assert abs(abs(z) - 4.5) > 1e-6
            z = z ** 3 - 2 * z + mp.mpf("1.5")
        assert steps == ([] if escape is None else [escape])


def test_rectangle_orbit_stays_within_its_seed_precision(monkeypatch):
    # a wide seed cannot be decided, and refining past the precision that
    # holds it exactly (at least 64 bits) would only cost time
    pmap, disk = _enclosure_only_cubic()
    seed = (0.7, 0.9, -0.1, 0.1)
    ceiling = max(64, *(Fraction(v).denominator.bit_length() - 1 for v in seed))
    precs = []
    set_prec = DyadicOrbit._set_prec

    def bounded(self, prec):
        assert prec <= ceiling
        precs.append(prec)
        set_prec(self, prec)

    monkeypatch.setattr(DyadicOrbit, "_set_prec", bounded)
    assert _orbit_status(pmap, disk, seed, 20) == ("undecided", None, False)
    assert precs
    orbit = DyadicOrbit(pmap, disk, seed)
    assert orbit.exact_point() is None
    orbit.advance()
    assert orbit.exact_point() is None


def test_exact_orbit_stops_at_its_bit_guard():
    # 1/3 under z^2 - 3/4: each exact point has about twice the bits of the
    # one before.  Below a guard of the first image's size the orbit stops
    # at step 2 and gives no point for step 3; the size guard of
    # exact_point then resumes it from there
    pmap = PolynomialMap([("-0.75", "0"), ("0", "0"), ("1", "0")])
    orbit = DyadicOrbit(pmap, DomainDisk(("0", "0"), "2"), (Fraction(1, 3), Fraction(0)))
    points = [Fraction(1, 3)]
    for _ in range(3):
        orbit.advance()
        points.append(points[-1] ** 2 - Fraction(3, 4))
    first = (points[1], Fraction(0))
    assert orbit._exact_within(qc_bits(first)) is None
    assert orbit._exact == (2, (points[2], Fraction(0)))
    assert orbit.exact_point() == (points[3], Fraction(0))


_QUAD6 = [("-6", "0"), ("0", "0"), ("1", "0")]


@pytest.mark.parametrize("coeffs, radius, start, horizon, status", [
    # exact seeds: an escape found in the lattice phase, a start on the
    # circle, a hand-off to dyadic balls at step 2 (0 -> -3/4 -> -3/16 for
    # z^2 - 3/4) and at step 0 (5/2 for z^2 - 6) that stays or escapes, and
    # a return to the start found at the image of the point at the horizon
    # (0 -> -1 -> 0 for z^2 - 1 at horizon 1)
    (_QUAD6, "4", 0, 20, ("escapes", 1, False)),
    (_QUAD6, "3", 3, 20, ("undecided", None, False)),
    ([("-0.75", "0"), ("0", "0"), ("1", "0")], "2", 0, 20, ("in_Uprime", None, False)),
    (_QUAD6, "4", Fraction(5, 2), 20, ("escapes", 2, False)),
    ([("-1", "0"), ("0", "0"), ("1", "0")], "2", 0, 1, ("in_Uprime", None, True)),
])
def test_orbit_status_of_exact_seeds(coeffs, radius, start, horizon, status):
    assert _orbit_status(PolynomialMap(coeffs), DomainDisk(("0", "0"), radius),
                         (Fraction(start), Fraction(0)), horizon) == status


@pytest.mark.parametrize("which, horizon, status", [
    (0, 1, ("in_Uprime", None, False)),
    (0, 2, ("escapes", 2, False)),
    (0, 20, ("escapes", 2, False)),
    (1, 20, ("in_Uprime", None, False)),
])
def test_orbit_status_of_rectangle_seeds(which, horizon, status):
    # the enclosures of -sqrt(2/3), which leaves U at step 2, and of
    # +sqrt(2/3), walked on dyadic balls from step 0
    pmap, disk = _enclosure_only_cubic()
    seed = pmap.critical_points[which].enclosure
    assert _orbit_status(pmap, disk, seed, horizon) == status


def test_validate_warns_on_an_undecided_critical_orbit(monkeypatch):
    # z^2 + 1 on |z| < 2: 0 lies in U', and 0 -> 1 -> 2 lands on the circle,
    # so its orbit is undecided; one orbit walk per critical point
    pmap = PolynomialMap([("1", "0"), ("0", "0"), ("1", "0")])
    disk = DomainDisk(("0", "0"), "2")
    level1 = _level1(pmap, disk)
    walks = []
    walk = maps_mod._orbit_status
    monkeypatch.setattr(maps_mod, "_orbit_status",
                        lambda *args: walks.append(args[2]) or walk(*args))
    report = validate_restriction(pmap, disk, *level1, horizon=20)
    assert walks == [(0, 0)]
    assert report.n_components == 1
    assert not report.hypothesis_ok
    (flags,) = report.critical_escape_flags
    assert (flags["in_restriction"], flags["status"]) == (True, "undecided")
    assert report.warnings == (
        "critical point 0+0i in U': orbit neither escapes nor is certified "
        "non-periodic within horizon 20; proceeding",)


def test_contains_cover_matches_cellwise_side():
    # cell by cell, on a grid whose cells lie inside, outside and across the
    # circle, at several scales, against the exact farthest corner of each
    # cell's float walls: the disk is convex, so a cell lies inside the open
    # disk exactly when that corner does.  Outward rounding may refuse a
    # cell only within a few ulps of the circle
    disk = DomainDisk(("0.25", "-0.125"), "3")
    frame = Frame(-4.0, -4.0, 8.0)
    cells = [(r, i, j) for r, step in ((3, 1), (5, 1), (9, 13))
             for i in range(0, 1 << r, step) for j in range(0, 1 << r, step)]
    want = [disk.contains_cover(paved(frame, [cell])) for cell in cells]
    assert 0 < sum(want) < len(cells)
    for (r, i, j), inside in zip(cells, want):
        walls = frame.cell_walls(r, i, j)
        far = max((Fraction(x) - disk.center[0]) ** 2 + (Fraction(y) - disk.center[1]) ** 2
                  for x in walls[:2] for y in walls[2:])
        if inside:
            assert far < disk.r2
        else:
            assert far > disk.r2 * (1 - Fraction(1, 10 ** 12))
        assert disk.sides([[v] for v in walls])[0][0] == inside
    inner = [c for c, w in zip(cells, want) if w and c[0] == 9]
    assert disk.contains_cover(paved(frame, inner))
    assert not disk.contains_cover(paved(frame, cells[:1] + inner))


def test_sharp_batch_matches_single_boxes():
    # more than one wave slice of boxes around the cubic's critical points
    # +-1, with walls on the axes and at the critical points themselves.
    # Each box of the batch equals the box on its own as a length-1 batch,
    # bit for bit: all boxes within 3 of the ends and of the slice size, and
    # a random sample of the rest (all n take about a minute)
    pmap = PolynomialMap([(CUBIC_B_RE, CUBIC_B_IM), ("-3", "0"),
                          ("0", "0"), ("1", "0")])
    n = _WAVE_SLICE + 3
    rng = np.random.default_rng(7)
    cx = np.where(rng.random(n) < 0.5, -1.0, 1.0) + rng.normal(0.0, 1e-3, n)
    cy = rng.normal(0.0, 1e-3, n)
    h = np.ldexp(1.0, -rng.integers(4, 40, n))
    lo_x = np.where(rng.random(n) < 0.1, np.round(cx), cx - h)
    lo_y = np.where(rng.random(n) < 0.1, 0.0, cy - h)
    boxes = (lo_x, lo_x + 2 * h, lo_y, lo_y + 2 * h)
    whole = pmap.eval_boxes_sharp(boxes)
    bits = [np.asarray(w).view(np.int64) for w in whole]
    edges = [k + d for k in (0, _WAVE_SLICE, n) for d in range(-3, 3)]
    sample = set(rng.integers(0, n, 200).tolist()) | {k for k in edges if 0 <= k < n}
    for k in sorted(sample):
        one = pmap.eval_boxes_sharp(tuple(b[k:k + 1] for b in boxes))
        assert [b[k] for b in bits] == [np.asarray(o).view(np.int64)[0] for o in one]


def test_validate_cubic_instance():
    pmap = PolynomialMap([(CUBIC_B_RE, CUBIC_B_IM), ("-3", "0"),
                          ("0", "0"), ("1", "0")])
    disk = DomainDisk(("0", "0"), "3")
    report = validate_restriction(pmap, disk, *_level1(pmap, disk), horizon=20)
    assert report.n_components == 2
    assert sorted(report.branch_degrees) == [1, 2]
    assert report.compactly_contained
    assert report.hypothesis_ok
    by_point = {st["point"]: st for st in report.critical_escape_flags}
    assert by_point["-1+0i"]["in_restriction"] is False
    assert by_point["-1+0i"]["status"] == "escapes"
    assert by_point["1+0i"]["in_restriction"] is True
    assert by_point["1+0i"]["status"] == "in_Uprime"


def test_cubic_critical_orbit_escapes_at_step_39(cubic_map, cubic_disk):
    # b is a 40-digit truncation of the Newton root, so +1 is not exactly
    # preperiodic: f^2(1) lies about 2.5e-40 from the repelling fixed point
    # q (multiplier ~ 13), and the orbit shadows q until it escapes.  The
    # validation horizon 20 sees only the shadowing part.
    one = (Fraction(1), Fraction(0))
    assert _orbit_status(cubic_map, cubic_disk, one, 38)[0] == "in_Uprime"
    assert _orbit_status(cubic_map, cubic_disk, one, 39) == ("escapes", 39, False)


def test_validate_critical_point_outside_every_component(cubic_map, cubic_disk):
    # +1 overlaps the level-1 cover, but no component is said to contain it:
    # its membership in U' is open, and the hypotheses are not established
    comps, pavement = _level1(cubic_map, cubic_disk)
    comps = [dataclasses.replace(c, contains_critical=()) for c in comps]
    report = validate_restriction(cubic_map, cubic_disk, comps, pavement, horizon=20)
    by_point = {st["point"]: st for st in report.critical_escape_flags}
    assert by_point["1+0i"]["in_restriction"] is None
    assert by_point["-1+0i"]["in_restriction"] is False
    assert "critical point 1+0i: membership in U' undecided at this resolution" \
        in report.warnings
    assert report.compactly_contained
    assert not report.hypothesis_ok


# ---------------------------------------------------------------------------
# dyadic-ball orbits and the exact-revisit hand-off
# ---------------------------------------------------------------------------

# dyadic rationals seed zero-width boxes whose images are exact before the
# final rounding, so a rounding in the wrong direction shows
_small_q = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.builds(Fraction, st.integers(-48, 48), st.sampled_from([1, 2, 4, 8, 16])))
_gauss_q = st.tuples(_small_q, _small_q)
# degree 2..4; zero coefficients are skipped by the Horner scheme, and a
# zero next-to-leading one switches the first product to the square
_monic_tail = st.lists(st.one_of(st.just((Fraction(0), Fraction(0))), _gauss_q),
                       min_size=2, max_size=4)
_precs = st.sampled_from([4, 16, 64, 200])
_ORIGIN = (Fraction(0), Fraction(0))


def _walk(coeffs, z, steps, disk, prec):
    """(exact f^steps(z), its DyadicOrbit, checking the enclosure on the way)."""
    pmap = PolynomialMap(list(coeffs) + [(Fraction(1), Fraction(0))])
    orbit = DyadicOrbit(pmap, disk, z, prec=prec)
    w = z
    for step in range(steps + 1):
        if step:
            orbit.advance()
            w = p_eval(pmap.exact_coefficients, w)
        b, scale = orbit.box, 2 ** orbit.prec
        assert (Fraction(b[0], scale) <= w[0] <= Fraction(b[1], scale)
                and Fraction(b[2], scale) <= w[1] <= Fraction(b[3], scale))
    return w, orbit


@given(coeffs=_monic_tail, z=_gauss_q, prec=_precs, steps=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_dyadic_orbit_encloses_exact_orbit(coeffs, z, prec, steps):
    w, orbit = _walk(coeffs, z, steps, DomainDisk(("0", "0"), "1"), prec)
    assert orbit.exact_point() == w


@given(coeffs=_monic_tail, z=_gauss_q, prec=_precs, steps=st.integers(0, 2),
       center=_gauss_q,
       offset=st.sampled_from([Fraction(k, 256) for k in (-8, -1, 0, 1, 8)]))
# z^2 to a point exactly on the circle: 2 in the lattice Z[i], 1/2 the first
# point past it, and its image 1/4, which only the exact point decides
@example(coeffs=[_ORIGIN, _ORIGIN], z=(Fraction(2), Fraction(0)), prec=64, steps=0,
         center=_ORIGIN, offset=Fraction(0))
@example(coeffs=[_ORIGIN, _ORIGIN], z=(Fraction(1, 2), Fraction(0)), prec=64, steps=0,
         center=_ORIGIN, offset=Fraction(0))
@example(coeffs=[_ORIGIN, _ORIGIN], z=(Fraction(1, 2), Fraction(0)), prec=64, steps=1,
         center=_ORIGIN, offset=Fraction(0))
@settings(max_examples=100, deadline=None)
def test_dyadic_disk_test_never_wrong(coeffs, z, prec, steps, center, offset):
    # the circle is put within 1/32 of the orbit point, where coarse boxes
    # straddle it and the precision has to grow before the side is known;
    # a point exactly on it is "boundary": decided exactly for a carried
    # point, else by the exact point once the box straddles the circle at
    # the precision ceiling
    pmap = PolynomialMap(list(coeffs) + [(Fraction(1), Fraction(0))])
    w = z
    for _ in range(steps):
        w = pmap.eval_exact(w)
    d2 = (w[0] - center[0]) ** 2 + (w[1] - center[1]) ** 2
    radius = max(Fraction(math.isqrt(int(d2 * 4 ** 10)), 2 ** 10) + offset, Fraction(1, 64))
    disk = DomainDisk(center, radius)
    _, orbit = _walk(coeffs, z, steps, disk, prec)
    assert orbit.side() == disk.classify_exact(w)


def test_a_box_over_a_small_point_on_the_circle_answers_at_once():
    # z^2 from 1/2 on |z| < 1/4: step 1 is 1/4, on the circle and past the
    # lattice phase, so its box straddles the circle at every precision.  The
    # precision used to double 15 times, to the 2,000,000-bit ceiling
    # (68 ms), before the exact point answered
    pmap = PolynomialMap([("0", "0"), ("0", "0"), ("1", "0")])
    orbit = DyadicOrbit(pmap, DomainDisk(("0", "0"), "0.25"), (Fraction(1, 2), Fraction(0)))
    assert orbit.side() == "out"
    orbit.advance()
    assert orbit.side() == "boundary"
    assert orbit.prec == 64


def _cubic():
    return PolynomialMap([(CUBIC_B_RE, CUBIC_B_IM), ("-3", "0"), ("0", "0"), ("1", "0")])


def test_no_revisit_certificate_fires_at_step_two_on_cubic():
    # 1 -> b - 2 stay in (1/D)Z[i]; z_2 has a denominator 10^120, not a
    # divisor of D = 10^40, so the exact walk hands off there
    pmap = _cubic()
    assert pmap.coefficient_denominator == 10 ** 40
    z = (Fraction(1), Fraction(0))
    fired = []
    for _ in range(4):
        fired.append(_leaves_lattice(pmap, z))
        z = pmap.eval_exact(z)
    assert fired == [False, False, True, True]


@given(coeffs=st.lists(_gauss_q, min_size=2, max_size=3), z=_gauss_q)
@settings(max_examples=80, deadline=None)
def test_no_revisit_certificate_is_inherited_and_points_stay_distinct(coeffs, z):
    pmap = PolynomialMap(list(coeffs) + [(Fraction(1), Fraction(0))])
    orbit = [z]
    for _ in range(3):
        orbit.append(pmap.eval_exact(orbit[-1]))
    for k, w in enumerate(orbit):
        if _leaves_lattice(pmap, w):
            assert all(_leaves_lattice(pmap, v) for v in orbit[k:])
            assert all(v not in orbit[:j] for j, v in enumerate(orbit) if j > k)
            break


@pytest.mark.parametrize("coeffs, radius, start, images, periodic", [
    ([("0", "0"), ("-3", "0"), ("0", "0"), ("1", "0")], "4", 1, 2, False),  # +1 -> -2 -> -2
    ([("-2", "0"), ("0", "0"), ("1", "0")], "3", 0, 3, False),              # 0 -> -2 -> 2 -> 2
    ([("-1", "0"), ("0", "0"), ("1", "0")], "2", 0, 2, True),               # 0 -> -1 -> 0
])
def test_exact_revisit_still_found(monkeypatch, coeffs, radius, start, images, periodic):
    pmap = PolynomialMap(coeffs)
    calls = []
    exact_image = pmap.eval_exact
    monkeypatch.setattr(pmap, "eval_exact", lambda z: calls.append(z) or exact_image(z))
    status = _orbit_status(
        pmap, DomainDisk(("0", "0"), radius), (Fraction(start), Fraction(0)), horizon=20)
    # a revisit of a later point is preperiodic; only a return to the start
    # is periodic
    assert status == ("in_Uprime", None, periodic)
    # the walk stops at the revisit instead of running out the horizon
    assert len(calls) == images


def test_cubic_escape_matches_mpmath_intervals():
    mp = pytest.importorskip("mpmath")
    iv = mp.iv
    iv.prec = 256
    b = iv.mpc(iv.mpf(CUBIC_B_RE), iv.mpf(CUBIC_B_IM))
    z = iv.mpc(1, 0)
    escape = None
    for step in range(61):
        d2 = z.real * z.real + z.imag * z.imag
        if d2.a > 9:
            escape = step
            break
        assert d2.b < 9, f"256-bit intervals undecided at step {step}"
        z = z * z * z - 3 * z + b
    assert escape == 39
    assert _orbit_status(_cubic(), DomainDisk(("0", "0"), "3"),
                         (Fraction(1), Fraction(0)), horizon=60) == ("escapes", 39, False)


def _decimal(draw):
    """A decimal of 1 to 25 digits, zero a quarter of the time."""
    if draw(st.integers(0, 3)) == 0:
        return Fraction(0)
    digits = draw(st.integers(1, 25))
    return Fraction(draw(st.integers(-10 ** digits + 1, 10 ** digits - 1)),
                    10 ** draw(st.integers(0, digits)))


@st.composite
def maps_and_boxes(draw):
    """A monic map of degree 2..5 and eight rectangles (walls as floats):
    the first centred on a float critical point, then anywhere near the
    origin, some of width 0 and some far enough out that the enclosures
    overflow."""
    degree = draw(st.integers(2, 5))
    coeffs = [(_decimal(draw), _decimal(draw)) for _ in range(degree)] + [(1, 0)]
    pmap = PolynomialMap(coeffs)
    crit = np.roots(pmap.deriv_desc)
    rects = []
    for n in range(8):
        kind = "critical" if n == 0 else draw(st.sampled_from(["critical", "near", "far"]))
        if kind == "critical":
            c = complex(crit[draw(st.integers(0, len(crit) - 1))])
        else:
            scale = 1.0 if kind == "near" else 1e150
            c = complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3))) * scale
        h = [0.0, *np.ldexp(1.0, -np.arange(41))][draw(st.integers(0, 41))] * abs(c or 1)
        if n == 0:
            h = max(h, 1e-3)
        k = draw(st.floats(0.25, 4)) * h
        rects.append((c.real - h, c.real + h, c.imag - k, c.imag + k))
    consts = [(_decimal(draw), _decimal(draw)) for _ in rects]
    ts = [Fraction(draw(st.integers(0, 8)), 8) for _ in range(6)]
    return pmap, rects, consts, ts


def _contains(lo, hi, exact):
    return ((lo == -math.inf or Fraction(lo) <= exact)
            and (hi == math.inf or exact <= Fraction(hi)))


@given(maps_and_boxes())
@settings(max_examples=40, deadline=None)
def test_box_kernels_enclose_exact_values(case):
    # p_eval at exact rational points of each rectangle lies in the
    # enclosures of f (with its own and with a replaced constant term), f'
    # and the sharp form, on the rectangles and on their midpoints as one
    # point batch
    pmap, rects, consts, ts = case
    coeffs = pmap.exact_coefficients
    deriv = p_derivative(coeffs)
    walls = tuple(np.array(col) for col in zip(*rects))
    mx = 0.5 * (walls[0] + walls[1])
    my = 0.5 * (walls[2] + walls[3])
    const = tuple(np.array(col) for col in zip(*(enclose_point(c) for c in consts)))
    for boxes, samples in ((walls, list(zip(ts[:3], ts[3:]))), ((mx, mx, my, my), [(0, 0)])):
        with np.errstate(all="ignore"):
            got = {"f": pmap.eval_boxes(boxes),
                   "f const": pmap.eval_boxes(boxes, constant=const),
                   "f'": pmap.eval_deriv_boxes(boxes),
                   "f sharp": pmap.eval_boxes_sharp(boxes)}
        for n in range(len(rects)):
            x0, x1, y0, y1 = (Fraction(float(b[n])) for b in boxes)
            for tx, ty in samples:
                z = (x0 + tx * (x1 - x0), y0 + ty * (y1 - y0))
                f = p_eval(coeffs, z)
                exact = {"f": f, "f const": p_eval(((consts[n],) + coeffs[1:]), z),
                         "f'": p_eval(deriv, z), "f sharp": f}
                for name, enc in got.items():
                    e = [float(a[n]) for a in enc]
                    assert not any(map(math.isnan, e)), name
                    assert _contains(e[0], e[1], exact[name][0]), (name, n, rects[n])
                    assert _contains(e[2], e[3], exact[name][1]), (name, n, rects[n])
