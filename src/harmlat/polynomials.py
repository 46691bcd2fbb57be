"""Exact multivariate polynomials over Q and discrete-harmonic families.

Contains the formal continuous and lattice Laplacians, the shifted
binomial basis F_k with

    F_0 = 1,   F_k(x) = binom(x + (k-1)/2, k) = (1/k!) prod_{j<k} (x + (k-1)/2 - j),

the discretization map sending a harmonic polynomial P = sum a_alpha
x^alpha / alpha! on R^d to sum a_alpha F_alpha on Z^d (term-by-term
products of the univariate F's), the planar families S_k / T_k obtained
by discretizing Re (x+iy)^k / k! and Im (x+iy)^k / k!, the coordinate
products u_k = x_1 ... x_k, and reproducible random harmonic polynomials.
A harmonic P = sum_j x_d^j p_j(x') is fixed by p_0 and p_1, through
p_{j+2} = -Delta' p_j / ((j+1)(j+2)); the kernel basis of the continuous
Laplacian and the random draws are built by that recursion.  The F's are
built in integers: 2^k k! F_k is the product of the linear factors
2x + k - 1 - 2j, and sums of products F_alpha are taken over one common
denominator.

Evaluation on a ball runs along lines of the last coordinate z, on the
orthant x >= 0 only.  P is split into its parity components, one for
each parity pattern of the exponents; each has a sign under every
coordinate flip, so its orthant values fix it on the whole ball.  The
forward differences of a component at z = 0 are polynomials in the other
coordinates; they are evaluated once on the orthant of the (d-1)-ball by
the same scheme, recursively, and every line is then produced by chained
running sums in exact integers over the coefficients' common
denominator.  The top-level differences a line does not read are set to
0, and the common factor of the rest and that denominator is divided
out of them, which leaves the components' values in lowest terms at any
radius (see :func:`evaluate_on_ball`); a sum of two or more components
is reduced when it is built.  The table keeps the top-level differences,
the line seeds, and runs no line: the growth report runs one
component's lines at a time and squares them, and the values on the
whole ball are built the same way only when they are read
(:mod:`harmlat.lattice`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from typing import Optional, Sequence

from . import balls
from .errors import HarmonicityError, InvalidParameterError, UsageError
from .lattice import LatticeBall, LatticeFunction, _lines, is_harmonic
from .rationals import (
    common_denominator, format_rational, parse_int, parse_rational, reduce_in_place,
)
from .rng import SplitMix64


class MultivariatePolynomial:
    """Polynomial in d variables with exact rational coefficients.

    Terms map exponent tuples to nonzero Fractions; the zero polynomial
    has no terms and degree -1 by convention.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Optional[dict] = None):
        if d < 1:
            raise InvalidParameterError("polynomial dimension must be >= 1")
        self.d = d
        clean = {}
        for alpha, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != d or any(a < 0 for a in alpha):
                    raise InvalidParameterError(f"bad exponent tuple {alpha}")
                clean[alpha] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "MultivariatePolynomial":
        return cls(d, {})

    @classmethod
    def constant(cls, d: int, c) -> "MultivariatePolynomial":
        return cls(d, {tuple([0] * d): Fraction(c)})

    @classmethod
    def variable(cls, d: int, axis: int) -> "MultivariatePolynomial":
        alpha = [0] * d
        alpha[axis] = 1
        return cls(d, {tuple(alpha): Fraction(1)})

    @classmethod
    def monomial(cls, d: int, alpha: Sequence[int], c=1) -> "MultivariatePolynomial":
        return cls(d, {tuple(alpha): Fraction(c)})

    # -- basic algebra ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, Fraction(0)) + c
        return MultivariatePolynomial(self.d, terms)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return MultivariatePolynomial(self.d, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        terms: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
        return MultivariatePolynomial(self.d, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "MultivariatePolynomial":
        c = Fraction(c)
        return MultivariatePolynomial(self.d, {a: v * c for a, v in self.terms.items()})

    def _coerce(self, other) -> "MultivariatePolynomial":
        if isinstance(other, MultivariatePolynomial):
            if other.d != self.d:
                raise InvalidParameterError("dimension mismatch")
            return other
        return MultivariatePolynomial.constant(self.d, other)

    def __eq__(self, other):
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, tuple(sorted(self.terms.items()))))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def evaluate(self, point: Sequence) -> Fraction:
        point = [Fraction(v) for v in point]
        if len(point) != self.d:
            raise InvalidParameterError("point dimension mismatch")
        total = Fraction(0)
        for alpha, c in self.terms.items():
            v = c
            for a, x in zip(alpha, point):
                if a:
                    v *= x ** a
            total += v
        return total

    def partial(self, axis: int) -> "MultivariatePolynomial":
        terms: dict = {}
        for alpha, c in self.terms.items():
            a = alpha[axis]
            if a:
                key = list(alpha)
                key[axis] = a - 1
                key = tuple(key)
                terms[key] = terms.get(key, Fraction(0)) + c * a
        return MultivariatePolynomial(self.d, terms)

    def shift(self, axis: int, h) -> "MultivariatePolynomial":
        """Substitute x_axis -> x_axis + h (exact binomial expansion)."""
        h = Fraction(h)
        if h == 0:
            return self
        terms: dict = {}
        for alpha, c in self.terms.items():
            a = alpha[axis]
            for j in range(a + 1):
                key = list(alpha)
                key[axis] = j
                key = tuple(key)
                contrib = c * math.comb(a, j) * h ** (a - j)
                terms[key] = terms.get(key, Fraction(0)) + contrib
        return MultivariatePolynomial(self.d, terms)

    # -- wire format ---------------------------------------------------------

    def to_json(self) -> dict:
        terms = [
            {"alpha": list(a), "coeff": format_rational(c)}
            for a, c in sorted(self.terms.items())
        ]
        return {"d": self.d, "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> "MultivariatePolynomial":
        try:
            d = parse_int(obj["d"])
            raw = obj["terms"]
            terms = {}
            for t in raw:
                exponents = t["alpha"]
                if not isinstance(exponents, list):
                    raise UsageError(f"exponents {exponents!r} are not a list")
                alpha = tuple(map(parse_int, exponents))
                if alpha in terms:
                    raise UsageError(f"duplicate term {alpha}")
                terms[alpha] = parse_rational(t["coeff"])
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed polynomial JSON: {exc}") from exc
        return cls(d, terms)


# -- Laplacians acting formally on polynomials ------------------------------


def continuous_laplacian(P: MultivariatePolynomial) -> MultivariatePolynomial:
    """Formal sum of second partial derivatives."""
    out = MultivariatePolynomial.zero(P.d)
    for axis in range(P.d):
        out = out + P.partial(axis).partial(axis)
    return out


def discrete_laplacian(P: MultivariatePolynomial) -> MultivariatePolynomial:
    """Formal probabilistic lattice Laplacian (1/2d) sum_s P(x+s) - P(x)."""
    d = P.d
    acc = P.scale(-2 * d)
    for axis in range(d):
        acc = acc + P.shift(axis, 1) + P.shift(axis, -1)
    return acc.scale(Fraction(1, 2 * d))


def is_harmonic_poly(P: MultivariatePolynomial) -> bool:
    """Exact global lattice harmonicity, decided on the table of P on B_(M+1), M = deg P.

    The discrete Laplacian lowers the degree by at least 2, so L P has
    degree at most M - 2.  :func:`harmlat.lattice.is_harmonic` reads L P
    on B_M, the interior of B_(M+1), which contains the simplex
    {x >= 0, |x|_1 <= M - 2}, and a polynomial of degree at most M - 2
    that vanishes there is zero.  The ball is checked against the cell
    cap, as :func:`harmlat.growth.growth_polynomial` checks it for P.
    """
    return is_harmonic(evaluate_on_ball(P, max(P.degree, 0) + 1))


# -- the shifted binomial basis ----------------------------------------------


def fk_polynomial(k: int) -> MultivariatePolynomial:
    """F_k as an exact univariate polynomial: degree exactly k, leading coefficient 1/k!."""
    if k < 0:
        raise InvalidParameterError("k must be non-negative")
    nums, den = _fk_coefficients(k)
    return MultivariatePolynomial(1, {(a,): Fraction(c, den) for a, c in enumerate(nums)})


def _fk_coefficients(k: int) -> tuple:
    """Integer coefficients of 2^k k! F_k(x) = prod_{j<k} (2x + k - 1 - 2j), and 2^k k!.

    One factor at a time, in ints; coefficient a of the result is the
    coefficient of x^a.
    """
    nums = [1]
    for j in range(k):
        c = k - 1 - 2 * j
        nums = [c * here + 2 * below for here, below in zip(nums + [0], [0] + nums)]
    return tuple(nums), math.factorial(k) << k


def _fk_combination(d: int, weights: dict) -> MultivariatePolynomial:
    """sum_alpha w_alpha F_alpha(x), with F_alpha(x) = prod_l F_{alpha_l}(x_l) on Z^d.

    Each F_alpha is the outer product of the univariate integer
    coefficient lists of :func:`_fk_coefficients`; the sum is taken in
    ints over one common denominator, with one Fraction per final term.
    """
    fk = {a: _fk_coefficients(a) for a in set(chain.from_iterable(weights))}
    nums, den = common_denominator(
        Fraction(w) / math.prod(fk[a][1] for a in alpha) for alpha, w in weights.items()
    )
    acc: dict = {}
    for alpha, num in zip(weights, nums):
        terms = {(): num}
        for coeffs in (fk[a][0] for a in alpha):
            terms = {
                key + (e,): c * n for key, c in terms.items() for e, n in enumerate(coeffs) if n
            }
        for key, c in terms.items():
            acc[key] = acc.get(key, 0) + c
    return MultivariatePolynomial(d, {key: Fraction(c, den) for key, c in acc.items()})


def sk_polynomial(k: int) -> MultivariatePolynomial:
    """S_k(x, y) = sum_{j <= k/2} (-1)^j F_{k-2j}(x) F_{2j}(y); harmonic on Z^2."""
    if k < 0:
        raise InvalidParameterError("k must be non-negative")
    return _fk_combination(2, {(k - 2 * j, 2 * j): (-1) ** j for j in range(k // 2 + 1)})


def tk_polynomial(k: int) -> MultivariatePolynomial:
    """T_k(x, y) = sum_j (-1)^j F_{k-(2j+1)}(x) F_{2j+1}(y); harmonic on Z^2."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    return _fk_combination(
        2, {(k - (2 * j + 1), 2 * j + 1): (-1) ** j for j in range((k - 1) // 2 + 1)}
    )


def monomial_uk(d: int, k: int) -> MultivariatePolynomial:
    """u_k = x_1 x_2 ... x_k on Z^d; harmonic, needs k <= d."""
    balls.check_dimension(d)
    if not 1 <= k <= d:
        raise InvalidParameterError(
            f"need 1 <= k <= d for the coordinate product; got k={k}, d={d}"
        )
    alpha = tuple(1 if i < k else 0 for i in range(d))
    return MultivariatePolynomial.monomial(d, alpha)


def family_polynomial(
    family: str, k: int, d: Optional[int] = None, seed: Optional[int] = None,
    n_max: Optional[int] = None,
) -> MultivariatePolynomial:
    """Member k of a named harmonic family, for a growth polynomial read up to n_max.

    "S" and "T" are S_k and T_k on Z^2, "u" is u_k on Z^d (d defaults to
    k), and "random" is :func:`random_harmonic` of degree <= k on Z^d,
    which needs d and a seed.  S_k, T_k and u_k have degree exactly k, so
    their ball B_min(n_max, k+1) (n_max None: B_{k+1}) is checked against
    the cell cap before they are built; a random member is checked on its
    actual ball when it is evaluated.
    """
    if family == "random":
        if d is None or seed is None:
            raise InvalidParameterError("family random needs a dimension d and a seed")
        return random_harmonic(d, k, seed)
    if family in ("S", "T"):
        if d not in (None, 2):
            raise InvalidParameterError(f"family {family} lives on Z^2")
        d = 2
    elif family == "u":
        if k < 1:
            raise InvalidParameterError(f"need k >= 1 for the coordinate product; got k={k}")
        d = k if d is None else d
        balls.check_dimension(d)
    else:
        raise InvalidParameterError(f"unknown family {family!r}")
    balls.guard_cells(d, k + 1 if n_max is None else min(n_max, k + 1))
    if family == "S":
        return sk_polynomial(k)
    if family == "T":
        return tk_polynomial(k)
    return monomial_uk(d, k)


# -- discretization of continuous harmonic polynomials ------------------------


def correspondence(P: MultivariatePolynomial) -> MultivariatePolynomial:
    """Map a continuous harmonic polynomial to a lattice-harmonic one.

    Writing P = sum a_alpha x^alpha / alpha!, the image is
    sum a_alpha F_alpha.  Requires the continuous Laplacian of P to
    vanish exactly; raises HarmonicityError carrying the residual
    otherwise.
    """
    residual = continuous_laplacian(P)
    if not residual.is_zero():
        raise HarmonicityError(
            "polynomial is not harmonic on R^d", value=residual
        )
    weights = {alpha: c * math.prod(map(math.factorial, alpha)) for alpha, c in P.terms.items()}
    return _fk_combination(P.d, weights)


# -- evaluation over balls ------------------------------------------------------


def evaluate_on_ball(P: MultivariatePolynomial, R: int) -> LatticeFunction:
    """Exact evaluation of P at every point of B_R, in ball enumeration order.

    The ball is checked against the cell cap.  The coefficients are
    brought to integers over their common denominator, and the terms are
    split by the parity pattern of their exponents into components: each
    is odd in the coordinates where its exponents are odd and even in the
    others, so flipping a coordinate multiplies it by a sign.  Each
    component is evaluated on the orthant x >= 0 only: :func:`_seeds`
    gives its differences along the last coordinate on the orthant of B_R
    of Z^(d-1), the seeds of its lines, which
    :func:`harmlat.lattice._lines` runs out into the values.

    A line z = 0..b reads only its seeds of order <= b; every other seed
    is set to 0, and the common factor of the denominator and all the
    components' seeds is divided out of the seeds.  Each seed a line reads
    is an integer combination of that line's values, and each value is an
    integer combination of the seeds its line reads, so the denominator
    then shares no factor with the components' values: every table is in
    lowest terms component by component, at any radius.

    No line is run here.  The table carries each component's seeds, the
    length of every line and the one denominator, and runs the lines only
    when its values are read: for :func:`harmlat.growth.growth_report` to
    square, all components side by side, one line at a time, or to build
    the values on the whole ball on their first read, one component at a
    time (each copied to the other orthants with its signs, then summed).
    """
    ball = LatticeBall(P.d, R)
    balls.guard_cells(P.d, R)
    nums, den = common_denominator(P.terms.values())
    components: dict = {}
    for alpha, c in zip(P.terms, nums):
        components.setdefault(tuple(-1 if a % 2 else 1 for a in alpha), {})[alpha] = c
    exponents = {e for alpha in P.terms for e in alpha}
    surj = _surjection_counts(exponents, min(max(P.degree, 0), R))
    rem = _remaining(P.d - 1, R)
    seeds = [_seeds(terms, P.d, R, surj, rem) for terms in components.values()]
    top = max(map(len, seeds), default=1) - 1  # the highest seed order
    for j, b in enumerate(rem[P.d - 1]):
        if b < top:  # a short line: its seeds of order > b are read by no value
            for component in seeds:
                for order in component[b + 1 :]:
                    order[j] = 0
    den = reduce_in_place(den, *chain.from_iterable(seeds))
    parts = list(zip(components, seeds))
    return LatticeFunction._from_orthant(ball, parts, rem[P.d - 1], den)


def _ball_values(terms: dict, d: int, R: int, surj: dict, rem: list) -> list:
    """Values of an integer polynomial on the orthant x >= 0 of B_R of Z^d, in lex order.

    For d = 0 the one point's value.  ``rem`` is :func:`_remaining` of
    (d - 1, R) or of a larger dimension.
    """
    if d == 0:
        return [terms.get((), 0)]
    return _lines(_seeds(terms, d, R, surj, rem), rem[d - 1])


def _seeds(terms: dict, d: int, R: int, surj: dict, rem: list) -> list:
    """Forward differences at z = 0 of an integer polynomial on Z^d, d >= 1, for x' >= 0.

    P is split on its last coordinate z, P = sum_j c_j(x') z^j.  Along
    the line through x' the forward differences at z = 0 are polynomials
    in x',

        Delta^i P(x', 0) = sum_j i! S2(j, i) c_j(x'),   i! S2(j, i) = surj[j][i].

    A value at 0 <= z <= b <= R reads only the orders i <= z, so only
    orders i <= m = min(deg_z P, R) are taken.  These m + 1 seed
    polynomials are evaluated on the orthant x' >= 0 of B_R of Z^(d-1) by
    :func:`_ball_values` with this same table (any table with a row for
    each exponent of P and columns to m serves) and the same ``rem``.
    Returns their m + 1 value lists.
    """
    by_z: dict = {}
    for alpha, c in terms.items():
        by_z.setdefault(alpha[-1], {})[alpha[:-1]] = c
    m = min(max(by_z, default=0), R)
    out = []
    for i in range(m + 1):
        seed: dict = {}
        for j, coeffs in by_z.items():
            w = surj[j][i]
            if w:
                for rest, c in coeffs.items():
                    seed[rest] = seed.get(rest, 0) + w * c
        out.append(_ball_values(seed, d - 1, R, surj, rem))
    return out


def _surjection_counts(exponents, r: int) -> dict:
    """surj[j][i] = i! S2(j, i), the surjections of a j-set onto an i-set, i <= r.

    Rows are kept for j = 0 and the given exponents only; the recurrence
    runs through every j up to the largest, holding one row at a time.
    """
    row = [1] + [0] * r
    surj = {0: row}
    for j in range(1, max(exponents, default=0) + 1):
        row = [0] + [i * (row[i - 1] + row[i]) for i in range(1, r + 1)]
        if j in exponents:
            surj[j] = row
    return surj


def _remaining(d: int, R: int) -> list:
    """The lists R - |x|_1 for every x >= 0 of B_R of Z^k, in lex order, for k = 0..d.

    In lex order the points of Z^k are the lines (x', 0..b) over the
    points x' of Z^(k-1), b = R - |x'|_1, so list k runs b down to 0 for
    each entry b of list k - 1.
    """
    out = [[R]]
    for _ in range(d):
        out.append(list(chain.from_iterable(map(range, out[-1], repeat(-1), repeat(-1)))))
    return out


# -- reproducible random harmonic polynomials ------------------------------------


def harmonic_kernel_basis(d: int, M: int) -> list:
    """Exact basis of continuous harmonic polynomials of degree <= M.

    One element per monomial of degree <= M whose x_d-exponent is at
    most 1, in graded lex order: the harmonic polynomial whose terms of
    x_d-degree <= 1 are that monomial alone (:func:`_harmonic_extension`).
    """
    balls.check_dimension(d)
    if M < 0:
        raise InvalidParameterError("degree bound must be non-negative")
    return [_harmonic_extension(d, {alpha: 1}) for alpha in _low_monomials(d, M)]


def _low_monomials(d: int, M: int) -> list:
    """Monomials of degree <= M with x_d-exponent <= 1, graded, then lex."""
    heads = [()]
    for _ in range(d - 1):
        heads = [h + (a,) for h in heads for a in range(M + 1 - sum(h))]
    low = (h + (e,) for h in heads for e in (0, 1) if sum(h) + e <= M)
    return sorted(low, key=lambda alpha: (sum(alpha), alpha))


def _harmonic_extension(d: int, terms: dict) -> MultivariatePolynomial:
    """The harmonic polynomial on R^d whose terms of x_d-degree <= 1 are ``terms``.

    Writing P = sum_j x_d^j p_j(x'), the Laplacian of P vanishes exactly
    when p_{j+2} = -Delta' p_j / ((j+1)(j+2)) for every j, so p_0 and p_1
    fix P.  The layers are built two at a time from the two below, until
    Delta' (which lowers the degree by two) leaves nothing.
    """
    out = dict(terms)
    layer = terms
    while layer:
        below, layer = layer, {}
        for alpha, c in below.items():
            j = alpha[-1]
            for axis, a in enumerate(alpha[:-1]):
                if a >= 2:
                    key = alpha[:axis] + (a - 2,) + alpha[axis + 1 : -1] + (j + 2,)
                    layer[key] = layer.get(key, 0) - Fraction(c * a * (a - 1), (j + 1) * (j + 2))
        layer = {key: c for key, c in layer.items() if c}
        out.update(layer)
    return MultivariatePolynomial(d, out)


def random_harmonic(d: int, M: int, seed: int) -> MultivariatePolynomial:
    """Reproducible lattice-harmonic polynomial of degree <= M.

    Draws one integer uniformly from {-9, ..., 9} (SplitMix64 stream
    keyed by ``seed``) per monomial of degree <= M with x_d-exponent <= 1,
    in the order of :func:`harmonic_kernel_basis`, so the result is that
    basis' combination with the drawn coefficients.  The drawn terms are
    extended once to the harmonic polynomial they fix on R^d and
    discretized through :func:`correspondence`.  Identical (d, M, seed)
    always produce the identical polynomial.
    """
    balls.check_dimension(d)
    if M < 0:
        raise InvalidParameterError("degree bound must be non-negative")
    rng = SplitMix64(seed)
    terms = {alpha: rng.next_int(-9, 9) for alpha in _low_monomials(d, M)}
    return correspondence(_harmonic_extension(d, terms))
