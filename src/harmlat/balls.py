"""Enumeration and symmetry quotients of l1 balls in Z^d.

Points of the closed ball ``|x|_1 <= R`` are enumerated in lexicographic
order of their coordinate tuples; every dense table in the package is
aligned with that enumeration.  The hyperoctahedral group (coordinate
permutations and sign flips) acts on each ball; walk-count rows and
origin-centered Laplacian kernels are invariant under it, so the heavy
convolutions run on the orbit quotient.  Orbit representatives are the
sorted absolute-value tuples, enumerated by (radius, lex), so the
quotient of a smaller ball is a prefix of a larger one's.  An
:class:`OrbitTable` is built for one radius; :func:`orbit_table` keeps
one per dimension and replaces it when a larger radius is asked for,
and what was computed against the old table stays valid against the
new.  The quotient's neighbour structure is stored column-wise: one list
per unit step, aligned with the representatives, so the walk-count and
Laplacian kernels run as C-level passes over whole columns.
:func:`laplacian_plan` lays out the neighbours of a whole ball's points
in the same columns, and :func:`point_orbit_indices` gives the orbit of
every point of a ball, or of its points x >= 0 only.  A polynomial's
table carries its parity components on those points alone (see
:func:`harmlat.polynomials.evaluate_on_ball`), and its orbit square sums
are read off them; every other table's are read off every cell, or off
the cells of a smaller ball, which :func:`inner_ball_positions` finds.

The per-(d, R) tables are memoized in bounded caches of
``BALL_CACHE_SIZE`` entries each, more than the radii any benchmark
workload reuses (at most 13 per cache, B_0..B_12 in ``scan``'s
correctness gate).
"""

from __future__ import annotations

import math
import os
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import add

from .errors import InvalidParameterError, ResourceLimitError

MAX_DIMENSION = 8
DEFAULT_MAX_CELLS = 6_000_000
BALL_CACHE_SIZE = 32


def check_dimension(d: int) -> None:
    if not isinstance(d, int) or d < 1:
        raise InvalidParameterError(f"dimension must be a positive integer, got {d!r}")
    if d > MAX_DIMENSION:
        raise InvalidParameterError(
            f"dimension {d} exceeds the hard limit {MAX_DIMENSION}; "
            "l1 ball cardinality grows too fast beyond it"
        )


def ball_point_count(d: int, R: int) -> int:
    """Number of x in Z^d with |x|_1 <= R (closed form, no enumeration)."""
    return sum((1 << i) * math.comb(d, i) * math.comb(R, i) for i in range(0, min(d, R) + 1))


def max_cells() -> int:
    """Resource cap on ball cardinality; HARM_MAX_CELLS overrides."""
    raw = os.environ.get("HARM_MAX_CELLS")
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        v = int(raw)
        if v <= 0:
            raise ValueError
        return v
    except ValueError:
        raise ResourceLimitError(f"HARM_MAX_CELLS must be a positive integer, got {raw!r}")


def guard_cells(d: int, R: int) -> None:
    """Refuse B_R of Z^d before enumeration when it exceeds the cell cap."""
    limit = max_cells()
    cells = ball_point_count(d, R)
    if cells > limit:
        raise ResourceLimitError(
            f"ball B_{R} of Z^{d} has {cells} points, above the cap {limit} "
            "(raise HARM_MAX_CELLS to override)"
        )


@lru_cache(maxsize=BALL_CACHE_SIZE)
def ball_points(d: int, R: int) -> tuple:
    """All points of the closed l1 ball of radius R, in lex order."""
    check_dimension(d)
    if R < 0:
        raise InvalidParameterError("radius must be non-negative")
    out = []

    def rec(prefix, budget, remaining):
        if remaining == 1:
            for v in range(-budget, budget + 1):
                out.append(prefix + (v,))
            return
        for v in range(-budget, budget + 1):
            rec(prefix + (v,), budget - abs(v), remaining - 1)

    rec((), R, d)
    return tuple(out)


@lru_cache(maxsize=BALL_CACHE_SIZE)
def ball_position(d: int, R: int) -> dict:
    """Map point -> index into ball_points(d, R)."""
    return {p: i for i, p in enumerate(ball_points(d, R))}


def inner_ball_positions(d: int, R: int, N: int) -> list:
    """Positions in ball_points(d, R) of the points of B_N, N <= R, in their lex order.

    In lex order B_R of Z^d is the blocks {v} x B_{R-|v|} of Z^(d-1),
    v = -R..R, each counted in closed form, and B_N is the blocks
    {v} x B_{N-|v|}, |v| <= N, of the same tails; no point is built.
    """
    if d == 1:
        return list(range(R - N, R + N + 1))
    out: list = []
    start = 0
    for v in range(-R, R + 1):
        if abs(v) <= N:
            out += map(add, inner_ball_positions(d - 1, R - abs(v), N - abs(v)), repeat(start))
        start += ball_point_count(d - 1, R - abs(v))
    return out


def _step_axes(d: int):
    """(axis, sign) of the 2d generators, in :func:`unit_steps` order."""
    return [(axis, sign) for axis in range(d) for sign in (1, -1)]


def unit_steps(d: int) -> tuple:
    """The 2d generators (+e_1, -e_1, ..., +e_d, -e_d)."""
    return tuple(tuple(sign if j == axis else 0 for j in range(d)) for axis, sign in _step_axes(d))


@lru_cache(maxsize=BALL_CACHE_SIZE)
def laplacian_plan(d: int, R: int):
    """Index plan for one Laplacian step from B_R down to B_{R-1}.

    Returns (inner, cols) in the column layout of :class:`OrbitTable`:
    ``inner[i]`` is the index in B_R of the i-th point of B_{R-1}, and
    ``cols[s][i]`` is the index in B_R of that point plus the s-th unit
    step (in :func:`unit_steps` order).
    """
    if R < 1:
        raise InvalidParameterError("laplacian plan needs R >= 1")
    index = ball_position(d, R).__getitem__
    points = ball_points(d, R - 1)
    inner = list(map(index, points))
    cols = [list(map(index, moved)) for moved in _moved_points(points, d)]
    return inner, cols


def _moved_points(points, d: int):
    """For each unit step in :func:`unit_steps` order, the points moved by it, lazily."""
    coords = list(zip(*points))
    for axis, sign in _step_axes(d):
        moved = list(coords)
        moved[axis] = map(add, coords[axis], repeat(sign))
        yield zip(*moved)


def _canonical_reps(points):
    """Orbit representative of every point: its sorted absolute values, lazily."""
    return map(tuple, map(sorted, map(map, repeat(abs), points)))


def orbit_size(d: int, rep) -> int:
    """Cardinality of the hyperoctahedral orbit of a representative."""
    perms = math.factorial(d)
    mult = 1
    run = 1
    for i in range(1, d):
        if rep[i] == rep[i - 1]:
            run += 1
        else:
            mult *= math.factorial(run)
            run = 1
    mult *= math.factorial(run)
    nonzero = sum(1 for c in rep if c != 0)
    return (perms // mult) << nonzero


def group_order(d: int) -> int:
    return math.factorial(d) << d


class OrbitTable:
    """Orbit quotient of the l1 ball B_R in dimension d, built for one radius.

    ``reps`` is ordered by (radius, lex), so the tables of two radii agree
    on the quotient of the smaller ball: its reps, index and sizes are a
    prefix of the larger table's, and so is every column entry whose
    neighbour lies in it.  Anything computed against a smaller table (the
    cached walk-count rows of :mod:`harmlat.growth`) therefore stays valid
    against a larger one.  ``cols`` holds the neighbours column-wise:
    ``cols[s][i]`` is the orbit index of ``reps[i]`` plus the s-th unit
    step (in :func:`unit_steps` order), or -1 when that neighbour lies
    outside B_R.

    The reps also split into two radius-parity classes, each in (radius,
    lex) order; a unit step changes the radius by one, so it always leads
    into the other class.  The walk-count rows hold one class each (W(n, x)
    = 0 unless |x|_1 = n mod 2), through ``parity_prefix``,
    :meth:`by_parity` and :attr:`parity_cols`.  Within a class, too, the
    reps of a smaller ball are a prefix of a larger ball's.
    """

    def __init__(self, d: int, R: int):
        check_dimension(d)
        self.d, self.radius = d, R
        self.reps: list = []
        self.prefix: list = []  # prefix[r] = #reps with radius <= r
        self.parity_prefix: list = []  # parity_prefix[r] = #reps with radius <= r, = r mod 2
        for r in range(R + 1):
            self.reps += _sorted_tuples_with_sum(d, r)
            self.prefix.append(len(self.reps))
            # the reps of the other parity, radius <= r - 1, are counted at r - 1
            self.parity_prefix.append(len(self.reps) - (self.parity_prefix[-1] if r else 0))
        self.index: dict = {rep: i for i, rep in enumerate(self.reps)}
        self.sizes: list = [orbit_size(d, rep) for rep in self.reps]
        get = self.index.get
        self.cols: list = [
            list(map(get, _canonical_reps(moved), repeat(-1)))
            for moved in _moved_points(self.reps, d)
        ]

    def count_up_to(self, r: int) -> int:
        return self.prefix[r]

    def by_parity(self, values, p: int, r: int) -> list:
        """The entries of ``values`` (aligned with ``reps``) of class p up to radius r.

        One slice per radius block p, p + 2, ..., <= r, so the result is
        aligned with the reps of that class in their order.
        """
        starts = [0] + self.prefix
        return list(chain.from_iterable(
            values[starts[k]:starts[k + 1]] for k in range(p, r + 1, 2)
        ))

    @cached_property
    def parity_cols(self) -> tuple:
        """``cols`` of each radius-parity class, re-indexed into the other class.

        ``parity_cols[p][s][j]`` is the index, among the reps of class
        1 - p, of the j-th rep of class p plus the s-th unit step, or -1
        when that neighbour lies outside B_R.
        """
        pos: list = []  # each rep's index within its class, radius block by block
        for r, end in enumerate(self.parity_prefix):
            pos += range(self.parity_prefix[r - 2] if r >= 2 else 0, end)
        pos.append(-1)  # an outside neighbour stays -1
        at = pos.__getitem__
        return tuple(
            [list(map(at, self.by_parity(col, p, self.radius))) for col in self.cols]
            for p in (0, 1)
        )


def _sorted_tuples_with_sum(d: int, total: int):
    """Nondecreasing tuples of d non-negative integers with given sum, in lex order."""
    out = []

    def rec(prefix, lo, remaining, left):
        if remaining == 1:
            if left >= lo:
                out.append(prefix + (left,))
            return
        for v in range(lo, left + 1):
            rec(prefix + (v,), v, remaining - 1, left - v)

    rec((), 0, d, total)
    return out


_orbit_tables: dict = {}


def orbit_table(d: int, R: int) -> OrbitTable:
    """The shared table of dimension d if it covers radius R, else one for R that replaces it."""
    tab = _orbit_tables.get(d)
    if tab is None or tab.radius < R:
        tab = _orbit_tables[d] = OrbitTable(d, R)
    return tab


@lru_cache(maxsize=BALL_CACHE_SIZE)
def point_orbit_indices(d: int, R: int, orthant: bool = False) -> tuple:
    """Orbit index of every point of B_R, aligned with ball_points(d, R).

    With ``orthant`` only the points x >= 0 are given, in the same order.
    In lex order B_R of Z^d is the blocks {v} x B_{R-|v|} of Z^(d-1),
    v = -R..R, and the orbit of (v, y) is that of y with |v| merged into
    its representative.  So each block maps its tails' indices in Z^(d-1)
    through ``merge[|v|]``; the tails' indices, for every radius up to R,
    come from the same recursion, down to Z^1, where (v,) has index |v|.
    No point tuple is built.
    """
    check_dimension(d)
    if R < 0:
        raise InvalidParameterError("radius must be non-negative")

    def firsts(r):
        return range(0 if orthant else -r, r + 1)

    radii = range(R + 1) if d > 1 else (R,)
    below = {r: list(map(abs, firsts(r))) for r in radii}
    for k in range(2, d + 1):
        index = orbit_table(k, R).index
        tails = orbit_table(k - 1, R)
        merge = [
            [index[tuple(sorted(rep + (a,)))] for rep in tails.reps[: tails.count_up_to(R - a)]]
            for a in range(R + 1)
        ]
        radii = range(R + 1) if k < d else (R,)
        below = {
            r: list(chain.from_iterable(
                map(merge[abs(v)].__getitem__, below[r - abs(v)]) for v in firsts(r)
            ))
            for r in radii
        }
    return tuple(below[R])
