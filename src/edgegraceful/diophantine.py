"""Quadratic Diophantine equations via reduction to a factorable Pell-like form.

The general equation

    a*x^2 + b*x*y + c*y^2 + d*x + e*y + f = 0        (integer coefficients)

reduces, with

    D = b^2 - 4ac,   E = bd - 2ae,   F = d^2 - 4af,   N = E^2 - D*F,

to X^2 - D*Y^2 = N under the substitution X = D*y + E, Y = 2a*x + b*y + d.
The reduction is implemented for arbitrary c; solving is implemented only for
the case c = 0, where D = b^2 is a perfect square and the form factors as
(X + bY)(X - bY) = N.  Every factor pair N1 * N2 = N then pins X and Y, and
back-substitution (y = (X - E)/D, then x = (Y - b*y - d)/(2a)) recovers
(x, y).  With D = b^2 the four values close to integer numerators over fixed
denominators:

    X = (N1 + N2)/2,             Y = (N1 - N2)/(2b),
    y = (N1 + N2 - 2E)/(2D),     x = (E - bd - N2)/(2ab).

A row is integral exactly when the four remainders are zero.  Non-integral
rows are retained (flagged, not dropped) so that ``factor_pair_trace`` can
render the full enumeration.  ``integer_solutions`` builds no row: x depends
on N2 alone, so it keeps the signed divisors N2 of N that make x integral and
tests X, Y and y for those only.  No function here builds a ``Fraction``:
the rows of ``solve_factor_pairs`` keep the integer numerators and make X,
Y, x and y exact ``Fraction`` values when they are read, and ``fractions``
is imported at the first such read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .graphs import Record, require_int

if TYPE_CHECKING:
    from fractions import Fraction


class QuadraticDiophantine(Record):
    """Coefficients of a*x^2 + b*x*y + c*y^2 + d*x + e*y + f = 0.

    Requires a != 0 (back-substitution divides by 2a).
    """

    __slots__ = ("a", "b", "c", "d", "e", "f")

    def __init__(self, a: int, b: int, c: int, d: int, e: int, f: int) -> None:
        require_int("a coefficient", a, b, c, d, e, f)
        if a == 0:
            raise ValueError("coefficient a must be nonzero")
        super().__init__(a, b, c, d, e, f)

    def evaluate(self, x: int, y: int) -> int:
        """Left-hand side at (x, y); zero exactly when (x, y) is a solution."""
        return (
            self.a * x * x
            + self.b * x * y
            + self.c * y * y
            + self.d * x
            + self.e * y
            + self.f
        )


class ReducedForm(Record):
    """The Pell-like constants ``D``, ``E``, ``F``, ``N`` of ``equation``: X^2 - D*Y^2 = N."""

    __slots__ = ("equation", "D", "E", "F", "N")


def _fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)``.  The first call imports ``fractions`` and binds
    this name to ``Fraction`` itself, so later reads pay no import."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(num, den)


def _read_as_fraction(i: int, name: str) -> property:
    def read(self) -> Fraction:
        return _fraction(self.numerators[i], self.denominators[i])

    return property(read, doc=f"{name} as an exact Fraction, built on each read.")


class FactorPairRow(Record):
    """One enumeration row: a factor pair and everything derived from it.

    A row stores the pair ``N1``, ``N2``; ``integral``, true iff X, Y, x and
    y are all integers, so that only such rows yield solutions of the
    original equation; and the integer ``numerators`` of X, Y, x and y over
    their ``denominators``.  X, Y, x and y are read-only properties that
    build an exact ``Fraction`` on every read, so a caller that reads some
    rows pays for no others.
    """

    __slots__ = ("N1", "N2", "integral", "numerators", "denominators")

    X = _read_as_fraction(0, "X")
    Y = _read_as_fraction(1, "Y")
    x = _read_as_fraction(2, "x")
    y = _read_as_fraction(3, "y")


def reduce(eq: QuadraticDiophantine) -> ReducedForm:
    """Compute the four derived constants (valid for any c)."""
    D = eq.b * eq.b - 4 * eq.a * eq.c
    E = eq.b * eq.d - 2 * eq.a * eq.e
    F = eq.d * eq.d - 4 * eq.a * eq.f
    return ReducedForm(eq, D, E, F, E * E - D * F)


# Miller-Rabin on the primes 2..41 as bases has no strong pseudoprime below
# MR_EXACT_BELOW (Sorenson and Webster, 2015), so it is a primality proof there
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
TRIAL_LIMIT = 1000  # trial division by 2, 3 and 6k +- 1 below this first
RHO_STEP_LIMIT = 1 << 20  # Pollard-Brent iterations per cofactor below 2^64
_TRIAL_DIVISORS = (2, 3) + tuple(t + d for t in range(6, TRIAL_LIMIT, 6) for d in (-1, 1))


def positive_divisors(n: int) -> list[int]:
    """Ascending positive divisors of |n|, built from its prime factorization.

    n must be nonzero.  Raises ValueError when a cofactor of |n| can be
    neither split nor proved prime: a probable prime of at least
    ``MR_EXACT_BELOW``, or a composite whose factors Pollard-Brent does not
    find within ``RHO_STEP_LIMIT`` iterations.
    """
    require_int("n", n)
    if n == 0:
        raise ValueError("zero has no finite divisor list")
    divisors = [1]
    for prime, exponent in _factorize(abs(n)).items():
        powers = [prime**e for e in range(exponent + 1)]
        divisors = [d * power for d in divisors for power in powers]
    return sorted(divisors)


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    factors: dict[int, int] = {}
    for t in _TRIAL_DIVISORS:
        if t * t > n:
            break
        while n % t == 0:
            factors[t] = factors.get(t, 0) + 1
            n //= t
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < TRIAL_LIMIT * TRIAL_LIMIT or _is_probable_prime(m):
            # m has no factor below TRIAL_LIMIT (or below its square root,
            # where trial division stopped early), so small m is prime
            if m >= MR_EXACT_BELOW:
                # m is named by size: str() of a huge m raises past the digit limit
                raise ValueError(
                    f"cannot certify that a {m.bit_length()}-bit cofactor of N is prime "
                    f"(Miller-Rabin on bases 2..41 is exact only below {MR_EXACT_BELOW})"
                )
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        pending += [d, m // d]
    return factors


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin on ``MR_BASES`` for odd n > 41; exact below ``MR_EXACT_BELOW``."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A factor 1 < d < n of the odd composite n, by Brent's variant of rho.

    Tries the maps y -> y^2 + c for c = 1, 2, ... until one splits n, and
    raises ValueError after ``RHO_STEP_LIMIT`` iterations in all, divided by
    the size of n in 64-bit words: an iteration's cost grows with that size,
    so the budget bounds time, not only iterations.  The differences are
    multiplied up and tested with one gcd per batch of 128.
    """
    budget = RHO_STEP_LIMIT // -(-n.bit_length() // 64)
    steps = 0
    c = 0
    while steps < budget:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1 and steps < budget:
            x = y  # compared with the next r points of the sequence
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if 1 < g < n:
            return g
    raise ValueError(
        f"no factor of a {n.bit_length()}-bit cofactor of N found in {budget} "
        "Pollard-Brent iterations"
    )


def _ordered_factor_pairs(N: int) -> list[tuple[int, int]]:
    # Table layout: |N1| < |N2| block ascending, then its mirror, for positive
    # N1 first and the sign-flipped rows after; a perfect-square middle pair
    # sits once between a block and its mirror.  The divisors ascend, so the
    # square root, when there is one, is the last t with t*t <= |N|.
    n = abs(N)
    low = [t for t in positive_divisors(N) if t * t <= n]
    half = [(t, N // t) for t in low]
    half += [(N // t, t) for t in low if t * t < n]
    return half + [(-n1, -n2) for (n1, n2) in half]


def _require_factorable(form: ReducedForm) -> None:
    """Raise ValueError for a form the factor-pair method does not support."""
    eq = form.equation
    if eq.c != 0:
        raise ValueError("factor-pair method requires c = 0")
    if eq.b == 0:
        raise ValueError("factor-pair method requires b != 0 (D = b^2 would be 0)")
    if form != reduce(eq):
        # the closed forms rest on D = b^2 and E = bd - 2ae
        raise ValueError("reduced form does not match reduce(form.equation)")
    if form.N == 0:
        raise ValueError("factor-pair method requires N != 0")


def _factor_pair_numerators(form: ReducedForm):
    """Each row of the factor-pair table as integer numerators.

    Yields ``(N1, N2, X, Y, x, y, integral)`` in table order, where X, Y, x
    and y are the numerators over ``_denominators(form)`` and ``integral``
    is true iff all four divide exactly.  Raises ValueError (at the first
    row) for a form the method does not support.
    """
    _require_factorable(form)
    dX, dY, dx, dy = _denominators(form)
    x_offset, y_offset = form.E - form.equation.b * form.equation.d, 2 * form.E
    for n1, n2 in _ordered_factor_pairs(form.N):
        X, Y, x = n1 + n2, n1 - n2, x_offset - n2
        y = X - y_offset
        integral = not (X % dX or Y % dY or x % dx or y % dy)
        yield n1, n2, X, Y, x, y, integral


def _denominators(form: ReducedForm) -> tuple[int, int, int, int]:
    """Denominators of X, Y, x, y in ``_factor_pair_numerators``."""
    a, b = form.equation.a, form.equation.b
    return 2, 2 * b, 2 * a * b, 2 * form.D


def solve_factor_pairs(form: ReducedForm) -> list[FactorPairRow]:
    """Enumerate every ordered factor pair of N with the derived values.

    Only supported when the originating equation has c = 0 and b != 0, so
    that D = b^2 > 0 factors the form over the integers, when the form is
    ``reduce(form.equation)``, and when N != 0 (N = 0 degenerates to a
    product of two linear factors with infinitely many factorizations).
    Both orders of each unordered pair appear, and sign-flipped pairs follow
    the positive ones.
    """
    dens = _denominators(form)
    # rows are filled through the slot descriptors: setting the fields by name,
    # as Record.__init__ does, took a 1 536-row table from 2.8 to 4.6-5.4 ms
    new = FactorPairRow.__new__
    set_n1, set_n2 = FactorPairRow.N1.__set__, FactorPairRow.N2.__set__
    set_integral = FactorPairRow.integral.__set__
    set_nums = FactorPairRow.numerators.__set__
    set_dens = FactorPairRow.denominators.__set__
    rows = []
    for n1, n2, X, Y, x, y, integral in _factor_pair_numerators(form):
        row = new(FactorPairRow)
        set_n1(row, n1)
        set_n2(row, n2)
        set_integral(row, integral)
        set_nums(row, (X, Y, x, y))
        set_dens(row, dens)
        rows.append(row)
    return rows


def integer_solutions(eq: QuadraticDiophantine) -> list[tuple[int, int]]:
    """All integer (x, y) solving the equation, sorted by x then y.

    The integral rows of the factor-pair table, found without the table:
    every signed divisor of N is N2 in exactly one row, and x's numerator
    E - bd - N2 depends on N2 alone, so only the divisors that make x
    integral get N1, X, Y and y.  Each gives a distinct x.
    """
    form = reduce(eq)
    _require_factorable(form)
    dX, dY, dx, dy = _denominators(form)
    x_offset, y_offset = form.E - eq.b * eq.d, 2 * form.E
    divisors = positive_divisors(form.N)
    # x_offset - n2 divides by dx exactly when n2 and x_offset agree mod dx
    plus, minus = x_offset % dx, -x_offset % dx
    kept = [t for t in divisors if t % dx == plus]
    kept += [-t for t in divisors if t % dx == minus]
    found = []
    for n2 in kept:
        n1 = form.N // n2
        X, Y = n1 + n2, n1 - n2
        if not (X % dX or Y % dY or (X - y_offset) % dy):
            found.append(((x_offset - n2) // dx, (X - y_offset) // dy))
    return sorted(found)


def format_rational(num: int, den: int) -> str:
    """Render num/den exactly: integers plainly, terminating decimals as
    decimals, everything else as num/den in lowest terms with the sign on
    the numerator.  Raises ValueError when den is 0."""
    require_int("a numerator or denominator", num, den)
    if den == 0:
        raise ValueError("format_rational requires a nonzero denominator")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return str(num)
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    places = max(twos, fives)
    scaled = abs(num) * 10**places // den
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def factor_pair_trace(form: ReducedForm) -> list[dict]:
    """Every factor-pair row of ``form`` in table order, as the trace prints it.

    N1 and N2 stay integers; X, Y, x and y are rendered exactly from their
    integer numerators and denominators; ``integral`` marks the rows that
    solve the equation.  Raises ValueError for a form the solver rejects.
    """
    dens = _denominators(form)
    return [
        {"N1": n1, "N2": n2,
         **{k: format_rational(num, den) for k, num, den in zip("XYxy", nums, dens)},
         "integral": integral}
        for n1, n2, *nums, integral in _factor_pair_numerators(form)
    ]
