"""Rational-solution decision for the first-order equation y' + a*y = b over Q(x).

The equation is the paper's order-k one, a = (k-1)*alpha: ``RischEquation``
holds alpha, b and k, and derives a.

Two independent deciders are provided:

  * ``solve_general``: bounds the pole order of any rational solution at each
    finite place, then settles existence by solving for the unknown numerator
    coefficients exactly, from the top down (``solve_undetermined``), whose
    own cap bounds the numerator degree.  The candidate denominator is built
    from gcds, with no factoring (see below).

  * ``solve_xk_specialized``: the ad-hoc case analysis for coefficients of
    the shape a = A(x)/x**k, b = (2*A + 2*x**k*B)/x**(2*k) with k > 1 and
    deg A < k.  Clearing denominators with y = Y/x**k pins the constant
    coefficient of Y to 2 and caps deg Y, leaving a small linear system
    whose integer rows are read off the int vectors of A and B, scaled by
    their content denominators (``_specialized_system``), and solved with
    ``algebra.solve_linear_system`` (fraction-free integer elimination)
    through this module's global of that name.
    Outcomes carry the matched case label (1, 2a, 2b, 2c, 2d).

The pole bound (Bronstein, Symbolic Integration I, ch. 6).  Take an
irreducible p with ma = v_p(den a) and mb = v_p(den b), and let y have a
pole of order n > 0 at p.  Then y' has one of order n + 1 and a*y one of
order n + ma.  For ma >= 2 the second dominates and must be b's: n = mb - ma.
For ma <= 1 either the order n + 1 of y' is b's, n = mb - 1, or the two
leading terms cancel, which needs ma = 1 and -n + r = 0 for r the residue of
a at p: n = rho_p, r when it is a positive integer.  So the order at p is at
most max((mb-1)+ - (ma-1)+, 0, rho_p), with (m)+ = max(m, 0), plus the
slack where ma + mb > 0.  Each term is a gcd, all monic:
H_b = gcd(den b, den b') has order (mb-1)+ at every p, and
H_a = prod q**(m-1) over the split of den(a) has (ma-1)+, so
H_b/gcd(H_b, H_a) has the first term.  The split and the residues come from
alpha's residue report: a = (k-1)*alpha has alpha's denominator, and each
residue of a is k-1 times alpha's.  With A_1 the split factor of
multiplicity 1, gcd(q, A_1)**c, for each factor q of the report with
positive integer residue c of a, has order c exactly at the p with p | q
and ma = 1, and an lcm takes the maximum.  Times
lcm(rad den a, rad den b)**slack, with rad den b = den b/H_b, the product
has the bound's order at every p.

The top-down recurrence is the polynomial step of the Risch differential
equation (Bronstein, Symbolic Integration I, ch. 6, the no-cancellation
cases of SPDE; Abramov 1989).  With y = N/den the equation becomes
N'*A + N*B = R, so the coefficients n_0..n_n of N solve
sum_i n_i*col_i = R with col_i = x**i*B + i*x**(i-1)*A.  Column i has degree
at most i + s, with s = max(deg B, deg A - 1), and its coefficient there is
lc_i = B[s] + i*A[s+1], which vanishes for at most one i, called rho
(s = -1 when A is constant and B = 0, as for a = 0 with b and den
polynomial: column 0 is then zero and rho = 0).  The cap
n = max(deg R - s, rho), or deg R - s when there is no rho, bounds deg N
(Bronstein's bound): were n_i the highest nonzero coefficient and i > n,
row i + s of N'*A + N*B = R would read n_i*lc_i = 0 with lc_i != 0.  So for
i = n..0, row i + s of what is left of R fixes n_i = r[i+s]/lc_i, and
n_i*col_i is subtracted.  At rho the row fixes nothing: n_rho is a
parameter t, and the residual is carried as r0 + t*r1.  The rows that fix
no unknown (above n + s, row rho + s and below s) must vanish at the end;
they pin t, show that no solution exists, or vanish for every t.  In the
last case t is set to 0, which is the particular solution elimination
gives (pivot columns taken in increasing order, free unknowns 0): every
column but rho has a nonzero coefficient in a row where the columns below
it have none, so the kernel is at most one-dimensional, a kernel vector has
its highest nonzero entry at rho, and when the kernel is not zero rho is
the one column that is not a pivot.  All of this runs on ints, with one common denominator for the
residual and one per n_i, and on primitive parts: A and B are scaled by one
integer read off their own contents, the recurrence runs on R's primitive
ints and, R -> N being linear, the solution is multiplied once by R's
content; and the lowest power v of x in A, B and R divides every column,
so every row is taken down by v.

The cap is the decider's only bound on deg N.  It is never above the bound
that matches degrees at infinity, d + max(0, db + 1, db - da, -lam), with
d = deg den, da and db the degrees at infinity (deg num - deg den) of a and
b, and lam = lc(num a), den and den a being monic:

  * da >= 0: A[s+1] = 0, so there is no rho, and the cap is d + db - da;
  * da = -1: lc_i = lam - d + i, so rho = d - lam when that is a
    non-negative integer, and the cap is max(d + db + 1, d - lam);
  * da <= -2 or a = 0: rho = d, and the cap is max(d + db + 1, d).

Any returned solution is substitution-verified before being released, so a
``RationalSolution`` outcome is unconditionally sound; absence relies on the
bounds and is cross-checked between the two deciders in the test suite.
The substitution check (``verify_solution``) clears denominators: for
h = N/D, a = pa/qa and b = pb/qb it compares the polynomials
(N'*D - N*D')*qa*qb + pa*N*D*qb and pb*qa*D**2, which are equal exactly
when h' + a*h = b because D, qa and qb are nonzero.  No gcd is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod

from .algebra import (
    Poly,
    RatFunc,
    ResidueReport,
    _from_ints,
    _times,
    poly_gcd,
    residues,
    solve_linear_system,
)
from .planar import InputError


REASON_DEGREE_MISMATCH = "degree-mismatch"
REASON_INCONSISTENT = "inconsistent-linear-system"

# the largest candidate denominator formed, and the largest recurrence cap
# run: an integer residue c at a simple pole asks for (x - r)**c, and rho
# can be as large as an input coefficient (README: calibration)
MAX_CANDIDATE_DEGREE = 1024


@dataclass(frozen=True)
class RischEquation:
    """The order-k equation y' + (order-1)*alpha*y = b, with reduced rational
    coefficients; at order 2 the coefficient a is alpha itself."""

    alpha: RatFunc
    b: RatFunc
    order: int = 2

    def __post_init__(self):
        # at order 1 the coefficient is 0, but alpha's residues would still
        # bound the solution's poles
        if self.order < 2:
            raise ValueError("variational order must be >= 2")

    @cached_property
    def a(self) -> RatFunc:
        return (self.order - 1) * self.alpha


@dataclass(frozen=True)
class RischOutcome:
    """Decision result.  ``solution`` is None exactly when no rational
    solution exists; ``case`` is the specialized-path label when that solver
    produced the outcome; ``reason`` explains an absence."""

    solution: RatFunc | None
    solver: str
    case: str | None = None
    reason: str | None = None

    @property
    def has_rational_solution(self) -> bool:
        return self.solution is not None


def build_risch(alpha: RatFunc, beta_k: RatFunc, k: int) -> RischEquation:
    """Equation deciding the order-k obstruction: y' + (k-1)*alpha*y = beta_k."""
    return RischEquation(alpha, beta_k, k)


def verify_solution(eq: RischEquation, h: RatFunc) -> bool:
    """True iff h' + a*h = b, compared on cleared denominators (see the
    module docstring): only polynomial products, no gcd."""
    n, d = h.num, h.den
    qa, pa = eq.a.den, eq.a.num
    qb, pb = eq.b.den, eq.b.num
    lhs = ((n.derivative() * d - n * d.derivative()) * qa + pa * n * d) * qb
    return lhs == pb * qa * d * d


# ---------------------------------------------------------------------------
# general solver
# ---------------------------------------------------------------------------


def _candidate_denominator(b: RatFunc, rep: ResidueReport, scale: int, slack: int) -> Poly:
    """The candidate denominator from gcds (see the module docstring) for
    a = scale*alpha at order scale + 1.  ``rep`` is the residue report of
    alpha, which carries den(a)'s split; each residue of a is ``scale``
    times alpha's.  Before any power is formed, its degree is bounded by
    the sum of the degrees of its parts, which the lcms can only lower; over
    MAX_CANDIDATE_DEGREE the order is refused with an ``InputError``."""
    qb = b.den
    h_b = poly_gcd(qb, qb.derivative())
    h_a = a_1 = Poly.one()
    for q, m in rep.split:
        if m == 1:
            a_1 = q
        else:
            h_a = h_a * q ** (m - 1)
    den = h_b.divexact(poly_gcd(h_b, h_a))
    bound = den.degree
    poles = []  # (factor, order): a positive integer residue of a at a_1
    if a_1.degree > 0:
        for q, c in rep.per_factor:
            c *= scale
            if c > 0 and c.denominator == 1:
                g = poly_gcd(q, a_1)
                if g.degree > 0:
                    poles.append((g, int(c)))
                    bound += int(c) * g.degree
    if slack:
        rad_a = prod((q for q, _ in rep.split), start=Poly.one())
        rad_b = qb.divexact(h_b)
        rad = rad_a * rad_b.divexact(poly_gcd(rad_a, rad_b))
        bound += slack * rad.degree
    if bound > MAX_CANDIDATE_DEGREE:
        raise InputError(
            f"order {scale + 1}: the candidate denominator may reach degree {bound}, "
            f"above the limit of {MAX_CANDIDATE_DEGREE}"
        )
    for g, c in poles:
        g = g**c
        den = den * g.divexact(poly_gcd(den, g))
    if slack:
        den = den * rad**slack
    return den


def _int_terms(p: Poly, scale: int, v: int) -> list[tuple[int, int]]:
    """The nonzero coefficients of scale*p/(p's content*x**v), as (power,
    value) pairs."""
    return [(j - v, scale * c) for j, c in enumerate(p.ints, p.val) if c]


def solve_undetermined(a: RatFunc, b: RatFunc, den: Poly) -> RatFunc | None:
    """Solve y' + a*y = b for y = N/den, N a polynomial, exactly.

    With a = pa/qa and b = pb/qb, multiplying through by den**2*qa*qb turns
    the equation into N'*A + N*B = R with A = den*qa*qb,
    B = (pa*den - den'*qa)*qb and R = pb*qa*den**2, that is
    sum_i n_i*col_i = R with col_i = x**i*B + i*x**(i-1)*A.  The system is
    solved on primitive parts (see the module docstring): A and B at one
    integer scale l/g of their own contents, R's primitive ints, with R's
    content times l/g applied once to the solution, every row divided by
    the lowest power v of x in A, B and R (column i starts at row
    min(i + val B, i - 1 + val A)), and the loop started at the cap
    max(deg R - s, rho), which bounds deg N.  It runs from the top down:
    n_i is read off row i + s of an int residual, which then loses
    n_i*col_i, touching only the nonzero coefficients of A and B.  A
    non-exact division scales the residual and a running denominator by
    lc_i/g only.  At rho, where lc_rho = 0, n_rho is a parameter t carried
    as a second residual; the rows that fix no unknown pin t, leave it free
    (t = 0), or show that no solution exists.  With t = 0 the solution is the particular one that
    elimination with increasing pivot columns gives.  A cap above
    MAX_CANDIDATE_DEGREE is refused with an ``InputError`` before the loop.
    """
    qa, pa = a.den, a.num
    qb, pb = b.den, b.num
    A = den * qa * qb
    B = (pa * den - den.derivative() * qa) * qb
    R = pb * qa * den * den
    s = max(B.degree, A.degree - 1)
    # one integer scale for A and B: each content times l/g is an integer
    l = lcm(A.cd, B.cd)
    sa, sb = A.cn * (l // A.cd), B.cn * (l // B.cd)
    g = gcd(sa, sb)
    v = min(p.val for p in (A, B, R) if p.ints)
    a_terms = _int_terms(A, sa // g, v)
    b_terms = _int_terms(B, sb // g, v)
    lead_b = b_terms[-1][1] if b_terms and B.degree == s else 0
    lead_a = a_terms[-1][1] if A.degree == s + 1 else 0
    rho = None
    if lead_a and lead_b % lead_a == 0 and -lead_b // lead_a >= 0:
        rho = -lead_b // lead_a
    # above Bronstein's cap every n_i is 0 (see the module docstring)
    cap = R.degree - s if rho is None else max(R.degree - s, rho)
    if cap > MAX_CANDIDATE_DEGREE:
        raise InputError(
            f"the numerator may reach degree {cap}, above the limit of {MAX_CANDIDATE_DEGREE}"
        )
    s -= v
    r0 = [0] * (R.val - v) + list(R.ints)
    r0 += [0] * (cap + s + 1 - len(r0))
    # true residual = (r0 + t*r1)/sigma and n_i = (q0 + t*q1)/sigma_i.  Rows
    # below `live` are untouched by every column so far and hold R at scale
    # 1; a column reaches them from the top, so each is brought to sigma once
    low = min([j for j, _ in b_terms] + [j - 1 for j, _ in a_terms])
    live = len(r0)
    r1: list[int] | None = None
    sigma = 1
    found = []
    for i in range(cap, -1, -1):
        d = i + s
        lo = max(i + low, 0)
        if lo < live:
            if sigma != 1:
                r0[lo:live] = [sigma * v for v in r0[lo:live]]
            live = lo
        if i == rho:
            r1 = [0] * len(r0)
            for j, v in b_terms:
                r1[i + j] -= sigma * v
            if i:
                for j, v in a_terms:
                    r1[i + j - 1] -= sigma * i * v
            continue
        lc = lead_b + i * lead_a
        lead0 = r0[d]
        lead1 = r1[d] if r1 is not None else 0
        m = abs(lc) // gcd(lead0, lead1, lc)
        if m != 1:
            # rows above d are zero, apart from row rho + s of r0, which is
            # only tested for zero (col_rho is zero there: lc_rho = 0)
            r0[live : d + 1] = [m * v for v in r0[live : d + 1]]
            if r1 is not None:
                r1[live : d + 1] = [m * v for v in r1[live : d + 1]]
            sigma *= m
            lead0 *= m
            lead1 *= m
        q0 = lead0 // lc
        q1 = lead1 // lc
        found.append((i, q0, q1, sigma))
        for r, q in ((r0, q0), (r1, q1)):
            if q:
                for j, v in b_terms:
                    r[i + j] -= q * v
                if i:
                    for j, v in a_terms:
                        r[i + j - 1] -= q * i * v
    # what is left is the rows that fix no unknown: r1 is zero below `live`
    # and at rho + s, where alone r0 may be at an older scale, and a zero
    # test does not depend on the scale
    tp, tq = 0, 1  # t = tp/tq
    if r1 is None:
        if any(r0):
            return None
    else:
        for v0, v1 in zip(r0, r1):
            if v1:
                tp, tq = -v0, v1
                break
        if any(v0 * tq + tp * v1 for v0, v1 in zip(r0, r1)):
            return None
    nums = [0] * (cap + 1)
    for i, q0, q1, sig in found:
        nums[i] = (q0 * tq + tp * q1) * (sigma // sig)
    if rho is not None:
        nums[rho] = tp * sigma
    return RatFunc(_from_ints(nums, 0, R.cn * l, R.cd * g * tq * sigma), den)


def solve_general(
    eq: RischEquation, pole_slack: int = 0, alpha_residues: ResidueReport | None = None
) -> RischOutcome:
    """Decide existence of a rational solution by pole bounding plus
    undetermined coefficients; the recurrence's own cap bounds the degree of
    the numerator.

    ``pole_slack`` widens the candidate denominator; it exists so that an
    absence verdict can be re-checked under a strictly larger search space.
    ``alpha_residues`` is the residue report of ``eq.alpha``, with the
    squarefree split of its denominator, when the caller already has it
    (``check_hk`` passes one report to every order); otherwise it is
    computed here.
    """
    a, b = eq.a, eq.b
    if b.is_zero:
        return RischOutcome(RatFunc.zero(), "general")
    rep = alpha_residues if alpha_residues is not None else residues(eq.alpha)
    den = _candidate_denominator(b, rep, eq.order - 1, pole_slack)
    try:
        solution = solve_undetermined(a, b, den)
    except InputError as exc:
        raise InputError(f"order {eq.order}: {exc}") from None
    if solution is None:
        return RischOutcome(None, "general", reason=REASON_INCONSISTENT)
    if not verify_solution(eq, solution):
        raise RuntimeError("internal error: candidate solution failed substitution check")
    return RischOutcome(solution, "general")


# ---------------------------------------------------------------------------
# specialized x**k solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KaltofenInstance:
    """Equation data for the pure power-pole shape.

    alpha = alpha_num/x**pole_order and
    beta = (2*alpha_num + 2*x**pole_order*beta_shift)/x**(2*pole_order),
    with pole_order > 1, deg alpha_num < pole_order, alpha_num(0) != 0, and
    beta_shift zero or with nonzero constant term.
    """

    alpha_num: Poly
    beta_shift: Poly
    pole_order: int

    def __post_init__(self):
        k = self.pole_order
        a = self.alpha_num
        if k <= 1:
            raise ValueError("pole order must exceed 1")
        if a.is_zero or a.degree >= k:
            raise ValueError("numerator degree must be smaller than the pole order")
        if a.val:
            raise ValueError("constant coefficient of the numerator must be nonzero")
        if self.beta_shift.val:
            raise ValueError("shift polynomial must have nonzero constant term")

    # derived data -----------------------------------------------------------

    @property
    def alpha(self) -> RatFunc:
        return RatFunc(self.alpha_num, Poly.monomial(self.pole_order))

    @property
    def beta(self) -> RatFunc:
        k = self.pole_order
        return RatFunc(2 * self.alpha_num + 2 * self.beta_shift.shift(k), Poly.monomial(2 * k))

    def equation(self) -> RischEquation:
        return RischEquation(self.alpha, self.beta)

    @property
    def rho(self) -> int:
        """-v when the coefficient v of x**(k-1) in v = alpha_num - k*x**(k-1)
        is a negative integer, else 0."""
        k = self.pole_order
        a = self.alpha_num
        if a.degree < k - 1:
            return k
        top = a.cn * a.ints[-1]
        if top % a.cd:
            return 0
        return max(k - top // a.cd, 0)

    @property
    def degree_cap(self) -> int:
        """Sound cap on deg Y for the cleared equation u*Y' + v*Y = w.

        Leading-coefficient matching at degree deg(Y) + k - 1 forces
        deg Y in {deg w - k + 1, rho}, so the cap is max(deg w - k + 1, rho):
        max(m + 1, rho) with m = deg beta_shift, which is rho for a zero
        shift (degree -1).
        """
        return max(self.beta_shift.degree + 1, self.rho)

    @property
    def case(self) -> str:
        """Dispatch label; total and exclusive over valid instances.  With
        deg alpha_num = k-1, rho is the gap k - lc(alpha_num) when that is a
        positive integer and 0 otherwise."""
        if self.alpha_num.degree < self.pole_order - 1:
            return "1"
        rho = self.rho
        m = self.beta_shift.degree  # -1 for a zero shift
        if not rho:
            return "2a" if m <= 0 else "2b"
        if m >= rho:
            return "2c"
        return "2d"


def match_kaltofen(eq: RischEquation) -> KaltofenInstance | None:
    """Recognise the power-pole shape; None when the equation does not fit.
    A ``RatFunc`` denominator is monic, so c*x**k there is x**k."""
    qa, qb = eq.a.den, eq.b.den
    k, jb = qa.degree, qb.degree
    if k < 2 or qa.ints != (1,):
        return None
    a_num = eq.a.num
    if a_num.degree >= k:
        return None
    if jb > 2 * k or qb.ints != (1,):
        return None
    w = eq.b.num.shift(2 * k - jb)
    rem_poly = w - 2 * a_num
    # rem_poly = 2*x**k*beta_shift, with beta_shift zero or beta_shift(0) != 0
    if rem_poly.val != k and not rem_poly.is_zero:
        return None
    return KaltofenInstance(a_num, _times(rem_poly, 1, 2).shift(-k), k)


def _specialized_system(inst: KaltofenInstance) -> tuple[list[list[int]], list[int], int]:
    """Integer rows for y_1..y_cap, the right-hand side and its degree, of
    the cleared equation with the forced constant coefficient Y(0) = 2 moved
    across:

        sum_i y_i * ((i-k)*x**(i+k-1) + alpha_num*x**i)
            = 2*k*x**(k-1) + 2*x**k*beta_shift.

    Row d, column i is (i-k)*[d = i+k-1] + alpha_num[d-i], read off the int
    vectors: the whole system is multiplied by the content denominators of
    alpha_num and beta_shift, which changes neither its solutions nor its
    pivot columns.  Rows above every column's top and deg(rhs) are zero.
    """
    k = inst.pole_order
    cap = inst.degree_cap
    a, shift = inst.alpha_num, inst.beta_shift
    scale = a.cd * shift.cd
    an = a.cn * shift.cd  # scale*alpha_num = an*ints
    deg_rhs = k + shift.degree  # k - 1 for a zero shift
    nrows = max(cap + k - 1, deg_rhs) + 1
    rows = [[0] * cap for _ in range(nrows)]
    for i in range(1, cap + 1):
        rows[i + k - 1][i - 1] = (i - k) * scale
        for j, c in enumerate(a.ints, a.val):
            if c:
                rows[i + j][i - 1] += an * c
    rhs = [0] * nrows
    rhs[k - 1] = 2 * k * scale
    sn = 2 * shift.cn * a.cd  # scale*2*beta_shift = sn*ints
    for j, c in enumerate(shift.ints, shift.val):
        rhs[k + j] = sn * c
    return rows, rhs, deg_rhs


def solve_xk_specialized(inst: KaltofenInstance) -> RischOutcome:
    """Decide the power-pole instance through its case analysis."""
    case = inst.case
    rows, rhs, deg_rhs = _specialized_system(inst)
    ncols = inst.degree_cap
    sol = solve_linear_system(rows, rhs, ncols)
    if sol is None:
        reason = REASON_INCONSISTENT
        if solve_linear_system(rows[: deg_rhs + 1], rhs[: deg_rhs + 1], ncols) is not None:
            # solvable once the forced coefficients above deg(rhs) are
            # ignored: the obstruction is purely a degree mismatch
            reason = REASON_DEGREE_MISMATCH
        return RischOutcome(None, "specialized", case=case, reason=reason)
    y_poly = Poly([2, *sol])
    solution = RatFunc(y_poly, Poly.monomial(inst.pole_order))
    if not verify_solution(inst.equation(), solution):
        raise RuntimeError("internal error: candidate solution failed substitution check")
    return RischOutcome(solution, "specialized", case=case)
