"""Independent checks of ratcert outputs.

Nothing here imports ratcert.  Certificate strings are read by a small
evaluator of its own (number literals become ``Fraction``), derivatives come
from dual numbers, the variational coefficients ``beta_j`` come from the
series of ``Q/P`` in ``y``, and absence claims on power-pole equations are
re-decided by an exhaustive undetermined-coefficient search.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# Rational points at which rational functions are compared.  A point that
# hits a pole is skipped; at least ``MIN_POINTS`` must remain.
POINTS = tuple(Fraction(n, d) for n, d in ((3, 7), (-5, 4), (11, 3), (2, 1), (-9, 13), (17, 5)))
MIN_POINTS = 3


# ---------------------------------------------------------------------------
# number types
# ---------------------------------------------------------------------------


class Dual:
    """v + d*eps with eps**2 = 0: value and first derivative together."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0):
        self.v = Fraction(v)
        self.d = Fraction(d)

    @staticmethod
    def _lift(o) -> "Dual":
        return o if isinstance(o, Dual) else Dual(o)

    def __add__(self, o):
        o = Dual._lift(o)
        return Dual(self.v + o.v, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.v, -self.d)

    def __sub__(self, o):
        return self + (-Dual._lift(o))

    def __rsub__(self, o):
        return Dual._lift(o) - self

    def __mul__(self, o):
        o = Dual._lift(o)
        return Dual(self.v * o.v, self.v * o.d + self.d * o.v)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Dual._lift(o)
        if o.v == 0:
            raise ZeroDivisionError("dual division by zero")
        return Dual(self.v / o.v, (self.d * o.v - self.v * o.d) / (o.v * o.v))

    def __rtruediv__(self, o):
        return Dual._lift(o) / self

    def __pow__(self, n: int):
        return Dual(self.v**n, n * self.v ** (n - 1) * self.d) if n else Dual(1)


class Series:
    """Power series in one variable truncated after ``order``."""

    __slots__ = ("c",)

    def __init__(self, coeffs, order: int):
        c = [Fraction(v) for v in coeffs][: order + 1]
        self.c = c + [Fraction(0)] * (order + 1 - len(c))

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def _lift(self, o) -> "Series":
        return o if isinstance(o, Series) else Series([o], self.order)

    def __add__(self, o):
        o = self._lift(o)
        return Series([a + b for a, b in zip(self.c, o.c)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return Series([-a for a in self.c], self.order)

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.c):
            if a:
                for j in range(n + 1 - i):
                    out[i + j] += a * o.c[j]
        return Series(out, n)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        if o.c[0] == 0:
            raise ZeroDivisionError("series division by a series without constant term")
        n = self.order
        q: list[Fraction] = []
        for k in range(n + 1):
            acc = self.c[k] - sum(q[i] * o.c[k - i] for i in range(k))
            q.append(acc / o.c[0])
        return Series(q, n)

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __pow__(self, n: int):
        out = Series([1], self.order)
        for _ in range(n):
            out = out * self
        return out


# ---------------------------------------------------------------------------
# expression evaluator (same grammar as the program's input language)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokens(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
        pos = m.end()
        num, ident, op = m.groups()
        out.append(("num", num) if num else ("id", ident) if ident else ("op", op))
    out.append(("end", ""))
    return out


def evaluate(text: str, env: dict):
    """Value of an expression string with identifiers bound by ``env``.

    The values in ``env`` may be Fractions, Duals or Series; integer
    literals are read as Fractions.
    """
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        sign = 1
        if peek() in (("op", "+"), ("op", "-")):
            sign = -1 if take()[1] == "-" else 1
        value = term()
        if sign < 0:
            value = -value
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        value = factor()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor():
        value = base()
        if peek() == ("op", "^"):
            take()
            kind, text_ = take()
            if kind != "num":
                raise ValueError("exponent must be an unsigned integer")
            value = value ** int(text_)
        return value

    def base():
        kind, text_ = take()
        if kind == "num":
            return Fraction(int(text_))
        if kind == "id":
            if text_ not in env:
                raise ValueError(f"unbound identifier {text_!r}")
            return env[text_]
        if (kind, text_) == ("op", "("):
            value = expr()
            if take() != ("op", ")"):
                raise ValueError("missing ')'")
            return value
        raise ValueError(f"unexpected token {text_!r}")

    value = expr()
    if peek()[0] != "end":
        raise ValueError(f"trailing input at token {peek()[1]!r}")
    return value


# ---------------------------------------------------------------------------
# variational coefficients from the field
# ---------------------------------------------------------------------------


def betas_at(p_text: str, q_text: str, lets: dict, x0: Fraction, kmax: int):
    """[beta_1(x0), ..., beta_kmax(x0)]: the y-derivatives of Q/P at the
    point (x0, 0) of the curve y = 0, read off the series of Q/P in y."""
    env = dict(lets, x=Fraction(x0), y=Series([0, 1], kmax))
    f = evaluate(q_text, env) / evaluate(p_text, env)
    return [math.factorial(j) * f.c[j] for j in range(1, kmax + 1)]


def _usable_points(texts: list[str]) -> list[Fraction]:
    """Points of ``POINTS`` at which every text (in x) evaluates."""
    points = []
    for x0 in POINTS:
        try:
            for text in texts:
                evaluate(text, {"x": x0})
        except ZeroDivisionError:
            continue
        points.append(x0)
    return points


def satisfies(solution: str, a_at, b_at, points) -> bool:
    """y' + a*y = b at every point, with y read from ``solution``."""
    for x0 in points:
        y = evaluate(solution, {"x": Dual(x0, 1)})
        y = y if isinstance(y, Dual) else Dual(y)
        if y.d + a_at(x0) * y.v != b_at(x0):
            return False
    return True


def same_function(text: str, reference, points) -> bool:
    return all(evaluate(text, {"x": x0}) == reference(x0) for x0 in points)


# ---------------------------------------------------------------------------
# independent decider for equations with power-of-x denominators
# ---------------------------------------------------------------------------


def _consistent(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Does the linear system rows * u = rhs have a solution?"""
    aug = [row + [v] for row, v in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pivot_row = aug[rank]
        for r in range(rank + 1, len(aug)):
            f = aug[r][col]
            if f:
                f = f / pivot_row[col]
                aug[r] = [v - f * w for v, w in zip(aug[r], pivot_row)]
        rank += 1
    return all(row[-1] == 0 for row in aug[rank:])


def has_rational_solution(a_num: list, p: int, b_num: list, q: int) -> bool:
    """Exact decision of y' + (A/x^p)*y = W/x^q for polynomial A, W given as
    coefficient lists (lowest degree first), with p >= 2 and A(0) != 0.

    A solution can only have a pole at 0, of order s <= q - p, so it is
    Y/x^s; matching the leading terms at infinity bounds deg Y.  The search
    below covers that whole space (with two degrees of slack), so an
    inconsistent system proves absence.
    """
    a_num = [Fraction(c) for c in a_num]
    b_num = [Fraction(c) for c in b_num]
    if p < 2 or not a_num or a_num[0] == 0:
        raise ValueError("decider needs a pole of order >= 2 with A(0) != 0")
    while b_num and b_num[-1] == 0:
        b_num.pop()
    if not b_num:
        return True
    s = max(0, q - p)
    dA, dW = len(a_num) - 1, len(b_num) - 1
    cands = [s, dW - q + s + 1, dW - q + s + p - dA]
    lead = -a_num[-1] if dA == p - 1 else None
    if lead is not None and lead.denominator == 1:
        cands.append(s + int(lead))
    top = max(cands) + 2
    if top < 0:
        return False
    m = max(s + p, q, s + 1)
    size = max(top + m - s, top + m - s - p + dA, dW + m - q) + 1
    rows = [[Fraction(0)] * (top + 1) for _ in range(size)]
    for i in range(top + 1):
        e = i + m - s - 1
        if e >= 0:
            rows[e][i] += i - s
        for j, c in enumerate(a_num):
            rows[i + m - s - p + j][i] += c
    rhs = [Fraction(0)] * size
    for j, c in enumerate(b_num):
        rhs[j + m - q] += c
    return _consistent(rows, rhs)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------


def check_orders(report: dict, p_text: str, q_text: str, lets: dict, kmax: int) -> list[str]:
    """The curve is y = 0, each order's alpha/beta equal beta_1/beta_k of the
    field, and each reported solution satisfies y' + (k-1)*alpha*y = beta_k."""
    problems = [] if report.get("curve") == "0" else [f"curve {report.get('curve')} is not 0"]
    orders = report.get("orders", [])
    texts = [t for o in orders for t in (o["alpha"], o["beta"], o["outcome"].get("solution", "1"))]
    points = _usable_points(texts)
    field_points = []
    betas = {}
    for x0 in points:
        try:
            betas[x0] = betas_at(p_text, q_text, lets, x0, kmax)
            field_points.append(x0)
        except ZeroDivisionError:
            continue
    if len(field_points) < MIN_POINTS:
        return [f"only {len(field_points)} usable evaluation points"]
    for o in orders:
        k = o["k"]
        if not same_function(o["alpha"], lambda x0: betas[x0][0], field_points):
            problems.append(f"k={k}: alpha differs from beta_1 of the field")
        if not same_function(o["beta"], lambda x0: betas[x0][k - 1], field_points):
            problems.append(f"k={k}: beta differs from beta_{k} of the field")
        sol = o["outcome"].get("solution")
        if o["outcome"]["status"] == "RationalSolution":
            if sol is None or not satisfies(
                sol,
                lambda x0: (k - 1) * betas[x0][0],
                lambda x0: betas[x0][k - 1],
                field_points,
            ):
                problems.append(f"k={k}: reported solution does not satisfy the equation")
    return problems


def check_tower(report: dict, p_text: str, q_text: str, kmax: int) -> list[str]:
    """Quadratic field with a Darboux-type integral: every order 2..kmax has a
    rational solution and the verdict is the inconclusive all-elementary one."""
    problems = check_orders(report, p_text, q_text, {}, kmax)
    if [o["k"] for o in report["orders"]] != list(range(2, kmax + 1)):
        problems.append("orders are not 2..kmax")
    if any(o["outcome"]["status"] != "RationalSolution" for o in report["orders"]):
        problems.append("an order lacks its rational solution")
    expected = {"status": "Inconclusive", "reason": "AllOrdersElementary", "k_max": kmax}
    if report.get("verdict") != expected:
        problems.append(f"verdict {report.get('verdict')} != {expected}")
    return problems


CUBIC_P = "x^3 - y"
CUBIC_Q = "y*(x^2 - c*x - b - a*y)"


def cubic_equation(a: Fraction, b: Fraction, c: Fraction) -> tuple[list, int, list, int]:
    """(A, p, W, q) of the cubic member's order-2 equation, in closed form:
    with g = x^2 - c*x - b, alpha = g/x^3 and beta_2 = 2*(g - a*x^3)/x^6."""
    g = [-b, -c, Fraction(1)]
    return g, 3, [2 * v for v in g] + [-2 * a], 6


def check_cubic_line(line_in: dict, out: dict) -> list[str]:
    """One batch line of the cubic family (a, b, c), original chart or at
    infinity; ``line_in`` carries the parameters and the task sent."""
    a, b, c = (Fraction(line_in["params"][n]) for n in "abc")
    task = line_in["task"]
    if "error" in out:
        return [f"error line: {out['error']}"]
    problems = []
    lets = {n: Fraction(v) for n, v in (task.get("lets") or {}).items()}
    in_points = [Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3)]
    for x0 in in_points:
        for y0 in (Fraction(2, 9), Fraction(-4)):
            env_in = dict(lets, x=x0, y=y0)
            env_out = {"x": x0, "y": y0}
            for key in ("p", "q"):
                if evaluate(out["field"][key], env_out) != evaluate(task[key], env_in):
                    problems.append(f"field {key} is not the input line's field")
    chart = "infinity" if task.get("at_infinity") else "original"
    if out.get("chart") != chart:
        problems.append(f"chart {out.get('chart')} != {chart}")
    # the equations are those of the original-chart member in both charts
    member = {"a": a, "b": b, "c": c}
    problems += check_orders(out, CUBIC_P, CUBIC_Q, member, 2)
    orders = out.get("orders", [])
    if len(orders) != 1 or orders[0]["k"] != 2:
        return problems + ["expected exactly the order-2 record"]
    outcome = orders[0]["outcome"]
    exists = has_rational_solution(*cubic_equation(a, b, c))
    if c == -a * b / 3:
        if not exists:
            problems.append("independent decider finds no solution on the boundary")
        if outcome["status"] != "RationalSolution":
            problems.append("boundary member lacks its order-2 solution")
        if out.get("verdict") != {"status": "Inconclusive", "reason": "AllOrdersElementary", "k_max": 2}:
            problems.append(f"boundary verdict {out.get('verdict')}")
    else:
        if exists:
            problems.append("independent decider finds a solution off the boundary")
        if outcome["status"] != "NoRationalSolution" or outcome.get("case") != "2d":
            problems.append(f"off-boundary outcome {outcome}")
        if out.get("verdict") != {"status": "NotRationallyIntegrable", "k": 2}:
            problems.append(f"off-boundary verdict {out.get('verdict')}")
    return problems


def check_batch(lines_in: list[dict], output_text: str) -> list[str]:
    """One output line per input line, in input order, each one correct."""
    out_lines = output_text.splitlines()
    if len(out_lines) != len(lines_in):
        return [f"{len(out_lines)} output lines for {len(lines_in)} input lines"]
    problems = []
    for i, (line_in, text) in enumerate(zip(lines_in, out_lines)):
        problems += [f"line {i + 1}: {p}" for p in check_cubic_line(line_in, json.loads(text))]
    return problems


def check_risch(eq: dict, report: dict) -> list[str]:
    """One order-2 equation y' + alpha*y = beta.

    ``eq`` holds the generated data: ``alpha`` and ``beta`` strings and
    either ``planted`` (a solution string; unique because alpha has a pole of
    order >= 2) or ``power_pole`` = (A, p, W, q) for the exhaustive decider.
    """
    problems = []
    points = _usable_points([eq["alpha"], eq["beta"]])
    alpha = {x0: evaluate(eq["alpha"], {"x": x0}) for x0 in points}
    beta = {x0: evaluate(eq["beta"], {"x": x0}) for x0 in points}
    if len(points) < MIN_POINTS:
        return [f"only {len(points)} usable evaluation points"]
    if report["equation"]["order"] != 2:
        problems.append("order is not 2")
    if not same_function(report["equation"]["a"], alpha.get, points):
        problems.append("equation coefficient a differs from alpha")
    if not same_function(report["equation"]["b"], beta.get, points):
        problems.append("equation right-hand side differs from beta")
    outcome = report["outcome"]
    solution = outcome.get("solution")
    found = outcome["status"] == "RationalSolution"
    if found and (solution is None or not satisfies(solution, alpha.get, beta.get, points)):
        problems.append("reported solution does not satisfy the equation")
    if "planted" in eq:
        if not found:
            problems.append("planted equation reported without solution")
        elif not same_function(solution, lambda x0: evaluate(eq["planted"], {"x": x0}), points):
            problems.append("solution differs from the planted one")
    else:
        if found != has_rational_solution(*eq["power_pole"]):
            problems.append(f"verdict {outcome['status']} contradicts the exhaustive decider")
    return problems
