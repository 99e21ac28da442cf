"""Decision procedure: obstruction checks and certificates.

The driver walks a planar field along an invariant curve y = phi(x):

  1. optionally move the line at infinity to y = 0 with the birational chart
     change (swapping component roles first if the first component vanishes);
  2. check the irregularity/integrality condition on alpha (H1 in the
     reports), with the inequality direction of its degree clause selectable
     because the two readings disagree, see ``INTERPRETATIONS``;
  3. for k = 2..k_max decide whether the order-k equation
     y' + (k-1)*alpha*y = beta_k has a rational solution; the first order
     without one certifies that the field has no rational first integral.

The analyzer never claims integrability: when every tested order admits a
rational solution the verdict is inconclusive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import RatFunc, ResidueReport, residues
from .planar import (
    InputError,
    PlanarField,
    foliation_derivatives,
    infinity_transform,
)
from .risch import (
    RischEquation,
    RischOutcome,
    build_risch,
    match_kaltofen,
    solve_general,
    solve_xk_specialized,
)

INTERPRETATIONS = ("literal", "corrected")

VERDICT_NOT_INTEGRABLE = "NotRationallyIntegrable"
VERDICT_INCONCLUSIVE = "Inconclusive"
REASON_H1_FAILED = "H1Failed"
REASON_ALL_ELEMENTARY = "AllOrdersElementary"

# highest order an analysis may be asked for: the betas and the order-k
# solutions grow with k, and on the tower field (x^2 - 67/89*y, y*(x + 1))
# k_max 200 takes about 0.3 s of analysis and 0.8 s with printing its 18 MB
# (Python 3.11 on a shared 2-core x86-64 machine)
MAX_KMAX = 200


class SolverDisagreementError(RuntimeError):
    """The two independent deciders returned different answers."""


@dataclass(frozen=True)
class H1Report:
    """Outcome of the first obstruction hypothesis on alpha = R/S.

    holds = (high-order finite pole OR degree condition) AND integer residues.
    The degree clause compares deg R against deg S in the direction selected
    by ``interpretation``: "literal" tests deg R <= deg S, "corrected" tests
    deg R >= deg S.  ``pole_factors`` records where the finite poles sit
    (squarefree factor of the denominator, pole order).
    """

    has_high_order_finite_pole: bool
    degree_condition: bool
    residues_all_integer: bool
    interpretation: str
    pole_factors: tuple[tuple[str, int], ...] = ()

    @property
    def holds(self) -> bool:
        return (
            self.has_high_order_finite_pole or self.degree_condition
        ) and self.residues_all_integer


@dataclass(frozen=True)
class Verdict:
    status: str
    k: int | None = None
    reason: str | None = None
    k_max: int | None = None

    @classmethod
    def not_integrable(cls, k: int) -> "Verdict":
        return cls(VERDICT_NOT_INTEGRABLE, k=k)

    @classmethod
    def h1_failed(cls) -> "Verdict":
        return cls(VERDICT_INCONCLUSIVE, reason=REASON_H1_FAILED)

    @classmethod
    def all_elementary(cls, k_max: int) -> "Verdict":
        return cls(VERDICT_INCONCLUSIVE, reason=REASON_ALL_ELEMENTARY, k_max=k_max)


@dataclass(frozen=True)
class OrderRecord:
    """One decided order: the order-k equation and its outcome; the order
    obstructs (``holds``) iff the equation has no rational solution."""

    equation: RischEquation
    outcome: RischOutcome

    @property
    def k(self) -> int:
        return self.equation.order

    @property
    def holds(self) -> bool:
        return not self.outcome.has_rational_solution


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable transcript of an analysis run."""

    field: PlanarField
    transformed: PlanarField | None
    curve: RatFunc
    chart: str  # "original" | "infinity"
    swapped: bool
    h1: H1Report
    orders: tuple[OrderRecord, ...]
    verdict: Verdict

    def to_dict(self) -> dict:
        # every order's equation holds the one alpha
        alpha = self.orders[0].equation.alpha.to_str() if self.orders else ""
        d = {
            "field": {"p": self.field.p.to_str(), "q": self.field.q.to_str()},
            "curve": self.curve.to_str(),
            "chart": self.chart,
            "swapped": self.swapped,
            "h1": {
                "holds": self.h1.holds,
                "has_high_order_finite_pole": self.h1.has_high_order_finite_pole,
                "degree_condition": self.h1.degree_condition,
                "residues_all_integer": self.h1.residues_all_integer,
                "interpretation": self.h1.interpretation,
                "poles": [
                    {"factor": factor, "order": order}
                    for factor, order in self.h1.pole_factors
                ],
            },
            "orders": [
                {
                    "k": rec.k,
                    "alpha": alpha,
                    "beta": rec.equation.b.to_str(),
                    "outcome": _outcome_dict(rec.outcome),
                }
                for rec in self.orders
            ],
            "verdict": _verdict_dict(self.verdict),
        }
        if self.transformed is not None:
            d["transformed"] = {
                "p": self.transformed.p.to_str(),
                "q": self.transformed.q.to_str(),
            }
        return d


def canonical_json(report: dict) -> str:
    """The one canonical JSON form of a report: sorted keys, no spaces."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _outcome_dict(outcome: RischOutcome) -> dict:
    d: dict = {
        "status": "RationalSolution" if outcome.has_rational_solution else "NoRationalSolution",
        "solver": outcome.solver,
    }
    if outcome.solution is not None:
        d["solution"] = outcome.solution.to_str()
    if outcome.case is not None:
        d["case"] = outcome.case
    if outcome.reason is not None:
        d["reason"] = outcome.reason
    return d


def _verdict_dict(verdict: Verdict) -> dict:
    d: dict = {"status": verdict.status}
    if verdict.k is not None:
        d["k"] = verdict.k
    if verdict.reason is not None:
        d["reason"] = verdict.reason
    if verdict.k_max is not None:
        d["k_max"] = verdict.k_max
    return d


def check_h1(alpha: RatFunc, interpretation: str, alpha_residues: ResidueReport) -> H1Report:
    """Evaluate the first hypothesis on alpha.  ``alpha_residues`` is
    ``residues(alpha)``, which carries the squarefree split of alpha's
    denominator."""
    if interpretation not in INTERPRETATIONS:
        raise InputError(f"unknown interpretation {interpretation!r}")
    den = alpha.den
    factors = alpha_residues.split
    high_pole = any(m >= 2 for _, m in factors)
    if interpretation == "literal":
        degree_condition = alpha.num.degree <= den.degree
    else:
        degree_condition = alpha.num.degree >= den.degree
    return H1Report(
        high_pole,
        degree_condition,
        alpha_residues.all_integer,
        interpretation,
        tuple((q.to_str(), m) for q, m in factors),
    )


def check_hk(
    alpha: RatFunc,
    beta_k: RatFunc,
    k: int,
    alpha_residues: ResidueReport | None = None,
) -> OrderRecord:
    """Order-k obstruction: the record of the order-k equation, which holds
    iff the equation has no rational solution.  Both deciders run whenever
    the equation fits the power-pole shape; any disagreement is a fatal
    internal error.

    ``alpha_residues`` is ``residues(alpha)`` when the caller already has
    it.  The residues of the order-k coefficient (k-1)*alpha are alpha's
    scaled by k-1 and its denominator is alpha's, so one report, with its
    one split, serves every order."""
    eq = build_risch(alpha, beta_k, k)
    if alpha_residues is None:
        alpha_residues = residues(alpha)
    general = solve_general(eq, alpha_residues=alpha_residues)
    outcome = general
    inst = match_kaltofen(eq)
    if inst is not None:
        special = solve_xk_specialized(inst)
        if special.has_rational_solution != general.has_rational_solution:
            raise SolverDisagreementError(
                f"existence disagreement at order {k}: "
                f"specialized={special.has_rational_solution} general={general.has_rational_solution}"
            )
        if special.has_rational_solution and special.solution != general.solution:
            raise SolverDisagreementError(f"distinct solutions at order {k}")
        outcome = special
    return OrderRecord(eq, outcome)


def analyze(
    field: PlanarField,
    phi: RatFunc,
    k_max: int,
    at_infinity: bool = False,
    interpretation: str = "literal",
) -> Certificate:
    """Run the full decision procedure and return its certificate."""
    if k_max < 2:
        raise InputError("k_max must be >= 2")
    if k_max > MAX_KMAX:
        raise InputError(f"k_max must be <= {MAX_KMAX}, got {k_max}")
    chart = "original"
    swapped = False
    transformed: PlanarField | None = None
    work = field
    if at_infinity:
        if work.p.is_zero:
            work = work.swap_roles()
            swapped = True
        work = infinity_transform(work)
        transformed = work
        chart = "infinity"
    # raises InputError when the curve is not invariant for the field
    betas = foliation_derivatives(work, phi, k_max)
    alpha = betas[0]
    alpha_residues = residues(alpha)
    h1 = check_h1(alpha, interpretation, alpha_residues)
    orders: list[OrderRecord] = []
    if not h1.holds:
        verdict = Verdict.h1_failed()
    else:
        verdict = Verdict.all_elementary(k_max)
        for k in range(2, k_max + 1):
            record = check_hk(alpha, betas[k - 1], k, alpha_residues)
            orders.append(record)
            if record.holds:
                verdict = Verdict.not_integrable(k)
                break
    return Certificate(
        field=field,
        transformed=transformed,
        curve=phi,
        chart=chart,
        swapped=swapped,
        h1=h1,
        orders=tuple(orders),
        verdict=verdict,
    )
