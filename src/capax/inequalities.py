"""One checker per inequality: verify hypotheses, compute both sides,
report verdict and slack.

Every report is orientation-normalized so that "holds" means lhs <= rhs;
inequalities stated the other way round are flipped internally and the
flip recorded in the report extra.  Hypothesis failures never suppress the
numeric computation: the falsifier needs both sides either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .capacity import (Capacity, check_subadditive, check_submodular,
                       make_sup_capacity, normalize)
from .dependence import (check_positive_dependence, is_comonotone,
                         make_uniform_example)
from .integrals import (SampleFunction, choquet, from_formula,
                        generalized_sugeno, pointwise, power, sample_function,
                        shilkret)
from .operators import (AggOperator, OperatorSystem, check_chebyshev_condition,
                        check_power_condition, lukasiewicz_op, min_op, prod_op)
from .xreal import INF, UNIT, DegenerateInputError, DomainError, xmul, xpow

REL_TOL = 1e-9
EQUALITY_SPREAD_TOL = 1e-9


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class InequalityReport:
    theorem: str
    hypotheses: list[HypothesisCheck]
    lhs: float
    rhs: float
    holds: bool
    slack: float
    degenerate: Optional[str] = None
    extra: dict = field(default_factory=dict)

    @property
    def hypotheses_pass(self) -> bool:
        return all(h.passed for h in self.hypotheses)


def _slack(lhs: float, rhs: float) -> float:
    if math.isinf(rhs):
        return 0.0 if math.isinf(lhs) else INF
    if math.isinf(lhs):
        return -INF
    return rhs - lhs


def _report(theorem, hypotheses, lhs, rhs, rtol=REL_TOL,
            degenerate=None, extra=None) -> InequalityReport:
    slack = _slack(lhs, rhs)
    tol = rtol * max(1.0, abs(rhs) if math.isfinite(rhs) else 1.0)
    holds = degenerate is None and slack >= -tol
    return InequalityReport(theorem, hypotheses, lhs, rhs, holds, slack,
                            degenerate=degenerate, extra=extra or {})


# ---------------------------------------------------------------------------
# cached operator-condition samplers (scenario-independent, so one run per
# operator/system suffices for a whole audit).  A verdict is keyed by what
# its sampler reads: the domain and the vectorized operators, by identity.
# The built-in operators share module-level functions, so each built-in
# has one key; every table_op has its own.

_POWER_CACHE: dict = {}
_CHEB_CACHE: dict = {}


def _power_ok(op: AggOperator, s: float) -> HypothesisCheck:
    key = (op.vec, op.domain, float(s))
    if key not in _POWER_CACHE:
        _POWER_CACHE[key] = check_power_condition(op, [s], seed=7)
    rep = _POWER_CACHE[key]
    return HypothesisCheck(f"power_condition[{op.name},s={s}]", rep.holds_on_grid,
                           detail=f"{len(rep.violations)} grid violations")


def _cheb_ok(system: OperatorSystem) -> HypothesisCheck:
    key = (system.domain, system.circ.vec, system.box.vec, system.tri.vec,
           system.lhd.vec)
    if key not in _CHEB_CACHE:
        _CHEB_CACHE[key] = check_chebyshev_condition(system, seed=7)
    rep = _CHEB_CACHE[key]
    return HypothesisCheck(f"chebyshev_condition[{system.name}]", rep.holds_on_grid,
                           detail=f"{len(rep.violations)} grid violations")


def _gs(f, c, A, op) -> float:
    return generalized_sugeno(f, c, A, op).value


def _ch(f, c, A) -> float:
    return choquet(f, c, A).value


def _posdep_hyp(name, f, A, g, B, c, tri) -> HypothesisCheck:
    rep = check_positive_dependence(f, A, g, B, c, tri)
    return HypothesisCheck(name, rep.holds,
                           detail=f"worst margin {rep.slack:.3g}")


def _comono_hyp(name, f, g) -> HypothesisCheck:
    rep = is_comonotone(f, g)
    return HypothesisCheck(name, rep.holds,
                           detail="" if rep.holds else f"witness {rep.witness}")


# ---------------------------------------------------------------------------
# generalized Sugeno inequalities


def jensen_sugeno(f: SampleFunction, c: Capacity, A: Optional[int],
                  op: AggOperator, s: float) -> InequalityReport:
    """Power-mean bound (int f)**s <= int f**s for the generalized Sugeno
    integral (stated with >= in the source orientation; flipped here)."""
    if s < 1:
        raise DomainError("jensen requires s >= 1")
    if A is None:
        A = f.space.full_mask
    base = _gs(f, c, A, op)
    lhs = xpow(base, s)
    rhs = _gs(power(f, s), c, A, op)
    if op.name == "min":
        hyp = [HypothesisCheck("sugeno_integral_le_1", base <= 1.0 + 1e-15,
                               detail=f"int f = {base:.6g}")]
    else:
        hyp = [_power_ok(op, s)]
    return _report("jensen_sugeno", hyp, lhs, rhs,
                   extra={"flipped_orientation": True, "s": s})


def chebyshev_sugeno(system: OperatorSystem, f1: SampleFunction,
                     f2: SampleFunction, A: int, B: int,
                     c: Capacity) -> InequalityReport:
    """Chebyshev-type bound: the lhd-combination of marginal integrals is
    dominated by the integral of the box-combination on A n B."""
    lhs = system.lhd(_gs(f1, c, A, system.circ), _gs(f2, c, B, system.circ))
    rhs = _gs(pointwise(system.box, f1, f2), c, A & B, system.circ)
    hyp = [_cheb_ok(system),
           _posdep_hyp("positive_dependence[f1,f2]", f1, A, f2, B, c, system.tri)]
    return _report("chebyshev_sugeno", hyp, lhs, rhs,
                   extra={"flipped_orientation": True})


def carlson_sugeno(system: OperatorSystem, f: SampleFunction,
                   g: SampleFunction, h: SampleFunction, A: int, B: int,
                   c: Capacity) -> InequalityReport:
    """Carlson-type bound for the generalized Sugeno integral over an
    operator system with exponents (p, q, r, s)."""
    p, q, r, s = system.p, system.q, system.r, system.s
    If = _gs(f, c, A, system.circ)
    Ig = _gs(g, c, B, system.circ)
    Ih = _gs(h, c, B, system.circ)
    Ipg = _gs(power(pointwise(system.box, f, g), p), c, A & B, system.circ)
    Iqh = _gs(power(pointwise(system.box, f, h), q), c, A & B, system.circ)
    # one call per operator: lhd over (If, Ig), (If, Ih); star over the
    # lhs pair and the rhs pair
    fg, fh = system.lhd.vec([If, If], [Ig, Ih]).tolist()
    lhs, rhs = system.star.vec([xpow(fg, r), xpow(Ipg, r / p)],
                               [xpow(fh, s), xpow(Iqh, s / q)]).tolist()
    hyp = [
        _power_ok(system.circ, p),
        _power_ok(system.circ, q),
        _cheb_ok(system),
        _posdep_hyp("positive_dependence[f,g]", f, A, g, B, c, system.tri),
        _posdep_hyp("positive_dependence[f,h]", f, A, h, B, c, system.tri),
    ]
    return _report(f"carlson_sugeno[{system.name}]", hyp, lhs, rhs,
                   extra={"If": If, "Ig": Ig, "Ih": Ih,
                          "Ipg": Ipg, "Iqh": Iqh})


def _sugeno_product_system(p: float, q: float, r: float, s: float) -> OperatorSystem:
    mn, pr = min_op(), prod_op()
    return OperatorSystem("min_prod", circ=mn, box=pr, star=pr, lhd=pr, tri=mn,
                          p=p, q=q, r=r, s=s)


def carlson_sugeno_xu(f, g, h, A: int, c: Capacity, p: float,
                      q: float) -> InequalityReport:
    """Sugeno specialization with r = s = 1: the display form divides by
    C = (int g)(int h), so C = 0 is reported as degenerate."""
    rep = carlson_sugeno(_sugeno_product_system(p, q, 1.0, 1.0), f, g, h, A, A, c)
    C = rep.extra["Ig"] * rep.extra["Ih"]
    extra = dict(rep.extra, C=C)
    degenerate = None
    if C <= 0:
        degenerate = "C = (int g)(int h) = 0"
    else:
        extra["display_lhs"] = rep.extra["If"]
        extra["display_rhs"] = (C**-0.5 * xpow(rep.extra["Ipg"], 1 / (2 * p))
                                * xpow(rep.extra["Iqh"], 1 / (2 * q)))
    out = _report("carlson_sugeno_xu", rep.hypotheses, rep.lhs, rep.rhs,
                  degenerate=degenerate, extra=extra)
    return out


def carlson_sugeno_wang(f, g, h, A: int, c: Capacity, p: float,
                        q: float) -> InequalityReport:
    """Sugeno specialization with r = p/(p+q), s = 1 - r; the display form
    divides by K = (int g)**(p/(p+q)) (int h)**(q/(p+q))."""
    r = p / (p + q)
    rep = carlson_sugeno(_sugeno_product_system(p, q, r, 1.0 - r), f, g, h, A, A, c)
    K = xpow(rep.extra["Ig"], p / (p + q)) * xpow(rep.extra["Ih"], q / (p + q))
    extra = dict(rep.extra, K=K)
    degenerate = None
    if K <= 0:
        degenerate = "K = 0 (a normalizing integral vanishes)"
    else:
        extra["display_lhs"] = rep.extra["If"]
        extra["display_rhs"] = (xpow(rep.extra["Ipg"], 1 / (p + q))
                                * xpow(rep.extra["Iqh"], 1 / (p + q)) / K)
    return _report("carlson_sugeno_wang", rep.hypotheses, rep.lhs, rep.rhs,
                   degenerate=degenerate, extra=extra)


def shilkret_carlson_example(f: SampleFunction, A: Optional[int],
                             c: Capacity) -> InequalityReport:
    """Shilkret-integral Carlson bound for a nondecreasing function on a
    coordinate-bearing space, with K = mu(A) * N(x)."""
    x = from_formula(f.space, "x", f.range if f.space.coord_array().max() <= 1 else None)
    if np.any(np.diff(f.values) < 0):
        raise DomainError("shilkret example requires f nondecreasing along coordinates")
    if A is None:
        A = f.space.full_mask
    N = lambda fn: shilkret(fn, c, A).value
    K = c(A) * N(x)
    hyp = [_comono_hyp("comonotone[f,x]", f, x)]
    if K <= 0:
        return _report("shilkret_carlson_example", hyp, math.nan, math.nan,
                       degenerate="K = mu(A) N(x) = 0")
    lhs = N(f)
    rhs = (K**-0.5 * xpow(N(power(f, 2.0)), 0.25)
           * xpow(N(pointwise(prod_op(f.range), power(x, 2.0), power(f, 2.0))), 0.25))
    return _report("shilkret_carlson_example", hyp, lhs, rhs, extra={"K": K})


def lukasiewicz_carlson_example(phi_id: str, psi_id: str, n: int,
                                p: float, q: float) -> InequalityReport:
    """Uniform-driver scenario: Shilkret integrals, Lukasiewicz dependence,
    with the product for circ and star."""
    f, h, P = make_uniform_example(phi_id, psi_id, n)
    luk, pr = lukasiewicz_op(), prod_op()
    system = OperatorSystem("luk_example", circ=pr, box=luk, star=pr,
                            lhd=luk, tri=luk, p=p, q=q, r=1.0, s=1.0)
    X = f.space.full_mask
    one = sample_function(f.space, np.ones(f.space.n), UNIT)
    rep = carlson_sugeno(system, f, one, h, X, X, P)
    rep.theorem = "lukasiewicz_carlson_example"
    rep.extra.update(phi=phi_id, psi=psi_id, n=n)
    return rep


# ---------------------------------------------------------------------------
# Choquet inequalities


def jensen_choquet(f: SampleFunction, c: Capacity, A: Optional[int],
                   exponent: float) -> InequalityReport:
    """(int f dm)**c <= int f**c dm for the normalized capacity m."""
    if exponent < 1:
        raise DomainError("jensen requires exponent >= 1")
    if A is None:
        A = f.space.full_mask
    try:
        m = normalize(c, A)
    except DegenerateInputError as e:
        return _report("jensen_choquet", [], math.nan, math.nan, degenerate=str(e))
    lhs = xpow(_ch(f, m, A), exponent)
    rhs = _ch(power(f, exponent), m, A)
    return _report("jensen_choquet", [], lhs, rhs, extra={"exponent": exponent})


def chebyshev_choquet(f: SampleFunction, g: SampleFunction, c: Capacity,
                      A: Optional[int]) -> InequalityReport:
    """int f dm * int g dm <= int fg dm for comonotone f, g (flipped from
    the source orientation)."""
    if A is None:
        A = f.space.full_mask
    hyp = [_comono_hyp("comonotone[f,g]", f, g)]
    try:
        m = normalize(c, A)
    except DegenerateInputError as e:
        return _report("chebyshev_choquet", hyp, math.nan, math.nan,
                       degenerate=str(e))
    lhs = xmul(_ch(f, m, A), _ch(g, m, A))
    rhs = _ch(pointwise(prod_op(f.range), f, g), m, A)
    return _report("chebyshev_choquet", hyp, lhs, rhs,
                   extra={"flipped_orientation": True})


def carlson_choquet_comonotone(f, g, h, A: Optional[int], c: Capacity,
                               p: float, q: float, r: float,
                               s: float) -> InequalityReport:
    """Carlson bound for the Choquet integral of comonotone pairs (f,g),
    (f,h), with constant K and measure exponent d."""
    if p < 1 or q < 1 or r <= 0 or s <= 0:
        raise DomainError("need p,q >= 1 and r,s > 0")
    if A is None:
        A = f.space.full_mask
    hyp = [_comono_hyp("comonotone[f,g]", f, g),
           _comono_hyp("comonotone[f,h]", f, h)]
    muA = c(A)
    If = _ch(f, c, A)
    hyp.append(HypothesisCheck("f_integrable", math.isfinite(If),
                               detail=f"int f = {If:.6g}"))
    Ig, Ih = _ch(g, c, A), _ch(h, c, A)
    degenerate = None
    if not (0 < muA < INF):
        degenerate = f"mu(A) = {muA} outside (0, inf)"
    elif Ig <= 0 or Ih <= 0 or math.isinf(Ig) or math.isinf(Ih):
        degenerate = f"normalizing integrals int g = {Ig}, int h = {Ih}"
    if degenerate:
        return _report("carlson_choquet_comonotone", hyp, If, math.nan,
                       degenerate=degenerate)
    K = Ig ** (-r / (r + s)) * Ih ** (-s / (r + s))
    d = 2.0 - (r / p + s / q) / (r + s)
    pr = prod_op(f.range)
    Ipg = _ch(power(pointwise(pr, f, g), p), c, A)
    Iqh = _ch(power(pointwise(pr, f, h), q), c, A)
    rhs = K * muA**d * xpow(Ipg, r / (p * (r + s))) * xpow(Iqh, s / (q * (r + s)))
    extra = {"K": K, "d": d, "mu_A": muA, "Ig": Ig, "Ih": Ih}
    if r == s and np.allclose(g.values, 1.0):
        # squared display form of the g = 1, r = s specialization
        Ifp = _ch(power(f, p), c, A)
        extra["ouyang_lhs"] = If**2
        extra["ouyang_rhs"] = (muA ** (3.0 - (1 / p + 1 / q)) / Ih
                               * xpow(Ifp, 1 / p) * xpow(Iqh, 1 / q))
    return _report("carlson_choquet_comonotone", hyp, If, rhs, extra=extra)


def sharpness_demo(f, g, h, A: Optional[int], r: float,
                   s: float) -> InequalityReport:
    """Under the capacity assigning 1 to every nonempty set, the Carlson
    bound reduces to suprema and comonotone triples attain equality."""
    if A is None:
        A = f.space.full_mask
    c = make_sup_capacity(f.space)
    hyp = [_comono_hyp("comonotone[f,g]", f, g),
           _comono_hyp("comonotone[f,h]", f, h)]
    pr = prod_op(f.range)
    sf, sg, sh = _ch(f, c, A), _ch(g, c, A), _ch(h, c, A)
    if sg <= 0 or sh <= 0:
        return _report("sharpness_demo", hyp, sf, math.nan,
                       degenerate=f"sup g = {sg}, sup h = {sh}")
    sfg = _ch(pointwise(pr, f, g), c, A)
    sfh = _ch(pointwise(pr, f, h), c, A)
    rhs = (sg ** (-r / (r + s)) * sh ** (-s / (r + s))
           * xpow(sfg, r / (r + s)) * xpow(sfh, s / (r + s)))
    return _report("sharpness_demo", hyp, sf, rhs,
                   extra={"sup_f": sf, "sup_g": sg, "sup_h": sh})


def holder_choquet(phi, psi, c: Capacity, A: Optional[int],
                   p: float) -> InequalityReport:
    """int phi psi <= (int phi**p)**(1/p) (int psi**q)**(1/q) for a
    submodular capacity, 1/p + 1/q = 1."""
    if p <= 1:
        raise DomainError("holder requires p > 1")
    q = p / (p - 1)
    if A is None:
        A = phi.space.full_mask
    sub = check_submodular(c)
    hyp = [HypothesisCheck("submodular", sub.holds,
                           detail=f"mode={sub.mode}, slack={sub.slack:.3g}")]
    lhs = _ch(pointwise(prod_op(phi.range), phi, psi), c, A)
    rhs = xmul(xpow(_ch(power(phi, p), c, A), 1 / p),
               xpow(_ch(power(psi, q), c, A), 1 / q))
    return _report("holder_choquet", hyp, lhs, rhs, extra={"q": q})


@dataclass
class HpqResult:
    value: float
    degenerate: Optional[str] = None
    inner_integral: float = math.nan


def h_pq(a: float, b: float, g: SampleFunction, h: SampleFunction,
         A: Optional[int], c: Capacity, p: float) -> HpqResult:
    """H(a, b) = (ab)**(1/p) * (int (bg + ah)**(1-q) dmu)**(1/q) with q
    conjugate to p.  A vanishing bg + ah on positive measure makes the
    inner integral infinite; ab = 0 against an infinite inner integral is
    flagged degenerate."""
    if p <= 1:
        raise DomainError("H_pq requires p > 1")
    if a < 0 or b < 0:
        raise DomainError("H_pq requires a, b >= 0")
    q = p / (p - 1)
    if A is None:
        A = g.space.full_mask
    if a == 0.0 and b == 0.0:
        return HpqResult(0.0, degenerate="a = b = 0")
    if math.isinf(a) or math.isinf(b):
        return HpqResult(INF, inner_integral=math.nan)
    denom = b * g.values + a * h.values
    with np.errstate(divide="ignore"):
        vals = np.where(denom == 0, INF, denom ** (1.0 - q))
    inner = choquet(sample_function(g.space, vals), c, A).value
    ab = a * b
    if ab == 0.0:
        if math.isinf(inner):
            return HpqResult(0.0, degenerate="ab = 0 against infinite inner integral",
                             inner_integral=inner)
        return HpqResult(0.0, degenerate="ab = 0", inner_integral=inner)
    value = xmul(xpow(ab, 1 / p), xpow(inner, 1 / q))
    return HpqResult(value, inner_integral=inner)


def _hpq_report(theorem: str, multiplier: float, hyp, f, g, h, A, c,
                p: float, extra=None) -> InequalityReport:
    if A is None:
        A = f.space.full_mask
    pr = prod_op(f.range)
    a = _ch(pointwise(pr, g, power(f, p)), c, A)
    b = _ch(pointwise(pr, h, power(f, p)), c, A)
    H = h_pq(a, b, g, h, A, c, p) if (a > 0 or b > 0) else HpqResult(
        0.0, degenerate="both inner integrals are 0")
    lhs = _ch(f, c, A)
    extra = dict(extra or {}, a=a, b=b, H=H.value, multiplier=multiplier,
                 inner_integral=H.inner_integral)
    if H.degenerate:
        return _report(theorem, hyp, lhs, math.nan, degenerate=H.degenerate,
                       extra=extra)
    return _report(theorem, hyp, lhs, multiplier * H.value, extra=extra)


def carlson_choquet_submodular(f, g, h, A: Optional[int], c: Capacity,
                               p: float) -> InequalityReport:
    """int f <= 2**(1/p) H(int g f**p, int h f**p) for submodular mu."""
    if p <= 1:
        raise DomainError("requires p > 1")
    q = p / (p - 1)
    sub = check_submodular(c)
    hyp = [HypothesisCheck("submodular", sub.holds,
                           detail=f"mode={sub.mode}, slack={sub.slack:.3g}")]
    rep = _hpq_report("carlson_choquet_submodular", 2.0 ** (1 / p), hyp,
                      f, g, h, A, c, p)
    # equality condition: (g b + h a)**q f**p constant over {f > 0}
    a, b = rep.extra["a"], rep.extra["b"]
    if math.isfinite(a) and math.isfinite(b):
        mask = f.values > 0
        if mask.any():
            expr = (g.values[mask] * b + h.values[mask] * a) ** q * f.values[mask] ** p
            spread = float(expr.max() - expr.min())
            scale = max(abs(float(expr.max())), 1.0)
            rep.extra["equality_condition"] = spread <= EQUALITY_SPREAD_TOL * scale
        else:
            rep.extra["equality_condition"] = True
    return rep


def carlson_choquet_subadditive(f, g, h, A: Optional[int], c: Capacity,
                                p: float) -> InequalityReport:
    """int f <= 4**(1/p) (1/sqrt(p) + 1/sqrt(q))**2 H(...) for subadditive
    mu on a coordinate-bearing ([0, inf]-indexed) space."""
    if p <= 1:
        raise DomainError("requires p > 1")
    q = p / (p - 1)
    sub = check_subadditive(c)
    hyp = [HypothesisCheck("subadditive", sub.holds,
                           detail=f"mode={sub.mode}, slack={sub.slack:.3g}"),
           HypothesisCheck("coordinate_space", f.space.coords is not None,
                           detail="restriction recorded, not interpreted")]
    mult = 4.0 ** (1 / p) * (p**-0.5 + q**-0.5) ** 2
    rep = _hpq_report("carlson_choquet_subadditive", mult, hyp, f, g, h, A, c, p)

    if A is None:
        A = f.space.full_mask
    pr = prod_op(f.range)
    # the two auxiliary inequalities the subadditive proof route relies on,
    # evaluated on the same inputs
    sh_lhs = _ch(pointwise(pr, f, g), c, A)
    sh_rhs = ((p**-0.5 + q**-0.5) ** 2
              * xmul(xpow(_ch(power(f, p), c, A), 1 / p),
                     xpow(_ch(power(g, q), c, A), 1 / q)))
    db_lhs = _ch(sample_function(f.space, f.values + g.values), c, A)
    db_rhs = 2.0 * (_ch(f, c, A) + _ch(g, c, A))
    rep.extra["aux_holder_variant"] = {"lhs": sh_lhs, "rhs": sh_rhs,
                                       "holds": _slack(sh_lhs, sh_rhs) >= -REL_TOL * max(1.0, abs(sh_rhs))}
    rep.extra["aux_doubling"] = {"lhs": db_lhs, "rhs": db_rhs,
                                 "holds": _slack(db_lhs, db_rhs) >= -REL_TOL * max(1.0, abs(db_rhs))}
    return rep


# ---------------------------------------------------------------------------
# impossibility of a universal constant


def impossibility_demo(g: SampleFunction, h: SampleFunction,
                       t_indices: Optional[Sequence[int]] = None) -> list[dict]:
    """Required constant per test point t: with the all-ones capacity and f
    the indicator of t, the bound forces c >= (g(t)h(t))**(-1/4), which is
    unbounded as g h approaches 0."""
    if g.space.n != h.space.n:
        raise DomainError("g and h must share a space")
    if t_indices is None:
        t_indices = range(g.space.n)
    rows = []
    for t in t_indices:
        gh = float(g.values[t] * h.values[t])
        required = INF if gh == 0 else gh**-0.25
        row = {"t": int(t), "gh": gh, "required_c": required}
        if g.space.coords is not None:
            row["coord"] = float(g.space.coords[t])
        rows.append(row)
    return rows
