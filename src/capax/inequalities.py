"""One checker per inequality: verify hypotheses, compute both sides,
report verdict and slack.

Every report is orientation-normalized so that "holds" means lhs <= rhs;
inequalities stated the other way round are flipped internally and the
flip recorded in the report extra.  Hypothesis failures never suppress the
numeric computation: the falsifier needs both sides either way.

Each audited checker has a row form (``carlson_sugeno_rows`` and so on)
that takes stacks and returns one report per row; its single-scenario
form is a stack of one row.  The report algebra stays in Python floats,
row by row.  A row checker runs its kernels on the whole stack and
decides each degenerate row (mu(A) in {0, inf}, a vanishing normalizer,
a = b = 0 in H_pq) as it builds that row's report, from the values the
stack computed: every kernel gives a row what it gives alone, so no row's
report depends on its neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .capacity import NORMALIZE_DEGENERATE, Capacity, CapacityStack, check_rows, make_sup_capacity
from .dependence import (comonotone_rows, level_dependence_rows, level_ranks,
                         uniform_example_rows)
from .integrals import (SampleFunction, choquet_rows,
                        generalized_sugeno_rows, one_row, pointwise_rows, power_rows)
from .operators import (AggOperator, OperatorSystem, check_chebyshev_condition,
                        check_power_condition, lukasiewicz_op, min_op, prod_op,
                        rows_pow, rows_vec)
from .xreal import EXTENDED, INF, UNIT, DomainError, xmul, xpow

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
    """rhs - lhs, except that equal infinite sides tie at 0: a NaN side
    gives NaN, and +inf against -inf gives -inf."""
    return 0.0 if math.isinf(lhs) and lhs == rhs else rhs - lhs


def slack_tol(rhs: float) -> float:
    """How far below zero a slack may fall and the verdict still hold:
    REL_TOL relative to a finite rhs, and never less than REL_TOL.  A NaN
    slack passes no comparison, so it neither holds nor violates."""
    return REL_TOL * max(1.0, abs(rhs) if math.isfinite(rhs) else 1.0)


def _report(theorem, hypotheses, lhs, rhs, degenerate=None,
            extra=None) -> InequalityReport:
    slack = _slack(lhs, rhs)
    holds = degenerate is None and slack >= -slack_tol(rhs)
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
                           detail=f"{rep.violation_count} grid violations")


def _cheb_ok(system: OperatorSystem) -> HypothesisCheck:
    key = (system.domain, system.circ.vec, system.box.vec, system.tri.vec,
           system.lhd.vec)
    if key not in _CHEB_CACHE:
        _CHEB_CACHE[key] = check_chebyshev_condition(system, seed=7)
    rep = _CHEB_CACHE[key]
    return HypothesisCheck(f"chebyshev_condition[{system.name}]", rep.holds_on_grid,
                           detail=f"{rep.violation_count} grid violations")


def _gs(F, A, C, ops) -> list:
    return generalized_sugeno_rows(F, A, C, ops).value.tolist()


def _ch(F, A, C) -> list:
    return choquet_rows(F, A, C)[0].tolist()


def _apply(ops, a, b) -> list:
    return rows_vec(ops, a, b).tolist()


_PROD = {True: prod_op(UNIT), False: prod_op(EXTENDED)}


def _times(F, G):
    """The pointwise product f g per row."""
    return pointwise_rows([prod_op()] * len(F.n), F, G)


def _posdep_hyps(name, f, g, C, tris) -> list:
    """Positive dependence per row from the sides' ``level_ranks``."""
    rows = level_dependence_rows(f, g, C, tris)
    return [HypothesisCheck(name, holds, detail=f"worst margin {w:.3g}")
            for holds, w in zip(rows.holds, rows.slack)]


def _comono_hyps(name, F, G) -> list:
    holds, witnesses = comonotone_rows(F, G)
    return [HypothesisCheck(name, ok, detail="" if ok else f"witness {w}")
            for ok, w in zip(holds.tolist(), witnesses)]


# ---------------------------------------------------------------------------
# generalized Sugeno inequalities
#
# Each checker runs on stacks of rows (``*_rows``, one report per row) and
# its single-scenario form is a stack of one row.


def jensen_sugeno_rows(F, C, A, ops, s) -> list:
    if not all(x >= 1 for x in s):  # NaN fails too
        raise DomainError("jensen requires s >= 1")
    base = _gs(F, A, C, ops)
    rhs = _gs(power_rows(F, s), A, C, ops)
    out = []
    for b, r, op, si in zip(base, rhs, ops, s):
        if op.name == "min":
            hyp = [HypothesisCheck("sugeno_integral_le_1", b <= 1.0 + 1e-15,
                                   detail=f"int f = {b:.6g}")]
        else:
            hyp = [_power_ok(op, si)]
        out.append(_report("jensen_sugeno", hyp, xpow(b, si), r,
                           extra={"flipped_orientation": True, "s": si}))
    return out


def jensen_sugeno(f: SampleFunction, c: Capacity, A: Optional[int],
                  op: AggOperator, s: float) -> InequalityReport:
    """Power-mean bound (int f)**s <= int f**s for the generalized Sugeno
    integral (stated with >= in the source orientation; flipped here)."""
    (F,), (A,), C = one_row([f], c, [A])
    return jensen_sugeno_rows(F, C, A, [op], [s])[0]


def chebyshev_sugeno_rows(systems, F1, F2, A, B, C) -> list:
    circ = [s.circ for s in systems]
    lhs = _apply([s.lhd for s in systems], _gs(F1, A, C, circ), _gs(F2, B, C, circ))
    rhs = _gs(pointwise_rows([s.box for s in systems], F1, F2), A & B, C, circ)
    posdep = _posdep_hyps("positive_dependence[f1,f2]", level_ranks(F1, A),
                          level_ranks(F2, B), C, [s.tri for s in systems])
    return [_report("chebyshev_sugeno", [_cheb_ok(s), h], l, r,
                    extra={"flipped_orientation": True})
            for s, h, l, r in zip(systems, posdep, lhs, rhs)]


def chebyshev_sugeno(system: OperatorSystem, f1: SampleFunction,
                     f2: SampleFunction, A: int, B: int,
                     c: Capacity) -> InequalityReport:
    """Chebyshev-type bound: the lhd-combination of marginal integrals is
    dominated by the integral of the box-combination on A n B."""
    (F1, F2), (A, B), C = one_row([f1, f2], c, [A, B])
    return chebyshev_sugeno_rows([system], F1, F2, A, B, C)[0]


def carlson_sugeno_rows(systems, F, G, H, A, B, C) -> list:
    circ = [s.circ for s in systems]
    box = [s.box for s in systems]
    AB = A & B
    If = _gs(F, A, C, circ)
    Ig = _gs(G, B, C, circ)
    Ih = _gs(H, B, C, circ)
    Ipg = _gs(power_rows(pointwise_rows(box, F, G), [s.p for s in systems]), AB, C, circ)
    Iqh = _gs(power_rows(pointwise_rows(box, F, H), [s.q for s in systems]), AB, C, circ)
    lhd = [s.lhd for s in systems]
    fg, fh = _apply(lhd, If, Ig), _apply(lhd, If, Ih)
    star = [s.star for s in systems]
    lhs = _apply(star, [xpow(x, s.r) for x, s in zip(fg, systems)],
                 [xpow(x, s.s) for x, s in zip(fh, systems)])
    rhs = _apply(star, [xpow(x, s.r / s.p) for x, s in zip(Ipg, systems)],
                 [xpow(x, s.s / s.q) for x, s in zip(Iqh, systems)])
    tri = [s.tri for s in systems]
    f = level_ranks(F, A)  # ranked once for both checks
    pg = _posdep_hyps("positive_dependence[f,g]", f, level_ranks(G, B), C, tri)
    ph = _posdep_hyps("positive_dependence[f,h]", f, level_ranks(H, B), C, tri)
    out = []
    for i, s in enumerate(systems):
        hyp = [_power_ok(s.circ, s.p), _power_ok(s.circ, s.q), _cheb_ok(s), pg[i], ph[i]]
        out.append(_report(f"carlson_sugeno[{s.name}]", hyp, lhs[i], rhs[i],
                           extra={"If": If[i], "Ig": Ig[i], "Ih": Ih[i],
                                  "Ipg": Ipg[i], "Iqh": Iqh[i]}))
    return out


def carlson_sugeno(system: OperatorSystem, f: SampleFunction,
                   g: SampleFunction, h: SampleFunction, A: int, B: int,
                   c: Capacity) -> InequalityReport:
    """Carlson-type bound for the generalized Sugeno integral over an
    operator system with exponents (p, q, r, s)."""
    (F, G, H), (A, B), C = one_row([f, g, h], c, [A, B])
    return carlson_sugeno_rows([system], F, G, H, A, B, C)[0]


_MIN_PROD = OperatorSystem("min_prod", circ=min_op(), box=prod_op(), star=prod_op(),
                           lhd=prod_op(), tri=min_op())


def carlson_sugeno_xu_rows(F, G, H, A, C, p, q) -> list:
    systems = [_MIN_PROD.with_exponents(pi, qi, 1.0, 1.0) for pi, qi in zip(p, q)]
    out = []
    for rep, pi, qi in zip(carlson_sugeno_rows(systems, F, G, H, A, A, C), p, q):
        C_ = rep.extra["Ig"] * rep.extra["Ih"]
        extra = dict(rep.extra, C=C_)
        degenerate = None
        if C_ <= 0:
            degenerate = "C = (int g)(int h) = 0"
        else:
            extra["display_lhs"] = rep.extra["If"]
            extra["display_rhs"] = (C_**-0.5 * xpow(rep.extra["Ipg"], 1 / (2 * pi))
                                    * xpow(rep.extra["Iqh"], 1 / (2 * qi)))
        out.append(_report("carlson_sugeno_xu", rep.hypotheses, rep.lhs, rep.rhs,
                           degenerate=degenerate, extra=extra))
    return out


def carlson_sugeno_xu(f, g, h, A: int, c: Capacity, p: float,
                      q: float) -> InequalityReport:
    """Sugeno specialization with r = s = 1: the display form divides by
    C = (int g)(int h), so C = 0 is reported as degenerate."""
    (F, G, H), (A,), C = one_row([f, g, h], c, [A])
    return carlson_sugeno_xu_rows(F, G, H, A, C, [p], [q])[0]


def carlson_sugeno_wang_rows(F, G, H, A, C, p, q) -> list:
    systems = [_MIN_PROD.with_exponents(pi, qi, pi / (pi + qi), 1.0 - pi / (pi + qi))
               for pi, qi in zip(p, q)]
    out = []
    for rep, pi, qi in zip(carlson_sugeno_rows(systems, F, G, H, A, A, C), p, q):
        K = xpow(rep.extra["Ig"], pi / (pi + qi)) * xpow(rep.extra["Ih"], qi / (pi + qi))
        extra = dict(rep.extra, K=K)
        degenerate = None
        if K <= 0:
            degenerate = "K = 0 (a normalizing integral vanishes)"
        else:
            extra["display_lhs"] = rep.extra["If"]
            extra["display_rhs"] = (xpow(rep.extra["Ipg"], 1 / (pi + qi))
                                    * xpow(rep.extra["Iqh"], 1 / (pi + qi)) / K)
        out.append(_report("carlson_sugeno_wang", rep.hypotheses, rep.lhs, rep.rhs,
                           degenerate=degenerate, extra=extra))
    return out


def carlson_sugeno_wang(f, g, h, A: int, c: Capacity, p: float,
                        q: float) -> InequalityReport:
    """Sugeno specialization with r = p/(p+q), s = 1 - r; the display form
    divides by K = (int g)**(p/(p+q)) (int h)**(q/(p+q))."""
    (F, G, H), (A,), C = one_row([f, g, h], c, [A])
    return carlson_sugeno_wang_rows(F, G, H, A, C, [p], [q])[0]


def shilkret_carlson_example_rows(F, A, C) -> list:
    if F.coords is None:
        raise DomainError("space has no coordinates")
    X = F.like(F.coords)
    if ((F.v[:, 1:] < F.v[:, :-1]) & F.valid[:, 1:]).any():
        raise DomainError("shilkret example requires f nondecreasing along coordinates")
    ops = [_PROD[u] for u in C.unit.tolist()]
    K = [m * x for m, x in zip(C.measure(A).tolist(), _gs(X, A, C, ops))]
    hyp = _comono_hyps("comonotone[f,x]", F, X)
    # a row with K <= 0 integrates f = 0, so its values meet no domain check
    F = F.like(np.where(np.array(K)[:, None] > 0, F.v, 0.0))
    f2 = power_rows(F, [2.0] * len(K))
    lhs, Nf2 = _gs(F, A, C, ops), _gs(f2, A, C, ops)
    Nxf = _gs(_times(power_rows(X, [2.0] * len(K)), f2), A, C, ops)
    return [_report("shilkret_carlson_example", [h], l,
                    k**-0.5 * xpow(nf2, 0.25) * xpow(nxf, 0.25), extra={"K": k}) if k > 0
            else _report("shilkret_carlson_example", [h], math.nan, math.nan,
                         degenerate="K = mu(A) N(x) = 0")
            for h, k, l, nf2, nxf in zip(hyp, K, lhs, Nf2, Nxf)]


def shilkret_carlson_example(f: SampleFunction, A: Optional[int],
                             c: Capacity) -> InequalityReport:
    """Shilkret-integral Carlson bound for a nondecreasing function on a
    coordinate-bearing space, with K = mu(A) * N(x)."""
    (F,), (A,), C = one_row([f], c, [A])
    return shilkret_carlson_example_rows(F, A, C)[0]


def lukasiewicz_carlson_example_rows(phi, psi, n, p, q) -> list:
    """Uniform-driver scenarios: Shilkret integrals, Lukasiewicz dependence,
    with the product for circ and star."""
    F, H, caps = uniform_example_rows(phi, psi, n)
    luk, pr = lukasiewicz_op(), prod_op()
    systems = [OperatorSystem("luk_example", circ=pr, box=luk, star=pr,
                              lhd=luk, tri=luk, p=pi, q=qi, r=1.0, s=1.0)
               for pi, qi in zip(p, q)]
    ones = F.like(np.ones_like(F.v))
    out = carlson_sugeno_rows(systems, F, ones, H, F.valid, F.valid, CapacityStack(caps))
    for rep, args in zip(out, zip(phi, psi, n)):
        rep.theorem = "lukasiewicz_carlson_example"
        rep.extra.update(zip(("phi", "psi", "n"), args))
    return out


def lukasiewicz_carlson_example(phi_id: str, psi_id: str, n: int,
                                p: float, q: float) -> InequalityReport:
    """Uniform-driver scenario: Shilkret integrals, Lukasiewicz dependence,
    with the product for circ and star."""
    return lukasiewicz_carlson_example_rows([phi_id], [psi_id], [n], [p], [q])[0]


# ---------------------------------------------------------------------------
# Choquet inequalities


def jensen_choquet_rows(F, C, A, exponent) -> list:
    if not all(e >= 1 for e in exponent):  # NaN fails too
        raise DomainError("jensen requires exponent >= 1")
    M, ok = C.normalize(A)
    lhs, rhs = _ch(F, A, M), _ch(power_rows(F, exponent), A, M)
    return [_report("jensen_choquet", [], xpow(l, e), r, extra={"exponent": e}) if live
            else _report("jensen_choquet", [], math.nan, math.nan,
                         degenerate=NORMALIZE_DEGENERATE)
            for live, l, r, e in zip(ok.tolist(), lhs, rhs, exponent)]


def jensen_choquet(f: SampleFunction, c: Capacity, A: Optional[int],
                   exponent: float) -> InequalityReport:
    """(int f dm)**c <= int f**c dm for the normalized capacity m."""
    (F,), (A,), C = one_row([f], c, [A])
    return jensen_choquet_rows(F, C, A, [exponent])[0]


def chebyshev_choquet_rows(F, G, C, A) -> list:
    hyp = _comono_hyps("comonotone[f,g]", F, G)
    M, ok = C.normalize(A)
    lhs = [xmul(a, b) for a, b in zip(_ch(F, A, M), _ch(G, A, M))]
    rhs = _ch(_times(F, G), A, M)
    return [_report("chebyshev_choquet", [h], l, r, extra={"flipped_orientation": True})
            if live else _report("chebyshev_choquet", [h], math.nan, math.nan,
                                 degenerate=NORMALIZE_DEGENERATE)
            for live, h, l, r in zip(ok.tolist(), hyp, lhs, rhs)]


def chebyshev_choquet(f: SampleFunction, g: SampleFunction, c: Capacity,
                      A: Optional[int]) -> InequalityReport:
    """int f dm * int g dm <= int fg dm for comonotone f, g (flipped from
    the source orientation)."""
    (F, G), (A,), C = one_row([f, g], c, [A])
    return chebyshev_choquet_rows(F, G, C, A)[0]


def carlson_choquet_comonotone_rows(F, G, H, A, C, p, q, r, s) -> list:
    if not all(pi >= 1 and qi >= 1 and ri > 0 and si > 0  # NaN fails too
               for pi, qi, ri, si in zip(p, q, r, s)):
        raise DomainError("need p,q >= 1 and r,s > 0")
    fg = _comono_hyps("comonotone[f,g]", F, G)
    fh = _comono_hyps("comonotone[f,h]", F, H)
    muA = C.measure(A).tolist()
    If, Ig, Ih = _ch(F, A, C), _ch(G, A, C), _ch(H, A, C)
    Ipg = _ch(power_rows(_times(F, G), p), A, C)
    Iqh = _ch(power_rows(_times(F, H), q), A, C)
    # squared display form of the g = 1, r = s specialization
    ones = (np.abs(G.v - 1.0) <= 1e-08 + 1e-05 * 1.0) | ~G.valid  # np.allclose
    ouyang = ([ri == si for ri, si in zip(r, s)] & ones.all(1)).tolist()
    Ifp = _ch(power_rows(F, p), A, C) if any(ouyang) else None
    out = []
    for i, (pi, qi, ri, si) in enumerate(zip(p, q, r, s)):
        hyp = [fg[i], fh[i], HypothesisCheck("f_integrable", math.isfinite(If[i]),
                                             detail=f"int f = {If[i]:.6g}")]
        degenerate = None
        if not (0 < muA[i] < INF):
            degenerate = f"mu(A) = {muA[i]} outside (0, inf)"
        elif Ig[i] <= 0 or Ih[i] <= 0 or math.isinf(Ig[i]) or math.isinf(Ih[i]):
            degenerate = f"normalizing integrals int g = {Ig[i]}, int h = {Ih[i]}"
        if degenerate:
            out.append(_report("carlson_choquet_comonotone", hyp, If[i], math.nan,
                               degenerate=degenerate))
            continue
        K = Ig[i] ** (-ri / (ri + si)) * Ih[i] ** (-si / (ri + si))
        d = 2.0 - (ri / pi + si / qi) / (ri + si)
        rhs = (K * muA[i]**d * xpow(Ipg[i], ri / (pi * (ri + si)))
               * xpow(Iqh[i], si / (qi * (ri + si))))
        extra = {"K": K, "d": d, "mu_A": muA[i], "Ig": Ig[i], "Ih": Ih[i]}
        if ouyang[i]:
            extra["ouyang_lhs"] = If[i]**2
            extra["ouyang_rhs"] = (muA[i] ** (3.0 - (1 / pi + 1 / qi)) / Ih[i]
                                   * xpow(Ifp[i], 1 / pi) * xpow(Iqh[i], 1 / qi))
        out.append(_report("carlson_choquet_comonotone", hyp, If[i], rhs, extra=extra))
    return out


def carlson_choquet_comonotone(f, g, h, A: Optional[int], c: Capacity,
                               p: float, q: float, r: float,
                               s: float) -> InequalityReport:
    """Carlson bound for the Choquet integral of comonotone pairs (f,g),
    (f,h), with constant K and measure exponent d."""
    (F, G, H), (A,), C = one_row([f, g, h], c, [A])
    return carlson_choquet_comonotone_rows(F, G, H, A, C, [p], [q], [r], [s])[0]


def sharpness_demo(f, g, h, A: Optional[int], r: float,
                   s: float) -> InequalityReport:
    """Under the capacity assigning 1 to every nonempty set, the Carlson
    bound reduces to suprema and comonotone triples attain equality."""
    (F, G, H), (A,), C = one_row([f, g, h], make_sup_capacity(f.space), [A])
    hyp = [_comono_hyps("comonotone[f,g]", F, G)[0],
           _comono_hyps("comonotone[f,h]", F, H)[0]]
    (sf,), (sg,), (sh,) = _ch(F, A, C), _ch(G, A, C), _ch(H, A, C)
    if sg <= 0 or sh <= 0:
        return _report("sharpness_demo", hyp, sf, math.nan,
                       degenerate=f"sup g = {sg}, sup h = {sh}")
    (sfg,), (sfh,) = _ch(_times(F, G), A, C), _ch(_times(F, H), A, C)
    rhs = (sg ** (-r / (r + s)) * sh ** (-s / (r + s))
           * xpow(sfg, r / (r + s)) * xpow(sfh, s / (r + s)))
    return _report("sharpness_demo", hyp, sf, rhs,
                   extra={"sup_f": sf, "sup_g": sg, "sup_h": sh})


def _structural_hyps(prop, C) -> list:
    """The structural property ``prop`` per row, its capacities checked together."""
    return [HypothesisCheck(prop, rep.holds, detail=f"mode={rep.mode}, slack={rep.slack:.3g}")
            for rep in check_rows(prop, C.caps)]


def holder_choquet_rows(PHI, PSI, C, A, p) -> list:
    if not all(x > 1 for x in p):  # NaN fails too
        raise DomainError("holder requires p > 1")
    q = [x / (x - 1) for x in p]
    sub = _structural_hyps("submodular", C)
    lhs = _ch(_times(PHI, PSI), A, C)
    a, b = _ch(power_rows(PHI, p), A, C), _ch(power_rows(PSI, q), A, C)
    return [_report("holder_choquet", [h], l,
                    xmul(xpow(ai, 1 / pi), xpow(bi, 1 / qi)), extra={"q": qi})
            for h, l, ai, bi, pi, qi in zip(sub, lhs, a, b, p, q)]


def holder_choquet(phi, psi, c: Capacity, A: Optional[int],
                   p: float) -> InequalityReport:
    """int phi psi <= (int phi**p)**(1/p) (int psi**q)**(1/q) for a
    submodular capacity, 1/p + 1/q = 1."""
    (PHI, PSI), (A,), C = one_row([phi, psi], c, [A])
    return holder_choquet_rows(PHI, PSI, C, A, [p])[0]


@dataclass
class HpqResult:
    value: float
    degenerate: Optional[str] = None
    inner_integral: float = math.nan


def _bg_ah(a, b, G, H):
    """b g + a h per row, with 0 * inf = 0, and with a = b = 0 on a row
    where a or b is infinite: one expression, so that numpy reuses its
    temporaries."""
    a, b = np.array(a)[:, None], np.array(b)[:, None]
    finite = np.isfinite(a) & np.isfinite(b)
    a, b = np.where(finite, a, 0.0), np.where(finite, b, 0.0)
    return b * np.where(b > 0, G, 0.0) + a * np.where(a > 0, H, 0.0)


def h_pq_rows(a, b, G, H, A, C, p) -> list:
    """H(a, b) per row (see ``h_pq``).  The inner integrals are evaluated
    on the whole stack; a row with a = b = 0, or with an infinite a or b,
    is decided from a and b alone (``_bg_ah`` takes a = b = 0 on it)."""
    if not all(x > 1 for x in p):  # NaN fails too
        raise DomainError("H_pq requires p > 1")
    if not all(ai >= 0 and bi >= 0 for ai, bi in zip(a, b)):
        raise DomainError("H_pq requires a, b >= 0")
    q = [x / (x - 1) for x in p]
    with np.errstate(divide="ignore", over="ignore"):  # a zero or tiny d gives inf
        d = _bg_ah(a, b, G.v, H.v)
        vals = np.where(d == 0, INF, rows_pow(d, [1.0 - qi for qi in q]))
    inner = _ch(G.like(vals), A, C)
    out = []
    for ai, bi, pi, qi, inn in zip(a, b, p, q, inner):
        if ai == 0.0 and bi == 0.0:
            out.append(HpqResult(0.0, degenerate="a = b = 0"))
        elif math.isinf(ai) or math.isinf(bi):
            out.append(HpqResult(INF, inner_integral=math.nan))
        elif ai * bi == 0.0:
            out.append(HpqResult(0.0, inner_integral=inn,
                                 degenerate="ab = 0 against infinite inner integral"
                                 if math.isinf(inn) else "ab = 0"))
        else:
            out.append(HpqResult(xmul(xpow(ai * bi, 1 / pi), xpow(inn, 1 / qi)),
                                 inner_integral=inn))
    return out


def h_pq(a: float, b: float, g: SampleFunction, h: SampleFunction,
         A: Optional[int], c: Capacity, p: float) -> HpqResult:
    """H(a, b) = (ab)**(1/p) * (int (bg + ah)**(1-q) dmu)**(1/q) with q
    conjugate to p.  A vanishing bg + ah on positive measure makes the
    inner integral infinite; ab = 0 against an infinite inner integral is
    flagged degenerate."""
    (G, H), (A,), C = one_row([g, h], c, [A])
    return h_pq_rows([a], [b], G, H, A, C, [p])[0]


def _hpq_rows(theorem, multiplier, hyps, F, G, H, A, C, p):
    """The H_pq reports, and int f per row."""
    fp = power_rows(F, p)
    a, b = _ch(_times(G, fp), A, C), _ch(_times(H, fp), A, C)
    lhs = _ch(F, A, C)
    out = []
    for ai, bi, Hi, l, m, hyp in zip(a, b, h_pq_rows(a, b, G, H, A, C, p), lhs,
                                     multiplier, hyps):
        if not (ai > 0 or bi > 0):
            Hi = HpqResult(0.0, degenerate="both inner integrals are 0")
        extra = dict(a=ai, b=bi, H=Hi.value, multiplier=m, inner_integral=Hi.inner_integral)
        out.append(_report(theorem, hyp, l, math.nan if Hi.degenerate else m * Hi.value,
                           degenerate=Hi.degenerate, extra=extra))
    return out, lhs


def carlson_choquet_submodular_rows(F, G, H, A, C, p) -> list:
    if not all(x > 1 for x in p):  # NaN fails too
        raise DomainError("requires p > 1")
    sub = _structural_hyps("submodular", C)
    out, _ = _hpq_rows("carlson_choquet_submodular", [2.0 ** (1 / x) for x in p],
                       [[h] for h in sub], F, G, H, A, C, p)
    # equality condition: (g b + h a)**q f**p constant over {f > 0}, each
    # product taking 0 * inf = 0
    a, b = ([rep.extra[x] for rep in out] for x in "ab")
    mask = (F.v > 0) & A
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf is set to 0 below
        expr = rows_pow(_bg_ah(a, b, G.v, H.v), [x / (x - 1) for x in p]) * rows_pow(F.v, p)
    expr[np.isnan(expr)] = 0.0
    # points outside {f > 0} are dropped
    top = np.where(mask, expr, -np.inf).max(1).tolist()
    bottom = np.where(mask, expr, np.inf).min(1).tolist()
    for i, rep in enumerate(out):
        if math.isinf(a[i]) or math.isinf(b[i]):
            continue
        if mask[i].any():
            spread = top[i] - bottom[i]
            scale = max(abs(top[i]), 1.0)
            rep.extra["equality_condition"] = spread <= EQUALITY_SPREAD_TOL * scale
        else:
            rep.extra["equality_condition"] = True
    return out


def carlson_choquet_submodular(f, g, h, A: Optional[int], c: Capacity,
                               p: float) -> InequalityReport:
    """int f <= 2**(1/p) H(int g f**p, int h f**p) for submodular mu."""
    (F, G, H), (A,), C = one_row([f, g, h], c, [A])
    return carlson_choquet_submodular_rows(F, G, H, A, C, [p])[0]


def carlson_choquet_subadditive_rows(F, G, H, A, C, p) -> list:
    if not all(x > 1 for x in p):  # NaN fails too
        raise DomainError("requires p > 1")
    q = [x / (x - 1) for x in p]
    sub = _structural_hyps("subadditive", C)
    mult = [4.0 ** (1 / pi) * (pi**-0.5 + qi**-0.5) ** 2 for pi, qi in zip(p, q)]
    hyps = [[h, HypothesisCheck("coordinate_space", space.coords is not None,
                                detail="restriction recorded, not interpreted")]
            for h, space in zip(sub, F.spaces)]
    out, If = _hpq_rows("carlson_choquet_subadditive", mult, hyps, F, G, H, A, C, p)
    # the two auxiliary inequalities the subadditive proof route relies on,
    # evaluated on the same inputs
    sh_lhs = _ch(_times(F, G), A, C)
    Ifp, Igq = _ch(power_rows(F, p), A, C), _ch(power_rows(G, q), A, C)
    db_lhs = _ch(F.like(F.v + G.v), A, C)
    Ig = _ch(G, A, C)
    for i, rep in enumerate(out):
        pi, qi = p[i], q[i]
        sh_rhs = ((pi**-0.5 + qi**-0.5) ** 2
                  * xmul(xpow(Ifp[i], 1 / pi), xpow(Igq[i], 1 / qi)))
        db_rhs = 2.0 * (If[i] + Ig[i])
        rep.extra["aux_holder_variant"] = {
            "lhs": sh_lhs[i], "rhs": sh_rhs,
            "holds": _slack(sh_lhs[i], sh_rhs) >= -slack_tol(sh_rhs)}
        rep.extra["aux_doubling"] = {
            "lhs": db_lhs[i], "rhs": db_rhs,
            "holds": _slack(db_lhs[i], db_rhs) >= -slack_tol(db_rhs)}
    return out


def carlson_choquet_subadditive(f, g, h, A: Optional[int], c: Capacity,
                                p: float) -> InequalityReport:
    """int f <= 4**(1/p) (1/sqrt(p) + 1/sqrt(q))**2 H(...) for subadditive
    mu on a coordinate-bearing ([0, inf]-indexed) space."""
    (F, G, H), (A,), C = one_row([f, g, h], c, [A])
    return carlson_choquet_subadditive_rows(F, G, H, A, C, [p])[0]


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
