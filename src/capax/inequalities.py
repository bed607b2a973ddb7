"""One checker per inequality: verify hypotheses, compute both sides,
report verdict and slack.

Every report is orientation-normalized so that "holds" means lhs <= rhs;
inequalities stated the other way round are flipped internally and the
flip recorded in the report extra.  Hypothesis failures never suppress the
numeric computation: the falsifier needs both sides either way.

Each audited checker has a row form (``carlson_sugeno_rows`` and so on)
that takes stacks and returns one report per row; its single-scenario
form is a stack of one row.  The report algebra stays in Python floats,
row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .capacity import (NORMALIZE_DEGENERATE, Capacity, CapacityStack, check_subadditive,
                       check_submodular, make_sup_capacity)
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
                           detail=f"{len(rep.violations)} grid violations")


def _cheb_ok(system: OperatorSystem) -> HypothesisCheck:
    key = (system.domain, system.circ.vec, system.box.vec, system.tri.vec,
           system.lhd.vec)
    if key not in _CHEB_CACHE:
        _CHEB_CACHE[key] = check_chebyshev_condition(system, seed=7)
    rep = _CHEB_CACHE[key]
    return HypothesisCheck(f"chebyshev_condition[{system.name}]", rep.holds_on_grid,
                           detail=f"{len(rep.violations)} grid violations")


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


def _sub(x, rows, k):
    """Rows ``rows`` of a stacked argument (all of it when they are all k)."""
    if len(rows) == k:
        return x
    return x[rows] if isinstance(x, np.ndarray) else x.take(rows)


# ---------------------------------------------------------------------------
# generalized Sugeno inequalities
#
# Each checker runs on stacks of rows (``*_rows``, one report per row) and
# its single-scenario form is a stack of one row.


def jensen_sugeno_rows(F, C, A, ops, s) -> list:
    if any(x < 1 for x in s):
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
    k = len(F.n)
    ops = [_PROD[u] for u in C.unit.tolist()]
    K = [m * x for m, x in zip(C.measure(A).tolist(), _gs(X, A, C, ops))]
    hyp = _comono_hyps("comonotone[f,x]", F, X)
    out = [_report("shilkret_carlson_example", [hyp[i]], math.nan, math.nan,
                   degenerate="K = mu(A) N(x) = 0") for i in range(k)]
    ok = np.flatnonzero(np.array(K) > 0)
    if len(ok):
        F, X, A, C = (_sub(x, ok, k) for x in (F, X, A, C))
        ops = [ops[i] for i in ok]
        f2 = power_rows(F, [2.0] * len(ok))
        lhs = _gs(F, A, C, ops)
        Nf2 = _gs(f2, A, C, ops)
        Nxf = _gs(_times(power_rows(X, [2.0] * len(ok)), f2), A, C, ops)
        for j, i in enumerate(ok.tolist()):
            rhs = K[i]**-0.5 * xpow(Nf2[j], 0.25) * xpow(Nxf[j], 0.25)
            out[i] = _report("shilkret_carlson_example", [hyp[i]], lhs[j], rhs,
                             extra={"K": K[i]})
    return out


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
    if any(e < 1 for e in exponent):
        raise DomainError("jensen requires exponent >= 1")
    k = len(F.n)
    M, ok = C.normalize(A)
    out = [_report("jensen_choquet", [], math.nan, math.nan,
                   degenerate=NORMALIZE_DEGENERATE) for _ in range(k)]
    if len(ok):
        F, A = _sub(F, ok, k), _sub(A, ok, k)
        e = [exponent[i] for i in ok]
        lhs, rhs = _ch(F, A, M), _ch(power_rows(F, e), A, M)
        for i, l, r, ei in zip(ok.tolist(), lhs, rhs, e):
            out[i] = _report("jensen_choquet", [], xpow(l, ei), r, extra={"exponent": ei})
    return out


def jensen_choquet(f: SampleFunction, c: Capacity, A: Optional[int],
                   exponent: float) -> InequalityReport:
    """(int f dm)**c <= int f**c dm for the normalized capacity m."""
    (F,), (A,), C = one_row([f], c, [A])
    return jensen_choquet_rows(F, C, A, [exponent])[0]


def chebyshev_choquet_rows(F, G, C, A) -> list:
    k = len(F.n)
    hyp = _comono_hyps("comonotone[f,g]", F, G)
    M, ok = C.normalize(A)
    out = [_report("chebyshev_choquet", [hyp[i]], math.nan, math.nan,
                   degenerate=NORMALIZE_DEGENERATE) for i in range(k)]
    if len(ok):
        F, G, A = (_sub(x, ok, k) for x in (F, G, A))
        lhs = [xmul(a, b) for a, b in zip(_ch(F, A, M), _ch(G, A, M))]
        rhs = _ch(_times(F, G), A, M)
        for i, l, r in zip(ok.tolist(), lhs, rhs):
            out[i] = _report("chebyshev_choquet", [hyp[i]], l, r,
                             extra={"flipped_orientation": True})
    return out


def chebyshev_choquet(f: SampleFunction, g: SampleFunction, c: Capacity,
                      A: Optional[int]) -> InequalityReport:
    """int f dm * int g dm <= int fg dm for comonotone f, g (flipped from
    the source orientation)."""
    (F, G), (A,), C = one_row([f, g], c, [A])
    return chebyshev_choquet_rows(F, G, C, A)[0]


def carlson_choquet_comonotone_rows(F, G, H, A, C, p, q, r, s) -> list:
    if any(pi < 1 or qi < 1 or ri <= 0 or si <= 0 for pi, qi, ri, si in zip(p, q, r, s)):
        raise DomainError("need p,q >= 1 and r,s > 0")
    k = len(F.n)
    fg = _comono_hyps("comonotone[f,g]", F, G)
    fh = _comono_hyps("comonotone[f,h]", F, H)
    muA = C.measure(A).tolist()
    If, Ig, Ih = _ch(F, A, C), _ch(G, A, C), _ch(H, A, C)
    out = [None] * k
    for i in range(k):
        hyp = [fg[i], fh[i], HypothesisCheck("f_integrable", math.isfinite(If[i]),
                                             detail=f"int f = {If[i]:.6g}")]
        degenerate = None
        if not (0 < muA[i] < INF):
            degenerate = f"mu(A) = {muA[i]} outside (0, inf)"
        elif Ig[i] <= 0 or Ih[i] <= 0 or math.isinf(Ig[i]) or math.isinf(Ih[i]):
            degenerate = f"normalizing integrals int g = {Ig[i]}, int h = {Ih[i]}"
        out[i] = _report("carlson_choquet_comonotone", hyp, If[i], math.nan,
                         degenerate=degenerate)
    ok = np.flatnonzero([rep.degenerate is None for rep in out])
    if not len(ok):
        return out
    F, G, H, A, C = (_sub(x, ok, k) for x in (F, G, H, A, C))
    p, q, r, s = ([x[i] for i in ok] for x in (p, q, r, s))
    Ipg = _ch(power_rows(_times(F, G), p), A, C)
    Iqh = _ch(power_rows(_times(F, H), q), A, C)
    # squared display form of the g = 1, r = s specialization
    ones = (np.abs(G.v - 1.0) <= 1e-08 + 1e-05 * 1.0) | ~G.valid  # np.allclose
    ouyang = np.flatnonzero([ri == si for ri, si in zip(r, s)] & ones.all(1))
    Ifp = dict(zip(ouyang.tolist(), _ch(power_rows(_sub(F, ouyang, len(ok)), [p[j] for j in ouyang]),
                                        _sub(A, ouyang, len(ok)), _sub(C, ouyang, len(ok)))
                   if len(ouyang) else []))
    for j, i in enumerate(ok.tolist()):
        pj, qj, rj, sj = p[j], q[j], r[j], s[j]
        K = Ig[i] ** (-rj / (rj + sj)) * Ih[i] ** (-sj / (rj + sj))
        d = 2.0 - (rj / pj + sj / qj) / (rj + sj)
        rhs = (K * muA[i]**d * xpow(Ipg[j], rj / (pj * (rj + sj)))
               * xpow(Iqh[j], sj / (qj * (rj + sj))))
        extra = {"K": K, "d": d, "mu_A": muA[i], "Ig": Ig[i], "Ih": Ih[i]}
        if j in Ifp:
            extra["ouyang_lhs"] = If[i]**2
            extra["ouyang_rhs"] = (muA[i] ** (3.0 - (1 / pj + 1 / qj)) / Ih[i]
                                   * xpow(Ifp[j], 1 / pj) * xpow(Iqh[j], 1 / qj))
        out[i] = _report("carlson_choquet_comonotone", out[i].hypotheses, If[i], rhs,
                         extra=extra)
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


def _structural_hyps(name, check, C) -> list:
    """The structural property per row, one check per capacity."""
    out = []
    for c in C.caps:
        rep = check(c)
        out.append(HypothesisCheck(name, rep.holds,
                                   detail=f"mode={rep.mode}, slack={rep.slack:.3g}"))
    return out


def holder_choquet_rows(PHI, PSI, C, A, p) -> list:
    if any(x <= 1 for x in p):
        raise DomainError("holder requires p > 1")
    q = [x / (x - 1) for x in p]
    sub = _structural_hyps("submodular", check_submodular, C)
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


def h_pq_rows(a, b, G, H, A, C, p) -> list:
    """H(a, b) per row (see ``h_pq``)."""
    for ai, bi, pi in zip(a, b, p):
        if pi <= 1:
            raise DomainError("H_pq requires p > 1")
        if ai < 0 or bi < 0:
            raise DomainError("H_pq requires a, b >= 0")
    k = len(a)
    out = [HpqResult(0.0, degenerate="a = b = 0") if ai == 0.0 and bi == 0.0
           else HpqResult(INF, inner_integral=math.nan) if math.isinf(ai) or math.isinf(bi)
           else None for ai, bi in zip(a, b)]
    live = np.flatnonzero([r is None for r in out])
    if not len(live):
        return out
    G, H, A, C = (_sub(x, live, k) for x in (G, H, A, C))
    a, b, p = ([x[i] for i in live] for x in (a, b, p))
    q = [x / (x - 1) for x in p]
    d = np.array(b)[:, None] * G.v + np.array(a)[:, None] * H.v
    with np.errstate(divide="ignore"):
        vals = np.where(d == 0, INF, rows_pow(d, [1.0 - x for x in q]))
    inner = _ch(G.like(vals), A, C)
    for i, ai, bi, pi, qi, inn in zip(live.tolist(), a, b, p, q, inner):
        ab = ai * bi
        if ab == 0.0:
            out[i] = HpqResult(0.0, inner_integral=inn,
                               degenerate="ab = 0 against infinite inner integral"
                               if math.isinf(inn) else "ab = 0")
        else:
            out[i] = HpqResult(xmul(xpow(ab, 1 / pi), xpow(inn, 1 / qi)), inner_integral=inn)
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
    a = _ch(_times(G, fp), A, C)
    b = _ch(_times(H, fp), A, C)
    k = len(a)
    live = np.flatnonzero([ai > 0 or bi > 0 for ai, bi in zip(a, b)])
    Hs = [HpqResult(0.0, degenerate="both inner integrals are 0")] * k
    if len(live):
        for i, r in zip(live.tolist(), h_pq_rows(
                [a[i] for i in live], [b[i] for i in live],
                *(_sub(x, live, k) for x in (G, H, A, C)), [p[i] for i in live])):
            Hs[i] = r
    lhs = _ch(F, A, C)
    out = []
    for i in range(k):
        Hi = Hs[i]
        extra = dict(a=a[i], b=b[i], H=Hi.value, multiplier=multiplier[i],
                     inner_integral=Hi.inner_integral)
        if Hi.degenerate:
            out.append(_report(theorem, hyps[i], lhs[i], math.nan,
                               degenerate=Hi.degenerate, extra=extra))
        else:
            out.append(_report(theorem, hyps[i], lhs[i], multiplier[i] * Hi.value,
                               extra=extra))
    return out, lhs


def carlson_choquet_submodular_rows(F, G, H, A, C, p) -> list:
    if any(x <= 1 for x in p):
        raise DomainError("requires p > 1")
    sub = _structural_hyps("submodular", check_submodular, C)
    out, _ = _hpq_rows("carlson_choquet_submodular", [2.0 ** (1 / x) for x in p],
                       [[h] for h in sub], F, G, H, A, C, p)
    # equality condition: (g b + h a)**q f**p constant over {f > 0}
    a = np.array([rep.extra["a"] for rep in out])
    b = np.array([rep.extra["b"] for rep in out])
    finite = np.isfinite(a) & np.isfinite(b)
    a, b = np.where(finite, a, 0.0), np.where(finite, b, 0.0)
    mask = (F.v > 0) & F.valid
    # points outside {f > 0} compute 0 and are dropped below
    gb = np.where(mask, G.v, 0.0) * b[:, None]
    ha = np.where(mask, H.v, 0.0) * a[:, None]
    expr = (rows_pow(gb + ha, [x / (x - 1) for x in p])
            * rows_pow(np.where(mask, F.v, 0.0), p))
    top = np.where(mask, expr, -np.inf).max(1).tolist()
    bottom = np.where(mask, expr, np.inf).min(1).tolist()
    for i, rep in enumerate(out):
        if not finite[i]:
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
    if any(x <= 1 for x in p):
        raise DomainError("requires p > 1")
    q = [x / (x - 1) for x in p]
    sub = _structural_hyps("subadditive", check_subadditive, C)
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
