"""The package's one root finder, brent, and its one fixed-point iterator, anderson.

Brent 1973, "Algorithms for Minimization without Derivatives", ch. 4:
inverse quadratic interpolation or the secant step where it falls well
inside the bracket, bisection otherwise. The steps follow the C code behind
scipy.optimize.brentq step for step, so the same f, bracket and tolerances
give the same root. Anderson mixing: Walker & Ni 2011, SIAM J. Numer. Anal. 49.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, EmptyBracketError

RTOL_MIN = 4.0 * sys.float_info.epsilon  # rtol below 4 eps cannot be met
_MAX_ITER = 100
_DEPTH = 5  # Anderson history: the last five iterates, so four differences


def brent(f, a: float, b: float, xtol: float, rtol: float = RTOL_MIN) -> float:
    """A root of the scalar function f in [a, b], where f(a) and f(b) differ in sign.

    The returned x lies within xtol + rtol |x| of a sign change of f. Raises
    EmptyBracketError when f(a) and f(b) have the same sign and
    ConvergenceError after 100 steps.
    """
    if not (xtol > 0.0 and rtol >= RTOL_MIN):
        raise DomainError(f"need xtol > 0 and rtol >= {RTOL_MIN:.3g}")
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if not (math.isfinite(fpre) and math.isfinite(fcur)):
        raise DomainError(f"f is not finite at the bracket ends: {fpre}, {fcur}")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise EmptyBracketError(
            f"f({xpre:.17g}) and f({xcur:.17g}) have the same sign"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)  # 0 where tiny f values underflow
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # the interpolated step is short enough
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = float(f(xcur))
    raise ConvergenceError(f"Brent's method did not converge in {_MAX_ITER} steps")


def anderson(g, x0, tol: float, max_iter: int, beta: float):
    """Anderson mixing (type II) for x = g(x) on real arrays, with weight beta.

    From x, with f = g(x) - x, the step is x + beta f - (dX + beta dF) c: dX and dF
    hold the last differences of iterates and residuals and c minimizes |f - dF c|.
    The history is cleared when the sup residual fails to beat its best so far, and
    when g raises DomainError at an extrapolated x, which the plain step replaces (a
    DomainError at a plain step propagates). Returns (x, sup residual, calls of g) at
    the first x with sup residual below tol; ConvergenceError after max_iter calls,
    and DomainError for max_iter < 1.
    """
    if not max_iter >= 1:
        raise DomainError(f"need max_iter >= 1, got {max_iter!r}")
    x = np.asarray(x0, dtype=float)
    dx, df, best = [], [], math.inf
    for it in range(1, max_iter + 1):
        try:
            f = g(x) - x
        except DomainError:
            if not dx:
                raise
            dx, df, x = [], [], x_old + beta * f_old
            continue
        res = float(np.max(np.abs(f), initial=0.0))
        if res < tol:
            return x, res, it
        if res >= best:
            dx, df = [], []
        elif it > 1:
            dx, df = (dx + [x - x_old])[1 - _DEPTH:], (df + [f - f_old])[1 - _DEPTH:]
        best, x_old, f_old = min(best, res), x, f
        x = x + beta * f
        if dx:
            c = np.linalg.lstsq(np.column_stack(df), f, rcond=None)[0]
            x = x - (np.column_stack(dx) + beta * np.column_stack(df)) @ c
    raise ConvergenceError(f"fixed-point residual {res:.2e} after {max_iter} steps")
