"""The package's one bracketed root finder: Brent's method.

Brent 1973, "Algorithms for Minimization without Derivatives", ch. 4:
inverse quadratic interpolation or the secant step where it falls well
inside the bracket, bisection otherwise. The steps follow the C code behind
scipy.optimize.brentq step for step, so the same f, bracket and tolerances
give the same root.
"""
from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, DomainError, EmptyBracketError

RTOL_MIN = 4.0 * sys.float_info.epsilon  # rtol below 4 eps cannot be met
_MAX_ITER = 100


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
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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
