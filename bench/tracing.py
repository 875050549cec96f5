"""Spans around the public functions of gastba, installed from outside the package.

`Tracer.install()` replaces each traced function in every loaded gastba module
(and `scipy.integrate.quad`) with a wrapper that records a span; `uninstall()`
puts the originals back. Nothing inside `src/gastba` is changed.

A span's self time is its duration minus the part of it covered by child
spans. Spans are kept in memory and written out at the end of the run.

Polylogarithm entry points call one another (`polylog_auto` ->
`polylog_neg_exp` -> `polylog_neg_exp_eval`), so only the outermost polylog
call of a nest opens a span, named after the route its arguments select; the
same holds for `dirichlet_eta` -> `dirichlet_eta_eval`.
"""
from __future__ import annotations

import gzip
import json
import math
import sys
import time

# Spans that group several public functions under one name.
_GROUPS = {
    "saddle": {
        "solve_delta_constant": "saddle.shift_constant",
        "solve_delta_quasi": "saddle.shift_quasi",
        "solve_2d_boson": "saddle.algebraic_2d",
        "solve_2d_fermion": "saddle.algebraic_2d",
        "solve_2d_multispecies": "saddle.algebraic_2d",
        "solve_profile_quasiperiodic": "saddle.profile",
    },
    "riemann": {
        "find_zeros": "riemann.find_zeros",
        "zeta_via_integral_eval": "riemann.zeta_via_integral",
        "verify_zero_delta": "riemann.identity_checks",
        "check_duality": "riemann.identity_checks",
        "casimir_channel_check": "riemann.identity_checks",
    },
    "thermo": {
        "observables_constant": "thermo.observables",
        "thermodynamic_consistency": "thermo.consistency",
        "fermi_energy": "thermo.fermi_energy",
        "central_charge": "thermo.charge",
    },
    "specfun": {
        "gamma": "specfun.gamma",
        "zeta": "specfun.zeta",
        "rogers_dilog": "specfun.rogers_dilog",
    },
}

_ETA = ("dirichlet_eta", "dirichlet_eta_eval")
_POLYLOG = (
    "polylog_series", "polylog_series_eval",
    "bose_polylog_integral", "bose_polylog_integral_eval",
    "fermi_dirac_polylog", "fermi_dirac_polylog_eval",
    "polylog_neg_exp", "polylog_neg_exp_eval",
    "polylog_auto",
)
# spans under which calls are also counted per ancestor, for the per-solve
# and per-unit-t ratios
_ANCESTORS = ("saddle.shift_constant", "saddle.shift_quasi", "riemann.find_zeros")
# log_y above which the Fermi-Dirac route counts as large-argument
FD_LARGE_LOG_Y = 500.0


def _fd_route(log_y: float) -> str:
    return "specfun.polylog.fd_quad_large" if log_y > FD_LARGE_LOG_Y else "specfun.polylog.fd_quad"


def _series_arg_route(nu, z: float) -> str:
    """Route of Li_nu(z) for real z in [-1, 1), as specfun dispatches it."""
    if 0.0 < z < 1.0 and 1.0 - z < 1e-3 and complex(nu).real > 0.0:
        return "specfun.polylog.bose_quad"
    return "specfun.polylog.series"


def polylog_route(fname: str, args) -> str:
    """Classify an outermost polylog call by its arguments."""
    nu, x = args[0], float(args[1])
    if fname.startswith("polylog_series"):
        return _series_arg_route(nu, x)
    if fname.startswith("bose_polylog_integral"):
        return "specfun.polylog.bose_quad"
    if fname.startswith("fermi_dirac_polylog"):
        return _fd_route(math.log(x)) if x > 0.0 else "specfun.polylog.fd_quad"
    if fname.startswith("polylog_neg_exp"):
        return "specfun.polylog.series" if x <= 0.0 else _fd_route(x)
    # polylog_auto
    if x < -1.0:
        return _fd_route(math.log(-x))
    return _series_arg_route(nu, x)


class Tracer:
    """Records spans at the gastba layer boundaries of one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, parent index, start, end)
        self.stack: list[list] = []  # [name, index, start, child time, parent index]
        self.active: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.under: dict[tuple[str, str], int] = {}  # (ancestor, kind) -> calls
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> None:
        parent = self.stack[-1][1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        for anc in _ANCESTORS:
            if self.active.get(anc):
                self.under[(anc, name)] = self.under.get((anc, name), 0) + 1
                if name.startswith("specfun."):
                    self.under[(anc, "L0")] = self.under.get((anc, "L0"), 0) + 1
        self.active[name] = self.active.get(name, 0) + 1
        self.stack.append([name, idx, time.perf_counter(), 0.0, parent])

    def _close(self) -> None:
        end = time.perf_counter()
        name, idx, start, child, parent = self.stack.pop()
        dur = end - start
        self.spans[idx] = (name, parent, start, end)
        self.active[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if self.stack:
            self.stack[-1][3] += dur

    def _top(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    # -- wrappers -----------------------------------------------------------
    def _wrap_fixed(self, fn, name, under_gastba_only=False):
        tracer = self

        def wrapper(*args, **kwargs):
            if under_gastba_only and not tracer.stack:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_nested(self, fn, fname, prefix, route):
        """Open a span only when not already inside a span of the same family."""
        tracer = self

        def wrapper(*args, **kwargs):
            top = tracer._top()
            if top is not None and top.startswith(prefix):
                return fn(*args, **kwargs)
            tracer._open(route(fname, args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gastba" or mod_name.startswith("gastba.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import scipy.integrate

        from gastba import riemann, saddle, specfun, thermo

        mods = {"saddle": saddle, "riemann": riemann, "thermo": thermo, "specfun": specfun}
        for mod_key, table in _GROUPS.items():
            for fname, span in table.items():
                fn = getattr(mods[mod_key], fname)
                self._replace_everywhere(fn, self._wrap_fixed(fn, span))
        for fname in _ETA:
            fn = getattr(specfun, fname)
            self._replace_everywhere(
                fn, self._wrap_nested(fn, fname, "specfun.eta", lambda f, a: "specfun.eta"))
        for fname in _POLYLOG:
            fn = getattr(specfun, fname)
            self._replace_everywhere(
                fn, self._wrap_nested(fn, fname, "specfun.polylog.", polylog_route))
        quad = scipy.integrate.quad
        self._patched.append((scipy.integrate, "quad", quad))
        # only quad calls made under gastba spans count
        scipy.integrate.quad = self._wrap_fixed(quad, "scipy.quad", under_gastba_only=True)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ms": {k: v * 1e3 for k, v in self.self_time.items()},
            "under": {f"{a}|{b}": n for (a, b), n in self.under.items()},
        }

    def write_spans(self, path) -> None:
        """Write every span as one json line: name, parent index, start, end (s)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, parent, start, end = span
                fh.write(json.dumps([name, parent, round(start - t0, 9),
                                     round(end - t0, 9)]) + "\n")
