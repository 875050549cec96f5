#!/usr/bin/env python3
"""Layered, mpmath-checked benchmark of gastba.

Usage (from the repository root):

    python3 bench/run.py --workload {sweep,zero-scan,profile,cli} --seed N \
        --seconds S --trace {0,1}

A run sets up the workload several times in fresh interpreters (setup_s),
then repeats whole rounds of the workload's fixed list of operations, one
operation at a time, until at least S seconds have passed and at least the
workload's minimum number of rounds is done. It then checks every output
against mpmath, closed forms or properties of the method, and prints as its
last line one json object: correct, attempted, failed and the metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
Each run also writes a record to bench/out/runs/ and, when traced, its spans
to bench/out/traces/. See bench/README.md.
"""
import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One BLAS thread in this process and in every child; set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("sweep", "zero-scan", "profile", "cli")
# Whole rounds every run makes at least; with the round sizes below each run
# has at least 40 operations.
MIN_ROUNDS = {"sweep": 4, "zero-scan": 2, "profile": 5, "cli": 4}
SETUP_SPAWNS = 3
# Median time of ref_kernel() on the machine that calibrated the benchmark
# (see README.md); timing metrics are reported at the speed where the kernel
# takes this long.
REF_NOMINAL_MS = 25.0
# The kernel is timed between operations once REF_EVERY_S has passed since
# its last sample, so the samples follow the machine's speed as it drifts.
REF_EVERY_S = 0.25
REF_NEIGHBOURS = 6
CHILD_TIMEOUT_S = 120.0


def fail(msg: str) -> None:
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def ref_kernel() -> None:
    """A fixed mix of Python, numpy and scipy work that calls no gastba code.

    Its parts stand for the kinds of work the workloads do: interpreted loops
    and calls, quadrature of a Python integrand, small vector arithmetic and
    an N x N complex power table too large for the caches.
    """
    import numpy as np
    from scipy import integrate

    def f(x):
        return math.exp(-x) * x

    s = 0
    for i in range(20_000):
        s += i * i % 7
    acc = 0.0
    for i in range(10_000):
        acc += f(i * 1e-4)
    for j in range(25):
        integrate.quad(lambda x: math.exp(-x * x) * math.cos(j * x), 0.0, 5.0)
    a = np.arange(20_000.0)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)
    x = np.linspace(0.1, 2.0, 400)  # 400 x 400 complex: 2.6 MB, more than a core's L2
    np.exp((0.8 + 3j) * np.log(np.abs(x[:, None] - x[None, :]) + 1.0)).real.sum()


def time_ref(n: int, out: list) -> None:
    """Append n samples (midpoint time in s, duration in ms) of ref_kernel()."""
    for _ in range(n):
        t0 = time.perf_counter()
        ref_kernel()
        t1 = time.perf_counter()
        out.append((0.5 * (t0 + t1), (t1 - t0) * 1e3))


def ref_factor(refs: list, t0: float, t1: float) -> float:
    """REF_NOMINAL_MS over the median of the REF_NEIGHBOURS samples nearest
    in time to the interval [t0, t1]."""
    mid = 0.5 * (t0 + t1)
    near = sorted(refs, key=lambda s: abs(s[0] - mid))[:REF_NEIGHBOURS]
    return REF_NOMINAL_MS / statistics.median(ms for _, ms in near)


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "blas_threads": BLAS_ENV,
    }


def zero_table() -> list:
    import zeros

    path = OUT / "zeta_zeros.json"
    if not path.exists():
        subprocess.run([sys.executable, str(BENCH / "zeros.py"), str(path)],
                       check=True, cwd=ROOT, env=child_env(), timeout=170)
    return zeros.load(str(path))


def measure_setup(workload: str, refs: list) -> list:
    """(start, end) of SETUP_SPAWNS fresh set-ups, one after another, with
    reference-kernel samples between them."""
    times = []
    for _ in range(SETUP_SPAWNS):
        time_ref(2, refs)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up child failed:\n{proc.stderr}")
        times.append((t0, float(proc.stdout.strip().splitlines()[-1])))
    time_ref(2, refs)
    return times


def run_cli_child(argv: list, traced: bool) -> dict:
    """One CLI process from spawn to exit; stdout kept, rusage from wait4."""
    timing = OUT / "cli_timing.json"
    err_path = OUT / "cli_stderr.txt"
    env = child_env()
    if traced:
        cmd = [sys.executable, str(BENCH / "cli_launch.py"), *argv]
        env["GASTBA_BENCH_TIMING"] = str(timing)
        timing.unlink(missing_ok=True)
    else:
        cmd = [sys.executable, "-m", "gastba.cli", *argv]
    with open(err_path, "w+b") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    rec = {"stdout": out, "stderr": stderr, "code": proc.returncode,
           "seconds": seconds, "maxrss_kb": usage.ru_maxrss}
    if traced and timing.exists():
        rec.update(json.loads(timing.read_text(encoding="utf-8")))
    return rec


class Workload:
    """Round generation, execution and checking of one workload."""

    def __init__(self, name: str, traced: bool):
        import workloads as w

        self.name, self.traced, self.w = name, traced, w
        self.zeros = zero_table() if name in ("zero-scan", "cli") else None
        self.species_path = None
        if name == "cli":
            self.species_path = OUT / "cli_species.json"
            w.write_species_file(self.species_path)

    def make_round(self, seed: int, rnd: int) -> list:
        w = self.w
        if self.name == "sweep":
            return w.sweep_round(seed, rnd)
        if self.name == "zero-scan":
            return w.zero_scan_round(seed, rnd, self.zeros)
        if self.name == "profile":
            return w.profile_round(seed, rnd)
        return w.cli_round(seed, rnd, self.zeros, str(self.species_path))

    def run_op(self, op) -> None:
        w = self.w
        op.start = time.perf_counter()
        if self.name == "cli":
            rec = run_cli_child(op.args["argv"], self.traced)
            op.seconds = rec.pop("seconds")
            op.result = rec
            if rec["code"] != 0:
                op.error = f"exit {rec['code']}: {rec['stderr'][-400:]!r}"
            return
        runner = {"sweep": w.run_sweep_op, "zero-scan": w.run_window,
                  "profile": w.run_profile_op}[self.name]
        t0 = time.perf_counter()
        try:
            op.result = runner(op)
        except Exception as exc:  # an operation that raises counts as failed
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0

    def check(self, op, rnd_ops) -> list:
        import checks

        if op.error is not None:
            return [op.error]
        if self.name == "sweep":
            return checks.check_sweep(op)
        if self.name == "zero-scan":
            return checks.check_zero_scan(op, self.zeros)
        if self.name == "profile":
            return checks.check_profile(op)
        first = None
        if "repeat_of" in op.extra:
            first = rnd_ops[op.extra["repeat_of"]].result["stdout"]
        return checks.check_cli(op, op.result["stdout"], self.zeros, first)


def timing_metrics(rounds: list, scaled: bool, q_tail: float) -> dict:
    """wall_s (sum over slots of the median over rounds), op_p50_ms and
    op_tail_ms (quantile q_tail of all operation times), raw or scaled by
    each operation's reference factor."""
    import numpy as np

    def sec(op):
        return op.seconds * (op.factor if scaled else 1.0)

    lat = [sec(op) * 1e3 for ops in rounds for op in ops]
    wall = sum(statistics.median(sec(ops[i]) for ops in rounds) for i in range(len(rounds[0])))
    return {"wall_s": wall, "op_p50_ms": statistics.median(lat),
            "op_tail_ms": float(np.quantile(np.asarray(lat), q_tail))}


def layer_metrics(snap: dict, rounds: list, r_min: int, ref_ms: float) -> dict:
    """Per-layer metrics per round, from the counters at the end of round r_min."""
    calls, self_ms, under = snap["calls"], snap["self_ms"], snap["under"]

    def c(name):
        return calls.get(name, 0) / r_min

    def s(name):
        return self_ms.get(name, 0.0) / r_min

    m = {}
    for route in ("series", "bose_quad"):
        m[f"specfun.polylog.{route}.calls"] = (c(f"specfun.polylog.{route}"), "calls/round")
        m[f"specfun.polylog.{route}.self_ms"] = (s(f"specfun.polylog.{route}"), "ms/round")
    fd, fd_large = "specfun.polylog.fd_quad", "specfun.polylog.fd_quad_large"
    m["specfun.polylog.fd_quad.calls"] = (c(fd) + c(fd_large), "calls/round")
    m["specfun.polylog.fd_quad.self_ms"] = (s(fd) + s(fd_large), "ms/round")
    m["specfun.polylog.fd_quad_large.calls"] = (c(fd_large), "calls/round")
    m["scipy.quad.calls"] = (c("scipy.quad"), "calls/round")
    m["scipy.quad.self_ms"] = (s("scipy.quad"), "ms/round")
    shifts = calls.get("saddle.shift_constant", 0) + calls.get("saddle.shift_quasi", 0)
    l0 = under.get("saddle.shift_constant|L0", 0) + under.get("saddle.shift_quasi|L0", 0)
    m["saddle.l0_calls_per_shift_solve"] = (l0 / shifts if shifts else 0.0, "ratio")
    m["specfun.eta.calls"] = (c("specfun.eta"), "calls/round")
    m["specfun.eta.self_ms"] = (s("specfun.eta"), "ms/round")
    windows = [op for ops in rounds[:r_min] for op in ops
               if op.kind == "window" and op.result is not None]
    t_len = sum(op.args["t_max"] - op.args["t_min"] for op in windows)
    eta_fz = under.get("riemann.find_zeros|specfun.eta", 0)
    m["riemann.eta_calls_per_t"] = (eta_fz / t_len if t_len else 0.0, "calls/unit-t")
    m["riemann.find_zeros.self_ms"] = (s("riemann.find_zeros"), "ms/round")
    m["riemann.zeta_via_integral.calls"] = (c("riemann.zeta_via_integral"), "calls/round")
    m["riemann.zeta_via_integral.self_ms"] = (s("riemann.zeta_via_integral"), "ms/round")
    m["riemann.identity_checks.self_ms"] = (s("riemann.identity_checks"), "ms/round")
    cands = [row for op in windows for row in op.result["candidates"]]
    refined = sum(1 for row in cands if row["refined"])
    m["riemann.refined_per_candidate"] = (refined / len(cands) if cands else 0.0, "ratio")
    for name in ("gamma", "zeta", "rogers_dilog"):
        m[f"specfun.{name}.calls"] = (c(f"specfun.{name}"), "calls/round")
    for name in ("shift_constant", "shift_quasi", "algebraic_2d", "profile"):
        m[f"saddle.{name}.calls"] = (c(f"saddle.{name}"), "calls/round")
        m[f"saddle.{name}.self_ms"] = (s(f"saddle.{name}"), "ms/round")
    sizes = [len(op.result.nodes) for ops in rounds[:r_min] for op in ops
             if op.kind == "profile" and op.result is not None]
    # computed, not measured: the float64 N x N kernel matrix of the largest grid
    m["saddle.profile.matrix_mb"] = (8.0 * max(sizes) ** 2 / 2**20 if sizes else 0.0,
                                     "MB-computed")
    for name in ("observables", "consistency", "fermi_energy", "charge"):
        m[f"thermo.{name}.calls"] = (c(f"thermo.{name}"), "calls/round")
        m[f"thermo.{name}.self_ms"] = (s(f"thermo.{name}"), "ms/round")
    cli_ops = [op for ops in rounds for op in ops if op.kind == "cli" and op.error is None]
    first = [op for ops in rounds[:r_min] for op in ops if op.kind == "cli"]

    def med(key):
        vals = [op.result[key] for op in cli_ops if key in op.result]
        return statistics.median(vals) if vals else 0.0

    m["cli.process_ms"] = (statistics.median([op.seconds * 1e3 for op in cli_ops])
                           if cli_ops else 0.0, "ms")
    m["cli.import_ms"] = (med("import_ms"), "ms")
    m["cli.main_ms"] = (med("main_ms"), "ms")
    m["cli.stdout_bytes"] = (sum(len(op.result["stdout"]) for op in first) / r_min
                             if first else 0.0, "bytes/round")
    m["machine.ref_kernel_ms"] = (ref_ms, "ms")
    return m


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.environ.update(BLAS_ENV)
    # All work on one CPU: children inherit the affinity, so set-up and CLI
    # processes run where the reference kernel is timed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "gastba" / "__init__.py").is_file():
        fail(f"no gastba sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import gastba

    if Path(gastba.__file__).resolve().parent != (SRC / "gastba").resolve():
        fail(f"imported gastba from {gastba.__file__}, not from {SRC}")
    for sub in ("runs", "traces"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    name, seed, traced = args.workload, args.seed, bool(args.trace)
    t_begin = time.perf_counter()
    info = machine_info(seed)
    wl = Workload(name, traced)
    t_setup = time.perf_counter()
    refs = []
    setup_spans = measure_setup(name, refs)
    time_ref(3, refs)

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    r_min = MIN_ROUNDS[name]
    rounds, snap = [], None
    start = time.perf_counter()
    try:
        while True:
            ops = wl.make_round(seed, len(rounds))
            for op in ops:
                wl.run_op(op)
                if time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                    time_ref(1, refs)
            rounds.append(ops)
            if tracer is not None and len(rounds) == r_min:
                snap = tracer.snapshot()
            if len(rounds) >= r_min and time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - start
    time_ref(3, refs)
    if name == "cli":
        peak_kb = max(op.result["maxrss_kb"] for ops in rounds for op in ops)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # checks: after the memory reading, so the checks' own arrays never count
    t_checks = time.perf_counter()
    problems = {}
    for r, ops in enumerate(rounds):
        for i, op in enumerate(ops):
            found = wl.check(op, ops)
            if found:
                problems[(r, i)] = found
    attempted = sum(len(ops) for ops in rounds)
    failed = len(problems)
    correct = all(rounds[r][i].known_fault for r, i in problems)
    t_end = time.perf_counter()

    m_round = len(rounds[0])
    q_tail = 1.0 - 10.0 / (m_round * r_min)
    ref_ms = statistics.median(ms for _, ms in refs)
    for ops in rounds:
        for op in ops:
            op.factor = ref_factor(refs, op.start, op.start + op.seconds)
    raw = timing_metrics(rounds, scaled=False, q_tail=q_tail)
    scaled = timing_metrics(rounds, scaled=True, q_tail=q_tail)
    setup_raw = [t1 - t0 for t0, t1 in setup_spans]
    setup_scaled = [(t1 - t0) * ref_factor(refs, t0, t1) for t0, t1 in setup_spans]
    raw["setup_s"] = statistics.median(setup_raw)
    raw["setup_s_scaled"] = statistics.median(setup_scaled)
    e2e = {
        "setup_s": (statistics.median(setup_raw), "s"),
        "wall_s": (scaled["wall_s"], "s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    layers = layer_metrics(snap, rounds, r_min, ref_ms) if traced else {}
    chosen = layers if traced else e2e
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}

    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": int(traced),
        "machine": info, "rounds": len(rounds), "ops_per_round": m_round,
        "tail_quantile": q_tail, "measured_s": elapsed,
        "phase_s": {"prepare": t_setup - t_begin, "setup": start - t_setup,
                    "measure": t_checks - start, "checks": t_end - t_checks},
        "setup_samples_s": setup_raw,
        "ref_kernel_samples_ms": refs, "ref_kernel_ms": ref_ms,
        "end_to_end": {k: v for k, (v, _) in e2e.items()}, "raw_timings": raw,
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": [{"round": r, "slot": i, "kind": rounds[r][i].kind,
                      "known_fault": rounds[r][i].known_fault, "problems": p}
                     for (r, i), p in sorted(problems.items())],
        "op_ms": [[op.seconds * 1e3 for op in ops] for ops in rounds],
    }
    base = f"{name}-seed{seed}-trace{int(traced)}-{stamp}"
    (OUT / "runs" / f"{base}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(OUT / "traces" / f"{base}.jsonl.gz")

    print("machine: " + json.dumps(info, sort_keys=True))
    by_slot = {}
    for (r, i), p in sorted(problems.items()):
        by_slot.setdefault(i, []).append(p[0])
    for i, ps in sorted(by_slot.items()):
        tag = "known fault" if rounds[0][i].known_fault else "FAILED"
        print(f"{tag}: slot {i} ({rounds[0][i].kind}) failed in {len(ps)} of "
              f"{len(rounds)} rounds: {ps[0]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
