"""Show that each workload's check rejects a wrong answer.

For every workload, a real operation is run and checked as it is (it must
pass), then with one value made wrong (it must fail):

* sweep: a constant-kernel shift delta moved by 1e-6;
* zero-scan: a refined zero dropped, and one moved by 1e-8;
* profile: epsilon at one node moved by 1e-6;
* cli: one value of a CLI report changed by one part in 1e9.

Kept apart from the test suite (pytest does not collect this file). Run from
the repository root; it needs bench/out/zeta_zeros.json, which any zero-scan
or cli run of bench/run.py builds.

Usage: python3 bench/selftest.py
"""
import contextlib
import copy
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads as w  # noqa: E402
import zeros as zero_table  # noqa: E402
from gastba import cli  # noqa: E402

failures = []


def expect(label: str, problems: list, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "rejected" if problems else "accepted"
    print(f"{'PASS' if ok else 'FAIL'}: {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(label)


def sweep() -> None:
    op = w.Op("const", {"d": 3, "s": -1, "z_mu": 1.5, "h": 0.5, "T": 1.0})
    op.result = w.run_sweep_op(op)
    expect("sweep: constant shift as returned", checks.check_sweep(op), False)
    bad = copy.deepcopy(op)
    bad.result["delta"] += 1e-6
    expect("sweep: constant shift moved by 1e-6", checks.check_sweep(bad), True)


def zero_scan(zeros: list) -> None:
    op = w.Op("window", w.window_args(w.T_LO + 525 * w.DT))  # zeros 21.022, 25.011
    op.result = w.run_window(op)
    expect("zero-scan: window as returned", checks.check_zero_scan(op, zeros), False)
    dropped = copy.deepcopy(op)
    dropped.result["candidates"] = [r for r in dropped.result["candidates"] if not r["refined"]]
    expect("zero-scan: refined zero dropped", checks.check_zero_scan(dropped, zeros), True)
    moved = copy.deepcopy(op)
    moved.result["candidates"][0]["t"] += 1e-8
    expect("zero-scan: refined zero moved by 1e-8", checks.check_zero_scan(moved, zeros), True)


def profile() -> None:
    op = w.Op("profile", {"nu": 1.4, "T": 0.1, "grid_points": 512, "tol": None,
                          "k_max_sigmas": 2.0, "max_iter": 400, "damping": 0.5})
    op.result = w.run_profile_op(op)
    expect("profile: profile as returned", checks.check_profile(op), False)
    op.result.epsilon[100] += 1e-6
    expect("profile: epsilon at one node moved by 1e-6", checks.check_profile(op), True)


def cli_report(zeros: list) -> None:
    argv = ["bec", "--d", "3", "--n-phys", "1.3", "--T", "0.9", "--h-t", "0.4"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    op = w.Op("cli", {"argv": argv})
    out = buf.getvalue().encode("utf-8")
    expect("cli: exit code", [] if code == 0 else [f"exit {code}"], False)
    expect("cli: bec report as printed", checks.check_cli(op, out, zeros, None), False)
    doc = json.loads(out)
    doc["n_c"] *= 1.0 + 1e-9
    changed = json.dumps(doc).encode("utf-8")
    expect("cli: bec report with n_c changed", checks.check_cli(op, changed, zeros, None), True)


def main() -> int:
    table = BENCH / "out" / "zeta_zeros.json"
    if not table.exists():
        print(f"missing {table}: run a zero-scan or cli run of bench/run.py first")
        return 2
    zeros = zero_table.load(str(table))
    sweep()
    zero_scan(zeros)
    profile()
    cli_report(zeros)
    print("FAILED: " + ", ".join(failures) if failures else "all checks reject wrong answers")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
