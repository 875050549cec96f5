"""Table of the zeta zeros 1/2 + i t with 0 < t <= T_MAX, from mpmath.

With each zero t it keeps |eta'(1/2 + i t)|, which bounds how far
|eta| may be from 0 at a point near the zero.

The zero-scan and cli checks compare the scanner's zeros with this table.
mpmath.zetazero takes about 30 s for the 169 zeros, so the table is built
once per checkout, in a separate process (mpmath stays out of the process
whose memory the benchmark reports), and kept in bench/out/. The table is
complete: its length must equal mpmath.nzeros(T_MAX).

Usage: python3 bench/zeros.py OUT_PATH
"""
import json
import os
import sys

T_MAX = 350.0


def build(path: str) -> None:
    import mpmath

    zeros, slopes = [], []
    n = 1
    while True:
        rho = mpmath.zetazero(n)
        if rho.imag > T_MAX:
            break
        zeros.append(float(rho.imag))
        slopes.append(float(abs(mpmath.diff(mpmath.altzeta, rho))))
        n += 1
    if len(zeros) != int(mpmath.nzeros(T_MAX)):
        raise RuntimeError("zero table is incomplete")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"t_max": T_MAX, "zeros": zeros, "eta_slopes": slopes}, fh)
    os.replace(tmp, path)


class ZeroTable(list):
    """The zeros t, with .slopes[i] = |eta'| at zero i."""

    slopes: list


def load(path: str) -> ZeroTable:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["t_max"] != T_MAX or "eta_slopes" not in doc:
        raise ValueError("zero table is not the current format; delete it to rebuild")
    table = ZeroTable(doc["zeros"])
    table.slopes = doc["eta_slopes"]
    return table


if __name__ == "__main__":
    build(sys.argv[1])
