#!/usr/bin/env python3
"""Regenerate the shipped Gauss-Legendre rules of the moment tables.

For each node count in pndose.physics.moliere.SHIPPED_RULES, the nodes
and weights of numpy's leggauss are written as CSV (columns x, w) with
repr floats, which read back exactly. The moment tables then load the
rules instead of eigensolving a companion matrix in every process, and
`pndose tables check` compares the files with leggauss.

Run from the repository root:
    PYTHONPATH=src python tools/generate_gauss_rules.py
"""

from pathlib import Path

import numpy as np

from pndose.physics.moliere import SHIPPED_RULES, gauss_rule_file, read_gauss_rule

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "pndose" / "data"


def main():
    for n in SHIPPED_RULES:
        x, w = np.polynomial.legendre.leggauss(n)
        path = DATA_DIR / gauss_rule_file(n)
        with open(path, "w") as fh:
            fh.write("x,w\n")
            for xi, wi in zip(x.tolist(), w.tolist()):
                fh.write(f"{xi!r},{wi!r}\n")
        read_x, read_w = read_gauss_rule(n)
        if not (np.array_equal(read_x, x) and np.array_equal(read_w, w)):
            raise SystemExit(f"{path} does not read back exactly")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
