#!/usr/bin/env python3
"""Print the restricted class-number sums H_{m,M}(p) for small primes.

Each cell shows the closed-form value; a trailing * would mark a cell where
the closed form and the brute-force sum disagree (none should appear).

    python3 scripts/reproduce_prime_tables.py [--pmax 100]
"""
from __future__ import annotations

import argparse

from hclassnum.formulas import FIRST_PRIME, h_formula
from hclassnum.hurwitz import moment_sum
from hclassnum.numtheory import primes_up_to


def print_table(modulus: int, pmax: int) -> None:
    p_min = FIRST_PRIME[modulus]
    header = ["p"] + [f"m={m}" for m in range(modulus)]
    rows = []
    for p in primes_up_to(pmax):
        if p < p_min:
            continue
        cells = [str(p)]
        for m in range(modulus):
            value = h_formula(modulus, p, m).value
            mark = "" if value == moment_sum(0, m, modulus, p) else "*"
            cells.append(f"{value}{mark}")
        rows.append(cells)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    print(f"H_(m,{modulus})(p):")
    for row in [header] + rows:
        print("  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=100)
    args = parser.parse_args()
    for modulus in (6, 8):
        print_table(modulus, args.pmax)


if __name__ == "__main__":
    main()
