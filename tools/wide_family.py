"""Run speed sweeps and residual audits over a wide family of monostable reactions.

The family is 75 reactions f = r*u*(xi - u)*(1 + a*u**2), drawn with numpy's
``default_rng(2024)`` as r in [0.5, 3], xi in [0.5, 4], a in [0, 0.5] and
d in [0.05, 2].  Each reaction gets a ``density_sweep`` over the 10 deltas
xi*(1.01 ... 50), geometric in delta/xi, and one 50-point
``residual_monotonicity_audit`` at its middle delta.  Usage, from the
repository root::

    python tools/wide_family.py [out.csv]

It prints the failed sweep rows grouped by their message, with the numbers
in each message replaced by ``#``, the failed or failing audits, and the
number of collocation equation evaluations (``phaseplane._equations``
calls) and of lane-steps (the lanes summed over those calls), and the
misses of each cache of ``phaseplane``, cleared at the start: keyed on the
degree, each misses a few times, where a cache of the solve keyed on
(xi, delta) would miss once per problem.  It writes one CSV row per sweep
row, c* blank where the row failed, to ``wide_family.csv`` or the path
given, and exits 1 if an audit failed; failed sweep rows keep exit 0.
"""
from __future__ import annotations

import csv
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from retreatwave import phaseplane, verify, wavespeed  # noqa: E402
from retreatwave.errors import InputError, NumericalError  # noqa: E402
from retreatwave.reaction import make_polynomial  # noqa: E402

SEED, REACTIONS, AUDIT_GRID = 2024, 75, 50
LOW, HIGH = (0.5, 0.5, 0.0, 0.05), (3.0, 4.0, 0.5, 2.0)  # r, xi, a, d
RATIOS = np.geomspace(1.01, 50.0, 10)  # delta/xi
NUMBER = r"[-+]?\d[\d.]*(?:e[-+]?\d+)?"  # replaced by # in the grouped messages


def main(argv: list[str]) -> int:
    out = Path(argv[0] if argv else "wide_family.csv")
    calls = [0, 0]  # _equations calls and lane-steps
    equations = phaseplane._equations

    def counting(w, c, *grid):
        calls[0] += 1
        calls[1] += len(w)
        return equations(w, c, *grid)

    phaseplane._equations = counting
    caches = {name: fn for name, fn in vars(phaseplane).items() if hasattr(fn, "cache_info")}
    for cache in caches.values():
        cache.cache_clear()
    rows, failed, audits = [], defaultdict(list), []
    draws = np.random.default_rng(SEED).uniform(LOW, HIGH, (REACTIONS, 4)).tolist()
    for i, (r, xi, a, d) in enumerate(draws):
        f = make_polynomial((r * xi, -r, r * a * xi, -r * a))
        deltas = (xi * RATIOS).tolist()
        table = wavespeed.density_sweep(d, f, deltas)
        for delta, res in zip(deltas, table.results):
            if res is None:
                failed[re.sub(NUMBER, "#", table.errors[delta])].append((i, delta))
            rows.append((i, r, xi, a, d, delta, "" if res is None else repr(res.c_star)))
        try:
            audit = verify.residual_monotonicity_audit(d, f, deltas[len(deltas) // 2], AUDIT_GRID)
            if not (audit.strictly_decreasing and len(audit.sign_change_cells) == 1):
                audits.append((i, f"decreasing={audit.strictly_decreasing}, "
                                  f"cells={audit.sign_change_cells}"))
        except (InputError, NumericalError) as exc:
            audits.append((i, str(exc)))
    phaseplane._equations = equations

    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("reaction", "r", "xi", "a", "d", "delta", "c_star"))
        writer.writerows(rows)
    print(f"{len(rows)} sweep rows, {sum(map(len, failed.values()))} failed")
    for message, where in sorted(failed.items(), key=lambda item: -len(item[1])):
        print(f"  {len(where)} x {message}")
        print("    rows " + ", ".join(f"{i}@{delta:.6g}" for i, delta in where))
    print(f"{REACTIONS} audits, {len(audits)} failed")
    for i, message in audits:
        print(f"  reaction {i}: {message}")
    print(f"_equations calls {calls[0]}, lane-steps {calls[1]}")
    print("cache misses " + ", ".join(f"{name} {cache.cache_info().misses}"
                                      for name, cache in caches.items()))
    print(f"c* per row written to {out}")
    return 1 if audits else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
