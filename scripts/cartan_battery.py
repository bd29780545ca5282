#!/usr/bin/env python3
"""Run the seeded diagonal battery for one pair and dump a JSON summary of
criterion-versus-direct agreement per construction kind.

Usage: python scripts/cartan_battery.py [--pair sl2irrep:3] [--deg 4] [--count 40] [--seed 0]
"""

import argparse
import json
import random

from nclie.coeffalg import FreeContext
from nclie.current import filtration, lie_closure
from nclie.groups import battery_diagonals, battery_verdicts, diagonal_criterion
from nclie.pairs import pair_by_name


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pair", default="sl2irrep:3")
    ap.add_argument("--gens", type=int, default=2)
    ap.add_argument("--deg", type=int, default=4)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    pair = pair_by_name(args.pair)
    try:
        diagonal_criterion(pair)
    except ValueError as exc:
        raise SystemExit(exc)
    fctx = FreeContext(args.gens, args.deg)
    cache = filtration(fctx)
    closure = lie_closure(pair, fctx)
    battery = battery_diagonals(pair, fctx, cache, random.Random(args.seed), args.count)
    summary: dict = {"pair": pair.name, "deg": args.deg, "seed": args.seed, "kinds": {}}
    mismatches = []
    verdicts = battery_verdicts(pair, fctx, cache, closure, battery)
    for (kind, diag), (_, crit, direct) in zip(battery, verdicts):
        slot = summary["kinds"].setdefault(kind, {"positive": 0, "negative": 0, "mismatch": 0})
        slot["positive" if crit else "negative"] += 1
        if crit != direct:
            slot["mismatch"] += 1
            mismatches.append((kind, [str(f) for f in diag.fs]))
    summary["mismatches"] = mismatches
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
