"""Count the ``Fraction`` objects one ``library`` benchmark round builds.

The workload's inputs for the seed come from ``perfbench/inputs.py``,
imported without writing bytecode next to it.  The cases are set up as the
benchmark does it (one algebra per parameter set and mode, every literal
parsed once), and each operation then runs once under cProfile; set-up is
not counted.  A ``Fraction`` built is a call of ``Fraction.__new__`` or, on
Python 3.12 and later, of ``Fraction._from_coprime_ints``, which the
arithmetic calls instead.  One JSON line gives the count per operation kind
(solve, lev, rev; ``-exact`` or ``-float``) and the total.

Run:  PYTHONPATH=src python3 scripts/fraction_count.py --seed 1 [--max N]
The exit status is 1 when the exact eigen tests build a Fraction (lev-exact
or rev-exact is not 0), or when ``--max`` is given and the total exceeds it.
"""

import argparse
import cProfile
import json
import pstats
import random
import sys
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402 - found through the path set above

import octopoly  # noqa: E402

CONSTRUCTORS = ("__new__", "_from_coprime_ints")


def fraction_constructions(fn, *args):
    """(fn(*args), the number of Fractions built during the call)."""
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args)
    stats = pstats.Stats(profile).stats
    count = sum(
        calls
        for (path, _, name), (_, calls, *_) in stats.items()
        if name in CONSTRUCTORS and Path(path).name == "fractions.py"
    )
    return result, count


def library_operations(seed):
    """(kind, function, arguments) of every operation of one round."""
    algebras, ops = {}, []
    for case in inputs.WORKLOADS["library"](random.Random(seed)):
        key = (case.params, case.exact)
        if key not in algebras:
            mode = "exact" if case.exact else "float"
            algebras[key] = octopoly.OctonionAlgebra(*(str(p) for p in case.params), mode=mode)
        A = algebras[key]
        phi = octopoly.parse_polynomial(case.literal, A)
        kind = case.kind + ("-exact" if case.exact else "-float")
        if case.kind == "solve":
            ops.append((kind, octopoly.solve, (phi,)))
        else:
            test = octopoly.lev_test if case.kind == "lev" else octopoly.rev_test
            ops.append((kind, test, (phi, octopoly.parse_octonion(case.lam_literal, A))))
    return ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max", type=int, default=None, help="fail above this total")
    args = parser.parse_args(argv)
    counts = Counter()
    for kind, fn, fn_args in library_operations(args.seed):
        counts[kind] += fraction_constructions(fn, *fn_args)[1]
    total = sum(counts.values())
    print(json.dumps(dict(sorted(counts.items()), total=total, seed=args.seed)))
    eigen = counts["lev-exact"] + counts["rev-exact"]
    failed = eigen > 0
    if failed:
        print("the exact eigen tests built %d Fractions, not 0" % eigen, file=sys.stderr)
    if args.max is not None and total > args.max:
        print("%d Fractions built, more than %d" % (total, args.max), file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
