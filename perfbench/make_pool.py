"""Generate the request pools and their golden outputs.

    python3 perfbench/make_pool.py [--pool dev|holdout] [--workload NAME]
                                   [--check]

Run from the repository root.  Arrangements are drawn from a fixed
generator seed per pool and workload; each request is run once through
``hmclass.cli.main`` to record its golden exit code and output SHA-256,
and twice more in seeded coordinates to confirm the output does not
depend on them.  ``--check`` regenerates the pool and compares it with the
committed file instead of writing it.

This is the only part of the benchmark that calls into hmclass below the
CLI: it classifies strata to write the user spectrum tables and the
workload descriptors.  Regenerate the pools only when report bytes are
meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workload as wl  # noqa: E402

# (ambient n, hyperplane count, covector entry range, multiplicity choices,
#  how many arrangements of this size)
LADDERS = {
    "plane-lines": [(2, 8, 2, (1,), 5), (2, 9, 2, (1,), 3),
                    (2, 10, 2, (1,), 2), (2, 11, 2, (1,), 1),
                    (2, 12, 2, (1,), 1)],
    "space-mult": [(3, 5, 1, (1, 1, 1, 2, 3), 10),
                   (3, 6, 1, (1, 1, 1, 2, 3), 6),
                   (3, 7, 1, (1, 1, 1, 2, 3), 2)],
    "lattice-reports": [(2, 9, 2, (1,), 2), (2, 10, 2, (1,), 1),
                        (2, 11, 2, (1,), 1),
                        (3, 6, 1, (1, 1, 1, 2, 3), 2),
                        (3, 7, 1, (1, 1, 1, 2, 3), 1)],
}
COMMANDS = {
    "plane-lines": ("milnor",),
    "space-mult": ("milnor",),
    "lattice-reports": ("lattice", "spectra", "chi-y"),
}


def _proportional(a, b) -> bool:
    return all(a[i] * b[j] == a[j] * b[i]
               for i in range(len(a)) for j in range(i + 1, len(a)))


def draw(rng: random.Random, n: int, k: int, bound: int, mults) -> dict:
    """k hyperplanes of P^n with integer covector entries in [-bound,
    bound], redrawing zero covectors and proportional pairs."""
    covs = []
    while len(covs) < k:
        cov = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if any(cov) and not any(_proportional(cov, c) for c in covs):
            covs.append(cov)
    return {"n": n, "covectors": covs,
            "mults": [rng.choice(mults) for _ in range(k)]}


def describe(arr: dict) -> dict:
    """Lattice descriptors, the user tables the catalogue cannot serve, and
    how many Sigma-strata repeat the local type of an earlier one."""
    from hmclass.arrangement import (edges, localize, milnor_fiber_chi,
                                     sigma_strata, Arrangement)
    from hmclass.spectra import classify_germ, stratum_spectrum
    from hmclass.strata import build_labels

    a = Arrangement.from_json(json.loads(
        wl.arrangement_json(arr["n"], arr["covectors"], arr["mults"])))
    all_edges = edges(a)
    strata = sigma_strata(a)
    tables = {}
    seen = Counter()
    for s in strata:
        loc = localize(a, s.edge)
        seen[(s.edge.codim, s.dim, s.edge.m_s, tuple(sorted(loc.mults)),
              classify_germ(loc).describe())] += 1
        if stratum_spectrum(a, s, None) is None:
            mass = (-1) ** (loc.rank - 1) * (milnor_fiber_chi(loc) - 1)
            tables[s.key] = [{"alpha": "1", "mult": mass}] if mass else []
    return {"hyperplanes": a.r, "edges": len(all_edges),
            "sigma_strata": len(strata), "labels": len(build_labels(a).labels),
            "repeat_strata": sum(c - 1 for c in seen.values()),
            "tables": tables if arr["n"] == 3 else None}


def generate(pool: str, workload: str, cli) -> dict:
    rng = random.Random(f"perfbench:{pool}:{workload}")
    arrangements = {}
    requests = []
    index = 0
    for n, k, bound, mults, count in LADDERS[workload]:
        for _ in range(count):
            aid = f"a{index:02d}"
            index += 1
            arr = draw(rng, n, k, bound, mults)
            arr.update(describe(arr))
            arrangements[aid] = arr
            for command in COMMANDS[workload]:
                requests.append({
                    "id": f"{aid}-{command}", "arrangement": aid,
                    "command": command,
                    "tables": (arr["tables"] is not None
                               and command in ("milnor", "spectra")),
                })
    pool_doc = {"workload": workload, "pool": pool,
                "arrangements": arrangements, "requests": requests}
    with wl.Runner(cli, pool_doc) as runner:
        for req in requests:
            _golden(runner, workload, arrangements[req["arrangement"]], req)
    return pool_doc


def _golden(runner, workload: str, arr: dict, req: dict):
    """Record the golden exit code and digest of one request, and check
    that two other presentations of its input give the same output."""
    base = wl.arrangement_json(arr["n"], arr["covectors"], arr["mults"])
    req.update(exit=None, sha256=None)
    first = runner.run(req, base)
    if first["exit"] is None:
        raise SystemExit(f"{workload} {req['id']}: {first['error']}")
    req.update(exit=first["exit"], sha256=first["sha256"])
    for seed in (1, 2):
        if not runner.run(req, wl.present(arr, random.Random(seed)))["ok"]:
            raise SystemExit(f"{workload} {req['id']}: output depends on "
                             f"coordinates (seed {seed})")
    print(f"{workload} {req['id']}: n={arr['n']} r={arr['hyperplanes']} "
          f"edges={arr['edges']} exit={first['exit']} "
          f"{first['seconds']:.2f}s", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pool", choices=wl.POOLS, action="append")
    ap.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    cli = wl.import_cli()
    status = 0
    for pool in args.pool or wl.POOLS:
        for workload in args.workload or wl.WORKLOADS:
            start = time.perf_counter()
            doc = generate(pool, workload, cli)
            path = os.path.join(wl.POOL_DIR, pool, workload + ".json")
            text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
            if args.check:
                with open(path, encoding="utf-8") as fh:
                    same = fh.read() == text
                print(f"{pool}/{workload}: {'same' if same else 'DIFFERS'}")
                status |= not same
            else:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            print(f"{pool}/{workload}: {len(doc['requests'])} requests, "
                  f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
