"""Request pools, seeded presentation of their inputs, and checked execution
of one request through ``hmclass.cli.main``.

A pool (``pool/<name>/<workload>.json``, written by ``make_pool.py``) holds
base arrangements and the requests made on them, each with the golden exit
code and SHA-256 of its output.  A run seed changes the order of the
requests and how each base arrangement is presented: a sign on each
coordinate and on each covector.  Every report is a function of the
intersection lattice and the multiplicities alone, so each seed gives new
input files whose golden output is known in advance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time

ROOT = os.getcwd()
POOL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("plane-lines", "space-mult", "lattice-reports")
POOLS = ("dev", "holdout")


def import_cli():
    """Import ``hmclass.cli`` from the ``src`` tree of the checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hmclass", "cli.py")):
        raise SystemExit(f"perfbench: no hmclass sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    from hmclass import cli
    return cli


def load_pool(pool: str, workload: str) -> dict:
    with open(os.path.join(POOL_DIR, pool, workload + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def arrangement_json(n: int, covectors, mults) -> bytes:
    return json.dumps({
        "n": n,
        "hyperplanes": [{"coeffs": [str(c) for c in cov], "mult": m}
                        for cov, m in zip(covectors, mults)],
    }, indent=1).encode()


def present(arr: dict, rng: random.Random) -> bytes:
    """The arrangement with seeded signs on its coordinates and on each
    covector.  The lattice, and therefore every report, is unchanged, and
    so is the size of every number the lattice search meets."""
    n = arr["n"]
    col_sign = [rng.choice((1, -1)) for _ in range(n + 1)]
    covs = []
    for cov in arr["covectors"]:
        s = rng.choice((1, -1))
        covs.append([s * col_sign[k] * cov[k] for k in range(n + 1)])
    return arrangement_json(n, covs, arr["mults"])


def sweep_plan(pool: dict, seed: int, sweep: int) -> list:
    """Requests of one sweep over the pool, in seeded order, each with the
    bytes of its seeded input file."""
    rng = random.Random(f"{seed}:{sweep}")
    arrs = pool["arrangements"]
    inputs = {aid: present(arrs[aid], rng) for aid in sorted(arrs)}
    order = list(range(len(pool["requests"])))
    rng.shuffle(order)
    return [(pool["requests"][i], inputs[pool["requests"][i]["arrangement"]])
            for i in order]


def plan_digest(plan) -> str:
    h = hashlib.sha256()
    for req, data in plan:
        h.update(req["id"].encode() + b"\0" + data + b"\0")
    return h.hexdigest()


class Runner:
    """Writes request inputs under the work directory and runs them one at
    a time through ``cli.main`` in this process.  The files carry the
    process id, so that runs side by side do not share them, and ``close``
    removes them."""

    def __init__(self, cli, pool: dict):
        self.main = cli.main
        os.makedirs(WORK_DIR, exist_ok=True)
        tag = os.getpid()
        self.input_path = os.path.join(WORK_DIR, f"input-{tag}.json")
        self.out_path = os.path.join(WORK_DIR, f"out-{tag}.json")
        self.table_paths = {}
        for aid, arr in pool["arrangements"].items():
            if arr.get("tables") is not None:
                path = os.path.join(WORK_DIR, f"tables-{tag}-{aid}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(arr["tables"], fh)
                self.table_paths[aid] = path

    def close(self):
        for path in [self.input_path, self.out_path,
                     *self.table_paths.values()]:
            if os.path.exists(path):
                os.remove(path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def argv(self, req: dict) -> list:
        argv = [req["command"], self.input_path]
        if req.get("tables"):
            argv += ["--tables", self.table_paths[req["arrangement"]]]
        return argv + ["--out", self.out_path]

    def run(self, req: dict, data: bytes) -> dict:
        """Run one request; return its wall time, exit code, output digest
        and whether it matched the golden."""
        with open(self.input_path, "wb") as fh:
            fh.write(data)
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = self.argv(req)
        err = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.main(argv)
        except Exception as exc:  # an untyped error is a failed request
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        output = b""
        if code == 0 and os.path.exists(self.out_path):
            with open(self.out_path, "rb") as fh:
                output = fh.read()
        elif code is not None:
            output = err.getvalue().encode()
        digest = hashlib.sha256(output).hexdigest()
        ok = error is None and code == req["exit"] and digest == req["sha256"]
        if ok and code == 0 and req["command"] == "milnor":
            ok = json.loads(output)["cross_path_ok"] is True
        if not ok and error is None:
            error = err.getvalue()[:300].strip() or None
        return {"id": req["id"], "arrangement": req["arrangement"],
                "seconds": seconds, "exit": code,
                "sha256": digest, "bytes": len(output), "ok": ok,
                "error": error}
