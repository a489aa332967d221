"""End-to-end and per-layer benchmark of the hmclass command line.

    python3 perfbench/run.py --workload plane-lines --seed 1 --seconds 10 \\
        --trace 0 [--pool dev|holdout]

Run from the repository root; ``--workload all`` runs the three workloads
one after another, each in its own process.  One client sends one request
at a time to ``hmclass.cli.main`` in this process (closed loop, no
threads).  Every request is checked against the golden exit code and
output SHA-256 recorded in the pool, and a ``milnor`` report must also say
``cross_path_ok: true``.

With ``--trace 0`` the run sweeps the whole pool, in an order and with
signs drawn from the seed, until ``--seconds`` have passed at the end of a
sweep, and reports the end-to-end metrics.  Times are reported in seconds
at a fixed reference speed of the machine, measured around and during
every call (see "machine speed" below); raw wall times are in the context
line.  With ``--trace 1`` it makes one untraced and one traced sweep of the
same requests and reports per-layer call counts and self times, the
workload descriptors and the tracing overhead; spans go to
``.perfbench_work/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the context: machine, commit, descriptors, sample counts, and the
failure fraction.  ``--pool holdout`` selects the second request pool,
which is kept for confirming a claim and not used while a change is
written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402
import workload as wl  # noqa: E402

SETUP_LAUNCHES = 10
# Reference speed: a machine on which one probe kernel takes 0.25 ms.
REFERENCE_S = 2.5e-4
PROBE_EVERY_S = 0.1
_PROBE_TERMS = tuple((i % 7 - 3, i % 11 + 1) for i in range(100))
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from hmclass import cli; cli.main(['--schema'])")


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(wl.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the package sources, which names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    top = os.path.join(wl.ROOT, "src", "hmclass")
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared host the speed of this process drifts by tens of percent
# over seconds to minutes, which no length of run averages out.  The
# benchmark therefore times a fixed probe kernel of small-fraction sums,
# like the arithmetic hmclass does, three times before and after every
# timed call and, from a timer signal, every PROBE_EVERY_S during it.  A
# call's time is reported in seconds at the reference speed: its wall
# seconds times REFERENCE_S over the median probe time around it.  The
# probes during a call add about 0.3 % to its wall time.  Raw wall times
# are in the context line.


def _probe() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for a, b in _PROBE_TERMS:
        acc += Fraction(a, b)
    return time.perf_counter() - start


class SpeedMeter:
    """Probe samples of the machine's speed; while entered, a timer signal
    adds one every PROBE_EVERY_S."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(_probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args, **kwargs):
        """Run ``fn``; return its result, wall seconds, and the factor that
        turns wall seconds into seconds at the reference speed."""
        first = len(self.samples)
        self.samples.extend(_probe() for _ in range(3))
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        self.samples.extend(_probe() for _ in range(3))
        return (result, seconds,
                REFERENCE_S / statistics.median(self.samples[first:]))


def run_request(meter, runner, req: dict, data: bytes) -> dict:
    """One checked request; ``seconds`` is the wall time of ``cli.main``,
    ``wall`` that of the whole request with its file handling, and
    ``factor`` the speed adjustment for both."""
    record, wall, factor = meter.timed(runner.run, req, data)
    record.update(wall=wall, factor=factor)
    return record


# ---------------------------------------------------------------------------
# measurements


def measure_setup(meter) -> tuple:
    """Median time of fresh interpreters that import hmclass and run its
    CLI parser once (``hmclass --schema``), at the reference speed and raw;
    one launch first, untimed, so that byte-code caches exist."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE,
            os.path.join(wl.ROOT, "src")]
    launches = [meter.timed(subprocess.run, argv, stdout=subprocess.DEVNULL,
                            check=True, cwd=wl.ROOT)
                for _ in range(SETUP_LAUNCHES + 1)][1:]
    return (statistics.median(s * f for _, s, f in launches),
            statistics.median(s for _, s, _ in launches))


def tail(records, key) -> tuple:
    """The highest order statistic with at least ten samples above it
    (the minimum when there are ten or fewer), the percentile it stands
    at, and the sample count.  A sample is one pool request's median of
    ``key`` over the sweeps, so the count, and with it the percentile, is
    the pool size however many sweeps a faster program makes."""
    by_request = {}
    for r in records:
        by_request.setdefault(r["id"], []).append(key(r))
    xs = sorted(statistics.median(v) for v in by_request.values())
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def descriptors(pool: dict) -> dict:
    """Workload shape, averaged over the requests of one sweep."""
    reqs = pool["requests"]
    arrs = [pool["arrangements"][r["arrangement"]] for r in reqs]

    def mean(key):
        return sum(a[key] for a in arrs) / len(arrs)

    return {
        "workload.requests": (len(reqs), "count"),
        "workload.hyperplanes": (mean("hyperplanes"), "count"),
        "workload.edges": (mean("edges"), "count"),
        "workload.sigma_strata": (mean("sigma_strata"), "count"),
        "workload.labels": (mean("labels"), "count"),
        "workload.table_share": (sum(bool(r["tables"] and a["tables"])
                                     for r, a in zip(reqs, arrs)) / len(reqs),
                                 "share"),
        "workload.error_share": (sum(r["exit"] != 0 for r in reqs) / len(reqs),
                                 "share"),
        "strata.repeat_share": (sum(a["repeat_strata"] for a in arrs)
                                / max(sum(a["sigma_strata"] for a in arrs), 1),
                                "share"),
    }


def _warm_up(meter, runner, pool: dict, seed: int) -> dict:
    """One untimed request on the smallest input, so that lazy set-up and
    interned caches are in place before timing."""
    plan = wl.sweep_plan(pool, seed, -1)
    req, data = min(plan, key=lambda rd: (pool["arrangements"][
        rd[0]["arrangement"]]["edges"], rd[0]["id"]))
    return run_request(meter, runner, req, data)


def end_to_end(pool: dict, measured: list, adjust: bool) -> tuple:
    """End-to-end metrics of the timed requests, at the reference speed
    or, with ``adjust`` false, in raw wall time."""
    def scale(r):
        return r["factor"] if adjust else 1.0

    def secs(r):
        return r["seconds"] * scale(r)

    def ms_per_edge(r):
        return 1000.0 * secs(r) / pool["arrangements"][r["arrangement"]]["edges"]

    tail_s, tail_pct, tail_n = tail(measured, secs)
    return {
        "reports_per_s": (len(measured) / sum(r["wall"] * scale(r)
                                              for r in measured), "1/s"),
        "report_s.p50": (statistics.median(map(secs, measured)), "s"),
        "report_s.tail": (tail_s, "s"),
        "ms_per_edge.p50": (statistics.median(map(ms_per_edge, measured)),
                            "ms"),
    }, tail_pct, tail_n


def timed_run(runner, pool: dict, seed: int, seconds: int) -> tuple:
    meter = SpeedMeter()
    setup_s, setup_raw_s = measure_setup(meter)
    with meter:
        records = [_warm_up(meter, runner, pool, seed)]
        start = time.perf_counter()
        sweep = 0
        while sweep == 0 or time.perf_counter() - start < seconds:
            for req, data in wl.sweep_plan(pool, seed, sweep):
                records.append(run_request(meter, runner, req, data))
            sweep += 1
    wall = time.perf_counter() - start
    measured = records[1:]
    metrics, tail_pct, tail_n = end_to_end(pool, measured, adjust=True)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (setup_s, "s")
    raw, _, _ = end_to_end(pool, measured, adjust=False)
    raw = {name: value for name, (value, _) in raw.items()}
    raw["setup_s"] = setup_raw_s
    context = {"sweeps": sweep, "timed_requests": len(measured),
               "timed_wall_s": wall,
               "speed_factor.median": statistics.median(
                   r["factor"] for r in measured),
               "raw_wall": raw,
               "report_s.tail_percentile": tail_pct,
               "report_s.tail_samples": tail_n,
               "setup_launches": SETUP_LAUNCHES}
    return metrics, context, records


def traced_run(runner, pool: dict, seed: int, workload: str) -> tuple:
    plan = wl.sweep_plan(pool, seed, 0)
    tracer = spans.Tracer()
    plain_main = runner.main
    with SpeedMeter() as meter:
        records = [_warm_up(meter, runner, pool, seed)]
        untraced = [run_request(meter, runner, req, data)
                    for req, data in plan]
        runner.main = tracer.wrap("cli.main", plain_main)
        try:
            with tracer:
                origin = time.perf_counter()
                traced = []
                for i, (req, data) in enumerate(plan):
                    tracer.request = i
                    traced.append(run_request(meter, runner, req, data))
        finally:
            runner.main = plain_main
    records += untraced + traced
    tracer.write(os.path.join(wl.WORK_DIR, f"spans-{workload}.jsonl"), origin)

    metrics = {}
    factors = [r["factor"] for r in traced]
    for name, (calls, self_s) in tracer.totals(factors).items():
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_s"] = (self_s, "s")
    metrics["arrangement.edges.per_report"] = (
        metrics["arrangement.edges.calls"][0] / len(plan), "ratio")
    metrics["cli.report_bytes"] = (
        sum(r["bytes"] for r in traced) / len(traced), "bytes")
    metrics["trace.overhead"] = (
        sum(r["wall"] * r["factor"] for r in traced)
        / sum(r["wall"] * r["factor"] for r in untraced), "ratio")
    metrics.update(descriptors(pool))
    context = {"untraced_wall_s": sum(r["wall"] for r in untraced),
               "traced_wall_s": sum(r["wall"] for r in traced),
               "spans": len(tracer.spans), "missing_targets": tracer.missing}
    return metrics, context, records


# ---------------------------------------------------------------------------
# driver


def run_one(args) -> int:
    cli = wl.import_cli()
    pool = wl.load_pool(args.pool, args.workload)
    plan_digest = wl.plan_digest(wl.sweep_plan(pool, args.seed, 0))
    deterministic = plan_digest == wl.plan_digest(
        wl.sweep_plan(pool, args.seed, 0))
    with wl.Runner(cli, pool) as runner:
        if args.trace:
            metrics, context, records = traced_run(runner, pool, args.seed,
                                                   args.workload)
        else:
            metrics, context, records = timed_run(runner, pool, args.seed,
                                                  args.seconds)
    failed = [r for r in records if not r["ok"]]
    for r in failed[:5]:
        print(f"perfbench: request {r['id']} failed: exit {r['exit']}, "
              f"sha256 {r['sha256'][:12]}, {r['error']}", file=sys.stderr)
    if not deterministic:
        print("perfbench: the seed did not give byte-identical inputs",
              file=sys.stderr)
    context.update(
        workload=args.workload, pool=args.pool, seed=args.seed,
        trace=args.trace, inputs_sha256=plan_digest,
        deterministic_inputs=deterministic,
        fail_frac=len(failed) / len(records),
        environment=environment())
    if not args.trace:
        context["descriptors"] = {k: v for k, (v, _) in
                                  descriptors(pool).items()}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {unit}")
    print(f"{args.workload:16s} {'fail_frac':44s} "
          f"{context['fail_frac']:14.6g} share")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": deterministic and not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--pool", args.pool],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the hmclass CLI.")
    ap.add_argument("--workload", required=True,
                    choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", choices=wl.POOLS, default="dev",
                    help="request pool; 'holdout' is kept for confirming "
                         "a claim")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
