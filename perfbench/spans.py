"""Per-layer tracing from outside the package.

The tracer replaces module attributes and class attributes of ``hmclass``
with timing wrappers for the length of a ``with`` block and restores them
afterwards.  Modules bind names with ``from .x import y``, so a function is
replaced in every ``hmclass.*`` namespace that holds it; a method is
replaced under every name of its class that holds it (``__radd__`` is
``__add__``).  Nothing under ``src/`` changes.

Each call becomes a span (name, start, end, parent span, request id).  A
name's self time is the length of its spans minus the part covered by
their traced children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric name, module, attribute path) by layer, as the ROADMAP numbers
# them: L0 coefficients, L1 series and rings, L2 lattice, L3 stratum
# models, L4 Chow accumulation and checks, L5 CLI and JSON.
TARGETS = (
    ("coeffs.PolyY.mul", "hmclass.coeffs", "PolyY.__mul__"),
    ("coeffs.PolyY.gcd", "hmclass.coeffs", "PolyY.gcd"),
    ("coeffs.RatFuncY.new", "hmclass.coeffs", "RatFuncY.__init__"),
    ("coeffs.RatFuncY.add", "hmclass.coeffs", "RatFuncY.__add__"),
    ("coeffs.RatFuncY.mul", "hmclass.coeffs", "RatFuncY.__mul__"),
    ("rings.RingElement.mul", "hmclass.rings", "RingElement.__mul__"),
    ("genera.chern_to_ch", "hmclass.genera", "chern_to_ch"),
    ("genera.class_from_roots", "hmclass.genera", "class_from_roots"),
    ("genera.hirzebruch_series", "hmclass.genera", "hirzebruch_series"),
    ("ambient.virtual_genus", "hmclass.ambient", "virtual_genus"),
    ("arrangement.edges", "hmclass.arrangement", "edges"),
    ("arrangement.localize", "hmclass.arrangement", "localize"),
    ("arrangement.sigma_strata", "hmclass.arrangement", "sigma_strata"),
    ("arrangement.is_dense", "hmclass.arrangement", "is_dense"),
    ("arrangement.euler_by_inclusion_exclusion", "hmclass.arrangement",
     "euler_by_inclusion_exclusion"),
    ("arrangement.chi_y", "hmclass.arrangement", "chi_y"),
    ("spectra.stratum_spectrum", "hmclass.spectra", "stratum_spectrum"),
    ("spectra.sp_user_load", "hmclass.spectra", "sp_user_load"),
    ("spectra.sp_validate", "hmclass.spectra", "sp_validate"),
    ("strata.compactify", "hmclass.strata", "compactify"),
    ("strata.log_chern", "hmclass.strata", "log_chern"),
    ("strata.deligne_class", "hmclass.strata", "deligne_class"),
    ("milnor.stratum_contribution", "hmclass.milnor", "_stratum_contribution"),
    ("strata.build_labels", "hmclass.strata", "build_labels"),
    ("strata.push_to_sigma", "hmclass.strata", "push_to_sigma"),
    ("strata.SigmaChowVector.add", "hmclass.strata", "SigmaChowVector.__add__"),
    ("milnor.chern_milnor", "hmclass.milnor", "chern_milnor"),
    ("milnor.degree0_check", "hmclass.milnor", "degree0_check"),
    ("milnor.assemble", "hmclass.milnor", "assemble"),
    ("arrangement.Arrangement.load", "hmclass.arrangement", "Arrangement.load"),
    ("milnor.MilnorReport.to_json", "hmclass.milnor", "MilnorReport.to_json"),
    ("cli.emit", "hmclass.cli", "_emit"),
)
NAMES = tuple(name for name, _, _ in TARGETS)


class Tracer:
    """Records spans while installed; ``request`` tags the spans that
    follow with a request id."""

    def __init__(self):
        self.names = list(NAMES)
        self.spans = []
        self.stack = []
        self.request = -1
        self.missing = []
        self._undo = []

    def __enter__(self):
        for idx, (name, module, path) in enumerate(TARGETS):
            home = sys.modules.get(module)
            if home is None or not self._install(idx, home, path):
                self.missing.append(name)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    def _install(self, idx: int, module, path: str) -> bool:
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                return False
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(idx, fn)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            homes = [(owner, a) for a, v in vars(owner).items() if v is raw]
        else:
            fn = getattr(module, attr, None)
            if fn is None:
                return False
            wrapped = self._wrap(idx, fn)
            homes = [(m, a) for mod_name, m in list(sys.modules.items())
                     if mod_name == "hmclass" or mod_name.startswith("hmclass.")
                     for a, v in list(vars(m).items()) if v is fn]
        for home, a in homes:
            self._undo.append((home, a, vars(home)[a]))
            setattr(home, a, wrapped)
        return True

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent, self.request)

        return traced

    def wrap(self, name: str, fn):
        """Trace calls to ``fn`` under ``name``, for spans the benchmark
        opens itself."""
        if name not in self.names:
            self.names.append(name)
        return self._wrap(self.names.index(name), fn)

    def totals(self, factors) -> dict:
        """{name: (calls, self seconds)} over all recorded spans, each
        span's time multiplied by ``factors[request id]``."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        spans = self.spans
        for idx, start, end, parent, req in spans:
            length = (end - start) * factors[req]
            calls[idx] += 1
            self_s[idx] += length
            if parent >= 0:
                self_s[spans[parent][0]] -= length
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path: str, origin: float):
        """Spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (idx, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": self.names[idx],
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent if parent >= 0 else None,
                    "request": req}, separators=(",", ":")) + "\n")
