"""Span recording around minorbit's public calls, from outside the package.

A wrapped call records a span ``[name, start, end, parent, request, counted]``
where ``parent`` is the index of the enclosing span and ``counted`` the time
spent in counted calls made directly inside it.  ``StructureConstants.bracket``
runs tens of thousands of times per request, so it keeps a call count and a
summed time instead of one span per call.

Each function is wrapped under the name its caller looks it up by:
``from .x import f`` binds a new name, so ``crflag.build_chevalley`` is the
attribute FormContext reaches, not ``chevalley.build_chevalley``.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, REQUEST, COUNTED = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.tallies: Counter = Counter()
        self.request = None
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, tally=None) -> None:
        """Record a span per call of ``owner.attr``; ``tally(counter,
        result)`` may add counts derived from the call's result."""
        orig = owner.__dict__[attr]
        spans, stack, clock = self.spans, self._open, self.clock

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.request, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if tally is not None:
                tally(self.tallies, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and sum their time; the time is
        charged to the enclosing span as a child."""
        orig = owner.__dict__[attr]
        spans, stack, clock = self.spans, self._open, self.clock
        acc = self.calls[name]

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                if stack:
                    spans[stack[-1]][COUNTED] += dt

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, the summed self time: each span's duration minus the
    durations of its child spans and of the counted calls inside it."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            covered[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, float] = defaultdict(float)
    for k, rec in enumerate(spans):
        out[rec[NAME]] += rec[END] - rec[START] - covered[k] - rec[COUNTED]
    return out


def _chain_tally(tallies: Counter, result: dict) -> None:
    tallies["chain_reached"] += bool(result["reached"])


def _span_tally(tallies: Counter, result: tuple) -> None:
    tallies["span_rounds"] += len(result[1])


def install(tracer: Tracer) -> None:
    """Wrap the public calls on the classify path (see the table in
    README.md)."""
    from minorbit import chevalley, cli, crflag, golden, realform

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "emit", "cli.emit")
    tracer.span(cli, "catalog", "realform.catalog")
    tracer.span(cli, "concavity_verdict", "crflag.verdict")
    tracer.span(golden, "load_golden", "golden.load")
    tracer.span(golden, "compare_golden", "golden.compare")
    tracer.span(crflag, "find_form", "realform.catalog")
    tracer.span(crflag.FormContext, "__init__", "crflag.context")
    tracer.span(realform.SatakeDiagram, "root_system", "rootsys.build")
    tracer.span(crflag, "build_chevalley", "chevalley.build")
    tracer.span(chevalley.StructureConstants, "sign_gauge", "chevalley.gauge")
    tracer.count(chevalley.StructureConstants, "bracket", "chevalley.bracket")
    tracer.span(crflag, "build_conjugation", "realform.conjugation")
    tracer.span(crflag, "parabolic", "crflag.parabolic")
    tracer.span(crflag, "finite_type", "crflag.finite_type")
    tracer.span(crflag, "k_phi", "crflag.k_phi")
    tracer.span(crflag, "q_form", "crflag.q_form")
    tracer.span(crflag, "levi_matrix", "crflag.levi")
    tracer.span(crflag, "classify_levi", "crflag.levi")
    tracer.span(crflag, "hermitian_classify", "exactla.classify")
    tracer.span(crflag, "hlc_reachability", "crflag.chain", _chain_tally)
    tracer.span(crflag, "t_module_span", "crflag.span", _span_tally)


# metric -> span name whose summed self time it reports
SELF_TIME_METRICS = {
    "rootsys.build_s": "rootsys.build",
    "chevalley.build_s": "chevalley.build",
    "chevalley.gauge_s": "chevalley.gauge",
    "realform.conjugation_s": "realform.conjugation",
    "realform.catalog_s": "realform.catalog",
    "crflag.context_self_s": "crflag.context",
    "crflag.parabolic_s": "crflag.parabolic",
    "crflag.finite_type_s": "crflag.finite_type",
    "crflag.k_phi_s": "crflag.k_phi",
    "crflag.q_form_s": "crflag.q_form",
    "crflag.levi_s": "crflag.levi",
    "crflag.chain_s": "crflag.chain",
    "crflag.span_s": "crflag.span",
    "exactla.classify_s": "exactla.classify",
    "golden.load_s": "golden.load",
    "golden.compare_s": "golden.compare",
    "cli.emit_s": "cli.emit",
    "cli.self_s": "cli.main",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    selfs = self_times(tracer.spans)
    counts = Counter(rec[NAME] for rec in tracer.spans)
    out = {m: selfs.get(name, 0.0) for m, name in SELF_TIME_METRICS.items()}
    bracket_calls, bracket_s = tracer.calls["chevalley.bracket"]
    searches = counts["crflag.chain"]
    out.update({
        "chevalley.bracket_s": bracket_s,
        "chevalley.bracket_calls": bracket_calls,
        "crflag.rows": counts["crflag.verdict"],
        "crflag.chain_searches": searches,
        "crflag.chain_reached_frac":
            tracer.tallies["chain_reached"] / searches if searches else 0.0,
        "crflag.span_rounds": tracer.tallies["span_rounds"],
        "exactla.classify_calls": counts["exactla.classify"],
    })
    return out
