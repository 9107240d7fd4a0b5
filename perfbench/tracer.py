"""Timing wrappers installed from outside the package, around the public
functions and methods of each layer.

A wrapped call is a span.  Spans nest: a call made while another wrapped
call is running is its child, and a span's self time is its duration minus
the durations of its direct children.  Totals are kept per function name and
per (parent, child) edge; no span list is kept, so memory stays flat even
for the survey's hundreds of thousands of form evaluations.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from fanosing import forms, ideal, linalg, pencil, singular, tangent


def _rref_entries(counts, args, kwargs, result):
    rows = args[0]
    counts["linalg.rref.entries"] += len(rows) * len(rows[0]) if rows else 0


def _roots_scanned(counts, args, kwargs, result):
    # only the prime-field branch scans points: p + 1 of them per call
    p = args[0].field.p
    if p and not isinstance(result, BaseException):
        counts["forms.binary_roots.points_scanned"] += p + 1
        counts["forms.binary_roots.roots_found"] += len(result.roots)


def _rank_one(counts, args, kwargs, result):
    if isinstance(result, pencil.NotConstantRankTwo):
        counts["pencil.normal_form.rank_one"] += 1


def _line_candidates(counts, args, kwargs, result):
    X = args[0]
    counts["singular.all_lines.candidates"] += \
        singular.grassmannian_size(X.field.p, X.n)
    if not isinstance(result, BaseException):
        counts["singular.all_lines.found"] += len(result)


# (metric name, owner, attribute, counter or None)
TARGETS = (
    ("tangent.analyze_tangent", tangent, "analyze_tangent", None),
    ("tangent.restricted_contractions", tangent, "restricted_contractions",
     None),
    ("forms.restrict_to_plane", forms, "restrict_to_plane", None),
    ("forms.contract", forms, "contract", None),
    ("forms.evaluate", forms.MultiForm, "evaluate", None),
    ("forms.binary_gcd", forms, "binary_gcd", None),
    ("forms.binary_roots", forms, "binary_roots", _roots_scanned),
    ("linalg.rref", linalg, "rref", _rref_entries),
    ("linalg.meet", linalg.Subspace, "meet", None),
    ("linalg.kernel", linalg, "kernel", None),
    ("pencil.normal_form", pencil, "normal_form", _rank_one),
    ("ideal.extract_generators", ideal, "extract_generators", None),
    ("ideal.build_filtration", ideal, "build_filtration", None),
    ("ideal.contains_image_sigma", ideal, "contains_image_sigma", None),
    ("singular.analyze_line", singular, "analyze_line", None),
    ("singular.singular_on_line", singular, "singular_on_line", None),
    ("singular.all_lines", singular, "all_lines", _line_candidates),
    ("singular.conjecture_check", singular, "conjecture_check", None),
)

COUNTERS = ("linalg.rref.entries", "forms.binary_roots.points_scanned",
            "forms.binary_roots.roots_found", "pencil.normal_form.rank_one",
            "singular.all_lines.candidates", "singular.all_lines.found")


class Tracer:
    """Aggregated spans of the wrapped calls; install() patches them in."""

    def __init__(self, now=perf_counter):
        self.now = now                  # clock for span durations
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.edges = Counter()          # (parent, child) -> calls
        self.counts = Counter()
        self._stack = []                # [name, child seconds] per open span
        self._patches = []              # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        stack, now = self._stack, self.now

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                result = e
                raise
            finally:
                dur = now() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                self.edges[(parent, name)] += 1
                if counter is not None:
                    counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every target, in every package module that names it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "fanosing"
                                         or k.startswith("fanosing."))]
        for name, owner, attr, counter in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self, passes: int, scale: float = 1.0) -> dict:
        """Per-layer metrics per pass over the traced inputs; self times
        are multiplied by scale."""
        out = {}
        for name, _, _, _ in TARGETS:
            out[name + ".calls"] = (self.calls[name] / passes, "count")
            out[name + ".self_s"] = (self.self_s[name] * scale / passes, "s")
        for name in COUNTERS:
            out[name] = (self.counts[name] / passes, "count")
        scanned = self.counts["forms.binary_roots.points_scanned"]
        out["forms.binary_roots.hit_ratio"] = (
            self.counts["forms.binary_roots.roots_found"] / scanned
            if scanned else 0.0, "ratio")
        cands = self.counts["singular.all_lines.candidates"]
        out["singular.all_lines.hit_ratio"] = (
            self.counts["singular.all_lines.found"] / cands
            if cands else 0.0, "ratio")
        return out

    def report(self, passes: int, scale: float = 1.0) -> str:
        """Human-readable table per pass: self and total time, callers."""
        lines = ["%-34s %10s %10s %10s  callers" % ("span", "calls/pass",
                                                    "self_s", "total_s")]
        for name in sorted(self.self_s, key=self.self_s.get, reverse=True):
            callers = ", ".join("%s:%d" % (p or "op", c / passes)
                                for (p, ch), c in sorted(self.edges.items(),
                                                         key=str)
                                if ch == name)
            lines.append("%-34s %10d %10.4f %10.4f  %s" % (
                name, self.calls[name] / passes,
                self.self_s[name] * scale / passes,
                self.total_s[name] * scale / passes, callers))
        return "\n".join(lines)
