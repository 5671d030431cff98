"""Span and counter tracing around skillops' public functions.

Nothing in `src/` is edited.  `Tracer.installed()` rebinds names such as
`skillops.maint.apply_action` or `skillops.planner.Bm25Index` in the module
that calls them, for the duration of a `with` block, and puts the originals
back on exit.  Calls made through a rebound name are recorded as

  spans   name, start, end, parent span, scope (set-up or operation index);
          self time is a span's duration minus its child spans and leaves
  leaves  hot functions (body_hash, skill file parse/serialize) that only
          add to a per-scope call count and cumulative time, which is also
          charged to the enclosing span's children

Spans stay in memory until `write_spans` dumps them at the end of a run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from pathlib import Path
from time import perf_counter

# (module, attribute, span name): every binding a layer is reached through.
SPAN_TARGETS = (
    ("skillops.debtgen", "build_library", "debtgen.build_library"),
    ("widegen", "build_wide_library", "widegen.build_wide_library"),
    ("skillops.harness", "exercise_library", "harness.exercise_library"),
    ("skillops.harness", "load_library", "harness.load_library"),
    ("skillops.harness", "load_trace", "harness.load_trace"),
    ("skillops.harness", "save_library", "harness.save_library"),
    ("skillops.maint", "run_maintenance", "maint.run_maintenance"),
    ("skillops.maint", "plan_actions", "maint.plan_actions"),
    ("skillops.maint", "apply_action", "maint.apply_action"),
    ("skillops.maint", "build_hseg", "hseg.build_hseg"),
    ("skillops.hseg", "build_hseg", "hseg.build_hseg"),
    ("skillops.maint", "library_health", "health.library_health"),
    ("skillops.health", "library_health", "health.library_health"),
    ("skillops.maint", "propagate", "cgpd.propagate"),
    ("skillops.cgpd", "propagate", "cgpd.propagate"),
    ("skillops.planner", "build_plan", "planner.build_plan"),
    ("skillops.planner", "rank_candidates", "planner.rank_candidates"),
    ("skillops.planner", "Bm25Index", "planner.Bm25Index"),
    ("skillops.planner", "stitch", "planner.stitch"),
)

LEAF_TARGETS = (
    ("skillops.maint", "body_hash", "contract.body_hash"),
    ("skillops.hseg", "body_hash", "contract.body_hash"),
    ("skillops.harness", "parse_skill_file", "contract.parse_skill_file"),
    ("skillops.harness", "serialize_skill_file", "contract.serialize_skill_file"),
)

SETUP = "setup"

# span record fields
NAME, START, END, PARENT, SCOPE, LEAF_S = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[object, dict[str, list]] = {}
        self.scope: object = SETUP
        self._stack: list[int] = []

    # ---- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scope, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return traced

    def _leaf(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc = self.leaves.setdefault(self.scope, {}).setdefault(name, [0, 0.0])
                acc[0] += 1
                acc[1] += dt
                if stack:
                    spans[stack[-1]][LEAF_S] += dt

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        saved = []
        try:
            for targets, wrap in ((SPAN_TARGETS, self._span), (LEAF_TARGETS, self._leaf)):
                for module_name, attr, name in targets:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # ---- queries ----------------------------------------------------------

    def tally(self) -> dict[str, dict]:
        """name -> {"calls", "seconds", "self"}, each a dict keyed by scope."""
        child: dict[int, float] = {}
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] = child.get(rec[PARENT], 0.0) + rec[END] - rec[START]
        out: dict[str, dict] = {}
        for i, rec in enumerate(self.spans):
            entry = out.setdefault(rec[NAME], {"calls": {}, "seconds": {}, "self": {}})
            scope, dur = rec[SCOPE], rec[END] - rec[START]
            entry["calls"][scope] = entry["calls"].get(scope, 0) + 1
            entry["seconds"][scope] = entry["seconds"].get(scope, 0.0) + dur
            own = dur - rec[LEAF_S] - child.get(i, 0.0)
            entry["self"][scope] = entry["self"].get(scope, 0.0) + own
        for scope, accs in self.leaves.items():
            for name, (calls, seconds) in accs.items():
                entry = out.setdefault(name, {"calls": {}, "seconds": {}, "self": {}})
                entry["calls"][scope] = calls
                entry["seconds"][scope] = seconds
                entry["self"][scope] = seconds
        return out

    def write_spans(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec[:SCOPE + 1]) + "\n")
            fh.write(json.dumps({"leaves": {str(k): v for k, v in self.leaves.items()}}) + "\n")
