"""Per-skill health vectors and library-level health.

Each skill gets five signals in [0, 1]:

  U  success rate over its most recent window of calls (0.5 when never called)
  R  red-cluster crowding: (cluster size - 1) / max(1, library size - 1)
  C  share of incident dep edges that are compatible or adapter-bridged
     (1.0 when the skill has no dep edges)
  F  failure rate over the same window (0.0 when never called)
  G  1 exactly when the skill has no validator checklist

U and F come from one pass over the trace's skill and outcome columns, from
the newest call back, which counts each skill's successes and calls until
its window is full; no per-call entry is built.  R and C depend only on the
skill's interface, bridging aside, so they are computed once per interface
number of the graph and read through each skill's interface number; C is
redone for the skills a shim bridges.

Library health H is the weighted per-skill score averaged over the library,
debt is 1 - H.  Under uniform weights H equals 1 minus the mean local risk.
Sums use math.fsum so an all-perfect library scores exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from skillops.contract import ConfigInvalid, EmptyLibrary, Library
from skillops.hseg import Hseg
from skillops.planner import ExecutionTrace

__all__ = [
    "HealthVector",
    "HealthWeights",
    "UNIFORM_WEIGHTS",
    "LibraryHealthReport",
    "library_health",
    "local_risk",
    "skill_score",
]

DEFAULT_WINDOW = 100


class HealthVector(NamedTuple):
    """A skill's five signals.  A tuple, so building one per skill skips a
    frozen dataclass's per-field ``object.__setattr__``."""

    U: float
    R: float
    C: float
    F: float
    G: float

    def as_dict(self) -> dict[str, float]:
        return self._asdict()


@dataclass(frozen=True)
class HealthWeights:
    w_u: float = 0.2
    w_r: float = 0.2
    w_c: float = 0.2
    w_f: float = 0.2
    w_g: float = 0.2

    def __post_init__(self) -> None:
        weights = (self.w_u, self.w_r, self.w_c, self.w_f, self.w_g)
        if not all(0.0 <= w <= 1.0 for w in weights):  # NaN fails this too
            raise ValueError(f"health weights must lie in [0, 1], got {weights}")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"health weights must sum to 1, got {total!r}")


UNIFORM_WEIGHTS = HealthWeights()


def skill_score(hv: HealthVector, weights: HealthWeights = UNIFORM_WEIGHTS) -> float:
    return math.fsum(
        (
            weights.w_u * hv.U,
            weights.w_r * (1.0 - hv.R),
            weights.w_c * hv.C,
            weights.w_f * (1.0 - hv.F),
            weights.w_g * (1.0 - hv.G),
        )
    )


def local_risk(hv: HealthVector) -> float:
    """Unweighted mean of the five risk directions; the seed for risk
    propagation."""
    return math.fsum(((1.0 - hv.U), hv.R, (1.0 - hv.C), hv.F, hv.G)) / 5.0


def _check_window(window: int) -> None:
    # a window below 1 would count no calls, so every skill would read as
    # never called
    if window < 1:
        raise ConfigInvalid(f"window must be positive, got {window}")


def _usage_rates(trace: ExecutionTrace, skills, window: int):
    """(U, F) of each skill in order, over its last `window` calls in the
    trace.  One pass over the trace's skill and outcome columns, newest call
    first, counts successes and calls into two int maps."""
    ok = dict.fromkeys((s.id for s in skills), 0)
    calls = ok.copy()
    for skill, outcome in zip(reversed(trace.skills), reversed(trace.outcomes)):
        n = calls.get(skill)
        if n is not None and n < window:
            calls[skill] = n + 1
            if outcome == "success":
                ok[skill] += 1
    return (
        (k / n, (n - k) / n) if n else (0.5, 0.0)
        for k, n in zip(ok.values(), calls.values())
    )


def _vectors(skills, g: Hseg, rates) -> dict[str, HealthVector]:
    """Each skill's vector over g, with (U, F) taken from `rates` in skill
    order.  R and the unbridged C are computed once per interface number,
    as every member shares them, and each skill reads them through its
    interface number; C is computed again for the skills that shims bridge,
    from their own incident counts."""
    denom = max(1, len(g.nodes) - 1)
    start = g._iface_start
    r_of = [(hi - lo - 1) / denom for lo, hi in zip(start, start[1:])]
    c_of = [ok / dep if dep else 1.0 for dep, ok in zip(g._dep_counts, g._ok_counts)]
    iface, pos = g._iface, g._pos
    vectors = {
        s.id: HealthVector(u, r_of[k], c_of[k], f, 0.0 if s.checklist else 1.0)
        for s, (u, f), k in zip(skills, rates, [iface[pos[s.id]] for s in skills])
    }
    for sid in g._bridged_counts:
        if sid in vectors:
            dep_total, dep_ok = g.incident_dep_counts(sid)
            vectors[sid] = vectors[sid]._replace(C=dep_ok / dep_total if dep_total else 1.0)
    return vectors


@dataclass(frozen=True)
class LibraryHealthReport:
    """Per-skill vectors and library health.  The local risks are computed
    once, on first use, and shared by local_risks and as_dict."""

    per_skill: dict[str, HealthVector]
    H: float
    debt: float

    def _risks(self) -> dict[str, float]:
        """id -> local risk, kept with object.__setattr__ so eq and repr
        never see it."""
        risks = self.__dict__.get("_local_risks")
        if risks is None:
            risks = {sid: local_risk(hv) for sid, hv in self.per_skill.items()}
            object.__setattr__(self, "_local_risks", risks)
        return risks

    def local_risks(self) -> dict[str, float]:
        """A fresh id -> local risk map, in per_skill order."""
        return dict(self._risks())

    def as_dict(self) -> dict:
        risks = self._risks()
        per_skill = {}
        for sid in sorted(self.per_skill):
            u, r, c, f, gap = self.per_skill[sid]
            per_skill[sid] = {
                "U": u, "R": r, "C": c, "F": f, "G": gap, "local_risk": risks[sid]
            }
        return {"H": self.H, "debt": self.debt, "per_skill": per_skill}


def library_health(
    lib: Library,
    g: Hseg,
    trace: ExecutionTrace = ExecutionTrace(),
    weights: HealthWeights = UNIFORM_WEIGHTS,
    window: int = DEFAULT_WINDOW,
) -> LibraryHealthReport:
    """Diagnose every skill with one pass over the trace and one over the
    graph's interface groups."""
    _check_window(window)
    skills = lib.skills
    if not skills:
        raise EmptyLibrary("cannot diagnose an empty library")
    per_skill = _vectors(skills, g, _usage_rates(trace, skills, window))
    h = math.fsum(skill_score(hv, weights) for hv in per_skill.values()) / len(per_skill)
    return LibraryHealthReport(per_skill=per_skill, H=h, debt=1.0 - h)
