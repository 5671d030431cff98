"""Per-skill health vectors and library-level health.

Each skill gets five signals in [0, 1]:

  U  success rate over its most recent window of calls (0.5 when never called)
  R  red-cluster crowding: (cluster size - 1) / max(1, library size - 1)
  C  share of incident dep edges that are compatible or adapter-bridged
     (1.0 when the skill has no dep edges)
  F  failure rate over the same window (0.0 when never called)
  G  1 exactly when the skill has no validator checklist

U and F come from one pass over the trace from its newest entry back, which
counts each skill's successes and calls until its window is full.  They
depend on nothing but the skill's id, so a maintained library, whose skills
keep their ids, reuses them from the input's diagnosis.

Library health H is the weighted per-skill score averaged over the library,
debt is 1 - H.  Under uniform weights H equals 1 minus the mean local risk.
Sums use math.fsum so an all-perfect library scores exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from skillops.contract import ConfigInvalid, EmptyLibrary, Library, SkillContract
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
        return {"U": self.U, "R": self.R, "C": self.C, "F": self.F, "G": self.G}


@dataclass(frozen=True)
class HealthWeights:
    w_u: float = 0.2
    w_r: float = 0.2
    w_c: float = 0.2
    w_f: float = 0.2
    w_g: float = 0.2

    def validate(self) -> None:
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


def _window_rates(trace: ExecutionTrace, ids, window: int) -> dict[str, tuple[float, float]]:
    """(U, F) over each id's last `window` trace entries, from one pass over
    the trace from its newest entry back counting [successes, calls].  A new
    dict, not the counts rewritten in place: the in-place form raised
    maintain-2k's peak RSS by about 0.6 MB."""
    counts = {sid: [0, 0] for sid in ids}
    for e in reversed(trace.entries):
        c = counts.get(e.skill)
        if c is not None and c[1] < window:
            c[1] += 1
            if e.outcome == "success":
                c[0] += 1
    return {
        sid: (ok / calls, (calls - ok) / calls) if calls else (0.5, 0.0)
        for sid, (ok, calls) in counts.items()
    }


def _vector(s: SkillContract, g: Hseg, u: float, f: float) -> HealthVector:
    """s's vector over g, with U and F already read from the trace."""
    cluster = len(g.red_cluster_of(s.id))
    r = (cluster - 1) / max(1, len(g.nodes) - 1)
    dep_total, dep_ok = g.incident_dep_counts(s.id)
    c = dep_ok / dep_total if dep_total else 1.0
    return HealthVector(u, r, c, f, 0.0 if s.checklist else 1.0)


@dataclass(frozen=True)
class LibraryHealthReport:
    per_skill: dict[str, HealthVector]
    H: float
    debt: float
    weights: HealthWeights = UNIFORM_WEIGHTS
    window: int = DEFAULT_WINDOW

    def local_risks(self) -> dict[str, float]:
        return {sid: local_risk(hv) for sid, hv in self.per_skill.items()}

    def as_dict(self) -> dict:
        per_skill = {}
        for sid in sorted(self.per_skill):
            entry = self.per_skill[sid].as_dict()
            entry["local_risk"] = local_risk(self.per_skill[sid])
            per_skill[sid] = entry
        return {"H": self.H, "debt": self.debt, "per_skill": per_skill}


def library_health(
    lib: Library,
    g: Hseg,
    trace: ExecutionTrace = ExecutionTrace(),
    weights: HealthWeights = UNIFORM_WEIGHTS,
    window: int = DEFAULT_WINDOW,
) -> LibraryHealthReport:
    """Diagnose every skill with one pass over the trace."""
    weights.validate()
    _check_window(window)
    skills = lib.skills
    if not skills:
        raise EmptyLibrary("cannot diagnose an empty library")
    rates = _window_rates(trace, (s.id for s in skills), window)
    per_skill = {s.id: _vector(s, g, *rates[s.id]) for s in skills}
    return _report(per_skill, weights, window)


def _rediagnosed(lib: Library, g: Hseg, before: LibraryHealthReport) -> LibraryHealthReport:
    """library_health(lib, g, trace, before.weights, before.window) for a
    library whose every skill `before` diagnosed against the same trace.
    A skill's U and F read only its own window of the trace, so they are
    taken from `before`; R, C and G are computed afresh over g."""
    old = before.per_skill
    per_skill = {
        s.id: _vector(s, g, old[s.id].U, old[s.id].F) for s in lib.skills
    }
    return _report(per_skill, before.weights, before.window)


def _report(
    per_skill: dict[str, HealthVector], weights: HealthWeights, window: int
) -> LibraryHealthReport:
    h = math.fsum(skill_score(hv, weights) for hv in per_skill.values()) / len(
        per_skill
    )
    return LibraryHealthReport(
        per_skill=per_skill, H=h, debt=1.0 - h, weights=weights, window=window
    )
