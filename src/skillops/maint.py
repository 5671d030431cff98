"""Deterministic library maintenance.

One maintenance pass diagnoses the library, then plans and applies typed
actions in five fixed stages:

  merge          collapse skills whose bodies hash identically
  repair         copy missing script/reference names from an interface sibling
  retire         drop low-utility skills that have a surviving duplicate
  add_validator  give unvalidated skills a checklist
  add_adapter    register shims for dep edges below the comp threshold

Each stage plans against the library produced by the previous stages and
is applied once, in a single pass, while planning; the library the last
stage leaves is the output.  One typed graph, built from the input, serves
every stage, because no action changes a skill's interface, goal or body,
and after the merge stage no two skills share a body: a stage's siblings
are the graph's red clusters, restricted to the skills that survive.  The
output's health is a fresh diagnosis of the output, over its own graph.
Replaying the action list one action at a time with apply_action on the
input library reproduces the output exactly, which the test suite checks.
Red clusters whose members disagree on body are never merged; they are
reported as conflicts instead, which keeps the size arithmetic exact:
size_after = size_before - absorbed - retired.

Everything here is pure computation over the contracts and the trace; no
external model is consulted, and the same inputs always produce the same
actions, the same log and the same output library.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from skillops.cgpd import CgpdConfig, propagate, trigger_set
from skillops.contract import (
    ARTIFACT_DIR_NAMES,
    AdapterShim,
    ArtifactDirs,
    ConfigInvalid,
    Library,
    SkillContract,
    SkillOpsError,
    UnknownSkillId,
    _replace_keeping_body,
    body_hash,
    make_contract,
)
from skillops.health import (
    DEFAULT_WINDOW,
    UNIFORM_WEIGHTS,
    HealthWeights,
    LibraryHealthReport,
    _check_window,
    library_health,
)
from skillops.hseg import Hseg, build_hseg
from skillops.planner import EMPTY_TRACE, ExecutionTrace

__all__ = [
    "ACTION_KINDS",
    "AdapterTypeUnsatisfiable",
    "CANONICAL_CHECKLIST_ITEM",
    "IllegalMerge",
    "IllegalRepair",
    "RetireRequiresDuplicate",
    "MaintenanceAction",
    "MaintenanceConfig",
    "MaintenancePlan",
    "MaintenanceReport",
    "apply_action",
    "make_adapter_shim",
    "plan_actions",
    "run_maintenance",
]

ACTION_KINDS = (
    "merge",
    "repair",
    "retire",
    "add_validator",
    "add_adapter",
    "instantiate",
)


class IllegalMerge(SkillOpsError):
    pass


class IllegalRepair(SkillOpsError):
    pass


class RetireRequiresDuplicate(SkillOpsError):
    pass


class AdapterTypeUnsatisfiable(SkillOpsError):
    pass


CANONICAL_CHECKLIST_ITEM = "artifact type matches declared artifact.type"


def make_adapter_shim(src: SkillContract, dst: SkillContract) -> AdapterShim:
    """Bridge skill for a dep-only transition: consumes the source's
    artifact types and produces the destination's required input types.
    Rejected when the destination requires nothing, so there is nothing
    for the shim to produce."""
    artifact_types = frozenset(dst.preconditions)
    if not artifact_types:
        raise AdapterTypeUnsatisfiable(
            f"{src.id} -> {dst.id}: adapter artifacts cannot satisfy the destination"
        )
    contract = make_contract(
        id=f"adapt--{src.id}--{dst.id}",
        goal=f"adapt:{src.id}:{dst.id}",
        preconditions=frozenset(src.artifact_types),
        body=(
            f"Convert [{', '.join(sorted(src.artifact_types))}] artifacts from "
            f"{src.id} into [{', '.join(sorted(dst.preconditions))}] inputs for {dst.id}."
        ),
        artifact_types=artifact_types,
        checklist=(CANONICAL_CHECKLIST_ITEM,),
        tags=frozenset({"adapter"}),
    )
    return AdapterShim(src=src.id, dst=dst.id, contract=contract)


@dataclass(frozen=True)
class MaintenanceAction:
    kind: str
    target: str
    drops: tuple[str, ...] = ()
    source_sibling: str | None = None
    dst: str | None = None
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "drops": list(self.drops),
            "source_sibling": self.source_sibling,
            "dst": self.dst,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class MaintenanceConfig:
    debt_gate: float = 0.5
    force: bool = True
    theta_r: float = 0.5
    theta_f: float = 0.5
    theta_u: float = 0.5
    theta_risk: float = 0.5
    comp_threshold: float = 0.3
    dep_mode: str = "subset"
    cgpd: CgpdConfig | None = None
    weights: HealthWeights = UNIFORM_WEIGHTS
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        for name in ("debt_gate", "theta_r", "theta_f", "theta_u",
                     "theta_risk", "comp_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigInvalid(f"{name} must be in [0, 1], got {v}")
        if self.dep_mode not in ("subset", "overlap"):
            raise ConfigInvalid(f"unknown dep_mode: {self.dep_mode!r}")
        _check_window(self.window)


@dataclass(frozen=True)
class MaintenancePlan:
    actions: tuple[MaintenanceAction, ...]
    red_conflicts: tuple[tuple[str, ...], ...]
    health_before: LibraryHealthReport
    risk: dict[str, float]
    cgpd_triggered: tuple[str, ...] = ()
    gated: bool = False


@dataclass(frozen=True)
class MaintenanceReport:
    size_before: int
    size_after: int
    action_counts: dict[str, int]
    actions: tuple[MaintenanceAction, ...]
    log: tuple[str, ...]
    H_before: float
    H_after: float
    red_conflicts: tuple[tuple[str, ...], ...] = ()
    cgpd_triggered: tuple[str, ...] = ()
    gated: bool = False
    external_model_calls: int = 0

    def as_dict(self) -> dict:
        return {
            "size_before": self.size_before,
            "size_after": self.size_after,
            "H_before": self.H_before,
            "H_after": self.H_after,
            "gated": self.gated,
            "external_model_calls": self.external_model_calls,
            "action_counts": dict(self.action_counts),
            "actions": [a.as_dict() for a in self.actions],
            "log": list(self.log),
            "red_conflicts": [list(c) for c in self.red_conflicts],
            "cgpd_triggered": list(self.cgpd_triggered),
        }


# ---------------------------------------------------------------------------
# action application

def _require(by_id: dict[str, SkillContract], skill_id: str) -> SkillContract:
    if skill_id not in by_id:
        raise UnknownSkillId(skill_id)
    return by_id[skill_id]


def _iface(s: SkillContract) -> tuple:
    return (s.preconditions, s.artifact_types)


def _merged(keep: SkillContract, absorbed: list[SkillContract]) -> SkillContract:
    dirs = {name: set(keep.artifact_dirs.get(name)) for name in ARTIFACT_DIR_NAMES}
    tags, fmodes = set(keep.tags), set(keep.failure_modes)
    checklist = keep.checklist
    for s in absorbed:
        for name in ARTIFACT_DIR_NAMES:
            dirs[name].update(s.artifact_dirs.get(name))
        tags.update(s.tags)
        fmodes.update(s.failure_modes)
        if not checklist and s.checklist:
            checklist = s.checklist
    return _replace_keeping_body(
        keep,
        artifact_dirs=ArtifactDirs(
            scripts=tuple(sorted(dirs["scripts"])),
            references=tuple(sorted(dirs["references"])),
            assets=tuple(sorted(dirs["assets"])),
        ),
        tags=frozenset(tags),
        failure_modes=frozenset(fmodes),
        checklist=checklist,
    )


def _repaired(target: SkillContract, sibling: SkillContract) -> SkillContract:
    if body_hash(sibling) != body_hash(target) and _iface(sibling) != _iface(target):
        raise IllegalRepair(
            f"{sibling.id} is neither a body nor an interface sibling of {target.id}"
        )
    scripts = sorted(set(target.artifact_dirs.scripts) | set(sibling.artifact_dirs.scripts))
    references = sorted(
        set(target.artifact_dirs.references) | set(sibling.artifact_dirs.references)
    )
    dirs = ArtifactDirs(
        scripts=tuple(scripts),
        references=tuple(references),
        assets=target.artifact_dirs.assets,
    )
    if dirs == target.artifact_dirs:
        return target
    return _replace_keeping_body(target, artifact_dirs=dirs)


def _apply_actions(lib: Library, actions: Iterable[MaintenanceAction]) -> Library:
    """Apply actions in order in one pass and build one library at the end.

    Each action sees the state its predecessors produced, exactly as if they
    were applied one at a time.  The first illegal action raises.  Adapters
    touching a removed skill are dropped.  Retire's duplicate check reads
    survivor counts per interface and per body hash, built on the first
    retire and decremented as skills leave.  When no action changes anything
    the input object is returned.  add_adapter is a no-op when a shim for the
    pair already covers the destination's preconditions; otherwise the new
    shim takes the place of the pair's first, stale shim, if it has one.
    """
    by_id = lib.by_id()
    adapters = list(lib.adapters)
    slots: dict[tuple[str, str], list[int]] = {}
    for i, shim in enumerate(adapters):
        slots.setdefault((shim.src, shim.dst), []).append(i)
    removed: set[str] = set()
    survivors: dict[object, int] | None = None
    changed = False

    def remove(sid: str) -> None:
        s = by_id.pop(sid, None)
        if s is None:
            return
        removed.add(sid)
        if survivors is not None:
            survivors[_iface(s)] -= 1
            survivors[body_hash(s)] -= 1

    for a in actions:
        if a.kind == "merge":
            keep = _require(by_id, a.target)
            if not a.drops:
                raise IllegalMerge("merge must absorb at least one skill")
            if a.target in a.drops:
                raise IllegalMerge(f"{a.target} cannot absorb itself")
            absorbed = []
            for sid in a.drops:
                s = _require(by_id, sid)
                if body_hash(s) != body_hash(keep):
                    raise IllegalMerge(
                        f"{sid} does not share {a.target}'s body; merging would"
                        " discard an implementation"
                    )
                absorbed.append(s)
            by_id[keep.id] = _merged(keep, absorbed)
            for sid in a.drops:
                remove(sid)
        elif a.kind == "repair":
            target = _require(by_id, a.target)
            if a.source_sibling is None:
                continue
            patched = _repaired(target, _require(by_id, a.source_sibling))
            if patched is target:
                continue
            by_id[target.id] = patched
        elif a.kind == "retire":
            target = _require(by_id, a.target)
            if survivors is None:
                survivors = {}
                for s in by_id.values():
                    for key in (_iface(s), body_hash(s)):
                        survivors[key] = survivors.get(key, 0) + 1
            if survivors[_iface(target)] < 2 and survivors[body_hash(target)] < 2:
                raise RetireRequiresDuplicate(
                    f"{a.target} has no surviving duplicate; retiring it would"
                    " lose capability"
                )
            remove(target.id)
        elif a.kind == "add_validator":
            target = _require(by_id, a.target)
            if target.checklist:
                continue
            if a.source_sibling is not None:
                donor = _require(by_id, a.source_sibling)
                if not donor.checklist:
                    raise ConfigInvalid(
                        f"validator donor {donor.id} has no checklist to give"
                    )
                checklist = donor.checklist
            else:
                checklist = (CANONICAL_CHECKLIST_ITEM,)
            by_id[target.id] = _replace_keeping_body(target, checklist=checklist)
        elif a.kind == "add_adapter":
            src = _require(by_id, a.target)
            if a.dst is None:
                raise ConfigInvalid("add_adapter needs a destination skill")
            dst = _require(by_id, a.dst)
            held = slots.setdefault((src.id, dst.id), [])
            if any(adapters[i].contract.artifact_types <= dst.preconditions for i in held):
                continue
            if held:
                adapters[held[0]] = make_adapter_shim(src, dst)
            else:
                held.append(len(adapters))
                adapters.append(make_adapter_shim(src, dst))
        elif a.kind == "instantiate":
            continue
        else:
            raise ConfigInvalid(f"unknown action kind: {a.kind!r}")
        changed = True

    if not changed:
        return lib
    return Library(
        skills=tuple(by_id.values()),
        adapters=tuple(
            a for a in adapters if a.src not in removed and a.dst not in removed
        ),
    )


def apply_action(lib: Library, action: MaintenanceAction) -> Library:
    """Apply one action, returning a new library.  Unknown ids raise, and a
    merge of differing bodies or a retire without a duplicate is refused."""
    return _apply_actions(lib, (action,))


# ---------------------------------------------------------------------------
# planning

def _plan_merges(
    lib: Library, health: LibraryHealthReport
) -> list[MaintenanceAction]:
    groups: dict[str, list[str]] = {}
    for s in lib.skills:
        groups.setdefault(body_hash(s), []).append(s.id)
    actions = []
    for members in groups.values():
        if len(members) < 2:
            continue
        keep = sorted(members, key=lambda sid: (-health.per_skill[sid].U, sid))[0]
        drops = tuple(sorted(m for m in members if m != keep))
        actions.append(
            MaintenanceAction(
                kind="merge",
                target=keep,
                drops=drops,
                reason=f"{len(members)} skills share one body",
            )
        )
    actions.sort(key=lambda a: a.target)
    return actions


def _siblings(g: Hseg, work: Library, sid: str) -> list[SkillContract]:
    """sid's red cluster in g without sid, restricted to work's skills."""
    return [work.get(o) for o in g.red_cluster_of(sid) if o != sid and o in work]


def _repair_source(
    target: SkillContract, siblings: list[SkillContract]
) -> tuple[str | None, int]:
    """Pick the interface sibling to copy artifact names from: the first in
    ascending id holding at least one name the target is missing."""
    for s in siblings:
        missing = len(set(s.artifact_dirs.scripts) - set(target.artifact_dirs.scripts))
        missing += len(
            set(s.artifact_dirs.references) - set(target.artifact_dirs.references)
        )
        if missing:
            return s.id, missing
    return None, 0


def _plan_repairs(
    work: Library,
    g: Hseg,
    health: LibraryHealthReport,
    risk: dict[str, float],
    cfg: MaintenanceConfig,
) -> list[MaintenanceAction]:
    actions = []
    for s in sorted(work.skills, key=lambda s: s.id):
        if not (health.per_skill[s.id].F > cfg.theta_f or risk[s.id] > cfg.theta_risk):
            continue
        sibling, missing = _repair_source(s, _siblings(g, work, s.id))
        if sibling is None:
            actions.append(
                MaintenanceAction(kind="repair", target=s.id, reason="no-sibling")
            )
        else:
            actions.append(
                MaintenanceAction(
                    kind="repair",
                    target=s.id,
                    source_sibling=sibling,
                    reason=f"restore {missing} artifact names",
                )
            )
    return actions


def _plan_retires(
    work: Library,
    g: Hseg,
    health: LibraryHealthReport,
    cfg: MaintenanceConfig,
) -> list[MaintenanceAction]:
    def utility(sid: str) -> float:
        return health.per_skill[sid].U

    actions = []
    for cluster in g.red_clusters():
        # a merge kept in another cluster can absorb every member of this one
        group = [sid for sid in cluster if sid in work]
        top = min(group, key=lambda sid: (-utility(sid), sid), default=None)
        for sid in group:
            if sid != top and utility(sid) < cfg.theta_u:
                actions.append(
                    MaintenanceAction(
                        kind="retire",
                        target=sid,
                        reason=f"low-utility duplicate of {top}",
                    )
                )
    actions.sort(key=lambda a: a.target)
    return actions


def _plan_validators(work: Library, g: Hseg) -> list[MaintenanceAction]:
    actions = []
    for s in sorted(work.skills, key=lambda s: s.id):
        if s.checklist:
            continue
        donor = next((d.id for d in _siblings(g, work, s.id) if d.checklist), None)
        reason = "inherit sibling checklist" if donor else "attach canonical checklist"
        actions.append(
            MaintenanceAction(
                kind="add_validator",
                target=s.id,
                source_sibling=donor,
                reason=reason,
            )
        )
    return actions


def _plan_adapters(g: Hseg, work: Library) -> list[MaintenanceAction]:
    """Shims for the dep-only pairs of g whose endpoints both survive in work
    and that no registered adapter bridges yet."""
    actions = []
    for src, dst in g.dep_not_comp_pairs():
        if src not in work or dst not in work or g.is_bridged(src, dst):
            continue
        actions.append(
            MaintenanceAction(
                kind="add_adapter",
                target=src,
                dst=dst,
                reason="dep edge below the compatibility threshold",
            )
        )
    return actions


def _plan(
    lib: Library, trace: ExecutionTrace, cfg: MaintenanceConfig
) -> tuple[MaintenancePlan, Library]:
    """Diagnose the library, plan every stage and apply it to a shadow copy.

    Returns the plan and the shadow library the actions produce (the input
    object itself when no action changes anything).  Planning builds one
    graph, of the input.  It serves every stage because of two invariants:

    - No action changes a skill's interface, goal or body (merge keeps the
      kept skill's body, repair touches only artifact_dirs, add_validator
      only the checklist).  So dep, comp and bridging between two survivors
      read the same in this graph as in a fresh one, and add_adapter plans
      from its dep-only pairs restricted to the survivors.
    - After the merge stage no two skills share a body, so a sibling for
      repair, retire or add_validator can only share the interface: it is
      in the skill's red cluster here, restricted to the survivors and
      still in ascending id order.  A cluster's crowding is its R in the
      health report.
    """
    g = build_hseg(lib.skills, cfg.comp_threshold, cfg.dep_mode, lib.adapters)
    health = library_health(lib, g, trace, cfg.weights, cfg.window)
    risk = health.local_risks()
    triggered: tuple[str, ...] = ()
    if cfg.cgpd is not None:
        risk = propagate(g, risk, cfg.cgpd).risk
        triggered = tuple(sorted(trigger_set(g, risk, lib, cfg.cgpd.tau)))

    red_conflicts = [
        cluster for cluster in g.red_clusters()
        if health.per_skill[cluster[0]].R > cfg.theta_r
        and len({body_hash(g.nodes[sid]) for sid in cluster}) > 1
    ]

    gated = not cfg.force and health.debt < cfg.debt_gate
    actions: list[MaintenanceAction] = []
    work = lib

    def run_stage(staged: list[MaintenanceAction]) -> None:
        nonlocal work
        work = _apply_actions(work, staged)
        actions.extend(staged)

    if not gated:
        run_stage(_plan_merges(work, health))
        run_stage(_plan_repairs(work, g, health, risk, cfg))
        run_stage(_plan_retires(work, g, health, cfg))
        run_stage(_plan_validators(work, g))
        run_stage(_plan_adapters(g, work))

    plan = MaintenancePlan(
        actions=tuple(actions),
        red_conflicts=tuple(red_conflicts),
        health_before=health,
        risk=risk,
        cgpd_triggered=triggered,
        gated=gated,
    )
    return plan, work


def plan_actions(
    lib: Library,
    trace: ExecutionTrace = EMPTY_TRACE,
    cfg: MaintenanceConfig = MaintenanceConfig(),
) -> MaintenancePlan:
    """Diagnose the library and produce the full staged action list.

    Stages after the first plan against shadow copies so that each action
    sees the library state its predecessors will have produced.
    """
    return _plan(lib, trace, cfg)[0]


def _describe(a: MaintenanceAction) -> str:
    """One log line for a planned action; only the five stage kinds are ever
    planned."""
    if a.kind == "merge":
        return f"merge: kept {a.target}, absorbed {', '.join(a.drops)}"
    if a.kind == "repair":
        if a.source_sibling is None:
            return f"repair: {a.target} skipped ({a.reason})"
        return f"repair: {a.target} copied names from {a.source_sibling}"
    if a.kind == "retire":
        return f"retire: {a.target} ({a.reason})"
    if a.kind == "add_validator":
        donor = a.source_sibling or "canonical"
        return f"add_validator: {a.target} (checklist: {donor})"
    return f"add_adapter: {a.target} -> {a.dst}"


def run_maintenance(
    lib: Library,
    trace: ExecutionTrace = EMPTY_TRACE,
    cfg: MaintenanceConfig = MaintenanceConfig(),
) -> tuple[Library, MaintenanceReport]:
    """One full maintenance pass: plan, apply, and diagnose the output.

    With force off and debt below the gate nothing is planned and the report
    says so; otherwise every planned action is applied in order and the
    report carries the audit log plus health before and after.  When the
    pass leaves the library object untouched (a gated pass, or one whose
    actions all no-op, such as a second pass) H_after is H_before: the same
    diagnosis of the same library and graph gives the same number.
    Otherwise H_after comes from a fresh graph of the output, its shims
    registered, and a fresh health report over the same trace.
    """
    plan, work = _plan(lib, trace, cfg)
    counts = {kind: 0 for kind in ACTION_KINDS}
    for a in plan.actions:
        counts[a.kind] += 1
    H_after = plan.health_before.H
    if work is not lib:
        g_after = build_hseg(work.skills, cfg.comp_threshold, cfg.dep_mode, work.adapters)
        H_after = library_health(work, g_after, trace, cfg.weights, cfg.window).H
    report = MaintenanceReport(
        size_before=len(lib),
        size_after=len(work),
        action_counts=counts,
        actions=plan.actions,
        log=tuple(_describe(a) for a in plan.actions),
        H_before=plan.health_before.H,
        H_after=H_after,
        red_conflicts=plan.red_conflicts,
        cgpd_triggered=plan.cgpd_triggered,
        gated=plan.gated,
    )
    return work, report
