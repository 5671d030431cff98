import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from skillops import maint
from skillops.cgpd import CgpdConfig, propagate
from skillops.contract import (
    AdapterShim,
    ArtifactDirs,
    ConfigInvalid,
    Library,
    UnknownSkillId,
    body_hash,
    library_fingerprint,
    make_contract,
    normalize_body,
)
from skillops.debtgen import build_library
from skillops.health import library_health
from skillops.hseg import build_hseg
from skillops.harness import SimulatedExecutor, exercise_library
from skillops.maint import (
    CANONICAL_CHECKLIST_ITEM,
    AdapterTypeUnsatisfiable,
    IllegalMerge,
    IllegalRepair,
    MaintenanceAction,
    MaintenanceConfig,
    RetireRequiresDuplicate,
    _apply_actions,
    _plan_merges,
    apply_action,
    make_adapter_shim,
    plan_actions,
    run_maintenance,
)
from skillops.planner import (
    ExecutionTrace,
    TaskSpec,
    TraceEntry,
    build_plan,
    execute_with_repair,
    match_skills,
)


def skill(sid, pre=(), art=(), goal=None, body=None, checklist=("check",),
          tags=(), dirs=None):
    return make_contract(
        id=sid,
        goal=goal or f"goal-{sid}",
        preconditions=frozenset(pre),
        body=body or f"body {sid}",
        artifact_types=frozenset(art),
        checklist=checklist,
        tags=frozenset(tags),
        artifact_dirs=dirs or ArtifactDirs(),
    )


def trace_of(counts):
    entries = []
    step = 0
    for sid, (succ, fail) in counts.items():
        for _ in range(succ):
            entries.append(TraceEntry("t", sid, step, "success"))
            step += 1
        for _ in range(fail):
            entries.append(TraceEntry("t", sid, step, "failure", "err"))
            step += 1
    return ExecutionTrace(entries=tuple(entries))


def clean_chain():
    return [
        skill("fetch", art=("raw",)),
        skill("clean", pre=("raw",), art=("table",)),
        skill("report", pre=("table",)),
    ]


# ---------------------------------------------------------------------------
# apply_action semantics

def test_merge_absorbs_names_tags_and_checklist():
    keep = skill("keep", body="shared body", checklist=(),
                 dirs=ArtifactDirs(scripts=("run.sh",)), tags=("one",))
    dup = skill("dup", body="shared body", checklist=("verify output",),
                dirs=ArtifactDirs(scripts=("extra.sh",), references=("guide.md",)),
                tags=("two",))
    other = skill("other", body="different")
    lib = Library(skills=(keep, dup, other))
    out = apply_action(
        lib, MaintenanceAction(kind="merge", target="keep", drops=("dup",))
    )
    assert out.ids() == ("keep", "other")
    merged = out.get("keep")
    assert merged.artifact_dirs.scripts == ("extra.sh", "run.sh")
    assert merged.artifact_dirs.references == ("guide.md",)
    assert merged.checklist == ("verify output",)
    assert merged.tags == frozenset({"one", "two"})


def test_merge_refuses_different_bodies_and_unknown_ids():
    a = skill("a", body="one body")
    b = skill("b", body="another body")
    lib = Library(skills=(a, b))
    with pytest.raises(IllegalMerge):
        apply_action(lib, MaintenanceAction(kind="merge", target="a", drops=("b",)))
    with pytest.raises(UnknownSkillId):
        apply_action(lib, MaintenanceAction(kind="merge", target="a", drops=("ghost",)))
    with pytest.raises(IllegalMerge):
        apply_action(lib, MaintenanceAction(kind="merge", target="a", drops=()))
    with pytest.raises(IllegalMerge):
        apply_action(lib, MaintenanceAction(kind="merge", target="a", drops=("a",)))


def test_repair_copies_missing_names_from_sibling():
    broken = skill("broken", pre=("x",), art=("y",), body="damaged variant",
                   dirs=ArtifactDirs(references=("old_deprecated.md",)))
    donor = skill("donor", pre=("x",), art=("y",), body="healthy variant",
                  dirs=ArtifactDirs(scripts=("run.sh",), references=("guide.md",)))
    lib = Library(skills=(broken, donor))
    out = apply_action(
        lib,
        MaintenanceAction(kind="repair", target="broken", source_sibling="donor"),
    )
    patched = out.get("broken")
    assert patched.artifact_dirs.scripts == ("run.sh",)
    assert patched.artifact_dirs.references == ("guide.md", "old_deprecated.md")
    # donor untouched, body untouched
    assert out.get("donor") == donor
    assert patched.body == broken.body


def test_repair_without_sibling_is_a_noop():
    lib = Library(skills=(skill("s"),))
    out = apply_action(
        lib, MaintenanceAction(kind="repair", target="s", reason="no-sibling")
    )
    assert out is lib


def test_repair_from_a_sibling_with_no_new_name_is_a_noop():
    """A sibling holding no script or reference name the target lacks
    changes nothing, so the input library comes back as it is."""
    target = skill("target", pre=("x",), art=("y",), body="one variant",
                   dirs=ArtifactDirs(scripts=("run.sh",), references=("guide.md",)))
    donor = skill("donor", pre=("x",), art=("y",), body="another variant",
                  dirs=ArtifactDirs(scripts=("run.sh",), assets=("logo.png",)))
    lib = Library(skills=(target, donor))
    out = apply_action(
        lib, MaintenanceAction(kind="repair", target="target", source_sibling="donor")
    )
    assert out is lib


def test_repair_rejects_unrelated_source():
    a = skill("a", pre=("x",), art=("y",), body="one")
    b = skill("b", pre=("p",), art=("q",), body="two")
    lib = Library(skills=(a, b))
    with pytest.raises(IllegalRepair):
        apply_action(
            lib, MaintenanceAction(kind="repair", target="a", source_sibling="b")
        )


def test_retire_requires_duplicate():
    a = skill("a", pre=("x",), art=("y",), body="one")
    b = skill("b", pre=("x",), art=("y",), body="two")
    lone = skill("lone", pre=("z",), art=("w",))
    lib = Library(skills=(a, b, lone))
    out = apply_action(lib, MaintenanceAction(kind="retire", target="b"))
    assert out.ids() == ("a", "lone")
    with pytest.raises(RetireRequiresDuplicate):
        apply_action(lib, MaintenanceAction(kind="retire", target="lone"))


def test_add_validator_donor_and_canonical():
    bare = skill("bare", pre=("x",), art=("y",), body="one", checklist=())
    donor = skill("donor", pre=("x",), art=("y",), body="two",
                  checklist=("inspect the table",))
    lib = Library(skills=(bare, donor))
    out = apply_action(
        lib,
        MaintenanceAction(kind="add_validator", target="bare", source_sibling="donor"),
    )
    assert out.get("bare").checklist == ("inspect the table",)

    lib2 = Library(skills=(skill("solo", checklist=()),))
    out2 = apply_action(lib2, MaintenanceAction(kind="add_validator", target="solo"))
    assert out2.get("solo").checklist == (CANONICAL_CHECKLIST_ITEM,)
    # already validated: no-op
    assert apply_action(out2, MaintenanceAction(kind="add_validator", target="solo")) is out2


def test_add_adapter_registers_shim_once():
    emit = skill("emit", art=("x",))
    need = skill("need", pre=("x", "a", "b", "c"))
    lib = Library(skills=(emit, need))
    act = MaintenanceAction(kind="add_adapter", target="emit", dst="need")
    out = apply_action(lib, act)
    assert len(out.adapters) == 1
    assert out.adapters[0].src == "emit" and out.adapters[0].dst == "need"
    assert apply_action(out, act) is out  # already bridged
    assert len(out) == 2  # shims never count toward size


def test_add_adapter_replaces_a_stale_shim_in_place():
    # the shim was made when b needed {t1, t3, t4, t9}; b now needs
    # {t1, t2, t3, t4}, so the shim's types miss b's and it bridges nothing
    a = skill("a", pre=("x",), art=("t1",))
    b = skill("b", pre=("t1", "t2", "t3", "t4"))
    stale = make_adapter_shim(a, skill("b", pre=("t1", "t3", "t4", "t9")))
    lib = Library(skills=(a, b), adapters=(stale,))
    assert not build_hseg(lib.skills, adapters=lib.adapters).is_bridged("a", "b")

    out, report = run_maintenance(lib)
    assert report.log == ("add_adapter: a -> b",)
    assert out.adapters == (make_adapter_shim(a, b),)
    assert build_hseg(out.skills, adapters=out.adapters).is_bridged("a", "b")
    assert report.H_after > report.H_before
    again, report2 = run_maintenance(out)
    assert report2.actions == () and again is out

    act = MaintenanceAction(kind="add_adapter", target="a", dst="b")
    other = make_adapter_shim(b, a)
    # the stale shim is replaced where it stands; other shims keep their places
    mixed = Library(skills=(a, b), adapters=(stale, other))
    assert apply_action(mixed, act).adapters == (make_adapter_shim(a, b), other)
    # a pair that some shim already bridges is left alone
    held = Library(skills=(a, b), adapters=(stale, make_adapter_shim(a, b)))
    assert apply_action(held, act) is held


def test_adapter_shim_contract_shape():
    src = skill("emit", art=("x",))
    dst = skill("need", pre=("x", "a", "b", "c"))
    shim = make_adapter_shim(src, dst)
    assert shim.src == "emit" and shim.dst == "need"
    assert shim.contract.id == "adapt--emit--need"
    assert shim.contract.preconditions == frozenset({"x"})
    assert shim.contract.artifact_types == frozenset({"x", "a", "b", "c"})
    assert shim.contract.checklist == (CANONICAL_CHECKLIST_ITEM,)
    assert "adapter" in shim.contract.tags


def test_adapter_unsatisfiable_when_destination_needs_nothing():
    src = skill("emit", art=("x",))
    dst = skill("takes-nothing")
    with pytest.raises(AdapterTypeUnsatisfiable):
        make_adapter_shim(src, dst)


def test_ill_formed_validator_and_adapter_actions_rejected():
    lib = Library(skills=(skill("bare", checklist=()), skill("donor", checklist=())))
    with pytest.raises(ConfigInvalid, match="donor donor has no checklist"):
        apply_action(lib, MaintenanceAction(kind="add_validator", target="bare",
                                            source_sibling="donor"))
    with pytest.raises(ConfigInvalid, match="add_adapter needs a destination"):
        apply_action(lib, MaintenanceAction(kind="add_adapter", target="bare"))


def test_unknown_action_kind_rejected():
    lib = Library(skills=(skill("s"),))
    with pytest.raises(ConfigInvalid):
        apply_action(lib, MaintenanceAction(kind="rewrite", target="s"))
    assert apply_action(lib, MaintenanceAction(kind="instantiate", target="s")) is lib


def test_retire_sequence_keeps_one_interface_survivor():
    trio = Library(skills=tuple(
        skill(sid, pre=("x",), art=("y",), body=f"variant {sid}") for sid in "abc"
    ))
    out = _apply_actions(trio, [MaintenanceAction(kind="retire", target=t) for t in "bc"])
    assert out.ids() == ("a",)
    with pytest.raises(RetireRequiresDuplicate, match="^c "):
        _apply_actions(trio, [MaintenanceAction(kind="retire", target=t) for t in "abc"])


def test_adapter_from_a_skill_merged_earlier_in_the_list_is_refused():
    lib = Library(skills=(
        skill("emit1", art=("x",), body="emitter body"),
        skill("emit2", art=("x",), body="emitter body"),
        skill("need", pre=("x", "a", "b", "c")),
    ))
    with pytest.raises(UnknownSkillId):
        _apply_actions(lib, [
            MaintenanceAction(kind="merge", target="emit1", drops=("emit2",)),
            MaintenanceAction(kind="add_adapter", target="emit2", dst="need"),
        ])


def test_shim_to_a_skill_retired_later_in_the_list_is_dropped():
    lib = Library(skills=(
        skill("emit", art=("x",)),
        skill("need1", pre=("x", "a", "b", "c"), body="variant one"),
        skill("need2", pre=("x", "a", "b", "c"), body="variant two"),
    ))
    out = _apply_actions(lib, [
        MaintenanceAction(kind="add_adapter", target="emit", dst="need1"),
        MaintenanceAction(kind="add_adapter", target="emit", dst="need2"),
        MaintenanceAction(kind="retire", target="need1"),
    ])
    assert out.ids() == ("emit", "need2")
    assert [(a.src, a.dst) for a in out.adapters] == [("emit", "need2")]


# ---------------------------------------------------------------------------
# planning

def test_merge_keeps_highest_utility_clone():
    clones = [
        skill("c1", pre=("x",), art=("y",), body="same body"),
        skill("c2", pre=("x",), art=("y",), body="same body"),
        skill("c3", pre=("x",), art=("y",), body="same body"),
    ]
    lib = Library(skills=tuple(clones))
    trace = trace_of({"c1": (3, 7), "c2": (9, 1)})  # c3 never called -> U=0.5
    new_lib, report = run_maintenance(lib, trace)
    assert new_lib.ids() == ("c2",)
    assert report.action_counts["merge"] == 1
    assert report.actions[0].target == "c2"
    assert report.actions[0].drops == ("c1", "c3")
    assert report.size_before == 3 and report.size_after == 1
    assert report.H_after >= report.H_before


def test_merge_keep_tie_breaks_to_smallest_id():
    clones = [
        skill("b", body="same body"),
        skill("a", body="same body"),
    ]
    plan = plan_actions(Library(skills=tuple(clones)))
    merges = [a for a in plan.actions if a.kind == "merge"]
    assert len(merges) == 1
    assert merges[0].target == "a" and merges[0].drops == ("b",)


def test_clean_library_yields_no_actions_and_identical_bytes():
    lib = Library(skills=tuple(clean_chain()))
    trace = trace_of({"fetch": (5, 0), "clean": (5, 0), "report": (5, 0)})
    new_lib, report = run_maintenance(lib, trace)
    assert report.actions == ()
    assert library_fingerprint(new_lib) == library_fingerprint(lib)
    assert report.size_before == report.size_after == 3
    assert report.H_before == report.H_after == 1.0
    assert report.external_model_calls == 0


def test_red_conflicts_flagged_not_merged():
    # same interface, different bodies, crowding above the threshold
    variants = [
        skill("v1", pre=("x",), art=("y",), body="variant one"),
        skill("v2", pre=("x",), art=("y",), body="variant two"),
        skill("v3", pre=("x",), art=("y",), body="variant three"),
    ]
    lib = Library(skills=tuple(variants))
    new_lib, report = run_maintenance(lib)  # never called: U=0.5, no retires
    assert report.action_counts["merge"] == 0
    assert report.action_counts["retire"] == 0
    assert report.red_conflicts == (("v1", "v2", "v3"),)
    assert new_lib.ids() == ("v1", "v2", "v3")


def test_retire_drops_low_utility_duplicates_keeps_top():
    variants = [
        skill("v1", pre=("x",), art=("y",), body="variant one"),
        skill("v2", pre=("x",), art=("y",), body="variant two"),
        skill("v3", pre=("x",), art=("y",), body="variant three"),
    ]
    lib = Library(skills=tuple(variants))
    trace = trace_of({"v1": (1, 9), "v2": (9, 1), "v3": (2, 8)})
    new_lib, report = run_maintenance(lib, trace)
    retired = [a.target for a in report.actions if a.kind == "retire"]
    assert retired == ["v1", "v3"]
    assert new_lib.ids() == ("v2",)
    assert report.size_after == 1


def test_repair_triggered_by_failures_resolves_interface_sibling():
    stale = skill("stale", pre=("x",), art=("y",), body="uses run v0",
                  dirs=ArtifactDirs(references=("guide_deprecated.md",)))
    fresh = skill("fresh", pre=("x",), art=("y",), body="uses run v3",
                  dirs=ArtifactDirs(scripts=("run.sh",), references=("guide.md",)))
    lib = Library(skills=(stale, fresh))
    # stale fails often enough to trigger, succeeds enough to dodge retire
    trace = trace_of({"stale": (6, 4), "fresh": (10, 0)})
    cfg = MaintenanceConfig(theta_f=0.3)
    new_lib, report = run_maintenance(lib, trace, cfg)
    repairs = [a for a in report.actions if a.kind == "repair"]
    assert len(repairs) == 1
    assert repairs[0].target == "stale"
    assert repairs[0].source_sibling == "fresh"
    patched = new_lib.get("stale")
    assert "guide.md" in patched.artifact_dirs.references
    assert "run.sh" in patched.artifact_dirs.scripts


def test_repair_without_any_sibling_logs_noop():
    failing = skill("failing", pre=("x",), art=("y",))
    lib = Library(skills=(failing,))
    trace = trace_of({"failing": (1, 9)})
    new_lib, report = run_maintenance(lib, trace)
    repairs = [a for a in report.actions if a.kind == "repair"]
    assert len(repairs) == 1
    assert repairs[0].source_sibling is None
    assert repairs[0].reason == "no-sibling"
    assert library_fingerprint(new_lib) == library_fingerprint(lib)


def test_validators_added_with_sibling_donor_preferred():
    bare = skill("bare", pre=("x",), art=("y",), body="one", checklist=())
    donor = skill("donor", pre=("x",), art=("y",), body="two",
                  checklist=("inspect the table",))
    lonely = skill("lonely", pre=("z",), art=("w",), checklist=())
    lib = Library(skills=(bare, donor, lonely))
    new_lib, report = run_maintenance(lib)
    added = {a.target: a for a in report.actions if a.kind == "add_validator"}
    assert set(added) == {"bare", "lonely"}
    assert added["bare"].source_sibling == "donor"
    assert added["lonely"].source_sibling is None
    assert new_lib.get("bare").checklist == ("inspect the table",)
    assert new_lib.get("lonely").checklist == (CANONICAL_CHECKLIST_ITEM,)


def test_adapters_planned_for_dep_only_edges():
    emit = skill("emit", art=("x",))
    need = skill("need", pre=("x", "a", "b", "c"))
    lib = Library(skills=(emit, need))
    new_lib, report = run_maintenance(lib)
    assert report.action_counts["add_adapter"] == 1
    assert len(new_lib.adapters) == 1
    assert new_lib.adapters[0].contract.artifact_types == frozenset({"x", "a", "b", "c"})
    # second pass: the pair is bridged, nothing new is planned
    again, report2 = run_maintenance(new_lib)
    assert report2.action_counts["add_adapter"] == 0
    assert len(again.adapters) == 1


def test_second_overlap_pass_plans_no_adapters():
    # overlap mode with a high threshold bridges most dep edges with shims;
    # the second pass must find every one of them bridged, in time linear in
    # the shim count (a per-pair scan of the shims took over ten seconds here)
    cfg = MaintenanceConfig(dep_mode="overlap", comp_threshold=0.6)
    lib, _ = build_library(500, 0.6, 7)
    once, report1 = run_maintenance(lib, cfg=cfg)
    assert report1.action_counts["add_adapter"] == len(once.adapters) > 10_000
    twice, report2 = run_maintenance(once, cfg=cfg)
    assert report2.action_counts["add_adapter"] == 0
    assert len(twice.adapters) == len(once.adapters)


def test_merge_removes_adapters_of_absorbed_skills():
    emit1 = skill("emit1", art=("x",), body="emitter body")
    emit2 = skill("emit2", art=("x",), body="emitter body")
    need = skill("need", pre=("x", "a", "b", "c"))
    lib = Library(skills=(emit1, emit2, need))
    bridged, _ = run_maintenance(lib, cfg=MaintenanceConfig())
    # both emitters were hash-merged before adapters were planned
    assert bridged.ids() == ("emit1", "need")
    assert {(a.src, a.dst) for a in bridged.adapters} == {("emit1", "need")}

    # manually absorb a skill that still carries a shim: the shim must go
    lib2 = Library(
        skills=(emit1, emit2, need),
        adapters=(bridged.adapters[0],),
    )
    out = apply_action(
        lib2, MaintenanceAction(kind="merge", target="emit2", drops=("emit1",))
    )
    assert out.adapters == ()


def five_stage_library():
    lib = Library(
        skills=(
            skill("c1", pre=("x",), art=("y",), body="same body", checklist=()),
            skill("c2", pre=("x",), art=("y",), body="same body"),
            skill("alt1", pre=("x",), art=("y",), body="variant"),
            skill("emit", art=("q",)),
            skill("need", pre=("q", "a", "b", "c"), checklist=()),
        )
    )
    return lib, trace_of({"alt1": (1, 9), "c1": (8, 2)})


def test_plans_run_through_the_shim_maintenance_registers():
    # five_stage_library with artifact files on emit and need, so the
    # simulated executor can run them
    lib, trace = five_stage_library()
    files = ArtifactDirs(scripts=("run.sh",))
    lib = Library(skills=tuple(
        replace(s, artifact_dirs=files) if s.id in ("emit", "need") else s
        for s in lib.skills
    ))
    task = TaskSpec(id="t", goal_text="emit need", state_facts=frozenset("qabc"))
    assert {sid for sid, _ in match_skills(lib, task)} == {"emit", "need"}
    raw = build_plan(lib, build_hseg(lib.skills, adapters=lib.adapters), task)
    assert len(raw.steps) == 1  # emit -> need is dep without comp

    out, _ = run_maintenance(lib, trace)
    shim = next(a for a in out.adapters if (a.src, a.dst) == ("emit", "need"))
    g = build_hseg(out.skills, adapters=out.adapters)
    plan = build_plan(out, g, task)
    assert [(s.skill, s.inserted) for s in plan.steps] == [
        ("emit", None),
        (shim.contract.id, "adapter"),
        ("need", None),
    ]
    assert shim.contract.id == "adapt--emit--need"
    run = execute_with_repair(plan, task, SimulatedExecutor(out), g)
    assert [(e.skill, e.outcome) for e in run.entries] == [
        (s.skill, "success") for s in plan.steps
    ]


def test_stage_order_is_merge_repair_retire_validate_adapt():
    order = {"merge": 0, "repair": 1, "retire": 2, "add_validator": 3, "add_adapter": 4}
    lib, trace = five_stage_library()
    _, report = run_maintenance(lib, trace)
    kinds = [a.kind for a in report.actions]
    assert kinds == sorted(kinds, key=order.__getitem__)
    assert report.action_counts["merge"] == 1
    assert report.action_counts["retire"] == 1
    assert len(report.log) == len(report.actions)


def test_gate_blocks_when_not_forced():
    lib = Library(skills=tuple(clean_chain()))
    trace = trace_of({"fetch": (5, 0), "clean": (5, 0), "report": (5, 0)})
    cfg = MaintenanceConfig(force=False)
    new_lib, report = run_maintenance(lib, trace, cfg)
    assert report.gated
    assert report.actions == () and report.log == ()
    assert new_lib is lib

    # high debt passes the gate even without force
    noisy = Library(
        skills=(
            skill("f1", pre=("x",), art=("y",), body="same", checklist=()),
            skill("f2", pre=("x",), art=("y",), body="same", checklist=()),
        )
    )
    bad_trace = trace_of({"f1": (0, 10), "f2": (0, 10)})
    _, report2 = run_maintenance(noisy, bad_trace, cfg)
    assert not report2.gated
    assert report2.action_counts["merge"] == 1


def test_maintenance_is_idempotent_and_pure():
    lib = Library(
        skills=(
            skill("c1", pre=("x",), art=("y",), body="same body", checklist=()),
            skill("c2", pre=("x",), art=("y",), body="same body"),
            skill("v1", pre=("x",), art=("y",), body="variant"),
            skill("solo", pre=("z",), art=("w",), checklist=()),
        )
    )
    fp_input = library_fingerprint(lib)
    trace = trace_of({"c1": (2, 8), "v1": (1, 9), "c2": (9, 1)})
    once, report1 = run_maintenance(lib, trace)
    assert library_fingerprint(lib) == fp_input  # input untouched
    twice, report2 = run_maintenance(once, trace)
    assert library_fingerprint(twice) == library_fingerprint(once)
    assert report2.action_counts["merge"] == 0
    assert report2.action_counts["retire"] == 0
    assert report2.action_counts["add_validator"] == 0
    assert report2.size_before == report2.size_after


def test_size_accounting_is_exact():
    lib = Library(
        skills=(
            skill("c1", pre=("x",), art=("y",), body="same body"),
            skill("c2", pre=("x",), art=("y",), body="same body"),
            skill("c3", pre=("x",), art=("y",), body="same body"),
            skill("v1", pre=("x",), art=("y",), body="variant"),
            skill("keeper", pre=("z",), art=("w",)),
        )
    )
    trace = trace_of({"c1": (9, 1), "v1": (0, 10)})
    new_lib, report = run_maintenance(lib, trace)
    absorbed = sum(len(a.drops) for a in report.actions if a.kind == "merge")
    retired = report.action_counts["retire"]
    assert report.size_after == report.size_before - absorbed - retired
    assert len(new_lib) == report.size_after


def test_cgpd_risk_widens_repair_trigger():
    # root fails constantly; child is clean but inherits risk through dep
    root = skill("root", art=("x",))
    child = skill("child", pre=("x",), art=("y",))
    lib = Library(skills=(root, child))
    trace = trace_of({"root": (0, 10), "child": (10, 0)})
    plain = plan_actions(lib, trace)
    assert [a.target for a in plain.actions if a.kind == "repair"] == ["root"]
    cfg = MaintenanceConfig(cgpd=CgpdConfig(alpha=0.9), theta_risk=0.3)
    risky = plan_actions(lib, trace, cfg)
    assert [a.target for a in risky.actions if a.kind == "repair"] == ["child", "root"]
    assert risky.risk["child"] > plain.risk["child"]


def test_report_as_dict_round_trips_to_json():
    import json

    lib = Library(
        skills=(
            skill("c1", pre=("x",), art=("y",), body="same body"),
            skill("c2", pre=("x",), art=("y",), body="same body"),
        )
    )
    _, report = run_maintenance(lib)
    blob = json.dumps(report.as_dict(), sort_keys=True)
    assert json.loads(blob)["action_counts"]["merge"] == 1
    assert json.loads(blob)["external_model_calls"] == 0


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        MaintenanceConfig(theta_u=1.5)
    with pytest.raises(ConfigInvalid):
        MaintenanceConfig(dep_mode="sideways")
    with pytest.raises(ConfigInvalid):
        MaintenanceConfig(window=0)
    MaintenanceConfig(cgpd=CgpdConfig())


def replayed(lib, actions):
    for a in actions:
        lib = apply_action(lib, a)
    return lib


@pytest.mark.parametrize("case", ["noisy-2000", "crowded-500", "five-stage"])
def test_replaying_the_action_list_reproduces_the_output(case):
    if case == "noisy-2000":
        lib, _ = build_library(2000, 0.3, 7)
        trace = exercise_library(lib)
    elif case == "crowded-500":
        lib, _ = build_library(500, 0.6, 42)
        trace = ExecutionTrace()
    else:
        lib, trace = five_stage_library()
    new_lib, report = run_maintenance(lib, trace)
    assert report.actions
    assert library_fingerprint(replayed(lib, report.actions)) == library_fingerprint(new_lib)
    if case == "five-stage":
        assert report.action_counts["add_adapter"] == 1


# ---------------------------------------------------------------------------
# one graph per pass: the planner against the stage loop that rebuilt the
# graph before retire and before add_adapter and also looked for body siblings

def _iface_of(s):
    return (s.preconditions, s.artifact_types)


def _reference_repair_source(target, skills):
    def by_id(group):
        return sorted(group, key=lambda s: s.id)

    others = [s for s in skills if s.id != target.id]
    body = by_id(s for s in others if body_hash(s) == body_hash(target))
    body_ids = {s.id for s in body}
    iface = by_id(
        s for s in others if s.id not in body_ids and _iface_of(s) == _iface_of(target)
    )
    for s in body + iface:
        missing = len(set(s.artifact_dirs.scripts) - set(target.artifact_dirs.scripts))
        missing += len(
            set(s.artifact_dirs.references) - set(target.artifact_dirs.references)
        )
        if missing:
            return s.id, missing
    return None, 0


def reference_plan(lib, trace, cfg):
    def graph(work):
        return build_hseg(work.skills, cfg.comp_threshold, cfg.dep_mode, work.adapters)

    g = graph(lib)
    health = library_health(lib, g, trace, cfg.weights, cfg.window)
    risk = health.local_risks()
    if cfg.cgpd is not None:
        risk = propagate(g, risk, cfg.cgpd).risk
    if not cfg.force and health.debt < cfg.debt_gate:
        return ()

    actions = []
    work = lib

    def run_stage(staged):
        nonlocal work
        work = _apply_actions(work, staged)
        actions.extend(staged)

    run_stage(_plan_merges(work, health))

    staged = []
    for s in sorted(work.skills, key=lambda s: s.id):
        hv = health.per_skill.get(s.id)
        if hv is None or not (hv.F > cfg.theta_f or risk[s.id] > cfg.theta_risk):
            continue
        sibling, missing = _reference_repair_source(s, work.skills)
        reason = f"restore {missing} artifact names" if sibling else "no-sibling"
        staged.append(MaintenanceAction("repair", s.id, source_sibling=sibling, reason=reason))
    run_stage(staged)

    def utility(sid):
        hv = health.per_skill.get(sid)
        return hv.U if hv is not None else 0.5

    staged = []
    for cluster in graph(work).red_clusters():
        if len(cluster) < 2:
            continue
        top = sorted(cluster, key=lambda sid: (-utility(sid), sid))[0]
        staged.extend(
            MaintenanceAction("retire", sid, reason=f"low-utility duplicate of {top}")
            for sid in cluster
            if sid != top and utility(sid) < cfg.theta_u
        )
    run_stage(sorted(staged, key=lambda a: a.target))

    staged = []
    for s in sorted(work.skills, key=lambda s: s.id):
        if s.checklist:
            continue
        donor = min(
            (d.id for d in work.skills if d.id != s.id and d.checklist
             and (body_hash(d) == body_hash(s) or _iface_of(d) == _iface_of(s))),
            default=None,
        )
        reason = "inherit sibling checklist" if donor else "attach canonical checklist"
        staged.append(MaintenanceAction("add_validator", s.id, source_sibling=donor,
                                        reason=reason))
    run_stage(staged)

    g = graph(work)
    run_stage([
        MaintenanceAction("add_adapter", src, dst=dst,
                          reason="dep edge below the compatibility threshold")
        for src, dst in g.dep_not_comp_pairs()
        if not g.is_bridged(src, dst)
    ])
    return tuple(actions)


def test_retire_skips_a_red_cluster_absorbed_by_a_merge_kept_elsewhere():
    # x1 and x2 share k's body but not its interface; k has the best utility,
    # so the merge keeps it and their whole red cluster is gone by retire
    lib = Library(skills=(
        skill("k", pre=("p",), art=("q",), body="shared"),
        skill("x1", pre=("r",), art=("s",), body="shared"),
        skill("x2", pre=("r",), art=("s",), body="shared"),
        skill("y", pre=("p",), art=("q",), body="other"),
    ))
    trace = trace_of({"k": (9, 1), "x1": (1, 9), "x2": (1, 9), "y": (1, 9)})
    cfg = MaintenanceConfig()
    actions = plan_actions(lib, trace, cfg).actions
    assert actions == reference_plan(lib, trace, cfg)
    assert actions[0] == MaintenanceAction(
        "merge", "k", drops=("x1", "x2"), reason="3 skills share one body"
    )
    retires = [a for a in actions if a.kind == "retire"]
    assert retires == [MaintenanceAction("retire", "y", reason="low-utility duplicate of k")]


def test_repair_whose_only_sibling_was_absorbed_logs_no_sibling():
    # sib is t's only interface sibling, and the merge into k absorbs it
    lib = Library(skills=(
        skill("k", pre=("p",), art=("q",), body="shared"),
        skill("sib", pre=("x",), art=("y",), body="shared",
              dirs=ArtifactDirs(scripts=("run.sh",))),
        skill("t", pre=("x",), art=("y",), body="target body"),
    ))
    trace = trace_of({"k": (9, 1), "sib": (5, 5), "t": (1, 9)})
    cfg = MaintenanceConfig()
    actions = plan_actions(lib, trace, cfg).actions
    assert actions == reference_plan(lib, trace, cfg)
    repairs = [a for a in actions if a.kind == "repair"]
    assert repairs == [MaintenanceAction("repair", "t", reason="no-sibling")]
    _, report = run_maintenance(lib, trace, cfg)
    assert "repair: t skipped (no-sibling)" in report.log


_tokens = st.frozensets(st.sampled_from(["t1", "t2", "t3", "t4"]), max_size=3)
_names = st.sampled_from([(), ("a.sh",), ("b.sh",), ("a.sh", "b.sh")])


@st.composite
def maintenance_inputs(draw):
    """A small library full of shared bodies and interfaces, with a trace,
    random registered shims (some naming a skill outside the library) and a
    config; half the time the library is the output of a first pass, so it
    already carries planned adapters."""
    n = draw(st.integers(min_value=1, max_value=12))
    # a few shared interfaces, so most skills have interface siblings
    ifaces = draw(st.lists(st.tuples(_tokens, _tokens), min_size=1, max_size=4))
    skills = []
    for i in range(n):
        pre, art = draw(st.sampled_from(ifaces))
        skills.append(make_contract(
            id=f"s{i:02d}",
            goal=draw(st.sampled_from(["g1", "g2"])),
            preconditions=pre,
            body=draw(st.sampled_from(["alpha", "beta", "gamma"])),
            artifact_types=art,
            checklist=draw(st.sampled_from([(), ("check",), ("verify",)])),
            artifact_dirs=ArtifactDirs(
                scripts=draw(_names), references=draw(st.sampled_from([(), ("r.md",)]))
            ),
        ))
    ids = [s.id for s in skills]
    shims = draw(st.lists(
        st.tuples(st.sampled_from(ids + ["ghost"]), st.sampled_from(ids + ["ghost"]), _tokens),
        max_size=4,
    ))
    adapters = tuple(
        AdapterShim(src=a, dst=b, contract=skill(f"adapt--{a}--{b}", art=t))
        for a, b, t in shims
    )
    calls = draw(st.lists(st.tuples(st.sampled_from(ids), st.booleans()), max_size=40))
    trace = ExecutionTrace(tuple(
        TraceEntry("t", sid, step, "success" if ok else "failure", None if ok else "err")
        for step, (sid, ok) in enumerate(calls)
    ))
    cfg = MaintenanceConfig(
        comp_threshold=draw(st.sampled_from([0.0, 0.3, 0.6])),
        dep_mode=draw(st.sampled_from(["subset", "overlap"])),
        cgpd=draw(st.sampled_from([None, CgpdConfig()])),
        force=draw(st.booleans()),
    )
    lib = Library(skills=tuple(skills), adapters=adapters)
    if draw(st.booleans()):
        lib, _ = run_maintenance(lib, trace, cfg)
    return lib, trace, cfg


@settings(max_examples=300, deadline=None)
@given(maintenance_inputs())
def test_one_graph_plan_matches_the_rebuilding_reference(inputs):
    lib, trace, cfg = inputs
    assert plan_actions(lib, trace, cfg).actions == reference_plan(lib, trace, cfg)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=20, max_value=120),
    st.sampled_from([0.3, 0.6]),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([0.0, 0.3, 0.6]),
    st.sampled_from(["subset", "overlap"]),
    st.booleans(),
)
def test_one_graph_plan_matches_the_reference_on_generated_libraries(
    n, noise, seed, threshold, dep_mode, use_cgpd
):
    lib, _ = build_library(n, noise, seed)
    trace = exercise_library(lib)
    cfg = MaintenanceConfig(comp_threshold=threshold, dep_mode=dep_mode,
                            cgpd=CgpdConfig() if use_cgpd else None)
    assert plan_actions(lib, trace, cfg).actions == reference_plan(lib, trace, cfg)
    second, _ = run_maintenance(lib, trace, cfg)
    assert plan_actions(second, trace, cfg).actions == reference_plan(second, trace, cfg)


@settings(max_examples=150, deadline=None)
@given(maintenance_inputs())
def test_bodies_are_unique_after_the_merge_stage(inputs):
    lib, trace, cfg = inputs
    merges = [a for a in plan_actions(lib, trace, cfg).actions if a.kind == "merge"]
    if not cfg.force and not merges:
        return  # the gate may have held; nothing was planned
    merged = _apply_actions(lib, merges)
    hashes = [body_hash(s) for s in merged.skills]
    assert len(set(hashes)) == len(hashes)


@settings(max_examples=100, deadline=None)
@given(maintenance_inputs())
def test_reported_health_after_matches_a_fresh_diagnosis(inputs):
    lib, trace, cfg = inputs
    new_lib, report = run_maintenance(lib, trace, cfg)
    g = build_hseg(new_lib.skills, cfg.comp_threshold, cfg.dep_mode, new_lib.adapters)
    assert report.H_after == library_health(new_lib, g, trace, cfg.weights, cfg.window).H
    if new_lib is lib:
        assert report.H_after == report.H_before


def test_changed_skills_carry_the_hash_of_their_own_body():
    lib, _ = build_library(500, 0.6, 42)
    # every other skill loses its checklist, so some need a validator
    lib = Library(skills=tuple(
        replace(s, checklist=()) if i % 2 else s for i, s in enumerate(lib.skills)
    ))
    out, report = run_maintenance(lib, exercise_library(lib))
    changed = {
        kind: {a.target for a in report.actions
               if a.kind == kind and (kind != "repair" or a.source_sibling)}
        for kind in ("merge", "repair", "add_validator")
    }
    assert all(changed.values())
    by_id = out.by_id()
    for sid in set().union(*changed.values()) & by_id.keys():
        s = by_id[sid]
        fresh = hashlib.sha256(normalize_body(s.body).encode("utf-8")).hexdigest()
        assert body_hash(s) == fresh


def test_a_pass_diagnoses_again_only_a_changed_library(monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(maint, "build_hseg", counted("build_hseg", build_hseg))
    monkeypatch.setattr(maint, "library_health", counted("library_health", library_health))

    def counted_pass(lib, trace, cfg=MaintenanceConfig()):
        calls.update(build_hseg=0, library_health=0)
        new_lib, report = run_maintenance(lib, trace, cfg)
        return new_lib, report, (calls["build_hseg"], calls["library_health"])

    lib, _ = build_library(500, 0.6, 42)
    trace = exercise_library(lib)
    # a changed library is diagnosed again, over a graph of its own
    once, report, n = counted_pass(lib, trace)
    assert once is not lib and n == (2, 2)
    twice, report, n = counted_pass(once, trace)
    assert twice is once and n == (1, 1) and report.H_after == report.H_before

    clean = Library(skills=tuple(clean_chain()))
    healthy = trace_of({"fetch": (5, 0), "clean": (5, 0), "report": (5, 0)})
    out, report, n = counted_pass(clean, healthy, MaintenanceConfig(force=False))
    assert report.gated and out is clean and n == (1, 1)
    assert report.H_after == report.H_before

    # every planned action no-ops: a failing skill with no sibling to repair from
    solo = Library(skills=(skill("solo", pre=("x",), art=("y",)),))
    out, report, n = counted_pass(solo, trace_of({"solo": (0, 10)}))
    assert report.log == ("repair: solo skipped (no-sibling)",)
    assert out is solo and n == (1, 1) and report.H_after == report.H_before


def test_a_pass_builds_a_second_graph_only_for_a_changed_library(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return build_hseg(*args, **kwargs)

    monkeypatch.setattr(maint, "build_hseg", counting)
    lib, trace = five_stage_library()
    once, report = run_maintenance(lib, trace)
    assert report.action_counts["add_adapter"] == 1 and len(calls) == 2

    calls.clear()
    plan_actions(lib, trace)
    assert len(calls) == 1

    calls.clear()
    clean = Library(skills=tuple(clean_chain()))
    out, _ = run_maintenance(clean)
    assert out is clean and len(calls) == 1  # the input's graph is reused

    calls.clear()
    cfg = MaintenanceConfig(dep_mode="overlap", comp_threshold=0.6)
    noisy, _ = build_library(200, 0.6, 7)
    once, _ = run_maintenance(noisy, exercise_library(noisy), cfg)
    assert once is not noisy and len(calls) == 2
    calls.clear()
    twice, _ = run_maintenance(once, exercise_library(once), cfg)
    assert twice is once and len(calls) == 1
