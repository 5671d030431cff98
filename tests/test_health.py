import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillops.contract import (
    AdapterShim,
    ConfigInvalid,
    EmptyLibrary,
    Library,
    SkillContract,
    make_contract,
)
from skillops.health import (
    DEFAULT_WINDOW,
    UNIFORM_WEIGHTS,
    HealthVector,
    HealthWeights,
    _check_window,
    library_health,
    local_risk,
    skill_score,
)
from skillops.hseg import Hseg, build_hseg
from skillops.maint import make_adapter_shim
from skillops.planner import ExecutionTrace, TraceEntry


def skill(sid, pre=(), art=(), goal=None, body=None, checklist=("check",), tags=()):
    return make_contract(
        id=sid,
        goal=goal or f"goal-{sid}",
        preconditions=frozenset(pre),
        body=body or f"body {sid}",
        artifact_types=frozenset(art),
        checklist=checklist,
        tags=frozenset(tags),
    )


def trace_of(counts):
    """counts: {skill_id: (successes, failures)} -> interleaved trace."""
    entries = []
    step = 0
    for sid, (succ, fail) in counts.items():
        for _ in range(succ):
            entries.append(TraceEntry("t", sid, step, "success"))
            step += 1
        for _ in range(fail):
            entries.append(TraceEntry("t", sid, step, "failure", "boom"))
            step += 1
    return ExecutionTrace(entries=tuple(entries))


def reference_health_vector(
    s: SkillContract,
    g: Hseg,
    trace: ExecutionTrace = ExecutionTrace(),
    window: int = DEFAULT_WINDOW,
) -> HealthVector:
    """s's vector from the definitions: U and F over its last `window`
    trace entries, newest first; R, C and G from the graph's public queries
    and the contract."""
    _check_window(window)
    recent = [e for e in reversed(trace.entries) if e.skill == s.id][:window]
    if recent:
        successes = sum(1 for e in recent if e.outcome == "success")
        u, f = successes / len(recent), (len(recent) - successes) / len(recent)
    else:
        u, f = 0.5, 0.0
    r = (len(g.red_cluster_of(s.id)) - 1) / max(1, len(g.nodes) - 1)
    dep_total, dep_ok = g.incident_dep_counts(s.id)
    c = dep_ok / dep_total if dep_total else 1.0
    return HealthVector(u, r, c, f, 0.0 if s.checklist else 1.0)


def test_health_vector_is_an_immutable_record():
    hv = HealthVector(U=0.8, R=0.0, C=1.0, F=0.2, G=1.0)
    assert hv == HealthVector(0.8, 0.0, 1.0, 0.2, 1.0) == (0.8, 0.0, 1.0, 0.2, 1.0)
    assert (hv.U, hv.R, hv.C, hv.F, hv.G) == tuple(hv)
    assert list(hv.as_dict().items()) == [
        ("U", 0.8), ("R", 0.0), ("C", 1.0), ("F", 0.2), ("G", 1.0)
    ]
    with pytest.raises(AttributeError):
        hv.U = 0.0


def test_hand_vector_well_connected_validated_skill():
    # mid has one feeder and one consumer, both dep edges compatible,
    # a checklist, and an 8/10 success record
    sks = [
        skill("up", art=("a",)),
        skill("mid", pre=("a",), art=("b",)),
        skill("down", pre=("b",)),
    ]
    g = build_hseg(sks)
    hv = reference_health_vector(sks[1], g, trace_of({"mid": (8, 2)}))
    assert hv == HealthVector(U=0.8, R=0.0, C=1.0, F=0.2, G=0.0)
    assert local_risk(hv) == pytest.approx(0.08, abs=1e-12)
    assert skill_score(hv) == pytest.approx(0.92, abs=1e-12)


def test_never_called_defaults():
    sks = [skill("solo")]
    hv = reference_health_vector(sks[0], build_hseg(sks))
    assert hv.U == 0.5
    assert hv.F == 0.0
    assert hv.C == 1.0  # no dep edges at all
    assert hv.G == 0.0


def test_missing_checklist_sets_gap():
    sks = [skill("bare", checklist=())]
    hv = reference_health_vector(sks[0], build_hseg(sks))
    assert hv.G == 1.0


def test_redundancy_three_clones_in_library_of_five():
    clones = [skill(f"c{i}", pre=("x",), art=("y",), body=f"b{i}") for i in range(3)]
    others = [skill("o1", pre=("p",), art=("q",)), skill("o2", pre=("q",), art=("r",))]
    sks = clones + others
    g = build_hseg(sks)
    for c in clones:
        assert reference_health_vector(c, g).R == pytest.approx((3 - 1) / (5 - 1), abs=0)
    assert reference_health_vector(others[0], g).R == 0.0


def test_singleton_library_redundancy_denominator():
    sks = [skill("only")]
    assert reference_health_vector(sks[0], build_hseg(sks)).R == 0.0


def test_window_drops_old_entries():
    sks = [skill("w")]
    g = build_hseg(sks)
    # 60 failures then 100 successes: only the last 100 land in the window
    entries = [TraceEntry("t", "w", i, "failure", "e") for i in range(60)]
    entries += [TraceEntry("t", "w", 60 + i, "success") for i in range(100)]
    hv = reference_health_vector(
        sks[0], g, ExecutionTrace(tuple(entries)), window=DEFAULT_WINDOW
    )
    assert hv.U == 1.0
    assert hv.F == 0.0
    hv_small = reference_health_vector(sks[0], g, ExecutionTrace(tuple(entries)), window=4)
    assert hv_small.U == 1.0
    # entries[-window:] with window <= 0 would keep the oldest calls instead
    for window in (0, -3):
        with pytest.raises(ConfigInvalid, match="window"):
            library_health(Library(skills=tuple(sks)), g, ExecutionTrace(tuple(entries)),
                           window=window)
        with pytest.raises(ConfigInvalid, match="window"):
            reference_health_vector(
                sks[0], g, ExecutionTrace(tuple(entries)), window=window
            )


def test_incompatible_dep_edge_lowers_c():
    # narrow artifact feeding a wide precondition set: dep holds, comp fails
    sks = [
        skill("emit", art=("x",)),
        skill("need", pre=("x", "a", "b", "c")),
    ]
    g = build_hseg(sks)
    assert reference_health_vector(sks[0], g).C == 0.0
    assert reference_health_vector(sks[1], g).C == 0.0


def test_adapter_bridge_restores_c():
    sks = [
        skill("emit", art=("x",)),
        skill("need", pre=("x", "a", "b", "c")),
    ]
    shim = make_adapter_shim(sks[0], sks[1])
    g = build_hseg(sks, adapters=(shim,))
    assert reference_health_vector(sks[0], g).C == 1.0
    assert reference_health_vector(sks[1], g).C == 1.0


def test_library_health_perfect_library_is_exactly_one():
    sks = [
        skill("up", art=("a",)),
        skill("mid", pre=("a",), art=("b",)),
        skill("down", pre=("b",)),
    ]
    g = build_hseg(sks)
    trace = trace_of({"up": (5, 0), "mid": (5, 0), "down": (5, 0)})
    report = library_health(Library(skills=tuple(sks)), g, trace)
    assert report.H == 1.0
    assert report.debt == 0.0
    for hv in report.per_skill.values():
        assert local_risk(hv) == 0.0


def test_library_health_matches_per_skill_vectors():
    sks = [
        skill("a1", pre=("x",), art=("y",), checklist=()),
        skill("a2", pre=("x",), art=("y",), body="other"),
        skill("b", pre=("y",)),
    ]
    g = build_hseg(sks)
    trace = trace_of({"a1": (1, 3), "b": (2, 0)})
    lib = Library(skills=tuple(sks))
    report = library_health(lib, g, trace)
    for s in sks:
        assert report.per_skill[s.id] == reference_health_vector(s, g, trace)
    expected_h = math.fsum(
        skill_score(report.per_skill[s.id]) for s in sks
    ) / len(sks)
    assert report.H == pytest.approx(expected_h, abs=0)
    assert report.debt == pytest.approx(1.0 - expected_h, abs=0)


def test_h_equals_one_minus_mean_local_risk_under_uniform_weights():
    rng = random.Random(31)
    tags = ["t1", "t2", "t3", "t4"]
    for _ in range(20):
        sks = [
            skill(
                f"s{i}",
                pre=rng.sample(tags, rng.randint(0, 2)),
                art=rng.sample(tags, rng.randint(0, 2)),
                checklist=("check",) if rng.random() < 0.5 else (),
                body=f"body {rng.randint(0, 3)}",
                goal=f"goal-{rng.randint(0, 3)}",
            )
            for i in range(rng.randint(1, 15))
        ]
        g = build_hseg(sks)
        counts = {
            s.id: (rng.randint(0, 5), rng.randint(0, 5))
            for s in sks
            if rng.random() < 0.7
        }
        report = library_health(Library(skills=tuple(sks)), g, trace_of(counts))
        mean_risk = math.fsum(report.local_risks().values()) / len(sks)
        assert abs(report.H - (1.0 - mean_risk)) < 1e-12
        for hv in report.per_skill.values():
            for v in (hv.U, hv.R, hv.C, hv.F, hv.G):
                assert 0.0 <= v <= 1.0
        assert 0.0 <= report.H <= 1.0


def test_cloning_a_skill_raises_its_redundancy():
    # R_victim goes from (c-1)/(N-1) to c/N, a strict increase whenever the
    # library has at least two skills
    rng = random.Random(77)
    tags = ["t1", "t2", "t3"]
    for _ in range(15):
        sks = [
            skill(
                f"s{i}",
                pre=rng.sample(tags, rng.randint(0, 2)),
                art=rng.sample(tags, rng.randint(1, 2)),
            )
            for i in range(rng.randint(2, 10))
        ]
        victim = rng.choice(sks)
        clone = skill(
            "zz-clone",
            pre=sorted(victim.preconditions),
            art=sorted(victim.artifact_types),
            body=victim.body,
            goal=victim.goal,
        )
        g_before = build_hseg(sks)
        grown = sks + [clone]
        g_after = build_hseg(grown)
        r_before = reference_health_vector(victim, g_before).R
        r_after = reference_health_vector(victim, g_after).R
        assert r_after > r_before
        assert set(g_after.red_cluster_of(victim.id)) >= {victim.id, "zz-clone"}


def test_weights_shift_the_score():
    hv = HealthVector(U=1.0, R=0.0, C=1.0, F=0.0, G=1.0)
    assert skill_score(hv, UNIFORM_WEIGHTS) == pytest.approx(0.8, abs=1e-12)
    gap_heavy = HealthWeights(w_u=0.1, w_r=0.1, w_c=0.1, w_f=0.1, w_g=0.6)
    assert skill_score(hv, gap_heavy) == pytest.approx(0.4, abs=1e-12)


def test_bad_weights_rejected():
    with pytest.raises(ValueError):
        HealthWeights(w_u=0.5, w_r=0.5, w_c=0.5, w_f=0.0, w_g=0.0)
    with pytest.raises(ValueError):
        HealthWeights(w_u=-0.2, w_r=0.6, w_c=0.2, w_f=0.2, w_g=0.2)
    nan, inf = float("nan"), float("inf")
    for bad in ({"w_u": nan}, {"w_u": inf, "w_r": -inf},
                {"w_u": 1.0, "w_r": nan, "w_c": 0.0, "w_f": 0.0, "w_g": 0.0}):
        with pytest.raises(ValueError, match="must lie in"):
            HealthWeights(**bad)


def test_empty_library_rejected():
    with pytest.raises(EmptyLibrary):
        library_health(Library(), build_hseg([]))


def test_report_dict_is_sorted_and_complete():
    sks = [skill("b"), skill("a")]
    report = library_health(Library(skills=tuple(sks)), build_hseg(sks))
    d = report.as_dict()
    assert list(d["per_skill"]) == ["a", "b"]
    assert set(d["per_skill"]["a"]) == {"U", "R", "C", "F", "G", "local_risk"}
    assert d["H"] == report.H


@settings(max_examples=60, deadline=None)
@given(
    succ=st.integers(min_value=0, max_value=30),
    fail=st.integers(min_value=0, max_value=30),
)
def test_usage_rates_partition(succ, fail):
    sks = [skill("p")]
    g = build_hseg(sks)
    hv = reference_health_vector(sks[0], g, trace_of({"p": (succ, fail)}))
    if succ + fail == 0:
        assert (hv.U, hv.F) == (0.5, 0.0)
    else:
        assert hv.U + hv.F == pytest.approx(1.0, abs=1e-12)
        assert hv.U == pytest.approx(succ / (succ + fail), abs=1e-12)


def reference_usage_rates(entries, window):
    """U and F by slicing a skill's last `window` entries."""
    if not entries:
        return 0.5, 0.0
    recent = entries[-window:]
    successes = sum(1 for e in recent if e.outcome == "success")
    return successes / len(recent), (len(recent) - successes) / len(recent)


_TRACE_IDS = ["a", "b", "c", "d", "ghost", "adapt--a--b"]  # last two not in the library


@settings(max_examples=200, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["t1", "t2", "t3"]),
            st.sampled_from(_TRACE_IDS),
            st.booleans(),
        ),
        max_size=60,
    ),
    window=st.sampled_from([1, 2, 3, 100]),
)
def test_window_counts_equal_the_slice_formula(calls, window):
    sks = [skill(sid) for sid in _TRACE_IDS[:4]]
    g = build_hseg(sks)
    steps = {}
    entries = []
    for task, sid, ok in calls:  # tasks interleave, steps rise per task
        steps[task] = steps.get(task, -1) + 1
        outcome, code = ("success", None) if ok else ("failure", "boom")
        entries.append(TraceEntry(task, sid, steps[task], outcome, code))
    trace = ExecutionTrace(tuple(entries))
    report = library_health(Library(skills=tuple(sks)), g, trace, window=window)
    for s in sks:
        u, f = reference_usage_rates(
            tuple(e for e in entries if e.skill == s.id), window
        )
        for hv in (report.per_skill[s.id], reference_health_vector(s, g, trace, window)):
            assert (hv.U.hex(), hv.F.hex()) == (u.hex(), f.hex())  # bit for bit


_IFACE_TAGS = st.frozensets(st.sampled_from(["t1", "t2", "t3", "t4"]), max_size=3)


@settings(max_examples=100, deadline=None)
@given(
    ifaces=st.lists(st.tuples(_IFACE_TAGS, _IFACE_TAGS, st.booleans()),
                    min_size=1, max_size=12),
    data=st.data(),
)
def test_library_health_matches_the_reference_with_shims(ifaces, data):
    # clones share an interface, so R and C are computed per interface; the
    # shims, some repeated, some self shims, some naming no skill, bridge
    # single skills of a group, whose C must then differ from the group's
    sks = [skill(f"s{i:02d}", pre=p, art=a, checklist=("check",) if v else ())
           for i, (p, a, v) in enumerate(ifaces)]
    ids = [s.id for s in sks]
    shims = tuple(
        AdapterShim(src=a, dst=b, contract=skill(f"adapt--{a}--{b}", art=t))
        for a, b, t in data.draw(st.lists(
            st.tuples(st.sampled_from(ids + ["ghost"]), st.sampled_from(ids), _IFACE_TAGS),
            max_size=6,
        ))
    )
    for dep_mode in ("subset", "overlap"):
        g = build_hseg(sks, dep_mode=dep_mode, adapters=shims)
        trace = trace_of({sid: (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
                          for sid in ids[::2]})
        report = library_health(Library(skills=tuple(sks)), g, trace, window=3)
        for s in sks:
            assert report.per_skill[s.id] == reference_health_vector(s, g, trace, 3)
