import random

import pytest
from hypothesis import given, settings, strategies as st

from skillops.cgpd import (
    CgpdConfig,
    MissingRiskEntry,
    PropagationResult,
    propagate,
    trigger_set,
)
from skillops.contract import ConfigInvalid, Library, make_contract
from skillops.hseg import build_hseg


def skill(sid, pre=(), art=(), goal=None, body=None, checklist=()):
    return make_contract(
        id=sid,
        goal=goal or f"goal-{sid}",
        preconditions=frozenset(pre),
        body=body or f"body {sid}",
        artifact_types=frozenset(art),
        checklist=checklist,
    )


def chain3():
    return [
        skill("s0", art=("a",)),
        skill("s1", pre=("a",), art=("b",)),
        skill("s2", pre=("b",)),
    ]


def brute_parents(skills):
    out = {s.id: set() for s in skills}
    for i in skills:
        for j in skills:
            if i.id != j.id and i.artifact_types and i.artifact_types <= j.preconditions:
                out[j.id].add(i.id)
    return out


def oracle_sweep(parents, r_loc, r_prev, alpha):
    new = {}
    for s, r in r_prev.items():
        incoming = max((r_prev[p] for p in parents[s]), default=r_loc[s])
        new[s] = (1 - alpha) * r_loc[s] + alpha * incoming
    return new


def test_chain_closed_form():
    g = build_hseg(chain3())
    r_loc = {"s0": 1.0, "s1": 0.0, "s2": 0.0}
    res = propagate(g, r_loc, CgpdConfig(alpha=0.5))
    assert res.converged
    assert abs(res.risk["s0"] - 1.0) < 1e-12
    assert abs(res.risk["s1"] - 0.5) < 1e-12
    assert abs(res.risk["s2"] - 0.25) < 1e-12


def test_diamond_fixed_point():
    sks = [
        skill("s0", art=("x",)),
        skill("s1", pre=("x",), art=("y1",)),
        skill("s2", pre=("x",), art=("y2",)),
        skill("s3", pre=("y1", "y2")),
    ]
    g = build_hseg(sks)
    r_loc = {"s0": 0.8, "s1": 0.0, "s2": 0.4, "s3": 0.0}
    res = propagate(g, r_loc)
    assert res.converged
    expected = {"s0": 0.8, "s1": 0.4, "s2": 0.6, "s3": 0.3}
    for sid, want in expected.items():
        assert abs(res.risk[sid] - want) < 1e-9


def test_parentless_skill_keeps_local_risk():
    g = build_hseg([skill("lone", art=("q",))])
    res = propagate(g, {"lone": 0.37})
    assert res.risk["lone"] == pytest.approx(0.37, abs=0)
    assert res.converged


def test_cycle_converges():
    sks = [
        skill("a", pre=("y",), art=("x",)),
        skill("b", pre=("x",), art=("y",)),
    ]
    g = build_hseg(sks)
    res = propagate(g, {"a": 1.0, "b": 0.0}, CgpdConfig(alpha=0.5, max_iters=200))
    assert res.converged
    # fixed point of the 2-cycle: a = 0.5 + 0.5 b, b = 0.5 a
    assert res.risk["a"] == pytest.approx(2 / 3, abs=1e-8)
    assert res.risk["b"] == pytest.approx(1 / 3, abs=1e-8)


def random_library(rng, n):
    tags = ["t1", "t2", "t3", "t4", "t5", "t6"]
    out = []
    for i in range(n):
        out.append(
            skill(
                f"n{i:03d}",
                pre=rng.sample(tags, rng.randint(0, 3)),
                art=rng.sample(tags, rng.randint(0, 2)),
            )
        )
    return out


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_contraction_and_oracle_agreement(alpha):
    rng = random.Random(97)
    for _ in range(12):
        sks = random_library(rng, rng.randint(2, 25))
        g = build_hseg(sks)
        parents = brute_parents(sks)
        r_loc = {s.id: round(rng.random(), 6) for s in sks}
        cfg = CgpdConfig(alpha=alpha, max_iters=2000, eps=1e-10)
        res = propagate(g, r_loc, cfg)
        assert res.converged

        # manual synchronous sweeps: deltas must contract by alpha
        r = dict(r_loc)
        prev_delta = None
        for _ in range(250):
            nxt = oracle_sweep(parents, r_loc, r, alpha)
            delta = max(abs(nxt[s] - r[s]) for s in r)
            if prev_delta is not None:
                assert delta <= alpha * prev_delta + 1e-12
            prev_delta = delta
            r = nxt
        # 250 sweeps puts the oracle well inside 1e-8 of the fixed point
        for sid in r:
            assert abs(res.risk[sid] - r[sid]) < 1e-8


def test_uniqueness_from_two_initializations():
    rng = random.Random(11)
    for trial in range(20):
        sks = random_library(rng, rng.randint(2, 30))
        g = build_hseg(sks)
        r_loc = {s.id: rng.random() for s in sks}
        cfg = CgpdConfig(alpha=0.9, eps=1e-9, max_iters=5000)
        init_a = {s.id: rng.random() for s in sks}
        init_b = {s.id: rng.random() for s in sks}
        ra = propagate(g, r_loc, cfg, initial=init_a)
        rb = propagate(g, r_loc, cfg, initial=init_b)
        assert ra.converged and rb.converged
        gap = max(abs(ra.risk[s] - rb.risk[s]) for s in ra.risk)
        assert gap <= 2 * cfg.eps


def test_dag_matches_topological_sweep():
    # layered DAG: exact fixed point computed root-first in one pass
    rng = random.Random(5)
    for _ in range(10):
        layers = [
            [skill(f"l0s{i}", art=(f"a{i}",)) for i in range(3)],
            [skill(f"l1s{i}", pre=(f"a{i}",), art=(f"b{i}",)) for i in range(3)],
            [skill(f"l2s{i}", pre=(f"b{i}",)) for i in range(3)],
        ]
        sks = [s for layer in layers for s in layer]
        g = build_hseg(sks)
        parents = brute_parents(sks)
        r_loc = {s.id: rng.random() for s in sks}
        alpha = 0.5
        exact = {}
        for layer in layers:
            for s in layer:
                incoming = max(
                    (exact[p] for p in parents[s.id]), default=r_loc[s.id]
                )
                exact[s.id] = (1 - alpha) * r_loc[s.id] + alpha * incoming
        res = propagate(g, r_loc, CgpdConfig(alpha=alpha, max_iters=100))
        assert res.converged
        for sid, want in exact.items():
            assert abs(res.risk[sid] - want) <= 1e-9


def test_missing_entry_and_bad_config():
    g = build_hseg(chain3())
    with pytest.raises(MissingRiskEntry):
        propagate(g, {"s0": 0.5})
    with pytest.raises(ConfigInvalid):
        propagate(g, {"s0": 0.5, "s1": 0.0, "s2": 1.5})
    with pytest.raises(ConfigInvalid):
        CgpdConfig(alpha=1.0)
    for eps in (0.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(ConfigInvalid, match="eps must be positive and finite"):
            CgpdConfig(eps=eps)
    with pytest.raises(ConfigInvalid, match="max_iters must be at least 1, got 0"):
        CgpdConfig(max_iters=0)
    with pytest.raises(ConfigInvalid, match=r"tau must be in \[0, 1\], got 1.5"):
        CgpdConfig(tau=1.5)


def test_empty_graph_propagates_to_an_empty_converged_result():
    res = propagate(build_hseg([]), {})
    assert (res.risk, res.iterations_used, res.converged) == ({}, 0, True)


def test_trigger_set_flags_unvalidated_risky_skills():
    sks = [
        skill("risky-bare", art=("a",)),
        skill("risky-checked", art=("b",), checklist=("check it",)),
        skill("calm-bare", art=("c",)),
    ]
    g = build_hseg(sks)
    lib = Library(skills=tuple(sks))
    risk = {"risky-bare": 0.9, "risky-checked": 0.9, "calm-bare": 0.2}
    assert trigger_set(g, risk, lib, tau=0.5) == frozenset({"risky-bare"})
    # boundary: risk must strictly exceed tau
    assert trigger_set(g, {"risky-bare": 0.5, "risky-checked": 1.0, "calm-bare": 0.0},
                       lib, tau=0.5) == frozenset()
    with pytest.raises(MissingRiskEntry):
        trigger_set(g, {"risky-bare": 0.9}, lib)


# ---------------------------------------------------------------------------
# the signature-level sweep against the per-skill sweep it replaced

def reference_propagate(g, r_loc, cfg=CgpdConfig(), initial=None):
    """Per-skill synchronous sweep: each skill walks its precondition
    signature's parent groups, using a group's runner-up where the skill
    itself is the group's (first) maximum.  The groups are read from the
    contracts, members ascending and groups in order of first member, and
    each signature's parent groups are found by testing every artifact
    signature, in that order.  propagate must match it bit for bit."""
    ids = sorted(g.nodes)
    r = {s: (initial or r_loc)[s] for s in ids}
    if not ids:
        return PropagationResult(risk={}, iterations_used=0, converged=True)
    a_groups = {}
    for s in ids:
        a_groups.setdefault(g.nodes[s].artifact_types, []).append(s)
    parent_sigs = {
        p: [a for a in a_groups if g._dep_sig(a, p)]
        for p in {g.nodes[s].preconditions for s in ids}
    }
    alpha = cfg.alpha
    threshold = cfg.eps * min(1.0, (1.0 - alpha) / alpha) if alpha > 0 else cfg.eps
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        stats = {}
        for a_sig, members in a_groups.items():
            best_id, best, second = None, float("-inf"), float("-inf")
            for m in members:
                v = r[m]
                if v > best:
                    best_id, second, best = m, best, v
                elif v > second:
                    second = v
            stats[a_sig] = (best_id, best, second)
        delta = 0.0
        nxt = {}
        for s in ids:
            incoming = None
            for a_sig in parent_sigs[g.nodes[s].preconditions]:
                best_id, best, second = stats[a_sig]
                if best_id == s:
                    if len(a_groups[a_sig]) == 1:
                        continue
                    v = second
                else:
                    v = best
                if incoming is None or v > incoming:
                    incoming = v
            if incoming is None:
                incoming = r_loc[s]
            value = (1.0 - alpha) * r_loc[s] + alpha * incoming
            change = abs(value - r[s])
            if change > delta:
                delta = change
            nxt[s] = value
        r = nxt
        if delta < threshold:
            converged = True
            break
    return PropagationResult(risk=r, iterations_used=iterations, converged=converged)


_RISKS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])  # few values force ties
_SIG = st.frozensets(st.sampled_from(["t1", "t2", "t3", "t4"]), max_size=3)


@st.composite
def risk_problems(draw):
    """A library with repeated artifact signatures (multi-member groups next
    to singletons), self-feeding skills (artifacts inside their own
    preconditions) and parentless ones (no preconditions), plus risks."""
    sks = []
    for i in range(draw(st.integers(min_value=1, max_value=14))):
        pre = draw(_SIG)
        if pre and draw(st.booleans()):
            art = draw(st.frozensets(st.sampled_from(sorted(pre)), min_size=1))
        else:
            art = draw(_SIG)
        sks.append(skill(f"s{i:02d}", pre=pre, art=art))
    ids = [s.id for s in sks]
    r_loc = {sid: draw(_RISKS) for sid in ids}
    initial = draw(st.none() | st.fixed_dictionaries({sid: _RISKS for sid in ids}))
    return sks, r_loc, initial


@settings(max_examples=200, deadline=None)
@given(
    risk_problems(),
    st.sampled_from(["subset", "overlap"]),
    st.sampled_from([0.0, 0.3, 0.5, 0.9, 0.99]),
    st.sampled_from([1, 2, 5, 64]),
)
def test_propagate_equals_per_skill_reference_exactly(problem, dep_mode, alpha, max_iters):
    sks, r_loc, initial = problem
    g = build_hseg(sks, dep_mode=dep_mode)
    cfg = CgpdConfig(alpha=alpha, max_iters=max_iters)
    got = propagate(g, r_loc, cfg, initial=initial)
    want = reference_propagate(g, r_loc, cfg, initial=initial)
    assert list(got.risk) == list(want.risk)
    for sid, value in want.risk.items():
        assert got.risk[sid] == value
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged


def test_self_fed_skill_is_left_out_of_its_own_group():
    # x1 and x2 share artifacts {a} that feed their own preconditions {a};
    # lone feeds only itself, so nothing else feeds it
    sks = [
        skill("x1", pre=("a",), art=("a",)),
        skill("x2", pre=("a",), art=("a",)),
        skill("lone", pre=("b",), art=("b",)),
        skill("sink", pre=("a", "b")),
    ]
    g = build_hseg(sks)
    r_loc = {"x1": 1.0, "x2": 0.0, "lone": 0.5, "sink": 0.0}
    cfg = CgpdConfig(alpha=0.5, max_iters=1)
    res = propagate(g, r_loc, cfg)
    assert res.risk == {"x1": 0.5, "x2": 0.5, "lone": 0.5, "sink": 0.5}
    assert res.risk == reference_propagate(g, r_loc, cfg).risk


@pytest.mark.parametrize("start", ["r_loc", "other"])
@pytest.mark.parametrize("max_iters, converges", [(500, True), (30, False)])
def test_settled_first_skill_does_not_end_or_skip_a_sweep(start, max_iters, converges):
    # "a-root" is first and nothing feeds it, so from r_loc its change is 0
    # from sweep 1 (from another start, from sweep 2), while the c1/c2
    # cycle and the self-fed pair need hundreds of sweeps at alpha 0.9.  A
    # sweep whose first skill has settled must still take every change.
    sks = [
        skill("a-root", art=("z",)),
        skill("c1", pre=("y",), art=("x",)),
        skill("c2", pre=("x",), art=("y",)),
        skill("c3", pre=("x", "z")),
        skill("s1", pre=("s",), art=("s",)),
        skill("s2", pre=("s",), art=("s",)),
    ]
    g = build_hseg(sks)
    r_loc = {"a-root": 0.25, "c1": 1.0, "c2": 0.0, "c3": 0.5, "s1": 0.75, "s2": 0.0}
    initial = None if start == "r_loc" else {
        "a-root": 1.0, "c1": 0.0, "c2": 1.0, "c3": 0.0, "s1": 0.0, "s2": 1.0,
    }
    cfg = CgpdConfig(alpha=0.9, max_iters=max_iters)
    got = propagate(g, r_loc, cfg, initial=initial)
    want = reference_propagate(g, r_loc, cfg, initial=initial)
    assert list(got.risk.items()) == list(want.risk.items())
    assert (got.iterations_used, got.converged) == (want.iterations_used, want.converged)
    assert got.converged == converges
    assert got.iterations_used > 30 if converges else got.iterations_used == 30
    assert got.risk["a-root"] == r_loc["a-root"]
