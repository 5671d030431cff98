import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from skillops.contract import AdapterShim, DuplicateSkillId, Library, make_contract
from skillops.debtgen import build_library
from skillops.hseg import EDGE_KINDS, Hseg, build_hseg, jaccard
from skillops.maint import MaintenanceConfig, run_maintenance
from skillops.planner import EMPTY_TRACE


def skill(sid, pre=(), art=(), goal="g", body=None, **kw):
    return make_contract(
        id=sid,
        goal=goal,
        preconditions=frozenset(pre),
        body=body if body is not None else f"body of {sid}",
        artifact_types=frozenset(art),
        **kw,
    )


def decoded(g):
    """The graph's numbered arrays read back as id-level groups, each a list
    of (key, members) pairs in number order: interfaces keyed by
    (preconditions, artifact types), artifact and precondition groups by
    their signature, and the dep relation as each precondition signature's
    parent artifact signatures."""
    ids = list(g.nodes)

    def rows(start, members):
        return [
            tuple(ids[m] for m in members[start[k]:start[k + 1]])
            for k in range(len(start) - 1)
        ]

    ifaces = [(g._p_sigs[p], g._a_sigs[a]) for p, a in zip(g._iface_p, g._iface_a)]
    p_rows = [[] for _ in g._p_sigs]
    for sid, k in zip(ids, g._iface):
        p_rows[g._iface_p[k]].append(sid)
    start = g._parent_start
    return {
        "iface": list(zip(ifaces, rows(g._iface_start, g._iface_members))),
        "a": list(zip(g._a_sigs, rows(g._a_start, g._a_members))),
        "p": [(p, tuple(members)) for p, members in zip(g._p_sigs, p_rows)],
        "parents": [
            (p, tuple(g._a_sigs[a] for a in g._parents[start[q]:start[q + 1]]))
            for q, p in enumerate(g._p_sigs)
        ],
    }


def reference_parents(g, skill_id):
    """Skills whose artifacts feed skill_id's preconditions (dep in-edges)."""
    groups = decoded(g)
    a_groups = dict(groups["a"])
    p = g.nodes[skill_id].preconditions
    out = set()
    for a_sig in dict(groups["parents"])[p]:
        out.update(a_groups[a_sig])
    out.discard(skill_id)
    return frozenset(out)


def reference_edge_set(g, kinds=EDGE_KINDS):
    return frozenset(g.iter_edges(kinds))


def brute_force_edges(skills, comp_threshold=0.3, dep_mode="subset"):
    """Definitional O(N^2) oracle."""
    from skillops.contract import body_hash

    edges = set()
    for i in skills:
        for j in skills:
            if i.id == j.id:
                continue
            a, p = i.artifact_types, j.preconditions
            if dep_mode == "subset":
                dep = bool(a) and a <= p
            else:
                dep = bool(a & p)
            if dep:
                edges.add((i.id, j.id, "dep"))
            if jaccard(a, p) >= comp_threshold:
                edges.add((i.id, j.id, "comp"))
            if i.preconditions == j.preconditions and i.artifact_types == j.artifact_types:
                edges.add((i.id, j.id, "red"))
            if i.goal == j.goal and body_hash(i) != body_hash(j):
                edges.add((i.id, j.id, "alt"))
    return edges


def test_dep_and_comp_example():
    i = skill("i", pre=("html",), art=("json",))
    j = skill("j", pre=("json", "table"), art=("csv",))
    g = build_hseg([i, j])
    assert g.edge_exists("dep", "i", "j")
    assert jaccard(frozenset({"json"}), frozenset({"json", "table"})) == 0.5
    assert g.edge_exists("comp", "i", "j")
    # reverse direction: csv not a subset of {html}
    assert not g.edge_exists("dep", "j", "i")
    assert not g.edge_exists("comp", "j", "i")


def test_dep_requires_nonempty_artifacts():
    i = skill("i", pre=("a",), art=())
    j = skill("j", pre=(), art=())
    g = build_hseg([i, j])
    # empty artifact set feeds nothing, even though {} is a subset of anything
    assert not g.edge_exists("dep", "i", "j")
    assert not g.edge_exists("comp", "i", "j")
    assert jaccard(frozenset(), frozenset()) == 0.0


def test_comp_threshold_boundary():
    # jaccard exactly at the threshold counts as compatible
    i = skill("i", art=("a",))
    j = skill("j", pre=("a", "b", "c"))  # 1/3 >= 0.3
    k = skill("k", pre=("a", "b", "c", "d"))  # 1/4 < 0.3
    g = build_hseg([i, j, k])
    assert g.edge_exists("comp", "i", "j")
    assert not g.edge_exists("comp", "i", "k")
    assert g.edge_exists("dep", "i", "k")  # subset holds regardless


def test_red_symmetric_and_no_self_edges():
    a = skill("a", pre=("x",), art=("y",), body="one")
    b = skill("b", pre=("x",), art=("y",), body="two")
    g = build_hseg([a, b])
    assert g.edge_exists("red", "a", "b")
    assert g.edge_exists("red", "b", "a")
    assert not g.edge_exists("red", "a", "a")
    listed = reference_edge_set(g, ("red",))
    assert ("a", "b", "red") in listed and ("b", "a", "red") in listed


def test_red_transitive_clique():
    trio = [skill(s, pre=("x",), art=("y",), body=f"b{s}") for s in "abc"]
    g = build_hseg(trio)
    for s in "abc":
        for d in "abc":
            assert g.edge_exists("red", s, d) == (s != d)
    assert g.red_clusters() == (("a", "b", "c"),)


def test_alt_same_goal_different_body():
    a = skill("a", goal="fetch", body="one way", art=("t",))
    b = skill("b", goal="fetch", body="another way", art=("t",))
    c = skill("c", goal="fetch", body="one way", art=("t",))
    g = build_hseg([a, b, c])
    assert g.edge_exists("alt", "a", "b")
    assert g.edge_exists("alt", "b", "a")
    assert not g.edge_exists("alt", "a", "c")  # same body hash
    assert g.alt_neighbors("a") == ("b",)


def test_red_clusters_partition():
    sks = [
        skill("a", pre=("x",), art=("y",)),
        skill("b", pre=("x",), art=("y",)),
        skill("c", pre=("z",), art=("y",)),
    ]
    g = build_hseg(sks)
    clusters = g.red_clusters()
    assert clusters == (("a", "b"), ("c",))
    assert g.red_cluster_of("a") == ("a", "b")
    assert sorted(sid for cl in clusters for sid in cl) == ["a", "b", "c"]


def test_parents():
    up = skill("up", art=("json",))
    down = skill("down", pre=("json",), art=("csv",))
    other = skill("other", art=("xml",))
    g = build_hseg([up, down, other])
    assert reference_parents(g, "down") == frozenset({"up"})
    assert reference_parents(g, "up") == frozenset()


def test_duplicate_ids_rejected():
    a = skill("a")
    with pytest.raises(DuplicateSkillId):
        build_hseg([a, a])
    # every repeated id once, sorted, whatever order and multiplicity
    sks = [skill(sid) for sid in ("m", "b", "z", "m", "a", "z", "b", "m", "c")]
    with pytest.raises(DuplicateSkillId) as e:
        build_hseg(sks)
    assert str(e.value) == "b, m, z"


def test_unknown_edge_kind_and_dep_mode_rejected():
    g = build_hseg([skill("a", art=("x",)), skill("b", pre=("x",))])
    with pytest.raises(ValueError, match="^unknown edge kind: next$"):
        g.edge_exists("next", "a", "b")
    with pytest.raises(ValueError, match="dep_mode must be subset or overlap, got 'x'"):
        build_hseg([skill("a")], dep_mode="x")


def test_dep_mode_overlap():
    i = skill("i", art=("json", "log"))
    j = skill("j", pre=("json", "table", "form", "chart"))
    g_sub = build_hseg([i, j])
    g_ovl = build_hseg([i, j], dep_mode="overlap")
    assert not g_sub.edge_exists("dep", "i", "j")
    assert g_ovl.edge_exists("dep", "i", "j")
    # jaccard 1/5 < 0.3: an organically dep-without-comp edge
    assert not g_ovl.edge_exists("comp", "i", "j")
    assert g_ovl.dep_not_comp_pairs() == [("i", "j")]


def test_incident_dep_counts_hand_case():
    i = skill("i", art=("json",))
    j = skill("j", pre=("json", "table"), art=("csv",))
    k = skill("k", pre=("json", "a", "b", "c"))  # dep from i, jaccard 1/4 -> not comp
    g = build_hseg([i, j, k])
    assert g.incident_dep_counts("i") == (2, 1)
    assert g.incident_dep_counts("j") == (1, 1)
    assert g.incident_dep_counts("k") == (1, 0)


def test_adapter_bridging_counts():
    i = skill("i", art=("json",))
    k = skill("k", pre=("json", "a", "b", "c"))
    shim = AdapterShim(
        src="i", dst="k",
        contract=skill("adapt--i--k", pre=("json",), art=("json", "a", "b", "c"),
                       goal="adapt:i:k"),
    )
    g = build_hseg([i, k], adapters=(shim,))
    assert g.is_bridged("i", "k")
    assert not g.is_bridged("k", "i")
    assert g.incident_dep_counts("i") == (1, 1)
    assert g.incident_dep_counts("k") == (1, 1)

    # a second shim for one pair and a self shim bridge no further dep edge;
    # counting them would push C above 1 and the local risk below 0
    loop = skill("k2", pre=("json", "a", "b", "c"), art=("json",))
    twin = AdapterShim(src="i", dst="k2", contract=skill("t1", art=("json", "a")))
    again = AdapterShim(src="i", dst="k2", contract=skill("t2", art=("json", "b")))
    self_shim = AdapterShim(src="k2", dst="k2", contract=skill("t3", art=("json",)))
    g = build_hseg([i, loop], adapters=(twin, again, self_shim))
    assert g.is_bridged("i", "k2") and g.is_bridged("k2", "k2")
    assert g.incident_dep_counts("i") == (1, 1)
    assert g.incident_dep_counts("k2") == (1, 1)


def test_export_shape_and_determinism():
    sks = [skill("a", art=("x",)), skill("b", pre=("x",), art=("x",))]
    g1, g2 = build_hseg(sks), build_hseg(list(reversed(sks)))
    ex1, ex2 = g1.export(), g2.export()
    assert json.dumps(ex1, sort_keys=True) == json.dumps(ex2, sort_keys=True)
    assert ex1["nodes"] == ["a", "b"]
    assert {tuple(e.values()) for e in ex1["edges"]} >= {("a", "b", "dep")}
    assert ex1["adapters"] == []

    # shims list each distinct (src, dst, types) once, in full sort order,
    # whatever order the graph was given them in
    shims = [AdapterShim(src="a", dst="b", contract=skill(f"t{n}", art=types))
             for n, types in enumerate([("x", "z"), ("x",), ("x", "y"), ("x",)])]
    want = [{"src": "a", "dst": "b", "artifact_types": types}
            for types in (["x"], ["x", "y"], ["x", "z"])]
    for order in (shims, shims[::-1]):
        assert build_hseg(sks, adapters=order).export()["adapters"] == want


def test_nodes_map_ascending_ids_to_the_given_contracts():
    lib, _ = build_library(120, 0.6, 5)
    shuffled = list(lib.skills)
    random.Random(3).shuffle(shuffled)
    g = build_hseg(shuffled, adapters=lib.adapters)
    assert list(g.nodes) == sorted(s.id for s in shuffled)
    assert all(g.nodes[s.id] is s for s in shuffled)
    # red clusters come out ordered by their smallest member, each sorted
    clusters = g.red_clusters()
    assert [c[0] for c in clusters] == sorted(c[0] for c in clusters)
    assert all(list(c) == sorted(c) for c in clusters)
    assert g.export() == build_hseg(lib.skills, adapters=lib.adapters).export()


_tags = st.sets(st.sampled_from(["t1", "t2", "t3", "t4", "t5"]), max_size=3)
# "t9" is held by artifacts only: its precondition posting list is empty
_art_tags = st.sets(st.sampled_from(["t1", "t2", "t3", "t4", "t5", "t9"]), max_size=3)


@st.composite
def libraries(draw):
    """Drawn skills plus two that every library holds: one with no
    artifacts and one whose artifacts include the unheld token t9."""
    n = draw(st.integers(min_value=1, max_value=12))
    arts = [draw(_art_tags) for _ in range(n)] + [set(), draw(_tags) | {"t9"}]
    out = []
    for i, art in enumerate(arts):
        out.append(
            skill(
                f"s{i:02d}",
                pre=draw(_tags),
                art=art,
                goal=draw(st.sampled_from(["g1", "g2", "g3"])),
                body=draw(st.sampled_from(["alpha", "beta", "gamma"])),
            )
        )
    return out


@settings(max_examples=120, deadline=None)
@given(
    libraries(),
    st.sampled_from([0.0, 0.3, 0.5]),
    st.sampled_from(["subset", "overlap"]),
    st.data(),
)
def test_edges_match_brute_force_oracle(lib, threshold, dep_mode, data):
    ids = [s.id for s in lib]
    # random shims, some naming a skill outside the graph
    shims = data.draw(st.lists(
        st.tuples(st.sampled_from(ids + ["ghost"]), st.sampled_from(ids + ["ghost"]), _tags),
        max_size=6,
    ))
    adapters = tuple(
        AdapterShim(src=a, dst=b, contract=skill(f"adapt--{a}--{b}", art=t))
        for a, b, t in shims
    )
    g = build_hseg(lib, comp_threshold=threshold, dep_mode=dep_mode, adapters=adapters)
    expected = brute_force_edges(lib, threshold, dep_mode)
    assert reference_edge_set(g) == expected
    for i in lib:
        for j in lib:
            for kind in ("dep", "comp", "red", "alt"):
                assert g.edge_exists(kind, i.id, j.id) == (
                    (i.id, j.id, kind) in expected
                )
            assert g.is_bridged(i.id, j.id) == any(
                a == i.id and b == j.id and t <= j.preconditions for a, b, t in shims
            )
    assert g.dep_not_comp_pairs() == sorted(
        (a, b) for a, b, k in expected if k == "dep" and (a, b, "comp") not in expected
    )


# every (dep_mode, comp_threshold) pair, checked on each drawn library
GRAPH_CONFIGS = [(m, t) for m in ("subset", "overlap") for t in (0.0, 0.3, 0.5)]


@pytest.fixture(scope="module")
def generated_library():
    lib, _ = build_library(300, 0.5, 3)
    return list(lib.skills)


@pytest.mark.parametrize("dep_mode, threshold", GRAPH_CONFIGS)
def test_generated_library_edges_match_brute_force_oracle(
    generated_library, dep_mode, threshold
):
    # a clone-heavy library: above threshold 0 the listing walks only the
    # signature pairs that share a token, at 0 every pair
    g = build_hseg(generated_library, comp_threshold=threshold, dep_mode=dep_mode)
    assert reference_edge_set(g) == brute_force_edges(generated_library, threshold, dep_mode)


def oracle_counts(skills, adapters, threshold, dep_mode):
    """Each skill's (incident dep edges, those comp or adapter-bridged),
    from one pass over brute_force_edges."""
    edges = brute_force_edges(skills, threshold, dep_mode)
    pre = {s.id: s.preconditions for s in skills}
    bridged = {
        (a.src, a.dst) for a in adapters
        if a.src in pre and a.dst in pre and a.contract.artifact_types <= pre[a.dst]
    }
    counts = {s.id: [0, 0] for s in skills}
    for a, b, kind in edges:
        if kind == "dep":
            ok = (a, b, "comp") in edges or (a, b) in bridged
            for sid in (a, b):
                counts[sid][0] += 1
                counts[sid][1] += ok
    return {sid: tuple(c) for sid, c in counts.items()}


@pytest.mark.parametrize("dep_mode, threshold", GRAPH_CONFIGS)
def test_generated_library_counts_match_oracle(generated_library, dep_mode, threshold):
    # clone-heavy: many interfaces feed themselves and hold many members.
    # Checked on the library and on its maintained output, whose shims
    # bridge dep-only pairs
    lib = Library(skills=tuple(generated_library))
    cfg = MaintenanceConfig(force=True, comp_threshold=threshold, dep_mode=dep_mode)
    out, _ = run_maintenance(lib, EMPTY_TRACE, cfg)
    for kept in (lib, out):
        graph = build_hseg(kept.skills, threshold, dep_mode, kept.adapters)
        got = {s.id: graph.incident_dep_counts(s.id) for s in kept.skills}
        assert got == oracle_counts(kept.skills, kept.adapters, threshold, dep_mode)


@settings(max_examples=60, deadline=None)
@given(libraries(), st.data())
def test_incident_counts_match_oracle(lib, data):
    # random shims, including self shims and several shims for one pair
    ids = [s.id for s in lib]
    shims = data.draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), _tags), max_size=6,
    ))
    adapters = tuple(
        AdapterShim(src=a, dst=b, contract=skill(f"adapt--{a}--{b}", art=t))
        for a, b, t in shims
    )
    pre = {s.id: s.preconditions for s in lib}
    bridged = {(a, b) for a, b, t in shims if t <= pre[b]}
    for dep_mode, threshold in GRAPH_CONFIGS:
        g = build_hseg(lib, threshold, dep_mode, adapters)
        edges = brute_force_edges(lib, threshold, dep_mode)
        for s in lib:
            dep_edges = [
                (a, b) for (a, b, k) in edges if k == "dep" and s.id in (a, b)
            ]
            ok = sum(
                1 for (a, b) in dep_edges if (a, b, "comp") in edges or (a, b) in bridged
            )
            assert g.incident_dep_counts(s.id) == (len(dep_edges), ok)


@settings(max_examples=60, deadline=None)
@given(libraries())
def test_parents_and_clusters_match_oracle(lib):
    for dep_mode, threshold in GRAPH_CONFIGS:
        g = build_hseg(lib, comp_threshold=threshold, dep_mode=dep_mode)
        edges = brute_force_edges(lib, threshold, dep_mode)
        for s in lib:
            expected = frozenset(a for (a, b, k) in edges if k == "dep" and b == s.id)
            assert reference_parents(g, s.id) == expected
        assert g.dep_not_comp_pairs() == sorted(
            (a, b) for a, b, k in edges if k == "dep" and (a, b, "comp") not in edges
        )
    # red clusters partition the nodes and members are pairwise red-linked
    clusters = g.red_clusters()
    seen = [sid for cl in clusters for sid in cl]
    assert sorted(seen) == sorted(s.id for s in lib)
    for cl in clusters:
        for x in cl:
            for y in cl:
                if x != y:
                    assert (x, y, "red") in edges


def reference_groups(skills, key):
    """(key, members) pairs from one walk over the skills in id order:
    members ascending, keys in order of first member."""
    groups = {}
    for s in sorted(skills, key=lambda s: s.id):
        groups.setdefault(key(s), []).append(s.id)
    return [(k, tuple(members)) for k, members in groups.items()]


def rarest_token_parents(a_sigs, p_sigs, dep_mode):
    """p_sig -> its parent artifact signatures in a_sigs order: under
    "subset" the rarest token's precondition signatures filtered by a
    subset test, under "overlap" every signature sharing a token."""
    postings = {}
    for p in p_sigs:
        for token in p:
            postings.setdefault(token, []).append(p)
    parents = {p: [] for p in p_sigs}
    for a in a_sigs:
        if dep_mode == "overlap":
            candidates = {p for token in a for p in postings.get(token, ())}
        else:
            rarest = min((postings.get(token, ()) for token in a), key=len, default=())
            candidates = [p for p in rarest if a <= p]
        for p in candidates:
            parents[p].append(a)
    return {p: tuple(a_list) for p, a_list in parents.items()}


@settings(max_examples=150, deadline=None)
@given(libraries(), st.sampled_from(["subset", "overlap"]), st.data())
def test_groups_and_parents_match_a_per_skill_reference(lib, dep_mode, data):
    shuffled = data.draw(st.permutations(lib))
    g = build_hseg(shuffled, dep_mode=dep_mode)
    groups = decoded(g)
    assert groups["iface"] == reference_groups(
        lib, lambda s: (s.preconditions, s.artifact_types))
    assert groups["a"] == reference_groups(lib, lambda s: s.artifact_types)
    assert groups["p"] == reference_groups(lib, lambda s: s.preconditions)
    # each position's column names its own interface, and an interface is
    # flagged self-fed exactly when its artifacts feed its preconditions
    assert [(g._p_sigs[g._iface_p[k]], g._a_sigs[g._iface_a[k]]) for k in g._iface] == [
        (s.preconditions, s.artifact_types) for s in g.nodes.values()]
    assert list(g._self_fed) == [g._dep_sig(a, p) for p, a in dict(groups["iface"])]
    # the join keeps each parent list in artifact-number order, keyed in
    # precondition-number order
    want = rarest_token_parents(list(g._a_sigs), list(g._p_sigs), dep_mode)
    assert groups["parents"] == list(want.items())

    # goal groups are no field and are built on first use, as a fresh walk
    # over the nodes would build them
    assert "_goal_groups" not in {f.name for f in dataclasses.fields(Hseg)}
    assert "_goal_groups" not in vars(g)
    twin = build_hseg(lib, dep_mode=dep_mode)
    assert list(g._goal_groups.items()) == reference_groups(lib, lambda s: s.goal)
    assert g == twin  # a built cache does not enter eq
