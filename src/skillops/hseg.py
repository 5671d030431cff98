"""Typed graph over a skill library.

Four directed edge kinds connect skills i -> j:

  dep   artifacts feed preconditions: A_i subseteq P_j, A_i nonempty
        (or, under dep_mode="overlap", A_i intersects P_j)
  comp  interface compatibility: jaccard(A_i, P_j) >= comp_threshold
  red   interchangeable interfaces: P_i == P_j and A_i == A_j (symmetric)
  alt   same goal, different body hash (symmetric)

Self edges never exist.  Because libraries are clone-heavy, the graph keeps
interface-signature groups instead of a materialized edge set and answers
pair predicates from the contracts, kept once by id.  The skills are grouped
once, by interface; the artifact and precondition signature groups are
derived from those interface groups, and the goal groups, which only alt
neighborhoods and listings read, are built on first use.  The dep relation
is built once between signatures by a set-containment join over token ->
precondition-signature posting sets (a dep pair always shares a token);
CGPD's parent lists and dep-only pairs are read from it, and each
interface's dep/comp counts are summed from it once, by _tally, which a
fresh build and a restriction share.  Edge listings for export or
brute-force checks are generated on demand; above a comp threshold of 0 they
too visit only signature pairs that share a token.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations

from skillops.contract import (
    AdapterShim,
    DuplicateSkillId,
    SkillContract,
    body_hash,
)

__all__ = ["Hseg", "build_hseg", "jaccard", "EDGE_KINDS"]

EDGE_KINDS = ("dep", "comp", "red", "alt")


def jaccard(a: frozenset, b: frozenset) -> float:
    """Set similarity in [0, 1]; two empty sets count as disjoint."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


@dataclass
class Hseg:
    """Built by build_hseg, or derived from another graph by _restrict;
    treat as immutable once constructed.  `nodes` maps each skill id to its
    contract in ascending id order, and `adapters` holds the shims the
    graph was built with, in the order given.  Both ways set the signature
    groups and the dep relation (_parent_sigs), then tally the counts and
    register the adapters the same way.  Every group lists its members in
    ascending id order; in a fresh build each map's groups also come in the
    order of their first members.  The goal groups are not a field: they
    are built from `nodes` on first use, so eq, repr and dataclasses.fields
    never see them."""

    nodes: dict[str, SkillContract]
    comp_threshold: float
    dep_mode: str
    adapters: tuple[AdapterShim, ...] = ()

    _a_groups: dict[frozenset, tuple[str, ...]] = field(default_factory=dict)
    _p_groups: dict[frozenset, tuple[str, ...]] = field(default_factory=dict)
    _iface_groups: dict[tuple, tuple[str, ...]] = field(default_factory=dict)
    # per distinct precondition signature, the artifact signatures that feed it
    _parent_sigs: dict[frozenset, tuple[frozenset, ...]] = field(default_factory=dict)
    # per interface, keyed as in _iface_groups: (incident dep edges, those
    # that are also comp) of any one member, its self pair taken out
    _iface_counts: dict[tuple, tuple[int, int]] = field(default_factory=dict)
    _bridged_counts: dict[str, int] = field(default_factory=dict)
    _bridges: dict[tuple[str, str], AdapterShim] = field(default_factory=dict)

    @cached_property
    def _goal_groups(self) -> dict[str, tuple[str, ...]]:
        groups: dict[str, list] = {}
        for sid, s in self.nodes.items():
            groups.setdefault(s.goal, []).append(sid)
        return {goal: tuple(members) for goal, members in groups.items()}

    # ---- pair predicates -------------------------------------------------

    def _dep_sig(self, a: frozenset, p: frozenset) -> bool:
        if not a:
            return False
        if self.dep_mode == "overlap":
            return bool(a & p)
        return a <= p

    def _comp_sig(self, a: frozenset, p: frozenset) -> bool:
        return jaccard(a, p) >= self.comp_threshold

    def _dep_comp(self, a: frozenset, p: frozenset) -> bool:
        """_comp_sig of a dep pair, from the same integer quotient: a is
        nonempty, and under "subset" a <= p, so jaccard is len(a) / len(p)."""
        if self.dep_mode == "subset":
            return len(a) / len(p) >= self.comp_threshold
        shared = len(a & p)
        return shared / (len(a) + len(p) - shared) >= self.comp_threshold

    def edge_exists(self, kind: str, src: str, dst: str) -> bool:
        if src == dst or src not in self.nodes or dst not in self.nodes:
            return False
        s, d = self.nodes[src], self.nodes[dst]
        if kind == "dep":
            return self._dep_sig(s.artifact_types, d.preconditions)
        if kind == "comp":
            return self._comp_sig(s.artifact_types, d.preconditions)
        if kind == "red":
            return s.preconditions == d.preconditions and s.artifact_types == d.artifact_types
        if kind == "alt":
            return s.goal == d.goal and body_hash(s) != body_hash(d)
        raise ValueError(f"unknown edge kind: {kind}")

    def is_bridged(self, src: str, dst: str) -> bool:
        """True when a registered adapter carries this pair of skills and its
        artifact types satisfy the destination's preconditions."""
        return (src, dst) in self._bridges

    def bridge(self, src: str, dst: str) -> AdapterShim | None:
        """The first registered shim that bridges this pair, else None."""
        return self._bridges.get((src, dst))

    # ---- neighborhoods ---------------------------------------------------

    def alt_neighbors(self, skill_id: str) -> tuple[str, ...]:
        """Same-goal, different-body skills, ascending id."""
        s = self.nodes[skill_id]
        mine = body_hash(s)
        return tuple(
            other for other in self._goal_groups[s.goal]
            if other != skill_id and body_hash(self.nodes[other]) != mine
        )

    def red_clusters(self) -> tuple[tuple[str, ...], ...]:
        """Partition of the nodes into maximal interface-equal groups, each
        sorted ascending, clusters ordered by their smallest member (the
        order build_hseg creates them in)."""
        return tuple(self._iface_groups.values())

    def red_cluster_of(self, skill_id: str) -> tuple[str, ...]:
        s = self.nodes[skill_id]
        return self._iface_groups[(s.preconditions, s.artifact_types)]

    # ---- aggregate dep/comp counts for health ----------------------------

    def incident_dep_counts(self, skill_id: str) -> tuple[int, int]:
        """(incident dep edges, incident dep edges that are compatible or
        adapter-bridged) counting both directions, self pairs excluded."""
        s = self.nodes[skill_id]
        dep, ok = self._iface_counts[(s.preconditions, s.artifact_types)]
        return dep, ok + self._bridged_counts.get(skill_id, 0)

    # ---- listings (on-demand; can be quadratic on clone-heavy graphs) ----

    def iter_edges(self, kinds=EDGE_KINDS):
        """Every edge of the given kinds as (src, dst, kind), each once."""
        if "dep" in kinds or "comp" in kinds:
            # a dep pair shares a token, and so does a comp pair above
            # threshold 0; at 0 every pair is comp, so every pair is walked
            postings = _token_postings(self._p_groups) if self.comp_threshold > 0 else None
            for a_sig, srcs in self._a_groups.items():
                p_sigs = self._p_groups if postings is None else dict.fromkeys(
                    p_sig for token in a_sig for p_sig in postings.get(token, ())
                )
                for p_sig in p_sigs:
                    dsts = self._p_groups[p_sig]
                    dep = self._dep_sig(a_sig, p_sig)
                    comp = self._comp_sig(a_sig, p_sig)
                    if not dep and not comp:
                        continue
                    for s in srcs:
                        for d in dsts:
                            if s == d:
                                continue
                            if dep and "dep" in kinds:
                                yield (s, d, "dep")
                            if comp and "comp" in kinds:
                                yield (s, d, "comp")
        if "red" in kinds:
            for cluster in self._iface_groups.values():
                for s, d in combinations(cluster, 2):
                    yield (s, d, "red")
                    yield (d, s, "red")
        if "alt" in kinds:
            for members in self._goal_groups.values():
                for s, d in combinations(members, 2):
                    if body_hash(self.nodes[s]) != body_hash(self.nodes[d]):
                        yield (s, d, "alt")
                        yield (d, s, "alt")

    def dep_not_comp_pairs(self):
        """Ordered (src, dst) pairs holding a dep edge without comp."""
        pairs = []
        for p_sig, a_sigs in self._parent_sigs.items():
            dsts = self._p_groups[p_sig]
            for a_sig in a_sigs:
                if not self._dep_comp(a_sig, p_sig):
                    pairs.extend(
                        (s, d) for s in self._a_groups[a_sig] for d in dsts if s != d
                    )
        return sorted(pairs)

    # ---- derivation ------------------------------------------------------

    def _tally(self) -> None:
        """Sum each interface's incident dep and comp counts from the dep
        relation and the group sizes.  A dep pair of signatures adds the
        destination group's size to the artifact signature's out-counts and
        the source group's size to the precondition signature's in-counts;
        an interface's counts are its two signatures' sums less its self
        pair, counted once on each side."""
        a_groups, p_groups = self._a_groups, self._p_groups
        out_dep = dict.fromkeys(a_groups, 0)
        out_ok = dict.fromkeys(a_groups, 0)
        in_dep, in_ok = {}, {}
        for p_sig, parents in self._parent_sigs.items():
            n_dst = len(p_groups[p_sig])
            dep = ok = 0
            for a_sig in parents:
                n_src = len(a_groups[a_sig])
                out_dep[a_sig] += n_dst
                dep += n_src
                if self._dep_comp(a_sig, p_sig):
                    out_ok[a_sig] += n_dst
                    ok += n_src
            in_dep[p_sig] = dep
            in_ok[p_sig] = ok
        tally = {}
        for key in self._iface_groups:
            p, a = key
            dep, ok = out_dep[a] + in_dep[p], out_ok[a] + in_ok[p]
            if self._dep_sig(a, p):
                dep -= 2
                if self._dep_comp(a, p):
                    ok -= 2
            tally[key] = (dep, ok)
        self._iface_counts = tally

    def _register(self, adapters) -> None:
        """Keep the shims as given and map each skill pair they bridge to the
        first shim that does.  A pair counts once however many shims bridge
        it; a shim touching a skill outside the graph, or whose types miss
        the destination's preconditions, bridges nothing."""
        self.adapters = tuple(adapters)
        nodes = self.nodes
        bridged: dict[str, int] = {}
        bridges = {}
        for shim in self.adapters:
            if shim.src not in nodes or shim.dst not in nodes:
                continue
            a, p = nodes[shim.src].artifact_types, nodes[shim.dst].preconditions
            pair = (shim.src, shim.dst)
            if not shim.contract.artifact_types <= p or pair in bridges:
                continue
            bridges[pair] = shim
            # the incident counts leave self pairs out
            if shim.src != shim.dst and self._dep_sig(a, p) and not self._dep_comp(a, p):
                bridged[shim.src] = bridged.get(shim.src, 0) + 1
                bridged[shim.dst] = bridged.get(shim.dst, 0) + 1
        self._bridged_counts = bridged
        self._bridges = bridges

    def _restrict(self, survivors, adapters) -> Hseg:
        """The graph build_hseg(survivors, ..., adapters) returns, derived
        from this one.  Each survivor must be a node here with the same
        interface and goal, as every maintenance action guarantees.

        Dep and comp hold between signatures whatever skills carry them, so
        this filters the groups that lost a skill, drops the signatures left
        without skills and keeps the parent lists minus those signatures;
        _tally then sums the counts from the new group sizes.  It builds no
        postings, runs no subset test and hashes no body, and the goal
        groups are built from the survivors only if something reads them.
        Groups and parent lists keep this graph's order, which can differ
        from a fresh build's; their contents are equal."""
        alive = {s.id: s for s in survivors}
        gone = [s for sid, s in self.nodes.items() if sid not in alive]
        g = Hseg(
            nodes={sid: alive[sid] for sid in self.nodes if sid in alive},
            comp_threshold=self.comp_threshold,
            dep_mode=self.dep_mode,
        )
        g._a_groups = _kept(self._a_groups, {s.artifact_types for s in gone}, alive)
        g._p_groups = _kept(self._p_groups, {s.preconditions for s in gone}, alive)
        g._iface_groups = _kept(
            self._iface_groups, {(s.preconditions, s.artifact_types) for s in gone}, alive
        )

        dropped = self._a_groups.keys() - g._a_groups.keys()
        for p_sig in g._p_groups:
            parents = self._parent_sigs[p_sig]
            if not dropped.isdisjoint(parents):
                parents = tuple(a for a in parents if a not in dropped)
            g._parent_sigs[p_sig] = parents
        g._tally()
        g._register(adapters)
        return g

    def export(self) -> dict:
        """Nodes in id order, edges sorted by (kind, src, dst), and each
        distinct (src, dst, sorted artifact types) of the shims in full sort
        order, so the dump depends on neither the shim order nor the hash
        seed."""
        return {
            "nodes": list(self.nodes),
            "edges": [
                {"src": s, "dst": d, "kind": k}
                for k, s, d in sorted((k, s, d) for s, d, k in self.iter_edges())
            ],
            "adapters": [
                {"src": s, "dst": d, "artifact_types": list(types)}
                for s, d, types in sorted({
                    (a.src, a.dst, tuple(sorted(a.contract.artifact_types)))
                    for a in self.adapters
                })
            ],
        }


def _kept(groups: dict, touched: set, alive) -> dict:
    """groups with the members of each touched group filtered to `alive`,
    and groups left empty dropped."""
    kept = dict(groups)
    for key in touched:
        left = tuple(filter(alive.__contains__, groups[key]))
        if left:
            kept[key] = left
        else:
            del kept[key]
    return kept


def _token_postings(p_sigs) -> dict[str, list[frozenset]]:
    """token -> the precondition signatures holding it, in p_sigs order."""
    postings: dict[str, list[frozenset]] = {}
    for p_sig in p_sigs:
        for token in p_sig:
            postings.setdefault(token, []).append(p_sig)
    return postings


def _side_groups(iface_groups: dict, side: int) -> dict:
    """The groups of one side of the interface keys (0: preconditions,
    1: artifact types), members ascending, keys in order of first member.
    A signature that one interface holds reuses that interface's tuple; one
    that several hold joins their tuples once and sorts."""
    groups: dict = {}
    parts: dict = {}
    for key, members in iface_groups.items():
        sig = key[side]
        first = groups.get(sig)
        if first is None:
            groups[sig] = members
        elif sig in parts:
            parts[sig].append(members)
        else:
            parts[sig] = [first, members]
    for sig, tuples in parts.items():
        groups[sig] = tuple(sorted(chain.from_iterable(tuples)))
    return groups


def _dep_parents(a_groups, p_groups, subset: bool) -> dict:
    """p_sig -> the artifact signatures that feed it, in a_groups order.

    A set-containment join (Helmer & Moerkotte, VLDB 1997; Mamoulis, SIGMOD
    2003) over token -> precondition-signature posting sets: under "subset"
    an artifact signature feeds exactly the intersection of its tokens'
    posting sets, taken rarest first, and under "overlap" their union.  No
    pair outside the output is tested."""
    postings: dict[str, set] = {}
    for p_sig in p_groups:
        for token in p_sig:
            holders = postings.get(token)
            if holders is None:
                postings[token] = {p_sig}
            else:
                holders.add(p_sig)
    parents: dict = dict.fromkeys(p_groups, ())
    for a_sig in a_groups:
        held = [postings[token] for token in a_sig if token in postings]
        if not held or (subset and len(held) < len(a_sig)):
            continue  # no artifacts, or a token no precondition holds
        if len(held) == 1:
            deps = held[0]
        elif subset:
            held.sort(key=len)
            deps = held[0].intersection(*held[1:])
        else:
            deps = held[0].union(*held[1:])
        for p_sig in deps:
            fed = parents[p_sig]
            if fed:
                fed.append(a_sig)
            else:
                parents[p_sig] = [a_sig]
    for p_sig, fed in parents.items():
        if fed:
            parents[p_sig] = tuple(fed)
    return parents


def build_hseg(
    skills,
    comp_threshold: float = 0.3,
    dep_mode: str = "subset",
    adapters: tuple[AdapterShim, ...] = (),
) -> Hseg:
    """Construct the graph for a collection of contracts.

    One pass groups the skills by interface; the artifact and precondition
    groups are derived from the interface groups, so a library of N skills
    over I interfaces builds I group tuples plus one per signature that
    several interfaces share.  The dep relation is a join over distinct
    signatures, not skills, that visits only the pairs it keeps (see
    _dep_parents).  The cost is O(N + I + dep signature pairs) instead of
    O(N^2) on libraries full of clones.
    """
    if dep_mode not in ("subset", "overlap"):
        raise ValueError(f"dep_mode must be subset or overlap, got {dep_mode!r}")
    skills = tuple(skills)
    nodes = {s.id: s for s in sorted(skills, key=lambda s: s.id)}
    if len(nodes) != len(skills):
        counts = Counter(s.id for s in skills)
        raise DuplicateSkillId(", ".join(sorted(i for i, n in counts.items() if n > 1)))

    g = Hseg(nodes=nodes, comp_threshold=comp_threshold, dep_mode=dep_mode)
    iface_groups: dict[tuple, list] = {}
    for sid, s in nodes.items():
        key = (s.preconditions, s.artifact_types)
        members = iface_groups.get(key)
        if members is None:
            iface_groups[key] = [sid]
        else:
            members.append(sid)
    for key, members in iface_groups.items():
        iface_groups[key] = tuple(members)
    g._iface_groups = iface_groups
    g._a_groups = _side_groups(iface_groups, 1)
    g._p_groups = _side_groups(iface_groups, 0)
    # walking _a_groups in order fixes the order of every parent list
    g._parent_sigs = _dep_parents(g._a_groups, g._p_groups, dep_mode == "subset")

    g._tally()
    g._register(adapters)
    return g
