"""Typed graph over a skill library.

Four directed edge kinds connect skills i -> j:

  dep   artifacts feed preconditions: A_i subseteq P_j, A_i nonempty
        (or, under dep_mode="overlap", A_i intersects P_j)
  comp  interface compatibility: jaccard(A_i, P_j) >= comp_threshold
  red   interchangeable interfaces: P_i == P_j and A_i == A_j (symmetric)
  alt   same goal, different body hash (symmetric)

Self edges never exist.  Because libraries are clone-heavy, the graph keeps
interface-signature groups instead of a materialized edge set and answers
pair predicates from the contracts, kept once by id.

The graph is numbered once.  A skill's position is its rank in `nodes`
(ascending id).  Interfaces, artifact signatures and precondition
signatures are numbered in order of their first member, and every group is
held in compressed sparse row (CSR) form: an `array('i')` of member
positions, ascending, and one of offsets, so group k is
members[start[k]:start[k + 1]].  Columns map each position to its interface
and each interface to its artifact and precondition signature numbers.  The
dep relation is a CSR too: the parent artifact numbers of each precondition
number, ascending.  It is built once between signatures by a
set-containment join over token -> precondition-number posting sets (a dep
pair always shares a token).  _tally sums each interface's dep/comp counts
from it once and flags the interfaces whose artifacts feed their own
preconditions.  build_hseg is the only builder of these arrays; health and
CGPD read them directly.  Id views (clusters, counts by id, edge listings)
decode them on demand; the goal groups and the id tuples per interface are
built on first use and kept outside the dataclass fields.  Above a comp
threshold of 0, edge listings visit only signature pairs that share a token,
found by the same join under "overlap".
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, permutations

from skillops.contract import (
    AdapterShim,
    ConfigInvalid,
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


def _ints() -> array:
    return array("i")


@dataclass
class Hseg:
    """Built by build_hseg; treat as immutable once constructed.  `nodes`
    maps each skill id to its contract in ascending id order, and
    `adapters` holds the shims the graph was built with, in the order given.
    The other fields are the numbered arrays of the module docstring.  The
    goal groups, the id tuples per interface and the id -> position map are
    not fields: they are built on first use, so eq, repr and
    dataclasses.fields never see them."""

    nodes: dict[str, SkillContract]
    comp_threshold: float
    dep_mode: str
    adapters: tuple[AdapterShim, ...] = ()

    # per position: its interface number
    _iface: array = field(default_factory=_ints)
    # per interface number: its artifact and precondition signature numbers
    _iface_a: array = field(default_factory=_ints)
    _iface_p: array = field(default_factory=_ints)
    # each signature once, by number
    _a_sigs: tuple[frozenset, ...] = ()
    _p_sigs: tuple[frozenset, ...] = ()
    # CSR member positions of each interface and each artifact signature
    _iface_start: array = field(default_factory=_ints)
    _iface_members: array = field(default_factory=_ints)
    _a_start: array = field(default_factory=_ints)
    _a_members: array = field(default_factory=_ints)
    # CSR dep relation: the artifact numbers that feed each precondition number
    _parent_start: array = field(default_factory=_ints)
    _parents: array = field(default_factory=_ints)
    # per interface: (incident dep edges, those that are also comp) of any
    # one member, its self pair taken out; and 1 when it feeds itself
    _dep_counts: array = field(default_factory=_ints)
    _ok_counts: array = field(default_factory=_ints)
    _self_fed: array = field(default_factory=lambda: array("b"))
    _bridged_counts: dict[str, int] = field(default_factory=dict)
    _bridges: dict[tuple[str, str], AdapterShim] = field(default_factory=dict)

    @cached_property
    def _goal_groups(self) -> dict[str, tuple[str, ...]]:
        groups: dict[str, list] = {}
        for sid, s in self.nodes.items():
            groups.setdefault(s.goal, []).append(sid)
        return {goal: tuple(members) for goal, members in groups.items()}

    @cached_property
    def _pos(self) -> dict[str, int]:
        return {sid: i for i, sid in enumerate(self.nodes)}

    @cached_property
    def _iface_ids(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._id_rows(self._iface_start, self._iface_members))

    def _id_rows(self, start, members) -> list[tuple[str, ...]]:
        """The CSR rows of (start, members) as id tuples."""
        ids = list(map(list(self.nodes).__getitem__, members))
        return [tuple(ids[lo:hi]) for lo, hi in zip(start, start[1:])]

    def _p_ids(self) -> list[list[str]]:
        """The members of each precondition signature, ascending, by number."""
        rows: list[list[str]] = [[] for _ in self._p_sigs]
        iface_p = self._iface_p
        for sid, k in zip(self.nodes, self._iface):
            rows[iface_p[k]].append(sid)
        return rows

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
        sorted ascending, clusters ordered by their smallest member."""
        return self._iface_ids

    def red_cluster_of(self, skill_id: str) -> tuple[str, ...]:
        return self._iface_ids[self._iface[self._pos[skill_id]]]

    # ---- aggregate dep/comp counts for health ----------------------------

    def incident_dep_counts(self, skill_id: str) -> tuple[int, int]:
        """(incident dep edges, incident dep edges that are compatible or
        adapter-bridged) counting both directions, self pairs excluded."""
        k = self._iface[self._pos[skill_id]]
        return self._dep_counts[k], self._ok_counts[k] + self._bridged_counts.get(skill_id, 0)

    # ---- listings (on-demand; can be quadratic on clone-heavy graphs) ----

    def iter_edges(self, kinds=EDGE_KINDS):
        """Every edge of the given kinds as (src, dst, kind), each once."""
        if "dep" in kinds or "comp" in kinds:
            a_sigs, p_sigs = self._a_sigs, self._p_sigs
            # a dep pair shares a token, and so does a comp pair above
            # threshold 0; at 0 every pair is comp, so every pair is walked
            sharing = (_dep_parents(a_sigs, p_sigs, subset=False) if self.comp_threshold > 0
                       else [range(len(a_sigs))] * len(p_sigs))
            a_ids = self._id_rows(self._a_start, self._a_members)
            for p_sig, dsts, parents in zip(p_sigs, self._p_ids(), sharing):
                for a in parents:
                    dep = self._dep_sig(a_sigs[a], p_sig)
                    comp = self._comp_sig(a_sigs[a], p_sig)
                    if not dep and not comp:
                        continue
                    for s in a_ids[a]:
                        for d in dsts:
                            if s == d:
                                continue
                            if dep and "dep" in kinds:
                                yield (s, d, "dep")
                            if comp and "comp" in kinds:
                                yield (s, d, "comp")
        if "red" in kinds:
            for cluster in self._iface_ids:
                for s, d in permutations(cluster, 2):
                    yield (s, d, "red")
        if "alt" in kinds:
            for s in self.nodes:
                for d in self.alt_neighbors(s):
                    yield (s, d, "alt")

    def dep_not_comp_pairs(self):
        """Ordered (src, dst) pairs holding a dep edge without comp."""
        a_sigs, start, parents = self._a_sigs, self._parent_start, self._parents
        found = [
            (a, q)
            for q, p_sig in enumerate(self._p_sigs)
            for a in parents[start[q]:start[q + 1]]
            if not self._dep_comp(a_sigs[a], p_sig)
        ]
        if not found:
            return []
        a_ids, p_ids = self._id_rows(self._a_start, self._a_members), self._p_ids()
        pairs = []
        for a, q in found:
            pairs.extend((s, d) for s in a_ids[a] for d in p_ids[q] if s != d)
        return sorted(pairs)

    # ---- construction ----------------------------------------------------

    def _tally(self) -> None:
        """Sum each interface's incident dep and comp counts from the dep
        relation and the group sizes, and flag the interfaces that feed
        themselves.  A dep pair of signatures adds the destination group's
        size to the artifact signature's out-counts and the source group's
        size to the precondition signature's in-counts; an interface's
        counts are its two signatures' sums less its self pair, counted
        once on each side."""
        a_sigs, p_sigs = self._a_sigs, self._p_sigs
        iface_a, iface_p = self._iface_a, self._iface_p
        a_start = self._a_start
        a_size = [hi - lo for lo, hi in zip(a_start, a_start[1:])]
        p_size = [0] * len(p_sigs)
        i_start = self._iface_start
        for q, lo, hi in zip(iface_p, i_start, i_start[1:]):
            p_size[q] += hi - lo
        out_dep = [0] * len(a_sigs)
        out_ok = [0] * len(a_sigs)
        in_dep = [0] * len(p_sigs)
        in_ok = [0] * len(p_sigs)
        start, parents = self._parent_start, self._parents
        for q, p_sig in enumerate(p_sigs):
            n_dst = p_size[q]
            dep = ok = 0
            for a in parents[start[q]:start[q + 1]]:
                n_src = a_size[a]
                out_dep[a] += n_dst
                dep += n_src
                if self._dep_comp(a_sigs[a], p_sig):
                    out_ok[a] += n_dst
                    ok += n_src
            in_dep[q] = dep
            in_ok[q] = ok
        dep_counts, ok_counts, self_fed = array("i"), array("i"), array("b")
        for a, q in zip(iface_a, iface_p):
            dep, ok = out_dep[a] + in_dep[q], out_ok[a] + in_ok[q]
            fed = self._dep_sig(a_sigs[a], p_sigs[q])
            if fed:
                dep -= 2
                if self._dep_comp(a_sigs[a], p_sigs[q]):
                    ok -= 2
            dep_counts.append(dep)
            ok_counts.append(ok)
            self_fed.append(fed)
        self._dep_counts, self._ok_counts, self._self_fed = dep_counts, ok_counts, self_fed

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


def _csr(rows) -> tuple[array, array]:
    """(offsets, members) of a list of int lists: row k is
    members[offsets[k]:offsets[k + 1]]."""
    offsets = array("i", [0])
    offsets.extend(accumulate(map(len, rows)))
    return offsets, array("i", chain.from_iterable(rows))


def _check_graph_settings(comp_threshold: float, dep_mode: str) -> None:
    if not 0.0 <= comp_threshold <= 1.0:  # NaN fails this too
        raise ConfigInvalid(f"comp_threshold must be in [0, 1], got {comp_threshold}")
    if dep_mode not in ("subset", "overlap"):
        raise ConfigInvalid(f"dep_mode must be subset or overlap, got {dep_mode!r}")


def _dep_parents(a_sigs, p_sigs, subset: bool) -> list[list[int]]:
    """Per precondition number, the artifact numbers that feed it,
    ascending.

    A set-containment join (Helmer & Moerkotte, VLDB 1997; Mamoulis, SIGMOD
    2003) over token -> precondition-number posting sets: under "subset"
    an artifact signature feeds exactly the intersection of its tokens'
    posting sets, taken rarest first, and under "overlap" their union.  No
    pair outside the output is tested."""
    postings: dict[str, set] = {}
    for q, p_sig in enumerate(p_sigs):
        for token in p_sig:
            holders = postings.get(token)
            if holders is None:
                postings[token] = {q}
            else:
                holders.add(q)
    parents: list[list[int]] = [[] for _ in p_sigs]
    for a, a_sig in enumerate(a_sigs):
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
        for q in deps:
            parents[q].append(a)
    return parents


def build_hseg(
    skills,
    comp_threshold: float = 0.3,
    dep_mode: str = "subset",
    adapters: tuple[AdapterShim, ...] = (),
) -> Hseg:
    """Construct the graph for a collection of contracts.

    One pass numbers the skills' interfaces in id order, with a dict keyed
    by interface that lives only during the build; the signatures are
    numbered from the interfaces, and the member lists are laid out from the
    numbers.  The dep relation is a join over distinct signatures, not
    skills, that visits only the pairs it keeps (see _dep_parents).  The
    cost is O(N + I + dep signature pairs) for N skills over I interfaces
    instead of O(N^2) on libraries full of clones.
    """
    _check_graph_settings(comp_threshold, dep_mode)
    skills = tuple(skills)
    nodes = {s.id: s for s in sorted(skills, key=lambda s: s.id)}
    if len(nodes) != len(skills):
        counts = Counter(s.id for s in skills)
        raise DuplicateSkillId(", ".join(sorted(i for i, n in counts.items() if n > 1)))

    iface_of: dict[tuple, int] = {}
    col = []
    for s in nodes.values():
        key = (s.preconditions, s.artifact_types)
        k = iface_of.get(key)
        if k is None:
            k = iface_of[key] = len(iface_of)
        col.append(k)
    # equal signatures share a number, given in order of first interface,
    # which is the order of first member
    a_of: dict[frozenset, int] = {}
    p_of: dict[frozenset, int] = {}
    iface_a = array("i", [a_of.setdefault(a, len(a_of)) for _, a in iface_of])
    iface_p = array("i", [p_of.setdefault(p, len(p_of)) for p, _ in iface_of])
    iface_rows: list[list[int]] = [[] for _ in iface_of]
    a_rows: list[list[int]] = [[] for _ in a_of]
    for i, k in enumerate(col):
        iface_rows[k].append(i)
        a_rows[iface_a[k]].append(i)
    a_sigs, p_sigs = tuple(a_of), tuple(p_of)
    iface_start, iface_members = _csr(iface_rows)
    a_start, a_members = _csr(a_rows)
    parent_start, parents = _csr(_dep_parents(a_sigs, p_sigs, dep_mode == "subset"))

    g = Hseg(
        nodes=nodes, comp_threshold=comp_threshold, dep_mode=dep_mode,
        _iface=array("i", col), _iface_a=iface_a, _iface_p=iface_p,
        _a_sigs=a_sigs, _p_sigs=p_sigs,
        _iface_start=iface_start, _iface_members=iface_members,
        _a_start=a_start, _a_members=a_members,
        _parent_start=parent_start, _parents=parents,
    )
    g._tally()
    g._register(adapters)
    return g
