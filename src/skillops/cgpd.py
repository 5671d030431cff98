"""Worst-upstream risk propagation over dep edges.

Each skill's risk blends its own local risk with the worst risk among the
skills feeding it:

    R'(s) = (1 - alpha) * r_loc(s) + alpha * max_{p in parents(s)} R(p)

Skills without parents use their own local risk as the incoming term, which
pins roots at r_loc exactly.  Updates are synchronous.  The map is an
alpha-contraction in the sup norm (max is 1-Lipschitz), so the fixed point
is unique and iteration converges geometrically from any start.

The stop threshold is eps scaled by min(1, (1-alpha)/alpha): successive
change below that bound puts the iterate within eps of the fixed point, so
two runs from different starts land within 2*eps of each other.

parents(s) never holds s itself.  Skills sharing an artifact signature
share their contribution to every child, and skills sharing a precondition
signature share their parents, so a sweep evaluates one max per artifact
group and one per precondition signature: O(N + dep signature pairs),
where a walk of each skill's parent list costs O(sum of their lengths).
The shared max differs from a skill's own only when its artifact group
feeds its own preconditions and its risk is that max; those skills alone
are recomputed with themselves left out.

Risks live in a list indexed by position, the rank in id order that the
graph numbers skills by.  The gathers are built once per call straight
from the graph's arrays: the feeding artifact groups' member positions,
each fed precondition signature's parents as group indices, one slot per
position from its precondition number, and the self-fed positions from
the per-interface flag.  Every max walks the same members in the same
order as a per-skill walk (ascending id, parents in artifact-number
order), so ties resolve the same way.  A sweep blends once per signature
(the rootless skills' values are blended once, before the first sweep),
gathers the blended values into positions and adds each skill's base
term.

The stop test needs the largest change of the sweep only when it could be
below the threshold.  A witness skill's change is tested first: when it
is at or above the threshold the sweep cannot have converged, and no other
change is taken.  Otherwise every change is taken; if the largest is below
the threshold the run has converged, and if not, the skill that moved most
becomes the witness.  So the O(N) scan of changes runs only when the
witness has settled, and iterations_used, converged and every risk equal
those of a full scan per sweep exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import add, itemgetter, mul, sub

from skillops.contract import ConfigInvalid, Library, SkillOpsError
from skillops.hseg import Hseg

__all__ = [
    "CgpdConfig",
    "MissingRiskEntry",
    "PropagationResult",
    "propagate",
    "trigger_set",
]


class MissingRiskEntry(SkillOpsError):
    pass


@dataclass(frozen=True)
class CgpdConfig:
    alpha: float = 0.5
    eps: float = 1e-9
    max_iters: int = 64
    tau: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigInvalid(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 < self.eps < math.inf:  # NaN fails both comparisons
            raise ConfigInvalid(f"eps must be positive and finite, got {self.eps}")
        if self.max_iters < 1:
            raise ConfigInvalid(f"max_iters must be at least 1, got {self.max_iters}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigInvalid(f"tau must be in [0, 1], got {self.tau}")


@dataclass(frozen=True)
class PropagationResult:
    risk: dict[str, float]
    iterations_used: int
    converged: bool


def _check_cover(values: dict[str, float], nodes, what: str) -> None:
    for node in nodes:
        if node not in values:
            raise MissingRiskEntry(f"{what} has no entry for {node}")
        v = values[node]
        if not 0.0 <= v <= 1.0:
            raise ConfigInvalid(f"{what}[{node}] = {v!r} outside [0, 1]")


def _gather(positions):
    """itemgetter over positions that returns a tuple even for one position."""
    get = itemgetter(*positions)
    return get if len(positions) > 1 else lambda seq: (get(seq),)


def _columns(lists):
    """Plan a max over each of `lists` (lists of positions, none empty).

    Lists of one length w are read together by w gathers, the j-th taking
    the j-th position of each, and one map(max, ...) across those columns;
    a list's max then costs no Python-level call of its own.  Returns the
    order of the lists in the output and, per length, its column gathers.
    """
    by_len: dict[int, list[int]] = {}
    for k, items in enumerate(lists):
        by_len.setdefault(len(items), []).append(k)
    order, blocks = [], []
    for w in sorted(by_len):
        ks = by_len[w]
        order.extend(ks)
        blocks.append([_gather(column) for column in zip(*[lists[k] for k in ks])])
    return order, blocks


def _maxima(blocks, values) -> list:
    out = []
    for cols in blocks:
        if len(cols) == 1:
            out.extend(cols[0](values))
        else:
            out.extend(map(max, *[get(values) for get in cols]))
    return out


def propagate(
    g: Hseg,
    r_loc: dict[str, float],
    cfg: CgpdConfig = CgpdConfig(),
    initial: dict[str, float] | None = None,
) -> PropagationResult:
    """Iterate to the risk fixed point.

    r_loc must cover every node.  initial defaults to r_loc; it exists so
    convergence from different starts can be compared.

    Risks live in a list indexed by position in id order, and each sweep
    reads it through gathers built once per call from the graph's arrays
    (see the module docstring for the per-sweep cost, the self-exclusion
    rule and the witness).  Every float operation is the per-skill
    formula's, so risk, iterations_used and converged equal a per-skill
    walk's exactly.
    """
    ids = list(g.nodes)
    _check_cover(r_loc, ids, "r_loc")
    if initial is not None:
        _check_cover(initial, ids, "initial")
    if not ids:
        return PropagationResult(risk={}, iterations_used=0, converged=True)

    # the artifact groups that feed anything, and each fed precondition
    # signature's parents as indices into them, read from the graph's CSRs
    a_start, a_members = g._a_start, g._a_members
    p_start, p_parents = g._parent_start, g._parents
    feeding = sorted(set(p_parents))
    members = [a_members[a_start[a]:a_start[a + 1]] for a in feeding]
    order, group_blocks = _columns(members)
    members = [members[k] for k in order]
    group_of = [-1] * len(g._a_sigs)
    for j, k in enumerate(order):
        group_of[feeding[k]] = j
    fed = [q for q in range(len(g._p_sigs)) if p_start[q] < p_start[q + 1]]
    parents = [[group_of[a] for a in p_parents[p_start[q]:p_start[q + 1]]] for q in fed]
    order, sig_blocks = _columns(parents)
    parents = [parents[k] for k in order]
    slot_of = [-1] * len(g._p_sigs)
    for j, k in enumerate(order):
        slot_of[fed[k]] = j

    # each skill's slot in [signature maxima..., local risks of skills
    # nothing feeds]
    local = [r_loc[s] for s in ids]
    iface_p = g._iface_p
    slots = []
    rootless = []
    for i, k in enumerate(g._iface):
        slot = slot_of[iface_p[k]]
        if slot < 0:
            slot = len(parents) + len(rootless)
            rootless.append(local[i])
        slots.append(slot)
    # (position, slot, own group) of each skill whose group feeds itself
    self_fed = []
    i_start, i_members = g._iface_start, g._iface_members
    for k, flag in enumerate(g._self_fed):
        if flag:
            slot, own = slot_of[iface_p[k]], group_of[g._iface_a[k]]
            self_fed.extend((i, slot, own) for i in i_members[i_start[k]:i_start[k + 1]])
    gather_incoming = _gather(slots)

    alpha = cfg.alpha
    blend = partial(mul, alpha)
    base = [(1.0 - alpha) * v for v in local]
    rootless = list(map(blend, rootless))
    threshold = cfg.eps * min(1.0, (1.0 - alpha) / alpha) if alpha > 0 else cfg.eps
    r = [(initial or r_loc)[s] for s in ids]
    witness = 0
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        group_max = _maxima(group_blocks, r)
        sig_max = _maxima(sig_blocks, group_max)
        nxt = list(map(add, base, gather_incoming(list(map(blend, sig_max)) + rootless)))
        redone: dict[tuple[int, int], float | None] = {}
        for i, slot, own in self_fed:
            if r[i] != sig_max[slot]:
                continue
            key = (slot, own)
            if key not in redone:
                redone[key] = _max_without_top(r, group_max, members[own], parents[slot], own)
            v = redone[key]
            nxt[i] = base[i] + alpha * (local[i] if v is None else v)
        # the witness's change alone can show the sweep has not converged;
        # only when it has settled is every change taken
        if abs(nxt[witness] - r[witness]) < threshold:
            diffs = list(map(abs, map(sub, nxt, r)))
            delta = max(diffs)
            if delta < threshold:
                r = nxt
                converged = True
                break
            witness = diffs.index(delta)
        r = nxt
    return PropagationResult(
        risk=dict(zip(ids, r)), iterations_used=iterations, converged=converged
    )


def _max_without_top(r, group_max, own_members, parents, own) -> float | None:
    """A signature's max over its parent groups, one member at the top of
    group own left out; None when no value remains.  Every member whose
    risk is that top gets the same value: its group less one copy of it."""
    values = []
    for k in parents:
        if k != own:
            values.append(group_max[k])
        elif len(own_members) > 1:
            rest = [r[m] for m in own_members]
            rest.remove(group_max[own])
            values.append(max(rest))
    return max(values) if values else None


def trigger_set(
    g: Hseg, risk: dict[str, float], lib: Library, tau: float = 0.5
) -> frozenset[str]:
    """Skills whose propagated risk exceeds tau while lacking any validator;
    these are the validator-insertion triggers."""
    flagged = set()
    for s in lib.skills:
        if s.id not in risk:
            raise MissingRiskEntry(s.id)
        if risk[s.id] > tau and not s.checklist:
            flagged.add(s.id)
    return frozenset(flagged)
