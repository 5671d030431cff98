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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
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
    reads it through gathers built once per call (see the module
    docstring for the per-sweep cost and the self-exclusion rule).  Every
    float operation is the per-skill formula's, so risk, iterations_used
    and converged equal a per-skill walk's exactly.
    """
    ids = list(g.nodes)
    _check_cover(r_loc, ids, "r_loc")
    if initial is not None:
        _check_cover(initial, ids, "initial")
    if not ids:
        return PropagationResult(risk={}, iterations_used=0, converged=True)

    pos = {s: i for i, s in enumerate(ids)}
    feeding = list(dict.fromkeys(chain.from_iterable(g._parent_sigs.values())))
    members = [[pos[m] for m in g._a_groups[a_sig]] for a_sig in feeding]
    order, group_blocks = _columns(members)
    members = [members[k] for k in order]
    group_of = {feeding[k]: j for j, k in enumerate(order)}
    fed = [p_sig for p_sig, a_sigs in g._parent_sigs.items() if a_sigs]
    parents = [list(map(group_of.__getitem__, g._parent_sigs[p_sig])) for p_sig in fed]
    order, sig_blocks = _columns(parents)
    parents = [parents[k] for k in order]

    # each skill's slot in [signature maxima..., local risks of skills
    # nothing feeds]
    local = [r_loc[s] for s in ids]
    slots = [0] * len(ids)
    rootless = []
    slot_of = {fed[k]: j for j, k in enumerate(order)}
    for p_sig, group in g._p_groups.items():
        slot = slot_of.get(p_sig)
        for s in group:
            i = pos[s]
            if slot is None:
                slots[i] = len(parents) + len(rootless)
                rootless.append(local[i])
            else:
                slots[i] = slot
    # (position, slot, own group) of each skill whose group feeds itself
    self_fed = []
    for (p_sig, a_sig), group in g._iface_groups.items():
        if g._dep_sig(a_sig, p_sig):
            self_fed.extend((pos[s], slot_of[p_sig], group_of[a_sig]) for s in group)
    gather_incoming = _gather(slots)

    alpha = cfg.alpha
    blend = partial(mul, alpha)
    base = [(1.0 - alpha) * v for v in local]
    threshold = cfg.eps * min(1.0, (1.0 - alpha) / alpha) if alpha > 0 else cfg.eps
    r = [(initial or r_loc)[s] for s in ids]
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        group_max = _maxima(group_blocks, r)
        incoming = list(gather_incoming(_maxima(sig_blocks, group_max) + rootless))
        redone: dict[tuple[int, int], float | None] = {}
        for i, slot, own in self_fed:
            if r[i] != incoming[i]:
                continue
            key = (slot, own)
            if key not in redone:
                redone[key] = _max_without_top(r, group_max, members[own], parents[slot], own)
            v = redone[key]
            incoming[i] = local[i] if v is None else v
        nxt = list(map(add, base, map(blend, incoming)))
        delta = max(map(abs, map(sub, nxt, r)))
        r = nxt
        if delta < threshold:
            converged = True
            break
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
