"""Task planning over a skill library.

Retrieval is a 50/50 hybrid by default: BM25 over each skill's goal, tags
and body, min-max normalized per query, blended with the cosine similarity
of hashed term-frequency vectors.  Both scorers are plain arithmetic over
token counts, so ranking a query twice gives identical results.  A Library
gets one BM25 index per (k1, b), built on its first ranked query and kept
on the Library object; the index stores each (term, doc) weight and term
frequency once in per-term postings, and a query sums the postings of its
tokens.  A term held by every skill (a common term) has an idf near zero
and rarely decides the shortlist, so a query that holds both kinds of term
ranks only the skills that hold one of its rare terms.  It sums their rare
weights first; the k-th largest of those sums, less a bound on what the
common terms can add, rules out every skill that cannot reach the top k,
and only the rest are scored in full.  The shortlist is kept when its last
score is strictly above a bound that no skill holding common terms alone
can reach; otherwise every skill is scored.  Each bound allows for float
rounding, so either way the shortlist and its scores are bit-identical to
a scan of every skill.  The cosine of a shortlisted skill reads its term
frequencies and hashed-vector norm from the same index, so a query
tokenizes only itself.

Plans are stitched with a bounded-width search over the candidate set where
consecutive steps must hold a dep edge and a comp edge or registered shim.
When the beam bound covers the whole candidate set no pruning can occur and
the search enumerates every simple path, so small instances are solved
exactly.  Validator steps are inserted after unvalidated non-terminal steps,
a dep-only transition gets its registered shim's step (the planner builds no
shim), and execution retries failed steps with same-goal alternatives before
re-invoking the original skill.
"""

from __future__ import annotations

import heapq
import math
import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat
from operator import mul
from typing import NamedTuple

from skillops.contract import (
    ConfigInvalid,
    EmptyLibrary,
    Library,
    SkillContract,
    SkillOpsError,
)
from skillops.hseg import Hseg

__all__ = [
    "ConfigInvalid",
    "NoFeasiblePlan",
    "ExecutionTrace",
    "Plan",
    "PlanStep",
    "PlannerConfig",
    "TaskSpec",
    "TraceEntry",
    "Bm25Index",
    "bind_arguments",
    "build_plan",
    "execute_with_repair",
    "grade_plan",
    "hybrid_score",
    "insert_validators_adapters",
    "match_skills",
    "plan_action_strings",
    "rank_candidates",
    "skill_document",
    "stitch",
    "tokenize",
]


class NoFeasiblePlan(SkillOpsError):
    pass


OUTCOMES = ("success", "failure")


@dataclass(frozen=True)
class TaskSpec:
    id: str
    goal_text: str
    state_facts: frozenset[str] = frozenset()
    gold_args: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class PlannerConfig:
    lam: float = 0.5
    bm25_k: int = 10
    keep_top: int = 5
    theta_score: float = 0.0
    beam_width: int = 8
    horizon: int = 20
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigInvalid(f"lam must be in [0, 1], got {self.lam}")
        # a negative or NaN k1, or b outside [0, 1], turns BM25 weights
        # negative or NaN and silently leaves ranking to the semantic half
        if not (math.isfinite(self.k1) and self.k1 >= 0.0):
            raise ConfigInvalid(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ConfigInvalid(f"b must be in [0, 1], got {self.b}")
        if not math.isfinite(self.theta_score):
            raise ConfigInvalid(f"theta_score must be finite, got {self.theta_score}")
        if self.bm25_k < self.keep_top:
            raise ConfigInvalid("bm25_k must be at least keep_top")
        if min(self.keep_top, self.beam_width, self.horizon) < 1:
            raise ConfigInvalid("keep_top, beam_width and horizon must be positive")


@dataclass(frozen=True)
class PlanStep:
    skill: str
    bindings: tuple[tuple[str, str], ...] = ()
    inserted: str | None = None  # None | "validator" | "adapter" (a shim's id)


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]
    total_score: float


class TraceEntry(NamedTuple):
    """One logged invocation.  A tuple, not a frozen dataclass: traces hold
    one entry per call, and a tuple is built without a per-field
    ``object.__setattr__``."""

    task_id: str
    skill: str
    step: int
    outcome: str
    error_code: str | None = None


@dataclass(frozen=True)
class ExecutionTrace:
    """A logged run, valid by construction: building one raises
    SkillOpsError at the first entry whose outcome is not in OUTCOMES or
    whose step does not exceed the step of its task's previous entry.  This
    is the one place that states the per-task step rule; load_trace's
    readers only parse, and the trace they build judges the order."""

    entries: tuple[TraceEntry, ...] = ()

    def __post_init__(self) -> None:
        last: dict[str, int] = {}
        for task_id, _, step, outcome, _ in self.entries:
            if outcome not in OUTCOMES:
                raise SkillOpsError(f"unknown outcome: {outcome!r}")
            if task_id in last and step <= last[task_id]:
                raise SkillOpsError(
                    f"step indices must strictly increase per task: {task_id}"
                )
            last[task_id] = step


EMPTY_TRACE = ExecutionTrace()


# ---------------------------------------------------------------------------
# scoring

_TOKEN_RE = re.compile(r"[^a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.split(text.lower()) if t]


def skill_document(s: SkillContract) -> str:
    return " ".join([s.goal, *sorted(s.tags), s.body])


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
HASH_BUCKETS = 1 << 16


@lru_cache(maxsize=4096)
def _fnv1a(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _hash_vector(tokens) -> Counter:
    return Counter([_fnv1a(t) % HASH_BUCKETS for t in tokens])


class Bm25Index:
    """Okapi BM25 with the usual nonnegative idf variant, over token postings,
    plus what the hashed-vector cosine needs of each doc.

    Docs are numbered in ascending id order (`ids` is the sorted ids), so
    ascending positions are the tie order of a ranking.  Each term's
    postings are three parallel arrays: doc positions (ascending), the
    (term, doc) weight idf * freq * (k1 + 1) / (freq + denom_norm),
    computed once when the index is built, and the raw term frequency.  A
    query adds up the weights of its tokens in query order, repeats
    included, so every doc's float sum is the one a per-doc loop over the
    query tokens would give.

    A term whose postings cover every doc is common: its positions are
    0..n-1, so its weight and frequency for doc pos sit at index pos.  The
    index keeps each common term's largest weight, from which top() bounds
    what a query's common terms can add to any doc's score.

    For the cosine the index keeps each doc's hashed-vector norm, taken over
    its bucket counts (two of its terms in one bucket add to one count), and
    a map from each hash bucket to the postings of the index terms in it.
    A doc's count in a bucket is the sum of those terms' frequencies in the
    doc, so its cosine with a query is an integer dot product read from the
    postings: no doc is tokenized or hashed again after the build.
    """

    def __init__(self, docs: dict[str, str], k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.ids = tuple(sorted(docs))
        # term -> (positions, frequencies, hash bucket), in first-seen order
        counts: dict[str, tuple[array, array, int]] = {}
        lengths = array("i")
        self.norms = array("d")
        for pos, doc_id in enumerate(self.ids):
            toks = tokenize(docs[doc_id])
            lengths.append(len(toks))
            bucket_counts: dict[int, int] = {}
            for term, freq in Counter(toks).items():
                entry = counts.get(term)
                if entry is None:
                    bucket = _fnv1a(term) % HASH_BUCKETS
                    entry = counts[term] = (array("i"), array("i"), bucket)
                entry[0].append(pos)
                entry[1].append(freq)
                bucket_counts[entry[2]] = bucket_counts.get(entry[2], 0) + freq
            self.norms.append(math.sqrt(sum(c * c for c in bucket_counts.values())))
        n_docs = len(lengths)
        avg_len = sum(lengths) / n_docs if n_docs else 0.0
        denom_norm = [
            k1 * (1 - b + b * length / avg_len) if avg_len else k1 for length in lengths
        ]
        self.postings: dict[str, tuple[array, array, array]] = {}
        self._buckets: dict[int, tuple[tuple[array, array, array], ...]] = {}
        # common term (its postings cover every doc) -> its largest weight
        self._common_max: dict[str, float] = {}
        for term, (positions, freqs, bucket) in counts.items():
            n = len(positions)
            idf = math.log(1.0 + (n_docs - n + 0.5) / (n + 0.5))
            weights = array("d", [
                idf * freq * (k1 + 1) / (freq + denom_norm[pos])
                for pos, freq in zip(positions, freqs)
            ])
            # a k1 that PlannerConfig accepts can still overflow a weight to inf
            # or nan, which would zero the BM25 half of every ranking
            if not all(map(math.isfinite, weights)):
                raise ConfigInvalid(f"k1={k1!r} with b={b!r} overflows the BM25 weights")
            entry = self.postings[term] = (positions, weights, freqs)
            self._buckets[bucket] = self._buckets.get(bucket, ()) + (entry,)
            if n == n_docs:
                self._common_max[term] = max(weights)

    def _accumulate(self, tokens: list[str]) -> list[float]:
        """Every doc's score by position, 0.0 where no query token occurs:
        each token's weights added in token order, repeats included."""
        acc = [0.0] * len(self.ids)
        for term in tokens:
            entry = self.postings.get(term)
            if entry is not None:
                for pos, weight in zip(entry[0], entry[1]):
                    acc[pos] += weight
        return acc

    def _score_each(self, tokens: list[str], docs: list[int]) -> list[float]:
        """The scores of the docs at positions `docs`, each the float sum
        _accumulate gives it: the same weights added in the same token
        order.  A common term's weight for doc pos is weights[pos].  A rare
        term's weights over the docs (its column) are found once per
        distinct term, by bisecting its positions, with 0.0 for a doc that
        lacks the term; each of its tokens then adds the whole column.
        Every score is a sum of weights, so it is at least +0.0, and
        x + 0.0 == x for every x >= +0.0: a doc's score takes exactly the
        additions _accumulate makes for it."""
        postings, common = self.postings, self._common_max
        scores = [0.0] * len(docs)
        columns: dict[str, list[float]] = {}  # rare term -> its column
        for term in tokens:
            entry = postings.get(term)
            if entry is None:
                continue
            positions, weights, _ = entry
            if term in common:
                for i, pos in enumerate(docs):
                    scores[i] += weights[pos]
                continue
            column = columns.get(term)
            if column is None:
                n = len(positions)
                column = columns[term] = []
                for pos in docs:
                    j = bisect_left(positions, pos)
                    column.append(weights[j] if j < n and positions[j] == pos else 0.0)
            for i, weight in enumerate(column):
                scores[i] += weight
        return scores

    def top(self, tokens: list[str], k: int) -> list[tuple[int, float]]:
        """The first k (doc position, score) pairs for a tokenized query, by
        descending score, ties by ascending id.

        A query holding both common and rare terms takes three passes over
        the docs that hold a rare term (the candidates):

        1. Each candidate's rare sum, from one walk over the postings of
           each distinct rare term, in first-occurrence order: a term that
           occurs c times in the query adds c * weight (1 * weight is the
           weight itself).
        2. theta is the k-th largest rare sum.  A candidate is kept when its
           rare sum plus `lift`, the fsum of the common tokens' largest
           weights (repeats included), reaches theta.  Both sides carry a
           relative slack of 2 * (len(tokens) + 4) units of roundoff: theta
           is divided by it and the kept side multiplied.  It covers the
           rounding of fsum, of at most len(tokens) roundings on either side
           (each moves a nonnegative value by a factor of at most
           1 + 2**-53; pass 3 rounds once per token, pass 1 once per
           distinct term of multiplicity 1 and twice, for the product and
           the addition, per term of multiplicity c >= 2 in place of c
           additions) and of the sum, product and quotient here.  So a pruned
           candidate's score is strictly below the score of each of the k
           candidates with the largest rare sums: it can neither enter the
           top k nor tie into it.
        3. The kept candidates are scored exactly (_score_each), and
           nlargest takes k of them in ascending position order, so it
           keeps the tie rule.

        Every other doc holds common terms only, so its float sum is at most
        `lift` times the slack.  If the k-th score is strictly above that
        bound, no other doc can reach or tie it, and the candidates' top k
        is the top k of all docs.  Otherwise (fewer than k candidates, a
        k-th score at or below the bound, or a query without both kinds of
        term) every doc is scored."""
        postings, common = self.postings, self._common_max
        rare = [
            (tokens.count(t), postings[t])
            for t in dict.fromkeys(tokens)
            if t in postings and t not in common
        ]
        common_maxima = [common[t] for t in tokens if t in common]
        if rare and common_maxima and k > 0:
            (count, (positions, weights, _)), *rest = rare
            sums = dict(zip(positions, map(mul, repeat(count), weights)))
            for count, (positions, weights, _) in rest:
                for pos, weight in zip(positions, weights):
                    sums[pos] = sums.get(pos, 0.0) + count * weight
            if len(sums) >= k:
                slack = 1.0 + (len(tokens) + 4) * 2.0 ** -52
                lift = math.fsum(common_maxima)
                theta = heapq.nlargest(k, sums.values())[-1] / slack
                kept = sorted(
                    pos for pos, rare_sum in sums.items()
                    if (rare_sum + lift) * slack >= theta
                )
                scores = self._score_each(tokens, kept)
                best = heapq.nlargest(k, range(len(kept)), key=scores.__getitem__)
                if scores[best[-1]] > lift * slack:
                    return [(kept[i], scores[i]) for i in best]
        return self._top_of_all(tokens, k)

    def _top_of_all(self, tokens: list[str], k: int) -> list[tuple[int, float]]:
        """top() by scoring every doc."""
        acc = self._accumulate(tokens)
        best = heapq.nlargest(k, range(len(self.ids)), key=acc.__getitem__)
        return [(pos, acc[pos]) for pos in best]

    def _cosines(self, query_vec: Counter, docs: list[int]) -> list[float]:
        """The cosine of query_vec with the hashed vector of each doc at
        positions `docs`, clipped to [0, 1]: the integer dot product of the
        bucket counts over the product of the two norms, 0.0 when that
        product is zero.  The query's buckets are looked up once, into the
        (count, frequencies) of each common index term in them and the
        (count, positions, frequencies) of each rare one; a doc's dot
        product then reads a common term's frequency at its position and
        bisects a rare term's positions."""
        query_norm = math.sqrt(sum(c * c for c in query_vec.values()))
        n_docs = len(self.ids)
        common: list[tuple[int, array]] = []
        rare: list[tuple[int, array, array]] = []
        for bucket, count in query_vec.items():
            for positions, _, freqs in self._buckets.get(bucket, ()):
                if len(positions) == n_docs:  # common term: positions 0..n-1
                    common.append((count, freqs))
                else:
                    rare.append((count, positions, freqs))
        cosines = []
        for pos in docs:
            norm = query_norm * self.norms[pos]
            if norm == 0.0:
                cosines.append(0.0)
                continue
            dot = 0
            for count, freqs in common:
                dot += count * freqs[pos]
            for count, positions, freqs in rare:
                i = bisect_left(positions, pos)
                if i < len(positions) and positions[i] == pos:
                    dot += count * freqs[i]
            cosines.append(min(1.0, max(0.0, dot / norm)))
        return cosines


def _library_index(lib: Library, cfg: PlannerConfig) -> Bm25Index:
    """The library's index for (k1, b), built on its first ranked query.

    Memoized on the Library object with object.__setattr__, as Library
    keeps its id map and contract.body_hash its digest, so dataclass eq,
    hash and repr never see it.  replace() builds a new Library, which
    builds its own map and its own index.
    """
    memo = getattr(lib, "_bm25_indexes", None)
    if memo is None:
        memo = {}
        object.__setattr__(lib, "_bm25_indexes", memo)
    key = (cfg.k1, cfg.b)
    index = memo.get(key)
    if index is None:
        docs = {s.id: skill_document(s) for s in lib.skills}
        index = memo[key] = Bm25Index(docs, k1=cfg.k1, b=cfg.b)
    return index


def hybrid_score(lam: float, bm25_norm: float, sem: float) -> float:
    return lam * bm25_norm + (1.0 - lam) * sem


def rank_candidates(
    lib: Library, query: str, cfg: PlannerConfig = PlannerConfig()
) -> tuple[tuple[str, float], ...]:
    """Hybrid ranking: BM25 shortlist of bm25_k, min-max normalized per
    query, rescored with the hashed-vector similarity.  Descending score,
    ties ascending id.

    The library's index is built on its first ranked query and reused by
    every later one (see _library_index).  The query is tokenized once; the
    shortlisted skills' term frequencies and norms come from the index, so
    no skill is tokenized or hashed per query.
    """
    if not lib.skills:
        raise EmptyLibrary("cannot rank over an empty library")
    index = _library_index(lib, cfg)
    tokens = tokenize(query)
    shortlist = index.top(tokens, cfg.bm25_k)
    lo = min(score for _, score in shortlist)
    hi = max(score for _, score in shortlist)
    span = hi - lo
    sems = index._cosines(_hash_vector(tokens), [pos for pos, _ in shortlist])
    rescored = []
    for (pos, raw), sem in zip(shortlist, sems):
        bm25_norm = (raw - lo) / span if span > 0 else 0.0
        rescored.append((index.ids[pos], hybrid_score(cfg.lam, bm25_norm, sem)))
    rescored.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(rescored)


def match_skills(
    lib: Library, task: TaskSpec, cfg: PlannerConfig = PlannerConfig()
) -> tuple[tuple[str, float], ...]:
    """Candidate set: top keep_top ranked skills whose score clears
    theta_score and whose preconditions hold in the task's state facts."""
    ranked = rank_candidates(lib, task.goal_text, cfg)
    kept = [
        (sid, score)
        for sid, score in ranked
        if score >= cfg.theta_score and lib.get(sid).preconditions <= task.state_facts
    ]
    return tuple(kept[: cfg.keep_top])


# ---------------------------------------------------------------------------
# stitching

def _better(a: tuple[float, tuple[str, ...]], b: tuple[float, tuple[str, ...]]) -> bool:
    """Path preference: higher score, then fewer steps, then lexicographically
    earlier id sequence."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if len(a[1]) != len(b[1]):
        return len(a[1]) < len(b[1])
    return a[1] < b[1]


def stitch(
    candidates, g: Hseg, cfg: PlannerConfig = PlannerConfig()
) -> Plan:
    """Find the score-sum-maximizing path through the candidate set.

    A transition needs a dep edge and either a comp edge or a shim the graph
    has registered for the pair (g.is_bridged); no skill repeats; path
    length is capped by the horizon.  Paths grow one step per depth.  With
    beam_width >= |candidates| nothing is pruned or merged, so every simple
    path is considered and the result is exact.  Otherwise each depth keeps
    the best path per (last skill, visited set), then the best beam_width of
    those.  _better is a strict total order on distinct paths, so the best
    path found does not depend on the order paths are visited.  A single
    best candidate is a valid plan when nothing can follow it.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise NoFeasiblePlan("empty candidate set")
    scores = dict(candidates)
    ids = [sid for sid, _ in candidates]
    succ: dict[str, tuple[str, ...]] = {}
    for sid in ids:
        succ[sid] = tuple(
            other
            for other in ids
            if other != sid
            and g.edge_exists("dep", sid, other)
            and (g.edge_exists("comp", sid, other) or g.is_bridged(sid, other))
        )
    max_len = min(cfg.horizon, len(ids))
    exhaustive = cfg.beam_width >= len(ids)
    best: tuple[float, tuple[str, ...]] | None = None
    frontier = [(scores[sid], (sid,)) for sid in ids]
    depth = 1
    while frontier:
        if not exhaustive:
            frontier.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
            del frontier[cfg.beam_width:]
        for entry in frontier:
            if best is None or _better(entry, best):
                best = entry
        if depth >= max_len:
            break
        grown: dict = {}
        for score, path in frontier:
            visited = frozenset(path)
            for nxt in succ[path[-1]]:
                if nxt in visited:
                    continue
                entry = (score + scores[nxt], path + (nxt,))
                # exhaustive: each path is its own key, so nothing merges
                key = entry[1] if exhaustive else (nxt, visited | {nxt})
                if key not in grown or _better(entry, grown[key]):
                    grown[key] = entry
        frontier = list(grown.values())
        depth += 1

    assert best is not None
    return Plan(
        steps=tuple(PlanStep(skill=sid) for sid in best[1]),
        total_score=best[0],
    )


# ---------------------------------------------------------------------------
# adapters and validators

def insert_validators_adapters(plan: Plan, g: Hseg, lib: Library) -> Plan:
    """Insert a validator step after every non-terminal unvalidated step and,
    inside every dep-without-comp transition, a step named by the shim the
    graph registered for the pair (g.bridge).  The planner builds no shim:
    an unbridged dep-only transition, which only a hand-built plan can hold,
    gets no step."""
    walked = [s for s in plan.steps if s.inserted is None]
    out: list[PlanStep] = []
    for step, nxt in zip(walked, walked[1:] + [None]):
        out.append(step)
        if nxt is None:
            break
        src, dst = step.skill, nxt.skill
        if src in lib and not lib.get(src).checklist:
            out.append(PlanStep(skill=src, inserted="validator"))
        if g.edge_exists("dep", src, dst) and not g.edge_exists("comp", src, dst):
            shim = g.bridge(src, dst)
            if shim is not None:
                out.append(PlanStep(skill=shim.contract.id, inserted="adapter"))
    return Plan(steps=tuple(out), total_score=plan.total_score)


def bind_arguments(step: PlanStep, args) -> PlanStep:
    """Merge argument bindings into a step, later values winning."""
    merged = dict(step.bindings)
    merged.update(dict(args))
    return replace(step, bindings=tuple(sorted(merged.items())))


def build_plan(
    lib: Library, g: Hseg, task: TaskSpec, cfg: PlannerConfig = PlannerConfig()
) -> Plan:
    """match -> stitch -> insert validators/adapters -> bind gold args."""
    candidates = match_skills(lib, task, cfg)
    plan = stitch(candidates, g, cfg)
    plan = insert_validators_adapters(plan, g, lib)
    if task.gold_args:
        steps = tuple(
            bind_arguments(s, task.gold_args) if s.inserted is None else s
            for s in plan.steps
        )
        plan = replace(plan, steps=steps)
    return plan


# ---------------------------------------------------------------------------
# execution and grading

def execute_with_repair(
    plan: Plan,
    task: TaskSpec,
    executor,
    g: Hseg,
    max_repairs: int = 2,
) -> ExecutionTrace:
    """Run plan steps through the executor callback.

    On failure a step gets max_repairs extra attempts: untried same-goal
    alternatives first (ascending id), then re-invocations of the original
    skill carrying the last error code.  An unrecovered step aborts the rest
    of the plan.  Every attempt is logged; step indices count attempts.
    """
    entries: list[TraceEntry] = []
    step_idx = 0

    def attempt(skill_id: str, bindings, n: int, feedback: str | None):
        nonlocal step_idx
        ok, error_code = executor(task, skill_id, bindings, n, feedback)
        entries.append(
            TraceEntry(
                task_id=task.id,
                skill=skill_id,
                step=step_idx,
                outcome="success" if ok else "failure",
                error_code=None if ok else (error_code or "error"),
            )
        )
        step_idx += 1
        return ok, error_code

    for step in plan.steps:
        ok, err = attempt(step.skill, step.bindings, 0, None)
        if ok:
            continue
        alts = list(g.alt_neighbors(step.skill)) if step.skill in g.nodes else []
        recovered = False
        for n in range(1, max_repairs + 1):
            target = alts.pop(0) if alts else step.skill
            ok, err = attempt(target, step.bindings, n, err)
            if ok:
                recovered = True
                break
        if not recovered:
            break
    return ExecutionTrace(entries=tuple(entries))


def grade_plan(predicted, gold) -> bool:
    """Strict-order grading: exact element-wise equality."""
    predicted, gold = list(predicted), list(gold)
    return len(predicted) == len(gold) and all(
        p == g for p, g in zip(predicted, gold)
    )


def plan_action_strings(plan: Plan) -> tuple[str, ...]:
    """The gradeable actions of a plan: its non-inserted step skills."""
    return tuple(s.skill for s in plan.steps if s.inserted is None)
