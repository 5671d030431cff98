import dataclasses
import heapq
import itertools
import math
import random
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from skillops import planner

from skillops.contract import (
    AdapterShim,
    ConfigInvalid,
    EmptyLibrary,
    Library,
    make_contract,
)
from skillops.debtgen import build_library
from skillops.harness import _library_queries
from skillops.hseg import build_hseg
from skillops.maint import MaintenanceConfig, run_maintenance
from skillops.planner import (
    Bm25Index,
    ExecutionTrace,
    NoFeasiblePlan,
    Plan,
    PlannerConfig,
    PlanStep,
    TaskSpec,
    TraceEntry,
    bind_arguments,
    build_plan,
    execute_with_repair,
    grade_plan,
    hybrid_score,
    insert_validators_adapters,
    match_skills,
    plan_action_strings,
    rank_candidates,
    skill_document,
    stitch,
    tokenize,
)


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


class StubGraph:
    """Adjacency-list stand-in for the ecosystem graph: stitching and
    execution only consult edge_exists / is_bridged / alt_neighbors / nodes."""

    def __init__(self, dep=(), comp=(), alts=None, nodes=(), bridged=()):
        self.dep = set(dep)
        self.comp = set(comp)
        self.bridged = set(bridged)
        self._alts = dict(alts or {})
        self.nodes = frozenset(nodes)

    def edge_exists(self, kind, src, dst):
        if src == dst:
            return False
        if kind == "dep":
            return (src, dst) in self.dep
        if kind == "comp":
            return (src, dst) in self.comp
        return False

    def is_bridged(self, src, dst):
        return (src, dst) in self.bridged

    def alt_neighbors(self, skill_id):
        return tuple(self._alts.get(skill_id, ()))


# ---------------------------------------------------------------------------
# scoring

def reference_cosine(q, d):
    """Cosine of two hashed term-frequency vectors, clipped to [0, 1]."""
    if not q or not d:
        return 0.0
    dot = sum(count * d.get(bucket, 0) for bucket, count in q.items())
    norm = math.sqrt(sum(c * c for c in q.values())) * math.sqrt(
        sum(c * c for c in d.values())
    )
    if norm == 0.0:
        return 0.0
    return min(1.0, max(0.0, dot / norm))


def reference_semantic_similarity(query, doc):
    """The semantic half of a hybrid score, computed from the two texts:
    the cosine of their hashed term-frequency vectors."""
    return reference_cosine(
        planner._hash_vector(tokenize(query)), planner._hash_vector(tokenize(doc))
    )


def reference_scores(index, query):
    """Every doc's BM25 score from the index's postings, by id in id order."""
    return dict(zip(index.ids, index._accumulate(tokenize(query))))


def test_tokenize_lowercases_and_splits_on_non_alphanumerics():
    assert tokenize("Deploy_v2 the API!") == ["deploy", "v2", "the", "api"]
    assert tokenize("  ") == []


def test_skill_document_folds_goal_tags_body():
    s = skill("s", goal="ship-it", body="run the job", tags=("zz", "aa"))
    assert skill_document(s) == "ship-it aa zz run the job"


def test_semantic_similarity_extremes():
    assert reference_semantic_similarity("alpha beta", "alpha beta") == pytest.approx(
        1.0, abs=1e-12
    )
    assert reference_semantic_similarity("alpha", "zeta") == 0.0
    assert reference_semantic_similarity("", "anything") == 0.0


def test_semantic_similarity_is_deterministic_and_bounded():
    a = reference_semantic_similarity("parse server logs", "parse the server logs carefully")
    b = reference_semantic_similarity("parse server logs", "parse the server logs carefully")
    assert a == b
    assert 0.0 < a <= 1.0


def test_hybrid_score_blend():
    assert hybrid_score(0.5, 0.6, 0.2) == pytest.approx(0.4, abs=1e-15)
    assert hybrid_score(1.0, 0.7, 0.1) == 0.7
    assert hybrid_score(0.0, 0.7, 0.1) == 0.1


def test_bm25_prefers_rarer_terms():
    docs = {
        "common1": "widget widget gadget",
        "common2": "widget gadget gizmo",
        "rare": "widget sprocket gadget",
    }
    index = Bm25Index(docs)
    scores = reference_scores(index, "sprocket")
    assert scores["rare"] > 0.0
    assert scores["common1"] == 0.0


def test_rank_unique_token_first():
    sks = [
        skill(f"s{i}", body="common words shared by every body here")
        for i in range(5)
    ]
    sks.append(skill("zeb", body="common words plus the zebra token"))
    ranked = rank_candidates(Library(skills=tuple(sks)), "zebra")
    assert ranked[0][0] == "zeb"
    assert ranked[0][1] >= 0.5  # bm25_norm hits 1.0 for the only match
    for sid, score in ranked[1:]:
        assert score < ranked[0][1]


def test_rank_all_equal_bm25_falls_back_to_semantic():
    # identical docs: the min-max span is zero, so the bm25 term contributes 0
    sks = [
        skill("a", goal="same-goal", body="identical body text"),
        skill("b", goal="same-goal", body="identical body text"),
    ]
    ranked = rank_candidates(Library(skills=tuple(sks)), "identical body")
    assert [sid for sid, _ in ranked] == ["a", "b"]  # tie -> ascending id
    assert ranked[0][1] == ranked[1][1]
    sem = reference_semantic_similarity("identical body", skill_document(sks[0]))
    assert ranked[0][1] == pytest.approx(0.5 * sem, abs=1e-12)


def test_rank_empty_library_rejected():
    with pytest.raises(EmptyLibrary):
        rank_candidates(Library(skills=()), "anything")


def test_match_filters_preconditions_and_caps_at_keep_top():
    sks = [
        skill(f"m{i:02d}", body="migrate the database schema safely")
        for i in range(12)
    ]
    lib = Library(skills=tuple(sks))
    task = TaskSpec(id="t", goal_text="migrate database schema")
    got = match_skills(lib, task)
    assert len(got) == 5

    # an unmet precondition knocks a skill out regardless of score
    gated = [
        skill("gated", pre=("credentials",), body="migrate the database schema safely"),
        skill("open1", body="migrate the database schema safely"),
        skill("open2", body="migrate database schema with checks"),
    ]
    lib2 = Library(skills=tuple(gated))
    got2 = match_skills(lib2, TaskSpec(id="t2", goal_text="migrate database schema"))
    assert "gated" not in {sid for sid, _ in got2}
    got3 = match_skills(
        lib2,
        TaskSpec(
            id="t3",
            goal_text="migrate database schema",
            state_facts=frozenset({"credentials"}),
        ),
    )
    assert "gated" in {sid for sid, _ in got3}


def test_match_score_threshold():
    sks = [
        skill("hit", body="rotate the api keys"),
        skill("miss", body="an unrelated topic entirely"),
    ]
    lib = Library(skills=tuple(sks))
    cfg = PlannerConfig(theta_score=0.4)
    got = match_skills(lib, TaskSpec(id="t", goal_text="rotate api keys"), cfg)
    assert [sid for sid, _ in got] == ["hit"]


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        PlannerConfig(lam=1.5).validate()
    with pytest.raises(ConfigInvalid):
        PlannerConfig(bm25_k=3, keep_top=5).validate()
    with pytest.raises(ConfigInvalid):
        PlannerConfig(beam_width=0).validate()
    PlannerConfig().validate()
    # BM25 weights at their bounds
    for cfg in (PlannerConfig(k1=0.0), PlannerConfig(b=0.0), PlannerConfig(b=1.0),
                PlannerConfig(theta_score=-1.0)):
        cfg.validate()


@pytest.mark.parametrize("field, value", [
    ("k1", math.nan), ("k1", -1.0), ("k1", math.inf),
    ("b", math.nan), ("b", -0.1), ("b", 5.0), ("b", math.inf),
    ("theta_score", math.nan), ("theta_score", math.inf), ("theta_score", -math.inf),
])
def test_config_rejects_weights_that_break_bm25(field, value):
    cfg = PlannerConfig(**{field: value})
    with pytest.raises(ConfigInvalid, match=field):
        cfg.validate()
    lib = Library(skills=(skill("a", body="alpha"),))
    with pytest.raises(ConfigInvalid, match=field):
        rank_candidates(lib, "alpha", cfg)


@pytest.mark.parametrize("docs", [
    {"x": "a a a a", "y": "b"},  # a's weight overflows to inf
    {"x": "a a a a", "y": ""},  # and here to inf / inf = nan
])
def test_index_refuses_a_k1_that_overflows_its_weights(docs):
    with pytest.raises(ConfigInvalid, match=r"k1=.* b="):
        Bm25Index(docs, k1=1e308, b=1.0)


def test_overflowing_k1_fails_every_query_and_is_not_memoized():
    # validate() accepts this finite k1, but 458 of the library's weights
    # overflow; ranking on would leave only the semantic half
    lib, provenance = build_library(100, 0.6, 1)
    query = _library_queries(lib, provenance, 1, 1)[0][0]
    cfg = PlannerConfig(k1=1e308)
    cfg.validate()
    for _ in range(2):
        with pytest.raises(ConfigInvalid, match=r"k1=.* b="):
            rank_candidates(lib, query, cfg)
    assert (cfg.k1, cfg.b) not in getattr(lib, "_bm25_indexes", {})


# ---------------------------------------------------------------------------
# BM25 postings index against the dense per-doc formula

def reference_bm25_scores(docs, query, k1=1.2, b=0.75):
    """Every doc's score from a per-doc loop over the query tokens: the
    dense formula the postings index must reproduce bit for bit."""
    doc_tokens = {doc_id: tokenize(text) for doc_id, text in docs.items()}
    doc_len = {doc_id: len(toks) for doc_id, toks in doc_tokens.items()}
    n_docs = len(docs)
    avg_len = sum(doc_len.values()) / n_docs if n_docs else 0.0
    tf = {doc_id: Counter(toks) for doc_id, toks in doc_tokens.items()}
    df = Counter()
    for toks in doc_tokens.values():
        df.update(set(toks))
    idf = {term: math.log(1.0 + (n_docs - n + 0.5) / (n + 0.5)) for term, n in df.items()}
    out = {}
    for doc_id in doc_tokens:
        length = doc_len[doc_id]
        denom_norm = k1 * (1 - b + b * length / avg_len) if avg_len else k1
        total = 0.0
        for term in tokenize(query):
            if term not in idf or tf[doc_id][term] == 0:
                continue
            freq = tf[doc_id][term]
            total += idf[term] * freq * (k1 + 1) / (freq + denom_norm)
        out[doc_id] = total
    return out


def reference_rank(skills, query, cfg):
    """Shortlist the bm25_k best of every doc's dense score, then rescore."""
    docs = {s.id: skill_document(s) for s in skills}
    raw = reference_bm25_scores(docs, query, cfg.k1, cfg.b)
    shortlist = sorted(raw, key=lambda sid: (-raw[sid], sid))[: cfg.bm25_k]
    lo = min(raw[sid] for sid in shortlist)
    hi = max(raw[sid] for sid in shortlist)
    span = hi - lo
    rescored = []
    for sid in shortlist:
        bm25_norm = (raw[sid] - lo) / span if span > 0 else 0.0
        sem = reference_semantic_similarity(query, docs[sid])
        rescored.append((sid, hybrid_score(cfg.lam, bm25_norm, sem)))
    rescored.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(rescored)


# "dhy" and "fza" share FNV-1a bucket 30792, so a document holding both
# has one hashed-vector component for the two of them
COLLIDING = ("dhy", "fza")
WORDS = ("alpha", "beta", "gamma", "delta", "omega") + COLLIDING
texts = st.lists(st.sampled_from(WORDS + ("--", "!")), max_size=8).map(" ".join)
queries = st.lists(st.sampled_from(WORDS + ("absent", "nowhere")), max_size=10).map(" ".join)
params = st.sampled_from([(1.2, 0.75), (0.5, 0.0), (2.0, 1.0)])


def ranked_skills(bodies):
    # goal "--" and body "!" tokenize to nothing, so a document can be empty
    return [
        skill(f"s{i:02d}", goal="--", body=body or "!")
        for i, body in enumerate(bodies)
    ]


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.from_regex(r"[a-z]{1,3}", fullmatch=True), texts, max_size=14),
       queries, params)
@example({"a": "alpha beta", "b": "beta beta gamma"}, "beta beta alpha beta", (1.2, 0.75))
@example({"a": "alpha", "b": "beta"}, "absent nowhere alpha", (1.2, 0.75))
@example({"a": "", "b": "--", "c": "!"}, "alpha alpha", (1.2, 0.75))
@example({}, "alpha", (1.2, 0.75))
def test_bm25_scores_equal_dense_formula(docs, query, k1b):
    index = Bm25Index(docs, k1=k1b[0], b=k1b[1])
    got = reference_scores(index, query)
    want = reference_bm25_scores(docs, query, *k1b)
    assert got == want
    assert list(got) == sorted(want)


@settings(max_examples=150, deadline=None)
@given(st.lists(texts, min_size=1, max_size=14), queries, params, st.integers(1, 16))
@example(["alpha beta", "beta", "gamma"], "beta beta beta", (1.2, 0.75), 2)
@example(["alpha", "beta", "gamma"], "nowhere absent beta nowhere", (1.2, 0.75), 10)
@example([f"gamma w{i}" for i in range(12)] + ["alpha"], "alpha", (1.2, 0.75), 10)
@example(["alpha", "beta", "alpha gamma"], "alpha", (1.2, 0.75), 10)
@example(["", "--", "!"], "alpha beta", (1.2, 0.75), 10)
@example(["dhy fza alpha", "alpha dhy", "fza fza beta"], "dhy alpha", (1.2, 0.75), 10)
@example(["dhy dhy fza", "alpha", "fza gamma"], "alpha fza", (1.2, 0.75), 2)
@example(["alpha fza fza dhy", "alpha beta"], "fza alpha fza", (2.0, 1.0), 10)
def test_rank_candidates_equals_dense_reference(bodies, query, k1b, bm25_k):
    sks = ranked_skills(bodies)
    cfg = PlannerConfig(k1=k1b[0], b=k1b[1], bm25_k=bm25_k, keep_top=1)
    for lib in (Library(skills=tuple(sks)), Library(skills=tuple(reversed(sks)))):
        assert rank_candidates(lib, query, cfg) == reference_rank(lib.skills, query, cfg)


def test_colliding_tokens_share_one_bucket():
    buckets = {planner._fnv1a(t) % planner.HASH_BUCKETS for t in COLLIDING}
    assert buckets == {30792}
    # the norm is over bucket counts: sqrt(3 ** 2), not sqrt(1 ** 2 + 2 ** 2)
    index = Bm25Index({"x": "dhy fza fza", "y": "alpha"})
    assert list(index.norms) == [3.0, 1.0]
    assert reference_semantic_similarity("dhy", "dhy fza fza") == 1.0


def test_rank_zero_fill_takes_unscored_docs_by_ascending_id():
    # one doc scores; the other bm25_k - 1 places go to zero-score docs in
    # ascending id order, whatever their order in the library
    sks = [skill(f"z{i:02d}", body="filler text") for i in range(12, 0, -1)]
    sks.append(skill("hit", body="the zebra token"))
    cfg = PlannerConfig(bm25_k=5, lam=1.0)
    ranked = rank_candidates(Library(skills=tuple(sks)), "zebra", cfg)
    assert ranked == reference_rank(sks, "zebra", cfg)
    assert [sid for sid, _ in ranked] == ["hit", "z01", "z02", "z03", "z04"]


# ---------------------------------------------------------------------------
# exact top k over the docs that can reach it

# "the" and "and" occur in every document below, so they are common terms;
# every other word is rare.  Each case is (docs, query, k).
THREE = {"b": "the alpha and", "a": "the beta and", "c": "the the and"}
ONLY_COMMON = (THREE, "the and the", 2)
NO_COMMON = (THREE, "alpha beta gamma", 2)
FEWER_THAN_K = (THREE, "the alpha", 2)
# alpha is held only by a long doc, so its weight is small, and the short
# doc full of "the" outscores it without holding a rare term
LOW_THETA = (
    {"a": "the alpha and" + " delta" * 40, "b": "the the the and", "c": "the and beta"},
    "the the the the alpha",
    1,
)
TIED_AT_THETA = (
    {"d": "the beta and", "b": "the alpha and", "c": "the alpha and",
     "a": "the alpha and", "e": "the and"},
    "the alpha",
    2,
)
# b holds the smallest rare sum, and only its three "the" lift it to first
LIFTED_BY_COMMON = (
    {"a": "the alpha and", "b": "the the the and alpha", "c": "the alpha and beta",
     "d": "the and"},
    "the the the alpha",
    1,
)
# a and b tie on alpha; b's second "the" breaks the tie against the id order
RARE_TIE_AT_THETA = (
    {"a": "the alpha and and", "b": "the the alpha and", "c": "the beta and"},
    "alpha the",
    1,
)
# one alpha weighs less than b's beta, but the query counts alpha twice
REPEATED_RARE = (
    {"a": "the alpha and", "b": "the beta beta and", "c": "the and"},
    "alpha the beta alpha",
    1,
)

COMMON = ("the", "and")
RARE = ("alpha", "beta", "gamma", "delta", "omega") + COLLIDING
common_docs = st.tuples(
    st.integers(1, 3), st.integers(1, 2),
    st.lists(st.sampled_from(RARE + ("--",)), max_size=5),
).map(lambda t: " ".join(["the"] * t[0] + t[2] + ["and"] * t[1]))
# common and rare tokens in any order, so both kinds usually meet in a query
common_queries = st.tuples(
    st.lists(st.sampled_from(COMMON), min_size=1, max_size=4),
    st.lists(st.sampled_from(RARE + ("absent",)), min_size=1, max_size=6),
).flatmap(lambda t: st.permutations(t[0] + t[1])).map(" ".join)


def dense_top(docs, query, k1b, k):
    """nlargest over every doc's dense score, ties by ascending id."""
    raw = reference_bm25_scores(docs, query, *k1b)
    best = heapq.nlargest(k, sorted(raw), key=raw.__getitem__)
    return [(sid, raw[sid]) for sid in best]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.from_regex(r"[a-z]{1,3}", fullmatch=True), common_docs,
                       min_size=2, max_size=14),
       common_queries, st.integers(1, 5), params)
@example(*ONLY_COMMON, (1.2, 0.75))
@example(*NO_COMMON, (1.2, 0.75))
@example(*FEWER_THAN_K, (1.2, 0.75))
@example(*LOW_THETA, (1.2, 0.75))
@example(*TIED_AT_THETA, (1.2, 0.75))
@example(*LIFTED_BY_COMMON, (1.2, 0.75))
@example(*RARE_TIE_AT_THETA, (1.2, 0.75))
@example(*REPEATED_RARE, (1.2, 0.75))
def test_pruned_top_equals_full_scan(docs, query, k, k1b):
    index = Bm25Index(docs, k1=k1b[0], b=k1b[1])
    got = [(index.ids[pos], score) for pos, score in index.top(tokenize(query), k)]
    assert got == dense_top(docs, query, k1b, k)


# Pass 1 gives doc a the rare sum w_beta + 3 * w_alpha, where a loop over
# the tokens adds ((w_beta + w_alpha) + w_alpha) + w_alpha: the two differ
# in the last bit.  Every doc holds a rare query term, and b is pruned.
THRICE = (
    {"a": "the alpha beta beta and", "b": "the beta and", "c": "the and alpha"},
    "the beta alpha alpha alpha",
    2,
)
# one to six copies of each of one to three rare tokens among common ones
repeated_rare_queries = st.tuples(
    st.lists(st.sampled_from(COMMON), min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from(RARE + ("absent",)), st.integers(1, 6)),
             min_size=1, max_size=3),
).flatmap(
    lambda t: st.permutations(t[0] + [token for token, n in t[1] for _ in range(n)])
).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.from_regex(r"[a-z]{1,3}", fullmatch=True), common_docs,
                       min_size=2, max_size=14),
       repeated_rare_queries, st.integers(1, 5), params)
@example(*THRICE, (1.2, 0.75))
def test_top_with_repeated_rare_terms_equals_full_scan(docs, query, k, k1b):
    index = Bm25Index(docs, k1=k1b[0], b=k1b[1])
    got = [(index.ids[pos], score) for pos, score in index.top(tokenize(query), k)]
    assert got == dense_top(docs, query, k1b, k)


def test_pass_one_walks_each_distinct_rare_term_once(monkeypatch, exact_passes):
    docs, query, k = THRICE
    index = Bm25Index(docs)
    walks = Counter()

    class Walked(array):
        """A weights array that counts every walk over it."""

        def __iter__(self):
            walks[self.term] += 1
            return super().__iter__()

    for term, (positions, weights, freqs) in index.postings.items():
        walked = Walked("d", weights)
        walked.term = term
        index.postings[term] = (positions, walked, freqs)
    alpha, beta = (dict(zip(*index.postings[t][:2])) for t in ("alpha", "beta"))
    assert beta[0] + 3 * alpha[0] != ((beta[0] + alpha[0]) + alpha[0]) + alpha[0]
    walks.clear()

    def refuse(self, *args):
        raise AssertionError("the query scored every doc")

    monkeypatch.setattr(Bm25Index, "_top_of_all", refuse)
    got = [(index.ids[pos], score) for pos, score in index.top(tokenize(query), k)]
    assert got == dense_top(docs, query, (1.2, 0.75), k)
    assert walks == {"beta": 1, "alpha": 1}
    assert [[index.ids[pos] for pos in kept] for kept in exact_passes] == [["a", "c"]]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.from_regex(r"[a-z]{1,3}", fullmatch=True), common_docs,
                       min_size=2, max_size=14),
       common_queries, st.integers(1, 5), st.randoms(use_true_random=False))
def test_top_does_not_depend_on_doc_order(docs, query, k, rng):
    items = list(docs.items())
    rng.shuffle(items)
    shuffled, in_order = Bm25Index(dict(items)), Bm25Index(dict(sorted(items)))
    assert shuffled.ids == in_order.ids == tuple(sorted(docs))
    tokens = tokenize(query)
    assert shuffled.top(tokens, k) == in_order.top(tokens, k)


@pytest.mark.parametrize("case, scans_all", [
    (ONLY_COMMON, True),
    (NO_COMMON, True),
    (FEWER_THAN_K, True),
    (LOW_THETA, True),
    (TIED_AT_THETA, False),
])
def test_top_scans_all_docs_only_when_it_must(monkeypatch, case, scans_all):
    docs, query, k = case
    index = Bm25Index(docs)
    assert set(index._common_max) == set(COMMON)
    full = []
    real = Bm25Index._top_of_all

    def counting(self, *args):
        full.append(args)
        return real(self, *args)

    monkeypatch.setattr(Bm25Index, "_top_of_all", counting)
    got = [(index.ids[pos], score) for pos, score in index.top(tokenize(query), k)]
    assert got == dense_top(docs, query, (1.2, 0.75), k)
    assert bool(full) == scans_all
    if case is LOW_THETA:
        assert got[0][0] == "b"  # the doc without a rare term wins
    if case is TIED_AT_THETA:
        assert [sid for sid, _ in got] == ["a", "b"]


def test_library_queries_take_the_pruned_path(monkeypatch):
    lib, provenance = build_library(1000, 0.6, 42)
    cfg = PlannerConfig()
    queries = _library_queries(lib, provenance, 42, 20)
    assert len(queries) == 20
    rank_candidates(lib, queries[0][0], cfg)  # builds the index

    def refuse(self, *args):
        raise AssertionError("a library query scored every doc")

    monkeypatch.setattr(Bm25Index, "_top_of_all", refuse)
    for text, _ in queries:
        assert rank_candidates(lib, text, cfg) == reference_rank(lib.skills, text, cfg)


@pytest.fixture
def exact_passes(monkeypatch):
    """The kept positions of every pass 3 (_score_each call) that top() runs."""
    passes = []
    real = Bm25Index._score_each

    def recording(self, tokens, kept):
        passes.append(list(kept))
        return real(self, tokens, kept)

    monkeypatch.setattr(Bm25Index, "_score_each", recording)
    return passes


@pytest.mark.parametrize("case, scored, winner", [
    (LIFTED_BY_COMMON, ["a", "b", "c"], "b"),
    (RARE_TIE_AT_THETA, ["a", "b"], "b"),
    (REPEATED_RARE, ["a"], "a"),
])
def test_threshold_keeps_what_common_terms_can_lift(exact_passes, case, scored, winner):
    docs, query, k = case
    index = Bm25Index(docs)
    got = [(index.ids[pos], score) for pos, score in index.top(tokenize(query), k)]
    assert got == dense_top(docs, query, (1.2, 0.75), k)
    assert [[index.ids[pos] for pos in kept] for kept in exact_passes] == [scored]
    assert got[0][0] == winner


def test_library_queries_score_fewer_skills_than_hold_a_rare_term(exact_passes):
    lib, provenance = build_library(1000, 0.6, 42)
    cfg = PlannerConfig()
    index = planner._library_index(lib, cfg)
    for text, _ in _library_queries(lib, provenance, 42, 10):
        rare = {t for t in tokenize(text) if t in index.postings} - set(index._common_max)
        union = {pos for t in rare for pos in index.postings[t][0]}
        del exact_passes[:]
        assert rank_candidates(lib, text, cfg) == reference_rank(lib.skills, text, cfg)
        assert len(exact_passes) == 1
        assert cfg.bm25_k <= len(exact_passes[0]) < len(union)


# ---------------------------------------------------------------------------
# one index per library

@pytest.fixture
def count_builds(monkeypatch):
    built = []
    real = planner.Bm25Index

    def counting(*args, **kwargs):
        index = real(*args, **kwargs)
        built.append(index)
        return index

    monkeypatch.setattr(planner, "Bm25Index", counting)
    return built


def memo_library():
    return Library(skills=tuple(
        skill(f"m{i}", body=f"migrate the database schema step {i}") for i in range(6)
    ))


def test_library_ranks_through_one_index(count_builds):
    lib = memo_library()
    first = rank_candidates(lib, "migrate schema")
    assert len(count_builds) == 1
    assert rank_candidates(lib, "migrate schema") == first
    match_skills(lib, TaskSpec(id="t", goal_text="database step 3"))
    assert len(count_builds) == 1


def test_ranking_rebuilds_no_skill_document(monkeypatch):
    lib = memo_library()
    first = rank_candidates(lib, "migrate schema")

    def refuse(*args):
        raise AssertionError("a skill was re-read after the index was built")

    tokenized, hashed = [], []
    real_tokenize, real_hash_vector = planner.tokenize, planner._hash_vector

    def counting_tokenize(text):
        tokenized.append(text)
        return real_tokenize(text)

    def counting_hash_vector(tokens):
        hashed.append(list(tokens))
        return real_hash_vector(tokens)

    monkeypatch.setattr(planner, "skill_document", refuse)
    monkeypatch.setattr(planner, "tokenize", counting_tokenize)
    monkeypatch.setattr(planner, "_hash_vector", counting_hash_vector)
    queries = ("migrate schema", "database step 3", "", "absent words", "migrate schema")
    for n, query in enumerate(queries, start=1):
        ranked = rank_candidates(lib, query)
        assert tokenized == list(queries[:n])
        assert hashed == [real_tokenize(q) for q in queries[:n]]
    assert ranked == first


def test_each_k1_b_gets_its_own_index(count_builds):
    lib = memo_library()
    rank_candidates(lib, "migrate")
    rank_candidates(lib, "migrate", PlannerConfig(lam=0.2, bm25_k=6))  # same (k1, b)
    assert len(count_builds) == 1
    for n, other in enumerate((PlannerConfig(b=0.3), PlannerConfig(k1=2.0)), start=2):
        want = reference_rank(lib.skills, "migrate", other)
        assert rank_candidates(lib, "migrate", other) == want
        assert len(count_builds) == n
    rank_candidates(lib, "schema", PlannerConfig(b=0.3))
    rank_candidates(lib, "schema")
    assert len(count_builds) == 3


def test_new_or_replaced_library_builds_fresh(count_builds):
    lib = memo_library()
    rank_candidates(lib, "migrate")
    rank_candidates(Library(skills=lib.skills), "migrate")
    assert len(count_builds) == 2
    fewer = dataclasses.replace(lib, skills=lib.skills[:2])
    ranked = rank_candidates(fewer, "migrate")
    assert len(count_builds) == 3
    assert {sid for sid, _ in ranked} == {"m0", "m1"}
    rank_candidates(dataclasses.replace(lib), "migrate")
    assert len(count_builds) == 4


def test_index_memo_leaves_library_eq_hash_repr_alone():
    lib = memo_library()
    twin = Library(skills=lib.skills)
    before = (hash(lib), repr(lib))
    rank_candidates(lib, "migrate")
    rank_candidates(lib, "migrate", PlannerConfig(k1=0.9))
    assert (hash(lib), repr(lib)) == before
    assert lib == twin and twin == lib
    assert hash(lib) == hash(twin)


def chain_library():
    sks = (
        skill("fetch", art=("raw",), body="fetch the raw event logs", checklist=()),
        skill("clean", pre=("raw",), art=("table",), body="clean raw event logs"),
        skill("noise", body="bake sourdough bread"),
    )
    return Library(skills=sks), build_hseg(sks)


CHAIN_TASK = TaskSpec(id="t", goal_text="clean the raw event logs",
                      state_facts=frozenset({"raw"}))


def test_build_plan_builds_the_id_map_once(monkeypatch):
    lib, g = chain_library()
    built, copied = [], []
    real_init, real_by_id = Library.__post_init__, Library.by_id

    def counting_init(self):
        built.append(self)
        real_init(self)

    def counting_by_id(self):
        copied.append(self)
        return real_by_id(self)

    monkeypatch.setattr(Library, "__post_init__", counting_init)
    monkeypatch.setattr(Library, "by_id", counting_by_id)
    first = build_plan(lib, g, CHAIN_TASK)
    assert [s.skill for s in first.steps if s.inserted is None] == ["fetch", "clean"]
    for _ in range(3):
        assert build_plan(lib, g, CHAIN_TASK) == first
    # the map was built with lib, before counting began; no query builds one
    assert built == [] and copied == []
    # replace() builds a new Library, which builds its own map
    other = dataclasses.replace(lib)
    assert build_plan(other, g, CHAIN_TASK) == first
    assert len(built) == 1 and built[0] is other and copied == []
    # and plans from it: a replaced fetch that has a checklist needs no validator
    checked = dataclasses.replace(
        lib, skills=(skill("fetch", art=("raw",), body="fetch the raw event logs",
                           checklist=("verified",)),) + lib.skills[1:]
    )
    steps = [(s.skill, s.inserted) for s in build_plan(checked, g, CHAIN_TASK).steps]
    assert ("fetch", "validator") not in steps
    assert build_plan(lib, g, CHAIN_TASK) == first
    assert copied == []


def test_edited_by_id_result_does_not_reach_the_planner():
    lib, g = chain_library()
    first = build_plan(lib, g, CHAIN_TASK)
    edited = lib.by_id()
    assert edited is not lib.by_id()  # each call returns a fresh dict
    edited.pop("clean")
    edited["fetch"] = skill("fetch", checklist=("verified",))
    assert build_plan(lib, g, CHAIN_TASK) == first
    assert ("fetch", "validator") in [(s.skill, s.inserted) for s in first.steps]
    assert "clean" in lib
    assert [lib.get(s.id) for s in lib.skills] == list(lib.skills)
    assert lib.by_id() == {s.id: s for s in lib.skills}


# ---------------------------------------------------------------------------
# stitching

def chain_graph():
    return StubGraph(
        dep={("a", "b"), ("b", "c")},
        comp={("a", "b"), ("b", "c")},
        nodes={"a", "b", "c"},
    )


def test_stitch_chains_when_edges_allow():
    plan = stitch([("a", 0.8), ("b", 0.9), ("c", 0.7)], chain_graph())
    assert [s.skill for s in plan.steps] == ["a", "b", "c"]
    assert plan.total_score == pytest.approx(2.4, abs=1e-12)


def test_stitch_requires_both_edge_kinds():
    g = StubGraph(dep={("a", "b")}, comp=set(), nodes={"a", "b"})
    plan = stitch([("a", 0.8), ("b", 0.9)], g)
    assert [s.skill for s in plan.steps] == ["b"]  # no joint edge, best single
    # a registered shim stands in for the missing comp edge, not for dep
    g = StubGraph(dep={("a", "b")}, comp=set(), nodes={"a", "b"}, bridged={("a", "b")})
    plan = stitch([("a", 0.8), ("b", 0.9)], g)
    assert [s.skill for s in plan.steps] == ["a", "b"]
    g = StubGraph(dep=set(), comp={("a", "b")}, nodes={"a", "b"}, bridged={("a", "b")})
    assert [s.skill for s in stitch([("a", 0.8), ("b", 0.9)], g).steps] == ["b"]


def test_stitch_singleton_and_empty():
    plan = stitch([("solo", 0.4)], StubGraph(nodes={"solo"}))
    assert [s.skill for s in plan.steps] == ["solo"]
    assert plan.total_score == 0.4
    with pytest.raises(NoFeasiblePlan):
        stitch([], StubGraph())


def test_stitch_prefers_shorter_on_equal_score():
    g = StubGraph(dep={("b", "c")}, comp={("b", "c")}, nodes={"a", "b", "c"})
    plan = stitch([("a", 1.0), ("b", 0.5), ("c", 0.5)], g)
    assert [s.skill for s in plan.steps] == ["a"]


def test_stitch_breaks_full_ties_lexicographically():
    plan = stitch([("b", 1.0), ("a", 1.0)], StubGraph(nodes={"a", "b"}))
    assert [s.skill for s in plan.steps] == ["a"]


def test_stitch_horizon_caps_length():
    g = chain_graph()
    plan = stitch(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)], g, PlannerConfig(horizon=2)
    )
    assert len(plan.steps) == 2


def test_stitch_never_revisits():
    g = StubGraph(
        dep={("a", "b"), ("b", "a")},
        comp={("a", "b"), ("b", "a")},
        nodes={"a", "b"},
    )
    plan = stitch([("a", 1.0), ("b", 1.0)], g, PlannerConfig(horizon=10))
    assert len(plan.steps) == 2


def test_stitch_on_real_graph():
    sks = [
        skill("fetch", art=("raw",)),
        skill("clean", pre=("raw",), art=("table",)),
        skill("report", pre=("table",)),
    ]
    g = build_hseg(sks)
    plan = stitch([("fetch", 0.6), ("clean", 0.5), ("report", 0.4)], g)
    assert [s.skill for s in plan.steps] == ["fetch", "clean", "report"]


def oracle_best_path(candidates, transitions, horizon):
    scores = dict(candidates)
    ids = [sid for sid, _ in candidates]
    best = None
    for k in range(1, min(horizon, len(ids)) + 1):
        for perm in itertools.permutations(ids, k):
            if any(
                (perm[i], perm[i + 1]) not in transitions for i in range(k - 1)
            ):
                continue
            entry = (sum(scores[s] for s in perm), perm)
            if best is None:
                best = entry
            elif entry[0] > best[0]:
                best = entry
            elif entry[0] == best[0] and (
                len(entry[1]) < len(best[1])
                or (len(entry[1]) == len(best[1]) and entry[1] < best[1])
            ):
                best = entry
    return best


def test_stitch_matches_exhaustive_enumeration():
    # each edge kind and the bridged pairs drawn independently, so every
    # mix of dep, comp and shim occurs; transitions are dep and (comp or
    # bridged)
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randint(1, 7)
        ids = [f"s{i}" for i in range(n)]
        candidates = [(sid, round(rng.uniform(0.1, 1.0), 2)) for sid in ids]
        pairs = [(a, b) for a in ids for b in ids if a != b]
        dep = {p for p in pairs if rng.random() < 0.6}
        comp = {p for p in pairs if rng.random() < 0.5}
        bridged = {p for p in pairs if rng.random() < 0.3}
        transitions = {p for p in dep if p in comp or p in bridged}
        horizon = rng.randint(1, 8)
        g = StubGraph(dep=dep, comp=comp, nodes=ids, bridged=bridged)
        cfg = PlannerConfig(beam_width=n, horizon=horizon)
        plan = stitch(candidates, g, cfg)
        want_score, want_path = oracle_best_path(candidates, transitions, horizon)
        assert [s.skill for s in plan.steps] == list(want_path)
        assert plan.total_score == pytest.approx(want_score, abs=1e-12)


def reference_stitch(candidates, g, cfg=PlannerConfig()):
    """The two-algorithm stitch: a recursive walk over every simple path when
    the beam covers the candidate set, else a level-by-level beam that keeps
    the best path per (last skill, visited set).  The one-loop stitch must
    return the same plan on every input."""
    cfg.validate()
    candidates = tuple(candidates)
    if not candidates:
        raise NoFeasiblePlan("empty candidate set")
    scores = dict(candidates)
    ids = [sid for sid, _ in candidates]
    succ = {
        sid: tuple(
            other
            for other in ids
            if other != sid
            and g.edge_exists("dep", sid, other)
            and (g.edge_exists("comp", sid, other) or g.is_bridged(sid, other))
        )
        for sid in ids
    }
    max_len = min(cfg.horizon, len(ids))
    best = None

    def consider(score, path):
        nonlocal best
        if best is None or planner._better((score, path), best):
            best = (score, path)

    if cfg.beam_width >= len(ids):
        def walk(path, visited, score):
            consider(score, path)
            if len(path) >= max_len:
                return
            for nxt in succ[path[-1]]:
                if nxt not in visited:
                    walk(path + (nxt,), visited | {nxt}, score + scores[nxt])

        for sid in ids:
            walk((sid,), frozenset({sid}), scores[sid])
    else:
        frontier = [(scores[sid], (sid,)) for sid in ids]
        frontier.sort(key=lambda e: (-e[0], len(e[1]), e[1]))
        frontier = frontier[: cfg.beam_width]
        for score, path in frontier:
            consider(score, path)
        depth = 1
        while frontier and depth < max_len:
            grown = {}
            for score, path in frontier:
                visited = frozenset(path)
                for nxt in succ[path[-1]]:
                    if nxt in visited:
                        continue
                    entry = (score + scores[nxt], path + (nxt,))
                    key = (nxt, visited | {nxt})
                    if key not in grown or planner._better(entry, grown[key]):
                        grown[key] = entry
            frontier = sorted(grown.values(), key=lambda e: (-e[0], len(e[1]), e[1]))
            frontier = frontier[: cfg.beam_width]
            for score, path in frontier:
                consider(score, path)
            depth += 1

    return Plan(steps=tuple(PlanStep(skill=sid) for sid in best[1]), total_score=best[0])


def test_stitch_equals_reference_stitch_on_random_matrix():
    # every beam width from pruning-everything to exhaustive; tie-heavy
    # score sets make the tie-breaks, not the scores, pick the plan
    rng = random.Random(2024)
    for _ in range(250):
        n = rng.randint(1, 7)
        ids = [f"s{i}" for i in range(n)]
        rng.shuffle(ids)
        if rng.random() < 0.6:
            candidates = [(sid, rng.choice((0.25, 0.5, 1.0))) for sid in ids]
        else:
            candidates = [(sid, rng.random()) for sid in ids]
        density = rng.choice((0.2, 0.5, 1.0))
        transitions = {(a, b) for a in ids for b in ids if a != b and rng.random() < density}
        g = StubGraph(dep=transitions, comp=transitions, nodes=ids)
        for beam_width in range(1, n + 2):
            cfg = PlannerConfig(beam_width=beam_width, horizon=rng.randint(1, n + 1))
            assert stitch(candidates, g, cfg) == reference_stitch(candidates, g, cfg)


def test_narrow_beam_still_emits_valid_plans():
    rng = random.Random(4321)
    for _ in range(40):
        n = rng.randint(2, 7)
        ids = [f"s{i}" for i in range(n)]
        candidates = [(sid, round(rng.uniform(0.1, 1.0), 2)) for sid in ids]
        transitions = {
            (a, b)
            for a in ids
            for b in ids
            if a != b and rng.random() < 0.4
        }
        g = StubGraph(dep=transitions, comp=transitions, nodes=ids)
        plan = stitch(candidates, g, PlannerConfig(beam_width=2, horizon=6))
        path = [s.skill for s in plan.steps]
        assert len(path) == len(set(path))
        for a, b in zip(path, path[1:]):
            assert (a, b) in transitions
        optimum, _ = oracle_best_path(candidates, transitions, 6)
        assert plan.total_score <= optimum + 1e-12


# ---------------------------------------------------------------------------
# validator and adapter insertion

def test_validator_inserted_after_unvalidated_non_terminal_step():
    sks = [skill("x", checklist=()), skill("y")]
    lib = Library(skills=tuple(sks))
    g = build_hseg(sks)
    plan = Plan(steps=(PlanStep("x"), PlanStep("y")), total_score=1.0)
    out = insert_validators_adapters(plan, g, lib)
    assert [(s.skill, s.inserted) for s in out.steps] == [
        ("x", None),
        ("x", "validator"),
        ("y", None),
    ]
    # terminal steps never get validators, validated steps never do
    plan2 = Plan(steps=(PlanStep("y"), PlanStep("x")), total_score=1.0)
    out2 = insert_validators_adapters(plan2, g, lib)
    assert [(s.skill, s.inserted) for s in out2.steps] == [
        ("y", None),
        ("x", None),
    ]


def test_adapter_inserted_inside_dep_only_transition():
    sks = [
        skill("emit", art=("x",)),
        skill("need", pre=("x", "a", "b", "c")),
    ]
    plan = Plan(steps=(PlanStep("emit"), PlanStep("need")), total_score=1.0)
    # a registered shim's id names the step; the planner builds no shim
    shim = AdapterShim("emit", "need", skill("registered-shim", pre=("x",),
                                             art=("x", "a", "b", "c")))
    lib = Library(skills=tuple(sks), adapters=(shim,))
    out = insert_validators_adapters(plan, build_hseg(sks, adapters=lib.adapters), lib)
    assert [(s.skill, s.inserted) for s in out.steps] == [
        ("emit", None),
        ("registered-shim", "adapter"),
        ("need", None),
    ]
    # without a shim the dep-only transition gets no step
    bare = Library(skills=tuple(sks))
    out = insert_validators_adapters(plan, build_hseg(sks), bare)
    assert [(s.skill, s.inserted) for s in out.steps] == [("emit", None), ("need", None)]


def test_insertion_is_idempotent():
    sks = [skill("x", checklist=()), skill("y")]
    lib = Library(skills=tuple(sks))
    g = build_hseg(sks)
    plan = Plan(steps=(PlanStep("x"), PlanStep("y")), total_score=1.0)
    once = insert_validators_adapters(plan, g, lib)
    twice = insert_validators_adapters(once, g, lib)
    assert once == twice


def test_built_plans_step_only_through_edges_or_registered_shims():
    # a maintained library whose shims bridge thousands of dep-only pairs:
    # every transition of a built plan holds dep and (comp or a shim), and
    # each dep-only one carries exactly its registered shim's step
    lib, _ = build_library(200, 0.0, 0)
    out, _ = run_maintenance(lib, cfg=MaintenanceConfig(dep_mode="overlap",
                                                        comp_threshold=0.6))
    g = build_hseg(out.skills, 0.6, "overlap", out.adapters)
    shim_ids = {a.contract.id for a in out.adapters}
    adapter_steps = 0
    for s in out.skills:
        task = TaskSpec(id=s.id, goal_text=s.goal.replace("-", " "),
                        state_facts=s.preconditions)
        steps = build_plan(out, g, task).steps
        walked = [i for i, step in enumerate(steps) if step.inserted is None]
        for i, j in zip(walked, walked[1:]):
            src, dst = steps[i].skill, steps[j].skill
            assert g.edge_exists("dep", src, dst)
            comp = g.edge_exists("comp", src, dst)
            assert comp or g.is_bridged(src, dst)
            adapters = [t.skill for t in steps[i + 1:j] if t.inserted == "adapter"]
            assert adapters == ([] if comp else [g.bridge(src, dst).contract.id])
        assert all(t.skill in shim_ids for t in steps if t.inserted == "adapter")
        adapter_steps += sum(t.inserted == "adapter" for t in steps)
    assert adapter_steps > 0


# ---------------------------------------------------------------------------
# binding, building, execution, grading

def test_bind_arguments_last_write_wins():
    step = PlanStep("s", bindings=(("x", "1"), ("y", "2")))
    bound = bind_arguments(step, [("x", "9"), ("z", "3")])
    assert bound.bindings == (("x", "9"), ("y", "2"), ("z", "3"))


def test_build_plan_end_to_end():
    sks = [
        skill("fetch", art=("raw",), body="fetch the raw event logs", checklist=()),
        skill("clean", pre=("raw",), art=("table",), body="clean raw event logs"),
        skill("noise", body="bake sourdough bread"),
    ]
    lib = Library(skills=tuple(sks))
    g = build_hseg(sks)
    task = TaskSpec(
        id="t1",
        goal_text="clean the raw event logs",
        state_facts=frozenset({"raw"}),
        gold_args=(("env", "prod"),),
    )
    plan = build_plan(lib, g, task)
    walked = [s.skill for s in plan.steps if s.inserted is None]
    assert walked == ["fetch", "clean"]
    for s in plan.steps:
        if s.inserted is None:
            assert ("env", "prod") in s.bindings
        else:
            assert s.bindings == ()
    # fetch lacks a checklist and is non-terminal, so it gets a validator
    kinds = [(s.skill, s.inserted) for s in plan.steps]
    assert ("fetch", "validator") in kinds


def scripted_executor(script):
    calls = []

    def run(task, skill_id, bindings, n, feedback):
        calls.append((skill_id, n, feedback))
        return script.get((skill_id, n), (True, None))

    return run, calls


def test_execute_all_success():
    plan = Plan(steps=(PlanStep("a"), PlanStep("b")), total_score=1.0)
    run, calls = scripted_executor({})
    g = StubGraph(nodes={"a", "b"})
    trace = execute_with_repair(plan, TaskSpec(id="t", goal_text="g"), run, g)
    assert [(e.skill, e.step, e.outcome) for e in trace.entries] == [
        ("a", 0, "success"),
        ("b", 1, "success"),
    ]
    assert calls == [("a", 0, None), ("b", 0, None)]


def test_execute_repairs_with_alternative():
    plan = Plan(steps=(PlanStep("a"), PlanStep("b")), total_score=1.0)
    run, calls = scripted_executor({("a", 0): (False, "bad-artifact")})
    g = StubGraph(nodes={"a", "b"}, alts={"a": ("a2",)})
    trace = execute_with_repair(plan, TaskSpec(id="t", goal_text="g"), run, g)
    assert [(e.skill, e.outcome) for e in trace.entries] == [
        ("a", "failure"),
        ("a2", "success"),
        ("b", "success"),
    ]
    assert calls[1] == ("a2", 1, "bad-artifact")  # feedback carries the error
    assert trace.entries[0].error_code == "bad-artifact"


def test_execute_retries_original_when_no_alternatives():
    plan = Plan(steps=(PlanStep("a"), PlanStep("b")), total_score=1.0)
    run, calls = scripted_executor(
        {("a", 0): (False, "e0"), ("a", 1): (False, "e1"), ("a", 2): (False, "e2")}
    )
    g = StubGraph(nodes={"a", "b"})
    trace = execute_with_repair(plan, TaskSpec(id="t", goal_text="g"), run, g)
    # exactly 1 + max_repairs attempts, then the rest of the plan is aborted
    assert [(e.skill, e.step, e.outcome) for e in trace.entries] == [
        ("a", 0, "failure"),
        ("a", 1, "failure"),
        ("a", 2, "failure"),
    ]
    assert calls[-1] == ("a", 2, "e1")


def test_execute_alt_then_original_recovery():
    plan = Plan(steps=(PlanStep("a"), PlanStep("b")), total_score=1.0)
    run, _ = scripted_executor(
        {("a", 0): (False, "e0"), ("a2", 1): (False, "e1")}
    )
    g = StubGraph(nodes={"a", "b"}, alts={"a": ("a2",)})
    trace = execute_with_repair(plan, TaskSpec(id="t", goal_text="g"), run, g)
    assert [(e.skill, e.outcome) for e in trace.entries] == [
        ("a", "failure"),
        ("a2", "failure"),
        ("a", "success"),
        ("b", "success"),
    ]


def test_trace_validation():
    with pytest.raises(Exception):
        ExecutionTrace((TraceEntry("t", "s", 0, "exploded"),)).validate()
    with pytest.raises(Exception):
        ExecutionTrace(
            (
                TraceEntry("t", "s", 1, "success"),
                TraceEntry("t", "s", 1, "success"),
            )
        ).validate()
    ExecutionTrace(
        (
            TraceEntry("t1", "s", 0, "success"),
            TraceEntry("t2", "s", 0, "failure", "e"),
            TraceEntry("t1", "s", 3, "success"),
        )
    ).validate()


def test_trace_entry_is_an_immutable_record():
    by_keyword = TraceEntry(task_id="t", skill="s", step=2, outcome="failure", error_code="e")
    by_position = TraceEntry("t", "s", 2, "failure", "e")
    assert by_keyword == by_position == ("t", "s", 2, "failure", "e")
    entry = TraceEntry("t", "s", 0, "success")
    assert entry.error_code is None
    task_id, skill, step, outcome, error_code = entry
    assert (task_id, skill, step, outcome, error_code) == ("t", "s", 0, "success", None)
    with pytest.raises(AttributeError):
        entry.outcome = "failure"
    assert hash(entry) == hash(TraceEntry("t", "s", 0, "success", None))


def test_grade_plan_strict_order():
    assert grade_plan(["a", "b"], ["a", "b"])
    assert not grade_plan(["a", "b"], ["b", "a"])
    assert not grade_plan(["a"], ["a", "b"])
    assert grade_plan([], [])


def test_plan_action_strings_skip_inserted_steps():
    plan = Plan(
        steps=(
            PlanStep("a"),
            PlanStep("a", inserted="validator"),
            PlanStep("adapt--a--b", inserted="adapter"),
            PlanStep("b"),
        ),
        total_score=1.0,
    )
    assert plan_action_strings(plan) == ("a", "b")
