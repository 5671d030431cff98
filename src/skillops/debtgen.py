"""Synthetic skill libraries with controllable rot.

Libraries are grown from a pool of clean source skills with pairwise
distinct interfaces, then a chosen fraction of entries is replaced by
degraded derivatives of random sources.  Six degradation kinds cover the
failure shapes maintenance has to handle:

  redundant_clone    byte-identical body under a new id
  stale_clone        reference files renamed *_deprecated.md, versions
                     in the body downgraded to v0
  missing_validator  checklist stripped
  missing_artifact   artifact directories emptied while the body still
                     links to the files
  wrong_interface    artifact types replaced by a disjoint draw, with a
                     note appended to the body
  over_specialized   retrieval tags narrowed to a dated niche

All randomness comes from a specific xorshift64* generator seeded from the
caller's seed, so the same (n, noise_rate, seed) triple always produces a
byte-identical library.  Source interfaces keep |preconditions| <= 3 and
artifacts nonempty, which makes every dep edge among clean skills clear the
0.3 compatibility threshold: a fully clean library needs no maintenance.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

from skillops.contract import (
    ArtifactDirs,
    ConfigInvalid,
    Library,
    SkillContract,
    make_contract,
)

__all__ = [
    "DEGRADATION_KINDS",
    "VOCABULARY",
    "Xorshift64Star",
    "build_library",
    "derive_seed",
    "extract_artifact_links",
    "inject_degradation",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D


class Xorshift64Star:
    """xorshift64* PRNG: tiny, fast, and identical on every platform."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        if self.state == 0:
            self.state = _GOLDEN

    def u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK64

    def random(self) -> float:
        return (self.u64() >> 11) / float(1 << 53)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.u64() % n

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample larger than population")
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def derive_seed(seed: int, index: int) -> int:
    """Independent sub-stream seed for one generated object."""
    return (seed ^ (_GOLDEN * (index + 1))) & _MASK64


VOCABULARY = (
    "auth",
    "billing",
    "cache",
    "config",
    "db",
    "deploy",
    "docs",
    "etl",
    "index",
    "ingest",
    "logs",
    "metrics",
    "migrate",
    "monitor",
    "parse",
    "queue",
    "report",
    "schema",
    "search",
    "serve",
)

DEGRADATION_KINDS = (
    "redundant_clone",
    "stale_clone",
    "missing_validator",
    "missing_artifact",
    "wrong_interface",
    "over_specialized",
)

# a degraded copy's id ends in its kind's initials: redundant_clone -> rc
_KIND_ABBREV = {k: "".join(w[0] for w in k.split("_")) for k in DEGRADATION_KINDS}

_LINK_RE = re.compile(
    r"\b(scripts|references|assets)/([A-Za-z0-9_\-]+(?:\.[A-Za-z0-9_\-]+)*)"
)

_VERSION_RE = re.compile(r"\bv\d+\b")


def extract_artifact_links(body: str) -> tuple[tuple[str, str], ...]:
    """(directory, file name) pairs the body text points at."""
    return tuple((m.group(1), m.group(2)) for m in _LINK_RE.finditer(body))


def _synth_source(index: int, rng: Xorshift64Star, used_keys: set) -> SkillContract:
    """One clean skill with an interface no earlier source uses."""
    while True:
        pre = frozenset(rng.sample(VOCABULARY, rng.randint(1, 3)))
        art = frozenset(rng.sample(VOCABULARY, rng.randint(1, 2)))
        key = (pre, art)
        if key not in used_keys:
            used_keys.add(key)
            break
    primary = rng.choice(sorted(pre))
    marker = f"{rng.u64():016x}"
    script = f"run_{index:03d}.sh"
    guide = f"guide_{index:03d}.md"
    body = "\n".join(
        [
            f"Run the {primary} pipeline end to end (marker {marker}).",
            f"Execute scripts/{script} with the v3 flags and wait for the summary line.",
            f"Consult references/{guide} before changing any defaults.",
        ]
    )
    tags = set(rng.sample(VOCABULARY, rng.randint(2, 4)))
    tags.add(primary)
    return make_contract(
        id=f"s{index:03d}",
        goal=f"run-{primary}-{index:03d}",
        preconditions=pre,
        body=body,
        artifact_types=art,
        checklist=(
            "produced artifacts match artifact.type",
            "summary line reports zero errors",
        ),
        tags=frozenset(tags),
        artifact_dirs=ArtifactDirs(scripts=(script,), references=(guide,)),
    )


def inject_degradation(
    source: SkillContract, kind: str, new_id: str, rng: Xorshift64Star
) -> SkillContract:
    """Derive one degraded skill from a clean source under a fresh id."""
    if kind == "redundant_clone":
        return replace(source, id=new_id)
    if kind == "stale_clone":
        dirs = source.artifact_dirs
        renamed = tuple(
            name.rsplit(".", 1)[0] + "_deprecated." + name.rsplit(".", 1)[1]
            if "." in name
            else name + "_deprecated"
            for name in dirs.references
        )
        return replace(
            source,
            id=new_id,
            body=_VERSION_RE.sub("v0", source.body),
            artifact_dirs=replace(dirs, references=renamed),
        )
    if kind == "missing_validator":
        return replace(source, id=new_id, checklist=())
    if kind == "missing_artifact":
        return replace(source, id=new_id, artifact_dirs=ArtifactDirs())
    if kind == "wrong_interface":
        outside = [t for t in VOCABULARY if t not in source.artifact_types | source.preconditions]
        arts = frozenset(rng.sample(outside, rng.randint(1, 2)))
        note = (
            f"Note: emits [{', '.join(sorted(arts))}] artifacts since revision "
            f"{rng.u64():016x}."
        )
        return replace(
            source,
            id=new_id,
            artifact_types=arts,
            body=source.body + "\n" + note,
        )
    if kind == "over_specialized":
        return replace(source, id=new_id, tags=frozenset({"q3-2025-only"}))
    raise ConfigInvalid(f"unknown degradation kind: {kind!r}")


def build_library(
    n: int, noise_rate: float, seed: int
) -> tuple[Library, dict[str, str]]:
    """Generate n skills, ceil(noise_rate * n) of them degraded.

    Returns the library plus a provenance map: skill id -> "clean" or
    "degraded:<kind>:<source id>".  Fully deterministic in (n, noise_rate,
    seed); the degraded entries draw their kind and source uniformly from
    per-entry sub-streams.
    """
    if n < 1:
        raise ConfigInvalid(f"library size must be positive, got {n}")
    if not 0.0 <= noise_rate <= 1.0:
        raise ConfigInvalid(f"noise_rate must be in [0, 1], got {noise_rate}")
    degraded_count = math.ceil(noise_rate * n)
    clean_count = n - degraded_count
    pool_size = max(1, clean_count)

    used_keys: set = set()
    pool = [
        _synth_source(i, Xorshift64Star(derive_seed(seed, i)), used_keys)
        for i in range(pool_size)
    ]

    skills: list[SkillContract] = list(pool[:clean_count])
    provenance = {s.id: "clean" for s in skills}
    id_counters: dict[tuple[str, str], int] = {}

    for j in range(degraded_count):
        rng = Xorshift64Star(derive_seed(seed, n + j))
        kind = DEGRADATION_KINDS[rng.randrange(len(DEGRADATION_KINDS))]
        source = pool[rng.randrange(pool_size)]
        count = id_counters.get((source.id, kind), 0) + 1
        id_counters[(source.id, kind)] = count
        abbrev = _KIND_ABBREV[kind]
        new_id = f"{source.id}-{abbrev}" if count == 1 else f"{source.id}-{abbrev}{count}"
        degraded = inject_degradation(source, kind, new_id, rng)
        skills.append(degraded)
        provenance[new_id] = f"degraded:{kind}:{source.id}"

    return Library(skills=tuple(skills)), provenance
