"""Wide-vocabulary skill libraries for the diagnose workload.

`skillops.debtgen.build_library` draws interface tokens from a 20-word
vocabulary, so even an 8000-skill library has only a few hundred distinct
artifact and precondition sets and `build_hseg` stays cheap.  This generator
keeps debtgen's recipe (clean sources with pairwise distinct interfaces, then
a degraded fraction derived from random sources) but draws interfaces from a
200-token vocabulary with 1-4 preconditions and 1-2 artifact types.  A
4-token precondition set fed by a 1-token artifact set is a dep edge with
Jaccard 0.25, below the 0.3 comp threshold, so the C signal varies.

Only the package's public API is used; the same (n, noise_rate, seed)
always gives a byte-identical library.
"""

from __future__ import annotations

import math

from skillops.contract import ArtifactDirs, Library, make_contract
from skillops.debtgen import (
    DEGRADATION_KINDS,
    Xorshift64Star,
    derive_seed,
    inject_degradation,
)

WIDE_VOCABULARY = tuple(f"w{i:03d}" for i in range(200))

_ABBREV = {kind: "".join(w[0] for w in kind.split("_")) for kind in DEGRADATION_KINDS}


def _source(index: int, rng: Xorshift64Star, used: set):
    while True:
        pre = frozenset(rng.sample(WIDE_VOCABULARY, rng.randint(1, 4)))
        art = frozenset(rng.sample(WIDE_VOCABULARY, rng.randint(1, 2)))
        if (pre, art) not in used:
            used.add((pre, art))
            break
    primary = rng.choice(sorted(pre))
    marker = f"{rng.u64():016x}"
    script = f"run_{index:04d}.sh"
    guide = f"guide_{index:04d}.md"
    body = "\n".join(
        [
            f"Run the {primary} pipeline end to end (marker {marker}).",
            f"Execute scripts/{script} with the v3 flags and wait for the summary line.",
            f"Consult references/{guide} before changing any defaults.",
        ]
    )
    tags = set(rng.sample(WIDE_VOCABULARY, rng.randint(2, 4)))
    tags.add(primary)
    return make_contract(
        id=f"s{index:04d}",
        goal=f"run-{primary}-{index:04d}",
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


def build_wide_library(n: int, noise_rate: float, seed: int) -> Library:
    """n skills, ceil(noise_rate * n) of them degraded copies of clean ones."""
    degraded_count = math.ceil(noise_rate * n)
    clean_count = max(1, n - degraded_count)
    used: set = set()
    pool = [
        _source(i, Xorshift64Star(derive_seed(seed, i)), used)
        for i in range(clean_count)
    ]
    skills = list(pool)
    for j in range(n - clean_count):
        rng = Xorshift64Star(derive_seed(seed, n + j))
        kind = DEGRADATION_KINDS[rng.randrange(len(DEGRADATION_KINDS))]
        source = pool[rng.randrange(clean_count)]
        new_id = f"{source.id}-{_ABBREV[kind]}{j:04d}"
        skills.append(inject_degradation(source, kind, new_id, rng))
    return Library(skills=tuple(skills))

