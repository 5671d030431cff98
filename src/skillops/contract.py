"""Skill contracts and the on-disk skill file format.

A skill is stored as a single markdown file with a key/value front matter
block fenced by ``---`` lines, followed by an ``## Operation`` section whose
text is the skill body.  Optional ``## Checklist`` and ``## Failure Modes``
sections carry validator items and known failure tokens.  Front matter keys
the parser does not know are kept verbatim in an extras map so that foreign
files survive a parse/serialize cycle.

Serialization is canonical: fixed key order, sorted list values, unchecked
checklist boxes, empty optional keys omitted.  ``parse_skill_file`` composed
with ``serialize_skill_file`` is the identity on valid contracts, and
serializing the same contract twice yields byte-identical text.

Cost: a file in the layout ``serialize_skill_file`` writes for a contract
without extras, which is every skill file ``save_library`` writes for a
library this package built, is read with one anchored match of
``_CANONICAL_RE``.  The contract is built from the match's groups, and only
validate()'s invariants run on it; the pattern has already shown the body
normalized.  Any other file (CR line ends, extra or reordered keys, blank
lines, trailing spaces, checked boxes, a Failure Modes section) and any file
that breaks an invariant pays that failed match, then goes to the line
parser: one pass over the lines, one ``partition`` per front matter line,
the section regex run only on lines that start with ``## ``.  Only the line
parser raises parse errors.  ``harness.load_library`` passes one
``_ParseContext`` to every file it parses, so a preconditions,
artifact.type or tags text seen before reuses its frozenset, and a set
already seen passing the type-tag or token check is not checked again.
``build_library(2000, 0.3, 42)`` holds 591, 207 and 1263 distinct such
texts.  In-process on a shared 2-vCPU VM, its 2000 files parse that way in
37 ms, about 18 us a file: 41 ms without the set checks shared, and 48 ms
when every file took the line parser (each the median of six interleaved
processes' medians of 30 parses).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace

__all__ = [
    "SkillOpsError",
    "ContractInvariantError",
    "SkillParseError",
    "MalformedFrontMatter",
    "MissingOperationSection",
    "DuplicateSection",
    "UnknownSection",
    "DuplicateSkillId",
    "ConfigInvalid",
    "UnknownSkillId",
    "EmptyLibrary",
    "ArtifactDirs",
    "SkillContract",
    "AdapterShim",
    "Library",
    "normalize_body",
    "body_hash",
    "parse_skill_file",
    "serialize_skill_file",
    "library_fingerprint",
]


class SkillOpsError(Exception):
    """Base class for every error raised by this package."""


class ContractInvariantError(SkillOpsError):
    """A contract value violates one of its structural invariants."""


class SkillParseError(SkillOpsError):
    """Base class for skill file parse errors."""


class MalformedFrontMatter(SkillParseError):
    pass


class MissingOperationSection(SkillParseError):
    pass


class DuplicateSection(SkillParseError):
    pass


class UnknownSection(SkillParseError):
    pass


class DuplicateSkillId(SkillOpsError):
    pass


class ConfigInvalid(SkillOpsError):
    pass


class UnknownSkillId(SkillOpsError):
    pass


class EmptyLibrary(SkillOpsError):
    pass


# \Z, not $: $ also matches before a final newline, so "abc\n" would pass
_ID_RE = re.compile(r"[a-z0-9_\-]+\Z")
_TAG_RE = re.compile(r"[a-z0-9][a-z0-9_\-.]*\Z")

ARTIFACT_DIR_NAMES = ("scripts", "references", "assets")

# Canonical front matter keys, in emission order.  artifacts.* keys index the
# sibling directories so a skill file is self-contained for round-tripping.
_KNOWN_KEYS = (
    "id",
    "goal",
    "preconditions",
    "artifact.type",
    "validator.kind",
    "failure_modes",
    "tags",
    "artifacts.scripts",
    "artifacts.references",
    "artifacts.assets",
)

_SECTION_RE = re.compile(r"^## (.+?)\s*$")
_KNOWN_SECTIONS = ("Operation", "Checklist", "Failure Modes")


def normalize_body(text: str) -> str:
    """Canonicalize a skill body.

    Line endings become LF, trailing whitespace is trimmed per line, any run
    of consecutive newlines collapses to a single newline, and one trailing
    newline is stripped.  Idempotent.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # Blank lines vanish, except that a leading blank run leaves one newline.
    kept = list(map(str.rstrip, text.split("\n")))
    body = "\n".join(filter(None, kept))
    return "\n" + body if body and not kept[0] else body


def _is_token(value: str) -> bool:
    # str.split() breaks on exactly the characters str.isspace() accepts, so
    # this is "non-empty and free of whitespace" without a per-char loop.
    return value.split() == [value]


@dataclass(frozen=True)
class ArtifactDirs:
    """File names held in a skill's sibling directories."""

    scripts: tuple[str, ...] = ()
    references: tuple[str, ...] = ()
    assets: tuple[str, ...] = ()

    def get(self, name: str) -> tuple[str, ...]:
        if name not in ARTIFACT_DIR_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def is_empty(self) -> bool:
        return not (self.scripts or self.references or self.assets)


EMPTY_DIRS = ArtifactDirs()


@dataclass(frozen=True)
class SkillContract:
    """One skill: preconditions, operation body, artifact types, validator,
    failure modes, plus retrieval tags and an index of its artifact files.

    The validator kind is derived: a skill validates by checklist exactly
    when it has at least one checklist item, so kind and item list can never
    disagree.
    """

    id: str
    goal: str
    preconditions: frozenset[str]
    body: str
    artifact_types: frozenset[str]
    checklist: tuple[str, ...] = ()
    failure_modes: frozenset[str] = frozenset()
    tags: frozenset[str] = frozenset()
    artifact_dirs: ArtifactDirs = EMPTY_DIRS
    extras: tuple[tuple[str, str], ...] = ()

    @property
    def validator_kind(self) -> str:
        return "checklist" if self.checklist else "none"

    def validate(self) -> None:
        """Raise ContractInvariantError on any structural violation."""
        _check_invariants(self, body_normalized=False)


def _check_invariants(
    c: SkillContract, body_normalized: bool, ctx: _ParseContext | None = None
) -> None:
    """validate()'s checks in their order.  A caller that built the body
    with normalize_body passes body_normalized=True to skip re-normalizing
    it only to compare.  With a parse context, the type-tag and token loops
    skip the sets the context has seen pass them: a skipped loop is one
    that cannot raise, so the first error is still the first error."""
    if not _ID_RE.fullmatch(c.id):
        raise ContractInvariantError(f"bad skill id: {c.id!r}")
    if not _is_token(c.goal):
        raise ContractInvariantError(f"goal must be a single token: {c.goal!r}")
    if ctx is None or not (c.preconditions in ctx.type_tags
                           and c.artifact_types in ctx.type_tags):
        for tag in c.preconditions | c.artifact_types:
            if not _TAG_RE.fullmatch(tag):
                raise ContractInvariantError(f"bad type tag: {tag!r}")
        if ctx is not None:
            ctx.type_tags.update((c.preconditions, c.artifact_types))
    if ctx is None or not (c.tags in ctx.tokens and c.failure_modes in ctx.tokens):
        for tag in c.tags | c.failure_modes:
            if not _is_token(tag):
                raise ContractInvariantError(f"bad token: {tag!r}")
        if ctx is not None:
            ctx.tokens.update((c.tags, c.failure_modes))
    if not body_normalized and c.body != normalize_body(c.body):
        raise ContractInvariantError(f"body of {c.id} is not normalized")
    if not c.body:
        raise ContractInvariantError(f"body of {c.id} is empty")
    # a marker line is a header ("## ...") or a fence ("---")
    if "## " in c.body or "---" in c.body:
        for line in c.body.split("\n"):
            if _SECTION_RE.match(line) or line.strip() == "---":
                raise ContractInvariantError(
                    f"body of {c.id} contains a structural marker line: {line!r}"
                )
    # the line parser strips items and values and ends lines at CR and LF,
    # so only what it reads back unchanged survives a save and load
    for item in c.checklist:
        if not item or item != item.strip() or "\n" in item or "\r" in item:
            raise ContractInvariantError(f"bad checklist item: {item!r}")
    for key, value in c.extras:
        if not _is_token(key) or value != value.strip() or "\n" in value or "\r" in value:
            raise ContractInvariantError(f"bad extra entry: {key!r}")
    dirs = c.artifact_dirs
    for name in dirs.scripts + dirs.references + dirs.assets:
        if not _is_token(name) or "/" in name:
            raise ContractInvariantError(f"bad artifact file name: {name!r}")


def body_hash(contract: SkillContract) -> str:
    """Hex digest of the normalized body.  Metadata never contributes, so
    two skills differing only in id, goal, tags or validator hash equal.

    Computed once per contract object and memoized on it.  replace() builds
    a new object, so a changed body never reuses a stale digest.  The body
    is normalized here because contracts built directly or by replace()
    skip validate().
    """
    digest = getattr(contract, "_body_digest", None)
    if digest is None:
        digest = hashlib.sha256(normalize_body(contract.body).encode("utf-8")).hexdigest()
        # object.__setattr__ passes the frozen guard without touching
        # __dict__; writing through __dict__ (as functools.cached_property
        # does) makes CPython 3.11 drop the object's inline attribute
        # storage, which slowed every later field read about twofold.
        object.__setattr__(contract, "_body_digest", digest)
    return digest


def _replace_keeping_body(contract: SkillContract, **changes) -> SkillContract:
    """replace(contract, **changes) for changes that leave the body alone:
    the new contract carries the memoized body digest, if there is one, so
    body_hash does not normalize and hash the same body again."""
    changed = replace(contract, **changes)
    digest = getattr(contract, "_body_digest", None)
    if digest is not None and "body" not in changes:
        object.__setattr__(changed, "_body_digest", digest)
    return changed


@dataclass(frozen=True)
class AdapterShim:
    """A generated bridge skill registered for one dep edge src -> dst."""

    src: str
    dst: str
    contract: SkillContract


@dataclass(frozen=True)
class Library:
    """An ordered collection of skills plus any registered adapter shims.

    Skill ids are unique; adapters live outside the skill list and never
    count toward library size.  Construction checks the ids and keeps the
    id -> contract map it builds for get and `in`, stored with
    object.__setattr__ so dataclass eq, hash and repr never see it.
    replace() builds a new Library, which builds its own map.
    """

    skills: tuple[SkillContract, ...] = ()
    adapters: tuple[AdapterShim, ...] = ()

    def __post_init__(self) -> None:
        index = {}
        for s in self.skills:
            if s.id in index:
                raise DuplicateSkillId(s.id)
            index[s.id] = s
        object.__setattr__(self, "_index", index)

    def by_id(self) -> dict[str, SkillContract]:
        """A fresh id -> contract map, in skill order, for callers that edit it."""
        return dict(self._index)

    def get(self, skill_id: str) -> SkillContract:
        s = self._index.get(skill_id)
        if s is None:
            raise UnknownSkillId(skill_id)
        return s

    def __contains__(self, skill_id: str) -> bool:
        return skill_id in self._index

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.skills)

    def __len__(self) -> int:
        return len(self.skills)


def _format_list(values) -> str:
    return "[" + ", ".join(sorted(values)) + "]"


def _parse_list(raw: str, key: str) -> list[str]:
    """Stripped items of a ``[a, b]`` front matter value; ``raw`` is itself
    already stripped."""
    if raw[:1] != "[" or raw[-1:] != "]":
        raise MalformedFrontMatter(f"{key}: expected a [a, b] list, got {raw!r}")
    inner = raw[1:-1].strip()
    return list(map(str.strip, inner.split(","))) if inner else []


def serialize_skill_file(contract: SkillContract) -> str:
    """Render a contract to canonical skill file text."""
    contract.validate()
    lines = ["---"]
    lines.append(f"id: {contract.id}")
    lines.append(f"goal: {contract.goal}")
    lines.append(f"preconditions: {_format_list(contract.preconditions)}")
    lines.append(f"artifact.type: {_format_list(contract.artifact_types)}")
    lines.append(f"validator.kind: {contract.validator_kind}")
    if contract.failure_modes:
        lines.append(f"failure_modes: {_format_list(contract.failure_modes)}")
    if contract.tags:
        lines.append(f"tags: {_format_list(contract.tags)}")
    for dirname in ARTIFACT_DIR_NAMES:
        names = contract.artifact_dirs.get(dirname)
        if names:
            lines.append(f"artifacts.{dirname}: {_format_list(names)}")
    for key, value in sorted(contract.extras):
        lines.append(f"{key}: {value}")
    lines.append("---")
    lines.append("## Operation")
    lines.append(contract.body)
    if contract.checklist:
        lines.append("## Checklist")
        for item in contract.checklist:
            lines.append(f"- [ ] {item}")
    return "\n".join(lines) + "\n"


def _dir_names(raw: str | None, key: str) -> tuple[str, ...]:
    return tuple(sorted(_parse_list(raw, key))) if raw is not None else ()


class _ParseContext:
    """What the files one call parses share.  `sets` maps the front matter
    text of a preconditions, artifact.type or tags value to its frozenset,
    so every skill with that text gets one object; `type_tags` and `tokens`
    hold the frozensets that passed _check_invariants' type-tag and token
    loops.  A caller that passes one context for many files builds each
    distinct set once and checks it once."""

    __slots__ = ("sets", "type_tags", "tokens")

    def __init__(self) -> None:
        self.sets: dict[str, frozenset[str]] = {}
        self.type_tags: set[frozenset[str]] = set()
        self.tokens: set[frozenset[str]] = set()


def _shared_set(raw: str, key: str, ctx: _ParseContext) -> frozenset[str]:
    """The frozenset of a list value with front matter text `raw`, shared
    through ctx.sets by every skill whose value has the same text."""
    found = ctx.sets.get(raw)
    if found is None:
        found = ctx.sets[raw] = frozenset(_parse_list(raw, key))
    return found


def parse_skill_file(text: str) -> SkillContract:
    """Parse skill file text into a contract.

    Raises MalformedFrontMatter when the fences or required keys are broken,
    MissingOperationSection when the body section is absent, DuplicateSection
    on repeated headers, UnknownSection on headers outside the grammar.
    When a file has several faults the first of these wins: a bad or
    unclosed fence; the first faulty front matter line; a missing required
    key; the first faulty section line; list syntax, in the order
    failure_modes, preconditions, artifact.type, tags, artifacts.*; then
    validate()'s invariants, raised as MalformedFrontMatter.
    """
    return _parse_skill_file(text, _ParseContext())


# The layout serialize_skill_file writes for a contract without extras: LF
# line ends, the keys in their order (an optional one may be absent), a body
# of non-blank lines that end in a non-space and do not start with "## " or
# "---", unchecked checklist boxes, one final newline.  re's \S is exactly
# "not str.isspace()", the test str.rstrip and str.split use.  Every line is
# one run of [^\r\n] closed by \n, so no text matches two ways, and a failed
# match backtracks at most once through each line.
_LIST = r"(\[[^\r\n]*\])"
_BODY_LINE = r"(?!## |---)[^\r\n]*\S"
_CANONICAL_RE = re.compile(
    r"---\n"
    r"id: ([a-z0-9_\-]+)\n"
    r"goal: (\S+)\n"
    rf"preconditions: {_LIST}\n"
    rf"artifact\.type: {_LIST}\n"
    r"validator\.kind: (?:checklist|none)\n"
    rf"(?:failure_modes: {_LIST}\n)?"
    rf"(?:tags: {_LIST}\n)?"
    rf"(?:artifacts\.scripts: {_LIST}\n)?"
    rf"(?:artifacts\.references: {_LIST}\n)?"
    rf"(?:artifacts\.assets: {_LIST}\n)?"
    r"---\n"
    r"## Operation\n"
    rf"({_BODY_LINE}(?:\n{_BODY_LINE})*)\n"
    r"(?:## Checklist\n((?:- \[ \] \S(?:[^\r\n]*\S)?\n)+))?"
    r"\Z"
)


def _parse_canonical(text: str, ctx: _ParseContext) -> SkillContract | None:
    """The contract of a file in serialize_skill_file's layout, built from
    one match of _CANONICAL_RE; None when the text is laid out any other
    way or breaks an invariant.  What it returns is what _parse_lines
    returns for the same text: each list value is the stripped text after
    its key's colon, the body is already normalized, and each checklist
    line is "- [ ] " and its item."""
    m = _CANONICAL_RE.match(text)
    if m is None:
        return None
    (id_, goal, pre, art, failures, tags,
     scripts, references, assets, body, checklist) = m.groups()
    contract = SkillContract(
        id=id_,
        goal=goal,
        preconditions=_shared_set(pre, "preconditions", ctx),
        body=body,
        artifact_types=_shared_set(art, "artifact.type", ctx),
        checklist=tuple(line[6:] for line in checklist.split("\n")[:-1]) if checklist else (),
        failure_modes=(frozenset(_parse_list(failures, "failure_modes"))
                       if failures else frozenset()),
        tags=_shared_set(tags, "tags", ctx) if tags else frozenset(),
        artifact_dirs=ArtifactDirs(
            scripts=_dir_names(scripts, "artifacts.scripts"),
            references=_dir_names(references, "artifacts.references"),
            assets=_dir_names(assets, "artifacts.assets"),
        ),
    )
    try:
        _check_invariants(contract, body_normalized=True, ctx=ctx)
    except ContractInvariantError:
        return None
    return contract


def _parse_skill_file(text: str, ctx: _ParseContext) -> SkillContract:
    """parse_skill_file, sharing list sets and tag checks through `ctx`.
    A file in serialize_skill_file's layout takes one regex match; any
    other file, and every file that raises, goes through the line parser."""
    contract = _parse_canonical(text, ctx)
    return contract if contract is not None else _parse_lines(text, ctx)


def _parse_lines(text: str, ctx: _ParseContext) -> SkillContract:
    """The line parser behind parse_skill_file.  It reads every layout (any
    line ends, extras, keys in any order, blank lines, checked boxes, a
    Failure Modes section) and raises every error parse_skill_file raises."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[0].strip() != "---":
        raise MalformedFrontMatter("file must open with a --- fence")

    # One partition per front matter line.  The first faulty line is held
    # until the closing fence turns up, because an unclosed fence wins.
    fields: dict[str, str] = {}
    fault = None
    close = 0
    for i in range(1, len(lines)):
        key, colon, value = lines[i].partition(":")
        key = key.strip()
        if not colon:
            if key == "---":
                close = i
                break
            if key and fault is None:
                fault = f"line {i + 1}: expected 'key: value'"
        elif fault is None:
            if not key:
                fault = f"line {i + 1}: empty key"
            elif key in fields:
                fault = f"duplicate front matter key: {key}"
            else:
                fields[key] = value.strip()
    if not close:
        raise MalformedFrontMatter("front matter fence is never closed")
    if fault:
        raise MalformedFrontMatter(fault)
    for required in ("id", "goal", "preconditions", "artifact.type"):
        if required not in fields:
            raise MalformedFrontMatter(f"missing required key: {required}")

    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for raw in lines[close + 1 :]:
        if raw.startswith("## ") and (header := _SECTION_RE.match(raw)):
            name = header.group(1)
            if name not in _KNOWN_SECTIONS:
                raise UnknownSection(name)
            if name in sections:
                raise DuplicateSection(name)
            current = sections[name] = []
        elif current is not None:
            current.append(raw)
        elif raw.strip():
            raise MalformedFrontMatter(f"stray content before first section: {raw!r}")

    if "Operation" not in sections:
        raise MissingOperationSection("## Operation section is required")
    body = normalize_body("\n".join(sections["Operation"]))

    checklist = []
    for raw in sections.get("Checklist", ()):
        item = raw.strip()
        if not item:
            continue
        item = item.removeprefix("- ").strip()
        item = item.removeprefix("[ ]").removeprefix("[x]").strip()
        if item:
            checklist.append(item)

    failure_modes = set(_parse_list(fields["failure_modes"], "failure_modes")
                        if "failure_modes" in fields else ())
    for raw in sections.get("Failure Modes", ()):
        item = raw.strip().removeprefix("- ").strip()
        if item:
            failure_modes.add(item)

    preconditions = _shared_set(fields["preconditions"], "preconditions", ctx)
    artifact_types = _shared_set(fields["artifact.type"], "artifact.type", ctx)
    tags = _shared_set(fields["tags"], "tags", ctx) if "tags" in fields else frozenset()
    scripts = _dir_names(fields.get("artifacts.scripts"), "artifacts.scripts")
    references = _dir_names(fields.get("artifacts.references"), "artifacts.references")
    assets = _dir_names(fields.get("artifacts.assets"), "artifacts.assets")
    extras = tuple(sorted(
        (k, v) for k, v in fields.items() if k not in _KNOWN_KEYS
    ))

    contract = SkillContract(
        id=fields["id"],
        goal=fields["goal"],
        preconditions=preconditions,
        body=body,
        artifact_types=artifact_types,
        checklist=tuple(checklist),
        failure_modes=frozenset(failure_modes),
        tags=tags,
        artifact_dirs=ArtifactDirs(scripts=scripts, references=references, assets=assets),
        extras=extras,
    )
    try:
        _check_invariants(contract, body_normalized=True, ctx=ctx)
    except ContractInvariantError as exc:
        raise MalformedFrontMatter(str(exc)) from exc
    return contract


def library_fingerprint(lib: Library) -> str:
    """Stable digest over every serialized skill and adapter, used to check
    byte-level equality of two library states."""
    h = hashlib.sha256()
    for skill in sorted(lib.skills, key=lambda s: s.id):
        h.update(skill.id.encode())
        h.update(b"\x00")
        h.update(serialize_skill_file(skill).encode())
        h.update(b"\x01")
    for shim in sorted(lib.adapters, key=lambda a: (a.src, a.dst)):
        h.update(f"{shim.src}\x00{shim.dst}\x00".encode())
        h.update(serialize_skill_file(shim.contract).encode())
        h.update(b"\x01")
    return h.hexdigest()


def make_contract(**kwargs) -> SkillContract:
    """Builder that normalizes the body and validates, for hand-built skills."""
    kwargs["body"] = normalize_body(kwargs.get("body", ""))
    contract = SkillContract(**kwargs)
    contract.validate()
    return contract
