import hashlib
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from skillops.contract import (
    _ID_RE,
    _KNOWN_KEYS,
    _SECTION_RE,
    _TAG_RE,
    _ParseContext,
    _is_token,
    _parse_canonical,
    _parse_skill_file,
    ArtifactDirs,
    ContractInvariantError,
    DuplicateSection,
    DuplicateSkillId,
    Library,
    MalformedFrontMatter,
    MissingOperationSection,
    SkillContract,
    SkillParseError,
    UnknownSection,
    UnknownSkillId,
    body_hash,
    make_contract,
    normalize_body,
    parse_skill_file,
    serialize_skill_file,
)
from skillops import contract as contract_module
from skillops.debtgen import build_library
from skillops.harness import load_library, save_library

MINIMAL = """---
id: a
goal: parse-html
preconditions: [html]
artifact.type: [json]
---
## Operation
parse
"""


def test_parse_minimal_file():
    c = parse_skill_file(MINIMAL)
    assert c.id == "a"
    assert c.goal == "parse-html"
    assert c.preconditions == frozenset({"html"})
    assert c.artifact_types == frozenset({"json"})
    assert c.body == "parse"
    assert c.validator_kind == "none"
    assert c.checklist == ()
    assert c.failure_modes == frozenset()
    assert c.extras == ()


def test_parse_full_file_with_sections():
    text = (
        "---\n"
        "id: table-export\n"
        "goal: export-tables\n"
        "preconditions: [html, table]\n"
        "artifact.type: [csv]\n"
        "validator.kind: checklist\n"
        "failure_modes: [timeout]\n"
        "tags: [tables, export]\n"
        "artifacts.scripts: [run.py]\n"
        "x-origin: legacy-batch-7\n"
        "---\n"
        "## Operation\n"
        "read the table\n"
        "emit csv rows\n"
        "## Checklist\n"
        "- [ ] header row present\n"
        "- [x] delimiter is a comma\n"
        "## Failure Modes\n"
        "- malformed-cell\n"
    )
    c = parse_skill_file(text)
    assert c.validator_kind == "checklist"
    assert c.checklist == ("header row present", "delimiter is a comma")
    # section items union with the front matter key
    assert c.failure_modes == frozenset({"timeout", "malformed-cell"})
    assert c.tags == frozenset({"tables", "export"})
    assert c.artifact_dirs.scripts == ("run.py",)
    assert c.extras == (("x-origin", "legacy-batch-7"),)
    assert c.body == "read the table\nemit csv rows"


def test_missing_required_key_raises():
    bad = MINIMAL.replace("goal: parse-html\n", "")
    with pytest.raises(MalformedFrontMatter):
        parse_skill_file(bad)


def test_missing_fence_raises():
    with pytest.raises(MalformedFrontMatter):
        parse_skill_file("id: a\n## Operation\nx\n")
    with pytest.raises(MalformedFrontMatter):
        parse_skill_file("---\nid: a\n## Operation\nx\n")


def test_missing_operation_section_raises():
    text = "---\nid: a\ngoal: g\npreconditions: []\nartifact.type: [json]\n---\n"
    with pytest.raises(MissingOperationSection):
        parse_skill_file(text)


def test_duplicate_section_raises():
    text = MINIMAL + "## Checklist\n- [ ] x\n## Checklist\n- [ ] y\n"
    with pytest.raises(DuplicateSection):
        parse_skill_file(text)


def test_unknown_section_raises():
    with pytest.raises(UnknownSection):
        parse_skill_file(MINIMAL + "## Notes\nhm\n")


def test_empty_checklist_section_means_no_validator():
    c = parse_skill_file(MINIMAL + "## Checklist\n")
    assert c.validator_kind == "none"
    assert c.checklist == ()


# normalize_body expected values are frozen by hand.
@pytest.mark.parametrize(
    "raw,expected",
    [
        ("a \n\n\nb\n", "a\nb"),
        ("a\nb", "a\nb"),
        ("", ""),
        ("x\r\ny\r", "x\ny"),
        ("  lead kept\ntrail cut   \n", "  lead kept\ntrail cut"),
        ("\n\nq", "\nq"),
    ],
)
def test_normalize_body_cases(raw, expected):
    assert normalize_body(raw) == expected
    assert normalize_body(expected) == expected  # idempotent


def test_body_hash_ignores_metadata():
    a = make_contract(id="a", goal="g", preconditions=frozenset({"x"}),
                      body="do the thing", artifact_types=frozenset({"y"}))
    b = make_contract(id="a-copy-01", goal="other-goal", preconditions=frozenset({"z"}),
                      body="do the thing", artifact_types=frozenset({"w"}),
                      tags=frozenset({"extra"}), checklist=("check output",))
    assert body_hash(a) == body_hash(b)
    c = make_contract(id="c", goal="g", preconditions=frozenset({"x"}),
                      body="do another thing", artifact_types=frozenset({"y"}))
    assert body_hash(a) != body_hash(c)
    assert len(body_hash(a)) == 64  # 256-bit hex


def test_body_hash_normalizes_contracts_built_without_validation():
    kwargs = dict(id="a", goal="g", preconditions=frozenset({"x"}),
                  artifact_types=frozenset({"y"}))
    raw = SkillContract(body="a  \n\n b", **kwargs)
    assert body_hash(raw) == body_hash(make_contract(body="a  \n\n b", **kwargs))


def test_body_hash_memo_follows_replace():
    c = make_contract(id="a", goal="g", preconditions=frozenset({"x"}),
                      body="first body", artifact_types=frozenset({"y"}))
    assert body_hash(c) == hashlib.sha256(b"first body").hexdigest()
    changed = replace(c, body="second body")
    assert body_hash(changed) == hashlib.sha256(b"second body").hexdigest()


def test_body_hash_memo_leaves_equality_and_hash_alone():
    kwargs = dict(id="a", goal="g", preconditions=frozenset({"x"}),
                  body="some body", artifact_types=frozenset({"y"}))
    hashed, fresh = make_contract(**kwargs), make_contract(**kwargs)
    before = hash(hashed)
    body_hash(hashed)
    assert hashed == fresh and fresh == hashed
    assert hash(hashed) == before == hash(fresh)
    assert len({hashed, fresh}) == 1


def test_serialize_is_canonical_and_stable():
    c = parse_skill_file(MINIMAL)
    once = serialize_skill_file(c)
    twice = serialize_skill_file(parse_skill_file(once))
    assert once == twice
    # empty failure_modes key is omitted
    assert "failure_modes" not in once
    assert "validator.kind: none" in once


def test_round_trip_minimal():
    c = parse_skill_file(MINIMAL)
    assert parse_skill_file(serialize_skill_file(c)) == c


def test_serialize_rejects_invalid():
    c = SkillContract(id="BAD ID", goal="g", preconditions=frozenset(),
                      body="x", artifact_types=frozenset())
    with pytest.raises(ContractInvariantError):
        serialize_skill_file(c)
    c2 = SkillContract(id="ok", goal="g", preconditions=frozenset(),
                       body="x\n\n\ny", artifact_types=frozenset())
    with pytest.raises(ContractInvariantError):
        serialize_skill_file(c2)


@pytest.mark.parametrize("field,value", [
    ("id", "abc\n"),
    ("preconditions", frozenset({"html\n"})),
    ("artifact_types", frozenset({"json", "csv\n"})),
])
def test_a_final_newline_is_not_an_id_or_a_type_tag(field, value):
    kwargs = dict(id="abc", goal="g", preconditions=frozenset({"html"}), body="x",
                  artifact_types=frozenset({"json"}))
    make_contract(**kwargs)
    with pytest.raises(ContractInvariantError, match="bad (skill id|type tag)"):
        make_contract(**dict(kwargs, **{field: value}))


def test_library_rejects_duplicate_ids():
    a = make_contract(id="a", goal="g", preconditions=frozenset(),
                      body="x", artifact_types=frozenset({"t"}))
    with pytest.raises(DuplicateSkillId):
        Library(skills=(a, a))


def test_library_looks_ids_up_in_the_map_it_builds():
    b, a = (make_contract(id=sid, goal="g", preconditions=frozenset(),
                          body=f"body {sid}", artifact_types=frozenset({"t"}))
            for sid in ("b", "a"))
    lib = Library(skills=(b, a))
    assert lib.get("a") is a and lib.get("b") is b
    assert "a" in lib and "c" not in lib
    with pytest.raises(UnknownSkillId, match="^c$"):
        lib.get("c")
    # by_id is a fresh copy in skill order; editing it leaves lib alone
    edited = lib.by_id()
    assert list(edited) == ["b", "a"] and edited is not lib.by_id()
    edited.pop("a")
    assert "a" in lib and lib.get("a") is a
    # the map stays out of eq, hash and repr; replace() builds its own
    twin = replace(lib)
    assert twin == lib and hash(twin) == hash(lib) and repr(twin) == repr(lib)
    assert repr(lib) == f"Library(skills={(b, a)!r}, adapters=())"
    only_b = replace(lib, skills=(b,))
    assert only_b.get("b") is b and "a" not in only_b


_tag = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True)
_token = st.from_regex(r"[a-z][a-z0-9\-:]{0,10}", fullmatch=True)
_body_line = st.from_regex(r"[a-zA-Z0-9 _.,()\-]{1,40}", fullmatch=True).filter(
    lambda s: s.strip() and not s.startswith("## ") and s.strip() != "---"
)


@st.composite
def contracts(draw):
    return make_contract(
        id=draw(st.from_regex(r"[a-z][a-z0-9\-_]{0,12}", fullmatch=True)),
        goal=draw(_token),
        preconditions=frozenset(draw(st.sets(_tag, max_size=4))),
        body="\n".join(draw(st.lists(_body_line, min_size=1, max_size=5))),
        artifact_types=frozenset(draw(st.sets(_tag, max_size=3))),
        checklist=tuple(draw(st.lists(
            st.from_regex(r"[a-z][a-z0-9 ]{0,20}[a-z0-9]", fullmatch=True), max_size=3))),
        failure_modes=frozenset(draw(st.sets(_token, max_size=3))),
        tags=frozenset(draw(st.sets(_tag, max_size=4))),
        artifact_dirs=ArtifactDirs(
            scripts=tuple(sorted(draw(st.sets(st.from_regex(r"[a-z]{1,8}\.py", fullmatch=True), max_size=2)))),
            references=tuple(sorted(draw(st.sets(st.from_regex(r"[a-z]{1,8}\.md", fullmatch=True), max_size=2)))),
        ),
        extras=tuple(sorted(draw(st.dictionaries(
            st.from_regex(r"x-[a-z]{1,8}", fullmatch=True),
            st.from_regex(r"[a-z0-9 \-]{1,15}", fullmatch=True).map(str.strip).filter(bool),
            max_size=2)).items())),
    )


@given(contracts())
def test_round_trip_property(contract):
    text = serialize_skill_file(contract)
    assert parse_skill_file(text) == contract
    assert reference_parse(text) == contract
    assert serialize_skill_file(parse_skill_file(text)) == text


@given(st.text(alphabet="abc \n\r\t.", max_size=80))
def test_normalize_idempotent_property(raw):
    once = normalize_body(raw)
    assert normalize_body(once) == once
    assert "\n\n" not in once
    assert not once.endswith("\n")


# ---------------------------------------------------------------------------
# the one-pass parser against the parser it replaced

def reference_normalize_body(text: str) -> str:
    """normalize_body as it was before the parser rewrite."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    joined = "\n".join(line.rstrip() for line in text.split("\n"))
    joined = re.sub(r"\n{2,}", "\n", joined)
    return joined.removesuffix("\n")


@given(st.text(alphabet=st.sampled_from("ab# -\n\r\t \x0b\x0c\x1c\x85\u00a0\u2028\u3000"),
               max_size=40))
def test_normalize_body_matches_reference(raw):
    assert normalize_body(raw) == reference_normalize_body(raw)


def _reference_parse_list(raw: str, key: str) -> tuple[str, ...]:
    raw = raw.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise MalformedFrontMatter(f"{key}: expected a [a, b] list, got {raw!r}")
    inner = raw[1:-1].strip()
    if not inner:
        return ()
    return tuple(part.strip() for part in inner.split(","))


def reference_validate(c: SkillContract) -> None:
    """SkillContract.validate() as it was before the parser rewrite, plus the
    refusal of checklist items and extras values that a save and load would
    change: surrounding whitespace, or a CR."""
    def is_token(value):
        return bool(value) and not any(ch.isspace() for ch in value)

    if not _ID_RE.match(c.id):
        raise ContractInvariantError(f"bad skill id: {c.id!r}")
    if not is_token(c.goal):
        raise ContractInvariantError(f"goal must be a single token: {c.goal!r}")
    for tag in c.preconditions | c.artifact_types:
        if not _TAG_RE.match(tag):
            raise ContractInvariantError(f"bad type tag: {tag!r}")
    for tag in c.tags | c.failure_modes:
        if not is_token(tag):
            raise ContractInvariantError(f"bad token: {tag!r}")
    if c.body != reference_normalize_body(c.body):
        raise ContractInvariantError(f"body of {c.id} is not normalized")
    if not c.body:
        raise ContractInvariantError(f"body of {c.id} is empty")
    for line in c.body.split("\n"):
        if _SECTION_RE.match(line) or line.strip() == "---":
            raise ContractInvariantError(
                f"body of {c.id} contains a structural marker line: {line!r}"
            )
    for item in c.checklist:
        if not item.strip() or item.strip() != item or "\n" in item or "\r" in item:
            raise ContractInvariantError(f"bad checklist item: {item!r}")
    for key, value in c.extras:
        if not is_token(key) or value.strip() != value or "\n" in value or "\r" in value:
            raise ContractInvariantError(f"bad extra entry: {key!r}")
    for dirname in ("scripts", "references", "assets"):
        for name in c.artifact_dirs.get(dirname):
            if not name or "/" in name or any(ch.isspace() for ch in name):
                raise ContractInvariantError(f"bad artifact file name: {name!r}")


def reference_parse(text: str) -> SkillContract:
    """The line-by-line parser parse_skill_file replaced: fence search,
    front matter, sections, then every list and the old validate() on the
    built contract.  parse_skill_file must give an equal contract, or raise
    the same error class with the same message."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines or lines[0].strip() != "---":
        raise MalformedFrontMatter("file must open with a --- fence")
    try:
        close = next(i for i in range(1, len(lines)) if lines[i].strip() == "---")
    except StopIteration:
        raise MalformedFrontMatter("front matter fence is never closed") from None

    fields: dict[str, str] = {}
    for lineno, raw in enumerate(lines[1:close], start=2):
        if not raw.strip():
            continue
        if ":" not in raw:
            raise MalformedFrontMatter(f"line {lineno}: expected 'key: value'")
        key, _, value = raw.partition(":")
        key = key.strip()
        if not key:
            raise MalformedFrontMatter(f"line {lineno}: empty key")
        if key in fields:
            raise MalformedFrontMatter(f"duplicate front matter key: {key}")
        fields[key] = value.strip()

    for required in ("id", "goal", "preconditions", "artifact.type"):
        if required not in fields:
            raise MalformedFrontMatter(f"missing required key: {required}")

    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for raw in lines[close + 1 :]:
        header = _SECTION_RE.match(raw)
        if header:
            name = header.group(1)
            if name not in ("Operation", "Checklist", "Failure Modes"):
                raise UnknownSection(name)
            if name in sections:
                raise DuplicateSection(name)
            current = sections.setdefault(name, [])
        elif current is not None:
            current.append(raw)
        elif raw.strip():
            raise MalformedFrontMatter(f"stray content before first section: {raw!r}")

    if "Operation" not in sections:
        raise MissingOperationSection("## Operation section is required")
    body = reference_normalize_body("\n".join(sections["Operation"]))

    checklist = []
    for raw in sections.get("Checklist", ()):
        item = raw.strip()
        if not item:
            continue
        item = item.removeprefix("- ").strip()
        item = item.removeprefix("[ ]").removeprefix("[x]").strip()
        if item:
            checklist.append(item)

    failure_modes = set(_reference_parse_list(fields["failure_modes"], "failure_modes")
                        if "failure_modes" in fields else ())
    for raw in sections.get("Failure Modes", ()):
        item = raw.strip().removeprefix("- ").strip()
        if item:
            failure_modes.add(item)

    def dir_names(key: str) -> tuple[str, ...]:
        if key not in fields:
            return ()
        return tuple(sorted(_reference_parse_list(fields[key], key)))

    extras = tuple(sorted(
        (k, v) for k, v in fields.items() if k not in _KNOWN_KEYS
    ))

    contract = SkillContract(
        id=fields["id"],
        goal=fields["goal"],
        preconditions=frozenset(_reference_parse_list(fields["preconditions"], "preconditions")),
        body=body,
        artifact_types=frozenset(_reference_parse_list(fields["artifact.type"], "artifact.type")),
        checklist=tuple(checklist),
        failure_modes=frozenset(failure_modes),
        tags=frozenset(_reference_parse_list(fields["tags"], "tags") if "tags" in fields else ()),
        artifact_dirs=ArtifactDirs(
            scripts=dir_names("artifacts.scripts"),
            references=dir_names("artifacts.references"),
            assets=dir_names("artifacts.assets"),
        ),
        extras=extras,
    )
    try:
        reference_validate(contract)
    except ContractInvariantError as exc:
        raise MalformedFrontMatter(str(exc)) from exc
    return contract


def _outcome(parse, text):
    try:
        return parse(text)
    except SkillParseError as exc:
        return type(exc), str(exc)


def assert_parsers_agree(text):
    assert _outcome(parse_skill_file, text) == _outcome(reference_parse, text)


# Lines that hit the parser's branches when dropped anywhere in a file:
# fences, headers, blank and whitespace runs, malformed and duplicate keys,
# unbracketed lists, and non-ASCII whitespace inside values.
_ODD_LINES = (
    "", " ", "\t", "---", " --- ", "---\t", "--", "## Operation", "## Checklist",
    "## Failure Modes", "## Notes", "##  ", "## ", "##Operation", "## Operation  ",
    "- [ ] an item", "- [x] done", "- [ ]", "- a-mode", "- ", "plain line", "novalue",
    ": value", " : v", "x-extra: kept", "x extra: spaced key", "id: dup", "id: Bad",
    "goal: two words", "goal: a\u00a0b", "goal: a\u2003b", "goal:", "tags: [a, b]",
    "tags: a, b", "tags: [a\u00a0b, c]", "tags: [a,, b]", "tags: []", "tags: [ ]",
    "preconditions: [A]", "preconditions: html", "preconditions: [x, y.z]",
    "artifact.type: [", "artifact.type: json]", "failure_modes: [t\u2003o]",
    "failure_modes: [ok, also-ok]", "artifacts.scripts: [a\u00a0b.py]",
    "artifacts.scripts: [dir/x.py]", "artifacts.assets: [, x]",
    "artifacts.references: [r.md]", "validator.kind: checklist", "\u00a0", "\u2003---",
)


def _set_line(lines, i, text):
    return lines[:i] + [text] + lines[i + 1:]


# Values that break a list's syntax or one of validate()'s invariants.
_ODD_VALUES = (
    "", "[]", "[ ]", "[A]", "html", "[a b]", "[a\u00a0b]", "[a,\u2003b]", "[x, , y]",
    "[dir/x]", "[", "]", "[ok, Bad]", "a\u2003b", "two words", "Bad_ID", "[ok]", "ok",
)
# Whitespace that str.split("\n") keeps inside a line but str.strip and
# re's \s both take; the canonical fast path relies on the two agreeing.
_LINE_END_SPACES = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
_ODD_VALUES += tuple(f"[ok]{ch}" for ch in _LINE_END_SPACES) + ("ok\x85", "[a]\u2028[b]")
_BODY_LINES = ("---", " --- ", "## Notes", "## Checklist", "## Operation", "## X y",
               "", "  ", "\t", "- [ ] item", "body text  ", "---x", "  ## X",
               *(f"body text{ch}" for ch in _LINE_END_SPACES), "a\u2028b", "a\rb", "a\r")


def _mutate(draw, lines):
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("insert", "replace", "delete", "duplicate", "edit",
                                     "value", "value", "key", "body", "body")))
        i = draw(st.integers(0, len(lines)))
        j = min(i, len(lines) - 1)
        if kind == "value":  # keep some front matter keys, swap their values
            keyed = [k for k, line in enumerate(lines) if ": " in line]
            for k in draw(st.lists(st.sampled_from(keyed), max_size=4)) if keyed else ():
                key = lines[k].partition(": ")[0]
                lines = _set_line(lines, k, f"{key}: {draw(st.sampled_from(_ODD_VALUES))}")
        elif kind == "key":  # add a key beside the first front matter line
            key = draw(st.sampled_from(("x y", "x-ok", "tags", "artifacts.assets", "x\u00a0y")))
            lines = lines[:1] + [f"{key}: {draw(st.sampled_from(_ODD_VALUES))}"] + lines[1:]
        elif kind == "body":  # a line just after some section header
            headers = [k for k, line in enumerate(lines) if line.startswith("## ")]
            if headers:
                k = draw(st.sampled_from(headers)) + 1
                lines = lines[:k] + [draw(st.sampled_from(_BODY_LINES))] + lines[k:]
        elif kind == "insert":
            lines = lines[:i] + [draw(st.sampled_from(_ODD_LINES))] * draw(st.integers(1, 3)) + lines[i:]
        elif kind == "replace":
            lines = _set_line(lines, j, draw(st.sampled_from(_ODD_LINES)))
        elif kind == "delete" and len(lines) > 1:
            lines = lines[:j] + lines[j + 1:]
        elif kind == "duplicate":
            lines = lines[:j] + [lines[j]] + lines[j:]
        else:  # pad, or drop a bracket or separator from, one line
            old = lines[j]
            new = draw(st.sampled_from((
                " " + old + " ", old.replace("[", ""), old.replace("]", ""),
                old.replace(", ", ",\u00a0"), old.replace("-", "\u2003"),
                old.replace(": ", ":"), old.replace(":", ""),
            )))
            lines = _set_line(lines, j, new)
    ending = draw(st.sampled_from(("\n", "\r\n", "\r", "mixed")))
    if ending == "mixed":
        return "".join(line + draw(st.sampled_from(("\n", "\r\n", "\r"))) for line in lines)
    return ending.join(lines)


@st.composite
def mutated_files(draw):
    """Several mutants of one serialized contract, each possibly with no
    edit but its line ends (drawing the contract is the slow part)."""
    lines = serialize_skill_file(draw(contracts())).split("\n")
    return [_mutate(draw, lines) for _ in range(draw(st.integers(1, 8)))]


@settings(max_examples=200, deadline=None)
@given(mutated_files())
def test_parser_matches_reference_on_mutated_files(texts):
    ctx = _ParseContext()  # shared, as one load shares it across files
    for text in texts:
        assert_parsers_agree(text)
        fast = _parse_canonical(text, _ParseContext())
        assert fast is None or fast == reference_parse(text)
        assert (_outcome(lambda t: _parse_skill_file(t, ctx), text)
                == _outcome(reference_parse, text))


@pytest.mark.parametrize("text", [
    "", "\n", "---", "---\n---", " --- \nid: a\n---", "---\nkey\nstill open",
    MINIMAL.replace("id: a\n", "id: a\nnovalue\n").replace("---\n## Operation", "## Operation"),
    MINIMAL.replace("goal: parse-html\n", "goal: parse-html\n: v\n"),
    MINIMAL.replace("goal: parse-html\n", "goal: parse-html\nid: b\nnovalue\n"),
    MINIMAL.replace("goal: parse-html\n", ""),
    MINIMAL.replace("preconditions: [html]", "preconditions: html")
    .replace("artifact.type: [json]", "artifact.type: json") + "## Notes\n",
    MINIMAL.replace("preconditions: [html]", "preconditions: html")
    .replace("artifact.type: [json]", "artifact.type: json\nfailure_modes: x"),
    MINIMAL.replace("[html]", "[HTML, BAD TAG]").replace("[json]", "[j son]"),
    MINIMAL.replace("parse-html", "parse html").replace("id: a", "id: A"),
    MINIMAL.replace("[html]", "[html]\ntags: [a b]\nx y: z\nartifacts.scripts: [a/b]"),
    MINIMAL + "---\n", MINIMAL + " ---  \n## Checklist\n", MINIMAL + "\n\n\n",
    MINIMAL.replace("parse\n", "\n\n  \nparse  \n\n\nmore\t\n\n"),
    MINIMAL.replace("parse\n", "\n\n"), MINIMAL.replace("## Operation\n", "stray\n## Operation\n"),
    MINIMAL + "## Failure Modes\n- a\u00a0b\n", MINIMAL + "## Checklist\n- [ ]\n- [x]\n",
    MINIMAL.replace("[json]", "[json]\nartifacts.assets: [z.png, a b.png, , c/d]"),
    # one list or invariant fault at a time, then two lists at once
    MINIMAL.replace("[json]", "json"), MINIMAL.replace("[html]", "html]"),
    MINIMAL.replace("[html]", "html").replace("[json]", "[json"),
    MINIMAL.replace("[json]", "json\ntags: a\nartifacts.scripts: [\nartifacts.references: r]"),
    MINIMAL.replace("[json]", "[json]\ntags: a\nartifacts.scripts: [\nartifacts.references: r]"),
    MINIMAL.replace("[json]", "[json]\nartifacts.assets: a\nartifacts.references: r]"),
    MINIMAL.replace("[json]", "[json]\nx y: z"), MINIMAL.replace("[json]", "[json]\nx\u00a0y: z"),
    MINIMAL.replace("[json]", "[json]\nartifacts.scripts: [dir/run.py]"),
    MINIMAL.replace("[json]", "[json]\nartifacts.references: [a\u2003b.md]"),
    MINIMAL.replace("[json]", "[json]\ntags: [ok, t\u00a0u]"),
    MINIMAL.replace("[json]", "[json]\nfailure_modes: [ok, ]"),
    MINIMAL.replace("[json]", "[json, Upper]"), MINIMAL.replace("goal: parse-html", "goal: "),
])
def test_parser_matches_reference_on_hand_picked_faults(text):
    assert_parsers_agree(text)


def test_parser_matches_reference_on_a_generated_library():
    lib, _ = build_library(120, 0.5, seed=11)
    for skill in lib.skills:
        text = serialize_skill_file(skill)
        assert parse_skill_file(text) == reference_parse(text) == skill
        crlf = text.replace("\n", "\r\n")
        assert parse_skill_file(crlf) == reference_parse(crlf) == skill


@given(st.text(alphabet=st.sampled_from("ab \t\n\r\x0b\x0c\x1c\x85\u00a0\u1680\u2003\u2028\u3000\ufeff\u200b-/"),
               max_size=8))
def test_is_token_is_nonempty_and_whitespace_free(value):
    assert _is_token(value) == (bool(value) and not any(ch.isspace() for ch in value))


_odd_text = st.text(alphabet=st.sampled_from("aZ0-_./# \t\n\r\u00a0\u2003"), max_size=10)
_VALID = make_contract(
    id="ok-id", goal="g", preconditions=frozenset({"t"}), body="do it",
    artifact_types=frozenset({"u"}), checklist=("item",), failure_modes=frozenset({"f"}),
    tags=frozenset({"tag"}), artifact_dirs=ArtifactDirs(scripts=("a.py",)), extras=(("x-k", "v"),),
)
_ODD_FIELDS = {
    "id": _odd_text,
    "goal": _odd_text,
    "preconditions": st.frozensets(_odd_text, max_size=2),
    "artifact_types": st.frozensets(_odd_text, max_size=2),
    "body": st.lists(st.sampled_from(("do it", "## X", "##", "## x y", "---", "  ---", "-- -",
                                      "#", "", "## ", "a\r")), max_size=4).map("\n".join),
    "checklist": st.lists(_odd_text, max_size=2).map(tuple),
    "failure_modes": st.frozensets(_odd_text, max_size=2),
    "tags": st.frozensets(_odd_text, max_size=2),
    "artifact_dirs": st.builds(ArtifactDirs, scripts=st.lists(_odd_text, max_size=2).map(tuple),
                               assets=st.lists(_odd_text, max_size=2).map(tuple)),
    "extras": st.lists(st.tuples(_odd_text, _odd_text), max_size=2).map(tuple),
}


@st.composite
def odd_contracts(draw):
    """A valid contract with one to three fields swapped for odd values."""
    names = draw(st.lists(st.sampled_from(sorted(_ODD_FIELDS)), min_size=1, max_size=3,
                          unique=True))
    return replace(_VALID, **{name: draw(_ODD_FIELDS[name]) for name in names})


@settings(max_examples=300, deadline=None)
@given(odd_contracts())
def test_validate_matches_reference(contract):
    def outcome(check):
        try:
            check()
        except ContractInvariantError as exc:
            return str(exc)
    assert outcome(contract.validate) == outcome(lambda: reference_validate(contract))


_PLACEHOLDER = "zz-placeholder-zz"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("checklist", "extras")),
       st.text(alphabet=st.sampled_from("ab \r\n\x85\u2028"), max_size=6))
def test_validate_accepts_exactly_the_values_a_save_and_load_keeps(field, value):
    def with_value(v):
        if field == "checklist":
            return replace(_VALID, checklist=(v,))
        return replace(_VALID, extras=(("x-k", v),))

    # the text serialize_skill_file would write, had it not refused the value
    text = serialize_skill_file(with_value(_PLACEHOLDER)).replace(_PLACEHOLDER, value)
    contract = with_value(value)
    try:
        contract.validate()
        valid = True
    except ContractInvariantError:
        valid = False
    try:
        kept = parse_skill_file(text) == contract
    except SkillParseError:
        kept = False
    assert valid == kept
    if valid:
        assert serialize_skill_file(contract) == text


# ---------------------------------------------------------------------------
# the canonical fast path

@given(contracts().map(lambda c: replace(c, extras=())))
def test_canonical_path_reads_every_serialized_contract(contract):
    text = serialize_skill_file(contract)
    fast = _parse_canonical(text, _ParseContext())
    assert fast is not None
    assert fast == reference_parse(text) == contract


def test_canonical_path_falls_back_on_every_other_layout():
    text = serialize_skill_file(_VALID)  # carries an extra key
    assert _parse_canonical(text, _ParseContext()) is None
    plain = serialize_skill_file(replace(_VALID, extras=()))
    assert _parse_canonical(plain, _ParseContext()) == replace(_VALID, extras=())
    for odd in (plain.replace("\n", "\r\n"), plain + "\n", plain.replace("- [ ]", "- [x]"),
                plain.replace("do it", "do it "), plain.replace("do it", "do\n\nit"),
                plain.replace("id: ok-id\ngoal: g", "goal: g\nid: ok-id"),
                plain + "## Failure Modes\n- f\n"):
        assert _parse_canonical(odd, _ParseContext()) is None
        assert parse_skill_file(odd) == reference_parse(odd)


def test_a_library_save_library_writes_never_reaches_the_line_parser(tmp_path, monkeypatch):
    lib, prov = build_library(300, 0.5, 3)
    save_library(lib, tmp_path / "lib", prov)
    calls = []
    line_parser = contract_module._parse_lines

    def counting(text, ctx):
        calls.append(text)
        return line_parser(text, ctx)

    monkeypatch.setattr(contract_module, "_parse_lines", counting)
    loaded, _ = load_library(tmp_path / "lib")
    assert loaded.by_id() == lib.by_id()
    assert calls == []
    # the counter does count: a file in CRLF layout takes the line parser
    path = tmp_path / "lib" / "skills" / lib.skills[0].id / "SKILL.md"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_library(tmp_path / "lib")[0].by_id() == lib.by_id()
    assert len(calls) == 1


def test_the_load_context_shares_each_set_and_checks_it_once(monkeypatch):
    ctx = _ParseContext()
    texts = [serialize_skill_file(replace(_VALID, id=f"s{i}", extras=())) for i in range(3)]
    first, *rest = [_parse_skill_file(text, ctx) for text in texts]
    assert all(c.preconditions is first.preconditions for c in rest)
    assert {first.preconditions, first.artifact_types} <= ctx.type_tags
    assert {first.tags, first.failure_modes} <= ctx.tokens
    # a set that failed is never recorded, so the next file raises again
    bad = MINIMAL.replace("[html]", "[Bad]")
    for _ in range(2):
        with pytest.raises(MalformedFrontMatter, match="bad type tag"):
            _parse_skill_file(bad, ctx)
    checked = []

    class RecordingTagRe:
        def fullmatch(self, value):
            checked.append(value)
            return True

    monkeypatch.setattr(contract_module, "_TAG_RE", RecordingTagRe())
    monkeypatch.setattr(contract_module, "_is_token", lambda v: checked.append(v) or True)
    _parse_skill_file(texts[0], ctx)
    assert checked == ["g", "a.py"]  # the goal and file name: every set was seen passing
    _parse_skill_file(texts[0], _ParseContext())
    assert sorted(checked[2:]) == ["a.py", "f", "g", "t", "tag", "u"]


_HEAD = serialize_skill_file(parse_skill_file(MINIMAL)).removesuffix("parse\n")


@pytest.mark.parametrize("ch", [*_LINE_END_SPACES, "\r", "\t", "\x0b", "\x0c"])
def test_canonical_path_and_line_parser_agree_on_line_end_whitespace(ch):
    plain = serialize_skill_file(replace(_VALID, extras=()))
    texts = [
        _HEAD + f"body text{ch}\nmore\n", _HEAD + f"a{ch}b\nmore\n", _HEAD + f"more\nx{ch}\n",
        plain.replace("goal: g\n", f"goal: g{ch}\n"),
        plain.replace("[t]", f"[t]{ch}"), plain.replace("[tag]", f"[tag{ch}]"),
        plain.replace("- [ ] item", f"- [ ] item{ch}"),
        plain.replace("- [ ] item", f"- [ ] {ch}item"),
    ]
    for text in texts:
        fast = _parse_canonical(text, _ParseContext())
        assert fast is None or fast == reference_parse(text)
        assert_parsers_agree(text)


_LONG_BODIES = {
    "one-line-trailing-space": ("a" * 1_000_000 + " ", False),  # the last character fails
    "200k-lines": ("\n".join(["ab c"] * 200_000), True),
    "200k-lines-trailing-space": ("\n".join(["ab c"] * 200_000) + " ", False),
}


@pytest.mark.parametrize("name", sorted(_LONG_BODIES))
def test_the_canonical_match_runs_in_linear_time(name):
    body, canonical = _LONG_BODIES[name]
    text = _HEAD + body + "\n"
    start = time.perf_counter()
    fast = _parse_canonical(text, _ParseContext())
    assert time.perf_counter() - start < 5.0  # about 0.1 s; a quadratic match takes hours
    assert (fast is not None) == canonical
    if canonical:
        assert fast == contract_module._parse_lines(text, _ParseContext())
