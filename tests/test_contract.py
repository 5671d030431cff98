import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from skillops.contract import (
    ArtifactDirs,
    ContractInvariantError,
    DuplicateSection,
    DuplicateSkillId,
    Library,
    MalformedFrontMatter,
    MissingOperationSection,
    SkillContract,
    UnknownSection,
    body_hash,
    make_contract,
    normalize_body,
    parse_skill_file,
    serialize_skill_file,
)

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


def test_library_rejects_duplicate_ids():
    a = make_contract(id="a", goal="g", preconditions=frozenset(),
                      body="x", artifact_types=frozenset({"t"}))
    with pytest.raises(DuplicateSkillId):
        Library(skills=(a, a))


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
    assert serialize_skill_file(parse_skill_file(text)) == text


@given(st.text(alphabet="abc \n\r\t.", max_size=80))
def test_normalize_idempotent_property(raw):
    once = normalize_body(raw)
    assert normalize_body(once) == once
    assert "\n\n" not in once
    assert not once.endswith("\n")
