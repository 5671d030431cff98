"""Disk formats, metrics, the simulated executor, scenario pipelines and the
CLI entry point."""

import codecs
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skillops.contract import (
    AdapterShim,
    ArtifactDirs,
    ConfigInvalid,
    ContractInvariantError,
    Library,
    MalformedFrontMatter,
    SkillOpsError,
    SkillParseError,
    library_fingerprint,
    make_contract,
    parse_skill_file,
    serialize_skill_file,
)
from skillops import harness
from skillops.debtgen import build_library
from skillops.harness import (
    MalformedQueryLine,
    MalformedTraceLine,
    ManifestError,
    _json_objects,
    _read_action_list,
    SimulatedExecutor,
    build_retrieval_scenario,
    exercise_library,
    load_library,
    load_trace,
    main,
    precision_at_k,
    run_pipeline,
    save_library,
    save_trace,
    wilson_ci,
)
from skillops.maint import MaintenanceConfig, make_adapter_shim, run_maintenance
from skillops.planner import (
    EMPTY_TRACE,
    ExecutionTrace,
    TaskSpec,
    TraceEntry,
)


def _skill(sid, pre, art, body="Do the work.\nCheck the output.", **kw):
    kw.setdefault("checklist", ("output checked",))
    return make_contract(
        id=sid,
        goal=kw.pop("goal", f"goal-{sid}"),
        preconditions=frozenset(pre),
        body=body,
        artifact_types=frozenset(art),
        **kw,
    )


# ---------------------------------------------------------------------------
# metrics

def test_wilson_frozen_oracle():
    lo, hi = wilson_ci(441, 555)
    assert lo == pytest.approx(0.759012, abs=1e-6)
    assert hi == pytest.approx(0.826126, abs=1e-6)


def test_wilson_edge_cases_and_bounds():
    assert wilson_ci(0, 0) == (0.0, 1.0)
    lo, hi = wilson_ci(0, 10)
    assert lo == 0.0 and 0 < hi < 0.35
    lo, hi = wilson_ci(10, 10)
    assert hi == pytest.approx(1.0) and lo > 0.65
    with pytest.raises(ConfigInvalid):
        wilson_ci(5, 3)


def test_wilson_mirror_symmetry():
    for s, n in [(3, 17), (0, 9), (25, 40), (120, 120)]:
        lo, hi = wilson_ci(s, n)
        mlo, mhi = wilson_ci(n - s, n)
        assert lo == pytest.approx(1.0 - mhi, abs=1e-12)
        assert hi == pytest.approx(1.0 - mlo, abs=1e-12)
        assert 0.0 <= lo <= hi <= 1.0


def test_precision_at_k_always_divides_by_k():
    assert precision_at_k({"a", "b"}, ["a", "x", "b", "y", "z"], 5) == 0.4
    assert precision_at_k({"a"}, ["a"], 5) == 0.2  # short list still / 5
    assert precision_at_k({"a"}, [], 5) == 0.0
    assert precision_at_k({"a"}, ["x", "a"], 1) == 0.0
    with pytest.raises(ConfigInvalid):
        precision_at_k({"a"}, ["a"], 0)


# ---------------------------------------------------------------------------
# library directories

def test_save_load_roundtrip(tmp_path):
    lib, prov = build_library(30, 0.4, seed=5)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    loaded, loaded_prov = load_library(target)
    assert library_fingerprint(loaded) == library_fingerprint(lib)
    assert loaded_prov == prov
    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["format_version"] == 1
    ids = [e["id"] for e in manifest["skills"]]
    assert ids == sorted(ids)


def test_save_writes_real_artifact_files(tmp_path):
    lib, prov = build_library(5, 0.0, seed=1)
    save_library(lib, tmp_path / "lib", prov)
    s = sorted(lib.skills, key=lambda s: s.id)[0]
    base = tmp_path / "lib" / "skills" / s.id
    assert (base / "SKILL.md").exists()
    for name in s.artifact_dirs.scripts:
        assert (base / "scripts" / name).read_text().startswith("placeholder")
    for name in s.artifact_dirs.references:
        assert (base / "references" / name).exists()


def test_adapters_roundtrip(tmp_path):
    a = _skill("a", ["x"], ["y"])
    b = _skill("b", ["y", "q", "r", "t"], ["z"])
    shim = make_adapter_shim(a, b)
    lib = Library(skills=(a, b), adapters=(shim,))
    save_library(lib, tmp_path / "lib")
    loaded, _ = load_library(tmp_path / "lib")
    assert len(loaded.adapters) == 1
    assert (loaded.adapters[0].src, loaded.adapters[0].dst) == ("a", "b")
    assert library_fingerprint(loaded) == library_fingerprint(lib)


def test_save_replaces_only_library_directories(tmp_path):
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    save_library(lib, target, prov)  # second write replaces the first
    loaded, _ = load_library(target)
    assert len(loaded) == 3

    other = tmp_path / "not-a-lib"
    other.mkdir()
    (other / "keep.txt").write_text("precious")
    with pytest.raises(ManifestError):
        save_library(lib, other, prov)
    assert (other / "keep.txt").exists()


def test_load_rejects_bad_manifest(tmp_path, capsys):
    with pytest.raises(ManifestError):
        load_library(tmp_path)  # no manifest at all
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    manifest = json.loads((target / "manifest.json").read_text())
    for version in (99, True, 1.0):  # true and 1.0 compare equal to 1
        manifest["format_version"] = version
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError) as err:
            load_library(target)
        assert str(err.value) == f"unsupported format_version: {version!r}"
        assert main(["diagnose", "--lib", str(target)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"
    (target / "manifest.json").write_text("[]")  # not an object at all
    with pytest.raises(ManifestError):
        load_library(target)
    for section in ("skills", "adapters"):  # a section that is not a list
        (target / "manifest.json").write_text(
            json.dumps({"format_version": 1, section: 5})
        )
        with pytest.raises(ManifestError, match=section):
            load_library(target)
        assert main(["diagnose", "--lib", str(target)]) == 2
        assert "error:" in capsys.readouterr().err


def test_load_rejects_id_mismatch(tmp_path):
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["skills"][0]["id"] = "somebody-else"
    (target / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError):
        load_library(target)


MISSING = object()


@pytest.mark.parametrize("section,key,value", [
    pytest.param("skills", "path", MISSING, id="skills-path"),
    pytest.param("skills", "id", MISSING, id="skills-id"),
    pytest.param("adapters", "path", MISSING, id="adapters-path"),
    pytest.param("adapters", "src", MISSING, id="adapters-src"),
    pytest.param("skills", "path", 5, id="skills-path-int"),
    pytest.param("skills", "id", ["emit"], id="skills-id-list"),
    pytest.param("skills", "provenance", ["clean"], id="skills-provenance-list"),
    pytest.param("skills", "provenance", None, id="skills-provenance-null"),
    pytest.param("adapters", "src", ["emit"], id="adapters-src-list"),
    pytest.param("adapters", "dst", {"need": 1}, id="adapters-dst-object"),
    pytest.param("adapters", "dst", 7, id="adapters-dst-int"),
    pytest.param("adapters", "src", "../x", id="adapters-src-climbs"),
    pytest.param("adapters", "dst", "a/b", id="adapters-dst-slash"),
    pytest.param("adapters", "src", "", id="adapters-src-empty"),
])
def test_load_rejects_manifest_entry_without_key(tmp_path, capsys, section, key, value):
    """A required key that is missing or not a string, a provenance that is
    not a string, or an adapter end that is not a skill id, fails with
    ManifestError and exit 2, not a crash."""
    emit, need = _skill("emit", [], ["x"]), _skill("need", ["x", "y"], [])
    target = tmp_path / "lib"
    save_library(Library(skills=(emit, need), adapters=(make_adapter_shim(emit, need),)),
                 target)
    manifest = json.loads((target / "manifest.json").read_text())
    if value is MISSING:
        del manifest[section][0][key]
    else:
        manifest[section][0][key] = value
    (target / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=key):
        load_library(target)
    assert main(["diagnose", "--lib", str(target)]) == 2
    assert "error:" in capsys.readouterr().err


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("pairs,message", [
    pytest.param((("../../escaped", "need"),), "src is not a skill id", id="escaping-end"),
    pytest.param((("emit", "need"), ("emit", "need")), "both save to", id="repeated-pair"),
    pytest.param((("a--b", "c"), ("a", "b--c")), "both save to", id="two-spellings"),
])
def test_save_refuses_adapters_it_cannot_write_and_keeps_the_old_library(
    tmp_path, pairs, message
):
    """Every adapter directory is checked before anything is deleted: an end
    that is not a skill id, or two shims sharing a directory, leave the
    existing library and everything around it byte-identical."""
    emit, need = _skill("emit", [], ["x"]), _skill("need", ["x", "y"], [])
    contract = make_adapter_shim(emit, need).contract
    target = tmp_path / "out" / "lib"
    save_library(Library(skills=(emit, need), adapters=(make_adapter_shim(emit, need),)),
                 target)
    before = _tree_bytes(tmp_path)
    shims = {pair: AdapterShim(*pair, contract=contract) for pair in pairs}
    adapters = tuple(shims[pair] for pair in pairs)  # a repeated pair is one object twice
    with pytest.raises(ManifestError, match=message) as e:
        save_library(Library(skills=(emit, need), adapters=adapters), target)
    for s, d in pairs:
        assert f"{s!r} -> {d!r}" in str(e.value)
    assert _tree_bytes(tmp_path) == before


def test_maintain_refuses_adapter_repros_and_leaves_the_output(tmp_path, capsys):
    """An escaping adapter end and a pair listed twice both fail at load.
    Both exit 2, write nothing outside --out and leave an existing output
    library byte-identical."""
    emit = _skill("emit", [], ["x"], body="Emit x.")
    need = _skill("need", ["x", "y"], [], body="Read x and y.")
    lib = tmp_path / "lib"
    save_library(Library(skills=(emit, need), adapters=(make_adapter_shim(emit, need),)),
                 lib)
    out = tmp_path / "out" / "o"
    assert main(["maintain", "--lib", str(lib), "--out", str(out)]) == 0
    manifest = json.loads((lib / "manifest.json").read_text())
    entry = manifest["adapters"][0]
    for adapters, message in (
        ([dict(entry, src="../../escaped")], "src is not a skill id"),
        ([entry, entry], "both save to"),
    ):
        (lib / "manifest.json").write_text(json.dumps(dict(manifest, adapters=adapters)))
        capsys.readouterr()
        before = _tree_bytes(tmp_path / "out")
        assert main(["maintain", "--lib", str(lib), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert _tree_bytes(tmp_path / "out") == before


@pytest.mark.parametrize("pairs", [
    pytest.param((("emit", "need"), ("emit", "need")), id="repeated-pair"),
    pytest.param((("a--b", "c"), ("a", "b--c")), id="two-spellings"),
])
def test_shims_sharing_a_directory_fail_at_load_before_any_work(
    tmp_path, capsys, monkeypatch, pairs
):
    """A manifest whose two shims save_library could not write back is
    refused by load_library: diagnose and maintain --out exit 2 before they
    build a graph or run a pass, and maintain creates no output."""
    emit, need = _skill("emit", [], ["x"]), _skill("need", ["x", "y"], [])
    lib = tmp_path / "lib"
    save_library(Library(skills=(emit, need), adapters=(make_adapter_shim(emit, need),)),
                 lib)
    manifest = json.loads((lib / "manifest.json").read_text())
    entry = manifest["adapters"][0]
    manifest["adapters"] = [dict(entry, src=s, dst=d) for s, d in pairs]
    (lib / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="both save to"):
        load_library(lib)

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a refused library")

    monkeypatch.setattr(harness, "build_hseg", no_work)
    monkeypatch.setattr(harness, "run_maintenance", no_work)
    out = tmp_path / "out"
    for argv in (["diagnose", "--lib", str(lib)],
                 ["maintain", "--lib", str(lib), "--out", str(out)]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "both save to" in err
        for s, d in pairs:
            assert f"{s!r} -> {d!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("escape", ["../outside/SKILL.md", "skills/../../outside/SKILL.md",
                                    "ABSOLUTE"])
def test_load_rejects_paths_outside_the_library(tmp_path, capsys, escape):
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    # a readable, valid skill file just outside the library root
    outside = tmp_path / "outside" / "SKILL.md"
    outside.parent.mkdir()
    outside.write_text((target / "skills" / lib.skills[0].id / "SKILL.md").read_text())
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["skills"][0]["path"] = str(outside) if escape == "ABSOLUTE" else escape
    (target / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="leaves the library"):
        load_library(target)
    assert main(["diagnose", "--lib", str(target)]) == 2
    assert "error:" in capsys.readouterr().err


def _read_spy(monkeypatch):
    """Every chunk os.read returns from now on."""
    chunks = []
    real_read = os.read

    def spy(fd, n):
        chunk = real_read(fd, n)
        chunks.append(chunk)
        return chunk

    monkeypatch.setattr(os, "read", spy)
    return chunks


@pytest.mark.parametrize("link", ["skill-file", "skill-dir", "manifest", "inside"])
def test_load_refuses_symlinks_below_the_root(tmp_path, capsys, monkeypatch, link):
    lib, prov = build_library(30, 0.3, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    skill_dir = target / "skills" / lib.skills[0].id
    # an outside copy of the linked file or directory, marked so that
    # reading it shows
    outside = tmp_path / "outside"
    shutil.copytree(skill_dir, outside)
    if link == "manifest":
        original = target / "manifest.json"
        marked = original.read_text().replace('"clean"', '"clean-outside"')
    else:
        original = skill_dir / "SKILL.md"
        marked = original.read_text().replace("\n## Operation\n", "\n## Operation\nOUTSIDE\n")
    (outside / original.name).write_text(marked)
    if link == "skill-dir":
        shutil.rmtree(skill_dir)
        skill_dir.symlink_to(outside, target_is_directory=True)
    elif link == "inside":  # a symlink that stays in the library is refused too
        original.unlink()
        original.symlink_to(target / "skills" / lib.skills[1].id / "SKILL.md")
    else:
        original.unlink()
        original.symlink_to(outside / original.name)
    chunks = _read_spy(monkeypatch)
    with pytest.raises(ManifestError, match="symlink") as err:
        load_library(target)
    assert str(target) in str(err.value)
    assert main(["diagnose", "--lib", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not any(b"OUTSIDE" in c or b"clean-outside" in c for c in chunks)


def test_load_refuses_a_file_where_a_directory_belongs(tmp_path):
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    skill_dir = target / "skills" / lib.skills[0].id
    shutil.rmtree(skill_dir)
    skill_dir.write_text("not a directory\n")
    with pytest.raises(ManifestError, match=str(skill_dir)):
        load_library(target)


@pytest.mark.parametrize("kind", ["fifo-skill", "fifo-manifest", "dir-skill"])
def test_cli_refuses_a_file_that_is_not_regular(tmp_path, kind):
    # in a subprocess with a timeout: a read that blocks fails the test
    # instead of hanging the suite
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    odd = target / ("manifest.json" if kind == "fifo-manifest" else
                    f"skills/{lib.skills[0].id}/SKILL.md")
    odd.unlink()
    if kind == "dir-skill":
        odd.mkdir()
    else:
        os.mkfifo(odd)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "skillops", "diagnose", "--lib", str(target)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {odd} is not a regular file\n"


@pytest.mark.parametrize("path", ["./skills/{sid}/SKILL.md", "skills//{sid}/SKILL.md",
                                  "skills/{sid}/./SKILL.md", "skills/{sid}/SKILL.md/"])
def test_load_refuses_unclean_manifest_paths(tmp_path, path):
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["skills"][0]["path"] = path.format(sid=lib.skills[0].id)
    (target / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="leaves the library"):
        load_library(target)


def test_load_follows_a_symlinked_root_and_reports_a_missing_file(tmp_path):
    lib, prov = build_library(30, 0.3, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    alias = tmp_path / "alias"
    alias.symlink_to(target, target_is_directory=True)
    assert load_library(alias) == load_library(target)
    missing = target / "skills" / lib.skills[3].id / "SKILL.md"
    missing.unlink()
    with pytest.raises(FileNotFoundError, match=str(alias / missing.relative_to(target))):
        load_library(alias)
    with pytest.raises(ManifestError, match="has no manifest.json"):
        load_library(tmp_path / "nowhere")


@pytest.mark.parametrize("bad_id", ["../../escaped", "abc\n"])
def test_save_refuses_a_bad_skill_id_before_deleting_anything(tmp_path, bad_id):
    lib, prov = build_library(5, 0.0, seed=2)
    out = tmp_path / "work" / "out"
    save_library(lib, out, prov)
    before, paths = _tree_bytes(tmp_path), sorted(tmp_path.rglob("*"))
    bad = Library(skills=lib.skills[:-1] + (replace(lib.skills[-1], id=bad_id),))
    with pytest.raises(ContractInvariantError, match="bad skill id"):
        save_library(bad, out, prov)
    assert _tree_bytes(tmp_path) == before
    assert sorted(tmp_path.rglob("*")) == paths  # no directory made either


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_load_reads_skill_files_with_cr_line_ends(tmp_path, ending):
    lib = Library(skills=(_skill("a", ["x"], ["y"], tags=frozenset({"t1", "t2"})),
                          _skill("b", ["y"], ["z"])))
    target = tmp_path / "lib"
    save_library(lib, target)
    path = target / "skills" / "a" / "SKILL.md"
    path.write_bytes(path.read_bytes().replace(b"\n", ending))
    loaded, _ = load_library(target)
    assert loaded == lib
    assert library_fingerprint(loaded) == library_fingerprint(lib)


def test_load_reads_a_skill_file_with_a_byte_order_mark(tmp_path):
    lib = Library(skills=(_skill("a", ["x"], ["y"]), _skill("b", ["y"], ["z"])))
    target = tmp_path / "lib"
    save_library(lib, target)
    path = target / "skills" / "a" / "SKILL.md"
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    loaded, _ = load_library(target)
    assert loaded == lib
    assert library_fingerprint(loaded) == library_fingerprint(lib)


def test_load_shares_equal_set_texts_within_one_call(tmp_path):
    lib = Library(skills=(
        _skill("a", ["x", "y"], ["z"], tags=frozenset({"t"})),
        _skill("b", ["x", "y"], ["y"], tags=frozenset({"t"})),
        _skill("c", ["y"], ["z"]),
    ))
    target = tmp_path / "lib"
    save_library(lib, target)
    loaded, _ = load_library(target)
    a, b, c = loaded.skills
    assert loaded == lib
    assert a.preconditions is b.preconditions  # same "[x, y]" text
    assert a.tags is b.tags
    assert a.artifact_types is c.artifact_types
    # "[y]" is read as b's artifact.type and as c's preconditions
    assert b.artifact_types is c.preconditions
    # nothing outlives the call: a fresh parse or load builds its own sets
    text = (target / "skills" / "a" / "SKILL.md").read_text()
    alone = parse_skill_file(text)
    assert alone == a and alone.preconditions is not a.preconditions
    assert parse_skill_file(text).preconditions is not alone.preconditions
    again, _ = load_library(target)
    assert again == loaded and again.skills[0].preconditions is not a.preconditions


def test_load_reports_list_syntax_after_a_shared_set(tmp_path):
    # b's preconditions text was read for a; its artifact.type and tags
    # lists are both broken, and artifact.type is still reported first
    tags = frozenset({"t"})
    lib = Library(skills=(_skill("a", ["x"], ["y"], tags=tags),
                          _skill("b", ["x"], ["y"], tags=tags)))
    target = tmp_path / "lib"
    save_library(lib, target)
    path = target / "skills" / "b" / "SKILL.md"
    bad = path.read_text().replace("artifact.type: [y]", "artifact.type: y")
    path.write_text(bad.replace("tags: [t]", "tags: t"))
    with pytest.raises(MalformedFrontMatter) as err:
        load_library(target)
    assert str(err.value) == "skills/b/SKILL.md: artifact.type: expected a [a, b] list, got 'y'"


def test_truncated_manifest_names_the_file_and_exits_two(tmp_path, capsys):
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    path = target / "manifest.json"
    path.write_text(path.read_text()[:33])
    with pytest.raises(ManifestError) as err:
        load_library(target)
    assert str(err.value).startswith(f"{path}: invalid JSON (")
    assert main(["diagnose", "--lib", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


# json raises a bare ValueError, not a JSONDecodeError, past this many digits
_LONG_INT = "9" * 5000


def test_an_over_long_integer_in_the_manifest_names_the_file(tmp_path, capsys):
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    path = target / "manifest.json"
    path.write_text(path.read_text().replace('"format_version": 1', f'"format_version": {_LONG_INT}'))
    with pytest.raises(ManifestError) as err:
        load_library(target)
    assert str(err.value).startswith(f"{path}: invalid JSON (Exceeds the limit")
    assert main(["diagnose", "--lib", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_load_reads_a_manifest_with_a_byte_order_mark(tmp_path):
    lib, prov = build_library(3, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    path = target / "manifest.json"
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert load_library(target) == (lib, prov)


def test_load_keeps_extras_and_a_failure_modes_section(tmp_path):
    skill = _skill("a", ["x"], ["y"], failure_modes=frozenset({"timeout"}),
                   extras=(("x-origin", "legacy batch 7"), ("x-owner", "ops")))
    target = tmp_path / "lib"
    save_library(Library(skills=(skill,)), target)
    path = target / "skills" / "a" / "SKILL.md"
    path.write_text(path.read_text() + "## Failure Modes\n- malformed-cell\n\n- timeout\n")
    loaded, _ = load_library(target)
    want = replace(skill, failure_modes=frozenset({"timeout", "malformed-cell"}))
    assert loaded.skills == (want,)
    assert loaded.skills[0].extras == (("x-origin", "legacy batch 7"), ("x-owner", "ops"))
    # the section's items move into front matter on save, and stay put
    save_library(loaded, tmp_path / "again")
    assert load_library(tmp_path / "again")[0] == loaded


def test_cli_reports_a_malformed_skill_file(tmp_path, capsys):
    lib, prov = build_library(4, 0.0, seed=2)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    path = target / "skills" / lib.skills[1].id / "SKILL.md"
    bad = path.read_text().replace("\ngoal: ", "\ngoal: x\ngoal: ", 1)
    path.write_text(bad)
    with pytest.raises(MalformedFrontMatter) as err:
        parse_skill_file(bad)
    assert str(err.value) == "duplicate front matter key: goal"
    assert main(["diagnose", "--lib", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: skills/{lib.skills[1].id}/SKILL.md: {err.value}\n"


def test_a_broken_skill_file_in_a_library_names_its_file(tmp_path, capsys):
    lib, prov = build_library(30, 0.0, seed=4)
    target = tmp_path / "lib"
    save_library(lib, target, prov)
    sid = lib.skills[17].id
    path = target / "skills" / sid / "SKILL.md"
    path.write_text(path.read_text().replace("\n---\n", "\n", 1))
    with pytest.raises(MalformedFrontMatter) as err:
        load_library(target)
    assert str(err.value) == f"skills/{sid}/SKILL.md: front matter fence is never closed"
    assert main(["diagnose", "--lib", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


# ---------------------------------------------------------------------------
# traces

def test_trace_roundtrip(tmp_path):
    trace = ExecutionTrace(
        entries=(
            TraceEntry("t1", "a", 0, "success"),
            TraceEntry("t1", "b", 1, "failure", "broken-link:scripts/x.sh"),
            TraceEntry("t2", "a", 0, "success"),
        )
    )
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    assert load_trace(path) == trace
    # blank lines are tolerated
    path.write_text(path.read_text() + "\n\n")
    assert load_trace(path) == trace


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("{not json", "invalid JSON"),
        ('["a list"]', "expected an object"),
        ('{"task_id": "t", "skill_id": "a", "step": 0}', "missing keys"),
        ('{"step": 0}', "missing keys: ['outcome', 'skill_id', 'task_id']"),
        (
            '{"task_id": "t", "skill_id": "a", "step": 0, "outcome": "maybe"}',
            "unknown outcome",
        ),
        (
            '{"task_id": "t", "skill_id": "a", "step": "0", "outcome": "success"}',
            "step must be an integer",
        ),
        (
            '{"task_id": "t", "skill_id": "a", "step": true, "outcome": "success"}',
            "step must be an integer",
        ),
        (
            '{"task_id": "t", "skill_id": "a", "step": 1, "outcome": "failure",'
            ' "error_code": [1, 2]}',
            "error_code must be a string or null",
        ),
        (
            '{"task_id": "t", "skill_id": "a", "step": 1, "outcome": "failure",'
            ' "error_code": 7}',
            "error_code must be a string or null",
        ),
        (
            '{"task_id": "t", "skill_id": null, "step": 1, "outcome": "success"}',
            "task_id and skill_id must be strings",
        ),
        (
            '{"task_id": ["x"], "skill_id": "a", "step": 1, "outcome": "success"}',
            "task_id and skill_id must be strings",
        ),
        (
            '{"task_id": "t", "skill_id": 7, "step": 1, "outcome": "success"}',
            "task_id and skill_id must be strings",
        ),
    ],
)
def test_trace_malformed_lines(tmp_path, line, fragment):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"task_id": "t0", "skill_id": "a", "step": 0, "outcome": "success"}\n'
        + line
        + "\n"
    )
    with pytest.raises(MalformedTraceLine) as err:
        load_trace(path)
    assert err.value.line_no == 2
    assert fragment in str(err.value)


@pytest.mark.parametrize("error", [MalformedTraceLine, MalformedQueryLine])
def test_an_over_long_integer_on_a_json_line_names_the_line(tmp_path, error):
    path = tmp_path / "lines.jsonl"
    path.write_text(f'{{"first": true}}\n{{"step": {_LONG_INT}}}\n')
    with pytest.raises(error) as err:
        list(_json_objects(path, error))
    assert err.value.line_no == 2
    assert str(err.value).startswith(f"{error.what} line 2: invalid JSON (Exceeds the limit")


def test_trace_steps_must_increase_per_task_after_every_line_parses(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [
        '{"task_id": "t", "skill_id": "a", "step": 1, "outcome": "success"}',
        '{"task_id": "u", "skill_id": "a", "step": 0, "outcome": "success"}',
        '{"task_id": "t", "skill_id": "a", "step": 1, "outcome": "success"}',
        '{"task_id": "u", "skill_id": "a", "step": 0, "outcome": "success"}',
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SkillOpsError) as err:
        load_trace(path)
    assert type(err.value) is SkillOpsError
    assert str(err.value) == "step indices must strictly increase per task: t"
    # a malformed line anywhere wins, as it did when the whole trace was checked last
    path.write_text("\n".join(lines) + '\n{"step": 2}\n')
    with pytest.raises(MalformedTraceLine) as err:
        load_trace(path)
    assert err.value.line_no == 5


def test_trace_error_code_may_be_null_and_bad_types_exit_two(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"task_id": "t", "skill_id": "a", "step": 0, "outcome": "failure",'
                    ' "error_code": null}\n')
    assert load_trace(path).entries == (TraceEntry("t", "a", 0, "failure", None),)
    lib, prov = build_library(3, 0.0, seed=2)
    libdir = str(tmp_path / "lib")
    save_library(lib, libdir, prov)
    for line in ('{"task_id": "t", "skill_id": "a", "step": false, "outcome": "success"}',
                 '{"task_id": "t", "skill_id": "a", "step": 0, "outcome": "failure",'
                 ' "error_code": {"code": 1}}'):
        path.write_text(line + "\n")
        assert main(["diagnose", "--lib", libdir, "--trace", str(path)]) == 2
        assert "trace line 1:" in capsys.readouterr().err


def test_trace_with_a_byte_order_mark_loads(tmp_path):
    trace = exercise_library(build_library(6, 0.5, seed=3)[0], calls=2)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert load_trace(path) == trace


def reference_json_objects(path, error):
    """_json_objects as it was before the single-call decode: json.loads on
    every line (a leading byte-order mark aside)."""
    text = Path(path).read_text(encoding="utf-8-sig")
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise error(line_no, f"invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict):
            raise error(line_no, "expected an object")
        yield line_no, obj


def _decoded(read, path, error):
    """The list a JSON-lines reader yields, or (line_no, message, type)."""
    try:
        return list(read(path, error))
    except error as e:
        return e.line_no, str(e), type(e)


def _assert_decodes_like_json_loads(path):
    for error in (MalformedTraceLine, MalformedQueryLine):
        assert (_decoded(_json_objects, path, error)
                == _decoded(reference_json_objects, path, error))


@pytest.mark.parametrize("line", [
    ' {"a": 1}', '{"a": 1} ', '\t{"a": [1, {"b": null}]}\t ', '{"a": 1}\r', ' {} \r',
])
def test_json_lines_with_json_whitespace_still_load(tmp_path, line):
    path = tmp_path / "lines.jsonl"
    path.write_text('{"first": true}\n' + line + "\n", newline="")
    assert _decoded(_json_objects, path, MalformedTraceLine) == [
        (1, {"first": True}), (2, json.loads(line))
    ]
    _assert_decodes_like_json_loads(path)


@pytest.mark.parametrize("line,message", [
    ('\f{"a": 1}', "invalid JSON (Expecting value)"),
    ('\u00a0{"a": 1}', "invalid JSON (Expecting value)"),
    ('{"a": 1}\f', "invalid JSON (Extra data)"),
    ('{"a": 1}\u00a0', "invalid JSON (Extra data)"),
    ("{} {}", "invalid JSON (Extra data)"),
    ("\ufeff{}", "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ('{"a": 1', "invalid JSON (Expecting ',' delimiter)"),
    ("5", "expected an object"),
    (' "text" ', "expected an object"),
    ("null", "expected an object"),
    ("[{}]", "expected an object"),
])
def test_json_lines_keep_their_rejections(tmp_path, line, message):
    path = tmp_path / "lines.jsonl"
    path.write_text('{"first": true}\n' + line + "\n", newline="")
    for error in (MalformedTraceLine, MalformedQueryLine):
        want = (2, f"{error.what} line 2: {message}", error)
        assert _decoded(_json_objects, path, error) == want
    _assert_decodes_like_json_loads(path)


_JSON_PIECES = ('{', '}', '[', ']', '"a"', '"\\u00e9"', ':', ',', '1', '-0.5e3', 'null',
                'true', ' ', '\t', '\r', '\f', '\u00a0', '\ufeff', 'x', '\n')


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_JSON_PIECES), max_size=12).map("".join))
def test_json_lines_decode_like_json_loads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "lines.jsonl"
    path.write_text('{"first": true}\n' + text + '\n{"last": 1}\n', newline="")
    _assert_decodes_like_json_loads(path)


# ---------------------------------------------------------------------------
# simulated execution

def test_executor_verdicts_by_artifact_state():
    lib, prov = build_library(40, 0.5, seed=8)
    ex = SimulatedExecutor(lib)
    task = TaskSpec(id="t", goal_text="g")
    for s in lib.skills:
        ok, err = ex(task, s.id, (), 0, None)
        p = prov[s.id]
        if ":missing_artifact:" in p:
            assert (ok, err) == (False, "empty-artifacts")
        elif ":stale_clone:" in p:
            assert not ok and err.startswith("broken-link:references/")
        else:
            assert ok and err is None
    assert ex.invocations == len(lib)
    assert ex.external_model_calls == 0


def test_executor_unknown_ids_and_scripts():
    lib, _ = build_library(5, 0.0, seed=1)
    sid = sorted(lib.ids())[0]
    scripted = {("t", sid, 0): (False, "synthetic")}
    ex = SimulatedExecutor(lib, scripted=scripted)
    task = TaskSpec(id="t", goal_text="g")
    assert ex(task, "adapt--a--b", (), 0, None) == (True, None)
    assert ex(task, sid, (), 0, None) == (False, "synthetic")
    assert ex(task, sid, (), 1, None) == (True, None)  # only attempt 0 scripted


def test_exercise_library_traces_every_skill():
    lib, prov = build_library(20, 0.5, seed=8)
    trace = exercise_library(lib, calls=4)
    assert len(trace.entries) == 4 * len(lib)
    trace.validate()
    by_skill = {}
    for e in trace.entries:
        by_skill.setdefault(e.skill, []).append(e.outcome)
    for sid, outcomes in by_skill.items():
        assert len(set(outcomes)) == 1  # verdicts are deterministic per skill
        broken = ":missing_artifact:" in prov[sid] or ":stale_clone:" in prov[sid]
        assert (outcomes[0] == "failure") == broken
    assert exercise_library(lib, calls=4) == trace


def reference_exercise(lib, calls=4):
    """The replaying probe loop: one TaskSpec per skill and one executor
    call per attempt."""
    ex = SimulatedExecutor(lib)
    entries = []
    for s in sorted(lib.skills, key=lambda s: s.id):
        task = TaskSpec(id=f"probe-{s.id}", goal_text=s.goal)
        for i in range(calls):
            ok, err = ex(task, s.id, (), i, None)
            entries.append(
                TraceEntry(
                    task_id=task.id,
                    skill=s.id,
                    step=i,
                    outcome="success" if ok else "failure",
                    error_code=None if ok else err,
                )
            )
    assert ex.invocations == calls * len(lib)
    return ExecutionTrace(entries=tuple(entries))


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("calls", [0, 1, 4])
def test_exercise_library_equals_the_replaying_loop(seed, calls):
    lib, prov = build_library(300, 0.6, seed)
    trace = exercise_library(lib, calls=calls)
    assert trace == reference_exercise(lib, calls=calls)
    if calls:
        codes = {e.error_code for e in trace.entries}
        assert "empty-artifacts" in codes
        assert any(c and c.startswith("broken-link:") for c in codes)
        assert None in codes


# ---------------------------------------------------------------------------
# scenarios

def test_retrieval_scenario_decoys_crowd_out_the_answer():
    lib, queries = build_retrieval_scenario(6)
    assert len(lib) == 6 * 8
    from skillops.harness import _eval_condition

    raw = _eval_condition(lib, queries, 5)
    assert raw["precision_at_k"] == 0.0
    assert raw["hits"] == 0

    maintained_lib, report = run_maintenance(lib, EMPTY_TRACE, MaintenanceConfig())
    assert report.action_counts.get("merge", 0) == 6
    after = _eval_condition(maintained_lib, queries, 5)
    assert after["precision_at_k"] == pytest.approx(0.2)
    assert after["hits"] == 6


def test_retrieval_scenario_needs_a_query():
    with pytest.raises(ConfigInvalid, match="^need at least one query$"):
        build_retrieval_scenario(0)


@pytest.mark.parametrize("k, retrieved", [(5, 10), (10, 10), (20, 20)])
def test_eval_shortlist_holds_at_least_k_ids(monkeypatch, k, retrieved):
    # 160 skills: a shortlist of the default 10 would cap a k of 20 at 10 ids
    from skillops import harness
    from skillops.harness import _eval_condition

    lib, queries = build_retrieval_scenario(20)
    lengths = []
    real = harness.rank_candidates

    def recording(*args):
        ranked = real(*args)
        lengths.append(len(ranked))
        return ranked

    monkeypatch.setattr(harness, "rank_candidates", recording)
    _eval_condition(lib, queries, k)
    assert lengths == [retrieved] * len(queries)


def test_pipeline_retrieval_scenario_improves_strictly():
    report = run_pipeline("retrieval-20", seed=0)
    raw = report.conditions["raw"]
    maintained = report.conditions["maintained"]
    assert raw["precision_at_k"] == 0.0
    assert maintained["precision_at_k"] == pytest.approx(0.2)
    assert maintained["precision_at_k"] > raw["precision_at_k"]
    assert report.external_model_calls == 0
    assert set(report.timing_s) == {"build", "eval_raw", "maintain", "eval_maintained"}


def test_pipeline_clean_scenario_is_a_no_op():
    report = run_pipeline("clean-200", seed=0)
    assert not any(report.maintenance["action_counts"].values())
    assert report.conditions["raw"] == report.conditions["maintained"]


def test_pipeline_rejects_unknown_scenario():
    with pytest.raises(ConfigInvalid):
        run_pipeline("chaos-9000", seed=0)


def test_pipeline_is_deterministic_modulo_timing():
    a = run_pipeline("retrieval-20", seed=3).as_dict()
    b = run_pipeline("retrieval-20", seed=3).as_dict()
    a.pop("timing_s")
    b.pop("timing_s")
    assert a == b


def test_pipeline_retrieval_scenario_ignores_the_seed():
    a = run_pipeline("retrieval-20", seed=0).as_dict()
    b = run_pipeline("retrieval-20", seed=3).as_dict()
    assert (a.pop("seed"), b.pop("seed")) == (0, 3)
    a.pop("timing_s")
    b.pop("timing_s")
    assert a == b


def test_retrieval_metrics_on_retrieval_20():
    # the real skill sits at rank 2 behind a decoy after maintenance: every
    # query hits, so precision is capped at 1/k while MRR and recall say more
    report = run_pipeline("retrieval-20", seed=0)
    raw, maintained = report.conditions["raw"], report.conditions["maintained"]
    for cond in (raw, maintained):
        assert cond["hit_rate_at_k"] == cond["hits"] / cond["n"]
    assert (raw["hit_rate_at_k"], raw["mrr_at_k"], raw["recall_at_k"]) == (0.0, 0.0, 0.0)
    assert maintained["hit_rate_at_k"] == 1.0
    assert maintained["mrr_at_k"] == 0.5
    assert maintained["recall_at_k"] == 1.0


def test_eval_lists_each_query_with_its_top_k():
    report = run_pipeline("retrieval-20", seed=0)
    _, queries = build_retrieval_scenario(20)
    for cond in report.conditions.values():
        entries = cond["queries"]
        assert [e["query"] for e in entries] == [text for text, _ in queries]
        assert all(len(e["top_k"]) == report.k for e in entries)
        assert sum(e["hit"] for e in entries) == cond["hits"]
    # before maintenance the decoys crowd every top k; after it the real
    # skill of query NN, real-NN, is among them
    assert not any(e["hit"] for e in report.conditions["raw"]["queries"])
    for i, entry in enumerate(report.conditions["maintained"]["queries"]):
        assert entry["hit"] and f"real-{i:02d}" in entry["top_k"]


def test_recall_counts_only_relevant_ids_the_library_holds(tmp_path, capsys):
    lib = Library(skills=(
        _skill("load-a", [], ["out"], body="Load the batch into the store."),
        _skill("load-b", [], ["out"], body="Load the batch into the store."),
        _skill("other", [], ["out"], body="Rotate the api keys."),
    ))
    libdir = str(tmp_path / "lib")
    save_library(lib, libdir)
    queries = tmp_path / "q.jsonl"
    queries.write_text(
        json.dumps({"query": "load batch store", "relevant": ["load-a", "gone"]}) + "\n"
        + json.dumps({"query": "rotate keys", "relevant": ["gone"]}) + "\n"
    )
    code, out = _run(capsys, ["eval-retrieval", "--lib", libdir, "--queries", str(queries),
                              "--k", "2"])
    assert code == 0
    assert out["hits"] == 1 and out["n"] == 2
    # query 1: load-a is held and found (1/1), query 2 holds none of its ids (0)
    assert out["recall_at_k"] == 0.5
    assert out["mrr_at_k"] == 0.5
    assert out["hit_rate_at_k"] == 0.5


# ---------------------------------------------------------------------------
# command line

def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cli_inject_diagnose_maintain(tmp_path, capsys):
    libdir = str(tmp_path / "lib")
    code, out = _run(
        capsys, ["inject", "--n", "40", "--noise", "0.5", "--seed", "8", "--out", libdir]
    )
    assert code == 0
    assert out["size"] == 40 and out["degraded"] == 20

    code, report = _run(capsys, ["diagnose", "--lib", libdir])
    assert code == 0
    assert 0.0 <= report["H"] <= 1.0
    assert len(report["per_skill"]) == 40

    graph_file = str(tmp_path / "graph.json")
    code, report = _run(
        capsys,
        ["diagnose", "--lib", libdir, "--cgpd", "--alpha", "0.6", "--dump-graph", graph_file],
    )
    assert code == 0
    assert "risk" in report and "triggered" in report
    assert json.loads((tmp_path / "graph.json").read_text())["nodes"]

    outdir = str(tmp_path / "maintained")
    code, mreport = _run(
        capsys, ["maintain", "--lib", libdir, "--out", outdir]
    )
    assert code == 0
    assert mreport["size_before"] == 40
    assert mreport["size_after"] == 40 - sum(
        len(a["drops"]) for a in mreport["actions"] if a["kind"] == "merge"
    ) - sum(1 for a in mreport["actions"] if a["kind"] == "retire")
    loaded, _ = load_library(outdir)
    assert len(loaded) == mreport["size_after"]
    assert mreport["external_model_calls"] == 0


@pytest.mark.parametrize("spelling", ["same", "dot-segment", "symlink"])
def test_cli_maintain_refuses_to_save_over_its_input(tmp_path, capsys, spelling):
    libdir = tmp_path / "lib"
    tool = _skill("tool", ["x"], ["y"], artifact_dirs=ArtifactDirs(scripts=("run.sh",)))
    save_library(Library(skills=(tool,)), libdir)
    script = libdir / "skills" / "tool" / "scripts" / "run.sh"
    script.write_bytes(b"#!/bin/sh\necho real work\n")  # the user's real script
    before = {p: p.read_bytes() for p in libdir.rglob("*") if p.is_file()}
    out = {"same": libdir, "dot-segment": libdir / "skills" / "..",
           "symlink": tmp_path / "alias"}[spelling]
    if spelling == "symlink":
        out.symlink_to(libdir)
    code = main(["maintain", "--lib", str(libdir), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--out must not be the --lib directory" in captured.err
    assert captured.out == ""
    assert {p: p.read_bytes() for p in libdir.rglob("*") if p.is_file()} == before


def test_cli_plan_and_grade(tmp_path, capsys):
    a = _skill("step-one", ["raw"], ["clean"], body="Normalize the raw batch input.")
    b = _skill(
        "step-two", ["clean"], ["loaded"], body="Load the clean batch into the store."
    )
    lib = Library(skills=(a, b))
    libdir = str(tmp_path / "lib")
    save_library(lib, libdir)

    code, plan = _run(
        capsys,
        [
            "plan",
            "--lib",
            libdir,
            "--goal",
            "normalize and load the batch",
            "--state",
            "raw,clean",
        ],
    )
    assert code == 0
    assert plan["feasible"] is True
    assert [s["skill"] for s in plan["steps"]] == ["step-one", "step-two"]

    code, verdict = _run(
        capsys,
        ["grade", "--actions", "invoke:step-one,invoke:step-two",
         "--gold-list", "invoke:step-one,invoke:step-two"],
    )
    assert code == 0 and verdict["exact_match"] is True

    code, verdict = _run(
        capsys,
        ["grade", "--actions", "invoke:step-two",
         "--gold-list", "invoke:step-one,invoke:step-two"],
    )
    assert code == 1 and verdict["exact_match"] is False

    code, verdict = _run(capsys, ["grade", "--actions", "", "--gold-list", ""])
    assert code == 0 and verdict == {"exact_match": True, "predicted": [], "gold": []}


@pytest.mark.parametrize("argv", [
    [],
    ["--actions", "a"],
    ["--gold-list", "a"],
    ["--plan", "p.json", "--actions", "a", "--gold-list", "a"],
    ["--actions", "a", "--gold", "g.json", "--gold-list", "a"],
])
def test_cli_grade_needs_exactly_one_input_per_side(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["grade", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_grade_reads_json_files_with_a_byte_order_mark(tmp_path, capsys):
    plan, gold = tmp_path / "plan.json", tmp_path / "gold.json"
    plan.write_bytes(codecs.BOM_UTF8 + b'{"actions": ["a", "b"]}')
    gold.write_bytes(codecs.BOM_UTF8 + b'["a", "b"]')
    code, verdict = _run(capsys, ["grade", "--plan", str(plan), "--gold", str(gold)])
    assert (code, verdict["exact_match"], verdict["gold"]) == (0, True, ["a", "b"])


@pytest.mark.parametrize("flag", ["--plan", "--gold"])
def test_cli_grade_names_a_json_file_it_cannot_parse(tmp_path, capsys, flag):
    path = tmp_path / "actions.json"
    path.write_text('{"actions": [')
    with pytest.raises(ConfigInvalid) as err:
        _read_action_list(str(path))
    assert str(err.value).startswith(f"{path}: invalid JSON (")
    argv = ["grade", flag, str(path)]
    argv += ["--gold-list", "a"] if flag == "--plan" else ["--actions", "a"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    path.write_text(f'{{"actions": [{_LONG_INT}]}}')
    with pytest.raises(ConfigInvalid) as err:
        _read_action_list(str(path))
    assert str(err.value).startswith(f"{path}: invalid JSON (Exceeds the limit")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize("text", ['{"actions": "a,b"}', '["a", 2]', '"a"', "{}"])
def test_cli_grade_names_a_json_file_that_is_not_an_action_list(tmp_path, capsys, text):
    path = tmp_path / "actions.json"
    path.write_text(text)
    assert main(["grade", "--plan", str(path), "--gold-list", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: expected a JSON list of action strings\n"


TRACE_LINE = b'{"task_id": "t", "skill_id": "a", "step": 0, "outcome": "success"}'


def _not_utf8_input(tmp_path, kind):
    """(path, argv, load) for one input kind whose file holds a byte that
    is not UTF-8; load reads the file the way the command does."""
    lib, prov = build_library(3, 0.0, seed=2)
    libdir = tmp_path / "lib"
    save_library(lib, libdir, prov)
    if kind == "trace":
        # the bad byte sits on line 2, after a CRLF line end
        path = tmp_path / "trace.jsonl"
        path.write_bytes(TRACE_LINE + b'\r\n{"task_id": "\xff"}\n')
        return path, ["diagnose", "--lib", str(libdir), "--trace", str(path)], load_trace
    if kind == "queries":
        path = tmp_path / "queries.jsonl"
        path.write_bytes(codecs.BOM_UTF8 + b'\xff{}\n')
        return (path, ["eval-retrieval", "--lib", str(libdir), "--queries", str(path)],
                lambda p: list(_json_objects(p, MalformedQueryLine)))
    if kind == "grade":
        path = tmp_path / "plan.json"
        path.write_bytes(b'["a", "\xff"]')
        return (path, ["grade", "--plan", str(path), "--gold-list", "a"],
                lambda p: _read_action_list(str(p)))
    if kind == "manifest":
        # a UTF-16 byte-order mark in front of the manifest
        path = libdir / "manifest.json"
        path.write_bytes(codecs.BOM_UTF16_LE + path.read_bytes())
    else:
        path = libdir / "skills" / lib.skills[1].id / "SKILL.md"
        path.write_bytes(path.read_bytes() + b"caf\xe9\n")
    return path, ["diagnose", "--lib", str(libdir)], lambda p: load_library(libdir)


@pytest.mark.parametrize("kind, error, where", [
    ("trace", MalformedTraceLine, "trace line 2: {path} is not UTF-8 at byte {at}"),
    ("queries", MalformedQueryLine, "query line 1: {path} is not UTF-8 at byte {at}"),
    ("manifest", ManifestError, "{path} is not UTF-8 at byte {at}"),
    ("skill", SkillParseError, "{path} is not UTF-8 at byte {at}"),
    ("grade", ConfigInvalid, "{path} is not UTF-8 at byte {at}"),
])
def test_bytes_that_are_not_utf8_name_their_file(tmp_path, capsys, kind, error, where):
    path, argv, load = _not_utf8_input(tmp_path, kind)
    at = path.read_bytes().index(b"\xff" if kind != "skill" else b"\xe9")
    with pytest.raises(error) as err:
        load(path)
    assert type(err.value) is error
    assert str(err.value).startswith(where.format(path=path, at=at) + " (")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_cli_plan_infeasible_exits_one(tmp_path, capsys):
    a = _skill("only", ["never-true"], ["out"])
    libdir = str(tmp_path / "lib")
    save_library(Library(skills=(a,)), libdir)
    code, payload = _run(capsys, ["plan", "--lib", libdir, "--goal", "anything"])
    assert code == 1
    assert payload["feasible"] is False


def test_cli_eval_retrieval(tmp_path, capsys):
    lib, queries = build_retrieval_scenario(4)
    libdir = str(tmp_path / "lib")
    save_library(lib, libdir)
    qfile = tmp_path / "queries.jsonl"
    qfile.write_text(
        "\n".join(
            json.dumps({"id": f"q{i}", "query": text, "relevant": sorted(rel)})
            for i, (text, rel) in enumerate(queries)
        )
        + "\n"
    )
    code, payload = _run(
        capsys, ["eval-retrieval", "--lib", libdir, "--queries", str(qfile)]
    )
    assert code == 0
    assert payload["n"] == 4
    assert payload["precision_at_k"] == 0.0  # decoys win before maintenance


def test_cli_eval_retrieval_reads_a_query_file_with_a_byte_order_mark(tmp_path, capsys):
    lib, queries = build_retrieval_scenario(4)
    libdir = str(tmp_path / "lib")
    save_library(lib, libdir)
    text = "".join(json.dumps({"query": q, "relevant": sorted(rel)}) + "\n"
                   for q, rel in queries)
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
    plain.write_text(text)
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    code, want = _run(capsys, ["eval-retrieval", "--lib", libdir, "--queries", str(plain)])
    assert code == 0 and want["n"] == 4
    assert _run(capsys, ["eval-retrieval", "--lib", libdir, "--queries", str(marked)]) == (0, want)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("5", "expected an object"),
        ("[1, 2]", "expected an object"),
        ("{not json", "invalid JSON"),
        ('{"query": "x"}', "need query and relevant keys"),
        ('{"query": "x", "relevant": 5}', "relevant must be a list"),
        ('{"query": "x", "relevant": [["a"]]}', "relevant must be a list"),
        ('{"query": null, "relevant": []}', "query must be a string"),
        ('{"query": ["x"], "relevant": []}', "query must be a string"),
    ],
)
def test_cli_eval_retrieval_malformed_query_lines_exit_two(tmp_path, capsys, line, fragment):
    lib, _ = build_retrieval_scenario(2)
    libdir = str(tmp_path / "lib")
    save_library(lib, libdir)
    qfile = tmp_path / "queries.jsonl"
    qfile.write_text('{"query": "fetch", "relevant": []}\n' + line + "\n")
    code = main(["eval-retrieval", "--lib", libdir, "--queries", str(qfile)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"query line 2: {fragment}" in err
    assert "trace line" not in err


def test_cli_pipeline_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, payload = _run(
        capsys,
        ["pipeline", "--scenario", "retrieval-20", "--seed", "1", "--out", str(out)],
    )
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert payload["external_model_calls"] == 0


def test_cli_seed_env_override(tmp_path, capsys, monkeypatch):
    lib_a = str(tmp_path / "a")
    lib_b = str(tmp_path / "b")
    lib_c = str(tmp_path / "c")
    monkeypatch.setenv("SKILLOPS_SEED", "777")
    _run(capsys, ["inject", "--n", "10", "--out", lib_a])
    _run(capsys, ["inject", "--n", "10", "--seed", "123", "--out", lib_b])
    monkeypatch.delenv("SKILLOPS_SEED")
    _run(capsys, ["inject", "--n", "10", "--seed", "777", "--out", lib_c])
    fp = lambda d: library_fingerprint(load_library(d)[0])
    assert fp(lib_a) == fp(lib_b) == fp(lib_c)  # env wins over the flag


def test_cli_errors_exit_two(tmp_path, capsys):
    code = main(["diagnose", "--lib", str(tmp_path / "missing")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    bad_trace = tmp_path / "bad.jsonl"
    bad_trace.write_text("{nope\n")
    lib, prov = build_library(3, 0.0, seed=2)
    libdir = str(tmp_path / "lib")
    save_library(lib, libdir, prov)
    code = main(["diagnose", "--lib", libdir, "--trace", str(bad_trace)])
    assert code == 2
    capsys.readouterr()
    for window in ("0", "-3"):  # a window that would keep the oldest calls
        assert main(["diagnose", "--lib", libdir, "--window", window]) == 2
        assert "window" in capsys.readouterr().err
    for eps in ("nan", "inf", "0"):
        assert main(["diagnose", "--lib", libdir, "--cgpd", "--eps", eps]) == 2
        assert "eps must be positive and finite" in capsys.readouterr().err

    monkey_env = {"SKILLOPS_SEED": "not-a-number"}
    import os

    old = os.environ.get("SKILLOPS_SEED")
    os.environ.update(monkey_env)
    try:
        code = main(["inject", "--n", "3", "--out", str(tmp_path / "x")])
        assert code == 2
    finally:
        if old is None:
            os.environ.pop("SKILLOPS_SEED", None)
        else:
            os.environ["SKILLOPS_SEED"] = old


def test_cli_diagnose_reports_whether_cgpd_converged(tmp_path, capsys):
    libdir = str(tmp_path / "lib")
    lib, prov = build_library(60, 0.5, seed=8)
    save_library(lib, libdir, prov)
    code, report = _run(
        capsys, ["diagnose", "--lib", libdir, "--cgpd", "--alpha", "0.99", "--max-iters", "64"]
    )
    assert code == 0
    assert report["risk_converged"] is False
    assert report["risk_iterations"] == 64
    code, report = _run(capsys, ["diagnose", "--lib", libdir, "--cgpd"])
    assert code == 0
    assert report["risk_converged"] is True
    code, report = _run(capsys, ["diagnose", "--lib", libdir])
    assert "risk_converged" not in report


def test_cli_diagnose_strict_exits_one_when_cgpd_does_not_converge(tmp_path, capsys):
    libdir = str(tmp_path / "lib")
    lib, prov = build_library(60, 0.5, seed=8)
    save_library(lib, libdir, prov)
    slow = ["diagnose", "--lib", libdir, "--cgpd", "--alpha", "0.99", "--max-iters", "64"]
    assert main(slow) == 0
    lenient = capsys.readouterr().out
    assert main(slow + ["--strict"]) == 1
    captured = capsys.readouterr()
    assert captured.out == lenient  # stdout is the same report
    assert json.loads(captured.out)["risk_converged"] is False
    assert main(["diagnose", "--lib", libdir, "--cgpd", "--strict"]) == 0
    assert json.loads(capsys.readouterr().out)["risk_converged"] is True
    assert main(["diagnose", "--lib", libdir, "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--strict needs --cgpd" in captured.err


@pytest.mark.parametrize("command", ["diagnose", "maintain"])
@pytest.mark.parametrize("flag,value", [
    ("--alpha", "0.9"), ("--tau", "0.5"), ("--eps", "1e-6"), ("--max-iters", "0"),
])
def test_cli_refuses_cgpd_flags_without_cgpd(tmp_path, capsys, command, flag, value):
    """A CGPD setting without --cgpd would be ignored, so it is refused with
    exit 2 before the library is read: here the library does not exist, and
    the error names the flag, not the missing directory."""
    assert main([command, "--lib", str(tmp_path / "missing"), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} needs --cgpd" in captured.err


def test_cli_plans_through_the_shim_maintain_saved(tmp_path, capsys):
    emit = _skill("emit", [], ["q"], body="Emit the q artifact.",
                  artifact_dirs=ArtifactDirs(scripts=("run.sh",)))
    need = _skill("need", ["q", "a", "b", "c"], [], body="Consume q with a, b and c.")
    libdir, outdir = tmp_path / "lib", tmp_path / "out"
    save_library(Library(skills=(emit, need)), libdir)
    code, report = _run(capsys, ["maintain", "--lib", str(libdir), "--out", str(outdir)])
    assert code == 0 and report["action_counts"]["add_adapter"] == 1
    (shim,) = load_library(outdir)[0].adapters
    code, plan = _run(capsys, ["plan", "--lib", str(outdir), "--goal", "emit need",
                               "--state", "q,a,b,c"])
    assert code == 0
    assert [(s["skill"], s["inserted"]) for s in plan["steps"]] == [
        ("emit", None),
        (shim.contract.id, "adapter"),
        ("need", None),
    ]
    assert plan["actions"] == ["emit", "need"]


def test_dumped_graph_does_not_depend_on_the_hash_seed(tmp_path):
    # shims for three pairs, each with its own types (c -> b's bridges
    # nothing), written in the manifest out of sort order; and a library
    # listing three shims for one pair, which load_library refuses
    a = _skill("a", pre=(), art=("x",))
    b = _skill("b", pre=("x", "y", "z"), art=())
    c = _skill("c", pre=("x", "y"), art=("x",))

    def write(target, shims):
        save_library(Library(skills=(a, b, c)), target)
        manifest = json.loads((target / "manifest.json").read_text())
        for n, (src, dst, types) in enumerate(shims):
            rel = f"adapters/{src}--{dst}-{n}/SKILL.md"
            (target / rel).parent.mkdir(parents=True)
            shim = _skill(f"adapt--{src}--{dst}-{n}", pre=("x",), art=types)
            (target / rel).write_text(serialize_skill_file(shim))
            manifest["adapters"].append({"src": src, "dst": dst, "path": rel})
        (target / "manifest.json").write_text(json.dumps(manifest))

    write(tmp_path / "lib", [("c", "b", ("x", "z")), ("a", "b", ("x", "y", "z")),
                             ("a", "c", ("x", "y"))])
    write(tmp_path / "repeated", [("a", "b", ("x", "y", "z")), ("a", "b", ("x", "y")),
                                  ("a", "b", ("x", "z"))])

    # a graph built in process may still carry several shims for one pair
    built_in_process = "\n".join([
        "import json",
        "from skillops.contract import AdapterShim, make_contract",
        "from skillops.hseg import build_hseg",
        "def skill(sid, pre, art):",
        "    return make_contract(id=sid, goal='g', preconditions=frozenset(pre),",
        "                         body=sid, artifact_types=frozenset(art))",
        "a, b = skill('a', (), ('x',)), skill('b', ('x', 'y', 'z'), ())",
        "shims = tuple(AdapterShim('a', 'b', skill(f't{n}', ('x',), types)) for n, types",
        "              in enumerate([('x', 'y', 'z'), ('x', 'y'), ('x', 'z')]))",
        "print(json.dumps(build_hseg([a, b], adapters=shims).export()))",
    ])

    src = str(Path(__file__).resolve().parent.parent / "src")
    dumps, refusals, exports = set(), set(), set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        graph = tmp_path / f"graph-{seed}.json"
        for lib, code in (("lib", 0), ("repeated", 2)):
            proc = subprocess.run(
                [sys.executable, "-m", "skillops", "diagnose", "--lib", str(tmp_path / lib),
                 "--dump-graph", str(graph)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == code, proc.stderr
        dumps.add(graph.read_text())
        refusals.add(proc.stderr)
        proc = subprocess.run([sys.executable, "-c", built_in_process],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        exports.add(proc.stdout)
    assert len(dumps) == 1
    assert json.loads(dumps.pop())["adapters"] == [
        {"src": s, "dst": d, "artifact_types": types}
        for s, d, types in (("a", "b", ["x", "y", "z"]), ("a", "c", ["x", "y"]),
                            ("c", "b", ["x", "z"]))
    ]
    assert len(refusals) == 1 and "both save to" in refusals.pop()
    assert len(exports) == 1
    assert json.loads(exports.pop())["adapters"] == [
        {"src": "a", "dst": "b", "artifact_types": types}
        for types in (["x", "y"], ["x", "y", "z"], ["x", "z"])
    ]


def test_python_dash_m_skillops_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "skillops", "grade", "--actions", "a,b", "--gold-list", "a,c"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1  # the lists differ
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["exact_match"] is False


def test_demo_script_runs_without_model_calls():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_demo.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "external model calls: 0" in proc.stdout.splitlines()
