"""On-disk formats, evaluation metrics, the simulated executor, scripted
pipelines and the command line interface.

A library directory looks like:

    <dir>/manifest.json
    <dir>/skills/<id>/SKILL.md
    <dir>/skills/<id>/{scripts,references,assets}/<file>
    <dir>/adapters/<src>--<dst>/SKILL.md

The manifest carries format_version, per-skill provenance and the adapter
pairs; the skill files' front matter is authoritative on load.  Execution
traces are JSONL, one {task_id, skill_id, step, outcome[, error_code]}
object per line.

The simulated executor is pure bookkeeping: an invocation fails when the
skill's artifact directories are all empty, or when its body links to a
file the directories no longer hold.  Nothing here calls out to any model
or network; rerunning any command with the same inputs and seed writes the
same bytes (timing fields aside).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import shutil
import stat
import sys
import time
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

from skillops.cgpd import CgpdConfig, propagate, trigger_set
from skillops.contract import (
    ARTIFACT_DIR_NAMES,
    AdapterShim,
    ArtifactDirs,
    ConfigInvalid,
    Library,
    SkillOpsError,
    SkillParseError,
    _ID_RE,
    _TAG_RE,
    _ParseContext,
    _parse_skill_file,
    body_hash,
    library_fingerprint,
    make_contract,
    parse_skill_file,  # unused here; skillbench/tracing.py wraps harness.parse_skill_file
    serialize_skill_file,
)
from skillops.debtgen import (
    Xorshift64Star,
    build_library,
    derive_seed,
    extract_artifact_links,
)
from skillops.health import _check_window, library_health
from skillops.hseg import Hseg, build_hseg
from skillops.maint import MaintenanceConfig, run_maintenance
from skillops.planner import (
    EMPTY_TRACE,
    OUTCOMES,
    ExecutionTrace,
    NoFeasiblePlan,
    PlannerConfig,
    TaskSpec,
    build_plan,
    grade_plan,
    plan_action_strings,
    rank_candidates,
)

__all__ = [
    "ManifestError",
    "MalformedQueryLine",
    "MalformedTraceLine",
    "EvalReport",
    "SimulatedExecutor",
    "FORMAT_VERSION",
    "SEED_ENV_VAR",
    "build_retrieval_scenario",
    "diagnose_payload",
    "exercise_library",
    "load_library",
    "load_trace",
    "main",
    "plan_payload",
    "precision_at_k",
    "run_pipeline",
    "save_library",
    "save_trace",
    "wilson_ci",
]

FORMAT_VERSION = 1
SEED_ENV_VAR = "SKILLOPS_SEED"


class ManifestError(SkillOpsError):
    pass


class _MalformedLine(SkillOpsError):
    what = "input"

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"{self.what} line {line_no}: {reason}")
        self.line_no = line_no


class MalformedTraceLine(_MalformedLine):
    what = "trace"


class MalformedQueryLine(_MalformedLine):
    what = "query"


_DECODER = json.JSONDecoder()


def _read_text(path: str | Path, error: type[SkillOpsError]) -> str:
    """The file's text, a leading byte-order mark dropped and line ends left
    as they are.  Bytes that are not UTF-8 raise `error` naming the file and
    the byte, and for a JSON-lines error the line (CR, LF and CRLF end one)."""
    with open(path, "rb") as f:
        return _decode(f.read(), error, path)


def _decode(data: bytes, error: type[SkillOpsError], *path: str | Path) -> str:
    """_read_text for bytes already read from the file at os.path.join(*path),
    which is joined only for an error message."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        reason = f"{os.path.join(*path)} is not UTF-8 at byte {e.start} ({e.reason})"
        head = data[:e.start]
    if issubclass(error, _MalformedLine):
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(line_no, reason)
    raise error(reason)


def _json_objects(text: str, error: type[_MalformedLine]):
    """(line number, object) for each non-blank line of a JSON-lines file's
    text, as _read_text returns it; a line that is not a JSON object raises
    `error`.  CR and CRLF end lines.

    A line is decoded with one raw_decode call from index 0.  A line that
    call does not consume whole (surrounding whitespace, extra data, a
    syntax error) goes through json.loads, so every line is accepted or
    rejected, with the same message, as json.loads would.  So is an integer
    longer than int's digit limit, which json raises as a bare ValueError."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj, end = _DECODER.raw_decode(line)
        except ValueError:
            end = -1
        if end != len(line):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise error(line_no, f"invalid JSON ({e.msg})") from None
            except ValueError as e:
                raise error(line_no, f"invalid JSON ({e})") from None
        if not isinstance(obj, dict):
            raise error(line_no, "expected an object")
        yield line_no, obj


# ---------------------------------------------------------------------------
# library directories

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _adapter_paths(adapters) -> dict[str, AdapterShim]:
    """adapters/<src>--<dst>/SKILL.md -> shim, in (src, dst) order.  An end
    that is not a skill id, or two shims saving to one directory (a repeated
    pair, or "a--b" -> "c" beside "a" -> "b--c"), raise ManifestError."""
    paths: dict[str, AdapterShim] = {}
    for shim in sorted(adapters, key=lambda a: (a.src, a.dst)):
        # an adapter's ends name its directory, so each must be a skill id
        for key, value in (("src", shim.src), ("dst", shim.dst)):
            if not _ID_RE.fullmatch(value):
                raise ManifestError(
                    f"adapter {shim.src!r} -> {shim.dst!r}: {key} is not a skill id"
                )
        rel = f"adapters/{shim.src}--{shim.dst}/SKILL.md"
        other = paths.get(rel)
        if other is not None:
            raise ManifestError(
                f"adapters {other.src!r} -> {other.dst!r} and {shim.src!r} ->"
                f" {shim.dst!r} both save to {rel}"
            )
        paths[rel] = shim
    return paths


def _check_replaceable(root: Path) -> None:
    """Refuse a non-empty non-library directory, which save_library never replaces."""
    if root.exists() and not (root / "manifest.json").exists() and any(root.iterdir()):
        raise ManifestError(f"{root} exists and does not look like a library directory")


def save_library(lib: Library, path: str | Path, provenance: dict[str, str] | None = None) -> None:
    """Write a library directory, replacing a previous library at the same
    path.  A non-library directory is never deleted.  Every file's text is
    built first, so a contract that fails validate() or an adapter that
    could not be written (see _adapter_paths) raises before a library is."""
    root = Path(path)
    skills = sorted(lib.skills, key=lambda s: s.id)
    skill_texts = [serialize_skill_file(s) for s in skills]
    adapter_paths = _adapter_paths(lib.adapters)
    adapter_texts = [serialize_skill_file(shim.contract) for shim in adapter_paths.values()]
    _check_replaceable(root)
    if root.exists():
        shutil.rmtree(root)
    provenance = provenance or {}
    skills_meta = []
    for s, text in zip(skills, skill_texts):
        rel = f"skills/{s.id}/SKILL.md"
        skill_dir = root / "skills" / s.id
        skill_dir.mkdir(parents=True)
        (root / rel).write_text(text, encoding="utf-8")
        for dirname in ARTIFACT_DIR_NAMES:
            names = s.artifact_dirs.get(dirname)
            if not names:
                continue
            sub = skill_dir / dirname
            sub.mkdir()
            for name in names:
                (sub / name).write_text(f"placeholder for {name}\n", encoding="utf-8")
        skills_meta.append(
            {
                "id": s.id,
                "path": rel,
                "provenance": provenance.get(s.id, "clean"),
            }
        )
    adapters_meta = []
    for (rel, shim), text in zip(adapter_paths.items(), adapter_texts):
        (root / rel).parent.mkdir(parents=True)
        (root / rel).write_text(text, encoding="utf-8")
        adapters_meta.append({"src": shim.src, "dst": shim.dst, "path": rel})
    manifest = {
        "format_version": FORMAT_VERSION,
        "skills": skills_meta,
        "adapters": adapters_meta,
    }
    (root / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")


_UNSAFE_PARTS = frozenset(("", ".", ".."))


class _LibraryFiles:
    """Reads the files of one library directory without leaving it.

    The root is opened once; it may itself be a symlink.  Every path below
    it is opened one component at a time, relative to its parent's
    descriptor and with O_NOFOLLOW, so a symlink anywhere below the root
    (or a file where a directory should be) is refused rather than
    followed.  The directory chain of the last path read stays open, so a
    sibling file reopens only the components that differ.  Needs POSIX
    dir_fd support (Linux, macOS)."""

    def __init__(self, root: Path):
        self.root = root
        self._dir_flags = os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW
        # O_NONBLOCK: opening a FIFO must not wait for a writer
        self._file_flags = os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK
        try:
            self._root_fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
        except (FileNotFoundError, NotADirectoryError):
            raise ManifestError(f"{root} has no manifest.json") from None
        self._chain: list[tuple[str, int]] = []  # (name, fd) below the root

    def __enter__(self) -> _LibraryFiles:
        return self

    def __exit__(self, *exc) -> None:
        for _, fd in self._chain:
            os.close(fd)
        self._chain.clear()
        os.close(self._root_fd)

    def read(self, rel: str) -> bytes:
        """The bytes of the file at `rel`, a "/"-separated path below the
        root.  An empty, "." or ".." component (an absolute path starts with
        an empty one) raises ManifestError, and so does a symlink or a
        non-directory on the way, or a file that is not regular (a FIFO or
        a device, which could block or never end); any other OSError is
        raised naming the whole path."""
        *dirs, name = parts = rel.split("/")
        if not _UNSAFE_PARTS.isdisjoint(parts):
            raise ManifestError(f"manifest path {rel!r} leaves the library {self.root}")
        chain = self._chain
        shared = 0
        while shared < min(len(chain), len(dirs)) and chain[shared][0] == dirs[shared]:
            shared += 1
        while len(chain) > shared:
            os.close(chain.pop()[1])
        try:
            for d in dirs[shared:]:
                parent = chain[-1][1] if chain else self._root_fd
                chain.append((d, os.open(d, self._dir_flags, dir_fd=parent)))
            parent = chain[-1][1] if chain else self._root_fd
            fd = os.open(name, self._file_flags, dir_fd=parent)
            try:
                st = os.fstat(fd)
                if not stat.S_ISREG(st.st_mode):
                    raise ManifestError(
                        f"{os.path.join(self.root, rel)} is not a regular file"
                    )
                # one read of a byte past the fstat size returns a file of
                # that size whole; one that grew or shrank since reads on
                # to its end
                data = os.read(fd, st.st_size + 1)
                if len(data) == st.st_size:
                    return data
                chunks = [data]
                while chunk := os.read(fd, 1 << 16):
                    chunks.append(chunk)
                return b"".join(chunks)
            finally:
                os.close(fd)
        except OSError as e:
            path = os.path.join(self.root, rel)
            if e.errno in (errno.ELOOP, errno.ENOTDIR):
                raise ManifestError(
                    f"{path}: a symlink or a non-directory is on the path;"
                    " a library is read only through its own directories"
                ) from None
            raise OSError(e.errno, e.strerror, path) from None


def _read_entry(files: _LibraryFiles, entry, keys: tuple[str, ...], ctx: _ParseContext):
    """Parse the skill file a manifest entry names, sharing interface and
    tag sets, and their checks, through `ctx`.  The entry must carry `keys`
    as strings, and its path must stay inside the library (see
    _LibraryFiles.read).  Parse errors gain the entry's path.

    Line ends are not translated: parse_skill_file folds CR and CRLF itself."""
    if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in keys):
        raise ManifestError(f"manifest entry {entry!r} needs string keys {list(keys)}")
    rel = entry["path"]
    text = _decode(files.read(rel), SkillParseError, files.root, rel)
    try:
        return _parse_skill_file(text, ctx)
    except SkillParseError as e:
        raise type(e)(f"{rel}: {e}") from None


def load_library(path: str | Path) -> tuple[Library, dict[str, str]]:
    """Read a library directory back.  Front matter is authoritative for
    contract content; the manifest supplies ordering, provenance and the
    adapter pairing.  Every file is read beneath the library directory, and
    a symlink below it is refused with ManifestError (see _LibraryFiles).
    So are adapters that save_library could not write back (see
    _adapter_paths): an end that is not a skill id, or two shims sharing a
    directory.

    Skills whose preconditions, artifact.type or tags have the same front
    matter text share one frozenset, built and checked once per call;
    nothing is cached across calls."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    skills = []
    provenance: dict[str, str] = {}
    adapters = []
    ctx = _ParseContext()
    with _LibraryFiles(root) as files:
        try:
            data = files.read("manifest.json")
        except FileNotFoundError:
            raise ManifestError(f"{root} has no manifest.json") from None
        try:
            manifest = json.loads(_decode(data, ManifestError, manifest_path))
        except ValueError as e:  # a JSONDecodeError, or an over-long integer
            raise ManifestError(f"{manifest_path}: invalid JSON ({e})") from None
        version = manifest.get("format_version") if isinstance(manifest, dict) else None
        # type(), not ==: true and 1.0 both equal 1
        if type(version) is not int or version != FORMAT_VERSION:
            raise ManifestError(f"unsupported format_version: {version!r}")
        sections = {key: manifest.get(key, []) for key in ("skills", "adapters")}
        for key, entries in sections.items():
            if not isinstance(entries, list):
                raise ManifestError(f"manifest {key!r} must be a list, got {entries!r}")
        for entry in sections["skills"]:
            contract = _read_entry(files, entry, ("id", "path"), ctx)
            if contract.id != entry["id"]:
                raise ManifestError(
                    f"{entry['path']}: file declares id {contract.id!r},"
                    f" manifest says {entry['id']!r}"
                )
            origin = entry.get("provenance", "clean")
            if not isinstance(origin, str):
                raise ManifestError(f"{entry['path']}: provenance must be a string")
            skills.append(contract)
            provenance[contract.id] = origin
        for entry in sections["adapters"]:
            contract = _read_entry(files, entry, ("src", "dst", "path"), ctx)
            adapters.append(
                AdapterShim(src=entry["src"], dst=entry["dst"], contract=contract)
            )
    # refuse what save_library would refuse, before any work is done on it
    _adapter_paths(adapters)
    return Library(skills=tuple(skills), adapters=tuple(adapters)), provenance


# ---------------------------------------------------------------------------
# traces

def save_trace(trace: ExecutionTrace, path: str | Path) -> None:
    lines = []
    for task_id, skill, step, outcome, error_code in zip(
        trace.task_ids, trace.skills, trace.steps, trace.outcomes, trace.error_codes
    ):
        obj = {"task_id": task_id, "skill_id": skill, "step": step, "outcome": outcome}
        if error_code is not None:
            obj["error_code"] = error_code
        lines.append(json.dumps(obj, sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# A trace's five columns, as the readers below return them and
# ExecutionTrace._from_columns takes them.
_TraceColumns = tuple[list[str], list[str], list[int], list[str], list[str | None]]

# The lines save_trace writes: json.dumps(entry, sort_keys=True), so the
# keys in sorted order after ", " and ": ", error_code only when it is not
# None, and LF after each line.  A string free of escapes and control
# characters is its own value.  The error_code group keeps the quotes, so
# an empty code ("") differs from an absent one (no match).  A step is JSON
# integer syntax in ASCII digits, at most 18 of them, so int() never meets
# its digit limit.  ^ and the closing \n hold each match to one whole line,
# and no group can hold a CR or LF, so a text matches one way or not at all.
_TRACE_CHARS = r'[^"\\\x00-\x1f]*'
_TRACE_STR = rf'"({_TRACE_CHARS})"'
_TRACE_LINE_RE = re.compile(
    rf'^\{{(?:"error_code": ("{_TRACE_CHARS}"), )?'
    rf'"outcome": "({"|".join(map(re.escape, OUTCOMES))})", '
    rf'"skill_id": {_TRACE_STR}, '
    r'"step": (-?(?:0|[1-9][0-9]{0,17})), '
    rf'"task_id": {_TRACE_STR}\}}\n',
    re.M,
)


def _canonical_columns(text: str) -> _TraceColumns | None:
    """The columns of a trace in save_trace's layout, filled from one
    finditer pass of _TRACE_LINE_RE; None unless every line matches.  What
    it returns is what _trace_lines returns for the same text.  Neither
    judges step order: the ExecutionTrace built from them does.  A line
    leaves no object the cyclic collector tracks: its match and groups
    tuple are freed before the next line, and its fields go straight into
    the five lists.  A text whose first line does not match (a trace in
    another layout throughout, such as CRLF line ends) returns before the
    pass, which would find no line start to match and so try every
    position of the text."""
    if text and (text[-1] != "\n" or _TRACE_LINE_RE.match(text) is None):
        return None
    columns = task_ids, skills, steps, outcomes, error_codes = [], [], [], [], []
    for m in _TRACE_LINE_RE.finditer(text):
        error_code, outcome, skill, step, task_id = m.groups()
        task_ids.append(task_id)
        skills.append(skill)
        steps.append(int(step))
        outcomes.append(outcome)
        error_codes.append(error_code[1:-1] if error_code else None)
    if len(task_ids) != text.count("\n"):
        return None
    return columns


def _trace_lines(text: str) -> _TraceColumns:
    """The line parser behind load_trace: it reads every JSON-lines layout
    into the trace's five columns and raises every MalformedTraceLine
    load_trace raises.  It does not judge step order; the ExecutionTrace
    built from its columns does, so a malformed line anywhere wins over a
    step out of order."""
    columns = task_ids, skills, steps, outcomes, error_codes = [], [], [], [], []
    for line_no, obj in _json_objects(text, MalformedTraceLine):
        try:
            task_id, skill, step, outcome = (
                obj["task_id"], obj["skill_id"], obj["step"], obj["outcome"]
            )
        except KeyError:
            missing = sorted({"task_id", "skill_id", "step", "outcome"} - obj.keys())
            raise MalformedTraceLine(line_no, f"missing keys: {missing}") from None
        if not (isinstance(task_id, str) and isinstance(skill, str)):
            raise MalformedTraceLine(line_no, "task_id and skill_id must be strings")
        if outcome not in OUTCOMES:
            raise MalformedTraceLine(line_no, f"unknown outcome {outcome!r}")
        if type(step) is not int:  # isinstance would let a bool through
            raise MalformedTraceLine(line_no, "step must be an integer")
        error_code = obj.get("error_code")
        if error_code is not None and not isinstance(error_code, str):
            raise MalformedTraceLine(line_no, "error_code must be a string or null")
        task_ids.append(task_id)
        skills.append(skill)
        steps.append(step)
        outcomes.append(outcome)
        error_codes.append(error_code)
    return columns


def load_trace(path: str | Path) -> ExecutionTrace:
    """Read a JSONL trace.  A line raises MalformedTraceLine when it is not
    a JSON object, lacks a key, has a task_id or skill_id that is not a
    string, names an unknown outcome, has a step that is not an integer
    (JSON true and false included) or an error_code that is neither a
    string nor null.  Once every line has parsed, the ExecutionTrace built
    from the columns raises SkillOpsError if steps do not strictly increase
    within a task.  Both readers fill the trace's columns directly, so a
    load builds no per-call object.

    The file is read once.  A trace in save_trace's layout whose strings
    hold no escapes, which is every trace save_trace writes for ids and
    error codes of printable ASCII, takes one regex pass
    (_canonical_columns).  Any other text (CR line ends, blank lines, other
    key orders or spacing, escapes, a null error_code, long steps) and
    every text with a malformed line pays at most that pass, then goes to
    the line parser, which alone raises MalformedTraceLine."""
    text = _read_text(path, MalformedTraceLine)
    columns = _canonical_columns(text)
    if columns is None:
        columns = _trace_lines(text)
    return ExecutionTrace._from_columns(*columns)


# ---------------------------------------------------------------------------
# metrics

def precision_at_k(relevant, retrieved, k: int) -> float:
    """Fraction of the first k retrieved ids that are relevant; the divisor
    is always k, so short result lists are penalized."""
    if k < 1:
        raise ConfigInvalid("k must be positive")
    return len(set(retrieved[:k]) & set(relevant)) / k


def wilson_ci(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 0 or not 0 <= successes <= max(n, 0):
        raise ConfigInvalid(f"bad counts: {successes}/{n}")
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = phat + z2 / (2 * n)
    radius = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4 * n * n))
    lo = max(0.0, (centre - radius) / denom)
    hi = min(1.0, (centre + radius) / denom)
    return (lo, hi)


# ---------------------------------------------------------------------------
# simulated execution

class SimulatedExecutor:
    """Deterministic executor for plans.

    A skill invocation fails when its artifact directories are all empty or
    its body links to a file its directories do not hold; ids outside the
    library (adapter steps, named by registered shims) succeed.  Scripted
    overrides keyed by (task_id, skill_id, attempt) take precedence, which
    lets tests stage arbitrary failure patterns.
    """

    def __init__(self, lib: Library, scripted: dict | None = None):
        self.lib = lib
        self.scripted = dict(scripted or {})
        self.invocations = 0
        self.external_model_calls = 0

    def verdict(self, skill_id: str) -> tuple[bool, str | None]:
        if skill_id not in self.lib:
            return True, None
        s = self.lib.get(skill_id)
        if s.artifact_dirs.is_empty():
            return False, "empty-artifacts"
        for dirname, fname in extract_artifact_links(s.body):
            if fname not in s.artifact_dirs.get(dirname):
                return False, f"broken-link:{dirname}/{fname}"
        return True, None

    def __call__(self, task, skill_id, bindings, attempt, feedback):
        self.invocations += 1
        key = (task.id, skill_id, attempt)
        if key in self.scripted:
            return self.scripted[key]
        return self.verdict(skill_id)


def exercise_library(lib: Library, calls: int = 4) -> ExecutionTrace:
    """Probe every skill a fixed number of times through the simulated
    executor and return the combined trace.  One verdict serves all of a
    skill's calls: it reads only the contract, and this executor has no
    scripted overrides, so every attempt ends the same way.  The calls go
    straight into the trace's columns."""
    ex = SimulatedExecutor(lib)
    task_ids, skills, steps, outcomes, error_codes = [], [], [], [], []
    for s in sorted(lib.skills, key=lambda s: s.id):
        ok, err = ex.verdict(s.id)
        task_ids += repeat(f"probe-{s.id}", calls)
        skills += repeat(s.id, calls)
        steps += range(calls)
        outcomes += repeat("success" if ok else "failure", calls)
        error_codes += repeat(err, calls)
    return ExecutionTrace._from_columns(task_ids, skills, steps, outcomes, error_codes)


# ---------------------------------------------------------------------------
# scripted scenarios

def build_retrieval_scenario(
    n_queries: int = 20,
) -> tuple[Library, tuple[tuple[str, frozenset], ...]]:
    """A library where every query has one genuinely relevant skill and a
    family of seven keyword-stuffed decoys sharing a single body.

    Returns (library, queries) with queries as (query_text, relevant_ids).
    Before maintenance the decoy family crowds the whole top five; after the
    family merges into one skill the relevant skill fits inside it.  The
    scenario is fully determined by n_queries.
    """
    if n_queries < 1:
        raise ConfigInvalid("need at least one query")
    skills = []
    queries = []
    for i in range(n_queries):
        tokens = [f"topic{i}a", f"topic{i}b", f"topic{i}c", f"tier{i}"]
        query = " ".join(tokens)
        real = make_contract(
            id=f"real-{i:02d}",
            goal=f"handle-{tokens[0]}",
            preconditions=frozenset({f"in-{i}"}),
            body=(
                f"Handle {tokens[0]} {tokens[1]} {tokens[2]} {tokens[3]} requests"
                " end to end.\nFollow the standard procedure and record the result."
            ),
            artifact_types=frozenset({f"out-{i}"}),
            checklist=("result recorded",),
            tags=frozenset({tokens[0], tokens[3]}),
        )
        skills.append(real)
        stuffed = "\n".join(" ".join(tokens) for _ in range(8))
        family_goal = f"decoy-{tokens[0]}"
        for c in range(7):
            sid = f"decoy-{i:02d}" if c == 0 else f"decoy-{i:02d}-c{c}"
            skills.append(
                make_contract(
                    id=sid,
                    goal=family_goal,
                    preconditions=frozenset({f"din-{i}"}),
                    body=stuffed,
                    artifact_types=frozenset({f"dout-{i}"}),
                    checklist=("noted",),
                    tags=frozenset({tokens[3]}),
                )
            )
        queries.append((query, frozenset({real.id})))
    return Library(skills=tuple(skills)), tuple(queries)


def _eval_condition(lib: Library, queries, k: int) -> dict:
    """Retrieval metrics over the top k ids of each (text, relevant) query.

    precision_at_k divides by k, so it is capped at 1/k once maintenance
    merges a relevance class down to one survivor.  hit_rate_at_k (a
    relevant id in the top k), mrr_at_k (reciprocal rank of the first
    one, 0 when none) and recall_at_k (the share of the relevant ids still
    in the library that the top k holds) are not.  `queries` lists each
    query's text, its top k ids and whether one of them is relevant, so a
    miss can be traced to its query.
    """
    # checked once here, so an empty query list refuses a bad k too
    if k < 1:
        raise ConfigInvalid("k must be positive")
    # the shortlist bounds the ranking, so it must hold at least k ids
    cfg = PlannerConfig(bm25_k=max(k, PlannerConfig().bm25_k))
    per_query, reciprocal_ranks, recalls, entries = [], [], [], []
    hits = 0
    for query, relevant in queries:
        top = [sid for sid, _ in rank_candidates(lib, query, cfg)[:k]]
        per_query.append(precision_at_k(relevant, top, k))
        ranks = [rank for rank, sid in enumerate(top, start=1) if sid in relevant]
        entries.append({"query": query, "top_k": top, "hit": bool(ranks)})
        if ranks:
            hits += 1
        reciprocal_ranks.append(1.0 / ranks[0] if ranks else 0.0)
        held = sum(sid in lib for sid in relevant)
        recalls.append(len(ranks) / held if held else 0.0)
    n = len(per_query)
    lo, hi = wilson_ci(hits, n)
    return {
        "precision_at_k": sum(per_query) / n if n else 0.0,
        "hits": hits,
        "n": n,
        "wilson_low": lo,
        "wilson_high": hi,
        "hit_rate_at_k": hits / n if n else 0.0,
        "mrr_at_k": sum(reciprocal_ranks) / n if n else 0.0,
        "recall_at_k": sum(recalls) / n if n else 0.0,
        "queries": entries,
    }


@dataclass(frozen=True)
class EvalReport:
    scenario: str
    seed: int
    k: int
    conditions: dict[str, dict]
    maintenance: dict
    timing_s: dict[str, float]
    external_model_calls: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _library_queries(lib: Library, provenance: dict[str, str], seed: int, count: int):
    """(text, relevant) queries sampled from clean skills; relevant = the
    skill's whole body-hash class, so merged survivors still count."""
    clean_ids = sorted(sid for sid, p in provenance.items() if p == "clean")
    rng = Xorshift64Star(derive_seed(seed, 7777))
    picked = rng.sample(clean_ids, min(count, len(clean_ids)))
    classes: dict[str, list[str]] = {}
    for s in lib.skills:
        classes.setdefault(body_hash(s), []).append(s.id)
    queries = []
    for sid in sorted(picked):
        s = lib.get(sid)
        text = " ".join(
            [s.goal.replace("-", " "), *sorted(s.tags)[:2], s.body.split("\n")[0]]
        )
        relevant = frozenset(classes[body_hash(s)])
        queries.append((text, relevant))
    return tuple(queries)


_GENERATED = {"clean-200": (200, 0.0), "noisy-500": (500, 0.60)}  # (size, noise rate)
SCENARIOS = (*_GENERATED, "retrieval-20")


def run_pipeline(scenario: str, seed: int = 0, k: int = 5) -> EvalReport:
    """Generate a scenario library, evaluate retrieval raw, maintain, and
    evaluate again."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if scenario in _GENERATED:
        lib, provenance = build_library(*_GENERATED[scenario], seed)
        queries = _library_queries(lib, provenance, seed, 25)
        trace = exercise_library(lib)
    elif scenario == "retrieval-20":
        lib, queries = build_retrieval_scenario(20)
        trace = EMPTY_TRACE
    else:
        raise ConfigInvalid(
            f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"
        )
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    raw = _eval_condition(lib, queries, k)
    timings["eval_raw"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    maintained_lib, report = run_maintenance(lib, trace, MaintenanceConfig())
    timings["maintain"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    maintained = _eval_condition(maintained_lib, queries, k)
    timings["eval_maintained"] = time.perf_counter() - t0

    return EvalReport(
        scenario=scenario,
        seed=seed,
        k=k,
        conditions={"raw": raw, "maintained": maintained},
        maintenance=report.as_dict(),
        timing_s=timings,
    )


# ---------------------------------------------------------------------------
# command line interface

def diagnose_payload(lib: Library, g: Hseg, trace: ExecutionTrace, window: int,
                     cgpd: CgpdConfig | None) -> dict:
    """What `skillops diagnose` prints: library_health over g, plus CGPD's
    risks, iterations, convergence and triggered skills when cgpd is given."""
    report = library_health(lib, g, trace, window=window)
    payload = report.as_dict()
    if cgpd is not None:
        result = propagate(g, report.local_risks(), cgpd)
        payload["risk"] = result.risk
        payload["risk_iterations"] = result.iterations_used
        payload["risk_converged"] = result.converged
        payload["triggered"] = sorted(trigger_set(g, result.risk, lib, cgpd.tau))
    return payload


def plan_payload(lib: Library, g: Hseg, task: TaskSpec) -> dict:
    """What `skillops plan` prints for task over g: the plan's score, steps
    and gradeable actions, or the reason no plan exists."""
    try:
        plan = build_plan(lib, g, task, PlannerConfig())
    except NoFeasiblePlan as e:
        return {"feasible": False, "reason": str(e), "steps": []}
    return {
        "feasible": True,
        "total_score": plan.total_score,
        "steps": [
            {"skill": s.skill, "inserted": s.inserted, "bindings": dict(s.bindings)}
            for s in plan.steps
        ],
        "actions": list(plan_action_strings(plan)),
    }


def _resolve_seed(args) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigInvalid(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return args.seed


def _emit(payload: dict, out: str | None) -> None:
    text = _json_text(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _cgpd_config(args) -> CgpdConfig | None:
    """The CGPD settings of --cgpd, None without it.  A CGPD flag given
    without --cgpd would be silently ignored, so it is refused."""
    flags = ("alpha", "tau", "eps", "max_iters")
    given = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    if not args.cgpd:
        if given:
            raise ConfigInvalid(f"--{next(iter(given)).replace('_', '-')} needs --cgpd")
        return None
    return CgpdConfig(**given)


def _add_cgpd_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cgpd", action="store_true", help="propagate risk over dep edges")
    p.add_argument("--alpha", type=float, default=None, help="upstream blend weight")
    p.add_argument("--tau", type=float, default=None, help="risk trigger threshold")
    p.add_argument("--eps", type=float, default=None, help="convergence tolerance")
    p.add_argument("--max-iters", type=int, default=None, help="iteration cap")


def cmd_inject(args) -> int:
    _check_replaceable(Path(args.out))
    seed = _resolve_seed(args)
    lib, provenance = build_library(args.n, args.noise, seed)
    save_library(lib, args.out, provenance)
    degraded = sum(1 for p in provenance.values() if p != "clean")
    _emit(
        {
            "out": str(args.out),
            "seed": seed,
            "size": len(lib),
            "clean": len(lib) - degraded,
            "degraded": degraded,
            "fingerprint": library_fingerprint(lib),
        },
        None,
    )
    return 0


def cmd_diagnose(args) -> int:
    cgpd_cfg = _cgpd_config(args)
    if args.strict and cgpd_cfg is None:
        raise ConfigInvalid("--strict needs --cgpd")
    _check_window(args.window)
    lib, _ = load_library(args.lib)
    trace = load_trace(args.trace) if args.trace else EMPTY_TRACE
    g = build_hseg(lib.skills, adapters=lib.adapters)
    payload = diagnose_payload(lib, g, trace, args.window, cgpd_cfg)
    if args.dump_graph:
        Path(args.dump_graph).write_text(_json_text(g.export()), encoding="utf-8")
    _emit(payload, args.out)
    return 1 if args.strict and not payload.get("risk_converged", True) else 0


def cmd_maintain(args) -> int:
    if args.out:
        out = Path(args.out).resolve()
        # save_library replaces the output directory and writes placeholder
        # artifact files, so saving over the input would destroy its artifacts
        if out == Path(args.lib).resolve():
            raise ConfigInvalid("--out must not be the --lib directory")
        # the report is written first, so a --report that cannot be written
        # leaves --out as it was, and replacing --out would delete it
        if args.report and out in Path(args.report).resolve().parents:
            raise ConfigInvalid("--report must not be inside --out")
        _check_replaceable(Path(args.out))
    cfg = MaintenanceConfig(force=not args.no_force, cgpd=_cgpd_config(args))
    lib, provenance = load_library(args.lib)
    trace = load_trace(args.trace) if args.trace else EMPTY_TRACE
    new_lib, report = run_maintenance(lib, trace, cfg)
    _emit(report.as_dict(), args.report)
    if args.out:
        save_library(new_lib, args.out, provenance)
    return 0


def _flag_items(value: str) -> list[str]:
    """The items of a comma-separated flag value, empty ones skipped."""
    return [x for x in value.split(",") if x]


def _checked_actions(where: str, items: list[str]) -> list[str]:
    """items, from a flag or a file named by `where`.  An item with
    surrounding whitespace, such as " invoke:b", could never equal an action
    a plan emits, so it is refused."""
    for item in items:
        if item != item.strip():
            raise ConfigInvalid(f"{where} action {item!r} has surrounding whitespace")
    return items


def _action_items(flag: str, value: str) -> list[str]:
    """The actions of a comma-separated --actions or --gold-list value."""
    return _checked_actions(flag, _flag_items(value))


def cmd_plan(args) -> int:
    facts = _flag_items(args.state)
    for fact in facts:
        # a fact no type tag can equal, such as " logs", would satisfy nothing
        if not _TAG_RE.fullmatch(fact):
            raise ConfigInvalid(f"--state fact {fact!r} is not a type tag")
    lib, _ = load_library(args.lib)
    g = build_hseg(lib.skills, adapters=lib.adapters)
    task = TaskSpec(id=args.task_id, goal_text=args.goal, state_facts=frozenset(facts))
    payload = plan_payload(lib, g, task)
    _emit(payload, args.out)
    return 0 if payload["feasible"] else 1


def _read_action_list(path: str) -> list[str]:
    try:
        obj = json.loads(_read_text(path, ConfigInvalid))
    except ValueError as e:  # a JSONDecodeError, or an over-long integer
        raise ConfigInvalid(f"{path}: invalid JSON ({e})") from None
    if isinstance(obj, dict):
        obj = obj.get("actions")
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise ConfigInvalid(f"{path}: expected a JSON list of action strings")
    return _checked_actions(f"{path}:", obj)


def cmd_grade(args) -> int:
    predicted = (
        _read_action_list(args.plan)
        if args.plan is not None
        else _action_items("--actions", args.actions)
    )
    gold = (
        _read_action_list(args.gold)
        if args.gold is not None
        else _action_items("--gold-list", args.gold_list)
    )
    ok = grade_plan(predicted, gold)
    _emit({"exact_match": ok, "predicted": predicted, "gold": gold}, args.out)
    return 0 if ok else 1


def cmd_eval_retrieval(args) -> int:
    lib, _ = load_library(args.lib)
    queries = []
    text = _read_text(args.queries, MalformedQueryLine)
    for line_no, obj in _json_objects(text, MalformedQueryLine):
        if "query" not in obj or "relevant" not in obj:
            raise MalformedQueryLine(line_no, "need query and relevant keys")
        if not isinstance(obj["query"], str):
            raise MalformedQueryLine(line_no, "query must be a string")
        relevant = obj["relevant"]
        if not isinstance(relevant, list) or not all(isinstance(r, str) for r in relevant):
            raise MalformedQueryLine(line_no, "relevant must be a list of skill ids")
        queries.append((obj["query"], frozenset(relevant)))
    payload = _eval_condition(lib, tuple(queries), args.k)
    _emit(payload, args.out)
    return 0


def cmd_pipeline(args) -> int:
    seed = _resolve_seed(args)
    report = run_pipeline(args.scenario, seed, args.k)
    _emit(report.as_dict(), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillops",
        description="deterministic skill library maintenance and planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="generate a library with seeded rot")
    p.add_argument("--n", type=int, required=True, help="library size")
    p.add_argument("--noise", type=float, default=0.0, help="degraded fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="library directory to write")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("diagnose", help="health vectors and library debt")
    p.add_argument("--lib", required=True)
    p.add_argument("--trace", default=None, help="JSONL execution trace")
    p.add_argument("--window", type=int, default=100)
    p.add_argument("--dump-graph", default=None, help="write the typed graph as JSON")
    p.add_argument("--out", default=None, help="also write the report here")
    _add_cgpd_flags(p)
    p.add_argument("--strict", action="store_true",
                   help="with --cgpd, exit 1 when risk does not converge")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("maintain", help="plan and apply maintenance actions")
    p.add_argument("--lib", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--out", default=None, help="write the maintained library here")
    p.add_argument("--report", default=None, help="also write the report here")
    p.add_argument("--no-force", action="store_true",
                   help="skip maintenance while debt is below the gate")
    _add_cgpd_flags(p)
    p.set_defaults(func=cmd_maintain)

    p = sub.add_parser("plan", help="retrieve, stitch and bind a task plan")
    p.add_argument("--lib", required=True)
    p.add_argument("--goal", required=True, help="task goal text")
    p.add_argument("--state", default="", help="comma-separated state facts")
    p.add_argument("--task-id", default="cli-task")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("grade", help="strict-order plan grading")
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--plan", help="JSON file with an actions list")
    side.add_argument("--actions", help="comma-separated predicted actions")
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--gold", help="JSON file with the gold actions")
    side.add_argument("--gold-list", help="comma-separated gold actions")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_grade)

    p = sub.add_parser("eval-retrieval", help="precision@k over a query file")
    p.add_argument("--lib", required=True)
    p.add_argument("--queries", required=True, help="JSONL with query and relevant")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_retrieval)

    p = sub.add_parser("pipeline", help="end-to-end scenario evaluation")
    p.add_argument("--scenario", choices=SCENARIOS, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="library and query seed; retrieval-20 is fixed and ignores it")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SkillOpsError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
