"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, then serves
closed-loop operations (one client, each operation starting after the
previous one returns).  `check` runs outside the timed region and reduces an
operation's output to a digest, a list of broken invariants and a few facts
the per-layer metrics use.  `setup_info` holds the facts of the set-up.

  maintain-2k       `skillops maintain --lib IN --trace T --out OUT` in
                    process: load_library, load_trace, run_maintenance on
                    build_library(2000, 0.3, seed) and its probe trace
  diagnose-wide-8k  `skillops diagnose --trace T --cgpd` in memory:
                    build_hseg, library_health, propagate, trigger_set and
                    the JSON text, on an 8000-skill, 200-token library
  plan-queries-1k   build_plan queries against build_library(1000, 0.6,
                    seed), then against its maintained result

Library directories are written outside the timed regions: by `prepare`
before the operations and by `finish` after them.  On an ext4 root mounted
with `discard`, saving the ~4500 files of one maintained library took
between 0.4 s and 4.5 s on a 2-vCPU VM, depending on how many earlier
deletions were still being discarded, against 0.2-0.3 s on tmpfs.  The
benchmark writes only inside its checkout, so a timed save would measure the
disk's backlog rather than the program.  maintain-2k therefore reads its
input directory in every operation (from the page cache) and saves the
output of its last operation once, in `finish`, where the file count is
checked and the traced run times the save.

Layer functions are always called through their module (`maint.apply_action`
rather than an imported name), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import widegen
from skillops import cgpd, debtgen, harness, health, hseg, maint, planner
from skillops.contract import ARTIFACT_DIR_NAMES, Library, library_fingerprint


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def signature_counts(lib: Library) -> tuple[int, int]:
    """(distinct artifact sets, distinct precondition sets); build_hseg's
    pairwise loops run over their product."""
    return (
        len({s.artifact_types for s in lib.skills}),
        len({s.preconditions for s in lib.skills}),
    )


def _tree_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _expected_files(lib: Library) -> int:
    """manifest + one SKILL.md per skill and adapter + one file per
    artifact name."""
    names = sum(
        len(set(s.artifact_dirs.get(d))) for s in lib.skills for d in ARTIFACT_DIR_NAMES
    )
    return 1 + len(lib.skills) + len(lib.adapters) + names


def _maintenance_problems(report, size_in: int, size_out: int) -> list[str]:
    """Seed-independent invariants from the acceptance suite."""
    problems = []
    absorbed = sum(len(a.drops) for a in report.actions if a.kind == "merge")
    retired = sum(1 for a in report.actions if a.kind == "retire")
    if report.size_before != size_in or report.size_after != size_out:
        problems.append(f"report sizes {report.size_before}->{report.size_after}"
                        f" disagree with libraries {size_in}->{size_out}")
    if report.size_after != report.size_before - absorbed - retired:
        problems.append("size_after != size_before - absorbed - retired")
    if report.H_after < report.H_before - 1e-12:
        problems.append(f"H fell from {report.H_before} to {report.H_after}")
    return problems


class Workload:
    setup_info: dict = {}

    def prepare(self, work: Path) -> None:
        pass

    def finish(self) -> tuple[list[str], dict]:
        return [], {}

    def cycle_len(self, phase: str) -> int:
        return 1


class Maintain2k(Workload):
    name = "maintain-2k"
    phases = (("maintain", 1.0),)

    def setup(self, seed: int) -> None:
        self.input, self.provenance = debtgen.build_library(2000, 0.3, seed)
        self.trace = harness.exercise_library(self.input)

    def prepare(self, work: Path) -> None:
        self.work = work
        harness.save_library(self.input, work / "in", self.provenance)
        harness.save_trace(self.trace, work / "trace.jsonl")

    def op(self, phase: str, i: int, n: int):
        lib, provenance = harness.load_library(self.work / "in")
        trace = harness.load_trace(self.work / "trace.jsonl")
        new_lib, report = maint.run_maintenance(lib, trace, maint.MaintenanceConfig())
        return lib, new_lib, report, provenance

    def check(self, phase: str, i: int, result):
        lib, new_lib, report, provenance = result
        self.last = (new_lib, provenance)
        problems = _maintenance_problems(report, len(lib), len(new_lib))
        body = report.as_dict()
        body.pop("timing_s", None)
        body.pop("metrics", None)
        text = library_fingerprint(new_lib) + "\n" + json.dumps(body, sort_keys=True)
        return sha256(text), problems, {"actions": len(report.actions)}

    def finish(self) -> tuple[list[str], dict]:
        new_lib, provenance = self.last
        out = self.work / "out"
        harness.save_library(new_lib, out, provenance)
        files, nbytes = _tree_size(out)
        problems = []
        if files != _expected_files(new_lib):
            problems.append(f"saved library holds {files} files,"
                            f" expected {_expected_files(new_lib)}")
        return problems, {"files_written": files, "bytes_written": nbytes}


class DiagnoseWide8k(Workload):
    name = "diagnose-wide-8k"
    phases = (("diagnose", 1.0),)

    def setup(self, seed: int) -> None:
        self.input = widegen.build_wide_library(8000, 0.3, seed)
        self.trace = harness.exercise_library(self.input)

    def op(self, phase: str, i: int, n: int):
        lib, cfg = self.input, cgpd.CgpdConfig()
        g = hseg.build_hseg(lib.skills, adapters=lib.adapters)
        report = health.library_health(lib, g, self.trace, window=100)
        payload = report.as_dict()
        result = cgpd.propagate(g, report.local_risks(), cfg)
        payload["risk"] = {sid: result.risk[sid] for sid in sorted(result.risk)}
        payload["risk_iterations"] = result.iterations_used
        payload["triggered"] = sorted(cgpd.trigger_set(g, result.risk, lib, cfg.tau))
        return result, json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def check(self, phase: str, i: int, output):
        result, text = output
        problems = []
        if not result.converged:
            problems.append(f"CGPD did not converge in {result.iterations_used} iterations")
        if len(result.risk) != len(self.input):
            problems.append("risk does not cover the library")
        if any(not 0.0 <= r <= 1.0 for r in result.risk.values()):
            problems.append("risk outside [0, 1]")
        info = {"iterations": result.iterations_used, "converged": int(result.converged)}
        return sha256(text), problems, info


QUERIES = 50


def make_tasks(lib: Library, provenance: dict[str, str], seed: int, count: int):
    """Queries from seeded clean skills: goal words, two tags and the first
    body line.  Four in five hold exactly the skill's preconditions as
    state facts; every fifth holds 1-3 random vocabulary facts instead."""
    rng = debtgen.Xorshift64Star(debtgen.derive_seed(seed, 4242))
    clean = sorted(sid for sid, p in provenance.items() if p == "clean")
    by_id = lib.by_id()
    tasks = []
    for i, sid in enumerate(rng.sample(clean, count)):
        s = by_id[sid]
        text = " ".join([s.goal.replace("-", " "), *sorted(s.tags)[:2], s.body.split("\n")[0]])
        if i % 5 == 4:
            facts = frozenset(rng.sample(debtgen.VOCABULARY, rng.randint(1, 3)))
        else:
            facts = s.preconditions
        tasks.append(planner.TaskSpec(id=f"q{i:02d}", goal_text=text, state_facts=facts))
    return tuple(tasks)


class PlanQueries1k(Workload):
    name = "plan-queries-1k"
    # half the time on the raw library, then half on its maintained result
    phases = (("raw", 0.5), ("maintained", 0.5))

    def setup(self, seed: int) -> None:
        raw, provenance = debtgen.build_library(1000, 0.6, seed)
        trace = harness.exercise_library(raw)
        maintained, report = maint.run_maintenance(raw, trace, maint.MaintenanceConfig())
        self.libs = {
            name: (lib, hseg.build_hseg(lib.skills, adapters=lib.adapters))
            for name, lib in (("raw", raw), ("maintained", maintained))
        }
        self.tasks = make_tasks(raw, provenance, seed, QUERIES)
        self.input = raw
        self.setup_info = {"actions": len(report.actions)}

    def cycle_len(self, phase: str) -> int:
        return len(self.tasks)

    def op(self, phase: str, i: int, n: int):
        lib, g = self.libs[phase]
        try:
            return planner.build_plan(lib, g, self.tasks[i], planner.PlannerConfig())
        except planner.NoFeasiblePlan:
            return None

    def check(self, phase: str, i: int, plan):
        if plan is None:
            return sha256('{"feasible": false}'), [], {"feasible": 0}
        lib, _ = self.libs[phase]
        facts = self.tasks[i].state_facts
        by_id = lib.by_id()
        problems = []
        for step in plan.steps:
            if step.inserted is None and (
                step.skill not in by_id or not by_id[step.skill].preconditions <= facts
            ):
                problems.append(f"step {step.skill} is not runnable from the task state")
        if not math.isfinite(plan.total_score):
            problems.append("total_score is not finite")
        payload = {
            "feasible": True,
            "total_score": plan.total_score,
            "steps": [
                {"skill": s.skill, "inserted": s.inserted, "bindings": dict(s.bindings)}
                for s in plan.steps
            ],
            "actions": list(planner.plan_action_strings(plan)),
        }
        return sha256(json.dumps(payload, sort_keys=True)), problems, {"feasible": 1}


WORKLOADS = {w.name: w for w in (Maintain2k, DiagnoseWide8k, PlanQueries1k)}
