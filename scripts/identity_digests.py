#!/usr/bin/env python3
"""Print one ``case sha256`` line per output of a fixed byte-identity matrix.

Run it against two checkouts and diff the output; a change that is meant to
keep every output byte-identical must print the same lines::

    python3 scripts/identity_digests.py --src /path/to/parent/src > before.txt
    python3 scripts/identity_digests.py > after.txt
    diff before.txt after.txt

The matrix covers:

  pipeline      ``run_pipeline`` JSON for every scenario at seeds 0 and 42,
                without ``timing_s``
  trace         the ``save_trace`` bytes of ``exercise_library``
  maintain      ``library_fingerprint`` of the output plus the report JSON,
                over trace on/off x dep mode x comp threshold {0, 0.3, 0.6}
                x CGPD on/off x force on/off; and with default settings on
                the mixed trace below at windows 3 and 100; on the second
                library also ``restrict-export``: ``Hseg.export()`` of the
                graph ``Hseg._restrict`` derives for the default
                maintenance output, whose goal groups it builds on use
  diagnose      the ``library_health`` JSON at windows 100 and 3, on the
                probe trace and on a mixed trace (pseudo-random outcomes,
                interleaved skills, ids outside the library), the CGPD
                risks, iterations and convergence, and ``Hseg.export()``;
                and the probe-trace health of the overlap-mode graph
  load          the library and its probe trace written with
                ``save_library``/``save_trace`` and read back with
                ``load_library``/``load_trace``: the loaded library's
                ``library_fingerprint``; ``noncanonical``: the same
                fingerprint after every saved SKILL.md is rewritten in a
                layout ``save_library`` never writes (CRLF line ends, keys
                in reverse order, a blank front matter line, trailing
                spaces and a blank line in the body, ``- [x]`` boxes), so it
                must equal the ``library`` line; ``trace``: the loaded probe
                trace's entries; ``trace-noncanonical``: the same entries
                after the saved trace is rewritten in a layout ``save_trace``
                never writes (CRLF line ends, keys in reverse order,
                ``"error_code": null`` where it was absent, a blank line), so
                it must equal the ``trace`` line; ``trace-mixed``: the mixed
                trace below saved and loaded back; the ``run_maintenance`` output
                fingerprint plus report JSON built from the loaded inputs;
                on the first library also ``adapters``: the overlap-mode,
                threshold-0.6 maintenance output, which carries thousands
                of adapter shims, saved and loaded back, as the loaded
                fingerprint plus the saved ``manifest.json``, and
                ``adapters-export``: ``Hseg.export()`` of that loaded
                library's overlap-mode, threshold-0.6 graph with its shims
  plan          the ``skillops plan`` payload of ``build_plan``, or
                ``{"feasible": false}``, for 25 seeded clean skills' goal
                text and preconditions, on the library (``raw``) and on its
                ``run_maintenance`` output (``maintained``); on the first
                library also ``adapters``: the same tasks planned on the
                loaded overlap-mode, threshold-0.6 output above over its own
                graph, so dep-only transitions plan through its shims
  rank          ``rank_candidates`` output at ``bm25_k`` 1, 10 and 50 for 50
                queries of goal words, two tags and the first body line of
                seeded clean skills (the plan-queries benchmark's shape)

each on ``build_library`` at (200, 0.0, 0), (500, 0.6, 42) and
(1000, 0.3, 7); and

  wide          on ``skillbench/widegen.py``'s ``build_wide_library(2000,
                0.3, 42)``, whose 200-token vocabulary gives dep pairs below
                the comp threshold: the ``library_health`` JSON, the CGPD
                risks and the forced ``run_maintenance`` output fingerprint
                plus report JSON, per dep mode x comp threshold {0, 0.3, 0.6}

and last, on each ``build_library`` library above,

  rank          ``repeated``: ``rank_candidates`` output at ``bm25_k`` 1, 10
                and 50 for the 50 ``rank`` queries with each rare token (one
                the library's index holds that some skill lacks) written
                three times; ``random``: the same for 50 queries of 1 to 8
                tokens drawn with replacement from the index's vocabulary,
                which seldom hold both a rare and a common term and so are
                mostly ranked by scoring every skill

The generator is this checkout's, importing skillops from ``--src``.
Output does not depend on ``PYTHONHASHSEED``.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

LIBRARIES = ((200, 0.0, 0), (500, 0.6, 42), (1000, 0.3, 7))
THRESHOLDS = (0.0, 0.3, 0.6)
DEP_MODES = ("subset", "overlap")
PIPELINE_SEEDS = (0, 42)
WIDE_LIBRARY = (2000, 0.3, 42)
PLAN_TASKS = 25
RANK_QUERIES = 50
RANK_KS = (1, 10, 50)


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _mixed_trace(lib, seed: int):
    """Eight entries per skill on average, in random skill order, with
    random outcomes and one id in ten outside the library."""
    from skillops.debtgen import Xorshift64Star, derive_seed
    from skillops.planner import ExecutionTrace, TraceEntry

    rng = Xorshift64Star(derive_seed(seed, 4242))
    ids = sorted(lib.ids())
    entries = []
    for step in range(8 * len(ids)):
        sid = rng.choice(ids) if rng.randrange(10) else f"ghost-{rng.randrange(5)}"
        ok = rng.randrange(3) > 0
        entries.append(TraceEntry("mixed", sid, step, "success" if ok else "failure",
                                  None if ok else "boom"))
    return ExecutionTrace(entries=tuple(entries))


def _plan_payloads(lib, tasks, g=None) -> list:
    """The ``skillops plan`` JSON payload of each task, ``{"feasible": false}``
    where no plan exists, planned over g (by default the library's graph at
    the default settings, as ``skillops plan`` builds it)."""
    from skillops.hseg import build_hseg
    from skillops.planner import (
        NoFeasiblePlan,
        PlannerConfig,
        build_plan,
        plan_action_strings,
    )

    if g is None:
        g = build_hseg(lib.skills, adapters=lib.adapters)
    payloads = []
    for task in tasks:
        try:
            plan = build_plan(lib, g, task, PlannerConfig())
        except NoFeasiblePlan:
            payloads.append({"feasible": False})
            continue
        payloads.append({
            "feasible": True,
            "total_score": plan.total_score,
            "steps": [
                {"skill": s.skill, "inserted": s.inserted, "bindings": dict(s.bindings)}
                for s in plan.steps
            ],
            "actions": list(plan_action_strings(plan)),
        })
    return payloads


def _plan_tasks(lib, provenance, seed: int):
    """One task per seeded clean skill: its goal words as the goal text and
    its preconditions as the state facts."""
    from skillops.debtgen import Xorshift64Star, derive_seed
    from skillops.planner import TaskSpec

    rng = Xorshift64Star(derive_seed(seed, 2525))
    clean = sorted(sid for sid, p in provenance.items() if p == "clean")
    by_id = lib.by_id()
    return [
        TaskSpec(id=f"t{i:02d}", goal_text=by_id[sid].goal.replace("-", " "),
                 state_facts=by_id[sid].preconditions)
        for i, sid in enumerate(rng.sample(clean, min(PLAN_TASKS, len(clean))))
    ]


def _rank_variants(lib, queries, seed: int) -> dict:
    """The ``repeated`` and ``random`` query lists of a library (see the
    module docstring)."""
    from skillops.debtgen import Xorshift64Star, derive_seed
    from skillops.planner import PlannerConfig, _library_index, tokenize

    index = _library_index(lib, PlannerConfig())
    rare = set(index.postings) - set(index._common_max)
    repeated = [
        " ".join(word for token in tokenize(q) for word in [token] * (3 if token in rare else 1))
        for q in queries
    ]
    vocabulary = sorted(index.postings)
    rng = Xorshift64Star(derive_seed(seed, 2626))
    drawn = [
        " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 8)))
        for _ in range(RANK_QUERIES)
    ]
    return {"repeated": repeated, "random": drawn}


def _rank_digest(lib, queries) -> str:
    """The digest of ``rank_candidates`` output for queries at every k."""
    from skillops.planner import PlannerConfig, rank_candidates

    return _digest(_json([
        [rank_candidates(lib, q, PlannerConfig(bm25_k=k, keep_top=1)) for q in queries]
        for k in RANK_KS
    ]))


def _noncanonical(text: str) -> str:
    """A saved skill file rewritten into an equivalent layout that only the
    line parser reads: CRLF line ends, the front matter keys reversed after
    a blank line, two trailing spaces on each body line and a blank line
    after the first, and checked checklist boxes."""
    lines = text.split("\n")
    close = lines.index("---", 1)
    out = ["---", "", *reversed(lines[1:close]), "---"]
    section = None
    for line in lines[close + 1:]:
        if line.startswith("## "):
            section = line
            out.append(line)
        elif section == "## Operation" and line:
            out.append(line + "  ")
            if out[-2] == section:
                out.append("")
        elif section == "## Checklist":
            out.append(line.replace("- [ ] ", "- [x] ", 1))
        else:
            out.append(line)
    return "\r\n".join(out)


def _noncanonical_trace(text: str) -> str:
    """A saved trace rewritten into an equivalent layout that only the line
    parser reads: each line's keys in reverse order, ``"error_code": null``
    on every entry without an error code, a blank line after the first line,
    and CRLF line ends."""
    lines = []
    for line in text.splitlines():
        obj = json.loads(line)
        obj.setdefault("error_code", None)
        lines.append(json.dumps(dict(sorted(obj.items(), reverse=True))))
    lines.insert(1, "")
    return "\r\n".join(lines) + "\r\n"


def cases():
    """Yield (case name, sha256) for every case, in a fixed order."""
    from skillops.cgpd import CgpdConfig, propagate
    from skillops.contract import library_fingerprint
    from skillops.debtgen import build_library
    from skillops.harness import (
        SCENARIOS,
        _library_queries,
        exercise_library,
        load_library,
        load_trace,
        run_pipeline,
        save_library,
        save_trace,
    )
    from skillops.health import library_health
    from skillops.hseg import build_hseg
    from skillops.maint import MaintenanceConfig, run_maintenance
    from skillops.planner import EMPTY_TRACE, PlannerConfig, rank_candidates

    rank_variants = []  # (library name, library, query lists), yielded last
    for scenario, seed in product(SCENARIOS, PIPELINE_SEEDS):
        report = run_pipeline(scenario, seed).as_dict()
        report.pop("timing_s")
        yield f"pipeline/{scenario}/seed{seed}", _digest(_json(report))

    with tempfile.TemporaryDirectory() as tmp:
        for n, noise, seed in LIBRARIES:
            lib_name = f"lib{n}-{noise}-{seed}"
            lib, provenance = build_library(n, noise, seed)
            trace = exercise_library(lib)
            path = Path(tmp) / f"{lib_name}.jsonl"
            save_trace(trace, path)
            yield f"trace/{lib_name}", _digest(path.read_bytes())

            save_library(lib, Path(tmp) / lib_name)
            loaded, _ = load_library(Path(tmp) / lib_name)
            loaded_trace = load_trace(path)
            yield f"load/{lib_name}/library", _digest(library_fingerprint(loaded))
            rewritten = Path(tmp) / f"{lib_name}-noncanonical"
            save_library(lib, rewritten)
            for skill_file in sorted(rewritten.glob("skills/*/SKILL.md")):
                skill_file.write_bytes(_noncanonical(skill_file.read_text()).encode())
            yield (f"load/{lib_name}/noncanonical",
                   _digest(library_fingerprint(load_library(rewritten)[0])))
            yield f"load/{lib_name}/trace", _digest(_json(loaded_trace.entries))
            odd_trace = Path(tmp) / f"{lib_name}-noncanonical.jsonl"
            odd_trace.write_bytes(_noncanonical_trace(path.read_text()).encode())
            yield (f"load/{lib_name}/trace-noncanonical",
                   _digest(_json(load_trace(odd_trace).entries)))
            mixed = _mixed_trace(lib, seed)
            mixed_path = Path(tmp) / f"{lib_name}-mixed.jsonl"
            save_trace(mixed, mixed_path)
            yield f"load/{lib_name}/trace-mixed", _digest(_json(load_trace(mixed_path).entries))
            out, report = run_maintenance(loaded, loaded_trace, MaintenanceConfig())
            yield f"load/{lib_name}/maintain", _digest(library_fingerprint(out) + "\n"
                                                       + _json(report.as_dict()))
            if (n, noise, seed) == LIBRARIES[0]:
                cfg = MaintenanceConfig(dep_mode="overlap", comp_threshold=0.6)
                bridged, _ = run_maintenance(lib, trace, cfg)
                saved = Path(tmp) / f"{lib_name}-adapters"
                save_library(bridged, saved)
                shim_lib, _ = load_library(saved)
                yield f"load/{lib_name}/adapters", _digest(
                    library_fingerprint(shim_lib) + "\n" + (saved / "manifest.json").read_text()
                )
                shimmed = build_hseg(shim_lib.skills, 0.6, "overlap", shim_lib.adapters)
                yield f"load/{lib_name}/adapters-export", _digest(_json(shimmed.export()))

            g = build_hseg(lib.skills, adapters=lib.adapters)
            for window, (trace_name, t) in product(
                (3, 100), (("mixed", mixed), ("probe", trace))
            ):
                health = library_health(lib, g, t, window=window)
                yield (f"diagnose/{lib_name}/health-{trace_name}-w{window}",
                       _digest(_json(health.as_dict())))
            health = library_health(lib, g, trace)
            result = propagate(g, health.local_risks(), CgpdConfig())
            yield f"diagnose/{lib_name}/cgpd", _digest(_json({
                "risk": result.risk,
                "iterations": result.iterations_used,
                "converged": result.converged,
            }))
            yield f"diagnose/{lib_name}/export", _digest(_json(g.export()))
            overlap = build_hseg(lib.skills, dep_mode="overlap", adapters=lib.adapters)
            yield (f"diagnose/{lib_name}/health-overlap",
                   _digest(_json(library_health(lib, overlap, trace).as_dict())))

            tasks = _plan_tasks(lib, provenance, seed)
            maintained, _ = run_maintenance(lib, trace, MaintenanceConfig())
            if (n, noise, seed) == LIBRARIES[1]:
                derived = g._restrict(maintained.skills, maintained.adapters)
                yield f"maintain/{lib_name}/restrict-export", _digest(_json(derived.export()))
            for plan_name, plan_lib in (("raw", lib), ("maintained", maintained)):
                yield (f"plan/{lib_name}/{plan_name}",
                       _digest(_json(_plan_payloads(plan_lib, tasks))))
            if (n, noise, seed) == LIBRARIES[0]:
                yield (f"plan/{lib_name}/adapters",
                       _digest(_json(_plan_payloads(shim_lib, tasks, shimmed))))

            queries = [text for text, _ in _library_queries(lib, provenance, seed,
                                                            RANK_QUERIES)]
            for k in RANK_KS:
                cfg = PlannerConfig(bm25_k=k, keep_top=1)
                yield (f"rank/{lib_name}/k{k}",
                       _digest(_json([rank_candidates(lib, q, cfg) for q in queries])))
            rank_variants.append((lib_name, lib, _rank_variants(lib, queries, seed)))

            for traced, dep_mode, threshold, cgpd, force in product(
                (True, False), DEP_MODES, THRESHOLDS, (True, False), (True, False)
            ):
                cfg = MaintenanceConfig(
                    force=force,
                    comp_threshold=threshold,
                    dep_mode=dep_mode,
                    cgpd=CgpdConfig() if cgpd else None,
                )
                out, report = run_maintenance(lib, trace if traced else EMPTY_TRACE, cfg)
                name = (f"maintain/{lib_name}/{'trace' if traced else 'notrace'}"
                        f"/{dep_mode}/t{threshold}/{'cgpd' if cgpd else 'nocgpd'}"
                        f"/{'force' if force else 'noforce'}")
                yield name, _digest(library_fingerprint(out) + "\n"
                                    + _json(report.as_dict()))

            for window in (3, 100):
                out, report = run_maintenance(lib, mixed, MaintenanceConfig(window=window))
                yield (f"maintain/{lib_name}/mixed-w{window}",
                       _digest(library_fingerprint(out) + "\n" + _json(report.as_dict())))

    from widegen import build_wide_library

    lib = build_wide_library(*WIDE_LIBRARY)
    lib_name = "wide{}-{}-{}".format(*WIDE_LIBRARY)
    for dep_mode, threshold in product(DEP_MODES, THRESHOLDS):
        name = f"wide/{lib_name}/{dep_mode}/t{threshold}"
        g = build_hseg(lib.skills, threshold, dep_mode, lib.adapters)
        health = library_health(lib, g)
        yield f"{name}/health", _digest(_json(health.as_dict()))
        result = propagate(g, health.local_risks(), CgpdConfig())
        yield f"{name}/cgpd", _digest(_json(result.risk))
        cfg = MaintenanceConfig(force=True, comp_threshold=threshold, dep_mode=dep_mode)
        out, report = run_maintenance(lib, EMPTY_TRACE, cfg)
        yield f"{name}/maintain", _digest(library_fingerprint(out) + "\n"
                                          + _json(report.as_dict()))

    for lib_name, lib, variants in rank_variants:
        for variant, queries in variants.items():
            yield f"rank/{lib_name}/{variant}", _rank_digest(lib, queries)


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="directory holding the skillops package to import "
             "(default: this checkout's src/)",
    )
    args = ap.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import skillops

    if src not in Path(skillops.__file__).resolve().parents:
        sys.exit(f"imported skillops from {skillops.__file__}, not from {src}")
    # after src, so the generator's own skillops imports resolve to it too
    sys.path.append(str(Path(__file__).resolve().parent.parent / "skillbench"))
    for name, digest in cases():
        print(name, digest, flush=True)


if __name__ == "__main__":
    main()
