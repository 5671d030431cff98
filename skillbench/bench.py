"""Run one workload and turn what it measured into metrics.

Untraced run (end-to-end metrics): the set-up runs at least SETUP_REPEATS
times, each on a fresh workload, and `setup_s` is their median; then
operations run closed loop for `seconds`.  The host's speed is sampled after
every set-up and operation (see hostspeed.py), and `setup_s`, `op_p50_ms`
and `ops_per_s` are scaled to the nominal host speed; the measured values
are in the detail line.  Set-up covers generation, the probe trace and, for
plan-queries-1k, the maintained library.  It leaves out the one write of
maintain-2k's input directory (`prepare`), which on an ext4 root mounted
with `discard` took 0.5-7 s for the same library; the traced run times that
write in `harness.save_library_s`.

Traced run (per-layer metrics): one set-up, then operations for `seconds`,
each step running its operation once without and once with the tracer's
wrappers, in alternating order.  Traced and untraced outputs must have the
same digests; their median latencies give the tracing overhead, reported in
the detail line.  Per-layer times are measured, not scaled.

Per-layer values follow two rules, so that every count repeats exactly:
  counts  per operation over the first traced cycle of operations (one
          maintain or diagnose, or each query once on each library), or
          the total outside operations (set-up and `finish`) for a layer
          that runs only there
  times   median over traced operations of the layer's time in each
          operation, or the total outside operations
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from tracing import SETUP, Tracer
from workloads import WORKLOADS, sha256, signature_counts

SETUP_REPEATS = 5  # set-ups per untraced run, and more until SETUP_MIN_S is spent
SETUP_MIN_S = 3.0
BENCH_DIR = Path(__file__).resolve().parent
CHECK = "check"  # tracer scope while outputs are checked
FINISH = "finish"  # tracer scope of the workload's finish step
OUTSIDE_OPS = (SETUP, FINISH)


@dataclass
class OpRecord:
    phase: str
    index: int  # position in the phase's cycle of operations
    scope: int  # run-wide operation number, the tracer's scope
    seconds: float
    digest: str | None
    problems: list[str]
    info: dict
    traced: bool = False


def _run_op(wl, phase: str, k: int, scope: int, tracer: Tracer | None,
            print_error: bool) -> OpRecord:
    """Run operation `k` of `phase` and check its output, with the tracer's
    wrappers installed if one is given.  An operation that raises gets no
    digest, and prints its traceback if `print_error`."""
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        if tracer is not None:
            tracer.scope = scope
        dt = None
        t0 = perf_counter()
        try:
            out = wl.op(phase, k, scope)
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.scope = CHECK
            digest, problems, info = wl.check(phase, k, out)
        except Exception as exc:  # an operation that raises counts as failed
            if dt is None:
                dt = perf_counter() - t0
            if print_error:
                traceback.print_exc()
            digest, problems, info = None, [f"raised {exc!r}"], {}
    return OpRecord(phase, k, scope, dt, digest, problems, info, tracer is not None)


def run_ops(wl, seconds: float, tracer: Tracer | None = None,
            speed: HostSpeed | None = None) -> list[OpRecord]:
    """Each phase runs its cycle of operations round robin for its share of
    `seconds`, and at least one whole cycle.  With a tracer, every step runs
    its operation twice, untraced and traced, in alternating order, so that
    a drift in the host's speed reaches both halves alike.  With `speed`,
    the host's speed is sampled after every operation."""
    records: list[OpRecord] = []
    printed = False  # only the first operation that raises prints its traceback
    for phase, share in wl.phases:
        n = wl.cycle_len(phase)
        start = perf_counter()
        i = 0
        while i < n or perf_counter() - start < seconds * share:
            if tracer is None:
                tracers = (None,)
            else:
                tracers = (None, tracer) if i % 2 == 0 else (tracer, None)
            for t in tracers:
                records.append(_run_op(wl, phase, i % n, len(records), t, not printed))
                printed = printed or records[-1].digest is None
                if speed is not None:
                    speed.sample(records[-1].seconds)
            i += 1
    return records


def cycle_digest(wl, records, phase: str) -> str:
    """sha256 over the digests of the phase's operations, taking each
    operation's first output."""
    first: dict[int, str | None] = {}
    for r in records:
        if r.phase == phase:
            first.setdefault(r.index, r.digest)
    return sha256("".join(first.get(k) or "-" for k in range(wl.cycle_len(phase))))


def failures(wl, records, pinned: dict) -> tuple[set, list[str]]:
    """Operations that raised, broke an invariant, or disagreed with the
    first output of the same operation; every operation of a phase whose
    first cycle misses the pinned digest."""
    reference: dict = {}
    failed = set()
    for r in records:
        want = reference.setdefault((r.phase, r.index), r.digest)
        if r.problems or r.digest is None or r.digest != want:
            failed.add(r.scope)
    mismatched = [
        phase
        for phase, _ in wl.phases
        if phase in pinned and cycle_digest(wl, records, phase) != pinned[phase]
    ]
    failed.update(r.scope for r in records if r.phase in mismatched)
    return failed, mismatched


def _by_phase(wl, records) -> dict[str, list[float]]:
    """phase -> latencies in ms"""
    return {
        phase: [r.seconds * 1e3 for r in records if r.phase == phase] for phase, _ in wl.phases
    }


def per_phase(fn, wl, records) -> float:
    """`fn` of each phase's latencies in ms, averaged over the workload's
    phases.  A phase runs for a share of the time, so the phases' operation
    counts follow their speeds; a quantile of the pooled latencies of
    plan-queries-1k's two blocks (about 30 and 16 ms per query on a 2-vCPU
    x86_64 VM) would land at whichever quantile of one block that ratio
    picks."""
    return statistics.fmean(fn(ms) for ms in _by_phase(wl, records).values())


def p95(values) -> float:
    return statistics.quantiles(values, n=20)[18]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: Path) -> str:
    """The commit checked out in `root`, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment(work: Path) -> dict:
    dev = os.stat(work).st_dev
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "nproc": os.cpu_count(),
        "machine": os.uname().machine,
        "kernel": os.uname().release,
        "git_sha": git_sha(BENCH_DIR.parent),
        "work_dir": str(work.relative_to(BENCH_DIR.parent)),
        "work_fs_device": f"{os.major(dev)}:{os.minor(dev)}",
    }


# ---------------------------------------------------------------------------
# per-layer metrics

TIMES = {  # metric -> (span or leaf name, total or self time)
    "maint.apply_action_s": ("maint.apply_action", "seconds"),
    "maint.plan_actions_self_s": ("maint.plan_actions", "self"),
    "maint.run_maintenance_self_s": ("maint.run_maintenance", "self"),
    "contract.body_hash_s": ("contract.body_hash", "seconds"),
    "contract.parse_skill_file_s": ("contract.parse_skill_file", "seconds"),
    "contract.serialize_skill_file_s": ("contract.serialize_skill_file", "seconds"),
    "hseg.build_s": ("hseg.build_hseg", "seconds"),
    "cgpd.propagate_s": ("cgpd.propagate", "seconds"),
    "health.library_health_s": ("health.library_health", "seconds"),
    "planner.rank_candidates_s": ("planner.rank_candidates", "seconds"),
    "planner.stitch_s": ("planner.stitch", "seconds"),
    "planner.build_plan_self_s": ("planner.build_plan", "self"),
    "harness.load_library_s": ("harness.load_library", "seconds"),
    "harness.load_trace_s": ("harness.load_trace", "seconds"),
    "harness.save_library_s": ("harness.save_library", "seconds"),
    "harness.exercise_library_s": ("harness.exercise_library", "seconds"),
    "debtgen.build_library_s": ("debtgen.build_library", "seconds"),
    "widegen.build_wide_library_s": ("widegen.build_wide_library", "seconds"),
}

COUNTS = {  # metric -> span or leaf name
    "maint.apply_action_calls": "maint.apply_action",
    "contract.body_hash_calls": "contract.body_hash",
    "hseg.build_calls": "hseg.build_hseg",
    "health.library_health_calls": "health.library_health",
    "planner.bm25_index_builds": "planner.Bm25Index",
}


def units() -> dict[str, str]:
    """metric -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def per_layer(wl, tally: dict, untraced, traced, finish_info: dict) -> dict[str, float]:
    op_scopes = [r.scope for r in traced]
    first = []
    for phase, _ in wl.phases:
        first += [r for r in traced if r.phase == phase][: wl.cycle_len(phase)]
    first_scopes = [r.scope for r in first]
    empty = {"calls": {}, "seconds": {}, "self": {}}

    def count(name: str) -> float:
        calls = tally.get(name, empty)["calls"]
        if any(s in calls for s in first_scopes):
            return sum(calls.get(s, 0) for s in first_scopes) / len(first_scopes)
        return sum(calls.get(s, 0) for s in OUTSIDE_OPS)

    def first_info(key: str) -> float:
        return statistics.fmean(r.info.get(key, 0) for r in first)

    out: dict[str, float] = {}
    for metric, (name, kind) in TIMES.items():
        per_scope = tally.get(name, empty)[kind]
        if any(s in per_scope for s in op_scopes):
            out[metric] = statistics.median(per_scope.get(s, 0.0) for s in op_scopes)
        else:
            out[metric] = sum(per_scope.get(s, 0.0) for s in OUTSIDE_OPS)
    for metric, name in COUNTS.items():
        out[metric] = count(name)

    calls = tally.get("maint.apply_action", empty)["calls"]
    if any(s in calls for s in first_scopes):
        actions = sum(r.info.get("actions", 0) for r in first)
        applied = sum(calls.get(s, 0) for s in first_scopes)
    else:
        actions, applied = wl.setup_info.get("actions", 0), calls.get(SETUP, 0)
    out["maint.apply_per_action"] = applied / actions if actions else 0.0

    a_sigs, p_sigs = signature_counts(wl.input)
    out["hseg.signature_pairs"] = a_sigs * p_sigs
    out["cgpd.iterations"] = first_info("iterations")
    out["cgpd.converged"] = first_info("converged")
    out["planner.feasible_ratio"] = first_info("feasible")
    has_planner = any("feasible" in r.info for r in first)
    out["planner.query_p95_ms"] = per_phase(p95, wl, untraced) if has_planner else 0.0
    out["harness.files_written"] = finish_info.get("files_written", 0)
    out["harness.bytes_written"] = finish_info.get("bytes_written", 0)
    return out


# ---------------------------------------------------------------------------
# runs

def _reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))


def _finish(wl, records) -> dict:
    """Run the workload's finish step; its problems fail the last operation."""
    problems, info = wl.finish()
    records[-1].problems.extend(problems)
    return info


def _untraced(make, seed: int, seconds: float, work: Path):
    """Set-up times are scaled by the host speed sampled between set-ups,
    operation times by the one sampled between operations, as the host may
    drift from one stretch to the other."""
    setup_speed, op_speed = HostSpeed(), HostSpeed()
    setup_times = []
    wl = None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        wl = None  # free the previous set-up's inputs before timing the next
        wl = make()
        t0 = perf_counter()
        wl.setup(seed)
        setup_times.append(perf_counter() - t0)
        setup_speed.sample(setup_times[-1])
    wl.prepare(work)
    records = run_ops(wl, seconds, speed=op_speed)
    _finish(wl, records)
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(records) / sum(r.seconds for r in records),
        "op_p50_ms": per_phase(statistics.median, wl, records),
    }
    k = op_speed.factor
    unit = units()
    values = {
        "setup_s": raw["setup_s"] * setup_speed.factor,
        "ops_per_s": raw["ops_per_s"] / k,
        "op_p50_ms": raw["op_p50_ms"] * k,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (v, unit[name]) for name, v in values.items()}
    detail = {
        "raw": raw,
        "setup_s_samples": setup_times,
        "host_unit_ms": {"setup": setup_speed.unit_s * 1e3, "ops": op_speed.unit_s * 1e3},
    }
    if all(len(v) >= 200 for v in _by_phase(wl, records).values()):
        # at least ten samples beyond each phase's 95th percentile
        detail["op_p95_ms"] = per_phase(p95, wl, records) * k
    return wl, metrics, records, detail


def _traced(wl, seed: int, seconds: float, work: Path, spans_path: Path):
    tracer = Tracer()
    with tracer.installed():
        wl.setup(seed)
        wl.prepare(work)
    records = run_ops(wl, seconds, tracer=tracer)
    with tracer.installed():
        tracer.scope = FINISH
        finish_info = _finish(wl, records)
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    values = per_layer(wl, tracer.tally(), untraced, traced, finish_info)
    unit = units()
    metrics = {name: (v, unit[name]) for name, v in values.items()}
    untraced_digest = {(r.phase, r.index): r.digest for r in untraced}
    traced_p50, untraced_p50 = (per_phase(statistics.median, wl, rs) for rs in (traced, untraced))
    detail = {
        "traced_digests_equal_untraced": all(
            untraced_digest[r.phase, r.index] == r.digest for r in traced
        ),
        "untraced_op_p50_ms": untraced_p50,
        "traced_op_p50_ms": traced_p50,
        "trace_overhead_ms": traced_p50 - untraced_p50,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(BENCH_DIR.parent)),
    }
    return metrics, records, detail, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object plus a "detail" entry."""
    work = BENCH_DIR / "_work" / f"{name}-{os.getpid()}"
    spans_path = BENCH_DIR / "_spans" / f"{name}-seed{seed}.jsonl"
    pinned = _reference()["digests"].get(name, {}).get(str(seed), {})
    work.mkdir(parents=True)
    try:
        env = environment(work)
        tracer = None
        if trace:
            wl = WORKLOADS[name]()
            metrics, records, detail, tracer = _traced(wl, seed, seconds, work, spans_path)
        else:
            wl, metrics, records, detail = _untraced(WORKLOADS[name], seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    failed, mismatched = failures(wl, records, pinned)
    phases = {}
    for phase, _ in wl.phases:
        mine = [r for r in records if r.phase == phase]
        phases[phase] = {"ops": len(mine), "p50_ms": statistics.median(r.seconds for r in mine) * 1e3,
                         "cycle_digest": cycle_digest(wl, records, phase)}
    detail.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        samples=len(records),
        error_rate=len(failed) / len(records),
        pinned=("not pinned" if not pinned else
                "mismatch: " + ", ".join(mismatched) if mismatched else "match"),
        problems=sorted({p for r in records for p in r.problems})[:5],
        phases=phases,
        environment=env,
    )
    if tracer is not None:
        tracer.write_spans(spans_path, {k: detail[k] for k in ("workload", "seed", "environment")})
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
