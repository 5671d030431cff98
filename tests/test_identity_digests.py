"""scripts/identity_digests.py against its committed expected lines, on the
first library's load, plan, rank and diagnose cases, on every maintain case
of the noisy second library, and on the wide library's health, CGPD and
maintain cases in both dep modes."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PREFIXES = tuple(
    f"{kind}/lib200-0.0-0/" for kind in ("load", "plan", "rank", "diagnose")
) + ("maintain/lib500-0.6-42/", "wide/wide2000-0.3-42/")


def test_a_subset_of_the_identity_matrix_prints_the_committed_lines():
    expected = [
        line for line in (SCRIPTS / "identity_digests.txt").read_text().splitlines()
        if line.startswith(PREFIXES)
    ]
    assert len(expected) == 94
    argv = [sys.executable, str(SCRIPTS / "identity_digests.py")]
    for prefix in PREFIXES:
        argv += ["--only", prefix]
    # both hash seeds at once: the output must not depend on either
    runs = {
        seed: subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                               env={**os.environ, "PYTHONHASHSEED": seed})
        for seed in ("0", "123")
    }
    for seed, run in runs.items():
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        assert out.splitlines() == expected, f"PYTHONHASHSEED={seed}"
