"""Configs and traces check themselves when built: constructing an invalid
value, or replacing a valid one's fields with invalid ones, raises the
exception type and message each type's check raised when it was a separate
validate() call."""

import dataclasses
import math

import pytest

from skillops.cgpd import CgpdConfig
from skillops.contract import ConfigInvalid, SkillOpsError
from skillops.health import HealthWeights
from skillops.maint import MaintenanceConfig
from skillops.planner import ExecutionTrace, PlannerConfig, TraceEntry

nan, inf = math.nan, math.inf


def _trace(*entries):
    return tuple(TraceEntry(*e) for e in entries)


INVALID = [
    (PlannerConfig, {"lam": 1.5}, ConfigInvalid, "lam must be in [0, 1], got 1.5"),
    (PlannerConfig, {"lam": nan}, ConfigInvalid, "lam must be in [0, 1], got nan"),
    (PlannerConfig, {"k1": -1.0}, ConfigInvalid, "k1 must be finite and >= 0, got -1.0"),
    (PlannerConfig, {"k1": inf}, ConfigInvalid, "k1 must be finite and >= 0, got inf"),
    (PlannerConfig, {"b": 5.0}, ConfigInvalid, "b must be in [0, 1], got 5.0"),
    (PlannerConfig, {"theta_score": -inf}, ConfigInvalid, "theta_score must be finite, got -inf"),
    (PlannerConfig, {"bm25_k": 3, "keep_top": 5}, ConfigInvalid,
     "bm25_k must be at least keep_top"),
    (PlannerConfig, {"beam_width": 0}, ConfigInvalid,
     "keep_top, beam_width and horizon must be positive"),
    (PlannerConfig, {"horizon": 0}, ConfigInvalid,
     "keep_top, beam_width and horizon must be positive"),
    # the first failing check names the error
    (PlannerConfig, {"lam": 2.0, "beam_width": 0}, ConfigInvalid,
     "lam must be in [0, 1], got 2.0"),
    (CgpdConfig, {"alpha": 1.0}, ConfigInvalid, "alpha must be in [0, 1), got 1.0"),
    (CgpdConfig, {"eps": nan}, ConfigInvalid, "eps must be positive and finite, got nan"),
    (CgpdConfig, {"max_iters": 0}, ConfigInvalid, "max_iters must be at least 1, got 0"),
    (CgpdConfig, {"tau": 1.5}, ConfigInvalid, "tau must be in [0, 1], got 1.5"),
    (CgpdConfig, {"alpha": -0.1, "tau": 2.0}, ConfigInvalid,
     "alpha must be in [0, 1), got -0.1"),
    (HealthWeights, {"w_u": 0.5}, ValueError, "health weights must sum to 1, got 1.3"),
    (HealthWeights, {"w_u": nan}, ValueError,
     "health weights must lie in [0, 1], got (nan, 0.2, 0.2, 0.2, 0.2)"),
    (HealthWeights, {"w_g": -0.2, "w_u": 0.6}, ValueError,
     "health weights must lie in [0, 1], got (0.6, 0.2, 0.2, 0.2, -0.2)"),
    (MaintenanceConfig, {"theta_u": 1.5}, ConfigInvalid, "theta_u must be in [0, 1], got 1.5"),
    (MaintenanceConfig, {"comp_threshold": nan}, ConfigInvalid,
     "comp_threshold must be in [0, 1], got nan"),
    (MaintenanceConfig, {"dep_mode": "sideways"}, ConfigInvalid,
     "unknown dep_mode: 'sideways'"),
    (MaintenanceConfig, {"window": 0}, ConfigInvalid, "window must be positive, got 0"),
    (MaintenanceConfig, {"debt_gate": -1.0, "window": 0}, ConfigInvalid,
     "debt_gate must be in [0, 1], got -1.0"),
    (ExecutionTrace, {"entries": _trace(("t", "s", 0, "exploded"))}, SkillOpsError,
     "unknown outcome: 'exploded'"),
    # entries are judged in order, outcome before step
    (ExecutionTrace, {"entries": _trace(("t", "s", 1, "success"), ("u", "s", 0, "bad"),
                                        ("t", "s", 1, "success"))},
     SkillOpsError, "unknown outcome: 'bad'"),
    (ExecutionTrace, {"entries": _trace(("t", "s", 1, "success"), ("u", "s", 0, "success"),
                                        ("t", "s", 1, "success"), ("u", "s", 0, "success"))},
     SkillOpsError, "step indices must strictly increase per task: t"),
]


@pytest.mark.parametrize("cls, fields, error, message", INVALID,
                         ids=[f"{c[0].__name__}-{i}" for i, c in enumerate(INVALID)])
def test_an_invalid_value_cannot_be_built_or_replaced_into(cls, fields, error, message):
    with pytest.raises(error) as built:
        cls(**fields)
    with pytest.raises(error) as replaced:
        dataclasses.replace(cls(), **fields)
    for raised in (built, replaced):
        assert type(raised.value) is error
        assert str(raised.value) == message


@pytest.mark.parametrize("cls", [PlannerConfig, CgpdConfig, HealthWeights,
                                 MaintenanceConfig, ExecutionTrace])
def test_no_separate_validate_remains(cls):
    assert not hasattr(cls, "validate")
