"""Timing constants must be finite: NaN and infinities fail at construction.

Every field here goes through :func:`repro.validation.require_finite`.
NaN slips past a plain ``x < 0`` check, and an infinite time or gap can
keep a run from finishing, so each field is tried at 0, NaN and +-inf:
0 is accepted where the field may be zero and rejected where it must be
positive, and the other three are always rejected.
"""

import math

import pytest

from repro.cell.params import BladeParams, CellParams
from repro.cell.smt import SMTCore
from repro.core.llp import LLPConfig
from repro.sim import Environment
from repro.validation import require_finite


def _smt(**kw):
    return SMTCore(Environment(), **kw)


# (constructor, field, whether 0 is a valid value)
FIELDS = [
    (_smt, "quantum", False),
    (_smt, "switch_cost", True),
    (LLPConfig, "signal_issue", True),
    (LLPConfig, "pass_process", True),
    (LLPConfig, "setup", True),
    (CellParams, "os_quantum", False),
    (CellParams, "context_switch", True),
    (CellParams, "ppe_spe_signal", True),
    (CellParams, "spe_spe_signal", True),
    (CellParams, "dispatch_overhead", True),
    (CellParams, "completion_overhead", True),
    (CellParams, "dma_startup", True),
    (CellParams, "spe_dma_bandwidth", False),
    (CellParams, "eib_bandwidth", False),
    (CellParams, "memory_bandwidth", False),
    (BladeParams, "cross_cell_signal_penalty", True),
    (BladeParams, "cross_cell_bandwidth", False),
]
_IDS = [f"{make.__name__.lstrip('_')}.{name}" for make, name, _ in FIELDS]


@pytest.mark.parametrize("make, name, zero_ok", FIELDS, ids=_IDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_values_are_rejected(make, name, zero_ok, value):
    with pytest.raises(ValueError, match=name):
        make(**{name: value})


@pytest.mark.parametrize("make, name, zero_ok", FIELDS, ids=_IDS)
def test_zero(make, name, zero_ok):
    if zero_ok:
        make(**{name: 0.0})
    else:
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            make(**{name: 0.0})


def test_require_finite_bounds():
    require_finite("x", 0.0)
    require_finite("x", 1e-300, positive=True)
    require_finite("x", 1e300)
    with pytest.raises(ValueError, match="x must be finite and >= 0"):
        require_finite("x", -1e-300)
    with pytest.raises(ValueError, match="x must be finite and positive"):
        require_finite("x", 0.0, positive=True)
