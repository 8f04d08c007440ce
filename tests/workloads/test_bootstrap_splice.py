"""The spliced bootstrap emits exactly what op-by-op emission did.

:func:`repro.workloads.bootstrap.emit_bootstrap` records the first body a
builder emits per (plan, namespace) and splices it on later calls.  Each
case here emits a chain of bootstraps through it and through the
op-by-op oracle (``oracles.py``) on twin builders and compares the two
streams field for field, along with the returned values, the builders'
name counters and their phase tags.
"""

from __future__ import annotations

from dataclasses import astuple, replace

import pytest

from repro.compiler.digits import digit_schedule
from repro.compiler.dsl import FheBuilder, Value
from repro.reliability.errors import ScheduleError
from repro.workloads.bootstrap import BootstrapPlan, emit_bootstrap, plan_for
from tests.workloads import oracles

SPARSE = BootstrapPlan(
    top_level=23, input_level=3, cts_stages=2, stc_stages=2,
    baby_rotations=2, giant_rotations_per_stage=2,
    evalmod_mults=14, evalmod_depth=6, evalmod_squarings=5,
    scaling_corrections=4, sparse_slots=True,
)

# name -> (plan, degree, security)
PLANS = {
    "80bit": (plan_for(80), 65536, 80),
    "128bit": (plan_for(128), 65536, 128),
    "200bit": (plan_for(200, 131072), 131072, 200),
    "80bit_packed0.8": (replace(plan_for(80), packed_fraction=0.8),
                        65536, 80),
    "sparse": (SPARSE, 65536, 80),
}


def _builder(plan: BootstrapPlan, degree: int, security: int) -> FheBuilder:
    return FheBuilder("boot", degree=degree, max_level=plan.top_level,
                      digit_schedule=digit_schedule(degree, security,
                                                    plan.top_level))


def _emit_chain(emit, plan, degree, security, source):
    """Three bootstraps in namespace "boot" and one in "alt", with
    application ops and a non-empty phase tag before each."""
    b = _builder(plan, degree, security)
    b.phase("app")
    x = b.input("ct", plan.input_level)
    if source == "v%":
        x = b.add(x, x)
    outs = []
    for namespace in ("boot", "boot", "alt", "boot"):
        b.phase(f"app/{namespace}")
        out = emit(b, x, plan, namespace)
        outs.append(out)
        b.phase("app")
        x = b.add(Value(out.name, plan.input_level),
                  Value(out.name, plan.input_level))
    b.output(x)
    return b, outs


@pytest.mark.parametrize("source", ["in_", "v%"])
@pytest.mark.parametrize("plan_name", PLANS)
def test_splice_matches_op_by_op_emission(plan_name, source):
    plan, degree, security = PLANS[plan_name]
    b, outs = _emit_chain(emit_bootstrap, plan, degree, security, source)
    ref, ref_outs = _emit_chain(oracles.emit_bootstrap, plan, degree,
                                security, source)
    assert [astuple(op) for op in b.program.ops] \
        == [astuple(op) for op in ref.program.ops]
    assert outs == ref_outs
    assert b._counter == ref._counter
    assert b._tag == ref._tag == "app"


def test_spliced_operands_are_their_producers_names():
    """Operand strings are the producing op's result objects, so a
    spliced stream stores each name once."""
    plan, degree, security = PLANS["80bit"]
    b, _ = _emit_chain(emit_bootstrap, plan, degree, security, "v%")
    produced = {}
    for op in b.program.ops:
        for name in op.operands:
            assert name is produced[name]
        produced[op.result] = op.result


def test_spliced_call_still_checks_the_source_level():
    plan = plan_for(80)
    b = _builder(plan, 65536, 80)
    emit_bootstrap(b, b.input("ct", plan.input_level), plan)
    with pytest.raises(ScheduleError):
        emit_bootstrap(b, Value("v%1", plan.top_level + 1), plan)
