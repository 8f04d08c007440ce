"""The one campaign check: every failure condition, every campaign.

Each campaign runs once at a small seeded size; each mutant then breaks
either the baseline (drift) or the result (a gate), and
``campaign.check`` must name it.  The gate mutants keep the baseline
*matching* the broken result, so they prove a baseline cannot launder a
failure.
"""

import copy

import pytest

from repro.pod.campaign import run_pod_campaign
from repro.reliability.campaign import check
from repro.reliability.faults import GateResult, run_campaign
from repro.reliability.recovery import run_recovery_campaign
from repro.serve import LoadSpec, ServeConfig
from repro.serve import run_campaign as run_serve_campaign

RUNS = {
    "detection": lambda get: run_campaign(
        seed=3, faults=8, degree=64, max_level=3, pool_size=3, clean_ops=4),
    "recovery": lambda get: run_recovery_campaign(
        seed=3, faults=8, degree=64, max_level=3, clean_runs=1),
    "serve": lambda get: run_serve_campaign(
        LoadSpec(requests=30, qps=120000.0, seed=5),
        ServeConfig(seed=5, verify_responses=True)),
    "pod": lambda get: run_pod_campaign(seed=5, events=8, chips=3),
    # What ``python -m repro.reliability --check`` compares.
    "reliability": lambda get: GateResult(get("detection"), get("recovery")),
}


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = RUNS[name](get)
        return cache[name]
    return get


def _leaves(doc, path=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _first_site(result):
    return next(s for s in result.sites.values() if s.injected)


# -- drift: the baseline moves, the result is clean ---------------------------


def drifted_integer(result, baseline):
    path, value = next((p, v) for p, v in _leaves(baseline)
                       if type(v) is int)
    _set(baseline, path, value + 1)
    return ".".join(path)


def float_beyond_tolerance(result, baseline):
    # A float in the baseline is compared with a tolerance.  Campaigns
    # that record no float get an integer leaf rewritten as one, which
    # takes the same path.
    numbers = [(p, v) for p, v in _leaves(baseline)
               if type(v) in (int, float) and v]
    path, value = max(numbers, key=lambda pv: type(pv[1]) is float)
    _set(baseline, path, float(value) * 1.01 + 1.0)
    return ".".join(path)


def key_missing_from_baseline(result, baseline):
    key = next(iter(baseline))
    del baseline[key]
    return f"{key} is missing from the baseline"


def extra_key_in_baseline(result, baseline):
    baseline["retired_field"] = 0
    return "retired_field is missing from the run"


# -- gates: the result fails, the baseline agrees with it ---------------------


def wrong_answers(result, baseline):
    if result.sites:
        _first_site(result).wrong += 1
    else:
        result.wrong_answers += 1
    return "gate: wrong_answers"


def unrecovered(result, baseline):
    if result.sites:
        _first_site(result).unrecovered += 1
    else:
        result.failed += 1
    return "gate: unrecovered"


def false_positive(result, baseline):
    part = result.detection if isinstance(result, GateResult) else result
    part.false_positives += 1
    return "gate: false_positives"


def missed_detection(result, baseline):
    _first_site(result).detected -= 1
    return "gate: detection["


DRIFT = (drifted_integer, float_beyond_tolerance, key_missing_from_baseline,
         extra_key_in_baseline)
GATES = (wrong_answers, unrecovered, false_positive, missed_detection)
# Serving keeps no per-site detections and runs no clean phase.
NOT_MEASURED = {("serve", false_positive), ("serve", missed_detection)}
CASES = [(c, m) for c in RUNS for m in DRIFT + GATES
         if (c, m) not in NOT_MEASURED]


@pytest.mark.parametrize("name", list(RUNS))
def test_clean_run_passes_its_own_baseline(results, name):
    result = results(name)
    assert check(result) == []
    assert check(result, result.to_json()) == []
    # Floats in the baseline get max(1e-9, 5e-3 * |want|).
    loose = copy.deepcopy(result.to_json())
    for path, value in _leaves(result.to_json()):
        if type(value) is float:
            _set(loose, path, value * (1 + 1e-3))
    assert check(result, loose) == []


@pytest.mark.parametrize("name,mutant", CASES,
                         ids=[f"{c}-{m.__name__}" for c, m in CASES])
def test_check_reports_every_failure_condition(results, name, mutant):
    result = copy.deepcopy(results(name))
    baseline = copy.deepcopy(result.to_json())
    expected = mutant(result, baseline)
    if mutant in GATES:
        baseline = result.to_json()
    problems = check(result, baseline)
    assert len(problems) == 1, problems
    assert expected in problems[0]
