"""One harness for the seeded fault campaigns.

Four campaigns show that long encrypted runs survive faults: detection
and recovery (`repro.reliability`), serving (`repro.serve`) and the pod
(`repro.pod`).  Each owns only its workload and its fault schedule; what
they share lives here:

* :class:`SiteStats` - the one per-site outcome record;
* :func:`check` - the one baseline comparison, whose absolute gates
  hold whatever the baseline says;
* :func:`render` - the site table every report starts with;
* :func:`add_cli_flags` and :func:`finish` - ``--check [PATH]``,
  ``--emit-baseline PATH`` and ``--json`` for every campaign CLI.

A campaign result is anything with ``report()``, ``to_json()``,
``sites`` (site name -> :class:`SiteStats`), ``wrong_answers``,
``unrecovered`` and ``false_positives``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

_REPO = Path(__file__).resolve().parents[3]


@dataclass
class SiteStats:
    """What one fault site saw over a campaign."""

    injected: int = 0
    detected: int = 0
    recovered: int = 0       # detected, and the final output is bit-exact
    wrong: int = 0           # the run finished with a wrong answer
    unrecovered: int = 0     # recovery ran out of escalations and raised
    benign: int = 0          # no detector fired, yet the output is right
    replayed_steps: int = 0  # step re-executions across recovered trials

    @property
    def undetected(self) -> int:
        return self.injected - self.detected - self.benign

    @property
    def detection_rate(self) -> float:
        return self.detected / self.injected if self.injected else 0.0

    @property
    def recovery_rate(self) -> float:
        return self.recovered / self.detected if self.detected else 0.0

    @property
    def mean_steps_to_recover(self) -> float:
        return self.replayed_steps / self.recovered if self.recovered else 0.0

    def to_json(self, fields) -> dict:
        return {name: getattr(self, name) for name in fields}


def _total(name: str) -> property:
    return property(lambda self: sum(getattr(s, name)
                                     for s in self.sites.values()),
                    doc=f"``{name}`` summed over every site.")


class SiteTotals:
    """Campaign-wide sums over ``self.sites``, for results that keep
    :class:`SiteStats` records."""

    sites: dict[str, SiteStats]

    injected = _total("injected")
    detected = _total("detected")
    recovered = _total("recovered")
    undetected = _total("undetected")
    wrong_answers = _total("wrong")
    unrecovered = _total("unrecovered")

    def detection_rate(self, site: str) -> float:
        return self.sites[site].detection_rate


# -- the one baseline check --------------------------------------------------


def _diff(want, got, path: str = "") -> list[str]:
    """Baseline-vs-run differences: key sets both ways, integers exact,
    a float in the baseline within max(1e-9, 5e-3 * |want|)."""
    if isinstance(want, dict) and isinstance(got, dict):
        problems = []
        for key in sorted(want.keys() | got.keys()):
            where = f"{path}.{key}" if path else key
            if key not in got:
                problems.append(f"baseline: {where} is missing from the run")
            elif key not in want:
                problems.append(f"baseline: {where} is missing from the "
                                "baseline")
            else:
                problems += _diff(want[key], got[key], where)
        return problems
    if isinstance(want, float) and isinstance(got, (int, float)):
        if abs(got - want) <= max(1e-9, 5e-3 * abs(want)):
            return []
    elif want == got and type(want) is type(got):
        return []
    return [f"baseline: {path}: baseline {want!r} != run {got!r}"]


def check(result, baseline: dict | None = None) -> list[str]:
    """Problems with ``result`` (empty = pass).

    Against a ``baseline`` (a previous ``result.to_json()``) every key
    must match.  The absolute gates hold with or without one, so a
    baseline that encodes a failure cannot launder it: 0 wrong answers,
    0 unrecovered faults, 0 false positives, and every site that saw an
    injection detected all of them.
    """
    problems = [] if baseline is None else _diff(baseline, result.to_json())
    for name, s in result.sites.items():
        if s.detected < s.injected:
            problems.append(f"gate: detection[{name}] {s.detected}/"
                            f"{s.injected} < 100%")
    for gate in ("wrong_answers", "unrecovered", "false_positives"):
        if getattr(result, gate):
            problems.append(f"gate: {gate} = {getattr(result, gate)}, "
                            "must be 0")
    return problems


# -- reports -----------------------------------------------------------------

_CELLS = {
    "injected": lambda s: s.injected,
    "detected": lambda s: s.detected,
    "rate": lambda s: f"{s.detection_rate:.1%}",
    "recovered": lambda s: s.recovered,
    "wrong": lambda s: s.wrong,
    "unrecovered": lambda s: s.unrecovered,
    "undetected": lambda s: s.undetected,
    "rec rate": lambda s: f"{s.recovery_rate:.1%}",
    "steps/rec": lambda s: f"{s.mean_steps_to_recover:.1f}",
}


def render(title: str, sites: dict[str, SiteStats], columns,
           lines) -> str:
    """A report: the site table (``columns`` from ``_CELLS``), a blank
    line, then the campaign's own summary ``lines``."""
    from repro.analysis.report import format_table

    table = format_table(
        ["site", *columns],
        [[name, *(_CELLS[c](s) for c in columns)]
         for name, s in sites.items()],
        title=title)
    return "\n".join([table, "", *lines])


# -- CLI ---------------------------------------------------------------------


def add_cli_flags(parser, name: str) -> None:
    """``--check [PATH]``, ``--emit-baseline PATH`` and ``--json``; the
    default baseline is ``tests/<name>/baseline.json``."""
    default = _REPO / "tests" / name / "baseline.json"
    parser.add_argument("--check", nargs="?", const=str(default),
                        metavar="BASELINE",
                        help="also compare against a baseline JSON "
                             f"(default: tests/{name}/baseline.json)")
    parser.add_argument("--emit-baseline", metavar="PATH",
                        help="write this run's result as a new baseline")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable result instead "
                             "of the report")


def finish(result, args) -> int:
    """Print ``result``, write the baseline if asked, then exit nonzero
    on any :func:`check` problem - the absolute gates always apply."""
    doc = result.to_json()
    print(json.dumps(doc, indent=2) if args.json else result.report())
    if args.emit_baseline:
        Path(args.emit_baseline).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"baseline written to {args.emit_baseline}")
    baseline = json.loads(Path(args.check).read_text()) if args.check else None
    problems = check(result, baseline)
    if problems:
        print(f"\nCHECK FAILED ({len(problems)} problems):")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nOK: the absolute gates hold"
          + (f"; baseline check passed ({args.check})" if args.check else ""))
    return 0
