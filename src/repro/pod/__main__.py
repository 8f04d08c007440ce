"""CLI for the pod layer: ``python -m repro.pod --campaign``.

Runs the seeded pod fault campaign (`repro.pod.campaign`: the compiled
serving lstm batch, partitioned over ``--chips`` chips) and prints its
report; ``--check``, ``--emit-baseline`` and ``--json`` are the flags
every campaign CLI shares (`repro.reliability.campaign`) - CI runs
``--campaign --check`` plus ``--gate`` as the pod smoke gate.
``--scaling`` prints the 1/2/4/8-chip throughput table instead;
``--gate`` runs the absolute scaling acceptance checks (8-chip
model-parallel speedup floor, data rows bit-identical to the
pre-overlap serialized model).
"""

from __future__ import annotations

import argparse
import sys

from repro.pod.campaign import run_pod_campaign
from repro.reliability.campaign import add_cli_flags, finish


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.pod",
        description="K-chip pod fault campaign and scaling study")
    p.add_argument("--campaign", action="store_true",
                   help="run the seeded chip/link fault campaign")
    p.add_argument("--events", type=int, default=520,
                   help="minimum faults to inject (default 520)")
    p.add_argument("--chips", type=int, default=4)
    p.add_argument("--seed", type=int, default=2022)
    add_cli_flags(p, "pod")
    p.add_argument("--scaling", action="store_true",
                   help="print the 1/2/4/8-chip throughput table")
    p.add_argument("--gate", action="store_true",
                   help="run the absolute scaling gate (model "
                        "speedup floor + data-row bit-identity)")
    return p


def main(argv=None) -> int:
    p = parser()
    args = p.parse_args(argv)

    if args.gate:
        from repro.pod.scaling import scaling_gate

        problems = scaling_gate()
        if problems:
            print(f"SCALING GATE FAILED ({len(problems)} problems):")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("scaling gate passed")
        return 0

    if args.scaling:
        from repro.pod.scaling import scaling_table

        print(scaling_table())
        return 0

    if not args.campaign:
        p.print_help()
        return 2

    return finish(run_pod_campaign(seed=args.seed, events=args.events,
                                   chips=args.chips), args)


if __name__ == "__main__":
    sys.exit(main())
