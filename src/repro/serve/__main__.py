"""CLI for the serving front-end: ``python -m repro.serve --campaign``.

Runs the seeded fault campaign (see `repro.serve.loadgen`) and prints its
report; ``--check``, ``--emit-baseline`` and ``--json`` are the flags
every campaign CLI shares (`repro.reliability.campaign`).  CI runs
``--campaign --check`` as the serving smoke gate, and a failing check
exits non-zero with the list of problems.
"""

from __future__ import annotations

import argparse
import sys

from repro.reliability.campaign import add_cli_flags, finish
from repro.serve.config import ServeConfig
from repro.serve.loadgen import LoadSpec, run_campaign


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="multi-tenant FHE serving campaign")
    p.add_argument("--campaign", action="store_true",
                   help="run the seeded serving fault campaign")
    p.add_argument("--requests", type=int, default=500)
    p.add_argument("--qps", type=float, default=300000.0)
    p.add_argument("--tenants", type=int, default=8)
    p.add_argument("--fault-rate", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=2022)
    add_cli_flags(p, "serve")
    return p


def main(argv=None) -> int:
    p = parser()
    args = p.parse_args(argv)
    if not args.campaign:
        p.print_help()
        return 2

    spec = LoadSpec(requests=args.requests, qps=args.qps,
                    tenants=args.tenants, fault_rate=args.fault_rate,
                    seed=args.seed)
    cfg = ServeConfig(seed=args.seed, verify_responses=True)
    return finish(run_campaign(spec, cfg), args)


if __name__ == "__main__":
    sys.exit(main())
