"""Command-line front end.

    bcmac <subcommand> --config cfg.yaml --out DIR
    bcmac validate     --config cfg.yaml

Each objective of ``scenario.OBJECTIVES`` names the subcommand that runs it
(region, balance, powermin, nonlinear).  Every setting comes from the
config; besides ``--config`` and ``--out`` the only flag is ``--log-level``.
Exit codes: 0 success, 2 invalid config or usage, 3 solver failure (the
metadata sidecar, with ``partial: true``, and the result files finished
before the failure: a region sweep keeps its rows up to the failing point).
"""

import argparse
import logging
import sys

import yaml

from . import scenario
from .errors import BcMacError

log = logging.getLogger("bcmac")

def _add_common(p, with_out=True):
    p.add_argument("--config", required=True, help="scenario config (YAML)")
    if with_out:
        p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--log-level", default="WARNING",
                   help="logging level (DEBUG, INFO, WARNING, ...)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bcmac",
        description="Broadcast-channel capacity regions and beamforming under "
                    "multiple transmit covariance constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for objective, row in scenario.OBJECTIVES.items():
        _add_common(sub.add_parser(row.subcommand, help=f"run a {objective} config"))
    _add_common(sub.add_parser("validate", help="check a config"), with_out=False)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = scenario.load_config(args.config)
    except (scenario.ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"config ok: objective={cfg.objective} users={cfg.channels.K} "
              f"nt={cfg.channels.nt} nr={cfg.channels.nr} "
              f"constraints={len(cfg.constraints)}")
        return 0
    wanted = scenario.OBJECTIVES[cfg.objective].subcommand
    if args.command != wanted:
        print(f"config error: objective '{cfg.objective}' runs under subcommand "
              f"'{wanted}', not '{args.command}'", file=sys.stderr)
        return 2
    try:
        paths = scenario.run_scenario(cfg, args.out)
    except BcMacError as exc:
        log.error("solver failure: %s", exc)
        scenario.write_outputs(args.out, cfg.basename, getattr(exc, "files", {}), cfg,
                               partial=True)
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for name in sorted(paths):
        print(paths[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
