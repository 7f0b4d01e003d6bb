"""Command-line front end.

Subcommands map to the config objectives:

    bcmac region    --config cfg.yaml --out DIR    (wsr_region)
    bcmac balance   --config cfg.yaml --out DIR    (sinr_balance)
    bcmac powermin  --config cfg.yaml --out DIR    (power_balance)
    bcmac nonlinear --config cfg.yaml --out DIR    (nonlinear_wsr)
    bcmac validate  --config cfg.yaml

Every setting comes from the config; besides ``--config`` and ``--out`` the
only flag is ``--log-level``.  Exit codes: 0 success, 2 invalid config or
usage, 3 solver failure (partial results are still written and flagged in
the metadata sidecar).
"""

import argparse
import logging
import sys

import yaml

from . import scenario
from .errors import BcMacError

log = logging.getLogger("bcmac")

SUBCOMMAND_OBJECTIVE = {
    "region": "wsr_region",
    "balance": "sinr_balance",
    "powermin": "power_balance",
    "nonlinear": "nonlinear_wsr",
}


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
    for name in SUBCOMMAND_OBJECTIVE:
        _add_common(sub.add_parser(name))
    _add_common(sub.add_parser("validate"), with_out=False)
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
    wanted = SUBCOMMAND_OBJECTIVE[args.command]
    if cfg.objective != wanted:
        print(f"config error: subcommand '{args.command}' requires objective "
              f"'{wanted}', config has '{cfg.objective}'", file=sys.stderr)
        return 2
    try:
        paths = scenario.run_scenario(cfg, args.out)
    except BcMacError as exc:
        log.error("solver failure: %s", exc)
        scenario.write_outputs(args.out, cfg.basename, {}, cfg, partial=True)
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for name in sorted(paths):
        print(paths[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
