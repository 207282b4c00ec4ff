"""Command-line front end.

    frontlab run <config> [--out DIR]     run a scenario config file
    frontlab preset <name> [--out DIR]    run a built-in preset
    frontlab preset --list                list preset names
    frontlab verify <run_dir>             recompute checks for a stored run, or
                                          for each run of a verify-all tree
    frontlab probe <config> [--out DIR]   run with the uniqueness probe forced on

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error,
3 numeric stability or front escape error, or any other failure of a run.
"""

import argparse
import sys

from .config import parse_config
from .errors import ConfigError
from .presets import VERIFY_ALL, list_presets, preset_text
from .runner import EXIT_CONFIG, NO_CHECKS, NO_RECHECK, fail_run, run, run_verify_all, verify_run_dir


def _emit(result) -> int:
    for line in result.verdicts:
        print(line)
    return result.exit_code


def _config_error(message: str, out_dir) -> int:
    """One stderr line for a config that cannot be read or parsed and, when
    --out names a directory, a one-line FAILED marker there."""
    print(f"config error: {message}", file=sys.stderr)
    if out_dir is None:
        return EXIT_CONFIG
    return _emit(fail_run(out_dir, f"config error: {message}", EXIT_CONFIG))


def _run_text(text: str, out_dir, force_probe: bool = False) -> int:
    try:
        config = parse_config(text, force_probe=force_probe)
    except ConfigError as err:
        return _config_error(str(err), out_dir)
    result = run(config, out_dir=out_dir, config_text=text)
    if not result.verdicts:
        print(f"{result.out_dir}: {NO_CHECKS}")
    return _emit(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="level-set runs for nonlocal front evolutions, with "
        "built-in quantitative checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_preset = sub.add_parser("preset", help="run a built-in preset")
    p_preset.add_argument("name", nargs="?", default=None)
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--list", action="store_true", help="list preset names")

    p_verify = sub.add_parser("verify", help="recompute checks for a stored run")
    p_verify.add_argument("run_dir")

    p_probe = sub.add_parser("probe", help="run a config with the uniqueness probe on")
    p_probe.add_argument("config")
    p_probe.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command in ("run", "probe"):
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as err:
            return _config_error(str(err), args.out)
        return _run_text(text, args.out, force_probe=args.command == "probe")

    if args.command == "preset":
        if args.list or args.name is None:
            for name in list_presets():
                print(name)
            return 0
        if args.name == VERIFY_ALL:
            out = args.out or "out/verify-all"
            return _emit(run_verify_all(out))
        try:
            text = preset_text(args.name)
        except KeyError:
            return _config_error(f"unknown preset {args.name!r}", args.out)
        return _run_text(text, args.out)

    if args.command == "verify":
        result = verify_run_dir(args.run_dir)
        if not result.verdicts:
            print(f"{args.run_dir}: {NO_RECHECK}")
        return _emit(result)

    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
