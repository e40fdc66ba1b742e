"""Command line entry point for the convergence studies.

Subcommands: delta-study, normal-study, levelset-study, solve. Options may
also come from a config file of ``key = value`` lines; each line becomes the
flag ``--key=value`` (``_`` in a key reads as ``-``), parsed by the
subcommand's own parser ahead of the explicit flags, so explicit flags
override the file. Flags are matched exactly, never by prefix, so a key the
subcommand has no flag for is rejected.
"""

from __future__ import annotations

import argparse
import sys

from .studies import (
    _NORM_TARGETS,
    StudyConfig,
    format_rate_table,
    run_delta_study,
    run_levelset_study,
    run_normal_study,
    run_single,
    write_records_csv,
)

_RUNNERS = {
    "delta-study": ("delta", run_delta_study, "perturbed square study"),
    "normal-study": ("normal", run_normal_study, "normal approximation study"),
    "levelset-study": ("levelset", run_levelset_study, "level-set geometry study"),
    "solve": ("single", run_single, "single solve on the square"),
}


def _config_flags(path: str) -> list[str]:
    """Flag tokens of ``key = value`` lines; '#' starts a comment."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _build_parser(config: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """One subparser per study; each flag's dest is its StudyConfig field."""
    parser = argparse.ArgumentParser(
        prog="cutpoisson",
        description="Cut finite element Poisson solver convergence studies",
        parents=[config],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for command, (_, _, help_text) in _RUNNERS.items():
        sp = subs[command] = sub.add_parser(command, help=help_text, allow_abbrev=False)
        default_p = 2 if command == "normal-study" else 1
        sp.add_argument("--p", type=int, default=default_p, help="polynomial degree (1-3)")
        if command != "solve":  # a single solve runs one level
            sp.add_argument("--levels", type=int, help="refinement levels")
        sp.add_argument("--h0", type=float, help="coarsest mesh size")
        sp.add_argument("--out", help="CSV output path (default <study>.csv)")
    subs["delta-study"].add_argument(
        "--alpha", type=float, required=True, help="delta = h^alpha"
    )
    subs["solve"].add_argument("--alpha", type=float, help="delta = h^alpha")
    subs["normal-study"].add_argument(
        "--alpha-n", type=float, required=True, help="frequency exponent"
    )
    subs["normal-study"].add_argument(
        "--norm",
        dest="norm_target",
        default="energy",
        choices=_NORM_TARGETS,
        help="norm whose optimal delta scaling is used",
    )
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the config file's flags placed after the subcommand."""
    config = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    config.add_argument(
        "--config", default=argparse.SUPPRESS, help="key = value file, read before the flags"
    )
    known, rest = config.parse_known_args(argv)
    if "config" in known:
        rest = rest[:1] + _config_flags(known.config) + rest[1:]
    return _build_parser(config).parse_args(rest)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    options = vars(args)
    study_name, runner, _ = _RUNNERS[options.pop("command")]
    out_path = options.pop("out") or f"{study_name}.csv"

    try:
        records = runner(StudyConfig(**options))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1

    try:
        write_records_csv(records, out_path)
    except OSError as exc:
        print(f"runtime failure: cannot write {out_path}: {exc}", file=sys.stderr)
        return 1
    print(format_rate_table(records))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
