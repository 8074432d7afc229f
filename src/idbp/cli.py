"""Command-line front end.

Subcommands: ``inpaint``, ``deblur``, ``pnp`` restore a single image whose
degradation is synthesized from the (seeded) flags, treating the input as
ground truth; ``bench`` runs a whole corpus directory; ``verify`` runs the
numerical verification battery.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  Settings resolve
with precedence builtin defaults < ./idbp.cfg < command-line flags: a file
value fills only a flag left unset, and every file value is checked.
``bench`` takes no ``--trace``; it writes ``<name>_trace.csv`` under ``--output``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import verify as verify_mod
from .bench import (
    DENOISERS,
    SOLVERS,
    ExperimentSpec,
    RunReport,
    emit_trace_csv,
    run_benchmark,
    run_single,
    write_summary_csv,
)
from .pgm import load_pgm, save_pgm
from .rng import RngState

CONFIG_FILENAME = "idbp.cfg"


class UsageError(Exception):
    """Bad invocation: unknown flag, missing flag, malformed value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def load_config_file(path) -> dict[str, str]:
    """INI-style key=value settings; [section] lines and # comments ignored."""
    settings: dict[str, str] = {}
    with open(path, "r") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith(("#", ";")) or line.startswith("["):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"malformed config line {raw.strip()!r} in {path}")
            settings[key.strip().lower().replace("-", "_")] = value.strip()
    return settings


def _build_parser() -> tuple[_Parser, dict[str, argparse.Action]]:
    """The parser, and the flag behind each key ./idbp.cfg may set: the
    flag's long name, with ``-`` read as ``_`` (``lambda`` sets --lambda)."""
    parser = _Parser(prog="idbp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    options = []

    def option(*flags, **kwargs):
        options.append(common.add_argument(*flags, **kwargs))

    option("--input", help="input PGM (ground truth) or corpus directory for bench")
    option("--output", help="output path: restored PGM, or CSV directory for bench")
    option("--mask-frac", type=float, dest="mask_fraction", help="fraction of missing pixels")
    option("--seed", type=int, help="master seed for masks and noise")
    option("--sigma-n", type=float, dest="sigma_n", help="noise standard deviation")
    option("--delta", type=float, help="denoiser noise-level inflation")
    option("--epsilon", type=float, help="inverse-filter regularisation weight")
    option("--auto-tune", action="store_true", default=None, dest="auto_tune",
           help="search for the smallest epsilon that keeps the feasibility margin (deblur)")
    option("--tau", type=float, help="feasibility margin threshold for auto-tuning")
    option("--eps-increment", type=float, dest="eps_increment",
           help="epsilon grid step for auto-tuning")
    option("--iters", type=int, dest="iterations", help="iteration count")
    option("--denoiser", help="|".join(DENOISERS))
    option("--external-cmd", dest="external_cmd",
           help="command line for the external denoiser bridge")
    option("--scenario", type=int, help="deblurring scenario 1-4")
    option("--beta", type=float, help="prior weight (ADMM)")
    option("--lambda", type=float, dest="lam", help="penalty parameter (ADMM)")
    option("--trace", help="write per-iteration CSV here")
    option("--report", help="write summary CSV here")

    sub.add_parser("inpaint", parents=[common], help="restore randomly missing pixels")
    sub.add_parser("deblur", parents=[common], help="restore a blurred noisy image")
    sub.add_parser("pnp", parents=[common], help="restore with the ADMM solver")
    bench = sub.add_parser("bench", parents=[common], help="run a corpus benchmark")
    bench.add_argument("solver", nargs="?", choices=SOLVERS,
                       help="solver for the batch (default idbp)")
    sub.add_parser("verify", help="run the numerical verification battery")
    keys = {flag[2:].replace("-", "_"): action for action in options for flag in action.option_strings}
    return parser, keys


# The values a switch such as auto_tune may take in ./idbp.cfg
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _config_value(key: str, raw: str, action: argparse.Action):
    """A ./idbp.cfg value read as its flag reads it."""
    if action.nargs == 0:  # a switch
        try:
            return _SWITCH_VALUES[raw.lower()]
        except KeyError:
            raise UsageError(f"bad config value {key}={raw!r}: a switch takes one of "
                             f"{'/'.join(_SWITCH_VALUES)}") from None
    try:
        return raw if action.type is None else action.type(raw)
    except ValueError as exc:
        raise UsageError(f"bad config value {key}={raw!r}: {exc}") from exc


def _fill_from_config(args: argparse.Namespace, file_cfg: dict[str, str],
                      keys: dict[str, argparse.Action]) -> None:
    """Set each flag left unset from ./idbp.cfg.  Every key must name a flag,
    and every value must read as its flag reads it, even one a flag overrides."""
    for key, raw in file_cfg.items():
        action = keys.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r} in {CONFIG_FILENAME}; "
                             f"keys are the flags' long names: {', '.join(sorted(keys))}")
        value = _config_value(key, raw, action)
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


def _spec_from_args(args: argparse.Namespace, solver: str | None) -> ExperimentSpec:
    """The spec of what a flag or ./idbp.cfg sets; the spec's defaults cover the rest.

    A spec field is read by its name, the dest of the flag that sets it.  A
    scenario makes the task deblurring, except for ``inpaint``.  ``auto_tune``
    turns idbp (or no solver) into idbp_auto, and is an error with pnp.
    """
    if args.auto_tune:
        if solver == "pnp":
            raise ValueError("--auto-tune selects the idbp_auto solver; it does not apply to pnp")
        solver = "idbp_auto"
    fields = {field.name: getattr(args, field.name, None) for field in dataclasses.fields(ExperimentSpec) if field.init}
    if fields["denoiser"] == "external" and not fields["external_cmd"]:
        fields["external_cmd"] = os.environ.get("IDBP_EXTERNAL_DENOISER")
    task = "deblur" if args.scenario is not None and args.command != "inpaint" else "inpaint"
    fields.update(task=task, solver=solver)
    return ExperimentSpec(**{name: value for name, value in fields.items() if value is not None})


def _require_input(args: argparse.Namespace) -> str:
    if not args.input:
        raise UsageError("--input is required")
    return args.input


def _single_image_command(args: argparse.Namespace) -> int:
    """``inpaint``, ``deblur`` (which needs a scenario) and ``pnp``."""
    if args.command == "deblur" and args.scenario is None:
        raise UsageError("--scenario is required for deblur")
    path = _require_input(args)
    image = load_pgm(path)
    spec = _spec_from_args(args, "pnp" if args.command == "pnp" else "idbp")
    result = run_single(spec, image, RngState(spec.seed))
    row = dataclasses.replace(result.row, name=Path(path).stem)
    parts = [
        f"psnr_in={row.psnr_in_db:.2f} dB",
        f"psnr_out={row.psnr_out_db:.2f} dB",
        f"isnr={row.isnr_db:+.2f} dB",
    ]
    if spec.task == "deblur":
        parts.append(f"bsnr={row.bsnr_db:.2f} dB")
    if spec.solver == "idbp_auto":
        parts.append(f"restarts={result.trace.restart_count}")
    print(f"{spec.task} [{spec.solver}] {Path(path).name}: " + ", ".join(parts))

    if args.output:
        save_pgm(result.estimate, args.output)
    if args.trace:
        emit_trace_csv(result.trace, args.trace)
    if args.report:
        write_summary_csv(RunReport(rows=[row], config=spec.resolved()), args.report)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.trace:
        raise UsageError("bench takes no --trace: it writes <name>_trace.csv for each image under --output")
    corpus_dir = Path(_require_input(args))
    if not corpus_dir.is_dir():
        raise FileNotFoundError(f"corpus directory {corpus_dir} does not exist")
    paths = sorted(corpus_dir.glob("*.pgm"))
    if not paths:
        raise FileNotFoundError(f"no .pgm files in {corpus_dir}")
    corpus = [(p.stem, load_pgm(p)) for p in paths]
    spec = _spec_from_args(args, args.solver)

    report = run_benchmark(spec, corpus)
    out_dir = Path(args.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, trace in report.traces.items():
        emit_trace_csv(trace, out_dir / f"{name}_trace.csv")
    summary_path = Path(args.report or out_dir / "summary.csv")
    write_summary_csv(report, summary_path)

    for row in report.rows:
        if row.error:
            print(f"{row.name}: FAILED {row.error}")
        else:
            print(f"{row.name}: psnr_out={row.psnr_out_db:.2f} dB, isnr={row.isnr_db:+.2f} dB")
    avg = report.averages()
    print(f"average: psnr_out={avg.psnr_out_db:.2f} dB, isnr={avg.isnr_db:+.2f} dB")
    print(f"summary written to {summary_path}")
    return 0


def cli_main(argv) -> int:
    parser, keys = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help paths
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    if args.command == "verify":  # uses no setting, so ./idbp.cfg is not read
        return 0 if verify_mod.run_all() else 2
    try:
        file_cfg = load_config_file(CONFIG_FILENAME) if Path(CONFIG_FILENAME).exists() else {}
        _fill_from_config(args, file_cfg, keys)
        return _cmd_bench(args) if args.command == "bench" else _single_image_command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
