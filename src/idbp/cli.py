"""Command-line front end.

Subcommands: ``inpaint``, ``deblur``, ``pnp`` restore a single image whose
degradation is synthesized from the (seeded) flags, treating the input as
ground truth; ``bench`` runs a whole corpus directory; ``verify`` runs the
numerical verification battery.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  Settings resolve
with precedence builtin defaults < ./idbp.cfg < command-line flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import verify as verify_mod
from .bench import (
    DENOISERS,
    ExperimentSpec,
    ImageRow,
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="idbp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="input PGM (ground truth) or corpus directory for bench")
    common.add_argument("--output", help="output path: restored PGM, or CSV directory for bench")
    common.add_argument("--mask-frac", type=float, dest="mask_frac", help="fraction of missing pixels")
    common.add_argument("--seed", type=int, help="master seed for masks and noise")
    common.add_argument("--sigma-n", type=float, dest="sigma_n", help="noise standard deviation")
    common.add_argument("--delta", type=float, help="denoiser noise-level inflation")
    common.add_argument("--epsilon", type=float, help="inverse-filter regularisation weight")
    common.add_argument("--auto-tune", action="store_true", default=None, dest="auto_tune",
                        help="search for the smallest epsilon that keeps the feasibility margin (deblur)")
    common.add_argument("--tau", type=float, help="feasibility margin threshold for auto-tuning")
    common.add_argument("--eps-increment", type=float, dest="eps_increment",
                        help="epsilon grid step for auto-tuning")
    common.add_argument("--iters", type=int, help="iteration count")
    common.add_argument("--denoiser", help="|".join(DENOISERS))
    common.add_argument("--external-cmd", dest="external_cmd",
                        help="command line for the external denoiser bridge")
    common.add_argument("--scenario", type=int, help="deblurring scenario 1-4")
    common.add_argument("--beta", type=float, help="prior weight (ADMM)")
    common.add_argument("--lambda", type=float, dest="lam", help="penalty parameter (ADMM)")
    common.add_argument("--trace", help="write per-iteration CSV here")
    common.add_argument("--report", help="write summary CSV here")

    sub.add_parser("inpaint", parents=[common], help="restore randomly missing pixels")
    sub.add_parser("deblur", parents=[common], help="restore a blurred noisy image")
    sub.add_parser("pnp", parents=[common], help="restore with the ADMM solver")
    bench = sub.add_parser("bench", parents=[common], help="run a corpus benchmark")
    bench.add_argument("solver", nargs="?", choices=("idbp", "idbp_auto", "pnp"),
                       help="solver for the batch (default idbp)")
    sub.add_parser("verify", help="run the numerical verification battery")
    return parser


class _Settings:
    """Precedence-aware view over CLI args and the optional config file."""

    def __init__(self, args: argparse.Namespace, file_cfg: dict[str, str]):
        self.args = args
        self.file_cfg = file_cfg

    def get(self, key: str, builtin=None, cast=str):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.file_cfg:
            raw = self.file_cfg[key]
            try:
                if cast is bool:
                    return raw.lower() in ("1", "true", "yes", "on")
                return cast(raw)
            except ValueError as exc:
                raise UsageError(f"bad config value {key}={raw!r}: {exc}") from exc
        return builtin


# ExperimentSpec field -> (setting name, type)
_SPEC_SETTINGS = {
    "denoiser": ("denoiser", str), "external_cmd": ("external_cmd", str), "seed": ("seed", int),
    "mask_fraction": ("mask_frac", float), "sigma_n": ("sigma_n", float), "scenario": ("scenario", int),
    "delta": ("delta", float), "epsilon": ("epsilon", float), "iterations": ("iters", int),
    "tau": ("tau", float), "eps_increment": ("eps_increment", float), "beta": ("beta", float),
    "lam": ("lam", float),
}


def _spec_from_settings(settings: _Settings, task: str, solver: str | None) -> ExperimentSpec:
    """The spec of what a flag or ./idbp.cfg sets; the spec's defaults cover the rest.

    ``auto_tune`` turns idbp (or no solver) into idbp_auto, and is an error with pnp.
    """
    if settings.get("auto_tune", False, bool):
        if solver == "pnp":
            raise ValueError("--auto-tune selects the idbp_auto solver; it does not apply to pnp")
        solver = "idbp_auto"
    fields = {name: settings.get(key, cast=cast) for name, (key, cast) in _SPEC_SETTINGS.items()}
    if fields["denoiser"] == "external" and not fields["external_cmd"]:
        fields["external_cmd"] = os.environ.get("IDBP_EXTERNAL_DENOISER")
        if not fields["external_cmd"]:
            raise UsageError("--denoiser external needs --external-cmd or IDBP_EXTERNAL_DENOISER")
    fields.update(task=task, solver=solver)
    return ExperimentSpec(**{name: value for name, value in fields.items() if value is not None})


def _require_input(settings: _Settings) -> str:
    path = settings.get("input")
    if not path:
        raise UsageError("--input is required")
    return path


def _single_image_command(settings: _Settings, task: str, solver: str) -> int:
    path = _require_input(settings)
    image = load_pgm(path)
    spec = _spec_from_settings(settings, task, solver)
    result = run_single(spec, image, RngState(spec.seed))
    parts = [
        f"psnr_in={result.psnr_in_db:.2f} dB",
        f"psnr_out={result.psnr_out_db:.2f} dB",
        f"isnr={result.isnr_db:+.2f} dB",
    ]
    if task == "deblur":
        parts.append(f"bsnr={result.bsnr_db:.2f} dB")
    if spec.solver == "idbp_auto":
        parts.append(f"restarts={result.trace.restart_count}")
    print(f"{task} [{spec.solver}] {Path(path).name}: " + ", ".join(parts))

    output = settings.get("output")
    if output:
        save_pgm(result.estimate, output)
    trace_path = settings.get("trace")
    if trace_path:
        emit_trace_csv(result.trace, trace_path)
    report_path = settings.get("report")
    if report_path:
        row = ImageRow(
            name=Path(path).stem,
            psnr_in_db=result.psnr_in_db,
            psnr_out_db=result.psnr_out_db,
            isnr_db=result.isnr_db,
            bsnr_db=result.bsnr_db,
        )
        write_summary_csv(RunReport(rows=[row], config=spec.resolved()), report_path)
    return 0


def _cmd_inpaint(settings: _Settings) -> int:
    return _single_image_command(settings, "inpaint", "idbp")


def _cmd_deblur(settings: _Settings) -> int:
    if settings.get("scenario", cast=int) is None:
        raise UsageError("--scenario is required for deblur")
    return _single_image_command(settings, "deblur", "idbp")


def _cmd_pnp(settings: _Settings) -> int:
    task = "deblur" if settings.get("scenario", cast=int) is not None else "inpaint"
    return _single_image_command(settings, task, "pnp")


def _cmd_bench(settings: _Settings) -> int:
    corpus_dir = Path(_require_input(settings))
    if not corpus_dir.is_dir():
        raise FileNotFoundError(f"corpus directory {corpus_dir} does not exist")
    paths = sorted(corpus_dir.glob("*.pgm"))
    if not paths:
        raise FileNotFoundError(f"no .pgm files in {corpus_dir}")
    corpus = [(p.stem, load_pgm(p)) for p in paths]

    task = "deblur" if settings.get("scenario", cast=int) is not None else "inpaint"
    spec = _spec_from_settings(settings, task, settings.args.solver)

    report = run_benchmark(spec, corpus)
    out_dir = Path(settings.get("output", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, trace in report.traces.items():
        emit_trace_csv(trace, out_dir / f"{name}_trace.csv")
    summary_path = Path(settings.get("report") or out_dir / "summary.csv")
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
    parser = _build_parser()
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
        settings = _Settings(args, file_cfg)
        handler = {
            "inpaint": _cmd_inpaint,
            "deblur": _cmd_deblur,
            "pnp": _cmd_pnp,
            "bench": _cmd_bench,
        }[args.command]
        return handler(settings)
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
