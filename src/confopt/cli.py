"""Command-line entry point.

Subcommands map one-to-one onto the harness workflow: ``screen`` narrows
bounds, ``optimize`` runs one tuning loop, ``exhaustive`` measures a whole
space, ``compare`` benchmarks optimizers on a stored dataset, ``report``
re-emits dataset artifacts, and ``screen-vs-bo`` runs the matched-budget
reduction study.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
Diagnostics go to standard error; result files land in the output
directory (``CONFOPT_OUT`` overrides any configured or flagged choice).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import harness
from .backends import Backend, ReplayBackend
from .config import (
    ConfigError,
    RunConfig,
    build_backend,
    dump_config,
    emit_reduced_config,
    parse_config,
)
from .optim import OPTIMIZERS
from .screening import screening_report_csv
from .utility import get_utility

logger = logging.getLogger(__name__)


def _out_dir(default: str | Path) -> Path:
    path = Path(os.environ.get("CONFOPT_OUT") or default)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _at_least(minimum: int, expected: str):
    """An argparse type: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


#: A ``--seed`` value: numpy's generators take only non-negative seeds.
_seed = _at_least(0, "a non-negative integer")
#: A run, budget, batch or repetition count.
_count = _at_least(1, "a positive integer")


def _config_inputs(
    args: argparse.Namespace,
) -> tuple[RunConfig, int, Backend | ReplayBackend, Path]:
    """A config command's inputs in the order they are decided: the config,
    the seed (``--seed`` over the config's), the backend, the output directory."""
    config = parse_config(args.config)
    seed = config.seed if getattr(args, "seed", None) is None else args.seed
    return config, seed, build_backend(config), _out_dir(config.output_dir)


def _scoring(config: RunConfig) -> dict:
    """The keyword arguments that score an evaluation under ``config``."""
    return dict(
        utility_fn=get_utility(config.util_func),
        slo=config.slo,
        workload=config.workload,
        weights=config.cost_weights,
        cost_space=config.cost_reference,
    )


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    logger.info("wrote %s", path)


def _summarize(out: Path, summary: str) -> int:
    _write_text(out / "summary.txt", summary)
    print(summary, end="")
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    config, seed, backend, out = _config_inputs(args)
    evaluator = harness.Evaluator(config.space, backend, **_scoring(config))
    # Called through harness, as screen-vs-bo does, so tracing sees both.
    outcome = harness.run_screening(
        config.space,
        harness.sli_objective(evaluator),
        r=config.screening.r,
        p=config.screening_p,
        seed=seed,
    )
    logger.info("screening used %d evaluations", len(outcome.evaluations))
    reduction = harness.reduce_bounds(
        config.space,
        outcome.stats,
        outcome.evaluations,
        config.slo.threshold,
        relaxed_factor=config.screening.relaxed_factor,
        strict_factor=config.screening.strict_factor,
    )
    _write_text(out / "screening_report.csv", screening_report_csv(outcome.stats, reduction))
    reduced_path = out / "reduced-config.yaml"
    dump_config(emit_reduced_config(config, reduction), reduced_path)
    logger.info("wrote %s", reduced_path)
    print(
        f"reduced space: {reduction.reduced_space.size} of "
        f"{config.space.size} configurations"
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    config, seed, backend, out = _config_inputs(args)
    trace = harness.run_optimization(
        config.space,
        config.optimizer,
        backend,
        config.budget,
        config.samples_per_iteration,
        seed,
        options={"p": config.screening_p} if config.optimizer == "moat" else None,
        **_scoring(config),
    )
    harness.write_trace_csv(trace, config.space, out / "trace.csv")
    logger.info("wrote %s", out / "trace.csv")
    return _summarize(out, harness.trace_summary(trace, config.space))


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    config, _, backend, out = _config_inputs(args)
    dataset = harness.collect_exhaustive(
        config.space, backend, **_scoring(config), out_path=out / "dataset.csv"
    )
    logger.info("wrote %s", out / "dataset.csv")
    return _summarize(out, harness.dataset_summary(dataset))


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.optimizers is None:
        # moat is a screening design, not a search strategy; leave it out
        # of the default benchmark set.
        names = sorted(n for n in OPTIMIZERS if n != "moat")
    else:
        names = [n.strip() for n in args.optimizers.split(",") if n.strip()]
    for name in names:
        if name.lower() not in OPTIMIZERS:
            raise ConfigError(
                f"unknown optimizer {name!r}; valid names: "
                f"{', '.join(sorted(OPTIMIZERS))}"
            )
    dataset = harness.load_dataset(args.dataset)
    out = _out_dir(args.out)
    report = harness.compare(
        dataset,
        [n.lower() for n in names],
        args.runs,
        args.budget,
        args.seed,
        batch_size=args.batch,
        workers=args.workers,
    )
    for path in harness.write_comparison_csvs(report, out):
        logger.info("wrote %s", path)
    return _summarize(out, harness.comparison_summary(report))


def _cmd_report(args: argparse.Namespace) -> int:
    dataset = harness.load_dataset(args.infile)
    out = _out_dir(args.out)
    harness.write_dataset_csv(dataset, out / "dataset.csv")
    logger.info("wrote %s", out / "dataset.csv")
    harness.write_slo_cdf_csv(dataset, out / "slo_cdf.csv")
    logger.info("wrote %s", out / "slo_cdf.csv")
    return _summarize(out, harness.dataset_summary(dataset))


def _cmd_screen_vs_bo(args: argparse.Namespace) -> int:
    config, seed, backend, out = _config_inputs(args)
    report = harness.screening_vs_standalone(
        config.space,
        backend,
        total_budget=args.budget,
        r=config.screening.r,
        p=config.screening_p,
        batch_size=config.samples_per_iteration,
        repetitions=args.repetitions,
        base_seed=seed,
        relaxed_factor=config.screening.relaxed_factor,
        strict_factor=config.screening.strict_factor,
        **_scoring(config),
    )
    harness.write_svb_csv(report, out / "screen_vs_bo.csv")
    logger.info("wrote %s", out / "screen_vs_bo.csv")
    return _summarize(out, harness.svb_summary(report))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confopt",
        description="Screening-guided configuration optimization toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    screen = sub.add_parser("screen", help="run sensitivity screening and reduce bounds")
    screen.add_argument("--config", required=True)
    screen.add_argument("--seed", type=_seed, default=None)
    screen.set_defaults(func=_cmd_screen)

    optimize = sub.add_parser("optimize", help="run one optimization loop")
    optimize.add_argument("--config", required=True)
    optimize.add_argument("--seed", type=_seed, default=None)
    optimize.set_defaults(func=_cmd_optimize)

    exhaustive = sub.add_parser("exhaustive", help="measure every configuration")
    exhaustive.add_argument("--config", required=True)
    exhaustive.set_defaults(func=_cmd_exhaustive)

    compare = sub.add_parser("compare", help="benchmark optimizers on a dataset")
    compare.add_argument("--dataset", required=True)
    compare.add_argument(
        "--optimizers", default=None, help="comma-separated names (default: all)"
    )
    compare.add_argument("--runs", type=_count, default=1000)
    compare.add_argument("--budget", type=_count, default=100)
    compare.add_argument("--seed", type=_seed, default=0)
    compare.add_argument("--batch", type=_count, default=6)
    compare.add_argument("--workers", type=int, default=1)
    compare.add_argument("--out", default=".")
    compare.set_defaults(func=_cmd_compare)

    report = sub.add_parser("report", help="emit CDF and summary for a dataset")
    report.add_argument("--in", dest="infile", required=True)
    report.add_argument("--out", default=".")
    report.set_defaults(func=_cmd_report)

    svb = sub.add_parser(
        "screen-vs-bo", help="screening plus BO against standalone BO"
    )
    svb.add_argument("--config", required=True)
    svb.add_argument("--budget", type=_count, required=True)
    svb.add_argument("--repetitions", type=_count, default=1)
    svb.add_argument("--seed", type=_seed, default=None)
    svb.set_defaults(func=_cmd_screen_vs_bo)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
