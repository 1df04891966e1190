"""One benchmark workload, run in its own process.

``run.py`` starts this file once per workload run (and, with
``--setup-only``, a few more times to sample set-up cost in fresh
interpreters). It imports confopt from the checkout's ``src/``, sets the
workload up, runs passes of the workload's operation for as long as they
fit in ``--seconds``, checks every output, and prints one JSON object as its last
line of standard output.

Every workload is a closed loop of one caller: the next operation starts
when the previous one has returned. A *pass* is the unit the loop repeats:

* ``replay-compare``: one serial ``harness.compare`` call per strategy,
  each over the same block of runs (budget 100, 192-config dataset);
* ``replay-compare-par``: one ``harness.compare(workers=nproc)`` call over
  all four strategies and the same block of runs;
* ``full-grid-study``: one repetition of ``harness.screening_vs_standalone``
  on the 65,536-config grid (budget 150, r=10);
* ``exhaustive-io``: ``confopt exhaustive``, ``confopt report`` and a
  resumed ``confopt exhaustive`` through ``confopt.cli.main``.

An *operation*, the unit of ``attempted`` and ``failed``, is a compare
run, a study repetition or a CLI command.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("replay-compare", "full-grid-study", "exhaustive-io", "replay-compare-par")
STRATEGIES = ("random", "randominc", "bestconfig", "bayesian-ei")
COMPARE_BUDGET = 100
STUDY_BUDGET = 150
STUDY_R = 10
#: Compare runs per strategy and pass, and grid levels per parameter of the
#: generated study and exhaustive-io configs, by size.
RUNS_PER_PASS = {"full": 25, "small": 2}
GRID_LEVELS = {"full": 4, "small": 2}


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _child_cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def import_confopt():
    """Import confopt from the checkout, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "confopt" / "__init__.py").is_file():
        raise SystemExit(f"no confopt sources under {src}")
    sys.path.insert(0, str(src))
    import confopt

    if Path(confopt.__file__).resolve().parent != (src / "confopt").resolve():
        raise SystemExit(f"imported confopt from {confopt.__file__}, not {src}")
    return confopt


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten samples
    above it, and its value; ``None`` below eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


# -- set-up ------------------------------------------------------------------


def write_run_config(confopt, workload: str, seed: int, size: str, model: Path) -> Path:
    """Copy of the bundled full-space config with the run's seed, an
    absolute model path and ``GRID_LEVELS[size]`` levels per parameter."""
    import yaml

    with open(confopt.bundled_path("toystore.yaml"), encoding="utf-8") as handle:
        document = yaml.safe_load(handle)
    levels = GRID_LEVELS[size]
    for parameter in document["slas"][0]["parameters"]:
        box = parameter["searchspace"]
        box["granularity"] = (box["max"] - box["min"]) // (levels - 1)
    document["seed"] = seed
    document["backend"]["model"] = str(model.resolve())
    document["outputDir"] = str((OUT / workload / "results").resolve())
    path = OUT / workload / f"run-seed{seed}.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(document, handle, sort_keys=False)
    return path


def setup(workload: str, seed: int, size: str, tracer=None) -> dict:
    """Everything a workload needs before its first pass. The caller times
    this together with the imports. With a tracer, set-up's calls into
    confopt become per-layer ``setup.*`` values and spans of op ``setup``."""
    confopt = import_confopt()
    imports_s = time.perf_counter() - _T0
    inst = None
    if tracer is not None:
        from tracing import instrument

        inst = instrument(tracer)
    try:
        state = _setup(confopt, workload, seed, size)
    finally:
        if inst is not None:
            inst.remove()
    if tracer is not None:
        state["setup_layers"] = {
            "setup.imports.s": imports_s,
            "setup.config.parse_config.s": tracer.seconds["config.parse_config"],
            "setup.config.build_backend.s": tracer.seconds["config.build_backend"],
            "setup.harness.collect_exhaustive.s": tracer.seconds["harness.collect_exhaustive"],
        }
        # Per-layer values of the passes start from zero.
        for totals in (tracer.seconds, tracer.self_seconds, tracer.calls, tracer.counts):
            totals.clear()
    return state


def _setup(confopt, workload: str, seed: int, size: str) -> dict:
    from confopt import config as config_mod
    from confopt import harness
    from confopt.utility import get_utility

    state = {}
    if workload.startswith("replay-compare"):
        cfg = config_mod.parse_config(confopt.bundled_path("toystore-reduced.yaml"))
        cfg.seed = seed
        backend = config_mod.build_backend(cfg)
        state["dataset"] = harness.collect_exhaustive(
            cfg.space,
            backend,
            get_utility(cfg.util_func),
            cfg.slo,
            cfg.workload,
            weights=cfg.cost_weights,
            cost_space=cfg.cost_reference,
        )
    elif workload == "full-grid-study":
        model = confopt.bundled_path("toystore-model.yaml")
        path = write_run_config(confopt, workload, seed, size, model)
        cfg = config_mod.parse_config(path)
        state["config"] = cfg
        state["backend"] = config_mod.build_backend(cfg)
    else:
        model = BENCH_DIR / "toystore-oom-model.yaml"
        path = write_run_config(confopt, workload, seed, size, model)
        cfg = config_mod.parse_config(path)
        config_mod.build_backend(cfg)
        state["config"] = cfg
        state["config_path"] = path
        state["oom_share"] = expected_oom_share(cfg.space, model)
    return state


def expected_oom_share(space, model_path: Path) -> float:
    """Share of the grid that fails out of memory, worked out from the model
    file alone: a service fails when its memory setting is below half its
    working set."""
    import yaml

    with open(model_path, encoding="utf-8") as handle:
        model = yaml.safe_load(handle)
    surviving = 1.0
    for name in model["chain"]:
        working_set = model["services"][name]["mem_working_set_mi"]
        levels = list(space.parameter(f"{name}Memory").levels())
        ok = sum(1 for mem in levels if not (working_set > 0 and mem < 0.5 * working_set))
        surviving *= ok / len(levels)
    return 1.0 - surviving


# -- passes ------------------------------------------------------------------


def check_comparison(report, name: str) -> None:
    result = report.optimizers[name]
    fractions = list(result.fraction_found_optimal)
    q99 = list(result.distance_q99)
    _check(all(0.0 <= f <= 1.0 for f in fractions), f"{name}: fraction outside [0, 1]")
    _check(
        all(b >= a for a, b in zip(fractions, fractions[1:])),
        f"{name}: fraction_found_optimal decreases with n",
    )
    _check(
        all(b <= a for a, b in zip(q99, q99[1:])),
        f"{name}: distance_q99 increases with n",
    )


class Workload:
    """Pass loop, checks and measurements shared by every workload."""

    def __init__(self, name: str, seed: int, size: str, state: dict):
        self.name = name
        self.seed = seed
        self.size = size
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.pass_walls: list[float] = []
        self.pass_ops: list[int] = []
        self.pass_cpu: list[float] = []
        self.report: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, float] = {}
        self._wall = self._cpu = 0.0

    def op(self, label: str, fn):
        """Run one operation; count it, and its failure if it raises or
        fails a check."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every failure is counted, none stops the run
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def run_pass(self, index: int) -> int:
        """Run pass ``index``; return the operations it attempted."""
        raise NotImplementedError

    @contextlib.contextmanager
    def program(self):
        """Charge the enclosed call into confopt to the current pass, so
        the benchmark's own checks and file handling stay out of it."""
        cpu = _cpu_seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._wall += time.perf_counter() - start
            self._cpu += _cpu_seconds() - cpu

    def timed_pass(self, index: int) -> tuple[float, int, float]:
        """Wall seconds, operations and CPU seconds of one pass."""
        self._wall = self._cpu = 0.0
        ops = self.run_pass(index)
        return self._wall, ops, self._cpu

    def passes(self, seconds: float):
        """Pass indices for a window of ``seconds``. The next pass starts
        only if, taking as long as the last one, it ends inside the window;
        the first always starts."""
        start = now = time.perf_counter()
        index, last = 0, 0.0
        while index == 0 or now - start + last <= seconds:
            yield index
            index += 1
            last = time.perf_counter() - now
            now += last

    def measure(self, seconds: float) -> None:
        for index in self.passes(seconds):
            wall, ops, cpu = self.timed_pass(index)
            self.pass_walls.append(wall)
            self.pass_ops.append(ops)
            self.pass_cpu.append(cpu)

    def measure_traced(self, seconds: float, tracer) -> None:
        """Run every pass twice with the same inputs, untraced and then
        traced; the wall-time difference is the tracing overhead."""
        from tracing import instrument

        traced_walls: list[float] = []
        for index in self.passes(seconds):
            # Alternate which half goes first, so warm-up and drift fall on
            # both sides.
            for traced in (False, True) if index % 2 == 0 else (True, False):
                if not traced:
                    wall, ops, cpu = self.timed_pass(index)
                    self.pass_walls.append(wall)
                    self.pass_ops.append(ops)
                    self.pass_cpu.append(cpu)
                    continue
                tracer.op = f"{self.name}:pass{index}"
                inst = instrument(tracer)
                try:
                    traced_walls.append(self.timed_pass(index)[0])
                finally:
                    inst.remove()
        self.traced_passes = len(traced_walls)
        overhead = sum(traced_walls) - sum(self.pass_walls)
        self.layers["trace.overhead_s"] = overhead / self.traced_passes
        self.layers["trace.overhead_frac"] = overhead / sum(self.pass_walls)
        self.layers["trace.passes"] = float(self.traced_passes)

    def finish(self) -> None:
        """Checks that need the whole run, after the timed window."""

    def ops_per_s(self) -> float:
        """Operations per second over the whole run. A pass lasts seconds,
        so the host's speed changes between passes; the run total averages
        them out where a median of five passes would pick one."""
        return sum(self.pass_ops) / sum(self.pass_walls)

    def cpu_per_wall(self) -> float:
        return sum(self.pass_cpu) / sum(self.pass_walls)


class ReplayCompare(Workload):
    """Serial replay comparison, one ``compare`` call per strategy."""

    def __init__(self, *args):
        super().__init__(*args)
        self.runs = RUNS_PER_PASS[self.size]
        self.strategy_rates: dict[str, list[float]] = {s: [] for s in STRATEGIES}
        self.found: dict[str, list[float]] = {s: [] for s in STRATEGIES}

    def base_seed(self, index: int) -> int:
        # Pass i replays runs seed + i*runs ... seed + (i+1)*runs - 1, so the
        # run index keeps counting up across passes.
        return self.seed + index * self.runs

    def compare_one(self, name: str, index: int):
        from confopt import harness

        with self.program():
            report = harness.compare(
                self.state["dataset"], [name], self.runs, COMPARE_BUDGET, self.base_seed(index)
            )
        check_comparison(report, name)
        return report

    def run_pass(self, index: int) -> int:
        for name in STRATEGIES:
            before = self._wall
            report = self.op(f"pass {index} compare {name}", lambda: self.compare_one(name, index))
            wall = self._wall - before
            # Each run of the compare call is one operation.
            self.attempted += self.runs - 1
            if report is None:
                self.failed += self.runs - 1
                continue
            self.strategy_rates[name].append(self.runs / wall)
            self.found[name].append(report.optimizers[name].fraction_found_optimal[-1])
        return self.runs * len(STRATEGIES)

    def finish(self) -> None:
        for name in STRATEGIES:
            if self.strategy_rates[name]:
                self.report[f"runs_per_s.{name}"] = (
                    statistics.median(self.strategy_rates[name]),
                    "1/s",
                )
        self.report["runs_per_s"] = (self.ops_per_s(), "1/s")
        self._report_found()

    def _report_found(self) -> None:
        bo = self.found["bayesian-ei"]
        if bo:
            self.report["found_optimal_frac.bayesian-ei"] = (sum(bo) / len(bo), "ratio")
        for name in STRATEGIES:
            values = self.found[name]
            self.layers[f"optim.found_optimal.{name}"] = (
                sum(values) / len(values) if values else 0.0
            )


class ReplayComparePar(ReplayCompare):
    """The same runs as ``replay-compare`` in one process-pool compare call
    per pass; the first pass's CSVs must match the serial path byte for
    byte."""

    def __init__(self, *args):
        super().__init__(*args)
        self.workers = len(os.sched_getaffinity(0))
        self.pool_child_cpu = 0.0

    def compare_all(self, index: int):
        from confopt import harness

        with self.program():
            report = harness.compare(
                self.state["dataset"],
                list(STRATEGIES),
                self.runs,
                COMPARE_BUDGET,
                self.base_seed(index),
                workers=self.workers,
            )
        for name in STRATEGIES:
            check_comparison(report, name)
        if index == 0:
            harness.write_comparison_csvs(report, self.csv_dir("parallel"))
        return report

    def csv_dir(self, kind: str) -> Path:
        path = OUT / self.name / f"seed{self.seed}-{kind}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def run_pass(self, index: int) -> int:
        child_cpu = _child_cpu_seconds()
        report = self.op(f"pass {index} compare", lambda: self.compare_all(index))
        self.pool_child_cpu += _child_cpu_seconds() - child_cpu
        ops = self.runs * len(STRATEGIES)
        self.attempted += ops - 1
        if report is None:
            self.failed += ops - 1
        else:
            for name in STRATEGIES:
                self.found[name].append(report.optimizers[name].fraction_found_optimal[-1])
        return ops

    def measure_traced(self, seconds: float, tracer) -> None:
        # Spans recorded in forked pool workers die with them, so this
        # workload's traced run reports only the harness.pool metrics.
        self.measure(seconds)
        self.traced_passes = len(self.pass_walls)
        self.layers["trace.overhead_s"] = 0.0
        self.layers["trace.overhead_frac"] = 0.0
        self.layers["trace.passes"] = float(self.traced_passes)

    def serial_matches(self) -> None:
        from confopt import harness

        serial = harness.compare(
            self.state["dataset"], list(STRATEGIES), self.runs, COMPARE_BUDGET, self.seed
        )
        serial_dir = self.csv_dir("serial")
        harness.write_comparison_csvs(serial, serial_dir)
        parallel_dir = OUT / self.name / f"seed{self.seed}-parallel"
        for path in sorted(serial_dir.glob("*.csv")):
            other = parallel_dir / path.name
            _check(
                other.is_file() and other.read_bytes() == path.read_bytes(),
                f"{path.name}: parallel compare differs from serial",
            )

    def finish(self) -> None:
        self.op("serial reference compare", self.serial_matches)
        self.report["runs_per_s"] = (self.ops_per_s(), "1/s")
        self._report_found()
        passes = len(self.pass_walls)
        self.layers["harness.pool.child_cpu_s"] = self.pool_child_cpu / passes
        self.layers["harness.pool.cpu_per_wall"] = self.cpu_per_wall()


class FullGridStudy(Workload):
    """Screening plus BO against standalone BO on the full grid."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rep_walls: list[float] = []
        self.combined_found: list[bool] = []
        self.ask_ms: list[float] = []
        self.screening_evals = 0
        self._install_probes()

    def _install_probes(self) -> None:
        """Two clock reads around every standalone ``ask`` and a counter on
        the screening objective; both stay on in the untraced run."""
        from confopt import harness, optim
        from tracing import Instrumentation

        full_size = self.state["config"].space.size
        original_ask = optim.OptimizerSession.ask
        samples = self.ask_ms

        def ask(session):
            start = time.perf_counter()
            proposals = original_ask(session)
            if session.name == "bayesian-ei" and session.space.size == full_size:
                samples.append((time.perf_counter() - start) * 1000.0)
            return proposals

        original_screening = harness.run_screening

        def run_screening(space, objective, **kwargs):
            def counted(config):
                self.screening_evals += 1
                return objective(config)

            return original_screening(space, counted, **kwargs)

        probes = Instrumentation()
        probes.patch(optim.OptimizerSession, "ask", ask)
        probes.patch(harness, "run_screening", run_screening)

    def repetition(self, index: int):
        from confopt import harness
        from confopt.utility import get_utility

        cfg = self.state["config"]
        evals_before = self.screening_evals
        with self.program():
            report = harness.screening_vs_standalone(
                cfg.space,
                self.state["backend"],
                get_utility(cfg.util_func),
                cfg.slo,
                cfg.workload,
                total_budget=STUDY_BUDGET,
                r=STUDY_R,
                repetitions=1,
                base_seed=self.seed + index,
                weights=cfg.cost_weights,
            )
        rep = report.repetitions[0]
        expected = STUDY_R * (cfg.space.dimension + 1)
        spent = self.screening_evals - evals_before
        _check(
            rep.screening_evals == expected and spent == expected,
            f"screening spent {spent} evaluations (reported {rep.screening_evals}), "
            f"expected {expected}",
        )
        for original, reduced in zip(cfg.space.parameters, rep.reduced_space.parameters):
            _check(
                original.name == reduced.name
                and set(reduced.levels()) <= set(original.levels()),
                f"reduced bounds of {reduced.name} leave the original grid",
            )
        return rep

    def run_pass(self, index: int) -> int:
        rep = self.op(f"repetition {index}", lambda: self.repetition(index))
        self.rep_walls.append(self._wall)
        if rep is not None:
            self.combined_found.append(bool(rep.combined_found_reduced_optimum))
        return 1

    def finish(self) -> None:
        self.report["study_rep_s"] = (statistics.median(self.rep_walls), "s")
        if self.ask_ms:
            self.report["ask_p50_ms"] = (statistics.median(self.ask_ms), "ms")
            tail = tail_percentile(self.ask_ms)
            if tail is not None:
                pct, value = tail
                self.report["ask_tail_ms"] = (value, f"ms@p{pct}/n={len(self.ask_ms)}")
        if self.combined_found:
            self.report["combined_found_frac"] = (
                sum(self.combined_found) / len(self.combined_found),
                f"ratio/n={len(self.combined_found)}",
            )


class ExhaustiveIO(Workload):
    """Collect, read back and resume a dataset through the CLI."""

    def __init__(self, *args):
        super().__init__(*args)
        self.eval_walls: list[float] = []
        self.evals: list[int] = []
        self.load_rates: list[float] = []
        self.resume_walls: list[float] = []

    def command(self, label: str, out_dir: Path, argv: list[str]) -> tuple[float, str]:
        from confopt import cli

        os.environ["CONFOPT_OUT"] = str(out_dir)
        stdout = io.StringIO()
        before = self._wall
        with contextlib.redirect_stdout(stdout), self.program():
            code = cli.main(argv)
        wall = self._wall - before
        _check(code == 0, f"{label} exited with {code}")
        return wall, stdout.getvalue()

    def run_pass(self, index: int) -> int:
        size = self.state["config"].space.size
        config = str(self.state["config_path"])
        base = OUT / self.name / f"seed{self.seed}"
        fresh, report, resume = base / "fresh", base / "report", base / "resume"
        for path in (fresh, report, resume):
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)

        def collect():
            wall, summary = self.command("exhaustive", fresh, ["exhaustive", "--config", config])
            _check(f"configurations: {size}\n" in summary, "summary lacks the row count")
            self.check_dataset(fresh / "dataset.csv", size)
            self.eval_walls.append(wall)
            self.evals.append(size)

        def read_back():
            wall, _ = self.command(
                "report", report, ["report", "--in", str(fresh / "dataset.csv")]
            )
            _check(
                (report / "dataset.csv").read_bytes() == (fresh / "dataset.csv").read_bytes(),
                "report re-emitted a different dataset.csv",
            )
            self.load_rates.append(size / wall)

        def resumed():
            lines = (fresh / "dataset.csv").read_bytes().splitlines(keepends=True)
            keep = 1 + size // 2
            torn = lines[keep][: len(lines[keep]) // 2]
            (resume / "dataset.csv.partial").write_bytes(b"".join(lines[:keep]) + torn)
            wall, _ = self.command("resume", resume, ["exhaustive", "--config", config])
            _check(
                (resume / "dataset.csv").read_bytes() == (fresh / "dataset.csv").read_bytes(),
                "resumed dataset.csv differs from the fresh one",
            )
            self.resume_walls.append(wall)
            self.eval_walls.append(wall)
            self.evals.append(size - (keep - 1))

        self.op(f"pass {index} exhaustive", collect)
        self.op(f"pass {index} report", read_back)
        self.op(f"pass {index} resume", resumed)
        shutil.rmtree(base, ignore_errors=True)
        return 3

    def check_dataset(self, path: Path, size: int) -> None:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        header, data = rows[0], rows[1:]
        _check(len(data) == size, f"dataset has {len(data)} rows, expected {size}")
        failed_col = header.index("failed")
        failed = sum(1 for row in data if row[failed_col] == "true")
        expected = self.state["oom_share"]
        _check(
            failed == round(expected * size),
            f"{failed} of {size} rows failed, the model predicts {expected:.4f}",
        )

    def finish(self) -> None:
        if self.evals:
            self.report["evals_per_s"] = (sum(self.evals) / sum(self.eval_walls), "1/s")
        if self.load_rates:
            self.report["load_rows_per_s"] = (statistics.median(self.load_rates), "1/s")
        if self.resume_walls:
            self.report["resume_s"] = (statistics.median(self.resume_walls), "s")


CLASSES = {
    "replay-compare": ReplayCompare,
    "replay-compare-par": ReplayComparePar,
    "full-grid-study": FullGridStudy,
    "exhaustive-io": ExhaustiveIO,
}


def layer_metrics(tracer, passes: int) -> dict[str, float]:
    """Per-layer values from the trace, each per traced pass."""
    seconds, self_seconds, calls, counts = (
        tracer.seconds,
        tracer.self_seconds,
        tracer.calls,
        tracer.counts,
    )
    out: dict[str, float] = {}

    def timing(span: str, with_self: bool = False) -> None:
        out[f"{span}.s"] = seconds[span] / passes
        out[f"{span}.calls"] = calls[span] / passes
        if with_self:
            out[f"{span}.self_s"] = self_seconds[span] / passes

    timing("gp.predict")
    out["gp.predict.candidates"] = counts["gp.predict.candidates"] / passes
    out["gp.predict.ops_computed"] = counts["gp.predict.ops_computed"] / passes
    timing("gp.gp_fit")
    timing("gp.expected_improvement")
    out["gp.jitter_escalations"] = counts["gp.jitter_escalations"] / passes
    for name in STRATEGIES:
        timing(f"optim.ask.{name}", with_self=True)
    timing("optim.tell")
    out["optim.proposals"] = counts["optim.proposals"] / passes
    out["optim.space_exhausted"] = counts["optim.space_exhausted"] / passes
    for attr in ("to_normalized", "config_from_indices", "render", "normalized_grid"):
        timing(f"space.{attr}")
    out["space.validate.calls"] = counts["space.validate.calls"] / passes
    timing("backends.synthetic")
    out["backends.synthetic.evals"] = out.pop("backends.synthetic.calls")
    out["backends.synthetic.failed"] = counts["backends.synthetic.failed"] / passes
    timing("backends.replay")
    out["backends.replay.lookups"] = out.pop("backends.replay.calls")
    timing("utility.allocation_cost")
    timing("screening.run_screening")
    out["screening.evals"] = counts["screening.evals"] / passes
    timing("screening.reduce_bounds")
    reductions = calls["screening.reduce_bounds"]
    out["screening.reduced_size"] = (
        counts["screening.reduced_size"] / reductions if reductions else 0.0
    )
    for attr in ("score_result", "run_optimization", "collect_exhaustive", "load_dataset",
                 "write_dataset_csv"):
        timing(f"harness.{attr}")
    for attr in ("parse_config", "build_backend"):
        timing(f"config.{attr}")
    for command in ("exhaustive", "report"):
        span = f"cli.main.{command}"
        out[f"{span}.self_s"] = self_seconds[span] / passes
        out[f"{span}.calls"] = calls[span] / passes
    out["trace.spans"] = len(tracer.spans) / passes
    return out


def failure_reasons(tracer) -> dict[str, int]:
    prefix = "backends.synthetic.failed:"
    return {k[len(prefix):]: v for k, v in tracer.counts.items() if k.startswith(prefix)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(RUNS_PER_PASS), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import logging

    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    tracer = None
    if args.trace and not args.setup_only:
        from tracing import Tracer

        tracer = Tracer()
    state = setup(args.workload, args.seed, args.size, tracer)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = CLASSES[args.workload](args.workload, args.seed, args.size, state)
    if tracer is not None:
        workload.measure_traced(args.seconds, tracer)
    else:
        workload.measure(args.seconds)
    workload.finish()

    result = {
        "setup_s": setup_s,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "pass_walls": workload.pass_walls,
        "ops_per_s": workload.ops_per_s(),
        "cpu_per_wall": workload.cpu_per_wall(),
        "peak_rss_mb": peak_rss_mb(),
        "report": workload.report,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, workload.traced_passes)
        layers.update(workload.layers)
        layers.update(state["setup_layers"])
        layers.setdefault("harness.pool.child_cpu_s", 0.0)
        layers.setdefault("harness.pool.cpu_per_wall", 0.0)
        for name in STRATEGIES:
            layers.setdefault(f"optim.found_optimal.{name}", 0.0)
        layers["process.cpu_per_wall"] = workload.cpu_per_wall()
        result["layers"] = layers
        result["failure_reasons"] = failure_reasons(tracer)
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
