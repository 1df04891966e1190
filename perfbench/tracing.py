"""Spans and counters recorded around confopt's public entry points.

Nothing here edits confopt itself: :func:`instrument` replaces the names
that confopt's modules call each other through (``confopt.optim.gp_fit``,
``confopt.harness.run_screening``, ``SurrogateModel.predict`` and so on)
with timing wrappers, and :meth:`Instrumentation.remove` puts the
originals back. Modules bind each other's functions with ``from ...
import``, so every name is patched in the module that calls it.

Each span records its name, start, end, parent span and operation id.
Spans are kept in memory and written out once, at the end of a run. Calls
that are both hot and short (space bookkeeping, scoring, backend
evaluations, replay lookups) are aggregated into per-name totals instead
of being stored one by one; their time still counts as covered by the
enclosing span, so self times stay exact.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Span stack with per-name totals, self times and call counts.

    Self time is a span's duration minus the part its child spans cover.
    Only the thread that runs the workload records spans; confopt's thread
    pool is not used by the benchmark workloads.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int, str]] = []
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op = "setup"
        self._stack: list[list] = []
        self._next_id = 0

    def push(self, name: str, record: bool) -> list:
        parent = self._stack[-1][4] if self._stack else -1
        if record:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent
        frame = [name, _clock(), 0.0, parent, span_id, record]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = _clock()
        name, start, covered, parent, span_id, record = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.seconds[name] += duration
        self.self_seconds[name] += duration - covered
        self.calls[name] += 1
        if record:
            self.spans.append((name, start, end, parent, span_id, self.op))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, span_id, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def _spanned(tracer: Tracer, name, fn, *, record: bool = True, after=None, op=None):
    """Wrap ``fn`` in a span. ``name`` may be a callable of the call's
    arguments; ``op``, when given, is one too, and names the operation the
    call starts, nested under the current one for the call's duration."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = tracer.op
        if op is not None:
            tracer.op = f"{outer}/{op(*args, **kwargs)}"
        frame = tracer.push(name(*args, **kwargs) if callable(name) else name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(frame)
            tracer.op = outer
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


class Instrumentation:
    """Undo list for attribute patches."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def predict_ops(n_points: int, n_inputs: int, dim: int) -> int:
    """Floating-point operations of one ``SurrogateModel.predict`` call,
    computed from its array shapes: squared distances, the kernel
    exponential, the mean product, the two triangular solves of
    ``cho_solve`` and the variance reduction."""
    cross = n_points * n_inputs
    return cross * (2 * dim + 9) + 2 * n_inputs * cross


def instrument(tracer: Tracer) -> Instrumentation:
    """Patch every traced entry point; returns the undo list."""
    from confopt import backends, cli, config, gp, harness, optim, space

    inst = Instrumentation()

    # -- gp ------------------------------------------------------------------
    def after_fit(model, *args, **kwargs):
        if model.jitter > gp.DEFAULT_JITTER:
            tracer.counts["gp.jitter_escalations"] += 1

    inst.patch(optim, "gp_fit", _spanned(tracer, "gp.gp_fit", optim.gp_fit, after=after_fit))
    inst.patch(
        optim,
        "expected_improvement",
        _spanned(tracer, "gp.expected_improvement", optim.expected_improvement),
    )

    def after_predict(result, model, points):
        rows = len(points)
        tracer.counts["gp.predict.candidates"] += rows
        tracer.counts["gp.predict.ops_computed"] += predict_ops(
            rows, model.inputs.shape[0], model.inputs.shape[1]
        )

    inst.patch(
        gp.SurrogateModel,
        "predict",
        _spanned(tracer, "gp.predict", gp.SurrogateModel.predict, after=after_predict),
    )

    # -- optim ---------------------------------------------------------------
    original_ask = optim.OptimizerSession.ask

    def ask(session):
        frame = tracer.push(f"optim.ask.{session.name}", True)
        try:
            proposals = original_ask(session)
        except optim.SpaceExhausted:
            tracer.counts["optim.space_exhausted"] += 1
            raise
        finally:
            tracer.pop(frame)
        tracer.counts["optim.proposals"] += len(proposals)
        return proposals

    inst.patch(optim.OptimizerSession, "ask", functools.wraps(original_ask)(ask))
    inst.patch(
        optim.OptimizerSession,
        "tell",
        _spanned(tracer, "optim.tell", optim.OptimizerSession.tell),
    )

    # -- space ---------------------------------------------------------------
    for attr in ("to_normalized", "config_from_indices", "render"):
        inst.patch(
            space.SearchSpace,
            attr,
            _spanned(tracer, f"space.{attr}", getattr(space.SearchSpace, attr), record=False),
        )
    inst.patch(
        space.SearchSpace,
        "normalized_grid",
        _spanned(tracer, "space.normalized_grid", space.SearchSpace.normalized_grid),
    )
    original_validate = space.SearchSpace.validate

    @functools.wraps(original_validate)
    def validate(self, config):
        tracer.counts["space.validate.calls"] += 1
        return original_validate(self, config)

    inst.patch(space.SearchSpace, "validate", validate)

    # -- backends ------------------------------------------------------------
    def after_evaluate(result, *args, **kwargs):
        if result.failed:
            tracer.counts["backends.synthetic.failed"] += 1
            tracer.counts[f"backends.synthetic.failed:{result.failure_reason}"] += 1

    inst.patch(
        backends.SyntheticBackend,
        "evaluate",
        _spanned(
            tracer,
            "backends.synthetic",
            backends.SyntheticBackend.evaluate,
            record=False,
            after=after_evaluate,
        ),
    )
    inst.patch(
        backends.ReplayBackend,
        "lookup",
        _spanned(tracer, "backends.replay", backends.ReplayBackend.lookup, record=False),
    )

    # -- utility and harness scoring -----------------------------------------
    inst.patch(
        harness,
        "allocation_cost",
        _spanned(tracer, "utility.allocation_cost", harness.allocation_cost, record=False),
    )
    inst.patch(
        harness,
        "score_result",
        _spanned(tracer, "harness.score_result", harness.score_result, record=False),
    )

    # -- screening -----------------------------------------------------------
    original_screening = harness.run_screening

    @functools.wraps(original_screening)
    def run_screening(space_arg, objective, **kwargs):
        def counted(config):
            tracer.counts["screening.evals"] += 1
            return objective(config)

        frame = tracer.push("screening.run_screening", True)
        try:
            return original_screening(space_arg, counted, **kwargs)
        finally:
            tracer.pop(frame)

    inst.patch(harness, "run_screening", run_screening)

    def after_reduce(report, *args, **kwargs):
        tracer.counts["screening.reduced_size"] += report.reduced_space.size

    inst.patch(
        harness,
        "reduce_bounds",
        _spanned(tracer, "screening.reduce_bounds", harness.reduce_bounds, after=after_reduce),
    )

    # -- harness -------------------------------------------------------------
    inst.patch(
        harness,
        "run_optimization",
        _spanned(
            tracer,
            "harness.run_optimization",
            harness.run_optimization,
            op=lambda space_arg, optimizer, backend, budget, batch_size, seed, **kw: (
                f"{optimizer}:seed{seed}"
            ),
        ),
    )
    for attr in ("collect_exhaustive", "load_dataset", "write_dataset_csv"):
        inst.patch(harness, attr, _spanned(tracer, f"harness.{attr}", getattr(harness, attr)))

    # -- config and cli ------------------------------------------------------
    for attr in ("parse_config", "build_backend"):
        wrapped = _spanned(tracer, f"config.{attr}", getattr(config, attr))
        inst.patch(config, attr, wrapped)
        inst.patch(cli, attr, wrapped)
    inst.patch(
        cli,
        "main",
        _spanned(
            tracer,
            lambda argv: f"cli.main.{argv[0]}",
            cli.main,
            op=lambda argv: argv[0],
        ),
    )
    return inst
