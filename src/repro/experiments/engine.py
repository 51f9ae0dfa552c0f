"""Unified parallel experiment engine.

Every experiment family in this package is a Monte-Carlo average over
independent runs (the paper's Tables 2-5 average 1000 deployments each).
:func:`run_experiment` factors that shape out: a family declares an
:class:`ExperimentSpec` -- a *workload builder* that expands a preset into
a flat list of per-run task descriptions, a *per-run function* that
executes one task, and a *reducer* that folds the per-run results back
into the family's table -- and the engine decides how the runs execute.

Execution is delegated to an :class:`Executor`:

* :class:`PoolExecutor` fans the tasks out over a ``multiprocessing``
  pool of ``jobs`` workers; ``Pool.map`` preserves ordering, so the
  reducer sees the exact same result sequence as a serial loop.  With
  ``jobs=1`` (or a single task) it runs in-process, bit-for-bit the
  historical hand-written loops: builders spawn per-run generators with
  the same :func:`repro.util.rng.spawn_rngs` calls, in the same order,
  the old loops used.
* :class:`SerialExecutor` always runs in-process, in submission order.

Because every task carries its own pre-spawned RNG and every executor
returns results in submission order, the reduced output is identical for
any ``jobs`` value.  ``run_experiment`` builds a :class:`PoolExecutor`
from ``jobs`` unless the caller passes its own ``executor``.

Requirements on spec components:

* ``run`` must be a module-level function (workers pickle it by
  qualified name) and tasks/results must be picklable;
* ``build`` receives the *raw* ``rng`` argument (seed, generator or
  ``None``) so families can reproduce their historical coercion order;
* ``reduce`` runs in the parent and is free to build :class:`Table`\\ s.
"""

import os
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import Callable

from repro.experiments.common import get_preset
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment family, decomposed for the engine.

    Attributes
    ----------
    name:
        Family name (diagnostics only).
    build:
        ``build(preset, rng, options) -> list[task]`` -- expands the
        workload into per-run tasks.  ``preset`` is a resolved
        :class:`~repro.experiments.common.Preset` or ``None`` for
        families without a preset; ``options`` is the dict of extra
        keyword arguments passed to :func:`run_experiment`.
    run:
        ``run(task) -> result`` -- executes one independent run.  Must be
        a picklable module-level function.
    reduce:
        ``reduce(preset, tasks, results, options) -> table`` -- folds the
        ordered per-run results into the family's output.
    """

    name: str
    build: Callable
    run: Callable
    reduce: Callable


def resolve_jobs(jobs):
    """Coerce a ``--jobs`` value into a positive worker count.

    ``None``, ``0`` and ``"auto"`` mean "all available cores".
    """
    if jobs in (None, "auto"):
        return os.cpu_count() or 1
    try:
        jobs = int(str(jobs))  # via str: rejects non-integral floats too
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"jobs must be a positive integer, 0 or 'auto', got {jobs!r}")
    if jobs == 0:  # after the coercion, so the CLI/pytest string "0" works
        return os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(
            f"jobs must be a positive integer, 0 or 'auto', got {jobs!r}")
    return jobs


class Executor:
    """How a flat task list becomes an ordered result list.

    ``submit_all(tasks, run)`` executes ``run`` over every task and
    returns the results *in submission order* -- the engine's determinism
    contract rests entirely on that ordering.
    """

    def submit_all(self, tasks, run):
        """Execute ``run`` over ``tasks``; return ordered results."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process, in-order execution -- the reference executor."""

    def submit_all(self, tasks, run):
        return [run(task) for task in tasks]


class PoolExecutor(Executor):
    """``multiprocessing.Pool`` fan-out, one pool per submission.

    The ``REPRO_MP_CONTEXT`` environment variable selects the start
    method (``"fork"``, ``"spawn"``, ...); the platform default is used
    when it is unset, and any other value raises
    :class:`~repro.util.errors.ConfigurationError`.  A single-task
    submission (or ``jobs=1``) stays in-process.

    Tasks reach the workers by plain pickling; a graph inside a task
    travels as its compact pair arrays (see
    :meth:`repro.graph.graph.Graph.__getstate__`).
    """

    def __init__(self, jobs=None):
        self.jobs = resolve_jobs(jobs)

    def submit_all(self, tasks, run):
        tasks = list(tasks)
        if self.jobs == 1 or len(tasks) <= 1:
            return [run(task) for task in tasks]
        context = _start_method_context()
        with context.Pool(processes=min(self.jobs, len(tasks))) as pool:
            return pool.map(run, tasks)


def _start_method_context():
    """The ``multiprocessing`` context ``REPRO_MP_CONTEXT`` names."""
    method = os.environ.get("REPRO_MP_CONTEXT") or None
    if method is not None and method not in get_all_start_methods():
        raise ConfigurationError(
            f"REPRO_MP_CONTEXT={method!r} is not a start method on this "
            f"platform ({', '.join(get_all_start_methods())})")
    return get_context(method)


def run_experiment(spec, preset=None, rng=None, jobs=1, executor=None,
                   **options):
    """Run one experiment family end to end.

    Resolves ``preset`` (when the family uses one), expands the workload
    with ``spec.build``, executes the per-run tasks on ``executor`` --
    by default a :class:`PoolExecutor` of ``jobs`` workers -- and
    reduces the ordered results.  For a fixed ``rng`` the output is
    identical for every executor and worker count.
    """
    if not isinstance(spec, ExperimentSpec):
        raise ConfigurationError(
            f"spec must be an ExperimentSpec, got {type(spec).__name__}")
    if preset is not None:
        preset = get_preset(preset)
    tasks = list(spec.build(preset, rng, options))
    if executor is None:
        executor = PoolExecutor(jobs)
    results = executor.submit_all(tasks, spec.run)
    return spec.reduce(preset, tasks, results, options)
