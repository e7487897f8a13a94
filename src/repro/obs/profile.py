"""Exact-work profiling: ``cProfile`` call counts split by layer.

``python -m repro profile <cell>`` and the K1 work gates in
``benchmarks/bench_kernel_throughput.py`` measure through the same
:func:`profile_run`, so the calls per flit hop the CLI prints is the
number CI pins.  Call counts repeat exactly, which host noise cannot
fake; self times carry cProfile's own per-call cost.  Runners are
driven duck-typed, so this imports nothing from ``repro``.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sysconfig
from typing import Any, Callable, Dict, Tuple

__all__ = ["by_layer", "calls_to", "layer_of", "profile_run", "profiled"]

#: ``src/repro``: a function's layer is the sub-package below it.
_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STDLIB = sysconfig.get_paths()["stdlib"] + os.sep
_SITE_PACKAGES = tuple(sysconfig.get_paths()[key] + os.sep
                       for key in ("purelib", "platlib"))


class _Profile(cProfile.Profile):
    """Code objects can share one ``(file, line, name)`` label (every
    dataclass ``__init__`` is ``<string>:2(__init__)``); cProfile keeps
    the last entry per label in memory-address order, which moves between
    processes.  Ordering entries by call count keeps the busiest one."""

    def getstats(self):
        return sorted(super().getstats(), key=lambda entry: entry.callcount)


def profiled(fn: Callable, *args: Any) -> Tuple[Any, pstats.Stats]:
    """``fn(*args)`` under a fresh profiler: ``(result, stats)``, after
    collecting earlier garbage (a dropped generator's close is a call)."""
    gc.collect()
    profile = _Profile()
    result = profile.runcall(fn, *args)
    return result, pstats.Stats(profile)


def calls_to(stats: pstats.Stats, function: Callable) -> int:
    """Calls ``stats`` recorded to the Python ``function`` (0 if none)."""
    code = function.__code__
    entry = stats.stats.get((code.co_filename, code.co_firstlineno,
                             code.co_name))
    return entry[1] if entry else 0


def layer_of(filename: str) -> str:
    """The layer of a profiled function's source file.

    A ``repro`` sub-package (``sim``, ``core``, ``backends``, ...);
    ``python`` for builtins (``~``), generated code (``<string>``, e.g.
    dataclass ``__init__``) and the standard library; ``other`` for
    anything else: top-level ``repro`` modules, tests, site-packages.
    """
    if filename.startswith(("~", "<")):
        return "python"
    path = os.path.abspath(filename)
    if path.startswith(_PACKAGE + os.sep):
        parts = path[len(_PACKAGE) + 1:].split(os.sep)
        return parts[0] if len(parts) > 1 else "other"
    if path.startswith(_STDLIB) and not path.startswith(_SITE_PACKAGES):
        return "python"
    return "other"


def by_layer(stats: pstats.Stats) -> Dict[str, Tuple[int, float]]:
    """``{layer: (calls, self seconds)}`` in layer-name order; the calls
    sum to ``stats.total_calls``."""
    totals: Dict[str, list] = {}
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) \
            in stats.stats.items():
        entry = totals.setdefault(layer_of(filename), [0, 0.0])
        entry[0] += calls
        entry[1] += self_s
    return {layer: (calls, self_s)
            for layer, (calls, self_s) in sorted(totals.items())}


def profile_run(make_runner: Callable[[], Any]
                ) -> Tuple[Any, pstats.Stats]:
    """Profile one scenario's run phase: ``(result, stats)``.

    ``make_runner()`` returns a fresh, unbuilt scenario runner.  The
    first runs unprofiled so lazy imports and caches are warm; only the
    second one's ``run()`` is profiled, after an unprofiled build.
    """
    make_runner().run()
    runner = make_runner()
    runner.build()
    return profiled(runner.run)
