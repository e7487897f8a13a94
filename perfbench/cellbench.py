"""Whole-cell benchmark of the MANGO simulator, one serial process.

A *cell* is one registry scenario at full duration, driven through the
public :class:`~repro.scenarios.runner.ScenarioRunner`: spec to a built
network (``setup``), the simulation (``run``), then verdicts, the
flit-hop fingerprint, ``to_dict`` and JSON serialisation (``score``).
Every phase is timed in CPU seconds of the (single) benchmark thread.

Host speed on a shared VM drifts by up to 2x within minutes, far beyond
any change worth measuring.  So a :class:`HostProbe` times a short fixed
reference loop every 50 ms of CPU and at each phase boundary, and each
phase's time is scaled by ``PROBE_REFERENCE_S`` over the trimmed mean of
its samples: a host metric reads as CPU seconds on the quiet calibration
host.  The loop lives here, not in ``src/``, so no change to the
simulator moves it.

A benchmark seed selects ``replicas`` cells of a workload: replica ``k``
of seed ``n`` shifts the registry cell's BE ``seed`` and
``pattern_seed`` by ``n * replicas + k``, so seed 0 replica 0 is the
registry cell itself and different seeds never share a replica.  The
simulated end-to-end metrics pool the replicas, which keeps their
seed-to-seed spread (BE tail latency under saturation varies by up to
2x between single cells) inside the benchmark's bounds.

The importer must put the simulator's ``src`` directory on ``sys.path``
first (``run.py`` and the tests' ``conftest.py`` do).
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import gc
import heapq
import json
import pstats
import random
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.backends import get_backend
from repro.obs import ObsConfig
from repro.scenarios import registry
from repro.scenarios.runner import ScenarioRunner
from repro.sim.kernel import Simulator

HERE = Path(__file__).resolve().parent
SRC_PACKAGE = HERE.parent / "src" / "repro"
EXPECTED_PATH = HERE / "expected.json"

#: The packages under ``src/repro`` the trace attributes cost to.
LAYERS = ("sim", "core", "circuits", "network", "traffic", "backends",
          "alloc", "scenarios")
#: ``python`` is CPython builtins plus the stdlib; ``other`` is every
#: other ``repro`` module (obs, analysis, ...) and this benchmark.
BUCKETS = LAYERS + ("python", "other")

#: The phases that make up a whole cell.
CELL_PHASES = ("setup_s", "run_s", "score_s")

#: Per-layer timer name -> the cell phase timer it reports.
PHASE_TIMERS = {
    "backends.build_network_s": "build_network_s",
    "network.open_connection_s": "open_connection_s",
    "traffic.sources_s": "sources_s",
    "sim.run_s": "run_s",
    "scenarios.score_s": "score_s",
}

#: End-to-end metric -> unit, in print order (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "hops_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "gs_latency_margin": "ratio",
    "be_latency_p50_ns": "ns",
    "be_latency_p99_ns": "ns",
    "be_accepted_load": "1/ns",
    "ops_ok_frac": "ratio",
}

#: Per-layer metric -> unit, in print order (``--trace 1``).
PER_LAYER = {
    **{f"{b}.run.calls_per_hop": "calls/hop" for b in BUCKETS + ("total",)},
    **{f"{b}.run.self_share": "share" for b in BUCKETS},
    **{f"{b}.build.calls_per_router": "calls/router"
       for b in BUCKETS + ("total",)},
    "sim.build.processes_per_router": "procs/router",
    **{name: "s" for name in PHASE_TIMERS},
    "trace.overhead_ratio": "ratio",
    "model.be_credit_stalls": "count",
    "model.arbiter_busy_max_share": "share",
    "model.vc_occupancy_max": "flits",
    "model.fabric_queue_depth_max": "flits",
}

#: Gauge sampling cadence of the model-counter cell, in simulated ns.
METRICS_SAMPLE_NS = 250.0

#: Host-speed probe: a ``reference_loop(PROBE_EVENTS)`` every
#: ``PROBE_PERIOD_S`` of process CPU, which takes ``PROBE_REFERENCE_S``
#: on the quiet calibration host (2-vCPU x86 VM at 2.0 GHz, CPython
#: 3.11.7).  Never change these: every host metric scales with them.
PROBE_PERIOD_S = 0.05
PROBE_EVENTS = 1000
PROBE_REFERENCE_S = 0.001

#: CPU seconds of the calling thread.  Not ``process_time``: while the
#: probe's ``ITIMER_PROF`` runs, the process clock ticks in 4 ms steps
#: on Linux; the thread clock stays exact, and the benchmark and the
#: simulator are single-threaded.
cpu = time.thread_time


class BenchError(RuntimeError):
    """A failed correctness check: the run's outputs are wrong."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    cell: str          # registry scenario name
    backend: str
    replicas: int      # cells per benchmark seed

    def spec(self, seed: int, replica: int):
        base = registry.get(self.cell)
        offset = seed * self.replicas + replica
        be = dataclasses.replace(base.be, seed=base.be.seed + offset,
                                 pattern_seed=base.be.pattern_seed + offset)
        return dataclasses.replace(base, be=be)


#: Why each workload was chosen, and what it predicts: README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mesh-be-saturation", "gs-under-saturation-8x8", "mango", 18),
    Workload("mesh-gs-16x16", "gs-cbr-16x16-corners", "mango", 8),
    Workload("fabric-routerless", "routerless-cbr-8x8", "routerless", 24),
)}


# -- host speed ---------------------------------------------------------------

class _Node:
    __slots__ = ("count", "peer")

    def __init__(self):
        self.count = 0
        self.peer = None


def reference_loop(events: int) -> int:
    """Fixed work in the simulator's idiom: a heap-ordered event loop
    resuming generators that update small slotted objects.  Changing it
    rescales every host metric, so it never changes."""
    rng = random.Random(12345)
    nodes = [_Node() for _ in range(64)]
    for index, node in enumerate(nodes):
        node.peer = nodes[(index * 7 + 3) % 64]

    def actor(node):
        while True:
            value = yield
            node.count += 1
            node.peer.count += value & 1

    actors = []
    for node in nodes:
        generator = actor(node)
        next(generator)
        actors.append(generator)
    heap = [(rng.random(), seq, seq % 64) for seq in range(256)]
    heapq.heapify(heap)
    seq = len(heap)
    visits: Dict[int, int] = {}
    for _ in range(events):
        at, tag, target = heapq.heappop(heap)
        actors[target].send(tag)
        visits[target] = visits.get(target, 0) + 1
        seq += 1
        heapq.heappush(heap, (at + rng.random(), seq, (target * 5 + tag) % 64))
    return sum(node.count for node in nodes)


class HostProbe:
    """Samples host speed while a cell runs.

    A sample is the CPU time of one short reference loop, taken on a
    ``SIGPROF`` timer inside the phases and at every phase boundary
    (:meth:`mark`).  :meth:`clock` leaves the samples' own cost out.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        self.marks: Dict[str, Tuple[float, int]] = {}

    def sample(self, _signum=None, _frame=None) -> None:
        start = cpu()
        reference_loop(PROBE_EVENTS)
        took = cpu() - start
        self.samples.append(took)
        self.spent += took

    def clock(self) -> float:
        """CPU seconds of this thread, without the probes."""
        return cpu() - self.spent

    def mark(self, name: str) -> None:
        """A phase boundary: one sample, then the clock."""
        self.sample()
        self.marks[name] = (self.clock(), len(self.samples))

    def phase(self, first: str, last: str) -> Tuple[float, float]:
        """(CPU seconds, speed) between two marks.  The speed is
        ``PROBE_REFERENCE_S`` over the trimmed mean of the samples from
        the first boundary to the last."""
        (begin, lo), (end, hi) = self.marks[first], self.marks[last]
        ordered = sorted(self.samples[lo - 1:hi])
        cut = len(ordered) // 10
        return end - begin, PROBE_REFERENCE_S / statistics.mean(
            ordered[cut:len(ordered) - cut])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


# -- timers around public calls ---------------------------------------------

def timed_backend(name: str, clock: Callable[[], float]):
    """A fresh instance of backend ``name`` whose ``build_network`` and
    ``open_connection`` add their ``clock`` time to ``instance.timers``."""

    class Timed(type(get_backend(name))):
        def __init__(self):
            super().__init__()
            self.timers = {"build_network_s": 0.0, "open_connection_s": 0.0}

        def build_network(self, spec, config=None, obs=None):
            start = clock()
            try:
                return super().build_network(spec, config, obs=obs)
            finally:
                self.timers["build_network_s"] += clock() - start

        def open_connection(self, network, src, dst):
            start = clock()
            try:
                return super().open_connection(network, src, dst)
            finally:
                self.timers["open_connection_s"] += clock() - start

    return Timed()


# -- one cell -----------------------------------------------------------------

@dataclasses.dataclass
class Cell:
    replica: int
    #: Phase name -> (CPU seconds as measured; host speed over the
    #: phase relative to the calibration host).
    phases: Dict[str, Tuple[float, float]]
    result: Dict
    failures: List[str]
    build_profile: Optional[pstats.Stats] = None
    run_profile: Optional[pstats.Stats] = None

    def host_s(self, phase: str) -> float:
        """A phase time in CPU seconds of the calibration host."""
        seconds, speed = self.phases[phase]
        return seconds * speed

    @property
    def host_cpu_s(self) -> float:
        """Whole-cell CPU seconds of the calibration host."""
        return sum(self.host_s(name) for name in CELL_PHASES)


def run_cell(workload: Workload, seed: int, replica: int, *,
             profile: bool = False, metrics: bool = False,
             after_build: Optional[Callable] = None) -> Cell:
    """Build, run and score one cell, timing each phase.

    ``profile`` wraps the setup and run phases in ``cProfile``;
    ``metrics`` builds with the read-only ``obs`` metrics registry;
    ``after_build(network)`` lets a test instrument the built network.
    """
    spec = workload.spec(seed, replica)
    obs = (ObsConfig(metrics=True, metrics_sample_ns=METRICS_SAMPLE_NS)
           if metrics else None)
    build_prof = cProfile.Profile() if profile else None
    run_prof = cProfile.Profile() if profile else None
    probe = HostProbe()
    backend = timed_backend(workload.backend, probe.clock)
    gc.collect()
    # The probe's signal handler would show up in the profile, so a
    # traced cell is sampled only at its phase boundaries, which lie
    # outside the profiled regions.
    with contextlib.nullcontext() if profile else probe:
        probe.mark("start")
        if build_prof:
            build_prof.enable()
        runner = ScenarioRunner(spec, backend=backend, obs=obs)
        net = runner.build()
        if build_prof:
            build_prof.disable()
        probe.mark("built")
        if after_build is not None:
            after_build(net)

        # The runner's last simulation call is the drain ``net.run``;
        # what follows it inside ``runner.run()`` is scoring.
        drain = net.run

        def run_then_mark(until):
            drain(until)
            if run_prof:
                run_prof.disable()
            probe.mark("drained")

        net.run = run_then_mark
        probe.mark("run")
        if run_prof:
            run_prof.enable()
        result = runner.run()
        if "drained" not in probe.marks:
            raise BenchError(f"{spec.name}: the run never drained the "
                             "network")
        data = result.to_dict()
        json.dumps(data)
        probe.mark("done")

    phases = {"setup_s": probe.phase("start", "built"),
              "run_s": probe.phase("run", "drained"),
              "score_s": probe.phase("drained", "done")}
    setup_s, setup_speed = phases["setup_s"]
    network_s = backend.timers["build_network_s"]
    connections_s = backend.timers["open_connection_s"]
    parts = {"build_network_s": network_s,
             "open_connection_s": connections_s,
             "sources_s": setup_s - network_s - connections_s}
    for name, seconds in parts.items():
        phases[name] = (seconds, setup_speed)
    return Cell(replica=replica, phases=phases, result=data,
                failures=result.failures(),
                build_profile=pstats.Stats(build_prof) if profile else None,
                run_profile=pstats.Stats(run_prof) if profile else None)


# -- correctness ------------------------------------------------------------

def load_expected() -> Dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def check_cells(workload: Workload, seed: int, cells: List[Cell],
                expected: Dict) -> List[str]:
    """Every verdict passes, nothing is lost, every repeat of a replica
    does identical simulated work, and recorded seeds reproduce their
    recorded flit hops and fingerprints."""
    problems: List[str] = []
    work: Dict[int, Tuple[int, str]] = {}
    recorded = expected.get(workload.name, {}).get(str(seed))
    for cell in cells:
        label = f"{workload.name} seed {seed} replica {cell.replica}"
        problems += [f"{label}: {text}" for text in cell.failures]
        if not cell.result["passed"]:
            problems.append(f"{label}: scenario did not pass")
        got = (cell.result["flit_hops"], cell.result["fingerprint"])
        if work.setdefault(cell.replica, got) != got:
            problems.append(f"{label}: repeat did different work "
                            f"{got} vs {work[cell.replica]}")
        if recorded is not None:
            want = tuple(recorded["cells"][cell.replica])
            if got != want:
                problems.append(f"{label}: flit hops/fingerprint {got} "
                                f"!= recorded {want}")
    return problems


# -- end-to-end metrics -------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def operations(cells: List[Cell]) -> Tuple[int, int]:
    """(attempted, failed): BE packets plus GS connections, against
    lost BE packets plus failed GS verdicts."""
    attempted = failed = 0
    for cell in cells:
        result = cell.result
        attempted += result["be_sent"] + len(result["gs"])
        failed += result["be_lost"] + sum(not v["ok"] for v in result["gs"])
    return attempted, failed


def simulated_metrics(cells: List[Cell]) -> Dict[str, float]:
    """QoS outcome over one cell per replica, deterministic per seed:
    replica medians of the cell's largest GS observed/bound latency and
    of its BE latency quantiles, and the pooled BE accepted load."""
    margins = [max(v["observed_max_latency_ns"] / v["latency_bound_ns"]
                   for v in cell.result["gs"] if v["latency_checked"])
               for cell in cells]
    received = sum(cell.result["be_received"] for cell in cells)
    sim_ns = sum(cell.result["sim_ns"] for cell in cells)
    attempted, failed = operations(cells)
    return {
        "gs_latency_margin": statistics.median(margins),
        "be_latency_p50_ns": statistics.median(
            cell.result["latency_p50_ns"] for cell in cells),
        "be_latency_p99_ns": statistics.median(
            cell.result["latency_p99_ns"] for cell in cells),
        "be_accepted_load": received / sim_ns,
        "ops_ok_frac": 1.0 - failed / attempted,
    }


def measure(workload: Workload, seed: int, seconds: float,
            expected: Dict) -> Tuple[Dict[str, float], List[Cell], List[str]]:
    """Cycle through the seed's replicas until ``seconds`` of wall time
    have passed (every replica at least once); host metrics are medians
    over all cells."""
    cells: List[Cell] = []
    start = time.perf_counter()
    while len(cells) < workload.replicas \
            or time.perf_counter() - start < seconds:
        cells.append(run_cell(workload, seed,
                              len(cells) % workload.replicas))
    problems = check_cells(workload, seed, cells, expected)
    metrics = {
        "setup_s": statistics.median(c.host_s("setup_s") for c in cells),
        "run_s": statistics.median(c.host_s("run_s") for c in cells),
        "hops_per_cpu_s": statistics.median(
            c.result["flit_hops"] / c.host_cpu_s for c in cells),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics.update(simulated_metrics(cells[:workload.replicas]))
    return metrics, cells, problems


# -- per-layer trace ----------------------------------------------------------

def _bucket_of(filename: str) -> str:
    """The bucket of a profiled function's source file (``~`` and
    ``<frozen ...>`` are builtins)."""
    path = Path(filename)
    if path.is_relative_to(SRC_PACKAGE):
        parts = path.relative_to(SRC_PACKAGE).parts
        return parts[0] if len(parts) > 1 and parts[0] in LAYERS \
            else "other"
    return "other" if path.is_relative_to(HERE) else "python"


def by_bucket(stats: pstats.Stats) -> Dict[str, Tuple[int, float]]:
    """Total calls and self seconds per bucket."""
    totals = {bucket: [0, 0.0] for bucket in BUCKETS}
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) \
            in stats.stats.items():
        entry = totals[_bucket_of(filename)]
        entry[0] += calls
        entry[1] += self_s
    return {bucket: (calls, self_s)
            for bucket, (calls, self_s) in totals.items()}


def _calls_to(stats: pstats.Stats, function) -> int:
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    entry = stats.stats.get(key)
    return entry[1] if entry else 0


def layer_counts(cell: Cell, routers: int) -> Dict[str, float]:
    """Exact call counts of one profiled cell, per flit hop (run) and
    per router (build)."""
    hops = cell.result["flit_hops"]
    run = by_bucket(cell.run_profile)
    build = by_bucket(cell.build_profile)
    counts = {}
    for bucket in BUCKETS:
        counts[f"{bucket}.run.calls_per_hop"] = run[bucket][0] / hops
        counts[f"{bucket}.build.calls_per_router"] = build[bucket][0] / routers
    counts["total.run.calls_per_hop"] = sum(c for c, _ in run.values()) / hops
    counts["total.build.calls_per_router"] = \
        sum(c for c, _ in build.values()) / routers
    counts["sim.build.processes_per_router"] = \
        _calls_to(cell.build_profile, Simulator.process) / routers
    return counts


def layer_shares(cell: Cell) -> Dict[str, float]:
    run = by_bucket(cell.run_profile)
    total = sum(s for _, s in run.values())
    return {f"{bucket}.run.self_share": run[bucket][1] / total
            for bucket in BUCKETS}


def model_counters(cell: Cell) -> Dict[str, float]:
    """Modelled-component counters from the ``obs`` metrics snapshot."""
    snapshot = cell.result["metrics"]
    counters, gauges = snapshot["counters"], snapshot["gauges"]

    def most(prefix: str, suffix: str) -> float:
        return max((v for k, v in gauges.items()
                    if k.startswith(prefix) and k.endswith(suffix)),
                   default=0.0)

    return {
        "model.be_credit_stalls": sum(
            v for k, v in counters.items()
            if k.startswith("be.") and k.endswith(".credit_stalls")),
        "model.arbiter_busy_max_share":
            most("arbiter.", ".busy_ns") / cell.result["sim_ns"],
        "model.vc_occupancy_max": most("vc.", ".occupancy"),
        "model.fabric_queue_depth_max": most("fabric.", ".queue_depth"),
    }


def measure_traced(workload: Workload, seed: int, seconds: float,
                   expected: Dict
                   ) -> Tuple[Dict[str, float], List[Cell], List[str]]:
    """Per-layer metrics of the seed's first replica.

    Each round runs the cell plain (timers, untraced CPU), with the
    metrics registry (model counters) and under ``cProfile`` (call
    counts, self time) — plain first, so lazy imports and caches are
    warm before anything is counted.  Rounds repeat until ``seconds``
    have passed, at least twice; the call counts must repeat exactly.
    """
    spec = workload.spec(seed, 0)
    routers = spec.cols * spec.rows
    rounds: List[Tuple[Cell, Cell, Cell]] = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rounds.append((run_cell(workload, seed, 0),
                       run_cell(workload, seed, 0, metrics=True),
                       run_cell(workload, seed, 0, profile=True)))
    cells = [cell for trio in rounds for cell in trio]
    problems = check_cells(workload, seed, cells, expected)

    counts = [layer_counts(traced, routers) for _, _, traced in rounds]
    if any(other != counts[0] for other in counts[1:]):
        problems.append(f"{workload.name}: call counts differ between "
                        "traced runs of the same cell")
    plain = [p for p, _, _ in rounds]
    traced = [t for _, _, t in rounds]
    metrics = dict(counts[0])
    shares = [layer_shares(t) for t in traced]
    for name in shares[0]:
        metrics[name] = statistics.median(s[name] for s in shares)
    for name, timer in PHASE_TIMERS.items():
        metrics[name] = statistics.median(p.host_s(timer) for p in plain)
    metrics["trace.overhead_ratio"] = (
        statistics.median(t.host_cpu_s for t in traced)
        / statistics.median(p.host_cpu_s for p in plain))
    model = [model_counters(observed) for _, observed, _ in rounds]
    if any(other != model[0] for other in model[1:]):
        problems.append(f"{workload.name}: model counters differ between "
                        "runs of the same cell")
    metrics.update(model[0])
    return metrics, cells, problems
