"""Command-line interface: ``python -m repro <command> [<action>] [flags]``.

``--help`` on a command or action lists what it takes.  Each action
declares only its own flags, so a flag given to the wrong action is a
usage error, never silently ignored; flags follow the action
(``scenario matrix --smoke``).  Exit codes: 0 pass, 1 a verdict or gate
failed, 2 usage error (unknown scenario, unbuildable backend/cell pair),
3 nothing ran (every selected cell skipped).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import Coord, MangoNetwork, RouterConfig, TYPICAL, WORST_CASE
from .analysis.area import AreaModel, TABLE1_PAPER_MM2
from .analysis.qos import contract_for_path
from .analysis.report import Table
from .analysis.timing_analysis import timing_report


def cmd_report(_args) -> int:
    area = AreaModel().report()
    table = Table(["module", "mm2 (model)", "mm2 (paper)"],
                  title="Table 1 — area usage in the MANGO router")
    for name, value in area.rows():
        table.add_row(name.replace("_", " "), round(value, 4),
                      TABLE1_PAPER_MM2[name])
    print(table.render())

    timing = Table(["figure", "worst-case", "typical"],
                   title="\nTiming (paper Section 6: 515 / 795 MHz)")
    wc = timing_report(WORST_CASE)
    typ = timing_report(TYPICAL)
    for (label, wc_value), (_l, typ_value) in zip(wc.rows(), typ.rows()):
        timing.add_row(label, round(wc_value, 4), round(typ_value, 4))
    print(timing.render())
    return 0


def cmd_contract(args) -> int:
    contract = contract_for_path(args.hops, RouterConfig())
    table = Table(["guarantee", "value"],
                  title=f"QoS contract for a {args.hops}-hop GS connection"
                        " (paper defaults, fair-share)")
    for label, value in contract.rows():
        table.add_row(label, value)
    print(table.render())
    return 0


def cmd_simulate(args) -> int:
    net = MangoNetwork(args.cols, args.rows)
    src, dst = Coord(0, 0), Coord(args.cols - 1, args.rows - 1)
    print(f"opening GS connection {src} -> {dst} ...")
    conn = net.open_connection(src, dst)
    print(f"  open after {net.now:.1f} ns (programmed via BE packets)")
    for value in range(args.flits):
        conn.send(value)
    for x in range(args.cols - 1):
        net.send_be(Coord(x, 0), Coord(x + 1, 0), [x, x + 1])
    net.run(until=net.now + args.horizon)
    print(f"  GS: {conn.sink.count}/{args.flits} flits, mean latency "
          f"{conn.sink.mean_latency:.2f} ns, max "
          f"{conn.sink.max_latency:.2f} ns\n")
    from .analysis.netreport import build_run_report
    print(build_run_report(net).render())
    return 0


def _fmt_ns(value: float) -> str:
    return "-" if math.isnan(value) else f"{value:.1f}"


def _scenario_names(names) -> list:
    """The scenarios a comma-separated ``names`` argument selects (all
    when empty).  A typo exits 2 before anything runs, listing the
    unknown and the known names on stderr."""
    from .scenarios import registry

    if not names:
        return registry.names()
    requested = [name.strip() for name in names.split(",") if name.strip()]
    unknown = [name for name in requested if name not in registry.SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(registry.names())}", file=sys.stderr)
        raise SystemExit(2)
    return requested


def _fabric(spec, topology=None) -> str:
    """Topology tag for tables: '4x4' on the mesh, '4x4 ring' off it
    (``topology`` stands in for an overridden spec topology)."""
    size = f"{spec.cols}x{spec.rows}"
    topology = topology or spec.topology
    return size if topology == "mesh" else f"{size} {topology}"


def _jobs_ok(args) -> bool:
    if args.jobs >= 1:
        return True
    print(f"--jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
    return False


def cmd_scenario_list(_args) -> int:
    from .scenarios import get, registry

    table = Table(["scenario", "mesh", "GS", "pattern", "tags"],
                  title=f"Scenario matrix "
                        f"({len(registry.SCENARIOS)} registered)")
    for name in registry.names():
        spec = get(name)
        pattern = spec.be.pattern if spec.be is not None else "-"
        table.add_row(name, _fabric(spec), len(spec.gs),
                      pattern, ",".join(spec.tags))
    print(table.render())
    return 0


def cmd_scenario_run(args) -> int:
    import dataclasses

    from .backends import BackendCapabilityError
    from .scenarios import ScenarioRunner, get

    if args.metrics_sample_ns is not None and not args.metrics:
        print("--metrics-sample-ns needs --metrics", file=sys.stderr)
        return 2
    if args.metrics_sample_ns is not None and args.metrics_sample_ns <= 0:
        print("--metrics-sample-ns must be positive", file=sys.stderr)
        return 2
    _scenario_names(args.name)
    obs = None
    if args.metrics:
        from .obs import ObsConfig
        obs = ObsConfig(metrics=True, metrics_sample_ns=args.metrics_sample_ns)
    try:
        spec = get(args.name)
        if args.topology:
            spec = dataclasses.replace(spec, topology=args.topology)
        if args.smoke:
            spec = spec.smoke()
        result = ScenarioRunner(spec, backend=args.backend,
                                allocator=args.allocator, obs=obs).run()
    except BackendCapabilityError as error:
        print(f"SKIP: {error}", file=sys.stderr)
        return 2
    table = Table(["metric", "value"],
                  title=f"Scenario {result.name} "
                        f"({'smoke' if args.smoke else 'full'}, "
                        f"backend {result.backend})")
    table.add_row("mesh", f"{result.cols}x{result.rows}")
    if result.topology != "mesh":
        table.add_row("topology", result.topology)
    table.add_row("backend", result.backend)
    if args.allocator != "xy":
        table.add_row("allocator", args.allocator)
    table.add_row("simulated ns", round(result.sim_ns, 1))
    table.add_row("kernel events", result.events)
    table.add_row("flit hops", result.flit_hops)
    table.add_row("fingerprint", result.fingerprint)
    table.add_row("BE sent / received",
                  f"{result.be_sent} / {result.be_received}")
    table.add_row("BE latency mean/p50/p99 (ns)",
                  f"{_fmt_ns(result.latency_mean_ns)} / "
                  f"{_fmt_ns(result.latency_p50_ns)} / "
                  f"{_fmt_ns(result.latency_p99_ns)}")
    if result.churn is not None:
        churn = result.churn
        table.add_row(
            "churn open/rejected/closed",
            f"{churn['opened']} / {churn['rejected']} / "
            f"{churn['closed']}")
        table.add_row(
            "churn flits sent/delivered",
            f"{churn['flits_sent']} / {churn['delivered']}")
    for verdict in result.gs:
        table.add_row(
            f"GS {verdict.label} ({verdict.traffic})",
            f"{verdict.delivered}/{verdict.offered} "
            f"{'OK' if verdict.ok else 'FAIL'}")
    if result.failure_expected:
        table.add_row(f"failure ({result.failure_kind})",
                      "detected" if result.failure_detected
                      else "NOT DETECTED")
    if result.metrics is not None:
        snap = result.metrics
        table.add_row("metrics",
                      f"{len(snap['counters'])} counters, "
                      f"{len(snap['gauges'])} gauges, "
                      f"{snap['samples']} sample(s)")
    table.add_row("verdict", "PASS" if result.passed else "FAIL")
    print(table.render())
    for problem in result.failures():
        print(f"  !! {problem}")
    if result.metrics is not None:
        top = sorted(result.metrics["counters"].items(),
                     key=lambda item: (-item[1], item[0]))[:10]
        metrics_table = Table(["counter", "value"],
                              title="Top metrics counters "
                                    "(full set via to_dict)")
        for key, value in top:
            metrics_table.add_row(key, value)
        print(metrics_table.render())
    return 0 if result.passed else 1


def cmd_scenario_matrix(args) -> int:
    from .backends import (DEFAULT_BACKEND_BY_TOPOLOGY, backend_for_topology,
                           get_backend)
    from .scenarios import get, golden
    from .scenarios.fleet import FleetCell, run_fleet
    from .scenarios.golden import (BACKEND_SMOKE_FINGERPRINTS,
                                   SMOKE_FINGERPRINTS)

    # No --backend means per-cell resolution: each spec's topology picks
    # its default backend (mesh -> mango, fabrics -> theirs).
    backend = (get_backend(args.backend)
               if args.backend is not None else None)
    backend_label = backend.name if backend is not None else "auto"
    smoke = args.smoke
    if not _jobs_ok(args):
        return 2
    if args.allocator != "xy":
        # Per-cell SKIPs are for individually incompatible cells; an
        # allocator a backend can never honor would green-SKIP the
        # whole matrix, so refuse it up front.  With auto resolution a
        # --topology override pins every cell to one fabric backend,
        # which owns its own admission control.
        culprit = backend
        if culprit is None and args.topology:
            culprit = backend_for_topology(args.topology)
        if culprit is not None and \
                not culprit.supports_alternate_allocators:
            print(f"backend {culprit.name!r} performs its own admission "
                  f"control; --allocator {args.allocator} cannot apply to "
                  "any cell (see docs/allocation.md)", file=sys.stderr)
            return 2
    if args.update_golden and not smoke:
        print("--update-golden only records smoke fingerprints "
              "(full-duration runs are benchmark territory)")
        return 2
    if args.update_golden and backend is not None \
            and backend.name != "mango":
        print("--update-golden records the mango goldens only; "
              "non-MANGO digests in BACKEND_SMOKE_FINGERPRINTS are "
              "reviewed by hand (see scenarios/golden.py)")
        return 2
    if args.update_golden and args.topology:
        print("--update-golden records each cell on its registered "
              "topology; a --topology override changes every "
              "fingerprint by design")
        return 2
    if args.update_golden and args.allocator != "xy":
        print("--update-golden records the default xy-allocator goldens "
              "only; alternate strategies admit different paths by "
              "design (see docs/allocation.md)")
        return 2

    def golden_for(name):
        """The pinned digest a cell should reproduce, or None.

        SMOKE_FINGERPRINTS pins every cell on its *default* backend
        (mango for mesh cells, the fabric backend elsewhere); explicit
        foreign backends compare against their hand-reviewed
        BACKEND_SMOKE_FINGERPRINTS row.  Overridden topologies and
        non-default allocators change paths on purpose — the verdicts
        still apply, the xy fingerprints do not.
        """
        if args.allocator != "xy" or args.topology:
            return None
        default = DEFAULT_BACKEND_BY_TOPOLOGY.get(get(name).topology)
        ran_on = backend.name if backend is not None else default
        if ran_on == default:
            return SMOKE_FINGERPRINTS.get(name)
        return BACKEND_SMOKE_FINGERPRINTS.get(ran_on, {}).get(name)
    selected = _scenario_names(args.names)
    cells = [FleetCell(name=name, backend=args.backend,
                       allocator=args.allocator, topology=args.topology,
                       smoke=smoke, metrics=args.metrics)
             for name in selected]
    outcomes = run_fleet(cells, jobs=args.jobs, cache_dir=args.cache_dir)
    table = Table(["scenario", "mesh", "BE recv/sent", "GS ok",
                   "p99 ns", "fingerprint", "verdict"],
                  title=f"QoS conformance matrix "
                        f"({'smoke' if smoke else 'full'} duration, "
                        f"backend {backend_label})")
    failed = []
    skipped = 0
    errored = 0
    cached = sum(1 for outcome in outcomes if outcome.cached)
    fingerprints = {}
    for name, outcome in zip(selected, outcomes):
        fabric = _fabric(get(name), args.topology)
        if outcome.status == "skip":
            # Cells a backend cannot build (foreign topology, MANGO
            # protocol-violation probes) are reported, not failed.
            skipped += 1
            table.add_row(name, fabric, "-", "-", "-", "-", "SKIP")
            continue
        if outcome.status == "error":
            # A crashing cell is one ERROR row (and a non-zero exit),
            # never an aborted matrix losing the partial table.
            errored += 1
            failed.append((name, [f"ERROR: {outcome.reason}"]))
            table.add_row(name, fabric, "-", "-", "-", "-", "ERROR")
            continue
        result = outcome.result
        fingerprints[name] = result["fingerprint"]
        verdict = "PASS" if result["passed"] else "FAIL"
        fp_note = result["fingerprint"]
        if smoke and not args.update_golden:
            golden_fp = golden_for(name)
            if golden_fp is None:
                fp_note += " (no golden)"
            elif golden_fp != result["fingerprint"]:
                fp_note += " != golden"
                verdict = "FAIL"
        if verdict == "FAIL":
            failed.append((name, outcome.failures))
        gs = result["gs"]
        gs_ok = (f"{sum(v['ok'] for v in gs)}/{len(gs)}" if gs else "-")
        table.add_row(name, fabric,
                      f"{result['be_received']}/{result['be_sent']}",
                      gs_ok, _fmt_ns(result["latency_p99_ns"]), fp_note,
                      verdict)
    print(table.render())
    if args.update_golden:
        if failed:
            print("refusing to record goldens: "
                  f"{len(failed)} scenario(s) failed their QoS verdicts")
            for name, problems in failed:
                for problem in problems:
                    print(f"  {name}: {problem}")
            return 1
        if args.names or skipped:
            # A subset run (or per-cell SKIPs) must not delete the
            # other scenarios' goldens.
            merged = dict(SMOKE_FINGERPRINTS)
            merged.update(fingerprints)
            fingerprints = merged
        _write_golden(golden, fingerprints)
        print(f"recorded {len(fingerprints)} golden fingerprints")
        return 0
    for name, problems in failed:
        print(f"FAIL {name}:")
        for problem in problems or ["fingerprint mismatch"]:
            print(f"  - {problem}")
    ran = len(selected) - skipped
    note = (f" ({skipped} skipped: backend {backend_label})"
            if skipped else "")
    if cached:
        note += f" ({cached} cached: {args.cache_dir})"
    print(f"{ran - len(failed)}/{ran} scenarios passed{note}")
    if ran == 0:
        # A fully-skipped matrix proved nothing; a capability-gated CI
        # job must not go silently green on it (distinct exit code so
        # callers can tell "nothing ran" from "something failed").
        print(f"warning: nothing ran — all {len(selected)} selected "
              f"scenario(s) skipped (backend {backend_label}); an "
              "all-SKIP matrix is not a pass", file=sys.stderr)
        return 3
    return 1 if failed else 0


def _bench_collect(args, metrics: bool = False):
    """Run the fleet now (no result cache: recorded wall times must be
    measurements, not replays) and assemble the BENCH payload."""
    import time

    from .bench import bench_payload
    from .scenarios.fleet import FleetCell, run_fleet

    cells = [FleetCell(name=name, backend=args.backend,
                       allocator=args.allocator, smoke=args.smoke,
                       metrics=metrics)
             for name in _scenario_names(args.names)]
    start = time.perf_counter()
    outcomes = run_fleet(cells, jobs=args.jobs)
    wall = time.perf_counter() - start
    run_info = {"smoke": args.smoke, "jobs": args.jobs,
                "backend": args.backend or "auto",
                "allocator": args.allocator,
                "names": args.names or "all",
                # Part of the header so `compare` can warn when two
                # records were taken at different observability
                # settings (overhead skews events/sec).
                "observability": "metrics" if metrics else "off"}
    return bench_payload(outcomes, run_info, fleet_wall_s=wall)


def cmd_bench_record(args) -> int:
    from .bench import write_bench

    if not _jobs_ok(args):
        return 2
    payload = _bench_collect(args, metrics=args.metrics)
    path = write_bench(payload, args.out)
    totals = payload["totals"]
    print(f"recorded {totals['cells']} cells ({totals['passed']} "
          f"passed, {totals['failed']} failed, {totals['skipped']} "
          f"skipped, {totals['errors']} errors) in "
          f"{totals['fleet_wall_s']:.1f}s -> {path}")
    if totals["failed"] or totals["errors"]:
        return 1
    if totals["passed"] == 0:
        print("warning: nothing ran — every cell skipped; this "
              "trajectory point proves nothing", file=sys.stderr)
        return 3
    return 0


def cmd_bench_compare(args) -> int:
    from .bench import compare_benches, load_bench

    if not _jobs_ok(args):
        return 2
    tolerance = args.tolerance
    if not 0 <= tolerance < 1:
        print(f"--tolerance must be in [0, 1) (got {tolerance})",
              file=sys.stderr)
        return 2
    try:
        baseline = load_bench(args.against)
    except (OSError, ValueError) as error:
        print(f"cannot load baseline: {error}", file=sys.stderr)
        return 2
    if args.current:
        try:
            current = load_bench(args.current)
        except (OSError, ValueError) as error:
            print(f"cannot load current run: {error}", file=sys.stderr)
            return 2
    else:
        current = _bench_collect(args)
    regressions, notes = compare_benches(current, baseline,
                                         tolerance=tolerance)
    for note in notes:
        print(f"note: {note}")
    for regression in regressions:
        print(f"REGRESSION: {regression}")
    if regressions:
        print(f"{len(regressions)} regression(s) vs {args.against} "
              f"(tolerance {tolerance:.0%})")
        return 1
    print(f"no regressions vs {args.against} (tolerance {tolerance:.0%})")
    return 0


def cmd_bench_report(args) -> int:
    from .bench import trajectory_report

    try:
        text = trajectory_report(args.files)
    except (OSError, ValueError) as error:
        print(f"cannot build trajectory report: {error}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote trajectory report ({len(args.files)} points) "
              f"to {args.out}")
    else:
        print(text, end="")
    return 0


def _cell_runner(args, obs=None):
    """A fresh runner for a trace/profile scenario argument (smoked
    unless ``--full``), or ``None`` (exit 2) after printing why: an
    unknown name, or a SKIP when ``--backend`` cannot build the cell."""
    from .backends import BackendCapabilityError
    from .scenarios import ScenarioRunner, get, registry

    if args.name not in registry.SCENARIOS:
        print(f"unknown scenario {args.name!r} (see: scenario list)",
              file=sys.stderr)
        return None
    spec = get(args.name)
    if not args.full:
        # Observability runs default to smoke durations: a full soak
        # cell emits tens of millions of records; opt in with --full.
        spec = spec.smoke()
    try:
        return ScenarioRunner(spec, backend=args.backend, obs=obs)
    except BackendCapabilityError as error:
        print(f"SKIP: {error}", file=sys.stderr)
        return None


def cmd_trace_run(args) -> int:
    from .obs import (ChromeTraceSink, ObsConfig, parse_filters,
                      render_timeline)
    from .sim.tracing import Tracer

    try:
        filters = parse_filters(args.filter or [])
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    sources = filters.get("source")
    kinds = filters.get("kind")
    sink = None
    if args.out:
        # The sink sees every record at emit time, so the export is
        # complete even when the ring buffer sheds old records.
        sink = ChromeTraceSink(sources=sources, kinds=kinds)
    tracer = Tracer(enabled=True, max_records=args.max_records, sink=sink)
    runner = _cell_runner(args, obs=ObsConfig(tracer=tracer))
    if runner is None:
        return 2
    result = runner.run()
    if args.out:
        sink.save(args.out)
        dropped = f" ({sink.dropped} dropped at the sink cap)" \
            if sink.dropped else ""
        print(f"wrote {len(sink)} trace events to {args.out}"
              f"{dropped} — load in chrome://tracing or "
              "https://ui.perfetto.dev")
    else:
        print(render_timeline(tracer, limit=args.limit,
                              sources=sources, kinds=kinds))
    print(f"scenario {result.name}: {result.events} kernel events, "
          f"fingerprint {result.fingerprint}, "
          f"{'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def cmd_trace_validate(args) -> int:
    import json

    from .obs import validate_chrome_trace

    try:
        with open(args.file) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot load trace {args.file}: {error}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    events = payload["traceEvents"]
    spans = sum(1 for event in events if event.get("ph") == "X")
    print(f"OK: {args.file} is a loadable Chrome trace "
          f"({len(events)} events, {spans} spans)")
    return 0


def cmd_profile(args) -> int:
    import pstats

    from .obs.profile import by_layer, layer_of, profile_run

    if args.top < 1:
        print(f"--top must be >= 1 (got {args.top})", file=sys.stderr)
        return 2
    if _cell_runner(args) is None:
        return 2
    # The K1b procedure (warm-up run, fresh build, profiled run), so the
    # total below is the calls per flit hop the CI work gate pins.
    result, stats = profile_run(lambda: _cell_runner(args))
    hops = result.flit_hops
    print(f"profile {result.name} ({'full' if args.full else 'smoke'}, "
          f"backend {result.backend}): {hops} flit hops, "
          f"{result.events} kernel events; run phase under cProfile")
    print()
    self_total = stats.total_tt
    table = Table(["layer", "calls", "calls/hop", "self time"],
                  title="Run-phase Python calls by layer")
    for layer, (calls, self_s) in by_layer(stats).items():
        table.add_row(layer, calls, f"{calls / hops:.2f}",
                      f"{self_s / self_total:.1%}" if self_total else "-")
    table.add_row("total", stats.total_calls,
                  f"{stats.total_calls / hops:.2f}", "100.0%")
    print(table.render())
    print()
    rows = sorted(stats.stats.items(),
                  key=lambda item: (-item[1][2], item[0]))[:args.top]
    table = Table(["function", "layer", "calls", "self s", "cum s"],
                  title=f"Top {len(rows)} functions by self time")
    for key, (_cc, calls, self_s, cum_s, _callers) in rows:
        table.add_row(pstats.func_std_string(pstats.func_strip_path(key)),
                      layer_of(key[0]), calls, f"{self_s:.4f}",
                      f"{cum_s:.4f}")
    print(table.render())
    return 0 if result.passed else 1


def _load_demand_set(name, path):
    """The demand set a named set or a ``--demands`` file selects
    (column-saturated-8x8 when neither).  Both at once, an unknown name
    or an unreadable file exits 2 with the reason on stderr."""
    from .alloc import DemandSet, get_demand_set

    if name and path:
        print("give either a named demand set or --demands FILE, "
              "not both", file=sys.stderr)
        raise SystemExit(2)
    if path:
        try:
            with open(path) as handle:
                return DemandSet.from_json(handle.read())
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"cannot load demand set from {path}: {error!r} (see "
                  "docs/allocation.md for the file format)",
                  file=sys.stderr)
            raise SystemExit(2)
    try:
        return get_demand_set(name or "column-saturated-8x8")
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        raise SystemExit(2)


def cmd_alloc_demand_set(args) -> int:
    from .alloc import demand_set_names, get_demand_set

    if args.out and not (args.name or args.demands):
        print("--out needs a demand set to write: name one (see "
              "'alloc demand-set' for the list) or pass --demands",
              file=sys.stderr)
        return 2
    if not args.name and not args.demands:
        table = Table(["demand set", "mesh", "demands", "description"],
                      title="Named adversarial demand sets")
        for name in demand_set_names():
            dset = get_demand_set(name)
            blurb = dset.description
            if len(blurb) > 56:
                blurb = blurb[:56] + "..."
            table.add_row(name, f"{dset.cols}x{dset.rows}", len(dset),
                          blurb)
        print(table.render())
        return 0
    dset = _load_demand_set(args.name, args.demands)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(dset.to_json() + "\n")
        print(f"wrote {len(dset)} demands to {args.out}")
    else:
        print(dset.to_json())
    return 0


def cmd_alloc_report(args) -> int:
    from .alloc import allocator_names, comparison_table, compare

    dset = _load_demand_set(args.name, args.demands)
    strategies = ([args.allocator] if args.allocator != "all"
                  else allocator_names())
    outcomes = compare(dset, strategies)
    print(comparison_table(dset, outcomes).render())
    if args.require_improvement:
        by_name = {outcome.strategy: outcome for outcome in outcomes}
        xy = by_name.get("xy")
        adaptive = [outcome for name, outcome in by_name.items()
                    if name != "xy"]
        if xy is None or not adaptive:
            print("--require-improvement needs xy plus at least one "
                  "adaptive strategy in the comparison", file=sys.stderr)
            return 2
        short = [outcome.strategy for outcome in adaptive
                 if outcome.admitted <= xy.admitted]
        if short:
            print(f"FAIL: {', '.join(short)} admitted no more than xy "
                  f"({xy.admitted}/{xy.total}) on {dset.name}")
            return 1
        print(f"OK: every adaptive strategy beats xy "
              f"({xy.admitted}/{xy.total} admitted) on {dset.name}")
    return 0


def _label(candidate) -> str:
    from .synth import CandidateConfig
    return CandidateConfig.from_dict(candidate).label


def _synth_search(args, search, **options):
    """``search`` (run_report or frontier_report) over the design space
    the synth flags describe: ``(dset, space, report)``, or ``None``
    (exit 2) after printing why not."""
    from .synth import DesignSpace, SynthesisError

    dset = _load_demand_set(args.demand_set, args.demands)
    try:
        space = (DesignSpace(families=tuple(
                     name.strip() for name in args.families.split(",")))
                 if args.families else DesignSpace())
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return None
    try:
        report = search(dset, allocator=args.allocator, space=space,
                        cost_model=args.cost_model, budget=args.budget,
                        **options)
    except SynthesisError as error:
        print(str(error), file=sys.stderr)
        return None
    return dset, space, report


def _synth_verdict(args, report) -> int:
    """Write ``--out``, then print the winner: 1 when some point has no
    feasible configuration within the budget."""
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote synthesis report to {args.out}")
    infeasible = [pt["demand_set"] for pt in report.points
                  if not pt["feasible"]]
    if infeasible:
        print(f"FAIL: no feasible configuration for "
              f"{', '.join(infeasible)} within budget {report.budget}")
        return 1
    point = report.best_point()
    best = point["best"]
    print(f"winner: {_label(best['candidate'])} at "
          f"{best['cost']['total_mm2']:.6f} mm^2 "
          f"({point['evaluations']} evaluations)")
    return 0


def cmd_synth_run(args) -> int:
    from .synth import run_report, synthesize

    if args.require_cheaper_than_xy and args.allocator == "xy":
        print("--require-cheaper-than-xy compares against xy; pick a "
              "batch-aware allocator (see docs/synthesis.md)",
              file=sys.stderr)
        return 2
    found = _synth_search(args, run_report)
    if found is None:
        return 2
    dset, space, report = found
    table = Table(
        ["family", "feasible", "winner", "area mm^2", "evals"],
        title=(f"synth run: {dset.name} via {report.allocator} "
               f"(budget {report.budget})"))
    for entry in report.best_point()["families"]:
        table.add_row(
            entry["family"],
            "yes" if entry["feasible"] else "no",
            _label(entry["candidate"]) if entry["candidate"]
            else entry.get("reason", "-"),
            f"{entry['cost']['total_mm2']:.6f}"
            if entry["cost"] else "-",
            entry["evaluations"])
    print(table.render())
    verdict = _synth_verdict(args, report)
    if verdict or not args.require_cheaper_than_xy:
        return verdict

    best = report.best_point()["best"]
    winner, total = _label(best["candidate"]), best["cost"]["total_mm2"]
    xy_point = synthesize(dset, allocator="xy", space=space,
                          cost_model=args.cost_model, budget=args.budget)
    if not xy_point["feasible"]:
        print(f"OK: xy finds nothing feasible where "
              f"{report.allocator} finds {winner}")
        return 0
    xy_best = xy_point["best"]
    xy_winner = _label(xy_best["candidate"])
    xy_total = xy_best["cost"]["total_mm2"]
    if total < xy_total:
        print(f"OK: {report.allocator} winner {winner} "
              f"({total:.6f} mm^2) strictly cheaper than xy winner "
              f"{xy_winner} ({xy_total:.6f} mm^2)")
        return 0
    print(f"FAIL: {report.allocator} winner {winner} "
          f"({total:.6f} mm^2) not cheaper than xy winner "
          f"{xy_winner} ({xy_total:.6f} mm^2)")
    return 1


def cmd_synth_frontier(args) -> int:
    from .synth import frontier_report

    found = _synth_search(args, frontier_report, points=args.points)
    if found is None:
        return 2
    dset, _space, report = found
    table = Table(
        ["demands", "winner", "area mm^2", "evals"],
        title=(f"synth frontier: {dset.name} via "
               f"{report.allocator} (budget {report.budget} per "
               "point)"))
    for pt in report.points:
        best = pt["best"]
        table.add_row(
            pt["n_demands"],
            _label(best["candidate"]) if best else "-",
            f"{best['cost']['total_mm2']:.6f}" if best else "-",
            pt["evaluations"])
    print(table.render())
    return _synth_verdict(args, report)


def _write_golden(golden_module, fingerprints) -> None:
    """Rewrite scenarios/golden.py with freshly recorded digests."""
    path = golden_module.__file__
    with open(path) as handle:
        source = handle.read()
    # The dict assignment is the last statement; __all__ also mentions
    # the name, so split on the assignment at line start only.
    head = source.rsplit("\nSMOKE_FINGERPRINTS: Dict[str, str]", 1)[0]
    lines = [f'    "{name}": "{digest}",'
             for name, digest in sorted(fingerprints.items())]
    body = "\nSMOKE_FINGERPRINTS: Dict[str, str] = {\n" + \
        "\n".join(lines) + "\n}\n"
    with open(path, "w") as handle:
        handle.write(head + body)


def _shared(*names, **options) -> argparse.ArgumentParser:
    """A parent parser holding one argument that several actions take."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The command grammar: one subparser per action, each declaring
    only the arguments that action takes, with its handler as the
    ``handler`` default."""
    from .alloc import allocator_names
    from .backends import backend_names
    from .bench import DEFAULT_TOLERANCE
    from .network import topology_names
    from .synth import DEFAULT_BUDGET, cost_model_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MANGO clockless NoC router reproduction (DATE 2005)")
    commands = parser.add_subparsers(dest="command", required=True)

    def parser_for(group, name, handler, help, parents=()):
        sub = group.add_parser(name, help=help, parents=list(parents))
        sub.set_defaults(handler=handler)
        return sub

    def actions(name, help):
        return commands.add_parser(name, help=help).add_subparsers(
            dest="action", required=True)

    parser_for(commands, "report", cmd_report, "Table 1 + timing figures")
    sub = parser_for(commands, "contract", cmd_contract,
                  "QoS contract for N hops")
    sub.add_argument("--hops", type=int, default=3)
    sub = parser_for(commands, "simulate", cmd_simulate,
                  "quick mixed-traffic run")
    sub.add_argument("--cols", type=int, default=3)
    sub.add_argument("--rows", type=int, default=3)
    sub.add_argument("--flits", type=int, default=100)
    sub.add_argument("--horizon", type=float, default=10000.0)

    scenario_name = _shared("name", help="scenario name (see: scenario "
                                         "list)")
    backend = _shared("--backend", choices=backend_names(),
                      help="router architecture (default: the topology's "
                           "own backend — mango for mesh cells; see "
                           "docs/backends.md)")
    cells = [
        _shared("--smoke", action="store_true",
                help="CI-sized durations (capped slots/flits)"),
        backend,
        _shared("--allocator", choices=allocator_names(), default="xy",
                help="GS admission/route-search strategy (mango-manager "
                     "backends only; see docs/allocation.md)")]
    fleet = [
        _shared("--names", help="comma-separated scenario subset "
                                "(default: all)"),
        _shared("--jobs", type=int, default=1,
                help="fleet worker processes (1 = the in-process serial "
                     "loop; verdicts and fingerprints are identical "
                     "either way; see docs/benchmarks.md)")]
    topology = _shared("--topology", choices=topology_names(),
                       help="override the scenario's fabric (reruns the "
                            "same workload on another topology; see "
                            "docs/topologies.md)")
    metrics = _shared("--metrics", action="store_true",
                      help="register the observability probe set: "
                           "counters/gauges in the result or BENCH record "
                           "(fingerprints are unchanged; see "
                           "docs/observability.md)")
    full = _shared("--full", action="store_true",
                   help="run the full-length scenario instead of the "
                        "smoke-sized cut")

    scenario = actions("scenario", "declarative scenario matrix")
    parser_for(scenario, "list", cmd_scenario_list, "registered scenarios")
    sub = parser_for(scenario, "run", cmd_scenario_run,
                  "run one scenario and print its verdict",
                  [scenario_name, *cells, topology, metrics])
    sub.add_argument("--metrics-sample-ns", type=float,
                     help="additionally snapshot gauges on this "
                          "simulated-time cadence (needs --metrics)")
    sub = parser_for(scenario, "matrix", cmd_scenario_matrix,
                  "QoS conformance matrix over the registry",
                  [*cells, *fleet, topology, metrics])
    sub.add_argument("--update-golden", action="store_true",
                     help="record smoke fingerprints into "
                          "scenarios/golden.py")
    sub.add_argument("--cache-dir",
                     help="per-cell result cache, keyed on spec+backend+"
                          "allocator+topology+code fingerprint (see "
                          "docs/benchmarks.md)")

    bench = actions("bench", "perf trajectory: BENCH_*.json files (see "
                             "docs/benchmarks.md)")
    sub = parser_for(bench, "record", cmd_bench_record,
                  "run the fleet and write a BENCH_*.json",
                  [*cells, *fleet, metrics])
    sub.add_argument("--out", default=".",
                     help="directory for the BENCH_*.json file (default: "
                          "current dir)")
    sub = parser_for(bench, "compare", cmd_bench_compare,
                  "compare a run to a recorded baseline (the CI gate)",
                  [*cells, *fleet])
    sub.add_argument("--against", required=True,
                     help="baseline BENCH_*.json to compare the current "
                          "run to")
    sub.add_argument("--current",
                     help="compare this recorded file instead of running "
                          "the matrix now")
    sub.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                     help="allowed fractional per-cell throughput drop "
                          "before a regression is flagged (default "
                          "%(default)s)")
    sub = parser_for(bench, "report", cmd_bench_report,
                  "markdown trend table over recorded BENCH files")
    sub.add_argument("files", nargs="+", metavar="BENCH_*.json",
                     help="recorded BENCH files")
    sub.add_argument("--out", help="write the report here instead of "
                                   "stdout")

    trace = actions("trace", "per-flit timeline traces: text view or "
                             "Chrome/Perfetto export (see "
                             "docs/observability.md)")
    sub = parser_for(trace, "run", cmd_trace_run,
                  "run a scenario with tracing on",
                  [scenario_name, full, backend])
    sub.add_argument("--out",
                     help="write Chrome trace-event JSON here instead of "
                          "printing the text timeline")
    sub.add_argument("--filter", action="append", metavar="FIELD=VALUE",
                     help="restrict records: source=NAME or kind=KIND; "
                          "repeatable (same field ORs, different fields "
                          "AND)")
    sub.add_argument("--limit", type=int, default=40,
                     help="text-timeline rows to show (default "
                          "%(default)s)")
    sub.add_argument("--max-records", type=int, default=65_536,
                     help="tracer ring-buffer capacity (default "
                          "%(default)s; the --out export streams past "
                          "the ring and is unaffected)")
    sub = parser_for(trace, "validate", cmd_trace_validate,
                  "schema-check an exported trace file")
    sub.add_argument("file", help="exported Chrome trace JSON")

    sub = parser_for(commands, "profile", cmd_profile,
                  "run-phase cProfile: exact calls per flit hop by layer "
                  "(see docs/observability.md)",
                  [scenario_name, full, backend])
    sub.add_argument("--top", type=int, default=15,
                     help="rows in the hot-function table (default "
                          "%(default)s)")

    demands = _shared("--demands", help="path to a demand-set JSON file "
                                        "(instead of a named set)")
    alloc = actions("alloc", "connection allocation: demand sets + "
                             "acceptance-rate comparison")
    sub = parser_for(alloc, "demand-set", cmd_alloc_demand_set,
                  "list the named demand sets, or print/write one as JSON",
                  [demands])
    sub.add_argument("name", nargs="?",
                     help="named adversarial demand set (default: list "
                          "them)")
    sub.add_argument("--out", help="write the demand set as JSON to this "
                                   "path")
    sub = parser_for(alloc, "report", cmd_alloc_report,
                  "acceptance-rate comparison of the strategies",
                  [demands])
    sub.add_argument("name", nargs="?",
                     help="named adversarial demand set (default: "
                          "column-saturated-8x8)")
    sub.add_argument("--allocator", default="all",
                     choices=("all",) + tuple(allocator_names()),
                     help="strategy to report on (default: %(default)s)")
    sub.add_argument("--require-improvement", action="store_true",
                     help="exit non-zero unless every adaptive strategy "
                          "admits strictly more than xy (the CI "
                          "alloc-smoke gate)")

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--demand-set",
                        help="named adversarial demand set (default: "
                             "column-saturated-8x8; see 'alloc "
                             "demand-set' for the list)")
    search.add_argument("--allocator", choices=allocator_names(),
                        default="ripup",
                        help="feasibility oracle's admission strategy "
                             "(default: %(default)s)")
    search.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="fresh oracle evaluations per synthesis "
                             "(default %(default)s)")
    search.add_argument("--families",
                        help="comma-separated topology families to search "
                             "(default: mesh,ring,ring-uni)")
    search.add_argument("--cost-model", choices=cost_model_names(),
                        default="area",
                        help="objective to minimize (default: "
                             "%(default)s)")
    search.add_argument("--out",
                        help="write the SynthesisReport JSON to this path")
    synth = actions("synth", "design-space synthesis: cheapest network "
                             "that admits a demand set (see "
                             "docs/synthesis.md)")
    sub = parser_for(synth, "run", cmd_synth_run,
                  "cheapest configuration per topology family",
                  [search, demands])
    sub.add_argument("--require-cheaper-than-xy", action="store_true",
                     help="exit non-zero unless the winner is strictly "
                          "cheaper than the cheapest xy-feasible "
                          "configuration (the CI synth-smoke gate)")
    sub = parser_for(synth, "frontier", cmd_synth_frontier,
                  "cost curve along the demand-count axis",
                  [search, demands])
    sub.add_argument("--points", type=int, default=4,
                     help="frontier points along the demand-count axis "
                          "(default %(default)s)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
