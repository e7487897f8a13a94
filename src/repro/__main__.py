"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``     — Table 1 area breakdown + per-corner timing figures
* ``contract``   — QoS contract for a connection of N hops
* ``simulate``   — a quick mixed GS/BE simulation on a small mesh
* ``scenario``   — the declarative scenario matrix: ``list``, ``run`` one
  scenario, or drive the whole conformance ``matrix`` (``--jobs N``
  shards it over worker processes)
* ``bench``      — the persisted perf trajectory: ``record`` a
  machine-readable ``BENCH_*.json`` from a fleet run, ``compare``
  a run against a recorded baseline (the CI regression gate), or
  ``report`` the markdown trend table over a series of BENCH files
* ``trace``      — flit-timeline observability: ``run`` a scenario with
  tracing enabled and export a Chrome trace-event JSON (or print the
  text timeline), or ``validate`` an exported file against the schema
* ``profile``    — profile a scenario's run phase with ``cProfile``
  and print exact calls per flit hop by layer plus the hottest functions
* ``alloc``      — connection allocation: print a named adversarial
  ``demand-set`` as JSON, or ``report`` the acceptance-rate comparison
  of the registered strategies on a demand set
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


def cmd_scenario(args) -> int:
    import dataclasses

    from .backends import (BackendCapabilityError,
                           DEFAULT_BACKEND_BY_TOPOLOGY, backend_for_topology,
                           get_backend)
    from .scenarios import ScenarioRunner, get, golden, registry
    from .scenarios.golden import (BACKEND_SMOKE_FINGERPRINTS,
                                   SMOKE_FINGERPRINTS)

    # No --backend means per-cell resolution: each spec's topology picks
    # its default backend (mesh -> mango, fabrics -> theirs).
    backend = (get_backend(args.backend)
               if args.backend is not None else None)
    backend_label = backend.name if backend is not None else "auto"

    def fabric(spec):
        """Topology tag for tables: '4x4' on the mesh, '4x4 ring' off it."""
        size = f"{spec.cols}x{spec.rows}"
        return size if spec.topology == "mesh" else f"{size} {spec.topology}"

    # Fleet flags are matrix-only; refused elsewhere, never ignored.
    if args.action != "matrix" and args.jobs != 1:
        print("--jobs only applies to 'matrix' (see docs/benchmarks.md)",
              file=sys.stderr)
        return 2
    if args.action != "matrix" and args.cache_dir:
        print("--cache-dir only applies to 'matrix' "
              "(see docs/benchmarks.md)", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
        return 2
    if args.action == "list" and args.metrics:
        print("--metrics only applies to 'run' and 'matrix'",
              file=sys.stderr)
        return 2
    if args.metrics_sample_ns is not None and not args.metrics:
        print("--metrics-sample-ns needs --metrics", file=sys.stderr)
        return 2
    if args.metrics_sample_ns is not None and args.metrics_sample_ns <= 0:
        print("--metrics-sample-ns must be positive", file=sys.stderr)
        return 2
    if args.metrics_sample_ns is not None and args.action == "matrix":
        print("--metrics-sample-ns only applies to 'run' (matrix cells "
              "snapshot at run end)", file=sys.stderr)
        return 2

    if args.action == "list":
        table = Table(["scenario", "mesh", "GS", "pattern", "tags"],
                      title=f"Scenario matrix "
                            f"({len(registry.SCENARIOS)} registered)")
        for name in registry.names():
            spec = get(name)
            pattern = spec.be.pattern if spec.be is not None else "-"
            table.add_row(name, fabric(spec), len(spec.gs),
                          pattern, ",".join(spec.tags))
        print(table.render())
        return 0

    smoke = args.smoke

    def run_one(name):
        spec = get(name)
        if args.topology:
            spec = dataclasses.replace(spec, topology=args.topology)
        if smoke:
            spec = spec.smoke()
        obs = None
        if args.metrics:
            from .obs import ObsConfig
            obs = ObsConfig(metrics=True,
                            metrics_sample_ns=args.metrics_sample_ns)
        runner = ScenarioRunner(spec, backend=backend,
                                allocator=args.allocator, obs=obs)
        return runner.run()

    if args.action == "run":
        _scenario_names(args.name)
        try:
            result = run_one(args.name)
        except BackendCapabilityError as error:
            print(f"SKIP: {error}", file=sys.stderr)
            return 2
        table = Table(["metric", "value"],
                      title=f"Scenario {result.name} "
                            f"({'smoke' if smoke else 'full'}, "
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

    # matrix
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
    from .scenarios.fleet import FleetCell, run_fleet
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
        if outcome.status == "skip":
            # Cells a backend cannot build (foreign topology, MANGO
            # protocol-violation probes) are reported, not failed.
            skipped += 1
            table.add_row(name, fabric(get(name)),
                          "-", "-", "-", "-", "SKIP")
            continue
        if outcome.status == "error":
            # A crashing cell is one ERROR row (and a non-zero exit),
            # never an aborted matrix losing the partial table.
            errored += 1
            failed.append((name, [f"ERROR: {outcome.reason}"]))
            table.add_row(name, fabric(get(name)),
                          "-", "-", "-", "-", "ERROR")
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
        mesh = (result["mesh"] if result["topology"] == "mesh"
                else f"{result['mesh']} {result['topology']}")
        table.add_row(name, mesh,
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


def cmd_bench(args) -> int:
    import time

    from .bench import (DEFAULT_TOLERANCE, bench_payload, compare_benches,
                        load_bench, trajectory_report, write_bench)
    from .scenarios.fleet import FleetCell, run_fleet

    # Flags scoped to the other action are refused, not ignored.
    if args.action in ("record", "report"):
        for flag, value in (("--against", args.against),
                            ("--current", args.current),
                            ("--tolerance", args.tolerance)):
            if value is not None:
                print(f"{flag} only applies to 'compare'", file=sys.stderr)
                return 2
    if args.action == "compare" and args.out is not None:
        print("--out only applies to 'record' and 'report'",
              file=sys.stderr)
        return 2
    if args.action != "report" and args.files:
        print("BENCH files are 'report' arguments (record/compare take "
              "--out/--against)", file=sys.stderr)
        return 2
    if args.action == "report":
        for flag, value in (("--names", args.names),
                            ("--backend", args.backend)):
            if value is not None:
                print(f"{flag} only applies to 'record'/'compare'",
                      file=sys.stderr)
                return 2
        if args.metrics or args.smoke or args.jobs != 1 \
                or args.allocator != "xy":
            print("report reads recorded files; run flags "
                  "(--metrics/--smoke/--jobs/--allocator) do not apply",
                  file=sys.stderr)
            return 2
        if not args.files:
            print("report needs at least one recorded BENCH_*.json",
                  file=sys.stderr)
            return 2
        try:
            text = trajectory_report(args.files)
        except (OSError, ValueError) as error:
            print(f"cannot build trajectory report: {error}",
                  file=sys.stderr)
            return 2
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
            print(f"wrote trajectory report ({len(args.files)} points) "
                  f"to {args.out}")
        else:
            print(text, end="")
        return 0
    if args.action == "compare" and args.metrics:
        print("--metrics only applies to 'record' (compare inherits the "
              "baseline's axes)", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
        return 2

    def collect():
        """Run the fleet now (no result cache: recorded wall times must
        be measurements, not replays) and assemble the payload."""
        cells = [FleetCell(name=name, backend=args.backend,
                           allocator=args.allocator, smoke=args.smoke,
                           metrics=args.metrics)
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
                    "observability": ("metrics" if args.metrics
                                      else "off")}
        return bench_payload(outcomes, run_info, fleet_wall_s=wall)

    if args.action == "record":
        payload = collect()
        path = write_bench(payload, args.out or ".")
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

    # compare
    if not args.against:
        print("compare needs --against FILE (a recorded BENCH_*.json)",
              file=sys.stderr)
        return 2
    tolerance = (DEFAULT_TOLERANCE if args.tolerance is None
                 else args.tolerance)
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
        current = collect()
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


def cmd_trace(args) -> int:
    import json

    from .obs import (ChromeTraceSink, ObsConfig, parse_filters,
                      render_timeline, validate_chrome_trace)
    from .sim.tracing import Tracer

    if args.action == "validate":
        for flag, value in (("--out", args.out),
                            ("--filter", args.filter or None),
                            ("--limit", args.limit),
                            ("--max-records", args.max_records),
                            ("--backend", args.backend)):
            if value is not None:
                print(f"{flag} only applies to 'run'", file=sys.stderr)
                return 2
        if args.full:
            print("--full only applies to 'run'", file=sys.stderr)
            return 2
        try:
            with open(args.name) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot load trace {args.name}: {error}",
                  file=sys.stderr)
            return 2
        problems = validate_chrome_trace(payload)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            return 1
        events = payload["traceEvents"]
        spans = sum(1 for event in events if event.get("ph") == "X")
        print(f"OK: {args.name} is a loadable Chrome trace "
              f"({len(events)} events, {spans} spans)")
        return 0

    # run
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
    max_records = (args.max_records if args.max_records is not None
                   else 65_536)
    tracer = Tracer(enabled=True, max_records=max_records, sink=sink)
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
        print(render_timeline(tracer, limit=args.limit or 40,
                              sources=sources, kinds=kinds))
    print(f"scenario {result.name}: {result.events} kernel events, "
          f"fingerprint {result.fingerprint}, "
          f"{'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


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


def cmd_alloc(args) -> int:
    from .alloc import (allocator_names, comparison_table, compare,
                        demand_set_names, get_demand_set, DemandSet)

    if args.name and args.demands:
        print("give either a named demand set or --demands FILE, "
              "not both", file=sys.stderr)
        return 2
    # Flags scoped to the other action are refused, not ignored.
    if args.action == "report" and args.out:
        print("--out only applies to 'demand-set' ('report' prints a "
              "table; redirect stdout to capture it)", file=sys.stderr)
        return 2
    if args.action == "demand-set" and args.require_improvement:
        print("--require-improvement only applies to 'report'",
              file=sys.stderr)
        return 2
    if args.action == "demand-set" and args.allocator is not None:
        print("--allocator only applies to 'report' (a demand set is "
              "strategy-independent input)", file=sys.stderr)
        return 2

    def load_demand_set():
        if args.demands:
            try:
                with open(args.demands) as handle:
                    return DemandSet.from_json(handle.read())
            except (OSError, ValueError, KeyError, TypeError) as error:
                print(f"cannot load demand set from {args.demands}: "
                      f"{error!r} (see docs/allocation.md for the file "
                      "format)", file=sys.stderr)
                raise SystemExit(2)
        name = args.name or "column-saturated-8x8"
        try:
            return get_demand_set(name)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            raise SystemExit(2)

    if args.action == "demand-set":
        if args.out and not (args.name or args.demands):
            print("--out needs a demand set to write: name one (see "
                  "'alloc demand-set' for the list) or pass --demands",
                  file=sys.stderr)
            return 2
        if not args.name and not args.out and not args.demands:
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
        dset = load_demand_set()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(dset.to_json() + "\n")
            print(f"wrote {len(dset)} demands to {args.out}")
        else:
            print(dset.to_json())
        return 0

    # report
    dset = load_demand_set()
    strategies = ([args.allocator]
                  if args.allocator not in (None, "all")
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


def cmd_synth(args) -> int:
    from .alloc import DemandSet, get_demand_set
    from .synth import (CandidateConfig, DesignSpace, SynthesisError,
                        frontier_report, run_report, synthesize)

    if args.demand_set and args.demands:
        print("give either --demand-set NAME or --demands FILE, "
              "not both", file=sys.stderr)
        return 2
    # Flags scoped to the other action are refused, not ignored.
    if args.action == "run" and args.points is not None:
        print("--points only applies to 'frontier' ('run' synthesizes "
              "the whole demand set as one point)", file=sys.stderr)
        return 2
    if args.action == "frontier" and args.require_cheaper_than_xy:
        print("--require-cheaper-than-xy only applies to 'run' (the "
              "frontier's payoff is its cost curve)", file=sys.stderr)
        return 2
    if args.require_cheaper_than_xy and args.allocator == "xy":
        print("--require-cheaper-than-xy compares against xy; pick a "
              "batch-aware allocator (see docs/synthesis.md)",
              file=sys.stderr)
        return 2

    if args.demands:
        try:
            with open(args.demands) as handle:
                dset = DemandSet.from_json(handle.read())
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"cannot load demand set from {args.demands}: "
                  f"{error!r} (see docs/allocation.md for the file "
                  "format)", file=sys.stderr)
            return 2
    else:
        try:
            dset = get_demand_set(args.demand_set
                                  or "column-saturated-8x8")
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2

    try:
        space = (DesignSpace(families=tuple(
                     name.strip() for name in args.families.split(",")))
                 if args.families else DesignSpace())
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    def label_of(candidate) -> str:
        return CandidateConfig.from_dict(candidate).label

    try:
        if args.action == "frontier":
            report = frontier_report(
                dset, allocator=args.allocator, space=space,
                cost_model=args.cost_model, budget=args.budget,
                points=args.points if args.points is not None else 4)
        else:
            report = run_report(
                dset, allocator=args.allocator, space=space,
                cost_model=args.cost_model, budget=args.budget)
    except SynthesisError as error:
        print(str(error), file=sys.stderr)
        return 2

    point = report.best_point()
    if args.action == "run":
        table = Table(
            ["family", "feasible", "winner", "area mm^2", "evals"],
            title=(f"synth run: {dset.name} via {report.allocator} "
                   f"(budget {report.budget})"))
        for entry in point["families"]:
            table.add_row(
                entry["family"],
                "yes" if entry["feasible"] else "no",
                label_of(entry["candidate"]) if entry["candidate"]
                else entry.get("reason", "-"),
                f"{entry['cost']['total_mm2']:.6f}"
                if entry["cost"] else "-",
                entry["evaluations"])
        print(table.render())
    else:
        table = Table(
            ["demands", "winner", "area mm^2", "evals"],
            title=(f"synth frontier: {dset.name} via "
                   f"{report.allocator} (budget {report.budget} per "
                   "point)"))
        for pt in report.points:
            best = pt["best"]
            table.add_row(
                pt["n_demands"],
                label_of(best["candidate"]) if best else "-",
                f"{best['cost']['total_mm2']:.6f}" if best else "-",
                pt["evaluations"])
        print(table.render())

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
    best = point["best"]
    winner, total = label_of(best["candidate"]), best["cost"]["total_mm2"]
    print(f"winner: {winner} at {total:.6f} mm^2 "
          f"({point['evaluations']} evaluations)")

    if args.require_cheaper_than_xy:
        xy_point = synthesize(dset, allocator="xy", space=space,
                              cost_model=args.cost_model,
                              budget=args.budget)
        if not xy_point["feasible"]:
            print(f"OK: xy finds nothing feasible where "
                  f"{report.allocator} finds {winner}")
            return 0
        xy_best = xy_point["best"]
        xy_winner = label_of(xy_best["candidate"])
        xy_total = xy_best["cost"]["total_mm2"]
        if total < xy_total:
            print(f"OK: {report.allocator} winner {winner} "
                  f"({total:.6f} mm^2) strictly cheaper than xy winner "
                  f"{xy_winner} ({xy_total:.6f} mm^2)")
        else:
            print(f"FAIL: {report.allocator} winner {winner} "
                  f"({total:.6f} mm^2) not cheaper than xy winner "
                  f"{xy_winner} ({xy_total:.6f} mm^2)")
            return 1
    return 0


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MANGO clockless NoC router reproduction (DATE 2005)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("report", help="Table 1 + timing figures")

    contract = sub.add_parser("contract", help="QoS contract for N hops")
    contract.add_argument("--hops", type=int, default=3)

    simulate = sub.add_parser("simulate", help="quick mixed-traffic run")
    simulate.add_argument("--cols", type=int, default=3)
    simulate.add_argument("--rows", type=int, default=3)
    simulate.add_argument("--flits", type=int, default=100)
    simulate.add_argument("--horizon", type=float, default=10000.0)

    scenario = sub.add_parser(
        "scenario", help="declarative scenario matrix (list/run/matrix)")
    scenario.add_argument("action", choices=("list", "run", "matrix"))
    scenario.add_argument("name", nargs="?",
                          help="scenario name (for 'run')")
    scenario.add_argument("--smoke", action="store_true",
                          help="CI-sized durations (capped slots/flits)")
    from .backends import backend_names
    scenario.add_argument("--backend", choices=backend_names(),
                          default=None,
                          help="router architecture to replay the "
                               "scenario on (default: the topology's "
                               "own backend — mango for mesh cells; "
                               "see docs/backends.md)")
    from .network import topology_names
    scenario.add_argument("--topology", choices=topology_names(),
                          default=None,
                          help="override the scenario's fabric (reruns "
                               "the same workload on another topology; "
                               "see docs/topologies.md)")
    from .alloc import allocator_names
    scenario.add_argument("--allocator", choices=allocator_names(),
                          default="xy",
                          help="GS admission/route-search strategy "
                               "(mango-manager backends only; see "
                               "docs/allocation.md)")
    scenario.add_argument("--names",
                          help="comma-separated subset (for 'matrix')")
    scenario.add_argument("--update-golden", action="store_true",
                          help="record smoke fingerprints into "
                               "scenarios/golden.py")
    scenario.add_argument("--jobs", type=int, default=1,
                          help="worker processes for 'matrix' (1 = the "
                               "in-process serial loop; verdicts and "
                               "fingerprints are identical either way; "
                               "see docs/benchmarks.md)")
    scenario.add_argument("--cache-dir", default=None,
                          help="per-cell result cache for 'matrix', "
                               "keyed on spec+backend+allocator+"
                               "topology+code fingerprint (see "
                               "docs/benchmarks.md)")
    scenario.add_argument("--metrics", action="store_true",
                          help="register the observability probe set "
                               "and report counters/gauges ('run' and "
                               "'matrix'; fingerprints are unchanged; "
                               "see docs/observability.md)")
    scenario.add_argument("--metrics-sample-ns", type=float, default=None,
                          help="additionally snapshot gauges on this "
                               "simulated-time cadence ('run' with "
                               "--metrics only)")

    bench = sub.add_parser(
        "bench", help="perf trajectory: record/compare/report "
                      "BENCH_*.json (see docs/benchmarks.md)")
    bench.add_argument("action", choices=("record", "compare", "report"))
    bench.add_argument("files", nargs="*",
                       help="recorded BENCH_*.json files ('report' "
                            "only)")
    bench.add_argument("--smoke", action="store_true",
                       help="CI-sized durations (capped slots/flits)")
    bench.add_argument("--jobs", type=int, default=1,
                       help="fleet worker processes")
    bench.add_argument("--names",
                       help="comma-separated scenario subset")
    bench.add_argument("--backend", choices=backend_names(), default=None,
                       help="router architecture to record on "
                            "(default: each cell's topology default)")
    bench.add_argument("--allocator", choices=allocator_names(),
                       default="xy",
                       help="GS admission strategy (mango-manager "
                            "backends only)")
    bench.add_argument("--out", default=None,
                       help="directory for the BENCH_*.json file "
                            "('record' only; default: current dir)")
    bench.add_argument("--against",
                       help="baseline BENCH_*.json to compare the "
                            "current run to ('compare' only)")
    bench.add_argument("--current",
                       help="compare this recorded file instead of "
                            "running the matrix now ('compare' only)")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="allowed fractional per-cell throughput "
                            "drop before 'compare' flags a regression "
                            "(default 0.3)")
    bench.add_argument("--metrics", action="store_true",
                       help="record with the metrics probe set enabled "
                            "('record' only; the BENCH header notes the "
                            "observability mode so 'compare' can warn "
                            "on mismatched settings)")

    trace = sub.add_parser(
        "trace", help="per-flit timeline traces: text view or Chrome/"
                      "Perfetto export (see docs/observability.md)")
    trace.add_argument("action", choices=("run", "validate"))
    trace.add_argument("name",
                       help="scenario name ('run') or exported trace "
                            "file to schema-check ('validate')")
    trace.add_argument("--out", default=None,
                       help="write Chrome trace-event JSON here "
                            "instead of printing the text timeline")
    trace.add_argument("--filter", action="append", default=None,
                       metavar="FIELD=VALUE",
                       help="restrict records: source=NAME or "
                            "kind=KIND; repeatable (same field ORs, "
                            "different fields AND)")
    trace.add_argument("--limit", type=int, default=None,
                       help="text-timeline rows to show (default 40)")
    trace.add_argument("--max-records", type=int, default=None,
                       help="tracer ring-buffer capacity (default "
                            "65536; the --out export streams past the "
                            "ring and is unaffected)")
    trace.add_argument("--full", action="store_true",
                       help="trace the full-length scenario instead of "
                            "the smoke-sized cut")
    trace.add_argument("--backend", choices=backend_names(),
                       default=None,
                       help="router architecture to trace on (default: "
                            "the topology's own backend)")

    profile = sub.add_parser(
        "profile", help="run-phase cProfile: exact calls per flit hop "
                        "by layer (see docs/observability.md)")
    profile.add_argument("name", help="scenario name to profile")
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the hot-function table "
                              "(default 15)")
    profile.add_argument("--full", action="store_true",
                         help="profile the full-length scenario "
                              "instead of the smoke-sized cut")
    profile.add_argument("--backend", choices=backend_names(),
                         default=None,
                         help="router architecture to profile (default: "
                              "the topology's own backend)")

    alloc = sub.add_parser(
        "alloc", help="connection allocation: demand sets + "
                      "acceptance-rate comparison")
    alloc.add_argument("action", choices=("demand-set", "report"))
    alloc.add_argument("name", nargs="?",
                       help="named adversarial demand set (default: "
                            "column-saturated-8x8 for 'report', list "
                            "for 'demand-set')")
    alloc.add_argument("--demands",
                       help="path to a demand-set JSON file (instead of "
                            "a named set)")
    alloc.add_argument("--out",
                       help="write the demand set as JSON to this path "
                            "(for 'demand-set')")
    alloc.add_argument("--allocator", default=None,
                       choices=("all",) + tuple(allocator_names()),
                       help="strategy to report on (report only; "
                            "default: all)")
    alloc.add_argument("--require-improvement", action="store_true",
                       help="exit non-zero unless every adaptive "
                            "strategy admits strictly more than xy "
                            "(the CI alloc-smoke gate)")

    from .synth import DEFAULT_BUDGET, cost_model_names
    synth = sub.add_parser(
        "synth", help="design-space synthesis: cheapest network that "
                      "admits a demand set (see docs/synthesis.md)")
    synth.add_argument("action", choices=("run", "frontier"))
    synth.add_argument("--demand-set", default=None,
                       help="named adversarial demand set (default: "
                            "column-saturated-8x8; see 'alloc "
                            "demand-set' for the list)")
    synth.add_argument("--demands",
                       help="path to a demand-set JSON file (instead "
                            "of a named set)")
    synth.add_argument("--allocator", choices=allocator_names(),
                       default="ripup",
                       help="feasibility oracle's admission strategy "
                            "(default: ripup)")
    synth.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="fresh oracle evaluations per synthesis "
                            f"(default {DEFAULT_BUDGET})")
    synth.add_argument("--families",
                       help="comma-separated topology families to "
                            "search (default: mesh,ring,ring-uni)")
    synth.add_argument("--cost-model", choices=cost_model_names(),
                       default="area",
                       help="objective to minimize (default: area)")
    synth.add_argument("--points", type=int, default=None,
                       help="frontier points along the demand-count "
                            "axis ('frontier' only; default 4)")
    synth.add_argument("--out",
                       help="write the SynthesisReport JSON to this "
                            "path")
    synth.add_argument("--require-cheaper-than-xy", action="store_true",
                       help="exit non-zero unless the winner is "
                            "strictly cheaper than the cheapest "
                            "xy-feasible configuration ('run' only; "
                            "the CI synth-smoke gate)")

    args = parser.parse_args(argv)
    if args.command == "scenario" and args.action == "run" \
            and not args.name:
        parser.error("scenario run needs a scenario name "
                     "(see: scenario list)")
    handlers = {"report": cmd_report, "contract": cmd_contract,
                "simulate": cmd_simulate, "scenario": cmd_scenario,
                "bench": cmd_bench, "trace": cmd_trace,
                "profile": cmd_profile, "alloc": cmd_alloc,
                "synth": cmd_synth}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
