"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import main


class TestCli:
    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "0.188" in out
        assert "port speed" in out

    def test_contract_default(self, capsys):
        assert main(["contract"]) == 0
        out = capsys.readouterr().out
        assert "3-hop" in out
        assert "guaranteed bandwidth" in out

    def test_contract_hops(self, capsys):
        assert main(["contract", "--hops", "5"]) == 0
        assert "5-hop" in capsys.readouterr().out

    def test_simulate_small(self, capsys):
        assert main(["simulate", "--cols", "2", "--rows", "2",
                     "--flits", "20", "--horizon", "3000"]) == 0
        out = capsys.readouterr().out
        assert "20/20 flits" in out
        assert "Link activity" in out
        assert "GS connections" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestScenarioCli:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "be-hotspot-8x8" in out
        assert "gs-under-saturation-4x4" in out
        assert "failure-orphan-flit-4x4" in out

    def test_run_smoke(self, capsys):
        assert main(["scenario", "run", "be-uniform-4x4", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out
        assert "PASS" in out

    def test_run_failure_scenario(self, capsys):
        assert main(["scenario", "run", "failure-malformed-config-2x2",
                     "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "NOT DETECTED" not in out

    def test_run_unknown_name_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "no-such-scenario"])
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "be-uniform-4x4" in err  # known names listed

    def test_matrix_unknown_name_fails_before_running(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "matrix", "--smoke",
                  "--names", "be-uniform-4x4,typo"])
        captured = capsys.readouterr()
        assert "unknown scenario(s): typo" in captured.err
        assert "be-uniform-4x4" not in captured.out  # nothing ran first

    def test_run_requires_name(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run"])

    def test_matrix_subset_checks_goldens(self, capsys):
        assert main(["scenario", "matrix", "--smoke",
                     "--names", "be-uniform-4x4,gs-cbr-4x4-uniform"]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios passed" in out
        assert "no golden" not in out

    def test_update_golden_requires_smoke_before_running(self, capsys):
        """Refused up front — not after minutes of full-duration runs."""
        assert main(["scenario", "matrix", "--update-golden"]) == 2
        assert "smoke" in capsys.readouterr().out

    def test_update_golden_subset_merges_not_replaces(self, monkeypatch,
                                                      capsys):
        import repro.__main__ as cli
        from repro.scenarios.golden import SMOKE_FINGERPRINTS
        written = {}
        monkeypatch.setattr(
            cli, "_write_golden",
            lambda module, fingerprints: written.update(fingerprints))
        assert main(["scenario", "matrix", "--smoke", "--update-golden",
                     "--names", "be-uniform-4x4"]) == 0
        # The one selected scenario was re-recorded...
        assert written["be-uniform-4x4"] == \
            SMOKE_FINGERPRINTS["be-uniform-4x4"]
        # ...and every other golden survived the rewrite.
        assert set(SMOKE_FINGERPRINTS) <= set(written)

    def test_run_backend_flag(self, capsys):
        assert main(["scenario", "run", "be-uniform-4x4", "--smoke",
                     "--backend", "tdm"]) == 0
        out = capsys.readouterr().out
        assert "backend tdm" in out
        assert "PASS" in out

    def test_run_section_41_violation_on_generic_vc(self, capsys):
        """The payoff verdict from the command line: the same saturation
        cell that passes on mango fails its latency bound on the
        Figure 3 router."""
        name = "gs-under-saturation-hotspot-8x8"
        assert main(["scenario", "run", name, "--smoke"]) == 0
        capsys.readouterr()
        assert main(["scenario", "run", name, "--smoke",
                     "--backend", "generic-vc"]) == 1
        out = capsys.readouterr().out
        assert "exceeds the contract bound" in out

    def test_run_failure_cell_on_foreign_backend_skips(self, capsys):
        assert main(["scenario", "run", "failure-orphan-flit-4x4",
                     "--smoke", "--backend", "generic-vc"]) == 2
        assert "SKIP" in capsys.readouterr().err

    def test_matrix_backend_skips_failure_cells(self, capsys):
        assert main(["scenario", "matrix", "--smoke", "--backend", "tdm",
                     "--names", "be-uniform-4x4,failure-orphan-flit-4x4"
                     ]) == 0
        out = capsys.readouterr().out
        assert "SKIP" in out
        assert "1/1 scenarios passed (1 skipped: backend tdm)" in out

    def test_matrix_backend_checks_backend_goldens(self, capsys):
        assert main(["scenario", "matrix", "--smoke",
                     "--backend", "generic-vc",
                     "--names", "be-uniform-4x4,gs-cbr-4x4-uniform"]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios passed" in out
        assert "no golden" not in out

    def test_update_golden_refuses_foreign_backends(self, capsys):
        assert main(["scenario", "matrix", "--smoke", "--update-golden",
                     "--backend", "tdm"]) == 2
        assert "mango" in capsys.readouterr().out

    def test_update_golden_refuses_failed_scenarios(self, monkeypatch,
                                                    capsys):
        import repro.__main__ as cli

        def doomed(self):
            result = real_run(self)
            result.be_sent += 1  # fake a lost packet
            return result

        from repro.scenarios import ScenarioRunner
        real_run = ScenarioRunner.run
        monkeypatch.setattr(ScenarioRunner, "run", doomed)
        monkeypatch.setattr(
            cli, "_write_golden",
            lambda *a: pytest.fail("must not record failing goldens"))
        assert main(["scenario", "matrix", "--smoke", "--update-golden",
                     "--names", "be-uniform-4x4"]) == 1
        assert "refusing" in capsys.readouterr().out


class TestMatrixExitCodes:
    """The full exit-code contract of ``scenario matrix``: 0 all-pass,
    1 any FAIL/ERROR cell, 2 usage errors, 3 nothing-ran — so a
    capability-gated CI job can never go silently green."""

    def test_pass_exits_zero(self, capsys):
        assert main(["scenario", "matrix", "--smoke",
                     "--names", "be-uniform-4x4"]) == 0
        assert "1/1 scenarios passed" in capsys.readouterr().out

    def test_all_skip_exits_three_with_warning(self, capsys):
        """The verified hole: every selected cell SKIPs and the matrix
        used to exit 0 — a fully-skipped run must be loud, and distinct
        from a verdict failure."""
        assert main(["scenario", "matrix", "--smoke", "--backend", "tdm",
                     "--names", "gs-churn-8x8"]) == 3
        captured = capsys.readouterr()
        assert "0/0 scenarios passed" in captured.out
        assert "nothing ran" in captured.err
        assert "all-SKIP" in captured.err

    def test_fail_cell_exits_one(self, monkeypatch, capsys):
        from repro.scenarios import ScenarioRunner
        real_run = ScenarioRunner.run

        def doomed(self):
            result = real_run(self)
            result.be_sent += 1  # fake a lost packet
            return result

        monkeypatch.setattr(ScenarioRunner, "run", doomed)
        assert main(["scenario", "matrix", "--smoke",
                     "--names", "be-uniform-4x4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL be-uniform-4x4" in out
        assert "lost" in out

    def test_error_cell_renders_row_and_keeps_partial_table(
            self, monkeypatch, capsys):
        """A crashing cell must not abort the matrix mid-loop: the
        other cells still run, the table still renders, the exit is
        non-zero."""
        from repro.scenarios import ScenarioRunner
        real_run = ScenarioRunner.run

        def crashy(self):
            if self.spec.name == "gs-cbr-4x4-uniform":
                raise RuntimeError("event heap drained unexpectedly")
            return real_run(self)

        monkeypatch.setattr(ScenarioRunner, "run", crashy)
        assert main(["scenario", "matrix", "--smoke", "--names",
                     "be-uniform-4x4,gs-cbr-4x4-uniform,"
                     "chained-route-17x1"]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out
        assert "heap drained" in out
        # The partial table survived: both healthy cells ran and PASSed.
        assert out.count("PASS") >= 2
        assert "2/3 scenarios passed" in out

    def test_error_cell_refuses_update_golden(self, monkeypatch, capsys):
        import repro.__main__ as cli
        from repro.scenarios import ScenarioRunner
        monkeypatch.setattr(
            ScenarioRunner, "run",
            lambda self, **kw: (_ for _ in ()).throw(
                RuntimeError("boom")))
        monkeypatch.setattr(
            cli, "_write_golden",
            lambda *a: pytest.fail("must not record goldens off errors"))
        assert main(["scenario", "matrix", "--smoke", "--update-golden",
                     "--names", "be-uniform-4x4"]) == 1
        assert "refusing" in capsys.readouterr().out


class TestFleetCli:
    def test_matrix_jobs_matches_serial_output(self, capsys):
        names = "be-uniform-4x4,gs-cbr-4x4-uniform"
        assert main(["scenario", "matrix", "--smoke",
                     "--names", names]) == 0
        serial_out = capsys.readouterr().out
        assert main(["scenario", "matrix", "--smoke", "--names", names,
                     "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "2/2 scenarios passed" in parallel_out

    def test_matrix_cache_dir_reports_cached_cells(self, tmp_path,
                                                   capsys):
        args = ["scenario", "matrix", "--smoke",
                "--names", "be-uniform-4x4",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "(1 cached:" in capsys.readouterr().out

    def test_jobs_refused_outside_matrix(self, capsys):
        assert main(["scenario", "run", "be-uniform-4x4", "--smoke",
                     "--jobs", "2"]) == 2
        assert "only applies to 'matrix'" in capsys.readouterr().err

    def test_cache_dir_refused_outside_matrix(self, tmp_path, capsys):
        assert main(["scenario", "list",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "only applies to 'matrix'" in capsys.readouterr().err

    def test_nonpositive_jobs_refused(self, capsys):
        assert main(["scenario", "matrix", "--smoke", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestBenchCli:
    def test_record_writes_schema_checked_file(self, tmp_path, capsys):
        assert main(["bench", "record", "--smoke",
                     "--names", "be-uniform-4x4,gs-cbr-4x4-uniform",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recorded 2 cells" in out and "2 passed" in out
        from repro.bench import load_bench
        files = list(tmp_path.glob("BENCH_*.json"))
        assert len(files) == 1
        payload = load_bench(str(files[0]))
        cell = payload["cells"]["be-uniform-4x4"]
        assert cell["verdict"] == "PASS"
        assert cell["events_per_s"] > 0

    def test_record_all_skip_exits_three(self, tmp_path, capsys):
        assert main(["bench", "record", "--smoke", "--backend", "tdm",
                     "--names", "gs-churn-8x8",
                     "--out", str(tmp_path)]) == 3
        assert "nothing ran" in capsys.readouterr().err

    def test_compare_same_file_passes(self, tmp_path, capsys):
        assert main(["bench", "record", "--smoke",
                     "--names", "be-uniform-4x4",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = str(next(tmp_path.glob("BENCH_*.json")))
        assert main(["bench", "compare", "--against", path,
                     "--current", path]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_flags_injected_regression(self, tmp_path, capsys):
        import json
        assert main(["bench", "record", "--smoke",
                     "--names", "be-uniform-4x4",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = next(tmp_path.glob("BENCH_*.json"))
        doctored = json.loads(path.read_text())
        doctored["cells"]["be-uniform-4x4"]["events_per_s"] *= 0.01
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(doctored))
        assert main(["bench", "compare", "--against", str(path),
                     "--current", str(slow)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "events/s" in out
        # A wide-open tolerance absorbs it again.
        assert main(["bench", "compare", "--against", str(path),
                     "--current", str(slow), "--tolerance", "0.999"]) == 0

    def test_compare_needs_against(self, capsys):
        assert main(["bench", "compare"]) == 2
        assert "--against" in capsys.readouterr().err

    def test_compare_rejects_bad_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["bench", "compare", "--against", str(bad)]) == 2
        assert "cannot load baseline" in capsys.readouterr().err
        assert main(["bench", "compare",
                     "--against", str(tmp_path / "missing.json")]) == 2

    def test_compare_rejects_bad_tolerance(self, tmp_path, capsys):
        bad = tmp_path / "irrelevant.json"
        bad.write_text("{}")
        assert main(["bench", "compare", "--against", str(bad),
                     "--tolerance", "1.5"]) == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_record_refuses_compare_flags(self, tmp_path, capsys):
        assert main(["bench", "record", "--against", "x.json"]) == 2
        assert "only applies to 'compare'" in capsys.readouterr().err
        assert main(["bench", "record", "--tolerance", "0.5"]) == 2
        assert main(["bench", "record", "--current", "x.json"]) == 2

    def test_compare_refuses_out(self, tmp_path, capsys):
        assert main(["bench", "compare", "--against", "x.json",
                     "--out", str(tmp_path)]) == 2
        assert "only applies to 'record'" in capsys.readouterr().err

    def test_record_unknown_names_fail_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "record", "--names", "typo",
                  "--out", str(tmp_path)])
        assert "unknown scenario" in capsys.readouterr().err


class TestAllocatorFlag:
    def test_run_with_adaptive_allocator(self, capsys):
        assert main(["scenario", "run", "gs-churn-8x8", "--smoke",
                     "--allocator", "min-adaptive"]) == 0
        out = capsys.readouterr().out
        assert "allocator" in out and "min-adaptive" in out
        assert "churn open/rejected/closed" in out
        assert "PASS" in out

    def test_matrix_with_adaptive_allocator_skips_goldens(self, capsys):
        assert main(["scenario", "matrix", "--smoke",
                     "--allocator", "min-adaptive",
                     "--names", "gs-cbr-4x4-uniform"]) == 0
        out = capsys.readouterr().out
        assert "no golden" in out
        assert "1/1 scenarios passed" in out

    def test_update_golden_refuses_non_default_allocator(self, capsys):
        assert main(["scenario", "matrix", "--smoke", "--update-golden",
                     "--allocator", "ripup"]) == 2
        assert "xy-allocator goldens" in capsys.readouterr().out

    def test_allocator_refused_on_foreign_backend(self, capsys):
        assert main(["scenario", "run", "be-uniform-4x4", "--smoke",
                     "--backend", "tdm",
                     "--allocator", "min-adaptive"]) == 2
        err = capsys.readouterr().err
        assert "SKIP" in err and "admission" in err

    def test_matrix_refuses_allocator_on_foreign_backend(self, capsys):
        """A combination no cell can honor must fail fast, not SKIP
        every cell and exit green."""
        assert main(["scenario", "matrix", "--smoke",
                     "--backend", "tdm",
                     "--allocator", "min-adaptive"]) == 2
        err = capsys.readouterr().err
        assert "cannot apply to any cell" in err


class TestAllocCli:
    def test_demand_set_listing(self, capsys):
        assert main(["alloc", "demand-set"]) == 0
        out = capsys.readouterr().out
        assert "column-saturated-8x8" in out
        assert "greedy-trap-3x3" in out

    def test_demand_set_prints_json(self, capsys):
        import json
        assert main(["alloc", "demand-set", "column-saturated-8x8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "column-saturated-8x8"
        assert len(data["demands"]) == 16

    def test_demand_set_unknown_name_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["alloc", "demand-set", "no-such-set"])
        assert "unknown demand set" in capsys.readouterr().err

    def test_demand_set_round_trips_a_file(self, tmp_path, capsys):
        """--demands must load the user's file, not fall back to the
        named-set listing."""
        import json
        from repro.alloc import get_demand_set
        path = tmp_path / "mine.json"
        path.write_text(get_demand_set("greedy-trap-3x3").to_json())
        assert main(["alloc", "demand-set", "--demands", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "greedy-trap-3x3"

    def test_demand_set_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "demands.json"
        assert main(["alloc", "demand-set", "greedy-trap-3x3",
                     "--out", str(out_path)]) == 0
        from repro.alloc import DemandSet
        dset = DemandSet.from_json(out_path.read_text())
        assert dset.name == "greedy-trap-3x3"

    def test_name_and_demands_conflict_refused(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        path.write_text("{}")
        assert main(["alloc", "report", "column-saturated-8x8",
                     "--demands", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_demand_set_out_without_name_refused(self, tmp_path, capsys):
        """--out must never silently write an unnamed default set."""
        out_path = tmp_path / "demands.json"
        assert main(["alloc", "demand-set", "--out", str(out_path)]) == 2
        assert "needs a demand set" in capsys.readouterr().err
        assert not out_path.exists()

    def test_report_compares_all_strategies(self, capsys):
        assert main(["alloc", "report", "column-saturated-8x8"]) == 0
        out = capsys.readouterr().out
        assert "xy" in out and "min-adaptive" in out and "ripup" in out
        assert "acceptance" in out

    def test_report_require_improvement_passes_on_adversarial_set(
            self, capsys):
        assert main(["alloc", "report", "column-saturated-8x8",
                     "--require-improvement"]) == 0
        assert "every adaptive strategy beats xy" \
            in capsys.readouterr().out

    def test_report_from_demand_file(self, tmp_path, capsys):
        from repro.alloc import get_demand_set
        path = tmp_path / "set.json"
        path.write_text(get_demand_set("greedy-trap-3x3").to_json())
        assert main(["alloc", "report", "--demands", str(path),
                     "--allocator", "ripup"]) == 0
        out = capsys.readouterr().out
        assert "ripup" in out and "greedy-trap-3x3" in out

    def test_report_single_strategy(self, capsys):
        assert main(["alloc", "report", "greedy-trap-3x3",
                     "--allocator", "xy"]) == 0
        out = capsys.readouterr().out
        assert "xy" in out and "min-adaptive" not in out


class TestAllocFlagScoping:
    def test_report_refuses_out(self, capsys):
        assert main(["alloc", "report", "greedy-trap-3x3",
                     "--out", "nope.json"]) == 2
        assert "only applies to 'demand-set'" in capsys.readouterr().err

    def test_demand_set_refuses_require_improvement(self, capsys):
        assert main(["alloc", "demand-set", "greedy-trap-3x3",
                     "--require-improvement"]) == 2
        assert "only applies to 'report'" in capsys.readouterr().err

    def test_demands_file_errors_fail_cleanly(self, tmp_path, capsys):
        """Missing, non-JSON and JSON-but-not-a-demand-set files all
        exit 2 with a message, never a traceback."""
        cases = [str(tmp_path / "missing.json")]
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        cases.append(str(bad_json))
        not_a_set = tmp_path / "notaset.json"
        not_a_set.write_text("{}")
        cases.append(str(not_a_set))
        for path in cases:
            with pytest.raises(SystemExit) as excinfo:
                main(["alloc", "report", "--demands", path])
            assert excinfo.value.code == 2, path
            assert "cannot load demand set" in capsys.readouterr().err

    def test_demand_set_refuses_allocator(self, capsys):
        assert main(["alloc", "demand-set", "greedy-trap-3x3",
                     "--allocator", "ripup"]) == 2
        assert "only applies to 'report'" in capsys.readouterr().err


class TestTopologyCli:
    """Fabric cells and the --topology override (docs/topologies.md)."""

    def test_list_shows_fabric_cells(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "8x8 ring" in out
        assert "4x4 routerless" in out

    def test_fabric_cell_resolves_its_own_backend(self, capsys):
        assert main(["scenario", "run", "ring-uni-cbr-4x4",
                     "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "backend ring" in out  # the title names the resolved backend
        assert "topology" in out and "ring-uni" in out
        assert "PASS" in out

    def test_topology_override_reruns_a_mesh_cell(self, capsys):
        assert main(["scenario", "run", "be-uniform-4x4", "--smoke",
                     "--topology", "routerless"]) == 0
        out = capsys.readouterr().out
        assert "backend routerless" in out
        assert "topology" in out

    def test_fabric_cell_on_mesh_backend_skips(self, capsys):
        assert main(["scenario", "run", "ring-cbr-8x8", "--smoke",
                     "--backend", "mango"]) == 2
        assert "topology" in capsys.readouterr().err

    def test_matrix_explicit_backend_skips_foreign_topologies(self, capsys):
        assert main(["scenario", "matrix", "--smoke", "--backend", "mango",
                     "--names", "be-uniform-4x4,ring-cbr-8x8"]) == 0
        out = capsys.readouterr().out
        assert "1/1 scenarios passed (1 skipped: backend mango)" in out

    def test_matrix_fabric_subset_checks_goldens(self, capsys):
        assert main(["scenario", "matrix", "--smoke", "--names",
                     "ring-uni-cbr-4x4,routerless-hotspot-4x4"]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios passed" in out
        assert "no golden" not in out

    def test_update_golden_refuses_topology_override(self, capsys):
        assert main(["scenario", "matrix", "--smoke", "--update-golden",
                     "--topology", "ring"]) == 2
        assert "topology" in capsys.readouterr().out

    def test_matrix_topology_override_drops_goldens(self, capsys):
        assert main(["scenario", "matrix", "--smoke",
                     "--topology", "ring",
                     "--names", "be-uniform-4x4"]) == 0
        out = capsys.readouterr().out
        assert "no golden" in out
        assert "1/1 scenarios passed" in out


class TestSynthCli:
    def test_run_greedy_trap_mesh_family(self, capsys):
        assert main(["synth", "run", "--demand-set", "greedy-trap-3x3",
                     "--families", "mesh", "--budget", "16"]) == 0
        out = capsys.readouterr().out
        assert "synth run: greedy-trap-3x3 via ripup" in out
        assert "winner: mesh-3x3-v1-w16-s1" in out

    def test_run_payoff_gate_passes_on_the_column_set(self, capsys):
        assert main(["synth", "run",
                     "--demand-set", "column-saturated-8x8",
                     "--allocator", "ripup",
                     "--require-cheaper-than-xy"]) == 0
        out = capsys.readouterr().out
        assert "OK: ripup winner" in out
        assert "strictly cheaper than xy winner" in out

    def test_frontier_writes_a_round_trippable_report(self, capsys,
                                                      tmp_path):
        out_path = tmp_path / "frontier.json"
        assert main(["synth", "frontier",
                     "--demand-set", "column-saturated-8x8",
                     "--points", "2", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "synth frontier: column-saturated-8x8" in out
        from repro.synth import SynthesisReport
        report = SynthesisReport.from_json(out_path.read_text())
        assert len(report.points) == 2
        assert report.points[-1]["feasible"]

    def test_run_accepts_a_demand_file(self, capsys, tmp_path):
        from repro.alloc import get_demand_set
        path = tmp_path / "set.json"
        path.write_text(get_demand_set("greedy-trap-3x3").to_json())
        assert main(["synth", "run", "--demands", str(path),
                     "--families", "mesh", "--budget", "16"]) == 0
        assert "winner:" in capsys.readouterr().out

    def test_infeasible_search_exits_one(self, capsys, tmp_path):
        from repro.alloc.demand import Demand, DemandSet
        path = tmp_path / "hard.json"
        hard = DemandSet(
            name="over-subscribed", cols=2, rows=1,
            demands=(Demand((0, 0), (1, 0)),) * 9)
        path.write_text(hard.to_json())
        assert main(["synth", "run", "--demands", str(path),
                     "--families", "mesh", "--budget", "8"]) == 1
        assert "FAIL: no feasible configuration" in \
            capsys.readouterr().out

    def test_unknown_demand_set_exits_two(self, capsys):
        assert main(["synth", "run", "--demand-set", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_unknown_family_exits_two(self, capsys):
        assert main(["synth", "run", "--families", "torus"]) == 2
        assert "unknown topology families" in capsys.readouterr().err


class TestSynthFlagScoping:
    def test_points_refused_for_run(self, capsys):
        assert main(["synth", "run", "--points", "3"]) == 2
        assert "--points only applies" in capsys.readouterr().err

    def test_payoff_gate_refused_for_frontier(self, capsys):
        assert main(["synth", "frontier",
                     "--require-cheaper-than-xy"]) == 2
        assert "only applies to 'run'" in capsys.readouterr().err

    def test_payoff_gate_refused_under_xy(self, capsys):
        assert main(["synth", "run", "--allocator", "xy",
                     "--require-cheaper-than-xy"]) == 2
        assert "compares against xy" in capsys.readouterr().err

    def test_named_set_and_file_are_mutually_exclusive(self, capsys):
        assert main(["synth", "run", "--demand-set", "greedy-trap-3x3",
                     "--demands", "x.json"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_nonpositive_budget_exits_two(self, capsys):
        assert main(["synth", "run", "--budget", "0"]) == 2
        assert "budget" in capsys.readouterr().err


class TestObservabilityCli:
    def test_scenario_run_metrics(self, capsys):
        assert main(["scenario", "run", "be-uniform-4x4", "--smoke",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "Top metrics counters" in out

    def test_scenario_metrics_refused_for_list(self, capsys):
        assert main(["scenario", "list", "--metrics"]) == 2
        assert "--metrics" in capsys.readouterr().err

    def test_sample_ns_needs_metrics(self, capsys):
        assert main(["scenario", "run", "be-uniform-4x4", "--smoke",
                     "--metrics-sample-ns", "100"]) == 2
        assert "--metrics" in capsys.readouterr().err

    def test_trace_run_text_timeline(self, capsys):
        assert main(["trace", "run", "be-uniform-4x4"]) == 0
        out = capsys.readouterr().out
        assert "record(s) retained" in out
        assert "fingerprint" in out

    def test_trace_run_export_then_validate(self, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        assert main(["trace", "run", "ring-cbr-8x8",
                     "--out", out_path]) == 0
        capsys.readouterr()
        assert main(["trace", "validate", out_path]) == 0
        assert "loadable Chrome trace" in capsys.readouterr().out

    def test_trace_validate_flags_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        assert main(["trace", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_trace_filter_narrows(self, capsys):
        assert main(["trace", "run", "be-uniform-4x4",
                     "--filter", "kind=hop"]) == 0
        out = capsys.readouterr().out
        assert "hop=" in out
        assert "grant=" not in out

    def test_trace_bad_filter_exits_two(self, capsys):
        assert main(["trace", "run", "be-uniform-4x4",
                     "--filter", "bogus"]) == 2
        assert "bad filter" in capsys.readouterr().err

    def test_trace_unknown_scenario_exits_two(self, capsys):
        assert main(["trace", "run", "nonsense"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_prints_hot_sites(self, capsys):
        assert main(["profile", "be-uniform-4x4", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Top 3 functions by self time" in out
        assert "cum s" in out
        assert re.search(r"kernel\.py:\d+\(_drain\)\s+sim", out)
        # Calls per flit hop split by layer, with a total row.
        assert "calls/hop" in out
        assert re.search(r"^\s*core\s+\d+\s+\d+\.\d\d\s", out, re.M)
        assert re.search(r"^\s*total\s+\d+\s+\d+\.\d\d\s+100\.0%",
                         out, re.M)

    def test_profile_routerless_fabric_has_no_core_row(self, capsys):
        assert main(["profile", "routerless-cbr-8x8", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^\s*backends\s+\d+", out, re.M)
        assert not re.search(r"^\s*core\s+\d+", out, re.M)

    @pytest.mark.parametrize("cell,backend", [
        ("be-uniform-4x4", "ring"), ("ring-cbr-8x8", "mango")])
    def test_profile_unbuildable_backend_skips(self, capsys, cell, backend):
        assert main(["profile", cell, "--backend", backend]) == 2
        assert capsys.readouterr().err.startswith("SKIP: ")

    def test_trace_unbuildable_backend_skips(self, capsys):
        assert main(["trace", "run", "be-uniform-4x4",
                     "--backend", "ring"]) == 2
        assert capsys.readouterr().err.startswith("SKIP: ")

    def test_profile_bad_top_exits_two(self, capsys):
        assert main(["profile", "be-uniform-4x4", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err


class TestBenchReportCli:
    def test_report_needs_files(self, capsys):
        assert main(["bench", "report"]) == 2
        assert "BENCH_*.json" in capsys.readouterr().err

    def test_record_refuses_positional_files(self, capsys):
        assert main(["bench", "record", "x.json"]) == 2
        assert "report" in capsys.readouterr().err

    def test_report_round_trip(self, tmp_path, capsys):
        assert main(["bench", "record", "--smoke",
                     "--names", "be-uniform-4x4",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        recorded = sorted(tmp_path.glob("BENCH_*.json"))
        out_md = tmp_path / "report.md"
        assert main(["bench", "report", str(recorded[0]),
                     "--out", str(out_md)]) == 0
        text = out_md.read_text()
        assert text.startswith("# Bench trajectory")
        assert "be-uniform-4x4" in text
