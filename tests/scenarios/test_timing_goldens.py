"""Timing goldens: exact latencies of three mango smoke cells.

The flit-hop fingerprint hashes link counts and sink count/payload sums,
so a reordering that moves *when* flits arrive but not *where* they go
passes every fingerprint.  These cells pin the BE latency mean/p50/p99
and each GS verdict's worst observed latency as float ``repr`` strings:
any change to the order in which router stages run shows up here.
"""

import pytest

from repro.scenarios import ScenarioRunner, get

#: scenario -> (latency_mean_ns, latency_p50_ns, latency_p99_ns,
#: {GS label: observed_max_latency_ns}), recorded at smoke on mango.
TIMING_GOLDENS = {
    "gs-under-saturation-8x8": (
        "32.844958609271494", "29.54580427405919", "91.90031746822513",
        {"(0, 0)->(7, 7)": "27.142500000000013",
         "(7, 0)->(0, 7)": "28.08750000000001"}),
    "corner-streams-8x8": (
        "19.71861165048543", "18.925102390588258", "38.32706623265901",
        {"(0, 0)->(7, 7)": "99.90500000000003",
         "(7, 0)->(0, 7)": "79.10700000000004",
         "(0, 7)->(7, 0)": "88.4025",
         "(7, 7)->(0, 0)": "81.47500000000002"}),
    "chained-route-17x1": (
        "16.792533333333303", "11.891707057823137", "26.474438855190222",
        {"(0, 0)->(16, 0)": "83.62200000000001"}),
}


@pytest.mark.parametrize("name", sorted(TIMING_GOLDENS))
def test_smoke_latencies_match_golden(name):
    mean, p50, p99, gs_max = TIMING_GOLDENS[name]
    result = ScenarioRunner(get(name).smoke(), backend="mango").run()
    assert (repr(result.latency_mean_ns), repr(result.latency_p50_ns),
            repr(result.latency_p99_ns)) == (mean, p50, p99)
    assert {verdict.label: repr(verdict.observed_max_latency_ns)
            for verdict in result.gs} == gs_max
