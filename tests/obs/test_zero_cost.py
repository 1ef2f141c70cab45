"""The zero-cost-when-disabled contract, asserted two ways.

Telemetry is compiled into every engine seam, so the hard promise the
subsystem makes is that *disabled* telemetry is indistinguishable from
telemetry never having been built:

* a seeded 1k-host run with tracing disabled performs **zero**
  allocations inside the obs modules (tracemalloc, filtered to the
  ``repro/obs`` tree -- the one ``if tracer is not None`` pointer check
  per event allocates nothing);
* golden protocol-matrix cells replay byte-identical with a live
  ``RingTracer`` passed in, because tracers observe without touching
  RNG streams, event ordering, or accounting.
"""

import json
import tracemalloc

import pytest

from repro.obs.trace import RingTracer
from repro.protocols.base import run_protocol
from repro.protocols.wildfire import Wildfire
from repro.sketches.fm import sampling_mode
from repro.topology.gnutella import gnutella_like_topology
from repro.workloads.values import uniform_values

from tests.golden import regen_snapshots as regen
from tests.golden.test_seeded_equivalence import (
    assert_bit_identical,
    load_snapshot,
)


def test_disabled_telemetry_allocates_nothing_in_obs(tmp_path):
    """Seeded 1k-host run, tracing disabled: no per-message allocations
    attributable to the obs package."""
    topology = gnutella_like_topology(1000, seed=5)
    values = uniform_values(topology.num_hosts, low=1, high=9, seed=5)
    # Warm-up run outside the tracemalloc window pays one-time costs
    # (imports, code objects, caches) so the measured window sees only
    # steady-state per-run allocations.
    run_protocol(Wildfire(), topology, values, "count", seed=5)

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    result = run_protocol(Wildfire(), topology, values, "count", seed=5)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    assert result.costs.messages_sent > 10_000    # the run was real

    obs_filter = tracemalloc.Filter(True, "*repro/obs/*")
    obs_diff = [
        stat for stat in
        after.filter_traces([obs_filter]).compare_to(
            before.filter_traces([obs_filter]), "lineno")
        if stat.size_diff > 0 or stat.count_diff > 0
    ]
    assert obs_diff == [], (
        "disabled telemetry allocated inside repro/obs: "
        + "; ".join(str(stat) for stat in obs_diff))


@pytest.mark.parametrize("case_index", [0, 17, 35])
def test_golden_cells_byte_identical_with_tracer_bound(case_index):
    """Replaying golden matrix cells with a live RingTracer must
    reproduce the committed snapshots byte for byte."""
    stored = load_snapshot("protocol_matrix", "fast")
    case = regen.matrix_cases()[case_index]
    tracer = RingTracer()
    with sampling_mode("fast"):
        live = regen.canonical(regen.run_matrix_case(case, tracer=tracer))
    assert_bit_identical(
        stored[case_index], live,
        f"matrix cell {case} replayed with a bound RingTracer")
    # The tracer really was live for the run.
    assert tracer.counts.get("send", 0) > 0
    assert tracer.counts["send"] == stored[case_index]["costs"][
        "messages_sent"]


def test_golden_cell_json_bytes_match_disabled_run():
    """Strongest form: the serialised JSON bytes of a traced replay equal
    those of a replay with telemetry disabled."""
    case = regen.matrix_cases()[4]
    with sampling_mode("fast"):
        disabled = regen.canonical(regen.run_matrix_case(case))
        traced = regen.canonical(regen.run_matrix_case(
            case, tracer=RingTracer()))
    assert json.dumps(traced, sort_keys=True).encode() == \
        json.dumps(disabled, sort_keys=True).encode()
