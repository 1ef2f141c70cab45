"""The sharded service drive: id-partitioned workers, merged digest.

``run_query_mix(shards=K)`` partitions the query mix by id across K
worker processes; because sessions are private and churn is a fixed
schedule, every per-query row must come back bit-identical, and the
parent recomputes the determinism digest with the single-process
algorithm.  Digest equality across shard counts is therefore the
end-to-end lock that sharding changed nothing a tenant can observe.
"""

import pytest

from repro.experiments.query_mix import run_query_mix

BASE = dict(num_hosts=200, topology="random", qps=1.5, duration=10.0,
            seed=5, departures=6)


@pytest.fixture(scope="module")
def single_process_result():
    return run_query_mix(**BASE)


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_mix_matches_single_process(single_process_result, shards):
    sharded = run_query_mix(**BASE, shards=shards)
    assert (sharded["summary"]["determinism_digest"]
            == single_process_result["summary"]["determinism_digest"])
    assert sharded["rows"] == single_process_result["rows"]
    assert sharded["summary"]["shards"] == shards
    # The rows name the path, and it is the tick lane in every worker.
    assert {row["lane_used"] for row in sharded["rows"]
            if row["status"] == "done"} == {"vector"}
    # Service-level tallies that must merge exactly (events_processed
    # legitimately differs: each shard's engine replays the shared
    # churn schedule on its private network copy).
    for key in ("queries", "answered", "failed", "messages_sent",
                "late_messages", "dropped_messages", "finished_at",
                "retired", "retired_order", "late_by_query"):
        assert (sharded["summary"][key]
                == single_process_result["summary"][key]), key
    assert (sharded["summary"]["events_processed"]
            >= single_process_result["summary"]["events_processed"])


def test_sharded_mix_rejects_unshippable_arguments():
    with pytest.raises(ValueError, match="progress"):
        run_query_mix(**BASE, shards=2, progress=lambda snap: None)
    with pytest.raises(ValueError, match="metrics stream"):
        run_query_mix(**BASE, shards=2, metrics_stream=object())
    with pytest.raises(ValueError, match="at least 1"):
        run_query_mix(**BASE, shards=0)


def test_a_passed_mix_is_the_one_statement_of_rate_and_window():
    """``mix=`` names qps and duration; the summary and the churn window
    read it, not the ``qps=`` / ``duration=`` argument defaults (2.0 /
    60.0, which spread the failures out to t = 57 of a 6 s mix)."""
    from repro.workloads.query_mix import QueryMixConfig

    summary = run_query_mix(
        num_hosts=60, mix=QueryMixConfig(qps=4, duration=6), seed=1,
        departures=10)["summary"]
    assert (summary["qps"], summary["duration"]) == (4.0, 6.0)
    assert summary["finished_at"] < 57.0


def test_submit_with_pinned_query_id():
    from repro.service import QueryService
    from repro.topology.random_graph import random_topology

    topology = random_topology(30, avg_degree=3.0, seed=3)
    values = [1.0] * topology.num_hosts
    service = QueryService(topology, values, seed=9)
    assert service.submit("wildfire", "count", query_id=4) == 4
    # Auto-assignment continues above any pinned id.
    assert service.submit("wildfire", "count") == 5
    with pytest.raises(ValueError, match="already in use"):
        service.submit("wildfire", "count", query_id=4)
    with pytest.raises(ValueError, match="start at 1"):
        service.submit("wildfire", "count", query_id=0)
    # Session seeds are content-derived, not id-derived: a worker that
    # submits query 4 under a pinned id gets the exact seed the
    # single-process run derived (the property the shard workers rely
    # on), and identical submissions agree regardless of their ids.
    assert service._sessions[4].seed == service._sessions[5].seed
    from repro.service.sharing import consensus_seed

    session = service._sessions[4]
    assert session.seed == consensus_seed(
        9, session.protocol, session.query, 0,
        session.protocol.default_combiner(session.query, repetitions=8),
        service.d_hat)


def test_serve_cli_threads_shards(capsys):
    from repro.orchestration.cli import main

    args = ["serve", "--hosts", "100", "--topology", "random",
            "--qps", "1", "--duration", "6", "--rows", "0"]

    def digest(output):
        import re

        match = re.search(r"\b[0-9a-f]{64}\b", output)
        assert match, output
        return match.group(0)

    assert main(args) == 0
    single = digest(capsys.readouterr().out)
    assert main(args + ["--shards", "2"]) == 0
    sharded = digest(capsys.readouterr().out)
    assert sharded == single
    assert main(args + ["--shards", "0"]) == 2
    assert "--shards" in capsys.readouterr().err


def test_bench_cli_validates_shards(capsys):
    from repro.orchestration.cli import main

    assert main(["bench", "--hosts", "64", "--topology", "random",
                 "--shards", "2"]) == 2
    assert "--lane sharded" in capsys.readouterr().err
    assert main(["bench", "--hosts", "64", "--topology", "random",
                 "--lane", "sharded", "--shards", "0"]) == 2
    assert "--shards" in capsys.readouterr().err


def test_bench_cli_runs_the_sharded_lane(capsys):
    from repro.orchestration.cli import main

    assert main(["bench", "--hosts", "300", "--topology", "random",
                 "--lane", "sharded", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "sharded lane x2" in out
