"""A protocol host holds only its own state.

Everything that is the same for every host of a run lives once, on the
run record ``Protocol.create_hosts`` builds and every host reaches as
``host.run``; a host's slots hold per-host state.  One state machine
exists per network host, so a per-run constant copied into every host
is real memory at scale -- these tests keep it from coming back.
"""

import gc
import importlib
import tracemalloc

import pytest

from repro.protocols.base import PROTOCOL_SPECS, prepare_protocol_run, protocol_from_spec
from repro.simulation.host import ProtocolHost, RunRecord
from repro.topology.random_graph import random_topology

PROTOCOL_MODULES = ("allreport", "dag", "gossip", "randomized_report",
                    "spanning_tree", "wildfire")

#: Bytes a host table adds per host, measured on CPython 3.11 (WILDFIRE
#: 174.5, DAG-2 142.4; 3.10 and 3.12 read the same to within 4 B) plus
#: 10 %.  When the per-run constants lived in every host these read 299
#: and 243.
BYTES_PER_HOST_BOUND = {"wildfire": 192, "dag2": 157}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _in_tree(cls):
    for name in PROTOCOL_MODULES:
        importlib.import_module(f"repro.protocols.{name}")
    return {sub for sub in _subclasses(cls)
            if sub.__module__.startswith("repro.")}


def test_no_host_class_declares_a_per_run_slot():
    hosts = _in_tree(ProtocolHost)
    assert {"WildfireHost", "DagHost", "SpanningTreeHost", "AllReportHost",
            "RandomizedReportHost", "PushSumHost"} <= {
        cls.__name__ for cls in hosts}
    # Every field of every run record, and the combiner's sketch shape.
    per_run = {field for record in _in_tree(RunRecord) | {RunRecord}
               for field in record.__slots__} | {"reps", "nbits"}
    for cls in hosts:
        slots = [name for klass in cls.__mro__
                 for name in vars(klass).get("__slots__", ())]
        assert "__dict__" not in slots, cls.__name__
        assert not {name.lstrip("_") for name in slots} & per_run, (
            cls.__name__)


@pytest.mark.parametrize("spec", [
    name.replace("dagK", "dag3") for name in PROTOCOL_SPECS])
def test_every_host_of_a_run_shares_one_run_record(spec):
    protocol = protocol_from_spec(spec)
    topology = random_topology(30, avg_degree=4, seed=2)
    prepared = prepare_protocol_run(protocol, topology, [1.0] * 30, "count",
                                    querying_host=4, d_hat=6, delta=0.5,
                                    seed=2)
    run = prepared.hosts[0].run
    assert type(run) is protocol.host_class.run_class
    assert all(host.run is run for host in prepared.hosts)
    assert (run.querying_host, run.query, run.combiner, run.d_hat,
            run.delta, run.rng, run.global_deadline) == (
        4, prepared.query, prepared.combiner, 6, 0.5, prepared.rng, 6.0)


@pytest.mark.parametrize("spec", sorted(BYTES_PER_HOST_BOUND))
def test_a_host_table_stays_under_its_bytes_per_host_bound(spec):
    """A 2 000-host table built through ``prepare_protocol_run``: the
    host objects, their ids, the table list and the run's shared
    objects, all counted by ``tracemalloc``."""
    num_hosts = 2000
    protocol = protocol_from_spec(spec)
    topology = random_topology(num_hosts, avg_degree=4, seed=1)
    values = [1.0] * num_hosts

    def build():
        return prepare_protocol_run(protocol, topology, values, "count",
                                    d_hat=10, seed=0)

    build()  # first-call caches are not the table's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prepared = build()
        added = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(prepared.hosts) == num_hosts
    assert added / num_hosts <= BYTES_PER_HOST_BOUND[spec]
