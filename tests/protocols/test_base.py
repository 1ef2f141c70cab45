"""Tests for the shared protocol plumbing."""

import ast
import pathlib
import random

import pytest

import repro.protocols
from repro.protocols.base import Protocol, resolve_d_hat, run_protocol
from repro.protocols.spanning_tree import SpanningTree
from repro.protocols.wildfire import Wildfire
from repro.queries.query import AggregateQuery
from repro.simulation.host import ProtocolHost, RunRecord
from repro.sketches.combiners import ExactCountCombiner, MaxCombiner
from repro.topology.primitives import chain_topology, star_topology
from repro.workloads.values import constant_values


class TestResolveDHat:
    def test_explicit_value_passes_through(self):
        topo = chain_topology(5)
        assert resolve_d_hat(topo, 12) == 12

    def test_explicit_value_validated(self):
        topo = chain_topology(5)
        with pytest.raises(ValueError):
            resolve_d_hat(topo, 0)

    def test_estimate_overestimates_diameter(self):
        topo = chain_topology(9)  # diameter 8
        assert resolve_d_hat(topo, None) >= 8

    def test_minimum_of_one(self):
        topo = chain_topology(1)
        assert resolve_d_hat(topo, None) >= 1


class TestRunProtocol:
    def test_accepts_query_string_or_object(self):
        topo = star_topology(5)
        values = constant_values(6, 2)
        by_string = run_protocol(Wildfire(), topo, values, "max", seed=1)
        by_object = run_protocol(Wildfire(), topo, values, AggregateQuery.of("max"),
                                 seed=1)
        assert by_string.value == by_object.value == 2.0

    def test_validates_inputs(self):
        topo = star_topology(4)
        with pytest.raises(ValueError):
            run_protocol(Wildfire(), topo, [1, 2], "max")
        with pytest.raises(ValueError):
            run_protocol(Wildfire(), topo, [1] * 5, "max", querying_host=99)

    def test_duplicate_sensitive_combiner_rejected_for_wildfire(self):
        topo = star_topology(4)
        values = constant_values(5, 1)
        with pytest.raises(ValueError):
            run_protocol(Wildfire(), topo, values, "count",
                         combiner=ExactCountCombiner())

    def test_exact_combiner_allowed_for_spanning_tree(self):
        topo = star_topology(4)
        values = constant_values(5, 1)
        result = run_protocol(SpanningTree(), topo, values, "count",
                              combiner=ExactCountCombiner())
        assert result.value == 5.0

    def test_result_metadata(self):
        topo = chain_topology(6)
        values = constant_values(6, 3)
        result = run_protocol(Wildfire(), topo, values, "max", d_hat=7, seed=2)
        assert result.protocol == "wildfire"
        assert result.d_hat == 7
        assert result.termination_time == 14.0
        assert result.querying_host == 0
        assert result.costs.communication_cost > 0

    def test_default_combiner_choice(self):
        from repro.sketches.combiners import (
            ExactCountCombiner as Exact,
            FMCountCombiner,
            MaxCombiner,
        )

        wildfire = Wildfire()
        tree = SpanningTree()
        assert isinstance(wildfire.default_combiner(AggregateQuery.of("count")),
                          FMCountCombiner)
        assert isinstance(tree.default_combiner(AggregateQuery.of("count")), Exact)
        assert isinstance(tree.default_combiner(AggregateQuery.of("max")), MaxCombiner)


class TestProtocolDefaults:
    def test_a_protocol_naming_only_its_host_class_runs(self):
        """``create_hosts`` and ``termination_time`` are the paper's
        defaults: one host per topology host in the shared constructor
        shape ``(host_id, value, run)``, every host holding the one
        :class:`RunRecord` of the run, declaring at
        ``2 * D_hat * delta``."""
        class Loner(ProtocolHost):
            __slots__ = ()

            def on_query_start(self, ctx):
                pass

            def on_message(self, message, ctx):
                pass

            def local_result(self):
                return self.value

        class Lonely(Protocol):
            host_class = Loner

        topo = chain_topology(4)
        combiner, rng = MaxCombiner(), random.Random(0)
        hosts = Lonely().create_hosts(topo, [5, 6, 7, 8], 2,
                                      AggregateQuery.of("max"), combiner,
                                      7, 0.5, rng)
        assert [(h.host_id, h.value) for h in hosts] == [
            (0, 5), (1, 6), (2, 7), (3, 8)]
        run = hosts[0].run
        assert type(run) is RunRecord
        assert all(h.run is run for h in hosts)
        assert (run.querying_host, run.query.kind.value, run.combiner,
                run.d_hat, run.delta, run.rng, run.global_deadline) == (
            2, "max", combiner, 7, 0.5, rng, 7.0)
        assert Lonely().termination_time(7, 0.5) == 7.0
        run = run_protocol(Lonely(), topo, [5, 6, 7, 8], "max",
                           querying_host=2, d_hat=7, delta=0.5)
        assert (run.value, run.termination_time) == (7, 7.0)


class TestEachProtocolFactStatedOnce:
    """Kernels call the spec and ``Protocol`` builds the hosts: none of
    the transcribed bodies may come back."""

    @staticmethod
    def _modules():
        root = pathlib.Path(repro.protocols.__file__).parent
        return {path.name: ast.parse(path.read_text())
                for path in sorted(root.glob("*.py"))}

    def test_batch_kernels_hold_no_deadline_or_activation_body(self):
        kernels = [node for tree in self._modules().values()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and node.name.endswith("BatchKernel")]
        assert sorted(k.name for k in kernels) == [
            "ConvergecastBatchKernel", "WildfireBatchKernel"]
        for kernel in kernels:
            for node in ast.walk(kernel):
                # The report and participation deadlines are d_hat
                # arithmetic; a host's contribution is combiner.initial.
                assert not (isinstance(node, ast.Attribute)
                            and node.attr == "d_hat"), kernel.name
                assert not (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "initial"), kernel.name

    def test_one_body_per_definition(self):
        defined = {}
        for name, tree in self._modules().items():
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    defined.setdefault(node.name, set()).add(name)
                if isinstance(node, ast.ClassDef) and node.name == "WildfireHost":
                    methods = {item.name for item in node.body
                               if isinstance(item, ast.FunctionDef)}
                    assert "_fold" not in methods
                    assert "first_contact" in methods
        assert defined["termination_time"] == {"base.py", "gossip.py"}
        assert defined["create_hosts"] == {"base.py"}
        for transition in ("first_contact", "adopt", "take_report",
                           "report_due"):
            assert len(defined[transition]) == 1, transition
