"""Tests for the aggregate query model."""

import copy
import pickle

import pytest

from repro.queries.query import AggregateQuery, QueryKind


class TestQueryKind:
    def test_parse_aliases(self):
        assert QueryKind.parse("minimum") is QueryKind.MIN
        assert QueryKind.parse("Max") is QueryKind.MAX
        assert QueryKind.parse(" count ") is QueryKind.COUNT
        assert QueryKind.parse("total") is QueryKind.SUM
        assert QueryKind.parse("mean") is QueryKind.AVG

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            QueryKind.parse("median")

    def test_duplicate_insensitive_exact_flag(self):
        assert QueryKind.MIN.duplicate_insensitive_exact
        assert QueryKind.MAX.duplicate_insensitive_exact
        assert not QueryKind.COUNT.duplicate_insensitive_exact
        assert not QueryKind.SUM.duplicate_insensitive_exact
        assert not QueryKind.AVG.duplicate_insensitive_exact


class TestAggregateQuery:
    def test_of_builds_from_string(self):
        query = AggregateQuery.of("sum", attribute="load")
        assert query.kind is QueryKind.SUM
        assert query.attribute == "load"

    def test_evaluate_all_kinds(self):
        values = [4, 8, 2, 6]
        assert AggregateQuery.of("min").evaluate(values) == 2
        assert AggregateQuery.of("max").evaluate(values) == 8
        assert AggregateQuery.of("count").evaluate(values) == 4
        assert AggregateQuery.of("sum").evaluate(values) == 20
        assert AggregateQuery.of("avg").evaluate(values) == 5

    def test_evaluate_empty(self):
        assert AggregateQuery.of("sum").evaluate([]) == 0.0

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            AggregateQuery(kind=QueryKind.COUNT, epsilon=0.0)
        with pytest.raises(ValueError):
            AggregateQuery(kind=QueryKind.COUNT, epsilon=1.5)
        AggregateQuery(kind=QueryKind.COUNT, epsilon=0.3)

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            AggregateQuery(kind=QueryKind.COUNT, confidence=0.0)
        AggregateQuery(kind=QueryKind.COUNT, confidence=0.9)

    def test_describe(self):
        query = AggregateQuery.of("count", epsilon=0.1, confidence=0.95)
        text = query.describe()
        assert "count" in text
        assert "eps=0.1" in text
        assert "conf=0.95" in text

    def test_is_frozen(self):
        query = AggregateQuery.of("min")
        with pytest.raises(Exception):
            query.attribute = "other"

    def test_pickles_and_copies_despite_being_frozen(self):
        query = AggregateQuery.of("avg", epsilon=0.1, confidence=0.9)
        for clone in (pickle.loads(pickle.dumps(query)), copy.copy(query)):
            assert (clone.kind, clone.attribute, clone.epsilon,
                    clone.confidence) == (QueryKind.AVG, "value", 0.1, 0.9)
