"""Drawn-property sizing shared by the tests that CI also runs wide.

A plain run draws ``plain`` examples (the tier-1 cost); naming a
hypothesis profile on the command line (``--hypothesis-profile=default``,
as CI's perf-smoke job does) hands the count to that profile, scaled by
``wide`` for properties cheap enough to draw more of.
"""

from hypothesis import HealthCheck, given, settings


def drawn(request, law, plain=6, wide=1, **strategies):
    """Run ``law`` over examples drawn from ``strategies``."""
    named = request.config.getoption("--hypothesis-profile", default=None)
    examples = settings.default.max_examples * wide if named else plain
    settings(max_examples=examples, deadline=None,
             suppress_health_check=list(HealthCheck))(
        given(**strategies)(law))()
