"""Every call site the benchmark traces resolves in the package.

perfbench/layers.py names each function it wraps by module and dotted
attribute path.  A site renamed or deleted in the package would otherwise
show up only as a failed traced benchmark run.
"""

import pytest

from perfbench.layers import trace_targets
from perfbench.tracing import Tracer

SITES = [(module, path) for module, path, _name, _observe in trace_targets(Tracer("t"), {})]


@pytest.mark.parametrize(
    "module, path", SITES, ids=[f"{module.__name__}.{path}" for module, path in SITES]
)
def test_traced_call_site_resolves(module, path):
    owner = module
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
