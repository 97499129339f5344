"""The benchmark's traced run finds library functions by owner and name.

`perfbench/spans.py` patches each (owner, attribute) pair it lists, reading
the original from `owner.__dict__`. A refactor that moves or renames one of
them fails here, in the plain test run, instead of in the traced benchmark.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import spans  # noqa: E402


def test_every_wrapped_function_is_defined_on_its_owner():
    pairs = ([(owner, attr) for owner, attr, _, _ in spans.layer_targets()]
             + [(owner, attr) for owner, attr, _ in spans.COUNTED])
    missing = [f"{owner.__name__}.{attr}" for owner, attr in pairs
               if attr not in owner.__dict__]
    assert missing == []
