"""The benchmark tracer patches library attributes by name; each must exist.

``perfbench/spans.py`` wraps the functions that ``layer_targets()`` lists by
looking each one up in ``vars(owner)``. The benchmark's own tests are not
collected with this suite, so without this check a renamed or moved function
would break ``perfbench/run.py --trace 1`` unnoticed.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists_where_the_tracer_patches_it():
    targets = _spans().layer_targets()
    assert len(targets) > 15
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert not missing, f"the bench tracer cannot patch {missing}"
