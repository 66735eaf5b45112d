"""Every function the benchmark's span tracer patches still exists in qpl.

perfbench/spans.py wraps qpl functions by name after import and raises
KeyError on a missing one, so a trim that deletes or renames a traced name
would only show under `pytest perfbench`.  This reads its TARGETS table and
resolves each entry here, in the default suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qpl.identities import IDENTITIES

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_table_is_not_empty():
    assert TARGETS


@pytest.mark.parametrize(
    "owner,attr",
    [(owner, attr) for _, owner, attr, _ in TARGETS],
    ids=[f"{owner}.{attr}" for _, owner, attr, _ in TARGETS],
)
def test_target_resolves(owner, attr):
    module_name, _, class_name = owner.partition(":")
    holder = importlib.import_module(module_name)
    if class_name:
        holder = getattr(holder, class_name)
    assert attr in vars(holder), f"{owner}.{attr} is traced but no longer defined"


def test_every_identity_has_a_span():
    # the benchmark times each identity by its own span: a table entry
    # without one would vanish from the per-identity metrics
    spans = {name for name, *_ in TARGETS if name.startswith("identities.")}
    assert spans - {"identities.battery"} == {f"identities.{key}" for key in IDENTITIES}
