"""The paper's numeric claims, one test per built-in verification group."""

import pytest

from cmtype import verify


@pytest.mark.parametrize("name", verify.available_groups())
def test_group_passes(name):
    results = verify.GROUPS[name]()
    assert results, f"group {name} produced no cases"
    failed = [f"{r.case}: expected {r.expected}, computed {r.computed}"
              for r in results if not r.passed]
    assert not failed, f"{name}: {len(failed)} of {len(results)} cases failed:\n" + "\n".join(failed)
