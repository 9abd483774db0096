import json

import pytest

from nkdeform import clifford, cosets

# The oracle's asserts check the oracle route itself.  Rewritten by pytest,
# which must happen before a test module imports it, they also run under
# ``python -O``, which strips plain asserts.
pytest.register_assert_rewrite("clifford_oracle")


@pytest.fixture(scope="session")
def rep():
    return clifford.build_rep()


@pytest.fixture
def fixture_descriptors(tmp_path):
    """The descriptors a dumped fixture file loads, and Sp(2)/Sp(1)xU(1)
    from a file whose V has the other chirality, V(0,2) + V(1,1)."""
    data = json.loads(cosets.dump_fixtures())
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = list(cosets.load_fixtures(path).values())
    (entry,) = [e for e in data["cosets"] if e["name"] == "Sp(2)/Sp(1)xU(1)"]
    entry["mstar_holomorphic"] = [{"hw": [0, 2], "mult": 1}, {"hw": [1, 1], "mult": 1}]
    path.write_text(json.dumps(data), encoding="utf-8")
    return loaded + [cosets.load_fixtures(path)["Sp(2)/Sp(1)xU(1)"]]
