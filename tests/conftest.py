"""Shared fixtures: tests build the system only through the scenario runner."""

import pytest

from sealedbid.harness import ScenarioRunner
from sealedbid.scenario import scenario_from_dict


@pytest.fixture
def make_runner():
    """make_runner(**sections) -> ScenarioRunner for a scenario document;
    `name` and three honest endpoints are filled in when not given."""
    def make(**sections):
        data = {"name": "test", "endpoints": [{"id": "ep%d" % i} for i in range(3)]}
        data.update(sections)
        return ScenarioRunner(scenario_from_dict(data))
    return make
