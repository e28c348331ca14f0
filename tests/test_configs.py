"""The shipped config files must stay in lockstep with the scenario constants."""

from pathlib import Path

import numpy as np
import pytest

from nosreg.acceptance import (BANDS_FAST, BANDS_MEDIUM, BANDS_SLOW,
                               EXO_H, EXO_S, EXO_W0, POLES_SLOW)
from nosreg.cli import load_config
from nosreg.plants import REFERENCE_X0, benchmark_plant

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name,bands", [
    ("benchmark_search_slow.json", BANDS_SLOW),
    ("benchmark_search_medium.json", BANDS_MEDIUM),
    ("benchmark_search_fast.json", BANDS_FAST),
])
def test_search_configs_match_scenario(name, bands):
    cfg = load_config(CONFIG_DIR / name)
    assert cfg.degrees == (4,)
    assert cfg.intervals == (bands,)
    assert cfg.plant.normal_map is benchmark_plant().normal_map
    np.testing.assert_array_equal(cfg.x0, REFERENCE_X0)
    np.testing.assert_array_equal(cfg.exo.S, EXO_S)
    np.testing.assert_array_equal(cfg.exo.H, EXO_H)
    np.testing.assert_array_equal(cfg.exo.w0, EXO_W0)


def test_design_config_matches_scenario():
    cfg = load_config(CONFIG_DIR / "benchmark_design.json")
    assert cfg.pole_sets is not None
    assert cfg.pole_sets[0].lambdas == POLES_SLOW
    assert cfg.sim.step == 1e-3
    assert cfg.sim.horizon == 40.0
