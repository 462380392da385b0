"""Named run configurations reproducing the reference parameter sets.

Each model, contract and numerics block holds only what differs from the
defaults of the dataclass that reads it (EJDCEVParams, OptionContract,
NumericsConfig); model.type picks that dataclass.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

_BASE_MODEL = {"type": "ejdcev", "beta": -1.0, "gamma": 2.0}

_BASE_CONTRACT = {"style": "call", "K": 100.0, "L": 90.0, "U": 120.0, "T": 0.5}

# eigenindex bands of the contribution report (contrib); None: to the last term
DEFAULT_BANDS = [[1, 5], [6, 10], [11, 15], [16, 20], [21, 25],
                 [26, 30], [31, 35], [36, 40], [41, 45], [46, None]]

PRESETS = {
    # six-month horizon: a handful of eigenvalues inside omega < 15 suffice
    "table1-medium": {
        "model": dict(_BASE_MODEL),
        "contract": dict(_BASE_CONTRACT),
        "numerics": {},  # NumericsConfig defaults
        "sweep": {
            "K": [95.0, 100.0, 105.0],
            "beta": [0.5, 0.0, -1.0, -2.0],
            "gamma": [0.0, 1.0, 2.0],
        },
    },
    # one-day horizon: slow exponential decay, wide omega window, 50-56 pairs
    "table3-short": {
        "model": dict(_BASE_MODEL, beta=-2.0),
        "contract": dict(_BASE_CONTRACT, T=1.0 / 360.0),
        "numerics": {"omega_max": 100.0},
        "sweep": {
            "K": [100.0],
            "beta": [-2.0, 1.0],
            "gamma": [3.0, 2.0, 1.0, 0.0],
        },
        "bands": DEFAULT_BANDS,
    },
}


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])


def default_config() -> dict:
    """table1-medium without its sweep; output.format None lets each command pick its own."""
    cfg = preset("table1-medium")
    cfg.pop("sweep", None)
    cfg["output"] = {"format": None, "path": None}
    return cfg
