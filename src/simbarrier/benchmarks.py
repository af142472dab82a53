"""Bundled benchmark problems.

Each entry is a complete problem document (the JSON schema consumed by
the CLI) with the simulation length and template the system is normally
run with.  The scalable family is generated for any number of oscillator
pairs; dimension is 2*l + 1.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA = "problem/1"


def pendulum() -> dict:
    return {
        "schema": SCHEMA,
        "name": "pendulum",
        "variables": ["x", "y"],
        "modes": [{
            "name": "m",
            "omega": [[-10, 10], [-10, 10]],
            "flow": ["y", "-sin(x) - y"],
        }],
        "init": [{"mode": "m", "box": [[-10, 10], [8, 10]]}],
        "unsafe": [{"mode": "m", "box": [[-10, 10], [-10, -5]]}],
        "template": "quadratic-2d",
        "run": {"sigma": 0.5, "bloat": 1.1, "starts": 16,
                "max_iter": 40, "seed": 0},
    }


def log_dynamics() -> dict:
    return {
        "schema": SCHEMA,
        "name": "log-dynamics",
        "variables": ["x", "y"],
        "modes": [{
            "name": "m",
            "omega": [[-5, 5], [-5, 5]],
            "flow": [
                "y + (1 - x^2 - y^2)*x + ln(x^2 + 1)",
                "-x + (1 - x^2 - y^2)*y + ln(y^2 + 1)",
            ],
        }],
        "init": [{"mode": "m", "box": [[1, 3], [-1.5, 3.0]]}],
        "unsafe": [{"mode": "m", "box": [[-3, -0.6], [1, 3]]}],
        "template": "quadratic-2d",
        "run": {"sigma": 1.0, "bloat": 1.1, "starts": 16,
                "max_iter": 40, "seed": 0},
    }


def lorenz() -> dict:
    return {
        "schema": SCHEMA,
        "name": "lorenz",
        "variables": ["x", "y", "z"],
        "modes": [{
            "name": "m",
            "omega": [[-20, 20], [-20, 0], [-20, 20]],
            "flow": ["10*(y - x)", "x*(28 - z) - y", "x*y - 8/3*z"],
        }],
        "init": [{"mode": "m",
                  "box": [[-14.8, -14.2], [-14.8, -14.2], [12.2, 12.8]]}],
        "unsafe": [{"mode": "m",
                    "box": [[-16.8, -16.2], [-14.8, -14.2], [2.2, 2.8]]}],
        # constant, x^2, x, z
        "template": [[[0, 0, 0], [2, 0, 0], [1, 0, 0], [0, 0, 1]]],
        "run": {"sigma": 0.1, "bloat": 1.1, "starts": 16,
                "max_iter": 40, "seed": 0},
    }


def composition() -> dict:
    return {
        "schema": SCHEMA,
        "name": "composition",
        "variables": ["x1", "x2", "x3"],
        "modes": [{
            "name": "m",
            "omega": [[-10, 10]] * 3,
            "flow": ["1", "x3", "-10*sin(x2) - x3"],
        }],
        "init": [{"mode": "m", "box": [[9, 10], [-10, 10], [-10, 10]]}],
        "unsafe": [{"mode": "m", "box": [[-10, -9], [-10, 10], [-10, 10]]}],
        "template": "linear",
        "run": {"sigma": 0.1, "bloat": 1.1, "starts": 16,
                "max_iter": 20, "seed": 0},
    }


def thermostat() -> dict:
    """A heater switching off above 20 and on below 16 under a bounded
    disturbance: a hybrid problem with two resets."""
    return {
        "schema": SCHEMA,
        "name": "thermostat",
        "variables": ["x"],
        "disturbances": ["d"],
        "disturbance_box": [[-0.5, 0.5]],
        "modes": [
            {"name": "off", "omega": [[15, 22]], "flow": ["-0.5*(x - 10) + d"]},
            {"name": "on", "omega": [[10, 22]], "flow": ["0.5*(30 - x) + d"]},
        ],
        "resets": [
            {"source": "off", "guard": [[15, 16]], "target": "on",
             "map": ["x"], "inverse": ["x"], "image": [[15, 16]]},
            {"source": "on", "guard": [[20, 22]], "target": "off",
             "map": ["x"], "inverse": ["x"], "image": [[20, 22]]},
        ],
        "init": [{"mode": "off", "box": [[18, 20]]}],
        "unsafe": [{"mode": "on", "box": [[10, 12]]}],
        "template": "linear",
        "run": {"sigma": 0.5, "bloat": 1.1, "starts": 16,
                "max_iter": 20, "seed": 0},
    }


def relay() -> dict:
    """x climbs in ``up`` and falls in ``down``; the one reset, up -> down
    on [5, 6], keeps x.  V_up = -1 - x, V_down = x - 7.5 certify it."""
    return {
        "schema": SCHEMA,
        "name": "relay",
        "variables": ["x"],
        "modes": [
            {"name": "up", "omega": [[0, 10]], "flow": ["1 + 0.5*sin(x)"]},
            {"name": "down", "omega": [[0, 10]], "flow": ["-1 - 0.5*sin(x)"]},
        ],
        "resets": [
            {"source": "up", "guard": [[5, 6]], "target": "down",
             "map": ["x"], "inverse": ["x"], "image": [[5, 6]]},
        ],
        "init": [{"mode": "up", "box": [[0, 1]]}],
        "unsafe": [{"mode": "down", "box": [[9, 10]]}],
        "template": "linear",
        "run": {"sigma": 0.5, "bloat": 1.1, "starts": 16,
                "max_iter": 20, "seed": 0},
    }


def scalable(l: int) -> dict:
    """A drifting coordinate weakly coupled to l damped pendulums.

    The coupling through the first coordinate is a mean of bounded terms,
    so the drift of x1 stays inside [1/2, 3/2] everywhere and the family
    admits a linear certificate at every size.
    """
    if l < 1:
        raise ValueError("need at least one oscillator pair")
    n = 2 * l + 1
    names = [f"x{i}" for i in range(1, n + 1)]
    coupling = " + ".join(f"sin(x{2 * i} + x{2 * i + 1})" for i in range(1, l + 1))
    flow = [f"1 + ({coupling})/{2 * l}"]
    for i in range(1, l + 1):
        flow.append(f"x{2 * i + 1}")
        flow.append(f"-10*sin(x{2 * i}) - x{2 * i + 1}")
    return {
        "schema": SCHEMA,
        "name": f"scalable-l{l}",
        "variables": names,
        "modes": [{"name": "m", "omega": [[-10, 10]] * n, "flow": flow}],
        "init": [{"mode": "m",
                  "box": [[9, 10]] + [[-10, 10]] * (n - 1)}],
        "unsafe": [{"mode": "m",
                    "box": [[-10, -9]] + [[-10, 10]] * (n - 1)}],
        "template": "linear",
        "run": {"sigma": 0.1, "bloat": 1.1, "starts": 16,
                "max_iter": 20, "seed": 0},
    }


def corpus() -> dict[str, dict]:
    docs = {
        "pendulum": pendulum(),
        "log-dynamics": log_dynamics(),
        "lorenz": lorenz(),
        "composition": composition(),
        "thermostat": thermostat(),
        "relay": relay(),
    }
    for l in (1, 2, 3, 4):
        docs[f"scalable-l{l}"] = scalable(l)
    return docs


def write_corpus(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in corpus().items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        written.append(path)
    return written
