"""Float checks of certificates that do not go through the verifier.

Flows and reset maps are evaluated from the problem document's own
expression strings with numpy, and certificates from their monomial
names, so neither the program's expression layer nor its interval
verifier is trusted here.  These checks are sampling checks: they can
miss a defect, but a failure is a real counter-example.
"""

from __future__ import annotations

import itertools

import numpy as np

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
              "ln": np.log, "sqrt": np.sqrt}
_SAMPLES = 2000
_NEWTON_STEPS = 50


def _compile(text: str, names: list[str]):
    code = compile(text.replace("^", "**"), "<expr>", "eval")

    def evaluate(columns: np.ndarray) -> np.ndarray:
        env = dict(_FUNCTIONS)
        env.update(zip(names, columns))
        value = eval(code, {"__builtins__": {}}, env)  # noqa: S307 - document text
        return np.broadcast_to(np.asarray(value, dtype=float),
                               columns.shape[1:]).copy()

    return evaluate


def _boxes(pairs) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0], arr[:, 1]


def _inside(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    tol = 1e-9 * (1.0 + np.abs(lo) + np.abs(hi))
    return bool(np.all(x >= lo - tol) and np.all(x <= hi + tol))


class FloatSystem:
    """Flows, reset maps and regions of a problem document, in floats."""

    def __init__(self, doc: dict):
        self.state = list(doc["variables"])
        dist = list(doc.get("disturbances", []))
        names = self.state + dist
        self.modes = [m["name"] for m in doc["modes"]]
        self.omega = [_boxes(m["omega"]) for m in doc["modes"]]
        self.flow = [[_compile(f, names) for f in m["flow"]]
                     for m in doc["modes"]]
        self.dist_box = (_boxes(doc["disturbance_box"]) if dist
                         else (np.empty(0), np.empty(0)))
        self.resets = [(self.modes.index(r["source"]), _boxes(r["guard"]),
                        self.modes.index(r["target"]),
                        [_compile(f, self.state) for f in r["map"]])
                       for r in doc.get("resets", [])]
        self.init = [(self.modes.index(e["mode"]), _boxes(e["box"]))
                     for e in doc["init"]]
        self.unsafe = [(self.modes.index(e["mode"]), _boxes(e["box"]))
                       for e in doc["unsafe"]]

    def dist_vertices(self) -> list[np.ndarray]:
        lo, hi = self.dist_box
        return [np.array(v) for v in itertools.product(*zip(lo, hi))]

    def drift_field(self, mode: int, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Flow at points x (n, k) under one disturbance value d."""
        cols = np.vstack([x, np.repeat(d[:, None], x.shape[1], axis=1)])
        return np.array([f(cols) for f in self.flow[mode]])


class FloatCert:
    """A per-mode polynomial certificate: terms are (coefficient, exponents)."""

    def __init__(self, terms: list[list[tuple[float, tuple[int, ...]]]]):
        self.terms = terms

    @staticmethod
    def from_barrier_doc(doc: dict, system: FloatSystem) -> "FloatCert":
        terms = []
        for mode in system.modes:
            block = []
            for name, coef in doc["modes"][mode].items():
                expo = [0] * len(system.state)
                if name.strip() != "1":
                    for part in name.split("*"):
                        var, _, power = part.strip().partition("^")
                        expo[system.state.index(var)] += int(power or 1)
                block.append((float(coef), tuple(expo)))
            terms.append(block)
        return FloatCert(terms)

    def value(self, mode: int, x: np.ndarray) -> np.ndarray:
        """V at points x of shape (n, k)."""
        out = np.zeros(x.shape[1])
        for c, expo in self.terms[mode]:
            out += c * np.prod([x[j] ** e for j, e in enumerate(expo)], axis=0)
        return out

    def scale(self, mode: int, x: np.ndarray) -> np.ndarray:
        """Sum of absolute term values: the size of V's rounding error."""
        out = np.zeros(x.shape[1])
        for c, expo in self.terms[mode]:
            out += abs(c) * np.prod([np.abs(x[j]) ** e
                                     for j, e in enumerate(expo)], axis=0)
        return out

    def grad(self, mode: int, x: np.ndarray) -> np.ndarray:
        """Gradient of V at points x, shape (n, k)."""
        g = np.zeros_like(x)
        for c, expo in self.terms[mode]:
            for j, ej in enumerate(expo):
                if ej:
                    term = c * ej * x[j] ** (ej - 1)
                    for i, ei in enumerate(expo):
                        if i != j and ei:
                            term = term * x[i] ** ei
                    g[j] += term
        return g


def _sample(lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator,
            count: int) -> np.ndarray:
    inner = lo[:, None] + rng.random((len(lo), count)) * (hi - lo)[:, None]
    corners = np.array(list(itertools.product(*zip(lo, hi)))).T
    return np.hstack([inner, corners])


def sample_conditions(system: FloatSystem, cert: FloatCert,
                      rng: np.random.Generator) -> list[str]:
    """Seeded sampling of certificate conditions 1-3; returns failures."""
    failures = []
    for label, regions, sign in (("initial", system.init, 1.0),
                                 ("unsafe", system.unsafe, -1.0)):
        for mode, (lo, hi) in regions:
            x = _sample(lo, hi, rng, _SAMPLES)
            bad = sign * cert.value(mode, x) > 1e-12 * cert.scale(mode, x)
            if bad.any():
                failures.append(f"condition {1 if sign > 0 else 2}: V has the "
                                f"wrong sign at {x[:, bad.argmax()]} "
                                f"({label} box of mode {system.modes[mode]})")
    for mode, (lo, hi) in enumerate(system.omega):
        x = _sample(lo, hi, rng, _SAMPLES)
        v0 = cert.value(mode, x)
        for _ in range(_NEWTON_STEPS):
            v = cert.value(mode, x)
            g = cert.grad(mode, x)
            x = np.clip(x - v * g / np.maximum((g * g).sum(axis=0), 1e-300),
                        lo[:, None], hi[:, None])
        landed = np.abs(cert.value(mode, x)) <= 1e-10 * (1.0 + cert.scale(mode, x))
        if not landed.any():
            # V changing sign on omega means its zero level set is not empty
            if v0.min() < 0.0 < v0.max():
                failures.append(f"condition 3: no sample landed on V = 0 in "
                                f"mode {system.modes[mode]}")
            continue
        x = x[:, landed]
        g = cert.grad(mode, x)
        for d in system.dist_vertices():
            f = system.drift_field(mode, x, d)
            drift = (g * f).sum(axis=0)
            size = np.linalg.norm(g, axis=0) * np.linalg.norm(f, axis=0)
            bad = drift >= -1e-9 * size
            if bad.any():
                failures.append(f"condition 3: drift {drift[bad.argmax()]:.3e} "
                                f">= 0 at {x[:, bad.argmax()]}, d = {d}")
    return failures


def replay_witness(system: FloatSystem, cert: FloatCert, condition: int,
                   witness) -> str | None:
    """Float replay of a refutation witness; None when it refutes."""
    mode, x, d = witness
    x = np.asarray(x, dtype=float)
    col = x[:, None]
    v = float(cert.value(mode, col)[0])
    tol = 1e-12 * float(cert.scale(mode, col)[0])
    if condition in (1, 2):
        regions = system.init if condition == 1 else system.unsafe
        if not any(m == mode and _inside(x, lo, hi) for m, (lo, hi) in regions):
            return f"witness {x} is not in a condition-{condition} box"
        wrong = v > tol if condition == 1 else v < -tol
        return None if wrong else f"V = {v:.3e} has the right sign at {x}"
    if condition == 3:
        d = np.asarray(d, dtype=float)
        if not _inside(x, *system.omega[mode]) or not _inside(d, *system.dist_box):
            return f"witness {x}, d = {d} is outside omega or the disturbance box"
        if abs(v) > 1e-6 * (1.0 + float(cert.scale(mode, col)[0])):
            return f"witness {x} is off the zero level set (V = {v:.3e})"
        g = cert.grad(mode, col)[:, 0]
        f = system.drift_field(mode, col, d)[:, 0]
        drift = float(g @ f)
        return None if drift > 0.0 else f"drift {drift:.3e} is negative at {x}"
    for src, (lo, hi), tgt, fmap in system.resets:
        if src == mode and _inside(x, lo, hi) and v <= tol:
            image = np.array([f(col) for f in fmap])
            after = float(cert.value(tgt, image)[0])
            if after > 1e-12 * float(cert.scale(tgt, image)[0]):
                return None
    return f"no reset from mode {system.modes[mode]} maps {x} to V > 0"
