import numpy as np
import pytest
from scipy.optimize import linprog

from simbarrier import lp
from simbarrier.lp import LPError, lp_max


class TestExamples:
    def test_single_upper_bound(self):
        res = lp_max([1.0], [([1.0], "<=", 3.0)], [(-10.0, 10.0)])
        assert res.optimal
        assert res.x[0] == pytest.approx(3.0)
        assert res.value == pytest.approx(3.0)

    def test_two_variable_sum(self):
        res = lp_max([1.0, 1.0], [([1.0, 1.0], "<=", 1.0)],
                     [(0.0, 1.0), (0.0, 1.0)])
        assert res.optimal
        assert res.value == pytest.approx(1.0)

    def test_infeasible(self):
        res = lp_max([1.0], [([1.0], "<=", -1.0), ([1.0], ">=", 1.0)],
                     [(-10.0, 10.0)])
        assert res.status == "infeasible"

    def test_no_rows_hits_bounds(self):
        res = lp_max([2.0, -1.0], [], [(-3.0, 4.0), (-5.0, 6.0)])
        assert res.value == pytest.approx(2 * 4 + 5)

    def test_equality_row(self):
        res = lp_max([1.0, 0.0], [([1.0, 1.0], "=", 2.0)],
                     [(-10.0, 10.0), (0.0, 1.0)])
        assert res.optimal
        assert res.value == pytest.approx(2.0)  # y pinned to 0

    def test_unbounded_impossible_with_bad_bounds(self):
        with pytest.raises(LPError):
            lp_max([1.0], [], [(0.0, float("inf"))])


class TestAgainstScipy:
    def test_random_programs(self, rng):
        senses = ["<=", ">="]
        for trial in range(120):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 7))
            c = rng.uniform(-2, 2, n)
            bounds = []
            for _ in range(n):
                lo = float(rng.uniform(-3, 1))
                bounds.append((lo, lo + float(rng.uniform(0.1, 4))))
            rows = []
            for _ in range(m):
                a = rng.uniform(-2, 2, n)
                sense = senses[int(rng.integers(2))]
                rhs = float(rng.uniform(-3, 3))
                rows.append((a, sense, rhs))

            mine = lp_max(c, rows, bounds)

            a_ub = [(-r[0] if r[1] == ">=" else r[0]) for r in rows]
            b_ub = [(-r[2] if r[1] == ">=" else r[2]) for r in rows]
            ref = linprog(-c, A_ub=np.array(a_ub) if rows else None,
                          b_ub=np.array(b_ub) if rows else None,
                          bounds=bounds, method="highs")

            if ref.status == 2:
                assert mine.status == "infeasible", f"trial {trial}"
            else:
                assert ref.status == 0 and mine.optimal, f"trial {trial}"
                assert mine.value == pytest.approx(-ref.fun, abs=1e-7), \
                    f"trial {trial}"
                # the argmax must be primal feasible
                for a, sense, rhs in rows:
                    lhs = float(np.dot(a, mine.x))
                    if sense == "<=":
                        assert lhs <= rhs + 1e-7
                    else:
                        assert lhs >= rhs - 1e-7
                for (lo, hi), v in zip(bounds, mine.x):
                    assert lo - 1e-9 <= v <= hi + 1e-9

    def test_determinism(self, rng):
        c = rng.uniform(-1, 1, 4)
        rows = [(rng.uniform(-1, 1, 4), ">=", -0.5) for _ in range(5)]
        bounds = [(-1.0, 1.0)] * 4
        first = lp_max(c, rows, bounds)
        second = lp_max(c, rows, bounds)
        assert np.array_equal(first.x, second.x)
        assert first.value == second.value


def _hex(values):
    return [float(v).hex() for v in values]


def _check_against_scipy(c, rows, bounds, mine, label):
    a_ub = [(-np.asarray(a) if s == ">=" else np.asarray(a))
            for a, s, _ in rows if s != "="]
    b_ub = [(-r if s == ">=" else r) for _, s, r in rows if s != "="]
    a_eq = [a for a, s, _ in rows if s == "="]
    b_eq = [r for _, s, r in rows if s == "="]
    ref = linprog(-np.asarray(c), A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=bounds, method="highs")
    if ref.status == 2:
        assert mine.status == "infeasible", label
        return
    assert ref.status == 0 and mine.optimal, label
    assert mine.value == pytest.approx(-ref.fun, abs=1e-7), label
    # the argmax satisfies every row, not only the generated subset
    for a, sense, rhs in rows:
        lhs = float(np.dot(a, mine.x))
        if sense == "<=":
            assert lhs <= rhs + 1e-7, label
        elif sense == ">=":
            assert lhs >= rhs - 1e-7, label
        else:
            assert lhs == pytest.approx(rhs, abs=1e-7), label
    for (lo, hi), v in zip(bounds, mine.x):
        assert lo - 1e-9 <= v <= hi + 1e-9, label


class TestRowGeneration:
    def test_random_programs_against_scipy(self, rng):
        # more rows than the direct limit: solved on a growing subset
        for trial in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(lp._DIRECT_ROW_LIMIT + 1, 260))
            c = rng.uniform(-2, 2, n)
            bounds = [(-2.0, 2.0)] * n
            # rows pass at or above an interior point, so most programs
            # are feasible; a tenth get a cut that no point satisfies
            x0 = rng.uniform(-1, 1, n)
            rows = []
            for _ in range(m):
                a = rng.uniform(-2, 2, n)
                slack = float(rng.uniform(0, 1.5))
                if rng.random() < 0.5:
                    rows.append((a, "<=", float(a @ x0) + slack))
                else:
                    rows.append((a, ">=", float(a @ x0) - slack))
            if trial % 10 == 9:
                rows.append((np.ones(n), ">=", 2.0 * n + 1.0))
            mine = lp_max(c, rows, bounds)
            _check_against_scipy(c, rows, bounds, mine, f"trial {trial}")


def _row_generation_program(m=240, n=6):
    """Exact rational data with many duplicate rows, more rows than the
    direct limit."""
    rows = []
    for i in range(m):
        a = [((7 * i + 13 * j) % 17 - 8) / 8.0 for j in range(n)]
        if i % 3:
            rows.append((a, "<=", ((5 * i) % 11) / 4.0 + 1.0))
        else:
            rows.append((a, ">=", -(((3 * i) % 7) / 4.0 + 1.0)))
    return [1.0, -0.5, 0.75, 0.25, -1.0, 0.5], rows, [(-2.0, 2.0)] * n


_S = 1.0 / 2 ** 0.5
_UNITS = [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (_S, _S, 0.0),
          (_S, 0.0, _S), (0.0, _S, _S), (0.0, _S, _S), (-_S, _S, 0.0)]

# Degenerate programs: duplicate rows and several rows through one vertex,
# where the leaving row is picked among tied ratios by the largest-pivot,
# then smallest-index rule.  Each: (c, rows, bounds).
DEGENERATE = {
    "vertex-2d": (
        [1.0, 1.0],
        [([1.0, 1.0], "<=", 1.0), ([1.0, 0.0], "<=", 0.5),
         ([0.0, 1.0], "<=", 0.5), ([1.0, -1.0], "<=", 0.0),
         ([2.0, 1.0], "<=", 1.5), ([1.0, 2.0], "<=", 1.5)],
        [(-2.0, 2.0)] * 2),
    "duplicates": (
        [2.0, 3.0, 1.0],
        [([1.0, 1.0, 1.0], "<=", 1.0)] * 3
        + [([1.0, -1.0, 0.0], ">=", -1.0)] * 2
        + [([0.0, 1.0, 1.0], "<=", 0.5), ([0.0, 2.0, 2.0], "<=", 1.0)],
        [(-1.0, 1.0)] * 3),
    "cube-corner": (
        [1.0, 1.0, 1.0],
        [([1.0, 0.0, 0.0], "<=", 1.0), ([0.0, 1.0, 0.0], "<=", 1.0),
         ([0.0, 0.0, 1.0], "<=", 1.0), ([1.0, 1.0, 0.0], "<=", 2.0),
         ([0.0, 1.0, 1.0], "<=", 2.0), ([1.0, 0.0, 1.0], "<=", 2.0),
         ([1.0, 1.0, 1.0], "<=", 3.0)],
        [(0.0, 5.0)] * 3),
    "duplicate-equalities": (
        [1.0, -1.0],
        [([1.0, 1.0], "=", 1.0), ([1.0, 1.0], "=", 1.0),
         ([2.0, 2.0], "=", 2.0), ([1.0, 0.0], "<=", 0.75)],
        [(-3.0, 3.0)] * 2),
    # max-margin rows through the origin, as the candidate search builds
    # them: maximize delta with u.p - delta >= 0
    "margin-origin": (
        [0.0, 0.0, 0.0, 1.0],
        [(list(u) + [-1.0], ">=", 0.0) for u in _UNITS],
        [(-1.0, 1.0)] * 3 + [(-1.0 - 3 ** 0.5, 1.0 + 3 ** 0.5)]),
    "row-generation": _row_generation_program(),
}

# Argmax, optimum and pivot count of each program above, recorded with the
# scalar formulation of the simplex (one row or column at a time) before
# it was vectorised; the kernel must reproduce every bit and every pivot.
# Recorded on x86-64 Linux with OpenBLAS.
GOLDEN = {
    "vertex-2d": (
        ["0x1.fffffffffffffp-2", "0x1.0000000000000p-1"],
        "0x1.0000000000000p+0", 6),
    "duplicates": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "-0x1.0000000000000p+0"],
        "0x1.0000000000000p+2", 10),
    "cube-corner": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0"],
        "0x1.8000000000000p+1", 7),
    "duplicate-equalities": (
        ["0x1.8000000000000p-1", "0x1.0000000000000p-2"],
        "0x1.0000000000000p-1", 2),
    "margin-origin": (
        ["0x1.a827999fcef32p-2", "0x1.0000000000000p+0",
         "0x1.5f619980c4337p-3", "0x1.a827999fcef32p-2"],
        "0x1.a827999fcef32p-2", 10),
    "row-generation": (
        ["0x1.e1e1e1e1e1e1dp-1", "-0x1.e1e1e1e1e1e15p-2",
         "0x1.e1e1e1e1e1e22p-2", "0x1.4b4b4b4b4b4b8p+0",
         "-0x1.a5a5a5a5a5a56p-1", "0x1.2d2d2d2d2d2d9p-1"],
        "0x1.7c3c3c3c3c3c4p+1", 148),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_programs(case):
    c, rows, bounds = DEGENERATE[case]
    res = lp_max(c, rows, bounds)
    _check_against_scipy(c, rows, bounds, res, case)
    x, value, pivots = GOLDEN[case]
    assert (_hex(res.x), float(res.value).hex(), res.pivots) == \
        (x, value, pivots)


def test_row_generation_takes_several_rounds(monkeypatch):
    sizes = []
    direct = lp._lp_max_direct

    def recorded(c, rows, bounds):
        sizes.append(len(rows))
        return direct(c, rows, bounds)

    monkeypatch.setattr(lp, "_lp_max_direct", recorded)
    res = lp_max(*DEGENERATE["row-generation"])
    assert sizes == [lp._ROW_BATCH, 67]
    assert res.pivots == GOLDEN["row-generation"][2]


def test_pivot_count():
    assert lp_max([2.0, -1.0], [], [(-3.0, 4.0), (-5.0, 6.0)]).pivots == 0
    res = lp_max([1.0], [([1.0], "<=", -1.0), ([1.0], ">=", 1.0)],
                 [(-10.0, 10.0)])
    assert res.status == "infeasible" and res.pivots >= 1
