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
        # two rows in three hold at a point x0 of the box, the others have
        # an arbitrary right-hand side; '=' rows among the latter make some
        # programs infeasible.  The lower corner violates some rows of most
        # programs, so starting bases mix slacks and artificials.
        senses = ["<=", ">=", "<=", ">=", "="]
        mixed = infeasible = 0
        for trial in range(160):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 7))
            c = rng.uniform(-2, 2, n)
            bounds = []
            for _ in range(n):
                lo = float(rng.uniform(-3, 1))
                bounds.append((lo, lo + float(rng.uniform(0.1, 4))))
            corner = np.array([lo for lo, _ in bounds])
            x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            rows, fits = [], set()
            for _ in range(m):
                a = rng.uniform(-2, 2, n)
                sense = senses[int(rng.integers(5))]
                if rng.random() < 1 / 3:
                    rhs = float(rng.uniform(-3, 3))
                else:
                    gap = float(rng.uniform(0, 1))
                    rhs = float(a @ x0) + {"<=": gap, ">=": -gap, "=": 0}[sense]
                rows.append((a, sense, rhs))
                excess = float(a @ corner) - rhs
                fits.add(excess <= 0 if sense == "<=" else
                         excess >= 0 if sense == ">=" else excess == 0)

            mine = lp_max(c, rows, bounds)
            mixed += fits == {True, False}
            infeasible += mine.status == "infeasible"
            _check_against_scipy(c, rows, bounds, mine, f"trial {trial}")
        assert mixed > 40 and 10 < infeasible < 80

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

# Argmax, optimum and pivot count of each program above, recorded when the
# solve began to start from the slack basis at the lower corner (phase 1
# only for the rows that corner violates); the kernel must reproduce every
# bit and every pivot.  Recorded on x86-64 Linux with OpenBLAS.
GOLDEN = {
    "vertex-2d": (
        ["0x1.0000000000001p-1", "0x1.0000000000000p-1"],
        "0x1.0000000000000p+0", 3),
    "duplicates": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "-0x1.0000000000000p+0"],
        "0x1.0000000000000p+2", 2),
    "cube-corner": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0"],
        "0x1.8000000000000p+1", 3),
    "duplicate-equalities": (
        ["0x1.8000000000000p-1", "0x1.0000000000000p-2"],
        "0x1.0000000000000p-1", 2),
    "margin-origin": (
        ["0x1.a827999fcef32p-2", "0x1.0000000000000p+0",
         "0x1.5f619980c4337p-3", "0x1.a827999fcef32p-2"],
        "0x1.a827999fcef32p-2", 6),
    "row-generation": (
        ["0x1.e1e1e1e1e1e26p-1", "-0x1.e1e1e1e1e1e2cp-2",
         "0x1.e1e1e1e1e1e04p-2", "0x1.4b4b4b4b4b4b4p+0",
         "-0x1.a5a5a5a5a5a60p-1", "0x1.2d2d2d2d2d2c3p-1"],
        "0x1.7c3c3c3c3c3c4p+1", 55),
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


def test_crash_start_puts_an_artificial_only_on_the_violated_row(
        monkeypatch):
    # the corner (0, 0) satisfies rows 0 and 2 but not row 1
    rows = [([1.0, 1.0], "<=", 1.0), ([1.0, -1.0], "<=", -0.5),
            ([0.0, 1.0], ">=", -1.0)]
    starts = []
    simplex = lp._simplex

    def recorded(A, b, c, lo, hi, basis, status, x, Binv):
        starts.append(basis.copy())
        return simplex(A, b, c, lo, hi, basis, status, x, Binv)

    monkeypatch.setattr(lp, "_simplex", recorded)
    res = lp_max([1.0, 1.0], rows, [(0.0, 1.0)] * 2)
    n, m = 2, 3
    # phase 1 from slack 0, artificial 1 and slack 2; then phase 2
    assert len(starts) == 2
    assert starts[0].tolist() == [n + 0, n + m + 1, n + 2]
    assert res.optimal and res.value == pytest.approx(1.0)
    assert res.x[0] - res.x[1] <= -0.5 + 1e-9
