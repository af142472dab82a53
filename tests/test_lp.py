import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from simbarrier import lp
from simbarrier.lp import LPError, lp_max


class TestExamples:
    def test_single_upper_bound(self):
        # x <= 3 as -x >= -3
        res = lp_max([1.0], [[-1.0]], [-3.0], [-10.0], [10.0])
        assert res.x[0] == pytest.approx(3.0)
        assert res.value == pytest.approx(3.0)

    def test_two_variable_sum(self):
        res = lp_max([1.0, 1.0], [[-1.0, -1.0]], [-1.0], [0.0, 0.0],
                     [1.0, 1.0])
        assert res.value == pytest.approx(1.0)

    def test_no_rows_hits_bounds(self):
        # no row to generate: the first round is the whole solve, and it
        # ends with each variable at the bound its cost points to
        res = lp_max([2.0, -1.0], np.empty((0, 2)), [], [-3.0, -5.0],
                     [4.0, 6.0])
        assert res.value == pytest.approx(2 * 4 + 5)
        assert res.x.tolist() == [4.0, -5.0]
        assert res.basis.rows.size == 0 and res.basis.basic.size == 0
        assert res.basis.at_hi.tolist() == [True, False]

    def test_unbounded_impossible_with_bad_bounds(self):
        with pytest.raises(LPError):
            lp_max([1.0], np.empty((0, 1)), [], [0.0], [float("inf")])


def test_row_violated_at_the_lower_corner_raises():
    # the corner (0, 0) satisfies rows 0 and 2 but not row 1
    A = [[-1.0, -1.0], [-1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(LPError, match="row 1 is violated at the lower"):
        lp_max([1.0, 1.0], A, [-1.0, 0.5, -1.0], [0.0, 0.0], [1.0, 1.0])
    # a row beyond the first row-generation subset is checked too
    c, A, b, lo, hi = DEGENERATE["row-generation"]
    b = b.copy()
    b[200] = A[200] @ lo + 0.25
    with pytest.raises(LPError, match="row 200 is violated at the lower"):
        lp_max(c, A, b, lo, hi)


def _corner_feasible_rows(rng, m, lo, x0):
    """m random rows that hold at the lower corner ``lo`` and at ``x0``:
    each passes within a gap below the smaller of its values there."""
    A = rng.uniform(-2, 2, (m, lo.size))
    gap = rng.uniform(0, 1, m)
    return A, np.minimum(A @ x0, A @ lo) - gap


class TestAgainstScipy:
    def test_random_programs(self, rng):
        # every row holds at the lower corner and at a point x0 of the box
        binding = 0
        for trial in range(160):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 7))
            c = rng.uniform(-2, 2, n)
            lo = rng.uniform(-3, 1, n)
            hi = lo + rng.uniform(0.1, 4, n)
            x0 = rng.uniform(lo, hi)
            A, b = _corner_feasible_rows(rng, m, lo, x0)
            mine = lp_max(c, A, b, lo, hi)
            binding += bool(np.any(np.abs(A @ mine.x - b) <= 1e-7))
            _check_against_scipy(c, A, b, lo, hi, mine, f"trial {trial}")
        assert binding > 40

    def test_determinism(self, rng):
        c = rng.uniform(-1, 1, 4)
        lo, hi = -np.ones(4), np.ones(4)
        A = rng.uniform(-1, 1, (5, 4))
        b = A @ lo - 0.5
        first = lp_max(c, A, b, lo, hi)
        second = lp_max(c, A, b, lo, hi)
        assert np.array_equal(first.x, second.x)
        assert first.value == second.value


def _hex(values):
    return [float(v).hex() for v in values]


def _check_against_scipy(c, A, b, lo, hi, mine, label):
    A = np.asarray(A, dtype=float).reshape(len(b), len(c))
    ref = linprog(-np.asarray(c), A_ub=-A if len(b) else None,
                  b_ub=-np.asarray(b) if len(b) else None,
                  bounds=list(zip(lo, hi)), method="highs")
    assert ref.status == 0, label
    assert mine.value == pytest.approx(-ref.fun, abs=1e-7), label
    # the argmax satisfies every row, not only the generated subset
    assert np.all(A @ mine.x >= np.asarray(b) - 1e-7), label
    assert np.all((np.asarray(lo) - 1e-9 <= mine.x)
                  & (mine.x <= np.asarray(hi) + 1e-9)), label


class TestRowGeneration:
    def test_random_programs_against_scipy(self, rng):
        # more rows than the first batch: solved on a growing subset
        for trial in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(lp._ROW_BATCH + 1, 260))
            c = rng.uniform(-2, 2, n)
            lo, hi = np.full(n, -2.0), np.full(n, 2.0)
            A, b = _corner_feasible_rows(rng, m, lo, rng.uniform(-1, 1, n))
            mine = lp_max(c, A, b, lo, hi)
            _check_against_scipy(c, A, b, lo, hi, mine, f"trial {trial}")


def _row_generation_program(m=240, n=6):
    """Exact rational data with duplicate rows, more rows than the first
    batch; every row holds at the lower corner x = -2 with a gap of 3 to
    6.25."""
    i = np.arange(m)
    A = ((7 * i[:, None] + 13 * np.arange(n)) % 17 - 8) / 8.0
    A[i % 3 != 0] *= -1.0
    gap = np.where(i % 3, (5 * i) % 11 / 4.0, (3 * i) % 7 / 4.0) + 3.0
    lo = np.full(n, -2.0)
    return ([1.0, -0.5, 0.75, 0.25, -1.0, 0.5], A, A @ lo - gap, lo, -lo)


_S = 1.0 / 2 ** 0.5
_UNITS = [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (_S, _S, 0.0),
          (_S, 0.0, _S), (0.0, _S, _S), (0.0, _S, _S), (-_S, _S, 0.0)]

# Degenerate programs: duplicate rows and several rows through one vertex,
# where the leaving row is picked among tied ratios by the largest-pivot,
# then smallest-index rule.  Each: (c, A, b, lo, hi), rows A x >= b; an
# upper-bound row a.x <= r is written -a.x >= -r.
DEGENERATE = {
    "vertex-2d": (
        [1.0, 1.0],
        [[-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, 1.0], [-2.0, -1.0],
         [-1.0, -2.0]],
        [-1.0, -0.5, -0.5, 0.0, -1.5, -1.5],
        [-2.0] * 2, [2.0] * 2),
    "duplicates": (
        [2.0, 3.0, 1.0],
        [[-1.0, -1.0, -1.0]] * 3 + [[1.0, -1.0, 0.0]] * 2
        + [[0.0, -1.0, -1.0], [0.0, -2.0, -2.0]],
        [-1.0] * 3 + [-1.0] * 2 + [-0.5, -1.0],
        [-1.0] * 3, [1.0] * 3),
    "cube-corner": (
        [1.0, 1.0, 1.0],
        [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
         [-1.0, -1.0, 0.0], [0.0, -1.0, -1.0], [-1.0, 0.0, -1.0],
         [-1.0, -1.0, -1.0]],
        [-1.0, -1.0, -1.0, -2.0, -2.0, -2.0, -3.0],
        [0.0] * 3, [5.0] * 3),
    # max-margin rows through the origin, as the candidate search builds
    # them: maximize delta with u.p - delta >= 0
    "margin-origin": (
        [0.0, 0.0, 0.0, 1.0],
        [list(u) + [-1.0] for u in _UNITS],
        [0.0] * len(_UNITS),
        [-1.0] * 3 + [-1.0 - 3 ** 0.5], [1.0] * 3 + [1.0 + 3 ** 0.5]),
    "row-generation": _row_generation_program(),
}

# Argmax, optimum and pivot count of each program above; the kernel must
# reproduce every bit and every pivot.  The first four were recorded when
# the solve began to start from the slack basis at the lower corner, with
# their upper-bound rows given as '<=' rows, and give the same bits and
# pivots as the '>=' rows above.  The row-generation program's golden was
# re-recorded when row generation began to keep each round's basis (dual
# simplex from the previous round's optimum): the same vertex and the same
# working subsets, 21 pivots instead of 28, and the last bits of the
# argmax and the optimum moved.  Recorded on x86-64 Linux with OpenBLAS.
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
    "margin-origin": (
        ["0x1.a827999fcef32p-2", "0x1.0000000000000p+0",
         "0x1.5f619980c4337p-3", "0x1.a827999fcef32p-2"],
        "0x1.a827999fcef32p-2", 6),
    "row-generation": (
        ["0x1.2323232323235p+0", "-0x1.a5a5a5a5a5a5ap+0",
         "0x1.2d2d2d2d2d2d7p+0", "0x1.da5a5a5a5a5a6p+0",
         "-0x1.0000000000000p+1", "0x1.f5f5f5f5f5f5cp-1"],
        "0x1.72fafafafafb0p+2", 21),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_programs(case):
    program = DEGENERATE[case]
    res = lp_max(*program)
    _check_against_scipy(*program, res, case)
    x, value, pivots = GOLDEN[case]
    assert (_hex(res.x), float(res.value).hex(), res.pivots) == \
        (x, value, pivots)


def _record_runs(monkeypatch):
    """Record each simplex run of ``lp._Working`` as (loop, working rows,
    pivots)."""
    runs = []
    primal, dual = lp._Working.primal, lp._Working.dual

    def recorded_primal(work):
        value, pivots = primal(work)
        runs.append(("primal", len(work.b), pivots))
        return value, pivots

    def recorded_dual(work):
        runs.append(("dual", len(work.b), dual(work)))
        return runs[-1][2]

    monkeypatch.setattr(lp._Working, "primal", recorded_primal)
    monkeypatch.setattr(lp._Working, "dual", recorded_dual)
    return runs


def test_row_generation_takes_several_rounds(monkeypatch):
    # the first round is one cold simplex run on the leading rows; each
    # later round restores feasibility by dual pivots and confirms the
    # optimum by one primal run on the grown subset
    runs = _record_runs(monkeypatch)
    res = lp_max(*DEGENERATE["row-generation"])
    assert [loop for loop, _, _ in runs] == ["primal"] + ["dual", "primal"] * 2
    sizes = [rows for loop, rows, _ in runs if loop == "primal"]
    assert sizes == [lp._ROW_BATCH, 46, 50]
    assert [rows for loop, rows, _ in runs if loop == "dual"] == sizes[1:]
    assert res.pivots == GOLDEN["row-generation"][2]
    # the basis handed on keeps the binding rows, one per basic structural
    c, A, b = DEGENERATE["row-generation"][:3]
    rows, basic = res.basis.rows, res.basis.basic
    assert len(rows) == len(basic) and np.all(basic < len(c))
    assert np.all(np.abs(A[rows] @ res.x - b[rows]) <= 1e-9)
    assert res.basis.at_hi.shape == (len(c) + len(rows),)


# violations with ties, both zeros, the 1e-9 threshold, infinities and nan
_VIOL = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 2e-9, 0.5, 1.0, -1.0, 3.0, np.inf,
                     -np.inf, np.nan]),
    st.floats(-4.0, 4.0))


@given(st.lists(st.tuples(_VIOL, st.booleans()), max_size=3 * lp._ROW_BATCH))
@settings(max_examples=500)
def test_row_pick_is_a_stable_sort_of_every_row(rows):
    # the rows row generation adds: the same as a stable sort of every
    # row by -viol, filtered to the untaken rows above 1e-9, cut at the batch
    viol = np.array([v for v, _ in rows], dtype=float)
    taken = np.array([t for _, t in rows], dtype=bool)
    order = np.argsort(-viol, kind="stable")
    want = order[viol[order] > 1e-9]
    want = want[~taken[want]][:lp._ROW_BATCH]
    got = lp._most_violated(viol, taken)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def _grown_programs(rng, trials):
    """Random programs above the first batch, each as a parent system and
    the rows a child adds to it; every row holds at the lower corner."""
    for trial in range(trials):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(lp._ROW_BATCH + 1, 200))
        extra = int(rng.integers(1, 6))
        c = rng.uniform(-2, 2, n)
        lo, hi = np.full(n, -2.0), np.full(n, 2.0)
        A, b = _corner_feasible_rows(rng, m + extra, lo, rng.uniform(-1, 1, n))
        yield trial, c, A[:m], b[:m], A[m:], b[m:], lo, hi


class TestWarmStart:
    def test_children_against_cold_and_scipy(self, rng, monkeypatch):
        # a child adds rows to its parent, in front of the parent's rows
        # (renumbered) or after them; warm from the parent's basis it
        # reaches the cold optimum
        runs = _record_runs(monkeypatch)
        for trial, c, A, b, A_new, b_new, lo, hi in _grown_programs(rng, 30):
            parent = lp_max(c, A, b, lo, hi)
            assert parent.basis is not None
            if trial % 2:
                A_child, b_child = np.vstack([A, A_new]), np.append(b, b_new)
                start = parent.basis
            else:
                A_child, b_child = np.vstack([A_new, A]), np.append(b_new, b)
                start = lp.Basis(parent.basis.rows + len(b_new),
                                 parent.basis.basic, parent.basis.at_hi)
            warm = lp_max(c, A_child, b_child, lo, hi, start)
            cold = lp_max(c, A_child, b_child, lo, hi)
            label = f"trial {trial}"
            assert warm.value == pytest.approx(cold.value, abs=1e-7), label
            _check_against_scipy(c, A_child, b_child, lo, hi, warm, label)
        # the added rows cut off most parents' optima
        assert sum(loop == "dual" and pivots > 0
                   for loop, _, pivots in runs) > 10

    def test_refactorisation_in_the_dual_loop(self, rng, monkeypatch):
        # every second pivot of a run refactorises the basis inverse and
        # prices again, in the dual loop as in the primal one; the warm
        # children still reach the cold optimum
        monkeypatch.setattr(lp, "_REFACTOR_EVERY", 2)
        runs = _record_runs(monkeypatch)
        for trial, c, A, b, A_new, b_new, lo, hi in _grown_programs(rng, 30):
            parent = lp_max(c, A, b, lo, hi)
            A_child, b_child = np.vstack([A, A_new]), np.append(b, b_new)
            warm = lp_max(c, A_child, b_child, lo, hi, parent.basis)
            cold = lp_max(c, A_child, b_child, lo, hi)
            label = f"trial {trial}"
            assert warm.value == pytest.approx(cold.value, abs=1e-7), label
            _check_against_scipy(c, A_child, b_child, lo, hi, warm, label)
        assert sum(loop == "dual" and pivots >= 2
                   for loop, _, pivots in runs) > 5

    def test_warm_solves_are_deterministic(self, rng):
        _, c, A, b, A_new, b_new, lo, hi = next(_grown_programs(rng, 1))
        parent = lp_max(c, A, b, lo, hi)
        A_child, b_child = np.vstack([A, A_new]), np.append(b, b_new)
        first = lp_max(c, A_child, b_child, lo, hi, parent.basis)
        second = lp_max(c, A_child, b_child, lo, hi, parent.basis)
        assert _hex(first.x) == _hex(second.x)
        assert float(first.value).hex() == float(second.value).hex()
        assert first.pivots == second.pivots
        for name in ("rows", "basic", "at_hi"):
            assert np.array_equal(getattr(first.basis, name),
                                  getattr(second.basis, name)), name

    @pytest.mark.parametrize("loop", ["primal", "dual"])
    def test_each_loop_past_the_cap_raises(self, monkeypatch, loop):
        # one cap for both loops: a run of one iteration can only find its
        # basis optimal (primal) or feasible (dual), so one that needs a
        # pivot raises
        c, A, b, lo, hi = DEGENERATE["row-generation"]
        work = lp._Working(c, A[:lp._ROW_BATCH], b[:lp._ROW_BATCH], lo, hi)
        if loop == "dual":
            work.primal()
            cut = (b - A @ work.x[:len(c)] > 1e-9).nonzero()[0][:5]
            work.add_rows(A[cut], b[cut])
        monkeypatch.setattr(lp._Working, "_cap", lambda work: 1)
        with pytest.raises(LPError, match="simplex iteration limit"):
            getattr(work, loop)()
        monkeypatch.undo()
        work.dual()
        work.primal()
        # at the optimum, one iteration of either loop is enough
        monkeypatch.setattr(lp._Working, "_cap", lambda work: 1)
        assert work.dual() == 0 and work.primal()[1] == 0

    @pytest.mark.parametrize("m", [0, 1, lp._ROW_BATCH, lp._ROW_BATCH + 1,
                                   240])
    def test_every_solve_hands_a_basis_on(self, m):
        # whatever the row count, the solve hands its final basis on, and
        # that basis given back with the same rows is optimal: no pivot
        c, A, b, lo, hi = DEGENERATE["row-generation"]
        A, b = A[:m], b[:m]
        res = lp_max(c, A, b, lo, hi)
        assert isinstance(res.basis, lp.Basis)
        again = lp_max(c, A, b, lo, hi, res.basis)
        assert again.pivots == 0
        assert again.value == pytest.approx(res.value, abs=1e-9)


def test_pivot_count():
    assert lp_max([2.0, -1.0], np.empty((0, 2)), [], [-3.0, -5.0],
                  [4.0, 6.0]).pivots == 0
