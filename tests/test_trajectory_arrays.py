"""Whole-trajectory array routes against the per-point routes they replaced.

The flow exports, the conservation report and the Lax check evaluate a
trajectory as stacked arrays.  The per-point loops they replaced are kept
here as oracles, and every comparison is bit for bit.  The Lax form is
the exception: its spectral route matches the per-time exp_map oracle
(oracles.closed_form_fiber_by_exp_map) within roundoff, and its stack
matches its own single times bit for bit.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3mag import exp_map
from su3mag.algebra import build_su3_gellmann
from su3mag.certify import action_functions
from su3mag.phase import (BLOCK_ROWS, FlowTrajectory, MagneticSystem,
                          PhasePoint, closed_form_fiber, conservation_report,
                          integral_values, integrate_flow,
                          su3_irregular_system, su3_regular_system)
from su3mag.poly import Polynomial
from su3mag.reports import (conservation_json, monitored_functions,
                            run_verification, trajectory_csv)
from su3mag.scalars import Scalar
from oracles import closed_form_fiber_by_exp_map, reference_float_evaluate

SYSTEMS = {"regular": su3_regular_system, "irregular": su3_irregular_system}


# ---------------------------------------------------------------------------
# oracles: the per-point routes
# ---------------------------------------------------------------------------

def _reference_value(fn, pt):
    """fn.values(pt), term by term (reference_float_evaluate)."""
    if fn.tag == "moment":
        return reference_float_evaluate(fn.h, pt.moment_coords)
    return reference_float_evaluate(fn.theta, pt.xi[pt.sys.m])


def _reference_conservation_report(traj, functions, stride=1):
    points = [traj.points[k] for k in range(0, len(traj.points), stride)]
    out = []
    for fn in functions:
        first = _reference_value(fn, points[0])
        drift = max(abs(_reference_value(fn, p) - first) for p in points)
        out.append({"function": fn.name, "initial": first,
                    "max_drift": drift})
    return out


def _reference_trajectory_csv(sys, traj, functions, stride=1, values=None):
    """The CSV, one repr per cell; the integral cells are the rows of
    ``values`` where given (the integrals of the strided points), each
    function's value at each point otherwise."""
    header = ["t"]
    for r in range(3):
        for c in range(3):
            header += [f"re_g{r}{c}", f"im_g{r}{c}"]
    header += [f"X_{name}" for name in sys.alg.coord_names]
    header += [f.name for f in functions]
    lines = [",".join(header)]
    for row, idx in enumerate(range(0, len(traj.points), stride)):
        p = traj.points[idx]
        cells = [repr(float(traj.times[idx]))]
        for r in range(3):
            for c in range(3):
                cells += [repr(float(p.G[r, c].real)),
                          repr(float(p.G[r, c].imag))]
        cells += [repr(float(x)) for x in p.X]
        if values is None:
            cells += [repr(float(_reference_value(f, p))) for f in functions]
        else:
            cells += [repr(float(v)) for v in values[row]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# steps of _flows: at stride 1 its rows span two row blocks of
# integral_values and of the flow's checks (300 steps at 256 rows a block)
FLOW_STEPS = BLOCK_ROWS + 44


def _flows(case, seed):
    """A flow as integrate_flow returns it, FLOW_STEPS steps of 1e-3."""
    sys = SYSTEMS[case](0.1)
    pt = sys.random_regular_point(np.random.default_rng(seed))
    return sys, pt, integrate_flow(sys, pt, t_end=FLOW_STEPS * 1e-3,
                                   dt=1e-3)


def _functions(sys):
    """The monitored family and the actions."""
    return monitored_functions(sys) + action_functions(sys)


def _assert_same_text(got, want):
    """got == want byte for byte.  A failure names the line counts and the
    first line that differs: pytest's diff of two whole exports takes
    about a minute."""
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
    pytest.fail(f"texts differ: {len(a)} against {len(b)} lines, first at "
                f"line {first + 1}: {a[first:first + 1]!r} against "
                f"{b[first:first + 1]!r}", pytrace=False)


# ---------------------------------------------------------------------------
# stacked routes == per-point routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["regular", "irregular"])
@pytest.mark.parametrize("seed", [9, 11])
def test_exports_match_the_per_point_routes(case, seed):
    sys, pt, traj = _flows(case, seed)
    fns = monitored_functions(sys)
    for stride in (1, 5, 7):
        _assert_same_text(trajectory_csv(sys, traj, fns, stride),
                          _reference_trajectory_csv(sys, traj, fns, stride))
        got = conservation_report(sys, traj, fns, stride)
        want = _reference_conservation_report(traj, fns, stride)
        assert repr(got) == repr(want)
        assert all(type(e["initial"]) is float
                   and type(e["max_drift"]) is float for e in got)
        text = conservation_json(sys, traj, fns, stride=stride)
        assert json.loads(text)["functions"] == [
            dict(e, **{"pass": e["max_drift"] < 1e-8}) for e in want]


def test_flow_exports_evaluate_the_integrals_once(monkeypatch):
    """The CSV rows and the conservation report of a flow read one
    read-only array of the strided integral values, computed once per
    stride and list of functions, bit for bit integral_values."""
    from su3mag import phase
    sys, pt, traj = _flows("irregular", 9)
    fns = monitored_functions(sys)
    want = {stride: integral_values(traj.points[::stride], fns)
            for stride in (1, 7)}
    calls = []

    def counted(points, functions):
        calls.append(len(points))
        return integral_values(points, functions)

    monkeypatch.setattr(phase, "integral_values", counted)
    for stride in (7, 1, 7):
        trajectory_csv(sys, traj, fns, stride)
        conservation_json(sys, traj, fns, stride=stride)
        V = traj.integral_values(fns, stride)
        assert _bits(V) == _bits(want[stride]) and not V.flags.writeable
    assert calls == [len(want[7]), len(want[1])]


def _crafted_values(n):
    """n rows of four integral columns: runs of repeats, 0.0 beside -0.0,
    NaNs of both signs among repeats, and distinct values."""
    runs = np.repeat([1.5, -2.25, 1 / 3, 1.5, 0.1 + 0.2],
                     -(-n // 5))[:n]
    zeros = np.resize([0.0, -0.0, -0.0, 5e-324, 0.0], n)
    nans = np.resize([np.nan, 2.0, 2.0, -np.nan, 1e300, 2.0], n)
    distinct = np.arange(n) * 0.1 - 7.0
    return np.column_stack([runs, zeros, nans, distinct])


def test_csv_integral_columns_are_every_cell_repr(monkeypatch):
    """Each integral cell of the CSV is the repr of its value, whatever
    the values repeat: runs, 0.0 and -0.0 in one column (equal floats
    with two reprs), NaNs, a column of distinct values; also with no
    functions and for a one-row export."""
    from su3mag import phase
    sys, pt, traj = _flows("irregular", 9)
    fns = monitored_functions(sys)[:4]
    crafted = {}

    def craft(points, functions):
        V = _crafted_values(len(points))[:, :len(functions)]
        crafted[len(points), len(functions)] = V
        return V

    monkeypatch.setattr(phase, "integral_values", craft)
    n = len(traj.points)
    for functions in (fns, []):
        for stride in (1, 7, n):
            text = trajectory_csv(sys, traj, functions, stride)
            V = crafted[len(range(0, n, stride)), len(functions)]
            _assert_same_text(text, _reference_trajectory_csv(
                sys, traj, functions, stride, values=V))
    one_row = trajectory_csv(sys, traj, fns, n)
    assert one_row.count("\n") == 2
    assert one_row.endswith(",1.5,0.0,nan,-7.0\n")
    zeros = [line.split(",")[-3] for line in
             trajectory_csv(sys, traj, fns, 1).splitlines()[1:6]]
    assert zeros == ["0.0", "-0.0", "-0.0", "5e-324", "0.0"]


@pytest.mark.parametrize("case", ["regular", "irregular"])
def test_trajectory_csv_peak_memory_is_bounded_by_its_text(case):
    """One trajectory_csv call of a 10k-step flow at stride 5 (seed 3),
    its integral values computed first, allocates at its peak at most
    2.6 times the length of its text: the rows are formatted one at a
    time, never as one float list of the whole table."""
    sys = SYSTEMS[case](0.1)
    pt = sys.random_regular_point(np.random.default_rng(3))
    traj = integrate_flow(sys, pt, t_end=10.0, dt=1e-3)
    fns = monitored_functions(sys)
    traj.integral_values(fns, 5)
    tracemalloc.start()
    try:
        text = trajectory_csv(sys, traj, fns, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 2002
    assert peak <= 2.6 * len(text)


@pytest.mark.parametrize("case", ["regular", "irregular"])
@pytest.mark.parametrize("seed", [9, 11])
def test_integral_values_match_value_at_each_point(case, seed):
    sys, pt, traj = _flows(case, seed)
    fns = _functions(sys)
    want = np.array([[f.values(p) for f in fns] for p in traj.points])
    for stack in (traj.points, PhasePoint.of(sys, list(traj.points))):
        assert _bits(integral_values(stack, fns)) == _bits(want)
    thin = traj.points[::7]
    assert _bits(integral_values(thin, fns)) == _bits(want[::7])


@pytest.mark.parametrize("case", ["regular", "irregular"])
@pytest.mark.parametrize("seed", [9, 11])
def test_stacked_lax_form_matches_one_time_at_a_time(case, seed):
    """Row k of a stack is bit for bit the Lax form at time k alone, and
    within roundoff of the per-time exp_map oracle."""
    sys, pt, traj = _flows(case, seed)
    for stride in (1, 5, 7):
        times = traj.times[::stride]
        got = closed_form_fiber(sys, pt, times)
        alone = np.array([closed_form_fiber(sys, pt, t) for t in times])
        assert got.shape == alone.shape and _bits(got) == _bits(alone)
        want = np.array([closed_form_fiber_by_exp_map(sys, pt, t)
                         for t in times])
        assert np.abs(got - want).max() < 1e-14
    t = traj.times[123]
    assert closed_form_fiber(sys, pt, t).shape == (sys.alg.dim,)


def _off_diagonal_system(eps):
    """su(3) over the torus of W = e1 = -i lambda_1 (Gell-Mann basis): the
    eigenvectors U of its matrix mix the basis, and U* != U, so U* M(X0) U
    differs from U M(X0) U*.  The matrices of the shipped W are diagonal,
    with U = I."""
    return MagneticSystem(build_su3_gellmann(), [1] + [0] * 7, eps, "e1")


@pytest.mark.parametrize("make", [su3_regular_system, su3_irregular_system,
                                  _off_diagonal_system])
def test_lax_form_matches_the_exp_map_oracle_to_t_10(make):
    sys = make(0.1)
    pt = sys.random_point(np.random.default_rng(5))
    times = np.linspace(0.0, 10.0, 101)
    want = np.array([closed_form_fiber_by_exp_map(sys, pt, t)
                     for t in times])
    assert np.abs(closed_form_fiber(sys, pt, times) - want).max() < 1e-14


def test_the_lax_form_is_independent_of_the_flow_driver(monkeypatch):
    """closed_form_fiber reads the matrix of W, not the RK4 driver's ad W:
    with sys._adW doubled, integrate_flow's fiber moves and the Lax form
    keeps its bits."""
    sys, pt, traj = _flows("irregular", 9)
    before = closed_form_fiber(sys, pt, traj.times)
    monkeypatch.setattr(sys, "_adW", 2.0 * sys._adW)
    moved = integrate_flow(sys, pt, t_end=FLOW_STEPS * 1e-3, dt=1e-3)
    assert np.abs(moved.points.X - traj.points.X).max() > 1e-3
    assert _bits(closed_form_fiber(sys, pt, traj.times)) == _bits(before)


# ---------------------------------------------------------------------------
# NaN along a flow
# ---------------------------------------------------------------------------

def _with_nan_row(sys, traj, row):
    """A copy of a flow whose point ``row`` has a NaN on an m-coordinate."""
    X = traj.points.X.copy()
    X[row, sys.m[0]] = np.nan
    points = PhasePoint.prevalidated(sys, traj.points.G, X)
    return FlowTrajectory(times=traj.times, points=points, dt=traj.dt)


def test_conservation_json_fails_a_nan_in_the_middle_point():
    sys = su3_irregular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(4))
    traj = integrate_flow(sys, pt, t_end=0.002, dt=1e-3)
    bad = _with_nan_row(sys, traj, 1)
    fns = monitored_functions(sys)
    doc = json.loads(conservation_json(sys, bad, fns))
    assert len(bad.points) == 3 and doc["nsteps"] == 2
    entries = {e["function"]: e for e in doc["functions"]}
    # R and the moment coordinates all read the NaN coordinate
    for name in ("P1", "P4", "P8", "R"):
        assert math.isnan(entries[name]["max_drift"])
        assert entries[name]["pass"] is False
    # a Python max over the points drops the NaN and passes
    old = {e["function"]: e for e in _reference_conservation_report(bad, fns)}
    assert old["R"]["max_drift"] < 1e-8


def test_flow_checks_of_run_verification_fail_on_nan(monkeypatch):
    from su3mag import reports

    def flow_with_nan(sys, pt0, t_end, dt):
        traj = integrate_flow(sys, pt0, t_end=t_end, dt=dt)
        return _with_nan_row(sys, traj, len(traj.points) // 2)

    monkeypatch.setattr(reports, "integrate_flow", flow_with_nan)
    config = reports.default_config("irregular")
    config.update(samples=1, rank_samples=1, t_end=0.01, seed=3)
    report = run_verification(config)
    checks = {c.name: c for c in report.checks}
    for name in ("flow_conservation_max_drift",
                 "flow_fiber_vs_lax_closed_form"):
        assert math.isnan(checks[name].observed)
        assert checks[name].passed is False


def test_drift_guard_rejects_a_nan_fiber():
    sys = su3_regular_system(0.1)
    pt = sys.random_regular_point(np.random.default_rng(2))
    X = pt.X.copy()
    X[sys.m[0]] = np.nan
    bad = PhasePoint(sys, pt.G, X)
    with pytest.raises(RuntimeError, match="step 0"):
        integrate_flow(sys, bad, t_end=0.01, dt=1e-3)


# ---------------------------------------------------------------------------
# the stacked kernels
# ---------------------------------------------------------------------------

_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -0.5]),
                    st.floats(min_value=-50.0, max_value=50.0))
_COEFFS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=7).map(Scalar),
    st.fractions(min_value=-3, max_value=3, max_denominator=5)
    .map(Scalar.sqrt3),
    st.builds(Scalar, *[st.fractions(min_value=-3, max_value=3,
                                     max_denominator=5)] * 2))


@st.composite
def _poly_and_points(draw):
    nvars = draw(st.integers(1, 4))
    names = tuple(f"x{i}" for i in range(nvars))
    expo = st.tuples(*[st.integers(0, 6)] * nvars)
    terms = draw(st.dictionaries(expo, _COEFFS, max_size=6))
    rows = draw(st.lists(st.lists(_COORDS, min_size=nvars, max_size=nvars),
                         min_size=1, max_size=6))
    return Polynomial(names, terms), np.array(rows, dtype=float)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_poly_and_points())
def test_stacked_evaluation_is_the_float_branch_bit_for_bit(case):
    poly, points = case
    stacked = poly.evaluate_stack(points)
    single = [poly.evaluate(row) for row in points]
    assert all(type(v) is float for v in single)
    assert _bits(stacked) == _bits(single)
    assert _bits(single) == _bits([reference_float_evaluate(poly, row)
                                   for row in points])


def test_stacked_evaluation_checks_its_shape():
    poly = Polynomial(("x", "y"), {(1, 2): Scalar(Fraction(1, 3))})
    with pytest.raises(ValueError):
        poly.evaluate_stack(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        poly.evaluate_stack(np.zeros(2))


def test_stacked_exp_map_matches_and_refuses_any_non_anti_hermitian():
    sys = su3_regular_system(0.1)
    alg = sys.alg
    coords = np.random.default_rng(8).uniform(-2, 2, (40, alg.dim))
    stack = alg.matrix_of(coords)
    got = exp_map(alg, stack)
    assert got.shape == (40, 3, 3)
    want = np.array([exp_map(alg, c).matrix for c in coords])
    assert _bits(got.view(float)) == _bits(want.view(float))
    bad = stack.copy()
    bad[17] += 0.1 * np.eye(3)  # i * (0.1 I) is not Hermitian
    with pytest.raises(ValueError, match="anti-Hermitian"):
        exp_map(alg, bad)
    with pytest.raises(ValueError, match="anti-Hermitian"):
        exp_map(alg, bad[17])



def test_both_evaluation_routes_raise_on_an_overflowing_power():
    """An overflowing power (x^2) or product (x*y) at a finite point is an
    OverflowError on both routes; finite values and an infinite input are
    evaluated as before."""
    square = Polynomial(("x",), {(2,): Scalar(1)})
    product = Polynomial(("x", "y"), {(1, 1): Scalar(1)})
    for poly, big, fine in ((square, [1e200], [3.0]),
                            (product, [1e200, 1e200], [3.0, -2.5])):
        with pytest.raises(OverflowError):
            poly.evaluate(big)
        with pytest.raises(OverflowError):
            poly.evaluate_stack(np.array([fine, big]))
        inf = [np.inf] * len(fine)
        assert poly.evaluate_stack(np.array([fine, inf])).tolist() == \
            [poly.evaluate(fine), poly.evaluate(inf)]
