"""The CLI's input domain as a property.

Argument lists for ``verify``, ``iterate``, ``bernstein`` and ``fbvp`` are
drawn inside and outside each parameter's domain and run in-process.  No
run may end in a traceback; a run exits 2, with an ``error:`` line,
exactly when some value lies outside its domain, and 0, 1 or 3 otherwise
(0 or 3 for ``bernstein``, whose valid runs converge or use up the budget).

Each domain is written out here, as the oracle, apart from the checks the
package makes.  Draws are bounded so that every run is short: degree
n <= 200, grid panels m <= 400, bernstein grid <= 201 points, and ternary
depths from 3..50, 640..650 and 9013.
"""

import json
import math
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfix.cli import main
from graphfix.problems import problem_to_dict, ternary_orbit_problem

_NAN, _INF = float("nan"), float("inf")

# PROBLEM: the ternary orbit builtins with their default depths, the
# identity builtin, and problem files written by the fixture below:
# ternary-6.json holds the depth-6 ternary orbit, twin.json puts two labels
# at one point and subnormal.json two at a distance below the smallest
# normal double, so neither of those holds a metric space.
_TERNARY_DEPTH = {"example-3-3": 12, "example-3-5": 12, "kamran-counterexample": 4}
_FILE_DEPTH = 6
_GOOD_PROBLEMS = [*_TERNARY_DEPTH, "identity", "ternary-6.json"]
_BAD_PROBLEMS = ["twin.json", "subnormal.json", "missing.json", "no-such-problem"]
_LABELS = ["0", "1", "1/3", "1/9", "1/27", "1/4", "1/2", "nowhere"]

_NOT_POSITIVE = st.sampled_from([0.0, -0.0, -1e-300, -1.0, _NAN, _INF, -_INF])
_NEGATIVE = st.integers(-5, -1)

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    home = tmp_path_factory.mktemp("domain")
    valid = problem_to_dict(ternary_orbit_problem(_FILE_DEPTH))
    # 1/729 moves next to "0", at 0.0: onto it, or a subnormal distance off
    twin = json.loads(json.dumps(valid))
    twin["points"][-1]["coord"] = [0.0]
    subnormal = json.loads(json.dumps(valid))
    subnormal["points"][-1]["coord"] = [1e-310]
    for name, data in (("ternary-6.json", valid), ("twin.json", twin),
                       ("subnormal.json", subnormal)):
        (home / name).write_text(json.dumps(data))
    return home


class _Args:
    """One argument list being drawn, and whether all of it lies in the
    domain.  Half the lists keep every value inside; in the others each
    option may also take a value outside its domain."""

    def __init__(self, draw, command):
        self.draw = draw
        self.strict = draw(st.booleans())
        self.words = [command]
        self.ok = True

    def option(self, flag, inside, outside, required=False):
        """Give ``flag`` a value inside or outside its domain, or omit it (a
        strict list omits only an optional one); returns the value, None
        when omitted."""
        kinds = ["inside"] + ([] if required else ["omit"])
        kind = self.draw(st.sampled_from(kinds + ([] if self.strict else ["inside", "outside"])))
        if kind == "omit":
            self.ok = self.ok and not required
            return None
        value = self.draw(inside if kind == "inside" else outside)
        self.words += [flag, repr(value) if isinstance(value, float) else str(value)]
        self.ok = self.ok and kind == "inside"
        return value

    def problem(self, files):
        """PROBLEM and --truncate: a builtin or a metric problem file, and a
        depth of 3..644 for a ternary builtin only.  Returns the ternary
        depth the problem stands for, None for the identity problem."""
        names = _GOOD_PROBLEMS + ([] if self.strict else _BAD_PROBLEMS)
        name = self.draw(st.sampled_from(names))
        self.words.append(str(files / name) if name.endswith(".json") else name)
        self.ok = self.ok and name in _GOOD_PROBLEMS
        if name in _TERNARY_DEPTH:
            inside = st.one_of(st.integers(3, 50), st.integers(640, 644))
            outside = st.one_of(st.integers(645, 650), st.just(9013))
            depth = self.option("--truncate", inside, outside)
            return _TERNARY_DEPTH[name] if depth is None else depth
        if not self.strict and self.draw(st.booleans()):
            # only the ternary builtins take a depth
            self.words += ["--truncate", str(self.draw(st.integers(3, 50)))]
            self.ok = False
        return _FILE_DEPTH if name.endswith(".json") else None


def _ternary_value(label: str, depth: int):
    """The point of a ternary orbit label, as an exact Fraction, or None."""
    if label in ("0", "1"):
        return Fraction(int(label))
    for k in range(1, depth + 1):
        if label == f"1/{3**k}":
            return Fraction(1, 3**k)
    return None


def _start_ok(depth, w0: str, p0: str) -> bool:
    """Whether (w0, p0) starts a walk: p0 in F(w0) and (f(w0), p0) an edge.
    The ternary orbit: f divides by 3 (1 goes to 1/3, 1/3^depth is clamped
    to 0), F(0) = {0, 1/3}, F(1) = {0}, F(1/3^k) = {1/3, 1/3^(k+2)} with
    the second member clamped to 0 past the depth, and an edge joins points
    closer than 1/9.  The identity problem: f = id, F(w) = {w}, every pair
    an edge, on the labels 0, 1/4, 1/2, 3/4 and 1."""
    if depth is None:
        return w0 == p0 and w0 in ("0", "1/4", "1/2", "3/4", "1")
    w, p = _ternary_value(w0, depth), _ternary_value(p0, depth)
    if w is None or p is None:
        return False
    if w == 0:
        fw, F = Fraction(0), {Fraction(0), Fraction(1, 3)}
    elif w == 1:
        fw, F = Fraction(1, 3), {Fraction(0)}
    else:
        k = round(math.log(w.denominator, 3))
        fw = w / 3 if k < depth else Fraction(0)
        F = {Fraction(1, 3), w / 9 if k + 2 <= depth else Fraction(0)}
    return p in F and (fw == p or abs(fw - p) < Fraction(1, 9))


@st.composite
def _verify(draw, files):
    args = _Args(draw, "verify")
    kamran = draw(st.booleans())
    args.problem(files)
    if kamran:
        args.words.append("--kamran")
    args.option("--M", st.floats(0.0, 1e300), st.sampled_from([-1e-300, -1.0, _NAN, _INF]))
    args.option("--kamran-sup", st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from([1.0, 1.5, -0.1, _NAN, _INF]))
    return args.words, args.ok


@st.composite
def _iterate(draw, files):
    args = _Args(draw, "iterate")
    depth = args.problem(files)
    # the start's domain is joint: an omitted half takes the problem's own
    w0, p0 = (draw(st.one_of(st.none(), st.sampled_from(_LABELS))) for _ in "wp")
    args.words += [*(["--w0", w0] if w0 else []), *(["--p0", p0] if p0 else [])]
    if args.ok:
        default = ("0", "0") if depth is None else ("1/3", "1/27")
        args.ok = _start_ok(depth, w0 or default[0], p0 or default[1])
    for flag in ("--tol", "--residual-tol"):
        args.option(flag, st.floats(1e-300, 1e300), _NOT_POSITIVE)
    args.option("--max-iter", st.integers(0, 10**6), _NEGATIVE)
    return args.words, args.ok


@st.composite
def _bernstein(draw):
    args = _Args(draw, "bernstein")
    args.option("--n", st.one_of(st.integers(1, 8), st.integers(1, 200)), st.integers(-3, 0),
                required=True)
    args.option(
        "--q", st.one_of(st.floats(1e-300, 1e300), st.floats(0.1, 10.0),
                         st.sampled_from([1.0, 1 - 1e-7, 1 + 1e-7])),
        st.sampled_from([0.0, -0.5, _NAN, _INF, -_INF]), required=True)
    args.option("--phi", st.sampled_from(["square", "cube", "sin"]), st.just("no-such-phi"))
    args.option("--tol", st.floats(1e-14, 1e300), _NOT_POSITIVE)
    args.option("--max-iter", st.integers(0, 3000), _NEGATIVE)
    args.option("--grid", st.integers(1, 201), st.integers(-2, 0))
    return args.words, args.ok


@st.composite
def _fbvp(draw):
    args = _Args(draw, "fbvp")
    args.option("--beta", st.floats(1.0, 1e300, exclude_min=True),
                st.sampled_from([1.0, 0.5, -2.0, _NAN, _INF]), required=True)
    args.option("--forcing", st.sampled_from(["sin-pi", "const", "linear-w"]),
                st.just("no-such-forcing"))
    args.option("--m", st.integers(1, 200).map(lambda k: 2 * k),
                st.one_of(st.integers(-3, 1), st.integers(1, 199).map(lambda k: 2 * k + 1)))
    # the residual tolerance is 10 tol, and must be finite too
    args.option("--tol", st.floats(1e-12, 1e300),
                st.sampled_from([0.0, -1.0, _NAN, _INF, 1e308]))
    args.option("--max-iter", st.integers(0, 200), _NEGATIVE)
    return args.words, args.ok


def _check(out_dir, words, in_domain, inside=(0, 1, 3)):
    res = CliRunner().invoke(main, ["--out", str(out_dir), *words])
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        words, res.exc_info)
    assert "Traceback" not in res.output
    # click words its own usage errors (a missing required option) "Error:"
    errors = re.findall(r"^(?:error|Error): .*$", res.stderr, re.MULTILINE)
    if in_domain:
        assert res.exit_code in inside, (words, res.output)
    else:
        assert res.exit_code == 2 and errors, (words, res.output)


_RUNS = 60


@settings(max_examples=_RUNS, deadline=None)
@given(data=st.data())
def test_verify_exits_2_exactly_outside_the_domain(files, data):
    _check(files / "out", *data.draw(_verify(files)))


@settings(max_examples=_RUNS, deadline=None)
@given(data=st.data())
def test_iterate_exits_2_exactly_outside_the_domain(files, data):
    _check(files / "out", *data.draw(_iterate(files)))


@settings(max_examples=_RUNS, deadline=None)
@given(case=_bernstein())
def test_bernstein_exits_2_exactly_outside_the_domain(files, case):
    _check(files / "out", *case, inside=(0, 3))


@settings(max_examples=_RUNS, deadline=None)
@given(case=_fbvp())
def test_fbvp_exits_2_exactly_outside_the_domain(files, case):
    _check(files / "out", *case)
