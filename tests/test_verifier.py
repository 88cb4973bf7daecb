import random

import pytest

from graphfix.engine import run_coincidence_iteration
from graphfix.errors import DomainError
from graphfix.metric import (
    ClosedSet,
    EdgeStructure,
    FiniteMetricSpace,
    Gauge,
    hausdorff_distance,
    point_to_set_distance,
    validate_pair,
)
from graphfix.problems import (
    identity_problem,
    random_ladder_problem,
    ternary_orbit_problem,
)
from graphfix.serialize import json_dumps
from graphfix.verifier import (
    HypothesisReport,
    KamranReport,
    best_approximant_set,
    enumerate_coincidence_points,
    verify_coincidence_hypotheses,
    verify_invariant_approx_hypotheses,
    verify_kamran_inequality,
)

TOL = 1e-12
_SLACK = 1e-12


# --- loop oracles: the checks as label loops, the form that defines them -------

def _reference_hypotheses(space, f, F, edges, gauge, truncated=frozenset()):
    pair = validate_pair(space, f, F)
    fmap, sets = pair.f, pair.F
    images = {w: Z.members for w, Z in sets.items()}
    truncated = frozenset(truncated)
    report = HypothesisReport(range_ok=not pair.misses)
    for u, y in pair.misses:
        report.witnesses.append({"condition": "range", "u": u, "member": y})

    for v in space.labels:
        fv = fmap[v]
        for w in space.labels:
            if w in truncated:
                continue
            fw = fmap[w]
            if fw not in images[v]:
                continue
            if not edges.contains(fv, fw):
                continue
            d = space.distance(fv, fw)
            D = point_to_set_distance(fw, sets[w], space)
            bound = gauge(d) * d
            if D > bound + _SLACK:
                report.condition_i_ok = False
                report.witnesses.append(
                    {"condition": "i", "v": v, "w": w, "fv": fv, "fw": fw,
                     "d": d, "D": D, "bound": bound}
                )
            for p in space.labels:
                fp = fmap[p]
                if fp not in images[w]:
                    continue
                if space.distance(fw, fp) > d + _SLACK:
                    continue
                if not edges.contains(fw, fp):
                    report.condition_ii_ok = False
                    report.witnesses.append(
                        {"condition": "ii", "v": v, "w": w, "p": p, "fw": fw,
                         "fp": fp, "d_fw_fp": space.distance(fw, fp), "d": d}
                    )

    for w0 in space.labels:
        for p0 in images[w0]:
            if edges.contains(fmap[w0], p0):
                report.start_exists = True
                report.admissible_start = (w0, p0)
                break
        if report.start_exists:
            break
    if not report.start_exists:
        report.witnesses.append(
            {"condition": "start", "detail": "no admissible (w0, p0) pair"}
        )
    return report


def _reference_kamran(space, f, F, gauge, M=0.0):
    pair = validate_pair(space, f, F)
    fmap, images = pair.f, pair.F
    report = KamranReport(holds=True, M=float(M))
    for v in space.labels:
        for w in space.labels:
            H = hausdorff_distance(images[v], images[w], space)
            d = space.distance(fmap[v], fmap[w])
            D = point_to_set_distance(fmap[v], images[w], space)
            rhs = gauge(d) * d + M * D
            if H > rhs + _SLACK:
                report.holds = False
                report.witnesses.append(
                    {"v": v, "w": w, "H": H, "d": d, "D": D, "lhs": H, "rhs": rhs}
                )
    return report


def _assert_matches_oracles(space, f, F, edges, gauge, truncated=frozenset(),
                            Ms=(0.0, 0.7)):
    """Both verifiers equal their loop oracles, down to the written JSON."""
    got = verify_coincidence_hypotheses(space, f, F, edges, gauge, truncated)
    want = _reference_hypotheses(space, f, F, edges, gauge, truncated)
    assert got.to_dict() == want.to_dict()
    assert json_dumps(got.to_dict()) == json_dumps(want.to_dict())
    for M in Ms:
        got = verify_kamran_inequality(space, f, F, gauge, M=M)
        want = _reference_kamran(space, f, F, gauge, M=M)
        assert got.to_dict() == want.to_dict()
        assert json_dumps(got.to_dict()) == json_dumps(want.to_dict())


# --- verify_coincidence_hypotheses -------------------------------------------

def test_ternary_orbit_hypotheses_all_true():
    p = ternary_orbit_problem(12)
    rep = verify_coincidence_hypotheses(
        p.space, p.f, p.F, p.edges, p.gauge, truncated=p.truncated
    )
    assert rep.all_ok
    assert rep.witnesses == []
    assert rep.admissible_start is not None


def test_identity_pair_hypotheses_all_true():
    p = identity_problem()
    rep = verify_coincidence_hypotheses(p.space, p.f, p.F, p.edges, p.gauge)
    assert rep.all_ok


def test_tiny_gauge_breaks_condition_i():
    p = ternary_orbit_problem(12)
    rep = verify_coincidence_hypotheses(
        p.space, p.f, p.F, p.edges, Gauge.constant(0.01), truncated=p.truncated
    )
    assert not rep.condition_i_ok
    hits = [
        w
        for w in rep.witnesses
        if w["condition"] == "i" and w["v"] == "1/3" and w["fw"] == "1/27"
    ]
    assert hits
    # D(1/27, {1/3, 1/81}) = 2/81 exceeds 0.01 * d(1/9, 1/27)
    assert abs(hits[0]["D"] - 2.0 / 81.0) < TOL
    assert hits[0]["D"] > hits[0]["bound"]


def _missing_edge_case():
    # one ladder step whose follow-up edge is removed from an explicit list
    labels = ["a", "b", "c"]
    space = FiniteMetricSpace.from_coords(labels, [0.0, 1.0, 1.5])
    f = {s: s for s in labels}
    F = {"a": ["b"], "b": ["c"], "c": ["c"]}
    edges = EdgeStructure.from_pairs(space, [("a", "b")])  # (b, c) missing
    return space, f, F, edges, Gauge.constant(0.9)


def _range_miss_case():
    labels = ["a", "b"]
    space = FiniteMetricSpace.from_coords(labels, [0.0, 1.0])
    f = {"a": "a", "b": "a"}  # range of f is {a}
    F = {"a": ["b"], "b": ["a"]}
    return space, f, F, EdgeStructure.ball(space, 2.0), Gauge.constant(0.5)


def test_condition_ii_detects_missing_edge():
    rep = verify_coincidence_hypotheses(*_missing_edge_case())
    assert not rep.condition_ii_ok
    assert any(w["condition"] == "ii" for w in rep.witnesses)


def test_condition_ii_slack_admits_rounding_ties():
    # d(b, c) = 0.2 exceeds d(a, b) = 0.3 - 0.1 = 0.19999999999999998 by
    # rounding only, so the missing edge (b, c) must still be reported
    labels = ["a", "b", "c"]
    space = FiniteMetricSpace.from_coords(labels, [0.1, 0.3, 0.5])
    assert space.distance("b", "c") > space.distance("a", "b")
    f = {s: s for s in labels}
    F = {"a": ["b"], "b": ["c"], "c": ["c"]}
    edges = EdgeStructure.from_pairs(space, [("a", "b")])
    rep = verify_coincidence_hypotheses(space, f, F, edges, Gauge.constant(0.99))
    ii = [(w["v"], w["w"], w["p"]) for w in rep.witnesses if w["condition"] == "ii"]
    assert ii == [("a", "b", "c")]
    _assert_matches_oracles(space, f, F, edges, Gauge.constant(0.99))


def test_range_condition_reported():
    rep = verify_coincidence_hypotheses(*_range_miss_case())
    assert not rep.range_ok
    assert any(w["condition"] == "range" and w["member"] == "b" for w in rep.witnesses)


# --- agreement with the loop oracles -------------------------------------------

def test_verifiers_match_oracles_on_random_ladders():
    rng = random.Random(4242)
    for _ in range(40):
        p = random_ladder_problem(rng)
        _assert_matches_oracles(p.space, p.f, p.F, p.edges, p.gauge, p.truncated)


@pytest.mark.parametrize("k", [0.01, 1.0 / 3.0, 0.999])
@pytest.mark.parametrize("cut", [True, False])
def test_verifiers_match_oracles_on_ternary_orbit(k, cut):
    p = ternary_orbit_problem(12)
    truncated = p.truncated if cut else frozenset()
    _assert_matches_oracles(p.space, p.f, p.F, p.edges, Gauge.constant(k), truncated)


def test_verifiers_match_oracles_on_missing_edge_and_range_miss():
    _assert_matches_oracles(*_missing_edge_case())
    _assert_matches_oracles(*_range_miss_case())


def test_verifiers_match_oracles_with_piecewise_gauge():
    p = ternary_orbit_problem(12)
    gauge = Gauge.piecewise([0.0, 0.01, 1.0 / 9.0, 0.3], [0.05, 0.4, 0.2, 0.9], sup=0.9)
    # a breakpoint value hit exactly belongs to the interval on its right
    assert gauge(1.0 / 9.0) == 0.2
    for edges in (p.edges, EdgeStructure.ball(p.space, 0.5)):
        _assert_matches_oracles(p.space, p.f, p.F, edges, gauge, p.truncated)


def test_verifiers_match_oracles_when_an_image_holds_every_label():
    rng = random.Random(31)
    labels = [f"x{i}" for i in range(30)]
    space = FiniteMetricSpace.from_coords(
        labels, [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in labels]
    )
    f = {s: rng.choice(labels) for s in labels}
    F = {s: rng.sample(labels, rng.randint(1, 3)) for s in labels}
    F[labels[4]] = labels[::-1]  # every label, in reverse order
    F[labels[9]] = labels
    edges = EdgeStructure.from_pairs(
        space, [(u, v) for u in labels for v in labels if rng.random() < 0.6]
    )
    gauge = Gauge.piecewise([0.0, 0.5], [0.3, 0.8], sup=0.8)
    _assert_matches_oracles(space, f, F, edges, gauge, frozenset(labels[:3]))


def test_verifiers_match_oracles_on_unstructured_problems():
    # arbitrary f, F, list edges and gauges: every flag and witness kind shows up
    rng = random.Random(17)
    kinds = set()
    for _ in range(40):
        n = rng.randint(1, 9)
        labels = [f"q{i}" for i in range(n)]
        # tenths make near-ties that only the comparison slack resolves
        space = FiniteMetricSpace.from_coords(labels, [rng.randint(0, 8) / 10.0
                                                        for _ in range(n)])
        f = {s: rng.choice(labels) for s in labels}
        F = {s: rng.sample(labels, rng.randint(1, n)) for s in labels}
        pairs = [(u, v) for u in labels for v in labels if rng.random() < 0.5]
        edges = (EdgeStructure.from_pairs(space, pairs) if rng.random() < 0.7
                 else EdgeStructure.ball(space, rng.uniform(0.0, 2.0)))
        gauge = rng.choice([Gauge.constant(rng.uniform(0, 0.99)),
                            Gauge.piecewise([0.0, 1.0 / 3.0], [0.9, 0.1], sup=0.9)])
        truncated = frozenset(rng.sample(labels, rng.randint(0, 1)))
        _assert_matches_oracles(space, f, F, edges, gauge, truncated)
        rep = verify_coincidence_hypotheses(space, f, F, edges, gauge, truncated)
        kinds.update(w["condition"] for w in rep.witnesses)
    assert kinds == {"range", "i", "ii"}


# --- verify_kamran_inequality -------------------------------------------------

def test_kamran_violated_on_ternary_pair():
    p = ternary_orbit_problem(12)
    rep = verify_kamran_inequality(p.space, p.f, p.F, Gauge.constant(0.999), M=0.0)
    assert not rep.holds
    hits = [w for w in rep.witnesses if (w["v"], w["w"]) == ("0", "1")]
    assert hits
    w = hits[0]
    assert abs(w["H"] - 1.0 / 3.0) < TOL
    assert abs(w["d"] - 1.0 / 3.0) < TOL
    assert w["D"] == 0.0


def test_kamran_constant_images_always_hold():
    labels = ["a", "b", "c"]
    space = FiniteMetricSpace.from_coords(labels, [0.0, 1.0, 3.0])
    f = {s: s for s in labels}
    F = {s: ["a", "c"] for s in labels}  # constant set-valued map: H = 0
    rep = verify_kamran_inequality(space, f, F, Gauge.constant(0.0), M=0.0)
    assert rep.holds


def test_kamran_single_valued_contraction_through_f():
    # F(v) = {g(v)} with g a 0.5-contraction of the f-images: stepping down
    # a ratio-0.3 ladder shrinks every pair distance by at most 0.3/0.7
    labels = [f"x{i}" for i in range(6)]
    values = [2.0 * 0.3**i for i in range(5)] + [0.0]
    space = FiniteMetricSpace.from_coords(labels, values)
    f = {s: s for s in labels}
    succ = {labels[i]: labels[i + 1] for i in range(5)}
    succ[labels[5]] = labels[5]
    F = {s: [succ[s]] for s in labels}
    rep = verify_kamran_inequality(space, f, F, Gauge.constant(0.5), M=0.0)
    # brute force over all ordered pairs is the check itself; it must hold
    assert rep.holds, rep.witnesses[:3]


def test_kamran_with_m_zero_implies_condition_i_complete_graph():
    rng = random.Random(7)
    for _ in range(25):
        L = rng.randint(3, 8)
        r = rng.uniform(0.1, 0.3)
        labels = [f"x{i}" for i in range(L)] + ["end"]
        values = [rng.uniform(0.5, 2.0) * r**i for i in range(L)] + [0.0]
        values = sorted(set(values), reverse=True)
        labels = labels[: len(values)]
        space = FiniteMetricSpace.from_coords(labels, values)
        f = {s: s for s in labels}
        succ = {labels[i]: labels[i + 1] for i in range(len(labels) - 1)}
        succ[labels[-1]] = labels[-1]
        F = {s: [succ[s]] for s in labels}
        gauge = Gauge.constant(min(0.95, r / (1 - r) + 0.05))
        kam = verify_kamran_inequality(space, f, F, gauge, M=0.0)
        if not kam.holds:
            continue
        rep = verify_coincidence_hypotheses(
            space, f, F, EdgeStructure.ball(space, 10.0), gauge
        )
        assert rep.condition_i_ok


# --- enumerate_coincidence_points ----------------------------------------------

def test_enumerate_on_ternary_orbit():
    p = ternary_orbit_problem(12)
    cs = enumerate_coincidence_points(p.space, p.f, p.F)
    assert "0" in cs.coincidence
    assert cs.common_fixed == ("0",)


def test_enumerate_identity_everywhere():
    p = identity_problem()
    cs = enumerate_coincidence_points(p.space, p.f, p.F)
    assert cs.coincidence == p.space.labels
    assert cs.common_fixed == p.space.labels


def _oracle_coincidence_scan(labels, f, F):
    """Second, independently coded scan over index pairs."""
    coin, common = [], []
    for i in range(len(labels)):
        w = labels[i]
        found = False
        for member in F[w].members if hasattr(F[w], "members") else F[w]:
            if f[w] == member:
                found = True
        if found:
            coin.append(w)
            if w == f[w]:
                common.append(w)
    return tuple(coin), tuple(common)


def test_enumerate_matches_independent_scan():
    rng = random.Random(99)
    for _ in range(40):
        p = random_ladder_problem(rng, max_points=10)
        cs = enumerate_coincidence_points(p.space, p.f, p.F)
        coin, common = _oracle_coincidence_scan(p.space.labels, p.f, p.F)
        assert cs.coincidence == coin
        assert cs.common_fixed == common


# --- best_approximant_set -------------------------------------------------------

def test_best_approximant_member_of_Q():
    assert best_approximant_set([(0.0,), (1.0,)], (1.0,)) == [(1.0,)]


def test_best_approximant_symmetric_tie():
    out = best_approximant_set([(0.0,), (1.0,)], (0.5,))
    assert set(out) == {(0.0,), (1.0,)}


def test_best_approximant_euclidean_bruteforce():
    Q = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    out = best_approximant_set(Q, (0.4, 0.0))
    assert out == [(0.0, 0.0)]


def test_best_approximant_empty():
    with pytest.raises(DomainError):
        best_approximant_set([], (0.0,))


# --- verify_invariant_approx_hypotheses ------------------------------------------

def test_invariant_approx_identity_case():
    Q = [(0.0,), (1.0,), (3.0,)]
    f = {(0.0,): (0.0,), (1.0,): (1.0,), (3.0,): (3.0,)}
    F = {q: [q] for q in f}
    rep = verify_invariant_approx_hypotheses(Q, (0.4,), f, F, Gauge.constant(0.5))
    assert rep.all_ok


def test_invariant_approx_detects_f_escape():
    # f maps the unique best approximant outside the best set
    Q = [(0.0,), (1.0,), (3.0,)]
    f = {(0.0,): (1.0,), (1.0,): (1.0,), (3.0,): (3.0,)}
    F = {q: [q] for q in f}
    rep = verify_invariant_approx_hypotheses(Q, (0.1,), f, F, Gauge.constant(0.5))
    assert not rep.condition_ii_ok
    assert any(w["condition"] == "ii" for w in rep.witnesses)


def test_invariant_approx_invariance_violation():
    # F(best) reaches farther from z than f(best)
    Q = [(0.0,), (1.0,)]
    f = {(0.0,): (0.0,), (1.0,): (1.0,)}
    F = {(0.0,): [(1.0,)], (1.0,): [(1.0,)]}
    rep = verify_invariant_approx_hypotheses(Q, (0.0,), f, F, Gauge.constant(0.9))
    assert not rep.range_ok


def test_invariant_approx_fixed_points_by_enumeration():
    Q = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    f = {q: q for q in Q}
    F = {q: [q] for q in Q}
    rep = verify_invariant_approx_hypotheses(Q, (0.4, 0.0), f, F, Gauge.constant(0.5))
    assert rep.all_ok
    best = best_approximant_set(Q, (0.4, 0.0))
    fixed = [q for q in best if f[q] == q and q in F[q]]
    assert fixed == [(0.0, 0.0)]


# --- theorem-scale consistency: all-true report => engine agrees with oracle ----

def test_all_true_hypotheses_imply_engine_reaches_coincidence_set():
    rng = random.Random(2024)
    for _ in range(30):
        p = random_ladder_problem(rng)
        rep = verify_coincidence_hypotheses(
            p.space, p.f, p.F, p.edges, p.gauge, truncated=p.truncated
        )
        assert rep.all_ok
        out = run_coincidence_iteration(p)
        assert out.converged
        cs = enumerate_coincidence_points(p.space, p.f, p.F)
        assert out.status.w_star in cs.coincidence
