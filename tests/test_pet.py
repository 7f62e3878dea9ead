import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoarrays import pet
from ergoarrays.intpoly import IntPoly2
from ergoarrays.pet import (
    PExpr,
    ShiftTooSmallError,
    SystemHypothesisError,
    Weight,
    WeightMatrix,
    equivalent,
    pet_trace,
    precedes,
    reduce_step,
    weight,
    weight_matrix,
)
from ergoarrays.repro import _random_pet_system
from ergoarrays.util import ResourceCapError


def E(*n_exps, N_exps=None):
    return PExpr.make(list(n_exps), N_exps)


def test_weight_examples():
    assert weight(E("n**2")) == Weight(1, 2)
    assert weight(E("n**2", "n")) == Weight(2, 1)
    assert weight(E("3*n")) == Weight(1, 1)
    with pytest.raises(ValueError, match="no weight"):
        weight(E("0", "0"))


def test_weight_ordering_is_index_dominant():
    assert Weight(2, 1) > Weight(1, 5)
    assert Weight(1, 3) > Weight(1, 2)
    assert sorted([Weight(2, 1), Weight(1, 4)]) == [Weight(1, 4), Weight(2, 1)]


def test_equivalent_examples():
    assert equivalent(E("n**2"), E("n**2 + n")) is True
    assert equivalent(E("n**2"), E("2*n**2")) is False
    assert equivalent(E("n", "n**2"), E("0", "n**2")) is True


def test_weight_matrix_examples():
    m0 = weight_matrix([E("n")])
    assert m0.entries == (((1, 1), 1),) and m0.is_m0()
    assert weight_matrix([E("n"), E("2*n")]).entries == (((1, 1), 2),)
    assert weight_matrix([E("n**2"), E("n**2 + n")]).entries == (((1, 2), 1),)


def test_precedes_examples():
    m = WeightMatrix.from_counts(1, 1, {(1, 1): 1})
    m_prime = WeightMatrix.from_counts(1, 1, {})
    assert precedes(m_prime, m) is True
    assert precedes(m, m) is False
    a = WeightMatrix.from_counts(2, 2, {(1, 1): 7})
    b = WeightMatrix.from_counts(2, 2, {(2, 2): 1})
    assert precedes(a, b) is True  # pivot (2,2); lower weights arbitrary


def test_precedes_requires_untouched_higher_weights():
    # decrement at (1,1) but change (1,2) as well: not a legal descent
    a = WeightMatrix.from_counts(1, 2, {(1, 1): 1, (1, 2): 5})
    b = WeightMatrix.from_counts(1, 2, {(1, 1): 2, (1, 2): 4})
    assert precedes(a, b) is False


def test_reduce_step_square():
    out = reduce_step([E("n**2")], 1)
    assert out == [E("2*n")]
    assert precedes(weight_matrix(out), weight_matrix([E("n**2")]))


def test_reduce_step_degree_one_pair():
    out = reduce_step([E("n"), E("2*n")], 1)
    assert out == [E("n")]
    assert weight_matrix(out).is_m0()


def test_reduce_step_pivot_validation():
    with pytest.raises(ValueError, match="minimal-weight"):
        # auxiliary system of {n, n^2} is {n, n^2, n^2+2n}; index 1 is not minimal
        reduce_step([E("n"), E("n**2")], 1, pivot=1)
    with pytest.raises(ValueError, match="outside"):
        reduce_step([E("n")], 1, pivot=5)


def test_reduce_step_hypothesis_errors():
    with pytest.raises(SystemHypothesisError, match="constant in n"):
        reduce_step([E("0", N_exps=["N"])], 1)
    with pytest.raises(SystemHypothesisError, match="quotient"):
        reduce_step([E("n"), E("n", N_exps=["N"])], 1)


def test_reduce_step_shift_too_small_retryable():
    # the h=1 copy of E1 has the n-part of E2 but a different N-part, so the
    # auxiliary family would carry an element constant in n
    sys_ = [E("n**2"), PExpr.make(["n**2 + 2*n"], ["N"])]
    with pytest.raises(ShiftTooSmallError):
        reduce_step(sys_, 1)
    out = reduce_step(sys_, 2)  # larger shift succeeds
    assert precedes(weight_matrix(out), weight_matrix(sys_))


def test_reduce_step_exact_collision_collapses():
    # with equal N-parts the h=1 copy of E1 *equals* E2; systems are sets,
    # so the copy merges and the reduction stays legal
    sys_ = [E("n**2"), E("n**2 + 2*n")]
    out = reduce_step(sys_, 1)
    assert precedes(weight_matrix(out), weight_matrix(sys_))


def test_pet_trace_base_case():
    assert pet_trace([E("n")]) == [weight_matrix([E("n")])]


def test_pet_trace_square_and_cube():
    chain = pet_trace([E("n**2")])
    assert len(chain) == 2 and chain[-1].is_m0()
    chain3 = pet_trace([E("n**3")])
    assert chain3[-1].is_m0()
    for later, earlier in zip(chain3[1:], chain3):
        assert precedes(later, earlier)


def test_pet_trace_stops_at_degree_one_system():
    sys_ = [E("n"), E("2*n"), E("3*n")]
    chain = pet_trace(sys_)
    assert chain == [weight_matrix(sys_)]


def test_pet_trace_explicit_schedule():
    chain = pet_trace([E("n**2")], h_schedule=[3])
    assert chain[-1].is_m0()
    bad = [E("n**2"), PExpr.make(["n**2 + 2*n"], ["N"])]
    with pytest.raises(ShiftTooSmallError):
        pet_trace(bad, h_schedule=[1])
    pet_trace(bad)  # the default schedule retries past h = 1
    with pytest.raises(ValueError, match="exhausted"):
        pet_trace([E("n**3")], h_schedule=[1])


def test_n_parts_carried_untouched():
    # N-exponents ride along without affecting weights or the descent
    sys_ = [PExpr.make(["n**2"], ["3*N"])]
    chain = pet_trace(sys_)
    assert chain[-1].is_m0()
    out = reduce_step(sys_, 1)
    assert [e.N_exps for e in out] == [(IntPoly2.zero(),)]  # psi * psi^{-1}


def test_group_laws():
    a, b, c = E("n", "0"), E("n**2", "n"), E("0", "2*n")
    assert a.mul(b) == b.mul(a)
    assert a.mul(b.mul(c)) == a.mul(b).mul(c)
    assert a.mul(a.inv()) == PExpr.identity(2)
    assert PExpr.identity(2).mul(a) == a


def test_weight_invariant_under_smaller_index_multiplication():
    e = E("n", "n**2")  # weight (2, 2)
    small = E("n**3", "0")  # only generator 1 exponents
    assert weight(e.mul(small)) == weight(e)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_random_descents_terminate_and_descend(seed):
    rng = random.Random(seed)
    shapes = [(1, 1, 4), (2, 1, 4), (3, 1, 4), (1, 2, 2), (2, 2, 2), (3, 3, 2)]
    k, members, deg = shapes[rng.randrange(len(shapes))]
    system = _random_pet_system(rng, k, members, deg)
    if system is None:
        return
    try:
        chain = pet_trace(system, max_steps=200, max_system_size=256)
    except RuntimeError:
        return  # expansion past the desk-scale budget, not a descent failure
    assert chain[-1] is not None
    for later, earlier in zip(chain[1:], chain):
        assert precedes(later, earlier)


def test_dense_descent_hits_the_size_cap():
    # two generators of degree 3: the descent passes 2048 members at step 27
    system = [
        PExpr.make(["0", "1/6*n**3 - 1/2*n**2 + 1/3*n"], ["-1*N", "-2*N"]),
        PExpr.make(["1/2*n**2 - 1/2*n", "-1*n**2 - 1*n"], ["N", "0"]),
        PExpr.make(["1/3*n**3 - 2*n**2 + 8/3*n", "-1/6*n**3 - 1/2*n**2 - 1/3*n"], ["-1*N", "-1*N"]),
    ]
    with pytest.raises(ResourceCapError, match="grew past 2048 members at step 27;"):
        pet_trace(system, max_system_size=2048)
    with pytest.raises(ResourceCapError, match="did not terminate within 5 steps"):
        pet_trace(system, max_steps=5)


def test_normalization_strips_origin_values():
    e = PExpr.make(["n**2 + 5"], ["N + 7"])
    assert e.n_exps[0].eval(0, 0) == 0
    assert e.N_exps[0].eval(0, 0) == 0


def test_make_rejects_mixed_variables():
    with pytest.raises(ValueError):
        PExpr(
            (IntPoly2.parse("n*N"),),
            (IntPoly2.zero(),),
        )


# -- IntPoly2 oracle for the coefficient-row kernel ----------------------------
#
# A standalone copy of the descent on PExpr and IntPoly2 arithmetic: every
# pair of members is asked whether its quotient mul(inv()) is constant in n,
# shifted copies come from IntPoly2.shift_n, duplicates are found by list
# membership and ties by the sparse term order.  Of pet it uses only PExpr,
# weight, precedes, WeightMatrix and the error types.


def oracle_shift(e, h):
    """The h-differenced copy: n-exponents P(n+h) - P(h), N-parts kept."""
    return PExpr(tuple(p.shift_n(h).drop_constant() for p in e.n_exps), e.N_exps)


def oracle_sort_key(e):
    return tuple((p.terms, q.terms) for p, q in zip(e.n_exps, e.N_exps))


def oracle_weight_matrix(system):
    if not system:
        raise ValueError("empty system")
    if any(e.k != system[0].k for e in system):
        raise ValueError("all expressions must share the generator count")
    classes = {}
    for e in system:
        w = weight(e)
        classes.setdefault((w.r, w.d), set()).add(e.n_exps[w.r - 1].top_coeff_n())
    D = max(e.degree() for e in system)
    return WeightMatrix.from_counts(system[0].k, D, {rd: len(v) for rd, v in classes.items()})


def oracle_check_hypotheses(system):
    for i, e in enumerate(system):
        if e.is_constant_in_n():
            raise SystemHypothesisError(f"expression {i} is constant in n")
    for i in range(len(system)):
        for j in range(i + 1, len(system)):
            if system[i].mul(system[j].inv()).is_constant_in_n():
                raise SystemHypothesisError(
                    f"expressions {i} and {j} have a quotient constant in n"
                )


def oracle_auxiliary_system(system, h):
    aux = list(system)
    for e in system:
        if e.degree() >= 2:
            shifted = oracle_shift(e, h)
            if shifted not in aux:
                aux.append(shifted)
    for i in range(len(aux)):
        for j in range(i + 1, len(aux)):
            if aux[i].mul(aux[j].inv()).is_constant_in_n():
                if i < len(system) and j < len(system):
                    raise SystemHypothesisError(
                        f"expressions {i} and {j} have a quotient constant in n"
                    )
                raise ShiftTooSmallError(
                    h, f"auxiliary members {i} and {j} coincide in their n-parts"
                )
    return aux


def oracle_reduce_step(system, h, pivot=None):
    system = list(system)
    oracle_check_hypotheses(system)
    aux = oracle_auxiliary_system(system, h)
    min_w = min(weight(e) for e in aux)
    if pivot is None:
        candidates = [i for i, e in enumerate(aux) if weight(e) == min_w]
        pivot = min(candidates, key=lambda i: oracle_sort_key(aux[i]))
    elif not 0 <= pivot < len(aux):
        raise ValueError(f"pivot index {pivot} outside auxiliary system")
    elif weight(aux[pivot]) != min_w:
        raise ValueError("pivot must select a minimal-weight member")
    piv_inv = aux[pivot].inv()
    out = []
    for i, e in enumerate(aux):
        if i == pivot:
            continue
        reduced = e.mul(piv_inv)
        if reduced.is_constant_in_n():
            raise ShiftTooSmallError(h, f"member {i} collapses onto the pivot")
        if reduced not in out:
            out.append(reduced)
    if not precedes(oracle_weight_matrix(out), oracle_weight_matrix(system)):
        raise RuntimeError("internal error: reduction did not descend in precedence")
    return out


def oracle_pet_trace(system, h_schedule=None, max_steps=10**6, h_cap=10_000, max_system_size=100_000):
    system = list(system)
    oracle_check_hypotheses(system)
    chain = [oracle_weight_matrix(system)]
    step = 0
    while not (chain[-1].is_m0() or all(e.degree() <= 1 for e in system)):
        if step >= max_steps:
            raise ResourceCapError(f"descent did not terminate within {max_steps} steps")
        if len(system) > max_system_size:
            raise ResourceCapError(
                f"system grew past {max_system_size} members at step {step}; "
                "the full expansion of this descent is not desk-scale"
            )
        if h_schedule is not None:
            if step >= len(h_schedule):
                raise ValueError("h_schedule exhausted before descent finished")
            system = oracle_reduce_step(system, h_schedule[step])
        else:
            for h in range(1, h_cap + 1):
                try:
                    system = oracle_reduce_step(system, h)
                    break
                except ShiftTooSmallError:
                    continue
            else:
                raise ResourceCapError(f"no usable shift h <= {h_cap}")
        chain.append(oracle_weight_matrix(system))
        step += 1
    return chain


def outcome(f, *args, **kw):
    """The result of a call, or the type and message of its error."""
    try:
        return f(*args, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _n_parts(k):
    poly = st.dictionaries(st.integers(1, 3), st.integers(-2, 2), min_size=1, max_size=3).map(
        lambda c: IntPoly2.from_coeffs({(d, 0): v for d, v in c.items()})
    )
    return st.tuples(*[poly] * k)


def _N_parts(k):
    poly = st.dictionaries(st.integers(1, 2), st.integers(-2, 2), max_size=2).map(
        lambda c: IntPoly2.from_coeffs({(0, d): v for d, v in c.items()})
    )
    return st.tuples(*[poly] * k)


@st.composite
def colliding_systems(draw):
    """Systems whose members often draw n-parts from a small pool, so
    n-parts repeat under differing N-parts; some members take the
    h-differenced n-parts of a pool entry (colliding with an auxiliary
    copy), and a few systems carry one member with an extra generator."""
    k = draw(st.integers(1, 3))
    pool = draw(st.lists(_n_parts(k), min_size=1, max_size=3))
    system = []
    for _ in range(draw(st.integers(1, 5))):
        n_exps = draw(st.one_of(_n_parts(k), st.sampled_from(pool)))
        if draw(st.integers(0, 3)) == 0:
            h = draw(st.integers(1, 3))
            n_exps = tuple(p.shift_n(h).drop_constant() for p in n_exps)
        system.append(PExpr(n_exps, draw(_N_parts(k))))
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(system)))
        system.insert(at, PExpr(draw(_n_parts(k + 1)), draw(_N_parts(k + 1))))
    return system


@settings(max_examples=150, deadline=None)
@given(colliding_systems(), st.lists(st.integers(-1, 4), max_size=6), st.integers(1, 3))
def test_reduce_step_and_trace_match_pairwise_oracle(system, h_schedule, h_cap):
    for h in range(1, 7):
        assert outcome(reduce_step, system, h) == outcome(oracle_reduce_step, system, h)
    # every pivot index of the auxiliary family, and a few outside it
    for h in (1, 2):
        for p in range(-1, 2 * len(system) + 2):
            got = outcome(reduce_step, system, h, pivot=p)
            assert got == outcome(oracle_reduce_step, system, h, pivot=p)
    assert outcome(weight_matrix, system) == outcome(oracle_weight_matrix, system)
    caps = dict(max_steps=8, max_system_size=12)
    assert outcome(pet_trace, system, **caps) == outcome(oracle_pet_trace, system, **caps)
    caps["h_cap"] = h_cap
    assert outcome(pet_trace, system, **caps) == outcome(oracle_pet_trace, system, **caps)
    got = outcome(pet_trace, system, h_schedule=h_schedule, **caps)
    assert got == outcome(oracle_pet_trace, system, h_schedule=h_schedule, **caps)
