"""Tape engine unit tests: op partials, sweeps, float degradation."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.adcore import (FLOAT, GUARD_EPS, FloatTape, Tape, TapeError, Var,
                            value)
from diffnet.engine import Simulator, objective_ttt, time_on_link
from diffnet.presets import merge_scenario
from diffnet.scenario import register_parameters


def central_fd(f, x, eps=1e-6):
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


UNARY = {
    "exp": (lambda t, a: t.exp(a), math.exp, lambda x: abs(x) < 20),
}

BINARY = {
    "add": (lambda t, a, b: t.add(a, b), lambda x, y: x + y,
            lambda x, y: True),
    "sub": (lambda t, a, b: t.sub(a, b), lambda x, y: x - y,
            lambda x, y: True),
    "mul": (lambda t, a, b: t.mul(a, b), lambda x, y: x * y,
            lambda x, y: True),
    "div": (lambda t, a, b: t.div(a, b), lambda x, y: x / y,
            lambda x, y: abs(y) > 1e-3),
    "min2": (lambda t, a, b: t.min2(a, b), min,
             lambda x, y: abs(x - y) > 1e-3),
    "max2": (lambda t, a, b: t.max2(a, b), max,
             lambda x, y: abs(x - y) > 1e-3),
}


def test_elementary_partials_match_fd_at_random_points():
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        x = rng.uniform(-3.0, 3.0)
        y = rng.uniform(-3.0, 3.0)
        name = rng.choice(list(UNARY) + list(BINARY))
        if name in UNARY:
            op, ref, ok = UNARY[name]
            if not ok(x):
                continue
            tape = Tape()
            a = tape.input(x)
            out = op(tape, a)
            g = tape.grad(out, [a])[0]
            fd = central_fd(ref, x)
        else:
            op, ref, ok = BINARY[name]
            if not ok(x, y):
                continue
            tape = Tape()
            a = tape.input(x)
            b = tape.input(y)
            out = op(tape, a, b)
            ga, gb = tape.grad(out, [a, b])
            fd_a = central_fd(lambda v: ref(v, y), x)
            fd_b = central_fd(lambda v: ref(x, v), y)
            scale = max(1.0, abs(fd_a), abs(fd_b))
            assert abs(ga - fd_a) / scale < 1e-5, name
            assert abs(gb - fd_b) / scale < 1e-5, name
            checked += 1
            continue
        assert abs(g - fd) / max(1.0, abs(fd)) < 1e-5, name
        checked += 1


def test_quadratic_adjoints_exact():
    # f(x) = (a*x + b)^2 at a=2, x=1.5, b=1: df/dx = 2a(ax+b) = 16,
    # df/db = 2(ax+b) = 8, df/da = 2x(ax+b) = 12
    tape = Tape()
    a = tape.input(2.0)
    x = tape.input(1.5)
    b = tape.input(1.0)
    inner = tape.add(tape.mul(a, x), b)
    out = tape.mul(inner, inner)
    ga, gx, gb = tape.grad(out, [a, x, b])
    assert gx == pytest.approx(16.0)
    assert gb == pytest.approx(8.0)
    assert ga == pytest.approx(12.0)


def test_forward_reverse_equivalence():
    rng = random.Random(3)
    for _ in range(50):
        tape = Tape()
        xs = [tape.input(rng.uniform(0.1, 2.0)) for _ in range(4)]
        e = tape.add(tape.mul(xs[0], xs[1]), tape.div(xs[2], xs[3]))
        e = tape.mul(e, tape.exp(tape.mul(0.3, xs[0])))
        e = tape.add(e, tape.min2(xs[1], tape.max2(xs[2], xs[3])))
        rev = tape.grad(e, xs)
        for i, x in enumerate(xs):
            fwd = tape.jvp(e, {x.idx: 1.0})
            assert fwd == pytest.approx(rev[i], abs=1e-9)


def test_mixed_float_ops_return_floats_and_record_nothing():
    tape = Tape()
    n0 = len(tape)
    r = tape.add(1.0, 2.0)
    assert isinstance(r, float) and r == 3.0
    assert tape.mul(2.0, 4.0) == 8.0
    assert tape.min2(1.0, 2.0) == 1.0
    assert tape.max2(1.0, 2.0) == 2.0
    assert tape.div(1.0, 4.0) == 0.25
    assert tape.exp(0.0) == 1.0
    assert len(tape) == n0


def test_tie_breaks_route_subgradient_to_first_argument():
    tape = Tape()
    a = tape.input(1.0)
    b = tape.input(1.0)
    m = tape.min2(a, b)
    ga, gb = tape.grad(m, [a, b])
    assert (ga, gb) == (1.0, 0.0)
    m = tape.max2(b, a)
    gb, ga = tape.grad(m, [b, a])
    assert (gb, ga) == (1.0, 0.0)


def test_exact_float_zero_operands_record_nothing():
    tape = Tape()
    x = tape.input(3.0)
    n0 = len(tape)
    assert tape.add(x, 0.0) is x
    assert tape.add(0.0, x) is x
    assert tape.sub(x, 0.0) is x
    for r in (tape.mul(x, 0.0), tape.mul(0.0, x)):
        assert isinstance(r, float) and r == 0.0
    assert len(tape) == n0
    # a zero on the left of a subtraction is a negation, still recorded
    neg = tape.sub(0.0, x)
    assert len(tape) == n0 + 1
    assert value(neg) == -3.0 and tape.grad(neg, [x]) == [-1.0]


def test_exact_zero_rule_keeps_the_cross_tape_check():
    t1, t2 = Tape(), Tape()
    x = t2.input(1.0)
    for op in (t1.add, t1.sub, t1.mul):
        with pytest.raises(TapeError):
            op(x, 0.0)
    for op in (t1.add, t1.mul):
        with pytest.raises(TapeError):
            op(0.0, x)


def test_min_max_against_a_float_pass_the_winner_through():
    tape = Tape()
    x = tape.input(2.0)
    lo, hi, tie = 1.0, 3.0, 2.0
    n0 = len(tape)
    assert tape.min2(x, hi) is x and tape.min2(hi, x) is x
    assert tape.max2(x, lo) is x and tape.max2(lo, x) is x
    assert tape.min2(x, lo) is lo and tape.min2(lo, x) is lo
    assert tape.max2(x, hi) is hi and tape.max2(hi, x) is hi
    # at a tie the first argument wins, as between two Vars
    assert tape.min2(x, tie) is x and tape.min2(tie, x) is tie
    assert tape.max2(x, tie) is x and tape.max2(tie, x) is tie
    assert len(tape) == n0
    assert tape.grad(tape.mul(tape.min2(x, hi), 4.0), [x]) == [4.0]
    # the cross-tape check fires on this path too
    other = Tape()
    for op in (other.min2, other.max2):
        for a, b in ((x, lo), (lo, x), (x, hi), (hi, x)):
            with pytest.raises(TapeError):
                op(a, b)


def test_exact_one_operands_record_nothing():
    tape = Tape()
    x = tape.input(3.0)
    n0 = len(tape)
    assert tape.mul(x, 1.0) is x
    assert tape.mul(1.0, x) is x
    assert tape.div(x, 1.0) is x
    assert len(tape) == n0
    # only a plain float 1.0 is skipped: an int 1 and 1.0 / x still record
    for r in (tape.mul(x, 1), tape.mul(1, x), tape.div(x, 1)):
        assert value(r) == 3.0 and tape.grad(r, [x]) == [1.0]
    inv = tape.div(1.0, x)
    assert len(tape) == n0 + 4
    assert tape.grad(inv, [x]) == [pytest.approx(-1.0 / 9.0)]
    other = Tape()
    for op, args in ((other.mul, (x, 1.0)), (other.mul, (1.0, x)),
                     (other.div, (x, 1.0))):
        with pytest.raises(TapeError):
            op(*args)


def test_madd_is_one_entry_with_the_value_of_add_mul():
    ref, tape = Tape(), Tape()
    for yv, a, xv in ((2.0, 0.3, 0.7), (-1.5, 5.0, 1e-3), (0.1, 1.0, 0.2),
                      (0.0, 0.3, 0.7), (2.5, -5.0, 0.7)):
        for y_var in (True, False):
            ry = ref.input(yv) if y_var else yv
            y = tape.input(yv) if y_var else yv
            x = tape.input(xv)
            n0 = len(tape)
            out = tape.madd(y, a, x)
            assert len(tape) == n0 + 1
            assert value(out) == value(ref.add(ry, ref.mul(a, ref.input(xv))))
            assert tape.grad(out, [y, x]) == [1.0 if y_var else 0.0, a]
            # a plain-float x makes it add(y, a*x)
            assert value(tape.madd(y, a, xv)) == yv + a * xv


def test_madd_exact_zero_and_cross_tape():
    tape = Tape()
    y, x = tape.input(2.0), tape.input(3.0)
    n0 = len(tape)
    assert tape.madd(y, 0.0, x) is y
    assert tape.madd(y, 0.5, 0.0) is y
    assert tape.madd(1.5, 0.0, x) == 1.5
    assert len(tape) == n0
    other = Tape()
    for yy, xx in ((y, 1.0), (0.0, x), (y, x), (1.0, x)):
        with pytest.raises(TapeError):
            other.madd(yy, 0.5, xx)
    with pytest.raises(TapeError):
        other.madd(0.0, 0.0, x)


# Property test: random op sequences over Var, plain-float, exact-zero and
# exact-one operands, built from the ops above and `madd` with a drawn
# coefficient.  Ops outside these domains, or whose result leaves
# [-1e3, 1e3], are skipped; the other ops take any operands.
PROGRAM_DOMAIN = {
    "div": lambda x, y: abs(y) >= 0.5,
    "exp": lambda x, y: abs(x) <= 5.0,
}
OPERAND = st.one_of(
    st.tuples(st.just("slot"), st.integers(0, 40)),
    st.tuples(st.just("const"), st.floats(-3.0, 3.0)),
    st.just(("const", 0.0)),
    st.just(("const", 1.0)),
)
COEF = st.one_of(st.floats(-3.0, 3.0), st.just(0.0), st.just(1.0))
PROGRAM = st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from(sorted({**UNARY, **BINARY}) + ["madd"]),
                       OPERAND, OPERAND, COEF), min_size=1, max_size=30),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(PROGRAM)
def test_random_programs_match_floats_and_forward_mode(program):
    xs, steps = program
    tape = Tape()
    inputs = [tape.input(x) for x in xs]
    taped, plain = list(inputs), list(xs)
    for name, *operands, c in steps:
        (a, x), (b, y) = [(taped[k % len(taped)], plain[k % len(plain)])
                          if kind == "slot" else (k, k)
                          for kind, k in operands]
        if name == "madd":
            r = x + c * y
            if abs(r) > 1e3:
                continue
            out = tape.madd(a, c, b)
        else:
            op, ref, _ = UNARY.get(name) or BINARY[name]
            arity = 1 if name in UNARY else 2
            if not PROGRAM_DOMAIN.get(name, lambda x, y: True)(x, y):
                continue
            r = ref(*(x, y)[:arity])
            if abs(r) > 1e3:
                continue
            out = op(tape, *(a, b)[:arity])
        # signed zeros may differ: the exact-zero rule returns x for x + 0.0
        assert value(out) == r, (name, x, y, c)
        taped.append(out)
        plain.append(r)
    out = taped[-1]
    rev = tape.grad(out, inputs)
    for x, g in zip(inputs, rev):
        fwd = tape.jvp(out, {x.idx: 1.0})
        assert abs(fwd - g) <= 1e-12 * max(1.0, abs(g))


def test_divg_guards_small_denominators():
    tape = Tape()
    a = tape.input(1.0)
    b = tape.input(0.0)
    out = tape.divg(a, b)
    assert value(out) == pytest.approx(1.0 / GUARD_EPS)
    # denominator below the guard: no gradient flows to it
    assert tape.grad(out, [b])[0] == 0.0


def test_div_by_exact_zero_raises():
    tape = Tape()
    a = tape.input(1.0)
    with pytest.raises(ZeroDivisionError):
        tape.div(a, 0.0)


def test_cross_tape_use_raises():
    t1, t2 = Tape(), Tape()
    a = t1.input(1.0)
    b = t2.input(2.0)
    with pytest.raises(TapeError):
        t1.add(a, b)
    x = t2.input(5.0)
    with pytest.raises(TapeError):
        t1.exp(x)
    out = t1.add(t1.mul(a, 3.0), 0.5)
    with pytest.raises(TapeError):
        t1.grad(out, [a, x])


# Every operation of a tape, with a Var of another tape (F) in each operand
# position, the other operand a plain float or a Var of the tape itself (V)
F, V = "foreign", "own"
FOREIGN_CALLS = [
    *((op, args) for op in ("add", "sub", "mul", "div", "divg", "min2", "max2")
      for args in ((F, 2.0), (2.0, F), (F, V), (V, F))),
    *(("rate", args + (5.0,)) for args in ((F, 2.0), (2.0, F), (F, V), (V, F))),
    *(("madd", args) for args in ((F, 0.5, 2.0), (F, 0.5, V), (V, 0.5, F),
                                  (2.0, 0.5, F), (V, 0.0, F))),
    ("exp", (F,)),
    ("lin", (1.0, [F, V], [1.0, 2.0])),
    ("lin", (1.0, [V, F], [1.0, 2.0])),
    ("sum", ([V, F],)),
    ("backward", (F,)),
    ("jvp", (F, {0: 1.0})),
    ("grad", (V, [V, F])),
]


@pytest.mark.parametrize("op, args", FOREIGN_CALLS,
                         ids=[f"{op}{args}" for op, args in FOREIGN_CALLS])
def test_every_operation_rejects_a_var_of_another_tape(op, args):
    tape, other = Tape(), Tape()
    own, foreign = tape.input(1.5), other.input(0.5)

    def bind(x):
        if isinstance(x, list):
            return [bind(y) for y in x]
        return foreign if x == F else own if x == V else x

    n0 = len(tape)
    with pytest.raises(TapeError):
        getattr(tape, op)(*map(bind, args))
    assert len(tape) == n0


def test_backward_of_float_output_is_zero():
    tape = Tape()
    a = tape.input(1.0)
    assert tape.grad(3.14, [a]) == [0.0]


def test_determinism():
    def build():
        tape = Tape()
        xs = [tape.input(float(i + 1)) for i in range(5)]
        e = 0.0
        for x in xs:
            e = tape.add(tape.mul(x, x), e)
        return tape.grad(e, xs)

    assert build() == build()


def test_repeated_sweeps_are_independent():
    tape = Tape()
    a = tape.input(2.0)
    out = tape.mul(a, a)
    assert tape.grad(out, [a]) == tape.grad(out, [a]) == [4.0]


# ----------------------------------------------------------------------
# the float op table


FLOAT_OPERANDS = [0.0, -0.0, 1.0, -1.0, GUARD_EPS, 0.5 * GUARD_EPS,
                  -GUARD_EPS, 2.5, 1e308, math.inf, -math.inf, math.nan]


def outcome(f, *args):
    """Result of f(*args) as (exception type or None, type, repr)."""
    try:
        r = f(*args)
    except ArithmeticError as exc:
        return type(exc), None, None
    return None, type(r), repr(r)


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "min2", "max2",
                                  "divg"])
def test_float_tape_binary_ops_match_tape_on_floats(name):
    # same values bit for bit (signed zeros by repr), same tie winner and
    # the same ZeroDivisionError for a 0.0 divisor
    tape, ftape = Tape(), FloatTape()
    for a, b in itertools.product(FLOAT_OPERANDS, repeat=2):
        assert outcome(getattr(ftape, name), a, b) == \
            outcome(getattr(tape, name), a, b), (name, a, b)
    assert len(tape) == len(ftape) == 0


def test_float_tape_ties_return_the_first_argument():
    ftape = FloatTape()
    assert repr(ftape.min2(0.0, -0.0)) == repr(Tape().min2(0.0, -0.0)) == "0.0"
    assert repr(ftape.max2(-0.0, 0.0)) == repr(Tape().max2(-0.0, 0.0)) == "-0.0"
    with pytest.raises(ZeroDivisionError):
        ftape.div(1.0, 0.0)
    assert ftape.divg(1.0, 0.0) == 1.0 / GUARD_EPS


def test_float_tape_exp_and_madd_match_tape_on_floats():
    tape, ftape = Tape(), FloatTape()
    for a in FLOAT_OPERANDS + [800.0, -800.0]:
        assert outcome(ftape.exp, a) == outcome(tape.exp, a), a
    for y, a, x in itertools.product(FLOAT_OPERANDS, repeat=3):
        assert outcome(ftape.madd, y, a, x) == outcome(tape.madd, y, a, x), \
            (y, a, x)
    assert len(tape) == 0


MIXED_OPERANDS = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300, -1e300]


def test_skip_rules_return_the_float_result_signed_zeros_included():
    # one Var operand and one plain operand, in both orders: the taped value
    # is the `FLOAT` result by repr, so a zero keeps the sign the float
    # operation gives it (mul(Var(1.0), -0.0) is -0.0, add(0.0, Var(-0.0))
    # is 0.0)
    tape = Tape()
    for a, b in itertools.product(MIXED_OPERANDS, repeat=2):
        for name in ("add", "sub", "mul"):
            want = repr(getattr(FLOAT, name)(a, b))
            for args in ((tape.input(a), b), (a, tape.input(b))):
                got = value(getattr(tape, name)(*args))
                assert repr(got) == want, (name, a, b)
        for c in MIXED_OPERANDS:
            want = repr(FLOAT.madd(a, c, b))
            for y, x in ((tape.input(a), b), (a, tape.input(b))):
                assert repr(value(tape.madd(y, c, x))) == want, (a, c, b)


# Property test: each folded entry against the chain it replaces.  The
# operands are plain floats (signed zeros, 0.0 and 1.0 among them) or `Var`
# leaves; a first operand's leaf comes from one pool and a second operand's
# from another, repeats allowed, as a link's NU and ND are different
# entries that may each repeat from step to step.  The coefficients are
# nonzero and shared where the engine shares them (the queue's dt), and
# 1.0 is drawn for the exact-one skips.
FOLD_NUMBER = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0]))
FOLD_OPERAND = st.one_of(st.tuples(st.just("var"), st.integers(0, 3)),
                         st.tuples(st.just("const"), FOLD_NUMBER))
FOLD_COEF = st.one_of(st.just(1.0), st.floats(0.1, 10.0), st.floats(-10.0, -0.1))
FOLD = st.tuples(
    st.lists(FOLD_NUMBER, min_size=8, max_size=8),
    st.lists(st.tuples(FOLD_OPERAND, FOLD_OPERAND), min_size=1, max_size=8),
    FOLD_COEF,
)


def chains_and_folds(tape, form, pairs, c):
    """(chain, folded entry) of `form` over `pairs`, on `tape`: one for
    each pair for "rate", else one over every pair."""
    if form == "rate":
        return [(tape.div(tape.sub(a, b), c), tape.rate(a, b, c))
                for a, b in pairs]
    if form == "sum":
        xs = [x for pair in pairs for x in pair]
        chain = xs[0]
        for x in xs[1:]:
            chain = tape.add(chain, x)
        return [(chain, tape.sum(xs))]
    if form == "madd":  # the queue term: one coefficient for every step
        chain, val = 0.0, 0.0
        for x, _ in pairs:
            chain = tape.madd(chain, c, x)
            val += c * value(x)
        return [(chain, tape.lin(val, [x for x, _ in pairs],
                                 [c] * len(pairs)))]
    dt = abs(c)
    chain = 0.0
    for a, b in pairs:
        chain = tape.madd(chain, dt, tape.max2(tape.sub(a, b), 0.0))
    NU, ND = zip(*pairs)
    return [(chain, time_on_link(tape, NU, ND, [value(a) for a in NU],
                                 [value(b) for b in ND], dt))]


@pytest.mark.parametrize("form", ["sum", "madd", "rate", "travel time"])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=FOLD)
def test_a_folded_entry_equals_the_chain_it_replaces(form, case):
    # value (by repr, on the tape and on FLOAT), Var-ness, the adjoints of
    # every leaf and each leaf's one-hot tangent, all bit for bit
    pool, ops, c = case
    taped = []
    for tape in (Tape(), Tape()):
        leaves = [tape.input(v) for v in pool]
        pairs = [tuple(leaves[4 * side + k] if kind == "var" else k
                       for side, (kind, k) in enumerate(pair))
                 for pair in ops]
        taped.append((tape, leaves, chains_and_folds(tape, form, pairs, c)))
    (tc, leaves_c, outs_c), (tf, leaves_f, outs_f) = taped
    floats = [tuple(pool[4 * side + k] if kind == "var" else k
                    for side, (kind, k) in enumerate(pair)) for pair in ops]
    assert len(tf) <= len(tc)
    for (chain, _), (_, fold), (want, got) in zip(
            outs_c, outs_f, chains_and_folds(FLOAT, form, floats, c)):
        assert repr(value(fold)) == repr(value(chain)) == repr(want) == repr(
            got)
        assert (type(fold) is Var) == (type(chain) is Var)
        assert list(map(repr, tf.grad(fold, leaves_f))) == list(
            map(repr, tc.grad(chain, leaves_c)))
        for xc, xf in zip(leaves_c, leaves_f):
            assert repr(tf.jvp(fold, {xf.idx: 1.0})) == repr(
                tc.jvp(chain, {xc.idx: 1.0}))


def test_a_folded_entry_checks_its_tape_and_sweeps_every_term():
    tape, other = Tape(), Tape()
    xs = [tape.input(v) for v in (1.0, 2.0, 3.0, 4.0)]
    out = tape.sum(xs)
    assert tape._p1[out.idx] == -2 and len(tape._np[tape._p2[out.idx]]) == 4
    assert list(tape.backward(out)[:4]) == [1.0] * 4
    assert tape.jvp(out, {x.idx: 2.0 for x in xs}) == 8.0
    for fold in (lambda t: t.sum(xs), lambda t: t.rate(xs[0], 1.0, 5.0),
                 lambda t: t.rate(2.0, xs[0], 5.0),
                 lambda t: t.lin(1.0, [1.0, xs[1]], [2.0, 3.0])):
        with pytest.raises(TapeError):
            fold(other)
    with pytest.raises(ZeroDivisionError):
        tape.rate(xs[0], xs[1], 0.0)


def test_float_tape_takes_no_input():
    with pytest.raises(TapeError):
        FloatTape().input(1.0)


@pytest.mark.parametrize("grad, tokens", [(False, "q1,u3"), (True, None)])
def test_run_without_var_inputs_uses_the_float_tape(grad, tokens):
    scn = merge_scenario()
    ps = register_parameters(scn, tokens) if tokens else None
    sim = Simulator(scn, params=ps, grad=grad)
    res = sim.run()
    J = objective_ttt(res)
    assert type(res.tape) is FloatTape and len(res.tape) == 0
    assert type(J) is float
    assert list(res.tape.backward(J)) == []
    inputs = [sim.param_vars[n] for n in ps.names] if ps else [1.0]
    assert res.tape.grad(J, inputs) == [0.0] * len(inputs)


def test_run_with_var_inputs_uses_the_recording_tape():
    scn = merge_scenario()
    res = Simulator(scn, params=register_parameters(scn, "q1")).run()
    assert type(res.tape) is Tape and len(res.tape) > 0
