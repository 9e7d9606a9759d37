"""Tape engine unit tests: op partials, sweeps, float degradation."""

import math
import random

import pytest

from diffnet.adcore import GUARD_EPS, Tape, TapeError, Var, value


def central_fd(f, x, eps=1e-6):
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


UNARY = {
    "neg": (lambda t, a: t.neg(a), lambda x: -x, lambda x: True),
    "exp": (lambda t, a: t.exp(a), math.exp, lambda x: abs(x) < 20),
    "log": (lambda t, a: t.log(a), math.log, lambda x: x > 1e-3),
    "relu": (lambda t, a: t.relu(a), lambda x: max(x, 0.0),
             lambda x: abs(x) > 1e-3),
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


def test_log_of_nonpositive_raises():
    tape = Tape()
    with pytest.raises(ValueError):
        tape.log(tape.input(-1.0))


def test_cross_tape_use_raises():
    t1, t2 = Tape(), Tape()
    a = t1.input(1.0)
    b = t2.input(2.0)
    with pytest.raises(TapeError):
        t1.add(a, b)


def test_backward_of_float_output_is_zero():
    tape = Tape()
    a = tape.input(1.0)
    assert tape.grad(3.14, [a]) == [0.0]


def test_operator_overloads():
    tape = Tape()
    a = tape.input(3.0)
    out = (2.0 * a + 1.0 - a / 3.0) * a
    assert value(out) == pytest.approx((6.0 + 1.0 - 1.0) * 3.0)
    g = tape.grad(out, [a])[0]
    assert g == pytest.approx(central_fd(lambda x: (2 * x + 1 - x / 3) * x, 3.0),
                              abs=1e-6)


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
