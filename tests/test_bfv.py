"""BFV: scale-invariant exact multiplication."""

import numpy as np
import pytest

from repro.schemes.bfv import BfvContext, BfvParams, BfvScheme


@pytest.fixture(scope="module")
def bfv():
    ctx = BfvContext(BfvParams(n=32, q_count=5, seed=5))
    scheme = BfvScheme(ctx)
    sk = scheme.gen_secret()
    rk = scheme.gen_relin(sk)
    return ctx, scheme, sk, rk


def test_encrypt_decrypt(bfv, rng):
    ctx, scheme, sk, _ = bfv
    x = rng.integers(0, ctx.t, ctx.n)
    assert np.array_equal(scheme.decrypt(scheme.encrypt(x, sk), sk),
                          x % ctx.t)


def test_add(bfv, rng):
    ctx, scheme, sk, _ = bfv
    x, y = (rng.integers(0, ctx.t, ctx.n) for _ in range(2))
    got = scheme.decrypt(
        scheme.add(scheme.encrypt(x, sk), scheme.encrypt(y, sk)), sk)
    assert np.array_equal(got, (x + y) % ctx.t)


def test_multiply(bfv, rng):
    ctx, scheme, sk, rk = bfv
    x, y = (rng.integers(0, ctx.t, ctx.n) for _ in range(2))
    got = scheme.decrypt(
        scheme.multiply(scheme.encrypt(x, sk), scheme.encrypt(y, sk), rk),
        sk)
    assert np.array_equal(got, x * y % ctx.t)


@pytest.mark.parametrize("stacked", [True, False])
def test_multiply_off_the_full_basis_names_it(bfv, rng, monkeypatch,
                                              stacked):
    """An operand off ``ctx.q_full`` (here after ``drop_level``) is
    refused with one named error on both paths, before any kernel
    runs."""
    from repro.schemes import bfv as bfv_mod
    from repro.schemes import reference

    ctx, scheme, sk, rk = bfv
    path = BfvScheme(ctx, stacked=stacked)
    path.ev.keys = scheme.ev.keys
    x = scheme.encrypt(rng.integers(0, ctx.t, ctx.n), sk)
    low = path.ev.drop_level(x, ctx.max_level - 1)

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(bfv_mod, "base_convert_centered_stack", no_kernel)
    monkeypatch.setattr(reference, "base_convert_centered", no_kernel)
    for a, b, name in ((low, x, "x"), (x, low, "y"), (low, low, "x")):
        with pytest.raises(ValueError,
                           match=f"BFV multiply: operand {name} lies on "
                                 f"{len(ctx.q_full) - 1} limbs .* full "
                                 r"ciphertext basis ctx\.q_full "
                                 f"\\({len(ctx.q_full)} limbs"):
            path.multiply(a, b, rk)


def test_multiply_depth2(bfv, rng):
    ctx, scheme, sk, rk = bfv
    x, y = (rng.integers(0, ctx.t, ctx.n) for _ in range(2))
    cm = scheme.multiply(scheme.encrypt(x, sk), scheme.encrypt(y, sk), rk)
    cm2 = scheme.multiply(cm, scheme.encrypt(x, sk), rk)
    assert np.array_equal(scheme.decrypt(cm2, sk), x * y % ctx.t * x % ctx.t)


def test_delta_definition(bfv):
    ctx, *_ = bfv
    assert ctx.delta == ctx.q_full.modulus // ctx.t
