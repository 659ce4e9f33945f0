"""BGV: exact arithmetic, noise management, modulus switching."""

import numpy as np
import pytest

from repro import obs
from repro.nttmath import native
from repro.schemes.bgv import BgvContext, BgvParams, BgvScheme


@pytest.fixture(scope="module")
def bgv():
    ctx = BgvContext(BgvParams(n=64, q_count=8, seed=5))
    scheme = BgvScheme(ctx)
    sk = scheme.gen_secret()
    rk = scheme.gen_relin(sk)
    return ctx, scheme, sk, rk


def _vec(ctx, rng):
    return rng.integers(0, ctx.t, ctx.n)


def test_encrypt_decrypt(bgv, rng):
    ctx, scheme, sk, _ = bgv
    x = _vec(ctx, rng)
    assert np.array_equal(scheme.decrypt(scheme.encrypt(x, sk), sk), x)


def test_add_sub(bgv, rng):
    ctx, scheme, sk, _ = bgv
    x, y = _vec(ctx, rng), _vec(ctx, rng)
    cx, cy = scheme.encrypt(x, sk), scheme.encrypt(y, sk)
    assert np.array_equal(scheme.decrypt(scheme.add(cx, cy), sk),
                          (x + y) % ctx.t)
    assert np.array_equal(scheme.decrypt(scheme.sub(cx, cy), sk),
                          (x - y) % ctx.t)


def test_plain_ops(bgv, rng):
    ctx, scheme, sk, _ = bgv
    x, y = _vec(ctx, rng), _vec(ctx, rng)
    cx = scheme.encrypt(x, sk)
    assert np.array_equal(scheme.decrypt(scheme.add_plain(cx, y), sk),
                          (x + y) % ctx.t)
    assert np.array_equal(scheme.decrypt(scheme.mul_plain(cx, y), sk),
                          (x * y) % ctx.t)


def test_multiply(bgv, rng):
    ctx, scheme, sk, rk = bgv
    x, y = _vec(ctx, rng), _vec(ctx, rng)
    cm = scheme.multiply(scheme.encrypt(x, sk), scheme.encrypt(y, sk), rk)
    assert np.array_equal(scheme.decrypt(cm, sk), (x * y) % ctx.t)


def test_traced_multiply_emits_moddown_span(bgv, rng):
    """BGV's t-corrected ModDown runs in one ``ks.moddown`` span, as the
    base class's does; its ``impl`` is ``"c"`` exactly when the native
    library loaded (the delta's exact conversion and the tail run in
    C), and the conversion shows as a nested ``bconv.exact`` span."""
    ctx, scheme, sk, rk = bgv
    x, y = _vec(ctx, rng), _vec(ctx, rng)
    cx, cy = scheme.encrypt(x, sk), scheme.encrypt(y, sk)
    was = obs.TRACER.enabled
    obs.TRACER.drain()
    obs.TRACER.enabled = True
    try:
        cm = scheme.multiply(cx, cy, rk)
        events, _ = obs.TRACER.drain()
    finally:
        obs.TRACER.enabled = was
    spans = [ev for ev in events if ev[obs.EV_NAME] == "ks.moddown"]
    assert len(spans) == 1
    impl = "numpy" if native.kernel() is None else "c"
    assert spans[0][obs.EV_ATTRS] == {"k": 1, "impl": impl}
    inner = [ev for ev in events if "ks.moddown" in ev[obs.EV_PATH][:-1]]
    names = [ev[obs.EV_NAME] for ev in inner]
    assert "ntt.inverse" in names and "ntt.forward" in names
    assert [ev[obs.EV_ATTRS]["impl"] for ev in inner
            if ev[obs.EV_NAME] == "bconv.exact"] == [impl]
    assert np.array_equal(scheme.decrypt(cm, sk), x * y % ctx.t)


def test_multiply_depth(bgv, rng):
    ctx, scheme, sk, rk = bgv
    x, y = _vec(ctx, rng), _vec(ctx, rng)
    ct = scheme.encrypt(x, sk)
    cy = scheme.encrypt(y, sk)
    expect = x.copy()
    for _ in range(4):
        ct = scheme.multiply(ct, cy, rk)
        expect = expect * y % ctx.t
    assert np.array_equal(scheme.decrypt(ct, sk), expect)


def test_noise_budget_decreases(bgv, rng):
    ctx, scheme, sk, rk = bgv
    x = _vec(ctx, rng)
    ct = scheme.encrypt(x, sk)
    fresh = scheme.noise_budget_bits(ct, sk)
    deeper = scheme.noise_budget_bits(
        scheme.multiply(ct, ct, rk), sk)
    assert fresh > deeper > 0


def test_mod_switch_preserves_plaintext(bgv, rng):
    ctx, scheme, sk, rk = bgv
    x = _vec(ctx, rng)
    ct = scheme.mod_switch(scheme.encrypt(x, sk), times=2)
    assert len(ct.basis) == len(ctx.q_full) - 2
    assert np.array_equal(scheme.decrypt(ct, sk), x)


def test_mod_switch_controls_squaring_noise(bgv, rng):
    """Repeated squaring diverges without switching; with two switches
    per squaring the chain stays correct."""
    ctx, scheme, sk, rk = bgv
    x = _vec(ctx, rng)
    ct = scheme.encrypt(x, sk)
    expect = x.copy()
    for _ in range(2):
        ct = scheme.mod_switch(scheme.multiply(ct, ct, rk), times=2)
        expect = expect * expect % ctx.t
    assert np.array_equal(scheme.decrypt(ct, sk), expect)


def test_mismatched_factors_rejected(bgv, rng):
    ctx, scheme, sk, _ = bgv
    x = _vec(ctx, rng)
    a = scheme.encrypt(x, sk)
    b = scheme.mod_switch(scheme.encrypt(x, sk), times=1)
    with pytest.raises(ValueError):
        scheme.add(a, b)


def test_rotation_permutes_slots(bgv, rng):
    ctx, scheme, sk, _ = bgv
    gk = scheme.gen_galois(1, sk)
    x = _vec(ctx, rng)
    got = scheme.decrypt(scheme.rotate(scheme.encrypt(x, sk), 1, gk), sk)
    assert sorted(got) == sorted(x)
    assert not np.array_equal(got, x)


def test_decrypt_reduction_overflow_regression():
    """The seed's plaintext reduction (``c * correction % t`` over the
    centred coefficients) silently wraps once it is vectorized in int64
    and ``|c| * correction >= 2^63`` — large ``t`` times large centred
    coefficients.  The centred-BConv reduction (:func:`centered_mod_t`)
    reduces mod ``t`` *before* multiplying, so every intermediate stays
    below ``2^62``; it must match exact Python-int arithmetic where the
    naive expression does not."""
    from repro.rns.poly import RnsPolynomial
    from repro.schemes.bgv import centered_mod_t

    ctx = BgvContext(BgvParams(n=32, t_bits=30, q_bits=28, q_count=2,
                               seed=3))
    t = ctx.t
    rng = np.random.default_rng(7)
    data = rng.integers(0, ctx.q_full.q_col, size=(2, 32),
                        dtype=np.int64)
    poly = RnsPolynomial(ctx.q_full, data, is_ntt=False)
    correction = pow(12345, -1, t)
    exact = np.array([int(c) % t * correction % t
                      for c in poly.to_int_coeffs(signed=True)],
                     dtype=np.int64)
    # Safe path: reduce mod t first, multiply small residues.
    got = centered_mod_t(poly, t) * correction % t
    assert np.array_equal(got, exact)
    # The seed pattern, vectorized: centred coefficients are ~Q/2
    # (here ~2^55) and correction is ~2^30, so the int64 product wraps.
    centred_int64 = np.array(poly.to_int_coeffs(signed=True),
                             dtype=np.int64)
    with np.errstate(over="ignore"):
        naive = centred_int64 * correction % t
    assert not np.array_equal(naive, exact), \
        "naive reduction unexpectedly survived; regression fixture stale"


def test_stacked_matches_reference_bitwise(bgv, rng):
    """The scheme's default stacked evaluator and the per-polynomial
    reference must agree bitwise (the full matrix lives in
    tests/test_rns_core_schemes.py; this is the in-suite smoke)."""
    ctx, scheme, sk, rk = bgv
    ref = BgvScheme(ctx, stacked=False)
    ref.ev.keys.relin = rk
    x, y = _vec(ctx, rng), _vec(ctx, rng)
    cx, cy = scheme.encrypt(x, sk), scheme.encrypt(y, sk)
    a = scheme.ev.multiply(cx, cy)
    b = ref.ev.multiply(cx, cy)
    assert np.array_equal(a.c0.data, b.c0.data)
    assert np.array_equal(a.c1.data, b.c1.data)
    assert a.scale == b.scale


def test_explicit_plaintext_modulus():
    ctx = BgvContext(BgvParams(n=32, t=2 ** 16 + 1, q_count=4))
    assert ctx.t == 65537
    with pytest.raises(ValueError):
        BgvContext(BgvParams(n=32, t=97))   # 96 not divisible by 64
