"""Parameter bookkeeping: derived constants, energies, labels, ring relabeling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genosc.errors import DomainError, check_nonneg_int, check_positive
from genosc.model import (Branch, CylindricalLabel, RingLabel, SphericalLabel,
                          SystemParams, admissible_branches, channel_constants,
                          energy_cylindrical_parts, energy_level,
                          enumerate_level, ring_energy, ring_relabel,
                          ring_separation_constant, separation_constant_A)


def P(omega=1.0, p=0.05, q=0.5, m=1):
    return SystemParams(omega=omega, p_strength=p, q_strength=q, m=m)


# Module-level fixtures: b = 0.3 arises from p_strength = -0.16 (both branches
# admissible); the acceptance parameter sets all sit at b > 1/2.
BOTH = SystemParams(omega=1.0, p_strength=-0.16, q_strength=0.0, m=1)
RING = SystemParams(omega=1.0, p_strength=0.0, q_strength=3.0, m=1)


def test_channel_constants_examples():
    assert channel_constants(SystemParams(1, 0.0, 0.0, 0)) == pytest.approx((0.5, 0.0, 0.0))
    assert channel_constants(SystemParams(1, 2.0, 0.0, 1)) == pytest.approx((1.5, 1.0, 0.0))
    assert channel_constants(SystemParams(1, 0.0, 3.0, 1)) == pytest.approx((0.5, 2.0, 1.0))


def test_params_validation():
    with pytest.raises(DomainError):
        SystemParams(0.0, 0.1, 0.1, 0)
    with pytest.raises(DomainError):
        SystemParams(1.0, -0.25, 0.1, 0)
    with pytest.raises(DomainError):
        SystemParams(1.0, 0.1, -0.1, 0)
    with pytest.raises(DomainError):
        SystemParams(1.0, 0.1, 0.1, 0.5)
    for bad in (float("inf"), float("-inf"), float("nan"), "1", None, 10 ** 400):
        for args in ((bad, 0.1, 0.1, 0), (1.0, bad, 0.1, 0), (1.0, 0.1, bad, 0)):
            with pytest.raises(DomainError):
                SystemParams(*args)
    # m: never int()'s OverflowError, ValueError or TypeError
    for bad in (float("inf"), float("-inf"), float("nan"), None, "1", 0.5, -1.5):
        with pytest.raises(DomainError):
            SystemParams(1.0, 0.0, 0.0, bad)
    for m in (-3, -2.0, np.int64(-1), 0, 2.0, True):
        params = SystemParams(1.0, 0.0, 0.0, m)
        assert type(params.m) is int and params.m == m


def test_params_outside_the_accepted_range_are_refused_naming_field_and_range():
    # omega in [1e-150, 1e150], P in (-1/4, 1e150], Q in [0, 1e150], |m| < 2^62: each edge
    # is accepted and the next value past it refused
    past_cap = math.nextafter(1e150, math.inf)
    valid = {"omega": 1.0, "p_strength": 0.3, "q_strength": 0.5, "m": 1}
    for name, span, inside, outside in (
            ("omega", "[1e-150, 1e150]", (1e-150, 1e150), (math.nextafter(1e-150, 0.0), past_cap)),
            ("p_strength", "(-1/4, 1e150]", (math.nextafter(-0.25, 0.0), 1e150), (-0.25, past_cap)),
            ("q_strength", "[0, 1e150]", (0.0, 1e150), (-5e-324, past_cap))):
        for value in inside:
            assert getattr(SystemParams(**{**valid, name: value}), name) == value
        for value in outside:
            with pytest.raises(DomainError) as refused:
                SystemParams(**{**valid, name: value})
            assert str(refused.value) == f"{name} must lie in {span}, got {value!r}"
    for m in (2 ** 62 - 1, -(2 ** 62 - 1)):
        assert P(m=m).m == m
    # refused before c = sqrt(Q + m^2) could meet an m past a double
    for m in (2 ** 62, -(2 ** 62), 10 ** 155, 1e155):
        with pytest.raises(DomainError) as refused:
            P(m=m)
        assert str(refused.value) == f"|m| must lie below 2^62, got {m!r}"


def test_branch_admissibility():
    assert admissible_branches(P(p=2.0)) == (Branch.Plus,)
    assert admissible_branches(BOTH) == (Branch.Plus, Branch.Minus)
    assert admissible_branches(RING) == (Branch.Plus, Branch.Minus)
    with pytest.raises(DomainError):
        separation_constant_A(0, P(p=2.0), Branch.Minus)
    with pytest.raises(DomainError):
        energy_level(1, P(p=2.0), Branch.Minus)


def test_separation_constant_examples():
    iso = SystemParams(1, 0.0, 0.0, 0)
    assert separation_constant_A(0, iso, Branch.Minus) == pytest.approx(0.0)
    assert separation_constant_A(0, iso, Branch.Plus) == pytest.approx(2.0)
    # c = 1, b = 0.3: (c + b + 1/2)(c + b + 3/2) = 1.8 * 2.8
    assert separation_constant_A(0, BOTH, Branch.Plus) == pytest.approx(5.04, rel=1e-14)


def test_energy_examples():
    assert energy_level(2, BOTH, Branch.Plus) == pytest.approx(7.3, rel=1e-14)
    assert energy_level(0, SystemParams(2, 2.0, 0.0, 2), Branch.Plus) == pytest.approx(11.0)
    assert energy_cylindrical_parts(0, 0, BOTH, Branch.Plus) == pytest.approx((2.0, 1.3))
    iso = SystemParams(1, 0.0, 0.0, 0)
    assert energy_cylindrical_parts(0, 0, iso, Branch.Minus) == pytest.approx((1.0, 0.5))
    big = SystemParams(1, 2.0, 0.0, 2)
    assert energy_cylindrical_parts(1, 2, big, Branch.Plus) == pytest.approx((5.0, 6.5))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 12), k=st.integers(0, 12),
       omega=st.floats(0.1, 5.0), p=st.floats(-0.2, 4.0), q=st.floats(0.0, 5.0),
       m=st.integers(-3, 3))
def test_energy_degeneracy_property(n, k, omega, p, q, m):
    params = SystemParams(omega, p, q, m)
    k = min(k, n)
    for branch in admissible_branches(params):
        e_rho, e_z = energy_cylindrical_parts(n - k, k, params, branch)
        assert e_rho + e_z == pytest.approx(energy_level(n, params, branch), rel=1e-14)


def test_monotonicity():
    a_prev = -1.0
    for q in range(12):
        a = separation_constant_A(q, BOTH, Branch.Minus)
        assert a > a_prev
        a_prev = a
    ez_prev = -1.0
    for p in range(12):
        _, ez = energy_cylindrical_parts(0, p, BOTH, Branch.Minus)
        assert ez > ez_prev
        ez_prev = ez


def test_enumerate_level_counts():
    assert len(enumerate_level(0, P(p=2.0))) == 1
    assert len(enumerate_level(2, P(p=2.0))) == 3
    assert len(enumerate_level(1, BOTH)) == 4
    for sph, cyl in enumerate_level(3, BOTH):
        assert sph.n == cyl.n == 3
        assert sph.branch is cyl.branch
        assert sph.m == cyl.m == BOTH.m


def test_label_validation():
    with pytest.raises(DomainError):
        SphericalLabel(n_r=-1, q=0, m=0, branch=Branch.Plus)
    with pytest.raises(DomainError):
        CylindricalLabel(n_rho=0, p=-2, m=0, branch=Branch.Plus)
    lbl = SphericalLabel(n_r=2, q=3, m=1, branch=Branch.Plus)
    assert lbl.n == 5
    # non-finite and non-numeric indices are domain errors, not the
    # OverflowError or ValueError that int() raises on them
    for bad in (math.inf, -math.inf, math.nan, "2", None, 1.5):
        with pytest.raises(DomainError, match="nonnegative integer"):
            SphericalLabel(n_r=bad, q=0, m=0, branch=Branch.Plus)
        with pytest.raises(DomainError):
            energy_level(bad, BOTH, Branch.Plus)
        with pytest.raises(DomainError):
            separation_constant_A(bad, BOTH, Branch.Plus)
        with pytest.raises(DomainError, match="level"):
            check_nonneg_int(bad, "level")
    assert check_nonneg_int(3.0, "n") == 3 and type(check_nonneg_int(3.0, "n")) is int
    # check_positive too: never float()'s OverflowError, TypeError or ValueError
    for bad in (10 ** 400, "2", None, math.nan, -1.0):
        with pytest.raises(DomainError, match="positive"):
            check_positive(bad, "R")
    assert check_positive(2, "R") == 2.0


def test_ring_relabel_examples():
    iso = SystemParams(1, 0.0, 0.0, 0)
    r0 = ring_relabel(SphericalLabel(0, 0, 0, Branch.Minus), iso)
    assert (r0.N, r0.l) == (0, 0)
    r1 = ring_relabel(SphericalLabel(1, 1, 1, Branch.Plus), RING)
    assert (r1.N, r1.l) == (6, 4)
    assert r1.delta == pytest.approx(1.0)
    r2 = ring_relabel(CylindricalLabel(0, 1, 0, Branch.Minus), iso)
    assert r2.n3 == 2
    with pytest.raises(DomainError):
        ring_relabel(SphericalLabel(0, 0, 1, Branch.Plus), BOTH)


def test_ring_limit_identity():
    # at b = 1/2 the quantized A matches (l + delta)(l + delta + 1)
    _, _, delta = channel_constants(RING)
    for branch in (Branch.Plus, Branch.Minus):
        for q in range(6):
            lbl = SphericalLabel(n_r=0, q=q, m=RING.m, branch=branch)
            ring = ring_relabel(lbl, RING)
            assert separation_constant_A(q, RING, branch) == pytest.approx(
                ring_separation_constant(ring.l, delta), rel=1e-13)


def test_ring_energy_and_separation_constant_check_their_arguments():
    # once returned nan, -4.7 and 6.0
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="delta must be nonnegative and finite"):
            ring_energy(3, bad, 1.0)
        with pytest.raises(DomainError, match="delta must be nonnegative and finite"):
            ring_separation_constant(2, bad)
    # omega obeys SystemParams' range: once 1e300 gave 1.5e300 and 1e-300 gave 1.5e-300
    for bad in (-1.0, 0.0, math.nan, math.inf, 1e300, 1e-300, math.nextafter(1e150, math.inf),
                math.nextafter(1e-150, 0.0)):
        with pytest.raises(DomainError) as refused:
            ring_energy(3, 0.2, bad)
        assert str(refused.value) == f"omega must lie in [1e-150, 1e150], got {bad!r}"
    assert ring_energy(0, 0.0, 1e150) == 1e150 * 1.5 and ring_energy(0, 0.0, 1e-150) == 1e-150 * 1.5
    assert ring_energy(3, 0.2, 1.0) == 4.7 and ring_separation_constant(2, 0.5) == 8.75


def test_ring_energy_identity():
    # E_N(delta) = omega (N + delta + 3/2) agrees with the level formula
    _, _, delta = channel_constants(RING)
    for branch in (Branch.Plus, Branch.Minus):
        for n in range(5):
            lbl = SphericalLabel(n_r=n, q=2, m=RING.m, branch=branch)
            ring = ring_relabel(lbl, RING)
            assert energy_level(lbl.n, RING, branch) == pytest.approx(
                ring_energy(ring.N, delta, RING.omega), rel=1e-13)
    iso = SystemParams(1, 0.0, 0.0, 0)
    assert ring_energy(0, 0.0, 1.0) == pytest.approx(1.5)


def test_ring_label_validation():
    with pytest.raises(DomainError):
        RingLabel(N=3, m=0, delta=0.0, l=2)   # N - l odd
    with pytest.raises(DomainError):
        RingLabel(N=4, m=2, delta=0.0, l=0)   # l < |m|
    with pytest.raises(DomainError):
        RingLabel(N=4, m=0, delta=0.0, n3=5)  # n3 > N - |m|
    RingLabel(N=6, m=1, delta=1.0, l=4)
    RingLabel(N=6, m=1, delta=1.0, n3=3)
