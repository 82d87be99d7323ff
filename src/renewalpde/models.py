"""Concrete model instances: epidemic SIHR, cell growth, competitive harvest.

Each builder assembles a :class:`~renewalpde.problem.SystemDef` in kernel
form together with its declared hypothesis constants, so the analysis
certificates can be evaluated without further input.  Rates accept
either plain floats or vectorized callbacks ``rate(t, pts) -> (P,)``
with pts of shape (P, d); the first coordinate is always age.

The two deliberately blowing-up examples double as exact oracles: both
are solved in closed form by ``1/(1-t)`` times a moving or static unit
indicator, and their mass leaves any bound at t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .characteristics import VelocityField
from .domain import Domain
from .kernels import ScalarComponentKernel, WeightedMassKernel
from .problem import HypothesisConstants, SystemDef

AGE_VELOCITY = VelocityField.constant([1.0])


def _rate(val) -> Callable:
    """Lift a constant to a (t, pts) -> (P,) field."""
    if callable(val):
        return val
    c = float(val)

    def fn(t, pts):
        pts = np.atleast_2d(pts)
        return np.full(pts.shape[0], c)

    return fn


def _sup_estimate(val, domain: Domain, t_max: float = 10.0, samples: int = 256) -> float:
    """Sup bound of a rate: exact for constants, sampled for callbacks."""
    if not callable(val):
        return abs(float(val))
    rng = np.random.default_rng(1234)
    pts = np.column_stack([rng.uniform(lo, hi, samples) for lo, hi in domain.bounds()])
    worst = 0.0
    for t in np.linspace(0.0, t_max, 9):
        worst = max(worst, float(np.max(np.abs(np.asarray(val(np.full(samples, t), pts))))))
    return worst


def bump(center: float, width: float, height: float = 1.0) -> Callable:
    """Smooth compactly supported profile in the age coordinate."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        s = (x - center) / width
        out = np.zeros_like(s)
        mask = np.abs(s) < 1.0
        out[mask] = height * (1.0 - s[mask] ** 2) ** 2
        return out

    return fn


# ---------------------------------------------------------------------------
# SIHR epidemic model
# ---------------------------------------------------------------------------

@dataclass
class SIHRParams:
    """Susceptible/Infective/Hospitalized/Recovered, structured by age (+2D space).

    ``rho`` couples S to the infective pressure: a constant means the
    classical well-mixed contact rate; a callable ``rho(x, xp)`` gives a
    structured contact kernel and needs ``rho_bound``.  ``kappa`` is the
    quarantine speed (the natural control knob), ``theta`` and ``eta``
    the recovery speeds of I and H.
    """

    mu_s: float | Callable = 0.0
    mu_i: float | Callable = 0.0
    mu_h: float | Callable = 0.0
    mu_r: float | Callable = 0.0
    kappa: float | Callable = 0.0
    theta: float | Callable = 0.0
    eta: float | Callable = 0.0
    rho: float | Callable = 0.0
    rho_bound: float | None = None
    s_b: float | Callable = 0.0
    s_b_bound: float | None = None
    spatial: bool = False
    vel_s: Callable | None = None
    vel_i: Callable | None = None
    vel_r: Callable | None = None
    vel_div: Callable | None = None
    vel_sup: float = 2.0
    age_max: float = 10.0
    y_max: float = 2.0
    s0: Callable | None = None
    i0: Callable | None = None
    h0: Callable | None = None
    r0: Callable | None = None
    natality_weight: float | Callable | None = None
    natality_bound: float | None = None


def _sihr_initial(params: SIHRParams, dim: int) -> Callable:
    s0 = params.s0 or (lambda a: bump(1.5, 1.5, 1.0)(a))
    i0 = params.i0 or (lambda a: bump(1.0, 0.8, 0.1)(a))
    h0 = params.h0 or (lambda a: np.zeros_like(np.asarray(a, dtype=float)))
    r0 = params.r0 or (lambda a: np.zeros_like(np.asarray(a, dtype=float)))

    def u0(pts):
        pts = np.atleast_2d(pts)
        a = pts[:, 0]
        cols = [s0(a), i0(a), h0(a), r0(a)]
        if dim > 1:
            # concentrate around the spatial origin so truncation stays quiet
            w = np.ones(pts.shape[0])
            for j in range(1, dim):
                w = w * np.exp(-(pts[:, j] / 0.8) ** 2)
            cols = [c * w for c in cols]
        return np.column_stack(cols)

    return u0


def build_sihr(params: SIHRParams) -> SystemDef:
    """Assemble the 4-component epidemic system in kernel form."""
    if params.spatial:
        domain = Domain(half_lengths=(params.age_max,), full_lengths=(params.y_max, params.y_max))
    else:
        domain = Domain(half_lengths=(params.age_max,))
    d = domain.dim

    for name in ("mu_s", "mu_i", "mu_h", "mu_r", "kappa", "theta", "eta"):
        if not callable(getattr(params, name)) and float(getattr(params, name)) < 0:
            raise ValueError(f"rate {name} must be nonnegative")

    mu_s, mu_i, mu_h, mu_r = (_rate(params.mu_s), _rate(params.mu_i),
                              _rate(params.mu_h), _rate(params.mu_r))
    kappa, theta, eta_r = _rate(params.kappa), _rate(params.theta), _rate(params.eta)

    if params.spatial:
        def spatial_vel(vy):
            def fn(t, pts):
                pts = np.atleast_2d(pts)
                out = np.empty_like(pts)
                out[:, 0] = 1.0
                out[:, 1:] = 0.0 if vy is None else vy(t, pts)
                return out

            div = params.vel_div or (lambda t, pts: np.zeros(np.atleast_2d(pts).shape[0]))
            return VelocityField(fn, div, sup=params.vel_sup)

        aging_only = VelocityField.constant([1.0] + [0.0] * (d - 1))
        cache = {}

        def vel_for(vy):
            # share identical velocity objects so traces are shared too
            if vy is None:
                return aging_only
            return cache.setdefault(id(vy), spatial_vel(vy))

        vels = (vel_for(params.vel_s), vel_for(params.vel_i), aging_only,
                vel_for(params.vel_r))
    else:
        vels = (AGE_VELOCITY,) * 4

    if callable(params.rho):
        if params.rho_bound is None:
            raise ValueError("structured contact kernel needs rho_bound")
        rho_max = float(params.rho_bound)
        contact = ScalarComponentKernel(params.rho, comp=1)
    else:
        rho_max = abs(float(params.rho))
        contact = WeightedMassKernel(float(params.rho), comp=1) if params.rho else None

    P = (
        lambda t, pts, eta: -mu_s(t, pts) - eta[:, 0],
        lambda t, pts, eta: -(mu_i(t, pts) + kappa(t, pts) + theta(t, pts)),
        lambda t, pts, eta: -(mu_h(t, pts) + eta_r(t, pts)),
        lambda t, pts, eta: -mu_r(t, pts),
    )
    Q = (
        None,
        lambda t, pts, u, eta: eta[:, 0] * u[:, 0],
        lambda t, pts, u, eta: kappa(t, pts) * u[:, 1],
        lambda t, pts, u, eta: theta(t, pts) * u[:, 1] + eta_r(t, pts) * u[:, 2],
    )

    s_b = _rate(params.s_b)
    if params.natality_weight is not None:
        if callable(params.natality_weight) and params.natality_bound is None:
            raise ValueError("natality weight needs a sup bound")
        nat_bound = params.natality_bound if params.natality_bound is not None \
            else abs(float(params.natality_weight))
        ku0 = WeightedMassKernel(params.natality_weight, comp=0)
        Ub0 = lambda t, pts, eta: eta[:, 0]
        b_const = nat_bound
    else:
        ku0 = None
        Ub0 = lambda t, pts, eta: s_b(t, pts)
        b_const = params.s_b_bound if params.s_b_bound is not None else _sup_estimate(
            params.s_b, domain)
    Ub = (Ub0, None, None, None)

    sup_mu_s = _sup_estimate(params.mu_s, domain)
    sup_mu_i = _sup_estimate(params.mu_i, domain)
    sup_mu_h = _sup_estimate(params.mu_h, domain)
    sup_mu_r = _sup_estimate(params.mu_r, domain)
    sup_k = _sup_estimate(params.kappa, domain)
    sup_th = _sup_estimate(params.theta, domain)
    sup_eta = _sup_estimate(params.eta, domain)

    constants = HypothesisConstants(
        P1=max(sup_mu_s, sup_mu_i + sup_k + sup_th, sup_mu_h + sup_eta, sup_mu_r),
        P2=rho_max,
        Q1=max(sup_k, sup_eta + sup_th),
        Q3=rho_max,
        Q2=0.0,
        B=b_const,
        C1=0.0,
        C2=0.0,
    )

    return SystemDef(k=4, domain=domain, velocities=vels, P=P, Q=Q, Ub=Ub,
                     Kp=(contact, None, None, None), Kq=(None, contact, None, None),
                     Ku=(ku0, None, None, None),
                     u0=_sihr_initial(params, d), constants=constants, name="sihr",
                     labels=("S", "I", "H", "R"), q_reads=((), (0,), (1,), (1, 2)))


# ---------------------------------------------------------------------------
# Cell growth and division
# ---------------------------------------------------------------------------

@dataclass
class CellGrowthParams:
    """Age-structured growth with loss and a renewal (division) boundary.

    The division intake must be linear in the population for the kernel
    form: newborn flux = ``int b(x') N(t, x') dx'`` with weight b.  With
    ``n`` trait axes, ``growth(t, pts)`` returns their velocities, ``(P, n)``.
    """

    loss: float | Callable = 0.0
    birth_weight: float | Callable = 0.0
    birth_bound: float | None = None
    growth: Callable | None = None
    growth_div: Callable | None = None
    growth_sup: float = 2.0
    n: int = 0
    age_max: float = 8.0
    y_max: float = 2.0
    u0: Callable | None = None


def build_cell_growth(params: CellGrowthParams) -> SystemDef:
    if params.n > 0:
        domain = Domain(half_lengths=(params.age_max,),
                        full_lengths=(params.y_max,) * params.n)
    else:
        domain = Domain(half_lengths=(params.age_max,))
    d = domain.dim
    loss = _rate(params.loss)

    if params.growth is not None:
        def fn(t, pts):
            pts = np.atleast_2d(pts)
            out = np.empty_like(pts)
            out[:, 0] = 1.0
            out[:, 1:] = params.growth(t, pts)
            return out

        div = params.growth_div or (lambda t, pts: np.zeros(np.atleast_2d(pts).shape[0]))
        vel = VelocityField(fn, div, sup=params.growth_sup)
    else:
        vel = VelocityField.constant([1.0] + [0.0] * (d - 1)) if d > 1 else AGE_VELOCITY

    if callable(params.birth_weight) and params.birth_bound is None:
        raise ValueError("birth weight callback needs a sup bound")
    b_bound = params.birth_bound if params.birth_bound is not None \
        else abs(float(params.birth_weight))
    ku = WeightedMassKernel(params.birth_weight, comp=0) \
        if (callable(params.birth_weight) or params.birth_weight) else None

    u0_age = params.u0 or bump(1.0, 0.9, 1.0)

    def u0(pts):
        pts = np.atleast_2d(pts)
        vals = u0_age(pts[:, 0])
        for j in range(1, d):
            vals = vals * np.exp(-(pts[:, j] / 0.8) ** 2)
        return vals[:, None]

    constants = HypothesisConstants(
        P1=_sup_estimate(params.loss, domain), P2=0.0, Q1=0.0, Q3=0.0, Q2=0.0,
        B=b_bound, C1=0.0, C2=0.0)

    return SystemDef(
        k=1, domain=domain, velocities=(vel,),
        P=(lambda t, pts, eta: -loss(t, pts),),
        Q=(None,),
        Ub=((lambda t, pts, eta: eta[:, 0]) if ku is not None else None,),
        Ku=(ku,), u0=u0, constants=constants, name="cellgrowth", labels=("N",))


# ---------------------------------------------------------------------------
# Competitive two-species harvesting model
# ---------------------------------------------------------------------------

@dataclass
class CompetitiveParams:
    """Two age-structured populations coupled by competition kernels.

    Mortalities depend on age only: a pointwise state-dependent
    mortality does not fit the kernel coefficient form, and keeping it
    multiplicative is what makes positivity exact.
    """

    mu1: float | Callable = 0.1
    mu2: float | Callable = 0.1
    f1: float | Callable = 0.0
    f2: float | Callable = 0.0
    c1: float | Callable = 0.0
    c2: float | Callable = 0.0
    c1_bound: float | None = None
    c2_bound: float | None = None
    beta1: float | Callable = 0.0
    beta2: float | Callable = 0.0
    beta1_bound: float | None = None
    beta2_bound: float | None = None
    age_max: float = 5.0
    u0_1: Callable | None = None
    u0_2: Callable | None = None


def _competition_kernel(c, bound, other_comp: int):
    if callable(c):
        if bound is None:
            raise ValueError("competition kernel callback needs a sup bound")
        return ScalarComponentKernel(
            lambda x, xp: c(xp[..., 0], x[..., 0]), comp=other_comp), float(bound)
    if float(c) == 0.0:
        return None, 0.0
    return WeightedMassKernel(float(c), comp=other_comp), abs(float(c))


def _natality_kernel(beta, bound, comp: int):
    if callable(beta):
        if bound is None:
            raise ValueError("natality weight callback needs a sup bound")
        return WeightedMassKernel(lambda pts: beta(pts[:, 0]), comp=comp), float(bound)
    if float(beta) == 0.0:
        return None, 0.0
    return WeightedMassKernel(float(beta), comp=comp), abs(float(beta))


def build_competitive(params: CompetitiveParams) -> SystemDef:
    domain = Domain(half_lengths=(params.age_max,))
    mu1, mu2 = _rate(params.mu1), _rate(params.mu2)
    f1, f2 = _rate(params.f1), _rate(params.f2)

    k1, c1_max = _competition_kernel(params.c1, params.c1_bound, other_comp=1)
    k2, c2_max = _competition_kernel(params.c2, params.c2_bound, other_comp=0)
    n1, b1_max = _natality_kernel(params.beta1, params.beta1_bound, comp=0)
    n2, b2_max = _natality_kernel(params.beta2, params.beta2_bound, comp=1)

    u0_1 = params.u0_1 or bump(1.0, 0.9, 1.0)
    u0_2 = params.u0_2 or bump(1.5, 1.2, 0.8)

    def u0(pts):
        pts = np.atleast_2d(pts)
        return np.column_stack([u0_1(pts[:, 0]), u0_2(pts[:, 0])])

    P = (
        lambda t, pts, eta: -mu1(t, pts) - f1(t, pts) - eta[:, 0],
        lambda t, pts, eta: -mu2(t, pts) - f2(t, pts) - eta[:, 0],
    )
    Ub = tuple(None if n is None else (lambda t, pts, eta: eta[:, 0]) for n in (n1, n2))

    p1_sup = _sup_estimate(params.mu1, domain) + _sup_estimate(params.f1, domain)
    p2_sup = _sup_estimate(params.mu2, domain) + _sup_estimate(params.f2, domain)
    constants = HypothesisConstants(
        P1=max(p1_sup, p2_sup), P2=max(c1_max, c2_max), Q1=0.0, Q3=0.0, Q2=0.0,
        B=max(b1_max, b2_max), C1=0.0, C2=0.0)

    return SystemDef(k=2, domain=domain, velocities=(AGE_VELOCITY, AGE_VELOCITY),
                     P=P, Q=(None, None), Ub=Ub,
                     Kp=(k1, k2), Ku=(n1, n2), u0=u0,
                     constants=constants, name="competitive", labels=("u1", "u2"))


# ---------------------------------------------------------------------------
# Blow-up examples with closed-form solutions
# ---------------------------------------------------------------------------

def build_blowup(variant: str = "ode"):
    """Quadratic-feedback examples solved by ``1/(1-t)`` times an indicator.

    Returns ``(system, oracle)`` where ``oracle(t, pts)`` evaluates the
    closed-form solution; both variants lose existence at t = 1.
    """

    def indicator01(pts):
        pts = np.atleast_2d(pts)
        return ((pts[:, 0] >= 0.0) & (pts[:, 0] <= 1.0)).astype(float)

    constants = HypothesisConstants(P1=0.0, P2=1.0)

    if variant == "ode":
        domain = Domain(full_lengths=(1.5,), full_bounds=((-0.5, 1.5),))
        window = WeightedMassKernel(lambda pts: indicator01(pts), comp=0)
        vel = VelocityField.constant([0.0])

        def oracle(t, pts):
            return indicator01(pts) / (1.0 - t)

        sys = SystemDef(k=1, domain=domain, velocities=(vel,),
                        P=(lambda t, pts, eta: eta[:, 0],),
                        Q=(None,), Ub=(None,), Kp=(window,),
                        u0=lambda pts: indicator01(pts)[:, None],
                        constants=constants, name="blowup-ode")
        return sys, oracle

    if variant == "transport":
        domain = Domain(half_lengths=(3.0,))
        window = WeightedMassKernel(1.0, comp=0)
        vel = AGE_VELOCITY

        def oracle(t, pts):
            pts = np.atleast_2d(pts)
            x = pts[:, 0]
            return ((x >= t) & (x <= 1.0 + t)).astype(float) / (1.0 - t)

        sys = SystemDef(k=1, domain=domain, velocities=(vel,),
                        P=(lambda t, pts, eta: eta[:, 0],),
                        Q=(None,), Ub=(None,), Kp=(window,),
                        u0=lambda pts: indicator01(pts)[:, None],
                        constants=constants, name="blowup-transport")
        return sys, oracle

    raise ValueError(f"unknown blow-up variant: {variant}")
