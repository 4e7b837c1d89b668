"""Benchmark programs, written generically over the scalar type.

Every problem exposes ``run(ctx, x)`` against a :class:`~adtape.scalar.Recorder`
and therefore evaluates identically with plain floats (the finite-difference
oracle path) and with tape-recording scalars.  Random draws come from a
seeded generator re-created on every run, so the oracle uses common random
numbers.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import scalar as ops
from .rng import Xorshift
from .scalar import Recorder, run_passive
from .tape import DAG, Tape


class StabilityError(ValueError):
    """An explicit scheme was asked to run outside its stability limit."""


class Problem:
    name = "problem"
    fd_tolerance = 1e-6
    fd_step = 1e-6

    def default_point(self) -> list[float]:
        raise NotImplementedError

    def run(self, ctx: Recorder, x: Sequence) -> None:
        raise NotImplementedError


class IntroExample(Problem):
    """Scalar chain y = f(x): repeated u = sin(v[i-1]); v[i] = u*u + v[0]."""

    name = "intro"
    fd_tolerance = 1e-9
    fd_step = 1e-6

    def __init__(self, length: int = 3, x: float = 1.0):
        if length < 2:
            raise ValueError("length must be >= 2")
        self.length = length
        self.x = x

    def default_point(self):
        return [self.x]

    def run(self, ctx, x):
        v = [ctx.input(x[0])]
        u = ctx.lvalue()
        v += [ctx.lvalue() for _ in range(self.length - 1)]
        for i in range(1, self.length):
            u = ctx.assign(u, ops.sin(v[i - 1]))
            v[i] = ctx.assign(v[i], u * u + v[0])
        ctx.output(v[self.length - 1])


class BlackScholesMC(Problem):
    """European call under geometric Brownian motion, pathwise sensitivities
    of the mean discounted payoff with respect to (S0, vol, r).

    The per-path coding reuses a fixed set of program variables (ten in
    total, inputs included), so the dedicated-L-value RAM footprint does not
    grow with the number of paths.
    """

    name = "bs_mc"
    fd_tolerance = 1e-5
    fd_step = 1e-5

    def __init__(self, s0: float = 100.0, k: float = 100.0, r: float = 0.05,
                 vol: float = 0.2, t: float = 1.0, steps: int = 8,
                 paths: int = 100, seed: int = 11):
        if min(s0, k, vol, t) <= 0 or steps < 1 or paths < 1:
            raise ValueError("bad Black-Scholes parameters")
        self.s0, self.k, self.r, self.vol, self.t = s0, k, r, vol, t
        self.steps, self.paths, self.seed = steps, paths, seed

    def default_point(self):
        return [self.s0, self.vol, self.r]

    def run(self, ctx, x):
        s0 = ctx.input(x[0])
        vol = ctx.input(x[1])
        r = ctx.input(x[2])
        drift = ctx.lvalue()
        sdt = ctx.lvalue()
        disc = ctx.lvalue()
        s = ctx.lvalue()
        pay = ctx.lvalue()
        acc = ctx.lvalue(0.0)
        out = ctx.lvalue()
        dt = self.t / self.steps
        sqdt = math.sqrt(dt)
        # log-Euler drift split into two products so the first factor is
        # only consumed after the three-operation second term
        a = r * dt
        b = ((vol * vol) * 0.5) * dt
        drift = ctx.assign(drift, a - b)
        sdt = ctx.assign(sdt, vol * sqdt)
        disc = ctx.assign(disc, ops.exp(-(r * self.t)))
        rng = Xorshift(self.seed)
        for _ in range(self.paths):
            s = ctx.assign(s, s0)
            for _ in range(self.steps):
                z = rng.normal()
                s = ctx.assign(s, s * ops.exp(drift + sdt * z))
            diff = s - self.k
            if ops.value_of(diff) > 0.0:
                pay = ctx.assign(pay, diff)
            else:
                pay = ctx.assign(pay, 0.0)
            acc = ctx.assign(acc, acc + pay * disc)
        out = ctx.assign(out, acc * (1.0 / self.paths))
        ctx.output(out)


class BlackScholesFD(Problem):
    """Explicit finite-difference solution of the Black-Scholes PDE,
    differentiated with respect to (vol, r).

    Time marches backwards from the call payoff at maturity; the price is
    read off at S0 by linear interpolation on the spot grid.
    """

    name = "bs_fd"
    fd_tolerance = 1e-4
    fd_step = 1e-5

    def __init__(self, s_max: float = 200.0, k: float = 100.0, r: float = 0.05,
                 vol: float = 0.2, t: float = 1.0, ns: int = 50, nt: int = 2000,
                 s0: float = 100.0):
        if ns < 3 or nt < 1 or min(s_max, k, t) <= 0:
            raise ValueError("bad grid parameters")
        if not 0 < s0 < s_max:
            raise ValueError("s0 must lie inside the spot grid")
        self.s_max, self.k, self.r, self.vol, self.t = s_max, k, r, vol, t
        self.ns, self.nt, self.s0 = ns, nt, s0

    def default_point(self):
        return [self.vol, self.r]

    def check_stability(self, vol: float) -> None:
        ds = self.s_max / (self.ns - 1)
        dt = self.t / self.nt
        lam = vol * vol * self.s_max * self.s_max * dt / (ds * ds)
        if lam > 1.0:
            raise StabilityError(
                f"explicit scheme unstable: vol^2*S_max^2*dt/dS^2 = {lam:.3f} > 1; "
                f"increase nt above {math.ceil(self.nt * lam)}")

    def run(self, ctx, x):
        self.check_stability(float(x[0]))
        vol = ctx.input(x[0])
        r = ctx.input(x[1])
        ns, nt = self.ns, self.nt
        ds = self.s_max / (ns - 1)
        dt = self.t / nt
        grid = [i * ds for i in range(ns)]
        cur: list = [max(si - self.k, 0.0) for si in grid]
        nxt = [ctx.lvalue() for _ in range(ns)]
        alt = [ctx.lvalue() for _ in range(ns)]
        out = ctx.lvalue()
        v2 = ctx.lvalue()
        v2 = ctx.assign(v2, vol * vol)
        for step in range(nt):
            tau = (step + 1) * dt  # time to maturity after this step
            for i in range(1, ns - 1):
                c = cur[i]
                left = cur[i - 1]
                right = cur[i + 1]
                diffu = v2 * ((0.5 * grid[i] * grid[i] * dt / (ds * ds))
                              * (right - 2.0 * c + left))
                conv = r * ((0.5 * grid[i] * dt / ds) * (right - left))
                decay = (r * c) * dt
                nxt[i] = ctx.assign(nxt[i], c + diffu + conv - decay)
            nxt[0] = ctx.assign(nxt[0], 0.0)
            nxt[ns - 1] = ctx.assign(nxt[ns - 1],
                                     self.s_max - self.k * ops.exp(-(r * tau)))
            cur, nxt = nxt, (alt if step == 0 else cur)
        i0 = min(int(self.s0 / ds), ns - 2)
        frac = self.s0 / ds - i0
        out = ctx.assign(out, cur[i0] + frac * (cur[i0 + 1] - cur[i0]))
        ctx.output(out)


class Burgers(Problem):
    """Explicit upwind scheme for the viscous Burgers equation on a periodic
    grid; objective is half the squared norm of the final state,
    differentiated with respect to the full initial state."""

    name = "burgers"
    fd_tolerance = 1e-5
    fd_step = 1e-6

    def __init__(self, nx: int = 20, nt: int = 50, dt: float = 0.02,
                 dx: float = 0.1, nu: float = 0.01, u0: Sequence[float] | None = None):
        if nx < 3 or nt < 0 or dt <= 0 or dx <= 0 or nu < 0:
            raise ValueError("bad Burgers parameters")
        self.nx, self.nt, self.dt, self.dx, self.nu = nx, nt, dt, dx, nu
        if u0 is None:
            u0 = [0.5 + 0.25 * math.sin(2.0 * math.pi * i / nx) for i in range(nx)]
        if len(u0) != nx:
            raise ValueError("u0 length must equal nx")
        self.u0 = list(u0)

    def default_point(self):
        return list(self.u0)

    def check_stability(self, u0: Sequence[float]) -> None:
        cfl = max(abs(v) for v in u0) * self.dt / self.dx
        if cfl > 1.0:
            raise StabilityError(f"CFL violated: max|u|*dt/dx = {cfl:.3f} > 1")

    def run(self, ctx, x):
        self.check_stability([float(v) for v in x])
        nx, dt, dx, nu = self.nx, self.dt, self.dx, self.nu
        cur = [ctx.input(v) for v in x]
        nxt = [ctx.lvalue() for _ in range(nx)]
        acc = ctx.lvalue(0.0)
        visc = dt * nu / (dx * dx)
        for _ in range(self.nt):
            for i in range(nx):
                c = cur[i]
                left = cur[i - 1]
                right = cur[(i + 1) % nx]
                if ops.value_of(c) >= 0.0:
                    adv = c * ((c - left) * (dt / dx))
                else:
                    adv = c * ((right - c) * (dt / dx))
                val = c - adv
                if nu:
                    val = val + visc * (right - 2.0 * c + left)
                nxt[i] = ctx.assign(nxt[i], val)
            cur, nxt = nxt, cur
        for i in range(nx):
            acc = ctx.assign(acc, acc + 0.5 * (cur[i] * cur[i]))
        ctx.output(acc)


class LiborMC(Problem):
    """Single-factor LIBOR market model under the spot measure: log-Euler
    evolution per tenor period, payoff is the discounted value of a payer
    swap starting at the maturity index, averaged over paths.

    Differentiated inputs are all initial forward rates followed by all
    volatilities.
    """

    name = "libor_mc"
    fd_tolerance = 1e-4
    fd_step = 1e-6

    def __init__(self, rates: int = 10, delta: float = 0.5, maturity: int = 4,
                 strike: float = 0.05, l0: float = 0.05, vol: float = 0.15,
                 paths: int = 500, seed: int = 7):
        if rates < 2 or not 1 <= maturity < rates or paths < 1:
            raise ValueError("bad LIBOR parameters")
        if min(delta, l0, strike) <= 0 or vol < 0:
            raise ValueError("bad LIBOR parameters")
        self.rates, self.delta, self.maturity = rates, delta, maturity
        self.strike, self.l0, self.vol = strike, l0, vol
        self.paths, self.seed = paths, seed

    def default_point(self):
        n = self.rates
        return ([self.l0 * (1.0 + 0.1 * i / n) for i in range(n)]
                + [self.vol * (1.0 + 0.05 * i / n) for i in range(n)])

    def run(self, ctx, x):
        n, delta, mat = self.rates, self.delta, self.maturity
        l0 = [ctx.input(v) for v in x[:n]]
        sig = [ctx.input(v) for v in x[n:]]
        rate = [ctx.lvalue() for _ in range(n)]
        drift = ctx.lvalue()
        bank = ctx.lvalue()
        df = ctx.lvalue()
        swap = ctx.lvalue()
        acc = ctx.lvalue(0.0)
        out = ctx.lvalue()
        sqd = math.sqrt(delta)
        rng = Xorshift(self.seed)
        for _ in range(self.paths):
            for i in range(n):
                rate[i] = ctx.assign(rate[i], l0[i])
            bank = ctx.assign(bank, 1.0)
            for t in range(mat):
                z = rng.normal()
                bank = ctx.assign(bank, bank * (1.0 + delta * rate[t]))
                drift = ctx.assign(drift, 0.0)
                for i in range(t + 1, n):
                    # accumulate the drift sum with the pre-update rate,
                    # then overwrite the rate in place
                    drift = ctx.assign(
                        drift,
                        drift + (delta * (sig[i] * rate[i]))
                        / (1.0 + delta * rate[i]))
                    arg = ((sig[i] * drift - 0.5 * (sig[i] * sig[i])) * delta
                           + sig[i] * (z * sqd))
                    rate[i] = ctx.assign(rate[i], rate[i] * ops.exp(arg))
            df = ctx.assign(df, 1.0)
            swap = ctx.assign(swap, 0.0)
            for i in range(mat, n):
                df = ctx.assign(df, df / (1.0 + delta * rate[i]))
                swap = ctx.assign(swap, swap + (delta * (rate[i] - self.strike)) * df)
            acc = ctx.assign(acc, acc + swap / bank)
        out = ctx.assign(out, acc * (1.0 / self.paths))
        ctx.output(out)


PROBLEMS = {cls.name: cls for cls in
            (IntroExample, BlackScholesMC, BlackScholesFD, Burgers, LiborMC)}


def fd_oracle(problem: Problem, x: Sequence[float], direction: Sequence[float],
              h: float, seed: Sequence[float] | None = None) -> float:
    """Central-difference directional derivative of the seed-weighted output."""
    if h <= 0:
        raise ValueError("fd step must be positive")

    def weighted(pt):
        ys = run_passive(problem, pt)
        s = seed if seed is not None else [1.0] * len(ys)
        return sum(si * yi for si, yi in zip(s, ys))

    xp = [xi + h * di for xi, di in zip(x, direction)]
    xm = [xi - h * di for xi, di in zip(x, direction)]
    return (weighted(xp) - weighted(xm)) / (2.0 * h)


def fd_gradient(problem: Problem, x: Sequence[float], h: float,
                seed: Sequence[float] | None = None) -> list[float]:
    """Central differences of the seed-weighted output along each input,
    one ``fd_oracle`` call per component."""
    grad = []
    for i in range(len(x)):
        direction = [0.0] * len(x)
        direction[i] = 1.0
        grad.append(fd_oracle(problem, x, direction, h, seed=seed))
    return grad


# -- iterated evolutions, recorded with dense multivariate elementals --------

def evolution_coefficients(n: int, seed: int = 1) -> list[list[float]]:
    rng = Xorshift(seed)
    return [[(2.0 * rng.uniform() - 1.0) / n for _ in range(n)]
            for _ in range(n)]


def eval_evolution(x: Sequence[float], coeffs: Sequence[Sequence[float]],
                   length: int) -> list[float]:
    state = list(x)
    for _ in range(length):
        state = [math.sin(sum(a * v for a, v in zip(row, state)))
                 for row in coeffs]
    return state


def record_evolution(x: Sequence[float], coeffs: Sequence[Sequence[float]],
                     length: int, **store_config) -> Tape:
    """Record v = F(F(...F(v)...)) where each new component is one dense
    elemental sin(sum_j a_ij v_j) over the whole previous state."""
    n = len(x)
    tape = Tape(DAG, **store_config)
    ids = [tape.register_input() for _ in range(n)]
    vals = list(x)
    for _ in range(length):
        new_ids, new_vals = [], []
        for row in coeffs:
            arg = sum(a * v for a, v in zip(row, vals))
            c = math.cos(arg)
            rid = tape.record([(i, a * c) for i, a in zip(ids, row)])
            new_ids.append(rid)
            new_vals.append(math.sin(arg))
        ids, vals = new_ids, new_vals
    for rid in ids:
        tape.register_output(rid)
    tape.finalize()
    return tape
