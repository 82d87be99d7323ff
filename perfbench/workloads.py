"""The four benchmark workloads: inputs from a seed, the timed call, checks.

Each workload makes its inputs from a ``Draw``: the benchmark seed and
the repetition's draw number; the program only sees the generated
inputs.  ``run`` is the timed part (a user's script after
its imports), ``check`` verifies the result after timing, and
``solver`` names the solver entry whose first call ends set-up.

Why these four (see README.md in this directory for the layer split):

* ``sihr-age-cli``: the main user path through the CLI, the only one
  that runs certificates and CSV output; interpolation and tracing
  dominate.
* ``sihr-space-contact``: the only dense contact kernel, frozen on a
  3-D grid, plus 3-D interpolation; the drift is a callable.
* ``blowup-cascade``: slab halving down to a local-existence failure;
  rejected Picard work and bookkeeping, no inflow face, no certificates.
* ``linear-transport``: one linear problem with a varying velocity;
  backward tracing and exit bisection do nearly all the work, and there
  is no Picard iteration at all.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import numpy as np

from renewalpde import cli, domain, models, picard, transport
from renewalpde.analysis import apriori_l1_certificate
from renewalpde.characteristics import VelocityField

CLI_CERTIFICATES = ("positivity", "gronwall-mass", "contraction", "entropy")


class Draw:
    """The random inputs of one repetition, from the seed and a draw number.

    ``factors(n)`` gives n factors in [1 - spread, 1 + spread].  Draw 0
    takes them uniformly from a generator seeded with the seed.  Draw d
    moves them along a low-discrepancy (R_n) sequence: factor k is
    frac(u_k + d * g**-(k + 1)) of the range, where u_k is its place in
    draw 0 and g is the root of g**(n + 1) = g + 1 (the golden ratio for
    n = 1).  Any run of consecutive draws covers each factor's range
    evenly, so the median over a run's draws depends little on the seed,
    even where the work jumps with the input (the blow-up cascade).
    ``rng`` serves every other random input of the draw.
    """

    def __init__(self, seed: int, draw: int):
        self.seed, self.draw = seed, draw
        self.rng = np.random.default_rng([seed, draw])

    def factors(self, n: int, spread: float = 0.05) -> list[float]:
        lo, hi = 1.0 - spread, 1.0 + spread
        base = self.rng if self.draw == 0 else np.random.default_rng([self.seed, 0])
        first = [float(base.uniform(lo, hi)) for _ in range(n)]
        if self.draw == 0:
            return first
        g = 2.0
        for _ in range(64):
            g = (1.0 + g) ** (1.0 / (n + 1))
        return [lo + (hi - lo) * (((f - lo) / (hi - lo) + self.draw * g ** -(k + 1)) % 1.0)
                for k, f in enumerate(first)]


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class Workload:
    name: str
    solver: tuple[str, str]  # (module, function) of the solver entry

    def facts(self, inp: dict) -> dict:
        """Deterministic facts about the outputs that the layer metrics report."""
        return {}


class SihrAgeCli(Workload):
    name = "sihr-age-cli"
    solver = ("picard", "solve")
    cells = 96
    horizon = 0.5

    def inputs(self, draw: Draw, work: Path) -> dict:
        rho, kappa = draw.factors(2)
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        cfg = work / "sihr.yaml"
        cfg.write_text(
            "model: sihr\n"
            f"params: {{rho: {0.08 * rho!r}, kappa: {0.3 * kappa!r}}}\n"
            f"cells: {self.cells}\n"
            f"horizon: {self.horizon!r}\n"
            "certificates: [positivity, gronwall, contraction, entropy]\n"
            "entropy_samples: 50\n"
            f"output: {out}\n"
            f"seed: {int(draw.rng.integers(2**31))}\n")
        return {"config": cfg, "out": out}

    def run(self, inp: dict, user_callback) -> int:
        return cli.main(["run", str(inp["config"])])

    def check(self, inp: dict, rc: int) -> tuple[list, str, dict]:
        out = inp["out"]
        problems = [] if rc == 0 else [f"exit code {rc}"]
        lines = (out / "certificates.txt").read_text().splitlines()
        for cert in CLI_CERTIFICATES:
            if not any(l.startswith(cert + ":") and l.endswith("PASS") for l in lines):
                problems.append(f"certificate {cert} did not PASS")
        series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
        header = (out / "series.csv").read_text().split("\n", 1)[0].split(",")
        masses = series[:, [i for i, h in enumerate(header) if h.startswith("mass_")]]
        last = (out / "states" / "index.csv").read_text().splitlines()[-1].split(",")[2]
        final = np.loadtxt(out / "states" / last, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        return problems, _digest_dir(out), {"masses": masses.tolist(), "final": final.tolist()}

    def facts(self, inp: dict) -> dict:
        return {"bytes_written": sum(p.stat().st_size for p in inp["out"].rglob("*")
                                     if p.is_file())}


class SihrSpaceContact(Workload):
    name = "sihr-space-contact"
    solver = ("picard", "solve")
    shape = (10, 8, 8)
    horizon = 0.25
    speed = 0.3
    rho = 0.08

    def inputs(self, draw: Draw, work: Path) -> dict:
        width, speed = draw.factors(2)
        return {"width": width, "speed": self.speed * speed}

    def run(self, inp: dict, user_callback):
        width, drift_vec = inp["width"], np.array([inp["speed"], 0.0])

        def drift(t, pts):
            return np.broadcast_to(drift_vec, (np.atleast_2d(pts).shape[0], 2))

        def contact(x, xp):
            dy = (x[..., 1:] - xp[..., 1:]) / width
            return self.rho * np.exp(-np.sum(dy * dy, axis=-1))

        params = models.SIHRParams(kappa=0.3, theta=0.1, eta=0.2, rho=contact,
                                   rho_bound=self.rho, spatial=True, vel_s=drift,
                                   vel_i=drift, vel_r=drift, age_max=4.0)
        sys_ = models.build_sihr(params)
        grid = domain.Grid(sys_.domain, self.shape)
        cfg = picard.PicardConfig(slab_length=0.25, min_knots=4)
        return picard.solve(sys_, grid, self.horizon, cfg)

    def check(self, inp: dict, traj) -> tuple[list, str, dict]:
        problems = []
        worst = min(float(np.min(s.values)) for s in traj.states)
        if worst < -1e-12:
            problems.append(f"negative value {worst!r}")
        masses = traj.component_masses()
        total = masses.sum(axis=1)
        drift = float(np.max(np.abs(total - total[0])) / total[0])
        if drift > 0.02:
            problems.append(f"total mass drift {drift:.3%} above 2%")
        final = traj.states[-1].values
        return problems, _digest_arrays(masses, final), {"masses": masses.tolist(),
                                                         "final": final.tolist()}


class BlowupCascade(Workload):
    name = "blowup-cascade"
    solver = ("picard", "solve")
    cells = 200
    horizon = 1.2

    def inputs(self, draw: Draw, work: Path) -> dict:
        (c,) = draw.factors(1)
        return {"c": c}

    def run(self, inp: dict, user_callback):
        sys_, _ = models.build_blowup("ode")
        grid = domain.Grid(sys_.domain, (self.cells,))
        u0 = sys_.initial_state(grid) * inp["c"]
        cfg = picard.PicardConfig(min_knots=4, min_slab_factor=1e-2)
        try:
            picard.solve(sys_, grid, self.horizon, cfg, u_init=u0)
        except picard.LocalExistenceError as exc:
            return exc.bracket
        return None

    def check(self, inp: dict, bracket) -> tuple[list, str, dict]:
        c = inp["c"]
        if bracket is None:
            return ["solve reached the horizon without LocalExistenceError"], "", {}
        lo, hi = (float(b) for b in bracket)
        problems = [] if 0.9 / c <= lo <= 1.0 / c else \
            [f"last solved time {lo!r} outside [{0.9 / c!r}, {1.0 / c!r}]"]
        return problems, _digest_arrays([lo, hi]), {"bracket": [lo, hi]}


class LinearTransport(Workload):
    name = "linear-transport"
    solver = ("transport", "solve_series")
    cells = 400
    length = 8.0
    times = tuple(np.linspace(0.0, 3.0, 9))

    def inputs(self, draw: Draw, work: Path) -> dict:
        ub_amp, q_amp = draw.factors(2)
        return {"ub_amp": 0.5 * ub_amp, "q_amp": 0.1 * q_amp}

    def run(self, inp: dict, user_callback):
        ub_amp, q_amp = inp["ub_amp"], inp["q_amp"]

        def vel(t, x):
            x = np.atleast_2d(x)
            return 1.0 + 0.5 * x / (1.0 + x)

        def div(t, x):
            return 0.5 / (1.0 + np.atleast_2d(x)[:, 0]) ** 2

        def p(t, x):
            return np.full(np.atleast_2d(x).shape[0], -0.2)

        def q(t, x):
            return q_amp * np.exp(-np.atleast_2d(x)[:, 0])

        def ub(t, x):
            return 1.0 + ub_amp * np.sin(3.0 * np.asarray(t)) + np.zeros(np.atleast_2d(x).shape[0])

        grid = domain.Grid(domain.Domain(half_lengths=(self.length,)), (self.cells,))
        u0 = domain.GridFn.from_callback(grid, models.bump(1.5, 1.0))
        lp = transport.LinearProblem(VelocityField(vel, div, 1.5), user_callback(p),
                                     user_callback(q), user_callback(ub), u0)
        return lp, grid, transport.solve_series(lp, self.times, grid)

    def check(self, inp: dict, result) -> tuple[list, str, dict]:
        lp, grid, states = result
        problems = []
        worst = min(float(np.min(s.values)) for s in states)
        if worst < 0.0:
            problems.append(f"negative value {worst!r}")
        cert = apriori_l1_certificate(lp, grid, self.times[-1], u_t=states[-1])
        if not cert.passed:
            problems.append(f"apriori-l1 failed: {cert.format()}")
        masses = np.array([[float(np.sum(s.values)) * grid.cell_volume] for s in states])
        final = states[-1].values
        return problems, _digest_arrays(masses, final), {"masses": masses.tolist(),
                                                         "final": final.tolist()}


WORKLOADS = {w.name: w for w in (SihrAgeCli(), SihrSpaceContact(), BlowupCascade(),
                                 LinearTransport())}
