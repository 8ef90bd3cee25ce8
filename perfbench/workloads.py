"""The four benchmark workloads.

Each workload has three parts:

* ``setup(scratch)`` builds what every pass shares: grids, presets and
  mollified fields. Its cost is the benchmark's ``setup_s``. ``scratch`` is a
  directory inside the checkout for anything a pass writes.
* ``inputs(seed, index)`` derives one pass's inputs from the workload seed
  and the pass number alone, so one seed always gives the same inputs.
* ``run(ctx, inp)`` is the timed pass, made only of calls into ``sdelab``'s
  public names, looked up on the package at call time so that a traced pass
  can wrap them. ``check(ctx, inp, out)`` lists what is wrong with a pass's
  outputs, and ``scalars``/``digests`` feed the reference comparison.

The sizes are scaled from the fixtures they copy (criterion 04, the criteria
05-07 refinement fixture, the default scenarios, the 2-D OU preset at 128^2)
so that a pass takes a few tenths of a second. A run then times tens of
passes, enough for a median and a tail percentile with ten samples beyond it.
Each workload keeps the shape that makes it stress its layers: see README.md.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np

import sdelab as sl


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _store_seed(seed: int, index: int) -> int:
    return int(_rng(seed, index).integers(0, 2 ** 31))


# A Monte Carlo scalar may move by this many of its standard errors before it
# counts as a deviation: a change of random stream stays inside, a change of
# the estimate does not.
MC_TOL = 5.0
# Forward-PDE moments may move by this share: a different stable time
# stepping stays inside, a wrong operator does not.
PDE_RTOL = 1e-2
# The maximal operators are deterministic; only summation order may differ.
DET_RTOL = 1e-9


class Workload:
    name = ""

    def setup(self, scratch: Path) -> dict:
        raise NotImplementedError

    def cleanup(self, ctx, inp) -> None:
        """Drop what one pass left on disk (outside the timed region)."""

    def teardown(self, ctx) -> None:
        """Drop what set-up left on disk."""

    def notes(self, out) -> dict:
        """Figures reported with a run but never judged."""
        return {}


class McNorm(Workload):
    """One criterion-04 repetition: a wide, short, single-member ensemble."""

    name = "mc_norm"
    n_paths = 8000          # criterion 04: 100 000
    n_steps = 256
    record_every = 4

    def setup(self, scratch):
        grid = sl.make_grid(1, (-6.0, 6.0), 1024)
        return {"field": sl.preset_field("ou", {}, grid)}

    def inputs(self, seed, index):
        return {"store_seed": _store_seed(seed, index)}

    def run(self, ctx, inp):
        field = ctx["field"]
        store = sl.BrownianStore.generate(inp["store_seed"], self.n_paths,
                                          self.n_steps, 1.0 / self.n_steps)
        ens = sl.simulate_ensemble(field, 1.0, 1.0, store,
                                   record_every=self.record_every)
        law = sl.Law.from_ensemble(ens)
        quad = sl.h1_norm(field.drift, law, T=1.0)
        path = sl.h1_norm(field.drift, law, T=1.0, method="pathwise",
                          ensemble=ens)
        return {"quad": quad, "path": path, "law": law}

    def check(self, ctx, inp, out):
        quad, path = out["quad"], out["path"]
        if not (np.isfinite(quad.value) and np.isfinite(path.value)
                and path.mc_stderr > 0):
            return ["non-finite H1 estimate"]
        z = abs(quad.value - path.value) / path.mc_stderr
        return [] if z <= 3.0 else [f"|quadrature - pathwise| = {z:.2f} SE > 3"]

    def scalars(self, out):
        tol = MC_TOL * out["path"].mc_stderr
        return {"h1_quadrature": (out["quad"].value, tol),
                "h1_pathwise": (out["path"].value, tol)}

    def digests(self, out):
        return {"law_density": _digest(out["law"].density)}


class CoupledFamily(Workload):
    """The refinement fixture: six narrow, long members on one store."""

    name = "coupled_family"
    n_paths = 1000          # fixture: 10 000
    n_steps = 256           # fixture: 4096
    record_every = 8        # fixture: 32
    deltas = [2.0 ** -k for k in range(4, 10)]
    q_eps = [1e-1, 1e-2, 1e-3, 1e-4]
    l_eps = [0.5, 0.1, 0.01, 0.001]

    def setup(self, scratch):
        grid = sl.make_grid(1, (-4.0, 4.0), 8192)
        base = sl.preset_field("sqrt_diffusion", {"kappa": 0.0}, grid)
        return {"fields": [sl.mollify(base, d) for d in self.deltas]}

    def inputs(self, seed, index):
        return {"store_seed": _store_seed(seed, index)}

    def run(self, ctx, inp):
        store = sl.BrownianStore.generate(inp["store_seed"], self.n_paths,
                                          self.n_steps, 1.0 / self.n_steps)
        ens = [sl.simulate_ensemble(f, 0.0, 1.0, store,
                                    record_every=self.record_every)
               for f in ctx["fields"]]
        cauchy = sl.cauchy_diagnostic(ens, p=2.0)
        q = [sl.q_functional(ens[-2], ens[-1], e) for e in self.q_eps]
        lv = [sl.l_eps_functional(ens[-2], ens[-1], e) for e in self.l_eps]
        return {"ens": ens, "cauchy": cauchy, "q": q, "l": lv}

    def check(self, ctx, inp, out):
        problems = []
        rep = out["cauchy"]
        finest = float(rep.details["finest_entry"])
        if not rep.passed:
            problems.append("Cauchy diagnostic failed")
        if not finest < 1e-2:
            problems.append(f"finest Cauchy entry {finest:.3e} >= 1e-2")
        ea, eb = out["ens"][-2], out["ens"][-1]
        delta = np.abs(ea.paths[..., 0] - eb.paths[..., 0])
        for eps, fs in zip(self.l_eps, out["l"]):
            exceed = (delta > eps).mean(axis=0)
            if np.any(fs.values < exceed - 1e-12):
                problems.append(f"E L_eps < exceedance at eps={eps}")
        return problems

    def notes(self, out):
        """Criterion 06's sup_t E Q / |log eps| per eps: a documented expected
        failure, so it is reported with every run and never judged."""
        return {"criterion06_ratios": [fs.sup / abs(np.log(e))
                                       for fs, e in zip(out["q"], self.q_eps)]}

    def scalars(self, out):
        d = out["cauchy"].details
        vals = {"finest_entry": (d["finest_entry"], d["finest_stderr"])}
        for i, (v, se) in enumerate(zip(d["level_worst"], d["level_stderr"])):
            vals[f"level_worst_{i}"] = (float(v), float(se))
        for e, fs in zip(self.q_eps, out["q"]):
            vals[f"sup_EQ_{e:g}"] = (fs.sup, fs.sup_stderr)
        return {k: (v, MC_TOL * se) for k, (v, se) in vals.items()}

    def digests(self, out):
        return {"esup_matrix": _digest(out["cauchy"].details["esup_matrix"]),
                "q_series": _digest(*[fs.values for fs in out["q"]]),
                "l_series": _digest(*[fs.values for fs in out["l"]])}


def _read_series(artifact, name):
    return np.genfromtxt(artifact.out_dir / "series" / f"{name}.csv",
                         delimiter=",", names=True)


def _variance(x, u) -> float:
    p = u / u.sum()
    mean = float(np.sum(p * x))
    return float(np.sum(p * (x - mean) ** 2))


class ForwardPde(Workload):
    """Three default scenarios run through ``run_scenario`` into a scratch tree.

    The horizons are shortened (``stationary_1d`` 5.0 -> 0.2,
    ``kinetic_langevin`` 0.3 -> 0.1, ``elliptic_energy`` 1.0 -> 0.5); the
    grids, presets and step rules are the defaults.
    """

    name = "forward_pde"
    horizons = {"stationary_1d": 0.2, "kinetic_langevin": 0.1,
                "elliptic_energy": 0.5}

    def setup(self, scratch):
        root = Path(tempfile.mkdtemp(prefix="forward_pde-", dir=scratch))
        return {"root": root}

    def inputs(self, seed, index):
        g = _rng(seed, index)
        # initial widths stay where every scenario's check holds by theory:
        # the stationary envelope needs std in [0.8, 1] for C = 0.5
        return {
            "seed": int(g.integers(0, 2 ** 31)),
            "stationary_std": float(g.uniform(0.85, 1.0)),
            "kinetic_std": [float(g.uniform(0.25, 0.35)),
                            float(g.uniform(0.4, 0.6))],
            "elliptic_std": float(g.uniform(1.5, 2.5)),
            "tag": f"{seed}-{index}",
        }

    def configs(self, inp):
        u0 = {"stationary_1d": {"kind": "gaussian", "mean": 0.0,
                                "std": inp["stationary_std"]},
              "kinetic_langevin": {"kind": "gaussian", "mean": [0.0, 0.0],
                                   "std": inp["kinetic_std"]},
              "elliptic_energy": {"kind": "gaussian", "mean": 0.0,
                                  "std": inp["elliptic_std"]}}
        return {name: {"scenario": name, "seed": inp["seed"], "T": T,
                       "u0": u0[name]}
                for name, T in self.horizons.items()}

    def run(self, ctx, inp):
        base = ctx["root"] / inp["tag"]
        return {name: sl.run_scenario(cfg, out_dir=base / name)
                for name, cfg in self.configs(inp).items()}

    def check(self, ctx, inp, out):
        return [f"{name}: manifest incomplete or failed"
                for name, art in out.items()
                if not (art.manifest.get("complete")
                        and art.manifest.get("passed"))]

    def cleanup(self, ctx, inp):
        shutil.rmtree(ctx["root"] / inp["tag"], ignore_errors=True)

    def teardown(self, ctx):
        shutil.rmtree(ctx["root"], ignore_errors=True)

    def scalars(self, out):
        st = _read_series(out["stationary_1d"], "density_final")
        el = _read_series(out["elliptic_energy"], "density_final")
        en = _read_series(out["elliptic_energy"], "energy")
        vm = _read_series(out["kinetic_langevin"], "v_marginal")
        xm = _read_series(out["kinetic_langevin"], "x_marginal_final")
        vals = {
            "stationary_1d.var_x": _variance(st["x"], st["u"]),
            "elliptic_energy.var_x": _variance(el["x"], el["u"]),
            "elliptic_energy.energy_final": float(en["lhs"][-1]),
            "kinetic_langevin.var_v": float(vm["var_v"][-1]),
            "kinetic_langevin.var_x": _variance(xm["x"], xm["u"]),
        }
        return {k: (v, PDE_RTOL * abs(v)) for k, v in vals.items()}

    def digests(self, out):
        return {name: hashlib.sha256(
                    repr(sorted(art.manifest["files"].items())).encode()
                ).hexdigest()[:16]
                for name, art in out.items()}


class Maxops2d(Workload):
    """2-D maximal operators on the mollified 2-D OU preset."""

    name = "maxops_2d"
    cells = 48              # the preset at 128^2 scaled down
    L = float(np.exp(4.0))
    n_slices = 5

    def setup(self, scratch):
        grid = sl.make_grid(2, ((-4.0, 4.0), (-4.0, 4.0)), self.cells)
        field = sl.mollify(sl.preset_field("ou", {}, grid), 0.5)
        return {"grid": grid, "field": field}

    def inputs(self, seed, index):
        """Five Gaussian density slices with random centres and widths."""
        g = _rng(seed, index)
        centres = g.uniform(-1.0, 1.0, (self.n_slices, 2))
        widths = g.uniform(0.5, 1.5, (self.n_slices, 2))
        x = -4.0 + 8.0 / self.cells * np.arange(self.cells + 1)  # grid nodes
        return {"slices": np.stack([
            np.exp(-0.5 * ((x[:, None] - c[0]) / w[0]) ** 2
                   - 0.5 * ((x[None, :] - c[1]) / w[1]) ** 2)
            for c, w in zip(centres, widths)])}

    def run(self, ctx, inp):
        grid, field = ctx["grid"], ctx["field"]
        g = sl.gradient_magnitude(field.drift, grid)
        m = sl.maximal(g, grid)
        ml = sl.maximal_modified(g, grid, self.L)
        law = sl.Law.from_slices(grid, np.linspace(0.0, 1.0, self.n_slices),
                                 inp["slices"])
        w11 = sl.w11_norm(field.drift, law, T=1.0)
        return {"maximal": m, "maximal_modified": ml, "w11": w11}

    def check(self, ctx, inp, out):
        problems = []
        for key in ("maximal", "maximal_modified"):
            if not np.all(np.isfinite(out[key])):
                problems.append(f"{key} has non-finite values")
        if not np.isfinite(out["w11"].value) or out["w11"].value <= 0:
            problems.append("w11 norm is not a positive number")
        if np.any(out["maximal_modified"] < np.sqrt(np.log(self.L))):
            problems.append("maximal_modified below sqrt(log L)")
        return problems

    def scalars(self, out):
        vals = {"maximal_max": float(out["maximal"].max()),
                "maximal_mean": float(out["maximal"].mean()),
                "maximal_modified_mean": float(out["maximal_modified"].mean()),
                "w11": out["w11"].value}
        return {k: (v, DET_RTOL * abs(v)) for k, v in vals.items()}

    def digests(self, out):
        return {"maximal": _digest(out["maximal"]),
                "maximal_modified": _digest(out["maximal_modified"])}


WORKLOADS = {w.name: w for w in (McNorm, CoupledFamily, ForwardPde, Maxops2d)}
