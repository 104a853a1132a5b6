"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload is a closed loop with one client: operation ``n + 1`` starts
after operation ``n`` returns.  Operations go through the library's public
entry points, looked up at call time (``cli.run``,
``fixedpoint.contraction_solve``, ...) so that a traced run sees them.

``cli-solve``    in-process ``cli.run("solve")`` at m=32 (81 nodes, h=1e-3),
                 cycling population, undamped_neumann, and both again with
                 ``--dump-fs``; ``--seed`` is the workload seed.  A cold
                 batch run: tabulation is most of every operation.
``table-reuse``  set-up realizes both scenarios at m=32 once; operations
                 alternate ``contraction_solve`` (population) and
                 ``relaxed_solve`` (undamped_neumann) on problems sharing
                 operator, basis and table but with seeded g/h offsets.  One
                 cycle solves every problem of the seeded pool once.  No
                 tabulation inside an operation.
``audit``        ``certify``/``axioms``/``converge`` commands, which read every
                 stored pair of a table rather than the rows from t=0.  The
                 commands take no seed.
                 ``axioms undamped_neumann --m 32`` exits 2 at the reference
                 commit (s2a_defect 1.166e-5 > 1e-5): counted as failed.

Every operation is checked after it returns, outside its timing, against
the reference values in ``reference.json``: every CLI command, and the
``table-reuse`` problems of seed 0.  ``table-reuse`` operations are also
checked by self-consistency at every seed.  The tolerances are in
``TOLERANCE``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np

from nonlocalwave import (cli, fixedpoint, propagator, scenarios, spectral,
                          voc)

REFERENCE = Path(__file__).with_name("reference.json")

# (rtol, atol).  rtol is taken relative to the largest |reference| value of
# a series, so entries near zero are not over-weighted.
TOLERANCE = {
    # Tables, block norms, certificates: a reassociated evaluation moves
    # them by ~1e-15 relative.
    "table": (1e-9, 0.0),
    # Fixed-point outputs: the iteration stops when the update drops below
    # tol=1e-8, so a rounding change can move the stop by an iteration.
    # Moving tol by 3x shifts the trajectory by <= 6e-8 at m=16.
    "trajectory": (1e-6, 1e-7),
    # Discrete equation residual; the same 3x tol change moves it by 1.2e-4.
    "residual": (1e-3, 0.0),
    # Second differences with increment 5e-5 amplify rounding by 4e8.
    "fd_defect": (5e-2, 1e-9),
    # Defects that sit at rounding level, against gates of 1e-12 and above.
    "rounding": (0.0, 1e-10),
    "iterations": (0.0, 2.0),
    "exact": (0.0, 0.0),
}
# Bounds that do not depend on a reference: the solution's initial values
# against g(w), h(w), and table-reuse's re-evaluation of the representation.
IC_TOL = 1e-6
REPRESENTATION_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Size:
    m: int                    # solve, axioms and table-reuse
    certify_m: int
    converge_m: str


SIZES = {"full": Size(32, 64, "4,8,16"), "smoke": Size(4, 4, "2,4")}
REUSE_REFERENCE_SEED = 0


def _probe(n):
    """A fixed unit vector of length n for projections of stored arrays."""
    r = np.random.default_rng(n).standard_normal(n)
    return r / np.linalg.norm(r)


# -- reading the CLI's artifacts ----------------------------------------------

def _read_csv(path):
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    header = rows[0].split(",")
    data = [[float(c) if c else np.nan for c in r.split(",")] for r in rows[1:]]
    return header, np.array(data, dtype=float)


def _read_solution(out):
    header, data = _read_csv(out / "solution.csv")
    m = (len(header) - 3) // 2
    return data[:, 0], data[:, 3:3 + m], data[:, 3 + m:]


def _table_values(fs):
    """Per-row fingerprints of E(t_i, s_j): sum_j |E|_F^2 and sum_j r'Er'."""
    r = _probe(2 * fs.m)
    rows = [fs.row(i) for i in range(fs.n_nodes)]
    return {"fs.kind": ("exact", fs.kind), "fs.m": ("exact", fs.m),
            "fs.h": ("exact", fs.h),
            "fs.grid": ("table", fs.time_grid.tolist()),
            "fs.row_energy": ("table", [float(np.einsum("pab,pab->", R, R))
                                        for R in rows]),
            "fs.row_proj": ("table", [float(np.einsum("a,pab,b->", r, R,
                                                      r[::-1]))
                                      for R in rows])}


def _trajectory_values(u, v):
    r = _probe(u.shape[1])
    return {"u_norm": ("trajectory", np.linalg.norm(u, axis=1).tolist()),
            "v_norm": ("trajectory", np.linalg.norm(v, axis=1).tolist()),
            "u_proj": ("trajectory", (u @ r).tolist()),
            "v_proj": ("trajectory", (v @ r).tolist())}


def solve_values(out):
    man = json.loads((out / "manifest.json").read_text())
    rep = man.get("report")
    if rep is None:
        return {}
    vals = {}
    for key in ("predicted_q", "q_nonlocal", "q_duhamel", "m1", "m2", "m2t",
                "l_g", "l_h"):
        if rep.get(key) is not None:
            vals[key] = ("table", rep[key])
    vals["iterations"] = ("iterations", rep["iterations"])
    vals["residual_equation"] = ("residual", rep["residual_equation"])
    grid, u, v = _read_solution(out)
    vals["grid"] = ("table", grid.tolist())
    vals.update(_trajectory_values(u, v))
    if (out / "fs.bin").exists():
        vals.update(_table_values(propagator.load_fs(out / "fs.bin")))
    return vals


_AXIOM_CLASS = {"s1_defect": "rounding", "s2a_defect": "fd_defect",
                "s2b_defect": "fd_defect", "s2c_defect": "fd_defect",
                "s3a_defect": "fd_defect", "s3b_defect": "fd_defect",
                "s4_defect": "rounding", "composition_defect": "rounding",
                "adjoint_defect": "rounding", "fd_delta": "exact"}


def axioms_values(out):
    man = json.loads((out / "manifest.json").read_text())
    vals = {"axiom_failures": ("exact", sorted(man.get("axiom_failures", {})))}
    if (out / "axioms.json").exists():
        for key, val in json.loads((out / "axioms.json").read_text()).items():
            if val is not None:
                vals[key] = (_AXIOM_CLASS.get(key, "table"), val)
    return vals


def certify_values(out):
    vals = {}
    if (out / "certificate.json").exists():
        for key, val in json.loads((out / "certificate.json").read_text()).items():
            if isinstance(val, bool):
                vals[key] = ("exact", val)
            elif isinstance(val, (int, float, list)):
                vals[key] = ("table", val)
    return vals


def converge_values(out):
    man = json.loads((out / "manifest.json").read_text())
    vals = {}
    if (out / "convergence.csv").exists():
        _, data = _read_csv(out / "convergence.csv")
        conv = man["convergence"]
        vals.update({"finest_m": ("exact", conv["finest_m"]),
                     "nonincreasing": ("exact", conv["nonincreasing"]),
                     "m": ("exact", data[:, 0].tolist()),
                     "converged": ("exact", data[:, 1].tolist()),
                     "l2_diff_to_finest": ("trajectory", data[:, 2].tolist()),
                     "fs_action_diff": ("table", data[:, 3].tolist()),
                     "residual_equation": ("residual", data[:, 4].tolist())})
    return vals


EXTRACT = {"solve": solve_values, "axioms": axioms_values,
           "certify": certify_values, "converge": converge_values}


def compare(values, ref):
    """Problems found comparing extracted values with a reference entry."""
    problems = []
    for key, (cls, got) in values.items():
        if key not in ref:
            problems.append(f"{key}: not in the reference")
            continue
        want = ref[key]
        rtol, atol = TOLERANCE[cls]
        if cls == "exact":
            if got != want:
                problems.append(f"{key}: {got!r} != reference {want!r}")
            continue
        g = np.asarray(got, dtype=float)
        w = np.asarray(want, dtype=float)
        if g.shape != w.shape:
            problems.append(f"{key}: shape {g.shape} != reference {w.shape}")
            continue
        scale = float(np.nanmax(np.abs(w))) if w.size else 0.0
        bad = ~(np.abs(g - w) <= atol + rtol * scale)
        bad &= ~(np.isnan(g) & np.isnan(w))
        if np.any(bad):
            i = int(np.flatnonzero(bad.ravel())[0])
            problems.append(
                f"{key}[{i}]: {g.ravel()[i]!r} vs reference {w.ravel()[i]!r} "
                f"({cls}: rtol {rtol:g}, atol {atol:g})")
    for key in ref:
        if key not in values:
            problems.append(f"{key}: missing from the output")
    return problems


# -- operations -----------------------------------------------------------------

def _solution_problems(report, kernel_g, kernel_h, traj, basis):
    """converged and gronwall_ok set; w(0) = g(w) and w'(0) = h(w)."""
    problems = [f"report.{k} is {report[k]!r}"
                for k in ("converged", "gronwall_ok") if report[k] is not True]
    for name, kernel, start in (("g", kernel_g, traj.u[0]),
                                ("h", kernel_h, traj.v[0])):
        res = float(np.linalg.norm(
            start - fixedpoint.apply_kernel(kernel, traj, basis)))
        if not res <= IC_TOL:
            problems.append(f"initial value vs {name}(w): {res:.3e} > "
                            f"{IC_TOL:g}")
    return problems


class CliOp:
    """One ``cli.run`` command; checked against its reference entry."""

    def __init__(self, args, out, ref):
        self.args = list(args)
        self.label = " ".join(args)
        self.kind = args[0]
        self.scenario = args[args.index("--scenario") + 1]
        self.out = Path(out)
        self.ref = ref
        self.rc = None

    def run(self):
        argv = self.args + ["--out", str(self.out)]
        self.rc = cli.run(cli.parse_args(argv))
        return self.rc

    def check(self):
        problems = []
        if self.ref is None:
            problems.append(f"no reference recorded for {self.label!r}")
        elif self.rc not in (0, self.ref["exit_code"]):
            problems.append(f"exit code {self.rc}, reference "
                            f"{self.ref['exit_code']}")
        try:
            values = EXTRACT[self.kind](self.out)
            if self.ref is not None:
                problems += compare(values, self.ref["values"])
            if self.kind == "solve":
                problems += self._check_solution()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems

    def _check_solution(self):
        """The manifest's seed and report, and solution.csv's initial values."""
        man = json.loads((self.out / "manifest.json").read_text())
        seed = int(self.args[self.args.index("--seed") + 1])
        problems = [] if man["seed"] == seed else [
            f"manifest seed {man['seed']} != {seed}"]
        grid, u, v = _read_solution(self.out)
        sc = scenarios.builtin_scenarios()[self.scenario]
        return problems + _solution_problems(
            man["report"],
            fixedpoint.nonlocal_kernel(sc.kappa1, sc.horizon, sc.offset1),
            fixedpoint.nonlocal_kernel(sc.kappa2, sc.horizon, sc.offset2),
            spectral.Trajectory(grid, u, v),
            spectral.build_basis(sc.domain, u.shape[1]))

    def clean(self):
        shutil.rmtree(self.out, ignore_errors=True)


def reuse_values(w, report):
    vals = {"iterations": ("iterations", report.iterations)}
    vals.update(_trajectory_values(w.u, w.v))
    return vals


class ReuseOp:
    """One engine solve on a shared realization, checked by re-evaluation
    and, where one is recorded, against its reference entry."""

    def __init__(self, rz, problem, seed, label, ref):
        self.rz = rz
        self.problem = problem
        self.seed = seed
        self.engine = rz.scenario.engine
        self.label = label
        self.ref = ref
        self.w = self.report = None

    def run(self):
        solve = (fixedpoint.contraction_solve if self.engine == "contraction"
                 else fixedpoint.relaxed_solve)
        self.w, self.report = solve(self.problem, self.rz.fs,
                                    fixedpoint.SolveConfig(seed=self.seed))
        return 0

    def check(self):
        """The report and initial values, and w equal to the representation
        formula (``voc.solve``, a separate implementation) evaluated from w's
        own initial values and f(t, w(t))."""
        w, p, fs = self.w, self.problem, self.rz.fs
        problems = _solution_problems(self.report.to_dict(), p.kernel_g,
                                      p.kernel_h, w, p.basis)
        if self.ref is not None:
            problems += compare(reuse_values(w, self.report),
                                self.ref["values"])
        F = fixedpoint.superpose(p.nonlinearity, w)
        linear = voc.LinearProblem(p.op, w.u[0], w.v[0],
                                   lambda t: F[fs.node_index(t)], p.horizon)
        again = voc.solve(linear, fs, fs.time_grid)
        gap = float(max(np.max(np.abs(again.u - w.u)),
                        np.max(np.abs(again.v - w.v))))
        if not gap <= REPRESENTATION_TOL * max(1.0, w.sup_h_norm()):
            problems.append(f"w differs from its representation by {gap:.3e}")
        return problems

    def clean(self):
        self.w = self.report = None


# -- workloads ------------------------------------------------------------------

def load_reference(size):
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(size, {})


def cli_solve_commands(size, seed):
    m = str(SIZES[size].m)
    cmds = []
    for dump in ([], ["--dump-fs"]):
        for name in ("population", "undamped_neumann"):
            cmds.append(["solve", "--scenario", name, "--m", m,
                         "--seed", str(seed)] + dump)
    return cmds


def audit_commands(size):
    s = SIZES[size]
    return [["certify", "--scenario", "population", "--m", str(s.certify_m)],
            ["axioms", "--scenario", "population", "--m", str(s.m)],
            ["axioms", "--scenario", "undamped_neumann", "--m", str(s.m)],
            ["converge", "--scenario", "population", "--m", s.converge_m],
            ["converge", "--scenario", "undamped_neumann", "--m", s.converge_m]]


def reference_key(args):
    """Reference entries do not depend on --seed (see ``solve_values``)."""
    out = list(args)
    if "--seed" in out:
        i = out.index("--seed")
        del out[i:i + 2]
    return " ".join(out)


class Workload:
    """A named op mix; ``setup`` builds the inputs, ``op(n)`` the n-th op."""

    name = ""
    cycle = 1                 # runs always end on a whole cycle of the mix

    def __init__(self, size, seed, scratch):
        self.size = size
        self.seed = seed
        self.scratch = Path(scratch)

    def setup(self):
        """Build the seeded inputs; timed, and repeated to take a median."""

    def op(self, n):
        raise NotImplementedError


class CliWorkload(Workload):
    def __init__(self, size, seed, scratch):
        super().__init__(size, seed, scratch)
        self.ref = load_reference(size)

    def commands(self):
        raise NotImplementedError

    def setup(self):
        self.ops = [CliOp(c, self.scratch / f"op{i}",
                          self.ref.get(reference_key(c)))
                    for i, c in enumerate(self.commands())]
        self.cycle = len(self.ops)

    def op(self, n):
        return self.ops[n % self.cycle]


class CliSolve(CliWorkload):
    name = "cli-solve"

    def commands(self):
        return cli_solve_commands(self.size, self.seed)


class Audit(CliWorkload):
    name = "audit"

    def commands(self):
        return audit_commands(self.size)


def _smooth(rng, m, norm):
    c = rng.standard_normal(m) * np.exp(-0.5 * np.arange(m))
    return c * (norm / np.linalg.norm(c))


class TableReuse(Workload):
    """Set-up realizes both scenarios; ops solve perturbed nonlocal data.

    Each problem keeps the scenario's operator, basis, table, kernels and
    nonlinearity, and perturbs the g offset and adds an h offset, each by a
    smooth random coefficient array of 10% of the g offset's norm.  A cycle
    solves each of the ``pool`` problems per scenario once, so every run
    solves the same problems however many cycles fit in its time.
    """

    name = "table-reuse"
    pool = 4
    cycle = 2 * pool

    def setup(self):
        m = SIZES[self.size].m
        builtin = scenarios.builtin_scenarios()
        rng = np.random.default_rng(self.seed)
        ref = (load_reference(self.size)
               if self.seed == REUSE_REFERENCE_SEED else {})
        self.ops = None           # free the previous repetition's tables
        ops_by_scenario = []
        for name in ("population", "undamped_neumann"):
            rz = scenarios.realize(builtin[name], m=m, seed=self.seed)
            sc, T = rz.scenario, rz.scenario.horizon
            g0 = rz.problem.kernel_g.offset_coeffs(rz.basis)
            scale = 0.1 * np.linalg.norm(g0)
            ops = []
            for k in range(self.pool):
                kg = fixedpoint.nonlocal_kernel(
                    sc.kappa1, T, offset=g0 + _smooth(rng, m, scale))
                kh = fixedpoint.nonlocal_kernel(
                    sc.kappa2, T, offset=_smooth(rng, m, scale))
                problem = fixedpoint.NonlocalProblem(
                    rz.op, rz.basis, kg, kh, rz.problem.nonlinearity, T)
                label = f"{sc.engine}_solve {name} problem {k}"
                ops.append(ReuseOp(rz, problem, self.seed, label,
                                   ref.get(f"{self.name} seed {self.seed} "
                                           f"{label}")))
            ops_by_scenario.append(ops)
        self.ops = ops_by_scenario

    def op(self, n):
        return self.ops[n % 2][(n // 2) % self.pool]


WORKLOADS = {w.name: w for w in (CliSolve, TableReuse, Audit)}


def record_reference(scratch):
    """Run every CLI command once per size at seed 0, and solve the
    ``table-reuse`` pool of ``REUSE_REFERENCE_SEED``; return the values."""
    out = {}
    for size in SIZES:
        entries = {}
        for i, args in enumerate(cli_solve_commands(size, 0)
                                 + audit_commands(size)):
            op = CliOp(args, Path(scratch) / f"ref{i}", None)
            entries[reference_key(args)] = {
                "exit_code": op.run(),
                "values": {k: v for k, (_, v)
                           in EXTRACT[op.kind](op.out).items()}}
            op.clean()
        wl = TableReuse(size, REUSE_REFERENCE_SEED, scratch)
        wl.setup()
        for n in range(wl.cycle):
            op = wl.op(n)
            op.run()
            entries[f"{wl.name} seed {wl.seed} {op.label}"] = {
                "values": {k: v for k, (_, v)
                           in reuse_values(op.w, op.report).items()}}
            op.clean()
        out[size] = entries
    return out
