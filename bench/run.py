#!/usr/bin/env python3
"""Benchmark of nonlocalwave: three workloads, end to end and per layer.

Run from the repository root:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload in this process.  The last line of standard output is
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      with --trace 0, the per-layer metrics (from spans) with --trace 1.
      The line before it is {"info": ...}: environment, per-op CPU and
      wall times, failures and the set-up samples.
  python3 bench/run.py --all [--seed N --seconds S]
      Every workload in its own process, untraced then traced; prints one
      table with fail_frac and the tracing overhead, and the
      realize/tabulation/solve split per scenario.
  python3 bench/run.py --smoke
      Self-tests at tiny m: every workload runs, every metric is printed
      with its unit, the checks flag perturbed outputs, and a traced run
      leaves the library's functions as they were.
  python3 bench/run.py --record-reference
      Rewrite bench/reference.json from the library in src/.

A run sets up ``SETUP_REPEATS`` times and reports the median, then runs
whole cycles of the workload's op mix until at least --seconds of op time
have passed.  Each op is checked after it returns, outside its timing.
``setup_s`` is the median set-up plus the median CPU time of ``import
nonlocalwave`` in a fresh interpreter.  The import is sampled before each
set-up and after each op, outside the op's timing, so that the samples span
the run: on a shared 2-vCPU Xeon VM the CPU speed drifted by up to 1.5x
over a few seconds, and samples taken back to back land in one phase of it.
The library is imported from ./src; without it the benchmark exits 2.

Times are the process's CPU time (``time.process_time``).  BLAS is pinned
to one thread, so the process runs one thread of CPU-bound work and, on a
machine of its own, its CPU time is its wall time.  On a shared virtual
machine (2 vCPUs, Intel Xeon) the hypervisor took the CPU away for 3-28% of
a run's wall time, varying from run to run; CPU time leaves that out.  Wall
times per op are in the info line.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
              "peak_rss_mb": "MB"}


def import_seconds():
    """CPU time of ``import nonlocalwave`` in a fresh interpreter."""
    code = ("import time; t = time.process_time(); import nonlocalwave; "
            "print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def environment(seed):
    import numpy as np
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor(),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
           "seed": seed, "commit": None}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), env["cpu"])
    except OSError:
        pass
    try:
        env["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        env["scipy"] = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        env["commit"] = done.stdout.strip() or None
    return env


def measure(name, seed, seconds, trace, size):
    import spans
    import workloads

    scratch = OUT / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    wl = workloads.WORKLOADS[name](size, seed, scratch)
    imports, setups, ops, failures, problems = [], [], [], [], []

    def traced(op):
        return tracer.operation(op) if tracer else contextlib.nullcontext()
    try:
        if tracer:
            tracer.install()
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            with traced("setup"):
                t0 = time.process_time()
                wl.setup()
                setups.append(time.process_time() - t0)
        timed = 0.0
        n = 0
        while n % wl.cycle or timed < seconds or n == 0:
            op = wl.op(n)
            error = None
            with traced(n):
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    status = op.run()
                except Exception as exc:   # one op failing must not end the run
                    status, error = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                cpu = time.process_time() - c0
            found = [error] if error else op.check()
            op.clean()
            imports.append(import_seconds())
            ops.append([op.label, cpu, dt, status])
            timed += cpu
            if found:
                problems.append({"op": n, "label": op.label,
                                 "problems": found})
            if found or status:
                failures.append({"op": n, "label": op.label,
                                 "status": status})
            n += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    info = {"workload": name, "size": size, "seconds": seconds,
            "trace": trace, "env": environment(seed),
            "op_s.samples": n, "fail_frac": len(failures) / n,
            "wall_ops_per_s": n / sum(o[2] for o in ops),
            "failures": failures, "problems": problems,
            "ops": ops, "ops_columns": ["label", "cpu_s", "wall_s", "status"],
            "import_s": imports, "setup_body_s": setups}
    if tracer:
        path = OUT / f"spans-{name}-{seed}.jsonl"
        tracer.write(path)
        info["spans_file"] = str(path.relative_to(ROOT))
        s = workloads.SIZES[size]
        metrics = spans.layer_metrics(tracer.spans, n, timed, SETUP_REPEATS,
                                      s.m, 81)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in metrics.items()}
    else:
        values = {"setup_s": statistics.median(imports)
                  + statistics.median(setups),
                  "ops_per_s": n / timed,
                  "op_s.p50": statistics.median(o[1] for o in ops),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems, "attempted": n,
                      "failed": len(failures), "metrics": metrics}))


def run_child(name, seed, seconds, trace, size="full"):
    """Run one workload in its own process; returns (info, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--size", size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def run_all(seed, seconds):
    import workloads
    head = (f"{'workload':<12} {'setup_s':>8} {'ops_per_s':>10} "
            f"{'op_s.p50':>9} {'n':>3} {'peak_rss_mb':>11} {'fail_frac':>9} "
            f"{'wall ops/s':>10} {'traced ops/s':>12} {'overhead':>9}")
    rows, layers = [], {}
    for name in workloads.WORKLOADS:
        info, plain = run_child(name, seed, seconds, 0)
        _, traced = run_child(name, seed, seconds, 1)
        e, layers[name] = plain["metrics"], traced["metrics"]
        ops = e["ops_per_s"]["value"]
        tops = layers[name]["trace.ops_per_s"]["value"]
        rows.append(
            f"{name:<12} {e['setup_s']['value']:>8.3f} {ops:>10.4f} "
            f"{e['op_s.p50']['value']:>9.3f} {info['op_s.samples']:>3} "
            f"{e['peak_rss_mb']['value']:>11.1f} {info['fail_frac']:>9.3f} "
            f"{info['wall_ops_per_s']:>10.4f} {tops:>12.4f} "
            f"{100 * (ops - tops) / ops:>8.1f}%"
            + ("" if plain["correct"] and traced["correct"] else "  INCORRECT"))
    print("units: setup_s s, ops_per_s 1/s, op_s.p50 s (n samples), "
          "peak_rss_mb MB, fail_frac ratio; overhead = untraced - traced "
          "ops_per_s, as a share of untraced")
    print(head)
    print("\n".join(rows))
    names = list(layers)
    print(f"\nper layer (traced run):\n{'metric':<42} {'unit':<11} "
          + " ".join(f"{n:>12}" for n in names))
    for metric, first in layers[names[0]].items():
        print(f"{metric:<42} {first['unit']:<11} " + " ".join(
            f"{layers[n][metric]['value']:>12.5g}" for n in names))


def smoke():
    """Self-tests at tiny m; raises on the first failed expectation."""
    import numpy as np
    import spans
    import workloads

    def expect(cond, msg):
        if not cond:
            raise RuntimeError(f"smoke: {msg}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            info, result = run_child(name, workloads.REUSE_REFERENCE_SEED,
                                     0, trace, size="smoke")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units[trace], f"{name} trace={trace} metrics "
                   f"{sorted(set(got) ^ set(units[trace]))} differ")
            expect(result["correct"], f"{name}: {info['problems']}")
            expect(all(isinstance(v["value"], (int, float))
                        for v in result["metrics"].values()),
                   f"{name}: non-numeric metric")
            print(f"smoke: {name} trace={trace} ok "
                  f"({result['attempted']} ops, {len(got)} metrics)")

    scratch = OUT / f"smoke-{os.getpid()}"
    try:
        ref = workloads.load_reference("smoke")

        def cli_op(args):
            out = scratch / f"op{len(list(scratch.glob('op*')))}"
            op = workloads.CliOp(args, out, ref[workloads.reference_key(args)])
            op.run()
            expect(op.check() == [], f"{op.label}: {op.check()}")
            return op

        op = cli_op(workloads.cli_solve_commands("smoke", 3)[2])
        csv = op.out / "solution.csv"
        text = csv.read_text()
        lines = text.splitlines()
        cells = lines[-1].split(",")
        cells[5] = repr(float(cells[5]) * (1 + 1e-4) + 1e-6)
        csv.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        expect(op.check(), "perturbed solution.csv passed the check")
        csv.write_text(text)
        with open(op.out / "fs.bin", "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            fh.write(np.float64(0.5).tobytes())
        expect(op.check(), "perturbed fs.bin passed the check")

        op = cli_op(workloads.audit_commands("smoke")[1])
        path = op.out / "axioms.json"
        axioms = json.loads(path.read_text())
        axioms["lip_c"] *= 1 + 1e-6
        path.write_text(json.dumps(axioms))
        expect(op.check(), "perturbed axioms.json passed the check")

        wl = workloads.TableReuse("smoke", workloads.REUSE_REFERENCE_SEED,
                                  scratch)
        wl.setup()
        for n in (0, 1):
            op = wl.op(n)
            expect(op.ref is not None, f"{op.label}: no reference")
            op.run()
            expect(op.check() == [], f"{op.label}: {op.check()}")
            op.report.iterations += 3
            expect(op.check(), f"{op.label} with 3 more iterations than "
                   "its reference passed the check")
            op.report.iterations -= 3
            op.w.u[len(op.w.grid) // 2] += 1e-4
            expect(op.check(), f"perturbed {op.label} passed the check")
        print("smoke: the checks flag perturbed outputs")

        before = {(ns, a): vars(ns)[a] for ns, a in spans.Tracer.bindings()}
        tracer = spans.Tracer()
        tracer.install()
        try:
            expect(all(vars(ns)[a] is not f for (ns, a), f in before.items()),
                   "install left a function unwrapped")
            with tracer.operation(0):
                cli_op(workloads.cli_solve_commands("smoke", 3)[0])
        finally:
            tracer.uninstall()
        expect(all(vars(ns)[a] is f for (ns, a), f in before.items()),
               "a traced run left a library function wrapped")
        names = {s[0] for s in tracer.spans}
        expect({"cli.run", "scenarios.realize", "spectral.build_basis",
                "propagator.fundamental_solution", "forms.assemble",
                "fixedpoint.contraction_solve", "propagator.duhamel_bound"}
               <= names, f"missing spans; got {sorted(names)}")
        print(f"smoke: {len(before)} wrapped attributes restored after a "
              f"traced run of {len(tracer.spans)} spans")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["cli-solve", "table-reuse",
                                               "audit"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "nonlocalwave" / "__init__.py").is_file():
        print(f"bench: no library at {SRC}/nonlocalwave", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.all:
        run_all(args.seed, args.seconds)
    elif args.smoke:
        smoke()
    elif args.record_reference:
        import workloads
        scratch = OUT / f"reference-{os.getpid()}"
        try:
            ref = workloads.record_reference(scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    elif args.workload:
        measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    else:
        parser.error("give --workload, --all, --smoke or --record-reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
