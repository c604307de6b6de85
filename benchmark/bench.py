"""Passes, set-up, the traced run and the metrics derived from them.

The loop is closed: one caller in one process runs passes back to back.
One pass runs each expression of the workload once, in order, through
st.parse -> st.infer_format -> st.schedule -> st.tile (64) -> st.execute;
an expression whose operands are all dense goes through st.run, the only
public route to the runtime dense path. Every expression passes through
every stage of its route, so each layer reports a measured time on every
workload; a stage with no call in it measures only the benchmark's own
dispatch (well under a microsecond).
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import sparsetc as st
from gate import Gate, storage_bytes
from tracing import NullTracer, Tracer
from workloads import Inputs, Workload, generate

TILE_SIZE = 64
MIN_PASSES = 3
# Set-up repeats at least SETUP_REPEATS times and until SETUP_SECONDS have
# been spent constructing, so a few-millisecond set-up still gets a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 20

# On a virtual machine whose cores other tenants share, CPU speed drifts by up
# to 1.7x over tens of seconds (seen on a 2-vCPU Xeon VM), far more than any
# regression bound. Every timed call is therefore bracketed by a fixed
# calibration kernel that never calls the program, and end-to-end times are
# reported at the calibration's reference speed:
#     wall * CALIBRATION_REF_S / (mean of the two calibration runs).
# The constant only fixes the unit; raw wall times are kept in the record.
CALIBRATION_REF_S = 0.01

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Program:
    """The public calls the benchmark makes, each wrapped in a span when traced."""

    def __init__(self, tracer):
        self.tracer = tracer
        for fn in (
            st.parse,
            st.infer_format,
            st.schedule,
            st.tile,
            st.convert,
            st.execute,
            st.run,
            st.build_from_entries,
            st.from_dense,
            st.read_matrix_market,
            st.write_matrix_market,
        ):
            setattr(self, fn.__name__, tracer.wrap(f"st.{fn.__name__}", fn))


@dataclass
class Evaluation:
    """One expression evaluated once in one pass."""

    out: object = None
    counter: object = None
    schedule: object = None
    error: str | None = None
    written: str | None = None
    transpose_nnz: int = 0


_PROBE = np.arange(64)


def calibration_s() -> float:
    """Seconds for a fixed kernel that never calls the program.

    It mixes dict updates on tuple keys with numpy scalar calls, the two
    kinds of work the engine's interpreter does most.
    """
    t0 = time.perf_counter()
    slots: dict = {}
    for i in range(3_000):
        j = int(np.searchsorted(_PROBE, i % 64))
        for k in range(5):
            key = (i % 97, j + k)
            slots[key] = slots.get(key, 0.0) + float(_PROBE[j]) * 0.5
    return time.perf_counter() - t0


class Clock:
    """Sums the wall time of calls per group (a set-up or a pass).

    Each call runs between two calibration runs; consecutive calls share the
    run between them. A call is also reported at the calibration's reference
    speed: wall * CALIBRATION_REF_S / (mean of its two calibration runs).
    """

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.calibration: list[float] = []
        self._last: float | None = None

    def start(self) -> None:
        self.wall.append(0.0)
        self.scaled.append(0.0)

    def time(self, fn):
        before = self._last if self._last is not None else calibration_s()
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        self._last = calibration_s()
        calibration = (before + self._last) / 2
        self.calibration.append(calibration)
        self.wall[-1] += elapsed
        self.scaled[-1] += elapsed * CALIBRATION_REF_S / calibration
        return out


def construct(w: Workload, inputs: Inputs, program: Program) -> dict:
    """Build every operand through the program: the set-up being timed."""
    span = program.tracer.span
    tensors = {}
    with span("setup"):
        with span("matrix_market.read"):
            for name, path in inputs.mtx_paths.items():
                op = next(o for o in w.operands if o.name == name)
                fmt = st.format_by_name(op.fmt, op.shape)
                tensors[name] = program.read_matrix_market(path, fmt, name=name)
        with span("tensor.build"):
            for op in w.operands:
                if op.name in tensors:
                    continue
                if op.fmt == "dense":
                    tensors[op.name] = program.from_dense(inputs.values[op.name], name=op.name)
                else:
                    fmt = st.format_by_name(op.fmt, op.shape)
                    entries = inputs.entries[op.name]
                    tensors[op.name] = program.build_from_entries(op.shape, fmt, entries, name=op.name)
    return tensors


def evaluate(w: Workload, i: int, tensors: dict, program: Program, workdir: str,
             replay: bool) -> Evaluation:
    """Expression ``i`` of ``w`` through every stage of its route.

    With ``replay`` each ``Schedule.transposes`` entry is also re-run through
    st.convert before execute, so the traced run can time the transpose
    layer that execute performs internally.
    """
    span = program.tracer.span
    ev = Evaluation()
    try:
        with span("expr.parse"):
            e = program.parse(w.expressions[i].text, tensors)
        dense_path = not any(a.tensor.format.has_sparse_levels for a in e.accesses)
        with span("oracle.dense_path"):
            if dense_path:
                ev.out = program.run(e)
        if not dense_path:
            with span("format_inference.infer"):
                fmt = program.infer_format(e)
            with span("scheduler.schedule"):
                s = program.schedule(e, fmt)
            with span("tiling.tile"):
                s = program.tile(e, s, TILE_SIZE)
            with span("tensor.convert"):
                for name, order in s.transposes if replay else ():
                    t = tensors[name]
                    moved = program.convert(t, t.format.with_mode_ordering(order))
                    ev.transpose_nnz += st.nnz(moved)
            with span("engine.execute"):
                ev.out, ev.counter = program.execute(s)
            ev.schedule = s
            with span("matrix_market.write"):
                if w.matrix_market and ev.out.format.has_sparse_levels:
                    ev.written = os.path.join(workdir, f"out{i}.mtx")
                    program.write_matrix_market(ev.written, ev.out)
    except Exception as exc:  # a failing evaluation is counted; the run goes on
        ev.error = f"{type(exc).__name__}: {exc}"
    return ev


def run_pass(w: Workload, tensors: dict, program: Program, workdir: str, replay: bool,
             clock: Clock | None = None) -> list:
    """One pass: each expression of ``w`` once, in order, timed by ``clock`` if given."""
    call = clock.time if clock is not None else (lambda fn: fn())
    with program.tracer.span("pass"):
        return [
            call(lambda: evaluate(w, i, tensors, program, workdir, replay))
            for i in range(len(w.expressions))
        ]


def peak_rss_mb(w: Workload, seed: int, outdir: str) -> float:
    """Peak resident set of a fresh process that sets up and runs one pass.

    The child is a plain interpreter started and waited for here; a timeout
    kills it and waits for it before the error propagates.
    """
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "peak_rss.py")],
        input=pickle.dumps((w, seed, outdir)), capture_output=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def plans(w: Workload, evaluations: list) -> list[dict]:
    """The plan each expression ran, beside the work it measured."""
    out = []
    for x, ev in zip(w.expressions, evaluations):
        row = {"expression": x.text, "route": "st.run" if ev.schedule is None else "st.execute"}
        if ev.schedule is not None:
            d = st.schedule_to_dict(ev.schedule)
            row.update(
                loop_order=d["loop_order"],
                moves=[{k: m[k] for k in ("var", "from", "to", "cost", "accepted")} for m in d["moves"]],
                transposes=d["transposes"],
                workspace=d["workspace"],
                tiles=d["tiles"],
            )
        if ev.counter is not None:
            row["counters"] = ev.counter.as_dict()
        if ev.out is not None:
            row["out_nnz"] = st.nnz(ev.out)
        out.append(row)
    return out


def _work_counts(w: Workload, tensors: dict, first: list) -> dict:
    """Per-pass counts from the warm pass; the gate holds them fixed after it."""
    c = dict.fromkeys(
        ("scalar_mults", "scalar_adds", "iterator_advances", "out_nnz", "operand_nnz",
         "operand_bytes", "moves", "moves_accepted", "transposes", "workspace_dims",
         "tiled_loops"),
        0,
    )
    for ev in first:
        if ev.schedule is None or ev.counter is None:
            continue
        s = ev.schedule
        for k, v in ev.counter.as_dict().items():
            c[k] += v
        c["out_nnz"] += st.nnz(ev.out)
        operands = {a.tensor.name: tensors[a.tensor.name] for a in s.expr.accesses}
        c["operand_nnz"] += sum(st.nnz(t) for t in operands.values())
        c["operand_bytes"] += sum(storage_bytes(t) for t in operands.values())
        c["moves"] += len(s.moves)
        c["moves_accepted"] += sum(m.accepted for m in s.moves)
        c["transposes"] += len(s.transposes)
        c["workspace_dims"] += 0 if s.workspace is None else s.workspace.dimensions
        c["tiled_loops"] += len(s.tiles)
    return c


def _layer_metrics(tracer: Tracer, traced_roots: list, untraced: list, counts: dict,
                   transpose_nnz: int) -> dict:
    totals = tracer.totals_by_trace()

    def per(roots, name):
        return statistics.median(totals[r].get(name, 0.0) for r in roots)

    setup_roots = [r for r in totals if tracer.spans[r][0] == "setup"]
    traced_pass = [totals[r]["pass"] - totals[r].get("tensor.convert", 0.0) for r in traced_roots]
    self_s = [
        totals[r].get("engine.execute", 0.0) - totals[r].get("tensor.convert", 0.0)
        for r in traced_roots
    ]
    execute_s = per(traced_roots, "engine.execute")
    traced_s = statistics.median(traced_pass)
    untraced_s = statistics.median(untraced)
    s, n = "s", "count"
    m = {
        "tensor.build_s": (per(setup_roots, "tensor.build"), s),
        "tensor.convert_s": (per(traced_roots, "tensor.convert"), s),
        "tensor.transpose_nnz": (transpose_nnz, n),
        "matrix_market.read_s": (per(setup_roots, "matrix_market.read"), s),
        "matrix_market.write_s": (per(traced_roots, "matrix_market.write"), s),
        "expr.parse_s": (per(traced_roots, "expr.parse"), s),
        "format_inference.infer_s": (per(traced_roots, "format_inference.infer"), s),
        "tiling.tile_s": (per(traced_roots, "tiling.tile"), s),
        "tiling.tiled_loops": (counts["tiled_loops"], n),
        "scheduler.schedule_s": (per(traced_roots, "scheduler.schedule"), s),
        "scheduler.moves": (counts["moves"], n),
        "scheduler.moves_accepted": (counts["moves_accepted"], n),
        "scheduler.transposes": (counts["transposes"], n),
        "scheduler.workspace_dims": (counts["workspace_dims"], n),
        "engine.execute_s": (execute_s, s),
        "engine.self_s": (statistics.median(self_s), s),
        "engine.ns_per_nnz": (execute_s * 1e9 / max(counts["operand_nnz"], 1), "ns"),
        "engine.scalar_mults": (counts["scalar_mults"], n),
        "engine.scalar_adds": (counts["scalar_adds"], n),
        "engine.iterator_advances": (counts["iterator_advances"], n),
        "engine.mults_per_advance": (
            counts["scalar_mults"] / max(counts["iterator_advances"], 1), "ratio"),
        "engine.out_nnz": (counts["out_nnz"], n),
        "engine.operand_bytes": (counts["operand_bytes"], "bytes-computed"),
        "oracle.dense_path_s": (per(traced_roots, "oracle.dense_path"), s),
        "trace.pass_s": (traced_s, s),
        "trace.untraced_pass_s": (untraced_s, s),
        "trace.overhead": (traced_s / untraced_s - 1.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _check_all(gate: Gate, evaluations: list) -> list:
    for i, ev in enumerate(evaluations):
        gate.check(i, ev)
    return evaluations


def measure(w: Workload, seed: int, seconds: float, trace: bool, outdir: str, log=print) -> dict:
    """Run one workload; return the result line and write the full record."""
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as work:
        inputs = generate(w, seed, work)
        record = {
            "workload": w.name,
            "why": w.why,
            "trace": int(trace),
            "environment": environment(seed),
            "input_digests": inputs.digests,
        }
        log(f"workload {w.name} seed {seed} trace {int(trace)}: {w.why}")
        log(f"environment {json.dumps(record['environment'])}")
        log(f"input sha256 {json.dumps({k: v[:16] for k, v in inputs.digests.items()})}")
        # Read before the reference check below allocates dense references.
        rss = None if trace else peak_rss_mb(w, seed, outdir)

        tracer = Tracer() if trace else NullTracer()
        traced, plain = Program(tracer), Program(NullTracer())
        setup = Clock()
        while len(setup.wall) < SETUP_REPEATS or (
            sum(setup.wall) < SETUP_SECONDS and len(setup.wall) < SETUP_MAX_REPEATS
        ):
            setup.start()
            tensors = setup.time(lambda: construct(w, inputs, traced))

        gate = Gate(w, inputs)
        first = _check_all(gate, run_pass(w, tensors, plain, work, replay=False))  # warm-up
        record["plans"] = plans(w, first)
        counts = _work_counts(w, tensors, first)

        # Checks run between passes, outside the timed region. Untraced
        # passes are timed per expression, so the calibration tracks the
        # machine's speed closely. In a traced run, traced passes alternate
        # with untraced ones so the overhead compares passes run under the
        # same conditions.
        passes = Clock()
        traced_wall: list[float] = []
        traced_roots: list[int] = []
        transpose_nnz = 0
        while sum(passes.wall) + sum(traced_wall) < seconds or len(passes.wall) < MIN_PASSES:
            passes.start()
            _check_all(gate, run_pass(w, tensors, plain, work, replay=False, clock=passes))
            if trace:
                traced_roots.append(len(tracer.spans))
                t0 = time.perf_counter()
                evaluations = run_pass(w, tensors, traced, work, replay=True)
                traced_wall.append(time.perf_counter() - t0)
                transpose_nnz = sum(ev.transpose_nnz for ev in _check_all(gate, evaluations))

    if trace:
        metrics = _layer_metrics(tracer, traced_roots, passes.wall, counts, transpose_nnz)
        record["spans"] = tracer.as_records()
        record["self_times"] = tracer.self_times()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup.scaled), "unit": "s"},
            "pass_s": {"value": statistics.median(passes.scaled), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    record["timings"] = {
        "setup_s": summary(setup.scaled),
        "setup_wall_s": summary(setup.wall),
        "pass_s": summary(passes.scaled),
        "pass_wall_s": summary(passes.wall),
        "calibration_s": summary(passes.calibration),
        "pass_samples_s": passes.scaled,
        "pass_wall_samples_s": passes.wall,
    }
    record["metrics"] = metrics
    record["evaluations"] = {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "error_ratio": gate.failed / gate.attempted,
        "problems": gate.problems[:50],
    }

    for row in record["plans"]:
        work_done = row.get("counters", {})
        log(f"plan {row['expression']} via {row['route']}: loop order {row.get('loop_order')},"
            f" {sum(m['accepted'] for m in row.get('moves', []))}/{len(row.get('moves', []))}"
            f" moves accepted, transposes {row.get('transposes')}, measured {work_done},"
            f" out_nnz {row.get('out_nnz')}")
    if trace:
        for name, row in sorted(record["self_times"].items()):
            log(f"span {name:26} calls {row['calls']:6d} total {row['total_s']:.6f} s"
                f" self {row['self_s']:.6f} s")
    for key, r in record["timings"].items():
        if isinstance(r, dict):
            log(f"{key:14} median {r['median']:.6f} s q1 {r['q1']:.6f} q3 {r['q3']:.6f} n {r['n']}")
    for name, m in metrics.items():
        log(f"metric {name} {m['value']} {m['unit']}")
    log(f"error_ratio {gate.failed}/{gate.attempted} evaluations failed")
    for p in gate.problems[:10]:
        log(f"failure {p}")

    path = os.path.join(outdir, f"{w.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    log(f"record {os.path.relpath(path, ROOT)}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
