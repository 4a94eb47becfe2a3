#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ecstats command line.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Workloads are listed in `workloads.py`; the seed only permutes the order of
the commands within each repetition of a workload, and the program sees only
its argv.

--trace 0   One client runs the workload as a closed loop: it starts each
            command as a fresh `python -m ecstats.cli ...` subprocess with
            `src` on PYTHONPATH, in a fresh temporary directory, only after
            the previous one has ended, and repeats the whole command list
            while another repetition still fits in --seconds.  Prints the
            end-to-end metrics: medians over repetitions, and the median of
            several `--version` start-ups as the set-up time.  Command times
            are corrected for the host's current speed (REFERENCE_LOOP_S).
--trace 1   Runs the same argv lists in-process through `ecstats.cli.main`,
            alternately untraced and with spans around each layer
            (`tracing.py`), clearing the package's caches before every
            command.  Prints the per-layer metrics and the tracing overhead.
--smoke     Runs tiny versions of every workload in both modes, checks that
            every metric of BENCHMARK.json is printed with its unit and that a
            corrupted reference digest is counted as a failure.

Every command's output is checked against `reference.json`.  The last line
of standard output is a JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it, starting with `#`, describe the
machine, the source and every command run.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing
from workloads import SMOKE_WORKLOADS, WORKLOADS, Verdict, Workload, check, expand, load_reference

# `--version` start-ups timed at the start of every repetition, so that the
# set-up samples spread over the whole run
SETUP_PER_REPETITION = 3
# A run must end within 180 s; a command still running at this point is killed.
HARD_LIMIT_S = 170.0

# The speed of a shared host drifts by up to 1.8x for minutes at a time, far
# more than a 30 s run can average out.  So the harness times a fixed
# pure-Python loop before and after every command, and scales the command's
# wall and CPU times by REFERENCE_LOOP_S over the mean of those two loop
# times: they are seconds at the speed at which the loop takes
# REFERENCE_LOOP_S (its duration on an idle 2-vCPU Xeon host).  Raw times are
# printed too.  The set-up time is reported as measured.
REFERENCE_ITERATIONS = 500_000
REFERENCE_LOOP_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "work_per_s": "1/s",
}


@dataclass
class Result:
    command: str
    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    verdict: Verdict
    speed: float = 1.0  # host-speed factor applied to wall and cpu in metrics


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    return REFERENCE_LOOP_S / ((before + after) / 2)


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    sequences: list[list[Result]]
    notes: list[str] = field(default_factory=list)

    @property
    def results(self) -> list[Result]:
        return [r for seq in self.sequences for r in seq]

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r.verdict.ok for r in self.results)

    @property
    def correct(self) -> bool:
        """No command gave a wrong answer or failed in an unknown way;
        known seed failures are still counted in `failed`."""
        return all(r.verdict.ok or r.verdict.known_failure for r in self.results)


class Runner:
    """Runs ecstats commands from the checkout at `root`, each in a fresh
    directory under `root/.bench_work`."""

    def __init__(self, root: Path, reference: dict):
        self.root = root
        self.use_reference(reference)
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{old}" if old else src)
        self.kill_at = perf_counter() + HARD_LIMIT_S
        (root / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_work"))

    def use_reference(self, reference: dict) -> None:
        self.judge = lambda *result: check(*result, reference)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def _fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work))

    def _spawn(self, argv: list[str], cwd: Path, stdout, stderr):
        """Start one CLI process and reap it with wait4; returns the exit code
        and the child's resource usage."""
        proc = subprocess.Popen([sys.executable, "-m", "ecstats.cli", *argv], cwd=cwd,
                                env=self.env, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr)
        timer = threading.Timer(max(1.0, self.kill_at - perf_counter()), proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def subprocess_command(self, command: str) -> Result:
        tmp = self._fresh_dir()
        try:
            cwd = tmp / "cwd"
            cwd.mkdir()
            argv = expand(command, str(cwd))
            with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
                start = perf_counter()
                code, usage = self._spawn(argv, cwd, out, err)
                wall = perf_counter() - start
            stdout = (tmp / "stdout").read_bytes()
            stderr = (tmp / "stderr").read_text(errors="replace")
            verdict = self.judge(command, argv, code, stdout, stderr, cwd)
            return Result(command, argv, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024, verdict)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def setup_times(self, runs: int) -> list[float]:
        """Wall times of `ecstats --version`: interpreter start plus package
        import."""
        walls = []
        for _ in range(runs):
            tmp = self._fresh_dir()
            try:
                with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
                    start = perf_counter()
                    code, _ = self._spawn(["--version"], tmp, out, err)
                    wall = perf_counter() - start
                if code != 0 or not (tmp / "stdout").read_bytes().strip():
                    raise RuntimeError(f"`ecstats --version` failed (exit {code}): "
                                       + (tmp / "stderr").read_text(errors="replace"))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            walls.append(wall)
        return walls

    # -- in-process ------------------------------------------------------------

    def load_package(self) -> None:
        sys.path.insert(0, str(self.root / "src"))
        self.modules = tracing.package_modules()
        self.caches = tracing.package_caches(self.modules)
        self.tracer = tracing.Tracer(self.modules)

    def in_process_command(self, command: str) -> Result:
        cli = self.modules["cli"]
        tmp = self._fresh_dir()
        here = os.getcwd()
        try:
            argv = expand(command, str(tmp))
            for cache in self.caches:
                cache.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            os.chdir(tmp)
            start = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = cli.main(argv) or 0
                    finally:
                        wall = perf_counter() - start
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = 1
                err.write(traceback.format_exc())
            verdict = self.judge(command, argv, code, out.getvalue().encode(), err.getvalue(), tmp)
            return Result(command, argv, wall, 0.0, 0.0, verdict)
        finally:
            os.chdir(here)
            shutil.rmtree(tmp, ignore_errors=True)


def closed_loop(repetition, commands, rng: random.Random, seconds: float) -> None:
    """Call `repetition(order)` with a fresh permutation of the commands until
    another repetition, as long as the last one, would overrun `seconds`."""
    start = perf_counter()
    while True:
        order = list(commands)
        rng.shuffle(order)
        began = perf_counter()
        repetition(order)
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return


def untraced_run(runner: Runner, workload: Workload, seed: int, seconds: float,
                 setup_per_repetition: int = SETUP_PER_REPETITION) -> Outcome:
    runner.setup_times(1)  # compiles the bytecode; not a user's cost on every run
    setup: list[float] = []
    sequences: list[list[Result]] = []

    def repetition(order: list[str]) -> None:
        setup.extend(runner.setup_times(setup_per_repetition))
        after = reference_loop()
        seq = []
        for command in order:
            before = after
            result = runner.subprocess_command(command)
            after = reference_loop()
            result.speed = speed_factor(before, after)
            seq.append(result)
        sequences.append(seq)

    closed_loop(repetition, workload.commands, random.Random(seed), seconds)

    def work_rate(seq: list[Result]) -> float:
        counted = [r for r in seq if workload.work(r.argv)]
        return (sum(workload.work(r.argv) for r in counted)
                / sum(r.wall * r.speed for r in counted))

    outcome = Outcome({}, sequences)
    fail_frac = outcome.failed / outcome.attempted
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r.wall * r.speed for r in seq) for seq in sequences),
        "cpu_s": statistics.median(sum(r.cpu * r.speed for r in seq) for seq in sequences),
        "peak_rss_mb": max(r.rss_mb for r in outcome.results),
        "ok_frac": 1 - fail_frac,
        "work_per_s": statistics.median(work_rate(seq) for seq in sequences),
    }
    outcome.metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    outcome.notes = [
        f"setup_s samples: {' '.join(f'{w:.4f}' for w in setup)}",
        "raw wall_s = {!r} s, median speed factor {:.4f}".format(
            statistics.median(sum(r.wall for r in seq) for seq in sequences),
            statistics.median(r.speed for r in outcome.results)),
        f"fail_frac = {fail_frac!r} frac ({outcome.failed}/{outcome.attempted} commands)",
        f"{workload.work_name} = {values['work_per_s']!r} 1/s (reported as work_per_s)",
    ]
    return outcome


def traced_run(runner: Runner, workload: Workload, seed: int, seconds: float) -> Outcome:
    """Each command runs twice in a row, untraced and traced, so the overhead
    compares runs made under the same machine load.  Which of the two goes
    first alternates, because the second run of a command in one process
    finds memory already mapped."""
    runner.load_package()
    tracer = runner.tracer
    sequences: list[list[Result]] = []
    walls: list[tuple[float, float]] = []
    layers: list[dict[str, float]] = []

    def run_traced(command: str) -> Result:
        tracer.install()
        try:
            return runner.in_process_command(command)
        finally:
            tracer.uninstall()

    def repetition(order: list[str]) -> None:
        tracer.reset()
        plain, traced = [], []
        for i, command in enumerate(order):
            if (i + len(walls)) % 2:
                traced.append(run_traced(command))
                plain.append(runner.in_process_command(command))
            else:
                plain.append(runner.in_process_command(command))
                traced.append(run_traced(command))
        sequences.extend([plain, traced])
        walls.append((sum(r.wall for r in plain), sum(r.wall for r in traced)))
        layers.append(tracer.layer_metrics())

    closed_loop(repetition, workload.commands, random.Random(seed), seconds)
    values = tracing.median_metrics(layers)
    untraced = statistics.median(w[0] for w in walls)
    values["trace.overhead_frac"] = statistics.median(w[1] / w[0] - 1 for w in walls)
    outcome = Outcome({name: (values[name], unit) for name, unit in tracing.LAYER_UNITS.items()},
                      sequences)
    outcome.notes = [f"in-process wall untraced {untraced:.4f} s, "
                     f"spans in last traced repetition {len(tracer.span_name)}"]
    return outcome


# -- reporting -----------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, workload: str, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload, "seed": seed, "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy_version, "git_sha": git_sha(root), "src_sha256": src_digest(root),
    }


def report(outcome: Outcome, info: dict) -> None:
    print("# env " + json.dumps(info))
    for i, seq in enumerate(outcome.sequences):
        for r in seq:
            status = "ok  " if r.verdict.ok else ("KNOWN" if r.verdict.known_failure else "FAIL")
            print(f"# rep {i} {status} {r.wall:9.4f} s x{r.speed:.3f}  {r.command}"
                  + (f"  -- {r.verdict.reason}" if r.verdict.reason else ""))
    known = {r.command: r.verdict.reason for r in outcome.results if r.verdict.known_failure}
    for command, reason in known.items():
        print(f"# known seed failure: {command}: {reason}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))


def measure(runner: Runner, workload: Workload, seed: int, seconds: float, trace: int,
            **kwargs) -> Outcome:
    if trace:
        return traced_run(runner, workload, seed, seconds)
    return untraced_run(runner, workload, seed, seconds, **kwargs)


def smoke(root: Path) -> int:
    """The harness's own test: tiny workloads in both modes, every metric of
    BENCHMARK.json printed with its unit, a corrupted digest detected."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    reference = load_reference()
    problems = []
    runner = Runner(root, reference)
    try:
        for trace in (0, 1):
            for workload in SMOKE_WORKLOADS.values():
                outcome = measure(runner, workload, 0, 0, trace, setup_per_repetition=1)
                emitted = {name: unit for name, (_, unit) in outcome.metrics.items()}
                if emitted != expected[trace]:
                    problems.append(f"{workload.name} trace={trace}: metrics {emitted} "
                                    f"differ from BENCHMARK.json {expected[trace]}")
                if not outcome.correct:
                    problems += [f"{workload.name} trace={trace}: {r.command}: {r.verdict.reason}"
                                 for r in outcome.results if not r.verdict.ok]
        corrupted = copy.deepcopy(reference)
        census = SMOKE_WORKLOADS["census"]
        corrupted["commands"][census.commands[0]]["stdout_sha256"] = "0" * 64
        runner.use_reference(corrupted)
        outcome = measure(runner, census, 0, 0, 0, setup_per_repetition=1)
        if outcome.failed != 1 or outcome.correct:
            problems.append(f"corrupted digest not detected: failed={outcome.failed}")
    finally:
        runner.close()
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ecstats" / "cli.py").is_file():
        print("bench: src/ecstats/cli.py not found; run from the ecstats repository root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    runner = Runner(root, load_reference())
    try:
        outcome = measure(runner, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    finally:
        runner.close()
    report(outcome, environment(root, args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
