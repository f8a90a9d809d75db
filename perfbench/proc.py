"""Child processes of the benchmark.

Every child (a CLI command, the traced launcher, an import sample) is
started by one small spawner process, ``python3 perfbench/proc.py``,
that ``run.py`` talks to over a pipe. On Linux a child's ``ru_maxrss``
also counts the memory high-water mark of the process it was forked
from, so children forked straight from ``run.py``, which holds the
generated inputs, would report its peak instead of their own.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Child:
    """One finished child: ``time.perf_counter`` at spawn and after it
    was reaped, its peak RSS in KiB (from the rusage ``os.wait4``
    returns) and its exit code."""

    start: float
    end: float
    max_rss_kb: int
    code: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LINKGRAPH_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "linkgraph.cli", *args]


def run_child(argv: list[str], cwd: str, stem: str, deadline: float) -> Child:
    """Run one child to completion with its output in ``stem``.stdout and
    ``stem``.stderr. A child still running at ``deadline`` (a
    ``time.perf_counter`` value) is killed and reports exit code -9."""
    with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, usage.ru_maxrss, proc.returncode)


class Spawner:
    """Client side of the spawner: runs children one at a time and kills
    any still running at ``deadline``. Use as a context manager; leaving
    it stops the spawner and waits for it."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], cwd: Path, stem: Path) -> Child:
        request = {"argv": argv, "cwd": str(cwd), "stem": str(stem), "deadline": self.deadline}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        return Child(**json.loads(reply))

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        child = run_child(**request)
        sys.stdout.write(json.dumps(asdict(child)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
