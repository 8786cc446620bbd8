"""Start benchmark children from a small helper process and report their rusage.

On Linux a child's ``ru_maxrss`` also covers the peak RSS of the process it
was forked from, so a child started straight from the benchmark, which holds
the inputs and their reference answers, would report the benchmark's memory
as its own. The helper is started before the benchmark loads anything, so
its own peak stays well below that of any ``lps`` child.

Protocol, one JSON object per line: the client writes ``[argv, stdout_path,
stderr_path]`` to the helper's stdin; the helper runs ``argv`` with stdin
from /dev/null, waits for it, and answers ``[seconds, maxrss_kb, status]``
where ``seconds`` runs from spawn to exit. EOF on stdin ends the helper.
Each child inherits the helper's working directory, environment and CPU
time limit.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

CHILD_CPU_LIMIT_S = 150  # the kernel stops a runaway child, so a run still ends

_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class Spawner:
    """Client side: owns the helper process and stops it on close."""

    def __init__(self, cwd, env) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=cwd,
            env=env,
            text=True,
        )

    def run(self, argv, out_path, err_path) -> tuple[float, float, int]:
        """Run one child: (seconds from spawn to exit, peak RSS in MB, exit code)."""
        self._proc.stdin.write(json.dumps([list(argv), str(out_path), str(err_path)]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner helper exited with status {self._proc.wait()}")
        seconds, maxrss_kb, status = json.loads(reply)
        return seconds, maxrss_kb / 1024, os.waitstatus_to_exitcode(status)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_CPU_LIMIT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, _CREATE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, _CREATE, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        sys.stdout.write(json.dumps([seconds, usage.ru_maxrss, status]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
