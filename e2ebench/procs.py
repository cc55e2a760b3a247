"""Processes the benchmark starts: the ``repro`` CLI, the server and
the in-process child passes.  Every process started here is waited for;
the server is stopped through :class:`Server`'s context manager."""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".e2ebench"
HERE = Path(__file__).resolve().parent

#: Worker processes and client connections: the cores this process may
#: use, capped so a run stays small on a shared machine.
NPROC = max(1, min(4, len(os.sched_getaffinity(0))))

#: Budget for any single process the benchmark waits on.
PROC_TIMEOUT_S = 150.0

_CELL_EVENTS = {"queued", "started", "finished", "failed", "cached"}


def env(cache_dir: Path) -> dict:
    """The program's environment: sources from the checkout, the
    problem cache under ``cache_dir``."""
    out = dict(os.environ)
    out["PYTHONPATH"] = str(ROOT / "src")
    out["REPRO_CACHE_DIR"] = str(cache_dir)
    return out


def wait(proc: subprocess.Popen, timeout_s: float = PROC_TIMEOUT_S) -> int:
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


@dataclass
class CliRun:
    """One ``python -m repro.cli campaign ...`` process."""

    setup_s: float          # spawn -> first cell lifecycle event
    wall_s: float           # spawn -> exit
    returncode: int
    stdout: str
    events: list = field(default_factory=list)   # lifecycle event docs

    def summary(self) -> tuple[int, int, int, int]:
        """(cells, ran, cached, failed) from the CLI's summary line."""
        m = re.search(
            r"^(\d+) cells: (\d+) ran, (\d+) cached, (\d+) failed",
            self.stdout,
            re.M,
        )
        if m is None:
            raise ValueError("no campaign summary line in CLI output")
        return tuple(int(g) for g in m.groups())

    def normalized_tables(self) -> str:
        start = self.stdout.find("normalized iterations")
        end = self.stdout.find("\nrun manifest ")
        return self.stdout[start:end] if start >= 0 else ""


def run_cli_campaign(args: list[str], cache_dir: Path, out_path: Path) -> CliRun:
    """Run one campaign through the CLI.

    Lifecycle events go to a file, not a pipe, so this process neither
    competes with the CLI for the CPU while it runs nor slows it down by
    draining a full pipe late.  Set-up is read off the CLI's own clock:
    the first event's ``ts`` minus the wall-clock time of the spawn.
    """
    events_path = out_path.with_suffix(".events.jsonl")
    cmd = [sys.executable, "-m", "repro.cli", "campaign", *args,
           "--json-progress", str(events_path), "--quiet"]
    with open(out_path, "w", encoding="utf-8") as out:
        spawned_at = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env(cache_dir), cwd=ROOT)
        code = wait(proc)
        wall = time.perf_counter() - t0
    events = []
    if events_path.exists():
        for line in events_path.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if doc.get("event") in _CELL_EVENTS:
                events.append(doc)
    return CliRun(
        setup_s=(events[0]["ts"] - spawned_at) if events else wall,
        wall_s=wall,
        returncode=code,
        stdout=out_path.read_text(encoding="utf-8"),
        events=events,
    )


def run_child(job: dict, path: Path, cache_dir: Path) -> dict:
    """Run ``e2ebench/child.py`` on one job in a fresh interpreter."""
    path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(path)],
        env=env(cache_dir), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    _, err = proc.communicate(timeout=PROC_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child job {job['mode']} failed:\n{err[-2000:]}")
    return json.loads(Path(str(path) + ".out").read_text(encoding="utf-8"))


def time_import(stmt: str, cache_dir: Path, repeats: int = 3) -> list[float]:
    """Wall seconds of a fresh interpreter running ``stmt``."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", stmt], env=env(cache_dir), cwd=ROOT,
            check=True, timeout=PROC_TIMEOUT_S,
        )
        out.append(time.perf_counter() - t0)
    return out


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.cli serve`` in its own process, default workers."""

    def __init__(self, store: Path, cache_dir: Path, log_dir: Path) -> None:
        self.store, self.cache_dir, self.log_dir = store, cache_dir, log_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_s: float | None = None

    def __enter__(self) -> "Server":
        self.log_dir.mkdir(parents=True, exist_ok=True)
        out_path = self.log_dir / "serve.out"
        t0 = time.perf_counter()
        with open(out_path, "w") as out, open(self.log_dir / "serve.err", "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--store", str(self.store)],
                stdout=out, stderr=err, env=env(self.cache_dir), cwd=ROOT,
            )
        try:
            while self.port is None:
                self._check_alive()
                m = re.search(r"listening on http://[^:]+:(\d+)",
                              out_path.read_text())
                if m:
                    self.port = int(m.group(1))
                else:
                    time.sleep(0.002)
                self._timeout(t0)
            while True:
                self._check_alive()
                try:
                    status, _ = self.get("/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                time.sleep(0.002)
                self._timeout(t0)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    @staticmethod
    def _timeout(t0: float) -> None:
        if time.perf_counter() - t0 > 60:
            raise RuntimeError("server did not become healthy within 60 s")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def __exit__(self, *exc) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """``{(name, sorted label items): value}`` of a text exposition."""
    out = {}
    pat = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")
    for line in text.splitlines():
        m = pat.match(line)
        if not m:
            continue
        labels = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', m.group(2) or "")))
        out[(m.group(1), labels)] = float(m.group(3))
    return out
