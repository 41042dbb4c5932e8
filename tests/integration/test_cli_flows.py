"""Every documented ``python -m repro`` flow, pinned byte for byte.

``golden_cli_flows.json`` holds, for each ``-m repro`` line of
``tools/flows.txt`` (the asyncio ``serve`` aside: it binds a socket and prints
wall time), the SHA-256 of its stdout, its exit code and the SHA-256 of every
file it writes under ``{tmp}``.  WAL directories are left out: their
checkpoints carry wall-clock stamps.  Each flow runs as a child interpreter in
a directory of its own, whose path reads ``{tmp}`` in the pinned stdout; a
``recover`` line runs after the flow before it, in the same directory.

A change to the CLI's behaviour regenerates the file and says so::

    PYTHONPATH=src python -m tests.integration.test_cli_flows --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FLOWS = os.path.join(ROOT, "tools", "flows.txt")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli_flows.json")
#: Children at a time: each is a whole interpreter running a PTA experiment.
WORKERS = 2


def flows() -> list[str]:
    """The distinct ``-m repro`` lines of flows.txt, in file order."""
    lines: list[str] = []
    with open(FLOWS, encoding="utf-8") as source:
        for raw in source:
            line = raw.strip()
            if not line.startswith("-m repro ") or "--transport asyncio" in line:
                continue
            if line not in lines:
                lines.append(line)
    return lines


def chains(lines: list[str]) -> list[list[str]]:
    """Flows grouped into what must run in order: a ``recover`` reads the
    WAL directory the flow before it left."""
    out: list[list[str]] = []
    for line in lines:
        if line.startswith("-m repro recover ") and out:
            out[-1].append(line)
        else:
            out.append([line])
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(tmp: str) -> dict[str, str]:
    """Every file under ``tmp`` outside a WAL directory, by relative path."""
    found: dict[str, str] = {}
    for folder, dirs, files in os.walk(tmp):
        dirs[:] = sorted(d for d in dirs if not d.startswith("wal"))
        for name in sorted(files):
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, tmp)] = _sha(handle.read().replace(tmp.encode(), b"{tmp}"))
    return found


def run_chain(chain: list[str]) -> dict[str, dict]:
    """Run one chain of flows in a fresh directory; pin each."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), REPRO_BENCH_SCALE="tiny")
    out: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-flow-") as tmp:
        before: dict[str, str] = {}
        for line in chain:
            argv = [arg.replace("{tmp}", tmp) for arg in shlex.split(line)]
            done = subprocess.run(
                [sys.executable, *argv], cwd=tmp, env=env, capture_output=True, timeout=600
            )
            now = _written(tmp)
            out[line] = {
                "exit": done.returncode,
                "stdout": _sha(done.stdout.replace(tmp.encode(), b"{tmp}")),
                "files": {name: sha for name, sha in now.items() if before.get(name) != sha},
            }
            before = now
    return out


def collect() -> dict[str, dict]:
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(run_chain, chains(flows())))
    merged: dict[str, dict] = {}
    for result in results:
        merged.update(result)
    return merged


def _dump(document: dict) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def observed() -> dict[str, dict]:
    return collect()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    with open(GOLDEN, encoding="utf-8") as source:
        return json.load(source)


def test_golden_covers_exactly_the_flows(golden):
    assert sorted(golden) == sorted(flows())


@pytest.mark.parametrize("flow", flows())
def test_flow_matches_golden(observed, golden, flow):
    assert observed[flow] == golden[flow]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w", encoding="utf-8") as out:
        out.write(_dump(collect()))
    print(f"wrote {GOLDEN}")
