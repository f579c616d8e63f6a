"""Digest of the suite's reports, to compare two versions of kwl.

Run ``PYTHONPATH=src python tests/suite_digest.py SEED SAMPLES`` in each
checkout: it runs the suite at that seed and budget into a temporary
directory and prints one ``sha256  check_<name>.json`` line per report.
Reports are byte-identical across runs, so equal lines are unchanged
reports.
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

from kwl.suite import SuiteConfig, run_suite


def digest(seed: int, samples: int) -> list:
    """``(sha256, file name)`` per report of the suite at ``seed`` and ``samples``."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):  # the runner's progress lines
            run_suite(SuiteConfig(seed=seed, samples=samples, out_dir=out))
        return [(hashlib.sha256(p.read_bytes()).hexdigest(), p.name)
                for p in sorted(pathlib.Path(out).glob("check_*.json"))]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: suite_digest.py SEED SAMPLES")
    for sha, name in digest(int(sys.argv[1]), int(sys.argv[2])):
        print(f"{sha}  {name}")
