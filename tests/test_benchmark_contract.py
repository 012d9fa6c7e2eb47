"""The benchmark's set-up and output checks, run against this program.

`perfbench/` builds each workload's config, model and first batch through
the program's public functions.  Running its checks here makes a config or
model signature change that breaks the benchmark fail in this suite.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, program, workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass(name, corpus_path):
    prog = program.load()
    setup = checks.load_setup(prog, workloads.run_config_fields(name, corpus_path, 1))
    results = checks.kernel_reference(prog, setup) + [checks.grad_direction(prog, setup, 1)]
    if name == "clm-dim-long":
        results += checks.causality(prog, setup, 1)
    failed = [c for c in results if not c.ok]
    assert not failed, failed
