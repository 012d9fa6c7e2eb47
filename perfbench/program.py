"""Finds the program's source tree next to the benchmark and imports it.

The benchmark always runs the `src/dimattn` that sits beside this directory,
never an installed copy, so a checkout is measured as it stands.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS and OpenMP pools are pinned to one thread so that step times measure
# the kernels, not thread scheduling on a small machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ProgramMissing(RuntimeError):
    pass


def pin_threads() -> None:
    """Must run before numpy is first imported in the process."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load() -> SimpleNamespace:
    """Import the program's modules from ROOT/src; raise ProgramMissing if absent."""
    if not (SRC / "dimattn" / "train.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'dimattn'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dimattn
    if Path(dimattn.__file__).resolve().parent != SRC / "dimattn":
        raise ProgramMissing(f"dimattn imported from {dimattn.__file__}, not {SRC}")
    from dimattn import checkpoint, config, data, grad, model, train
    return SimpleNamespace(checkpoint=checkpoint, config=config, data=data,
                           grad=grad, model=model, train=train)
