# Pin BLAS threading before numpy is first imported anywhere in the test
# session: verification compares exact accumulation orders and the benchmark
# criteria measure single-threaded kernel scaling.  Importing dimattn.cli
# does not import numpy.
from dimattn import cli

cli._pin_threads()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dimattn import data  # noqa: E402


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    """Deterministic synthetic corpus, ~216 KB of char-level prose."""
    path = tmp_path_factory.mktemp("corpus") / "synth.txt"
    data.synth_corpus(str(path), 220_000, seed=0)
    return str(path)
