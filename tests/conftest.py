import numpy as np
import pytest

from vtapred import load_dataset, prepare_records
from vtapred.synthetic import gaussian_task, write_tachogram_dataset


@pytest.fixture(scope="session")
def tacho_dataset(tmp_path_factory):
    """A synthetic on-disk dataset: (tachogram dir, metadata csv)."""
    base = tmp_path_factory.mktemp("synth_data")
    return write_tachogram_dataset(base, n_event=12, n_control=12, n_beats=420, seed=3)


@pytest.fixture(scope="session")
def prepared_records(tacho_dataset):
    """Loaded, boundary-truncated records plus patient metadata."""
    records, patients = load_dataset(*tacho_dataset)
    return prepare_records(records), patients


@pytest.fixture(scope="session")
def gaussian200():
    """The separable two-class benchmark as a cohort."""
    return gaussian_task(200, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def scipy_reference():
    """scipy at 1.15 or later, whose ``lombscargle`` is plain numpy; skips otherwise.

    The package does not depend on scipy; where scipy is installed, these
    tests pin its ranks to scipy's bit for bit and its band power to within
    a relative 1e-9.
    """
    scipy = pytest.importorskip("scipy")
    if tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 15):
        pytest.skip(f"scipy {scipy.__version__} predates the numpy lombscargle")
    return scipy
