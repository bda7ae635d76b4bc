import contextlib
import io
import types

import hypothesis
import numpy as np
import pytest

from sfp import build_example_s4, cli
from sfp.bench import compare_to_table1, read_csv_iterates

# derandomized: every @given test draws the same examples on every run and in CI
hypothesis.settings.register_profile("numeric", deadline=None, max_examples=100, derandomize=True)
hypothesis.settings.load_profile("numeric")


@pytest.fixture(scope="session")
def s4():
    return build_example_s4()


@pytest.fixture(scope="session")
def x_star():
    return np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])


@pytest.fixture(scope="session")
def table1_run(tmp_path_factory):
    """One in-process ``sfp example-s4 --preset table-1 --mode all --max-iter 33``
    (33 steps, the table's last row): its exit code, its stdout, and per mode
    the CSV it wrote and the Table 1 report of that CSV."""
    out = tmp_path_factory.mktemp("table1")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["example-s4", "--preset", "table-1", "--mode", "all", "--max-iter", "33", "--out", str(out)])
    csvs = {path.stem.removeprefix("example_s4_table-1_"): path for path in out.glob("example_s4_table-1_*.csv")}
    reports = {mode: compare_to_table1(read_csv_iterates(path)) for mode, path in csvs.items()}
    return types.SimpleNamespace(code=code, stdout=stdout.getvalue(), csvs=csvs, reports=reports)
