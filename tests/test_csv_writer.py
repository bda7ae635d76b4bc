"""The CSV writer process of ``run_experiment``.

A long run's CSV is written by a forked process only where the process runs
one OS thread and has a second CPU, and pytest's BLAS is not pinned to one
thread, so each test runs its experiment in a fresh interpreter with BLAS on
one thread, under this interpreter's ``-X dev`` and ``-W`` options.  The
script reports what it saw as one JSON line on standard output.
"""

import json
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sfp

SRC = Path(sfp.__file__).resolve().parent.parent
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
needs_two_cpus = pytest.mark.skipif(len(CPUS) < 2, reason="the writer process needs a second CPU")

# Counts the forks of the experiment and the CSVs whose rows this process
# builds (a writer's rows are built in the writer), and after it reports
# whether a child process is left and how many Python threads are alive.
PRELUDE = """
import json, os, sys, threading
from sfp import bench, cli, solver

history_rows = bench._history_rows
rows_built = []

def counted_rows(*args):
    rows_built.append(1)
    return history_rows(*args)

bench._history_rows = counted_rows
parent = os.getpid()

forks = []
_fork = os.fork

def fork():
    pid = _fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = fork
out = sys.argv[1]

def report(**facts):
    try:
        os.waitpid(-1, os.WNOHANG)
        facts["child_left"] = True
    except ChildProcessError:
        facts["child_left"] = False
    print(json.dumps({**facts, "forks": len(forks), "threads": threading.active_count(),
                      "rows_built": len(rows_built)}))
"""

# The experiment's CSV, and the same rows written in process from its history.
BYTES = PRELUDE + """
import fcntl, time
cfg = json.loads(sys.argv[2])
mode = sys.argv[3] if len(sys.argv) > 3 else None
refused = []
if mode == "thread":  # a second thread: the process may not fork
    gate = threading.Event()
    waiter = threading.Thread(target=gate.wait)
    waiter.start()
elif mode == "one-cpu":  # no CPU for a writer
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
elif mode == "slow-writer":  # a fork at the first block, and a writer that starts 2 s late
    bench._FORK_VALUES = 1

    def slow_rows(*args):
        time.sleep(2)
        yield from counted_rows(*args)

    bench._history_rows = slow_rows
elif mode == "pipe-size-refused":
    _fcntl = fcntl.fcntl

    def refusing(fd, command, *args):
        if command == fcntl.F_SETPIPE_SZ:
            refused.append(fd)
            raise PermissionError(1, "Operation not permitted")
        return _fcntl(fd, command, *args)

    fcntl.fcntl = refusing
result = bench.run_experiment(cfg, out_dir=out)
if mode == "thread":
    gate.set()
    waiter.join()
h = result.history
built = bench.build_from_config(cfg)
blocks = [(h.iterates[1:], h.records)]
if mode == "one-row-chunks":  # the rows in process are built from blocks of one step
    blocks = [(h.iterates[i + 1:i + 2], h.records[i:i + 1]) for i in range(h.steps)]
bench.emit_csv(history_rows(built.problem, built.schedule, h.iterates[0], blocks), os.path.join(out, "in-process.csv"))
report(csv=str(result.csv_path), steps=h.steps, wall=result.wall_time, refused=len(refused))
"""

# One ``sfp run`` through cli.main, its files limited to argv[4] bytes if
# given; its standard error goes to the test.
CLI_RUN = PRELUDE + """
import resource
bench._FORK_VALUES = int(sys.argv[3])
if len(sys.argv) > 4:
    resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[4]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
code = cli.main(["run", sys.argv[2], "--out", out])
report(code=code)
"""

# As CLI_RUN, for a run that Ctrl-C stops.
CLI_RUN_INTERRUPTED = PRELUDE + """
bench._FORK_VALUES = int(sys.argv[3])
try:
    cli.main(["run", sys.argv[2], "--out", out])
    report(interrupted=False)
except KeyboardInterrupt:
    report(interrupted=True)
"""

# As CLI_RUN, with a run that raises after its second block, once its writer
# has forked.
CLI_RUN_FAILING = PRELUDE + """
bench._FORK_VALUES = int(sys.argv[3])
_blocks = solver._blocks

def failing(*args):
    for count, block in enumerate(_blocks(*args)):
        if count == 2:
            raise ValueError("stopped after two blocks")
        yield block

solver._blocks = failing
code = cli.main(["run", sys.argv[2], "--out", out])
report(code=code)
"""

# As CLI_RUN, with a fault at the CSV's 100th row: "kill" SIGKILLs a writer
# process there (not this process), "odd" raises an exception whose class
# does not load from its pickle in every process.  An exception that
# cli.main does not catch is reported as "raised".
CLI_RUN_ROW_FAULT = PRELUDE + """
import signal
bench._FORK_VALUES = int(sys.argv[3])
fault = sys.argv[4]

class Odd(Exception):
    def __init__(self, a, b):
        super().__init__(f"odd {a} {b}")

def faulty_rows(*args):
    for count, row in enumerate(counted_rows(*args)):
        if count == 100 and fault == "kill" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        if count == 100 and fault == "odd":
            raise Odd(1, 2)
        yield row

bench._history_rows = faulty_rows
try:
    report(code=cli.main(["run", sys.argv[2], "--out", out]))
except Exception as exc:
    report(raised=f"{type(exc).__name__}: {exc}")
"""


def _pinned(script, *args):
    """The command and environment that run ``script`` with BLAS on one thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    options = (["-X", "dev"] if sys.flags.dev_mode else []) + [f"-W{option}" for option in sys.warnoptions]
    return [sys.executable, *options, "-c", script, *map(str, args)], env


def _facts(stdout, stderr):
    assert stdout, stderr
    return json.loads(stdout.splitlines()[-1]), stderr


def _run_pinned(script, *args):
    command, env = _pinned(script, *args)
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    return _facts(done.stdout, done.stderr)


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg))  # JSON is YAML
    return path


S4 = {"problem": {"example": "s4"}}
PIPELINED = {
    "paper-s4": {**S4, "schedule": {"preset": "paper-s4"}, "stepper": {"max_iter": 5000}},
    "fast": {**S4, "schedule": {"preset": "fast"}, "stepper": {"max_iter": 6000}},
    # 609 values a row: the writer forks once the seventh block of 16 steps
    # has come, at row 112 of 272
    "box-600x400-cq": {"problem": {"random": {"dim1": 600, "dim2": 400, "family": "box", "seed": 1}},
                       "schedule": {"preset": "cq"}, "stepper": {"max_iter": 300}},
}
JUMP_MAP = {"problem": {"A": [[1.0]], "C": {"kind": "whole_space", "dim": 1},
                        "Q": {"kind": "singleton", "point": [0.875]}, "S": "example-2.2"},
            "schedule": {"preset": "cq", "lambda": 0.25}, "start": {"x1": [2.0]}}


class TestPipelinedCsv:
    @needs_two_cpus
    @pytest.mark.parametrize("name", PIPELINED)
    def test_forked_writer_writes_the_in_process_bytes(self, tmp_path, name):
        facts, stderr = _run_pinned(BYTES, tmp_path, json.dumps(PIPELINED[name]))
        assert (facts["forks"], facts["child_left"], facts["threads"], facts["rows_built"]) == (1, False, 1, 0), stderr
        written = Path(facts["csv"]).read_bytes()
        assert written == (tmp_path / "in-process.csv").read_bytes()
        assert written.count(b"\n") == facts["steps"] + 2  # the header and the start point

    # a second thread rules out the fork, and one CPU leaves none for the writer
    @pytest.mark.parametrize("mode", ["thread", pytest.param("one-cpu", marks=pytest.mark.skipif(
        not CPUS, reason="needs sched_setaffinity"))])
    def test_no_spare_cpu_keeps_the_csv_in_process(self, tmp_path, mode):
        facts, stderr = _run_pinned(BYTES, tmp_path, json.dumps(PIPELINED["paper-s4"]), mode)
        assert (facts["forks"], facts["child_left"]) == (0, False), stderr
        assert Path(facts["csv"]).read_bytes() == (tmp_path / "in-process.csv").read_bytes()

    # the blocks of 5,000 steps, about 560 KB, wait in the pipe while the
    # writer sleeps: with the default 64 KiB pipe the run took about 2.1 s
    @needs_two_cpus
    def test_a_slow_writer_does_not_hold_up_the_run(self, tmp_path):
        facts, stderr = _run_pinned(BYTES, tmp_path, json.dumps(PIPELINED["paper-s4"]), "slow-writer")
        assert (facts["forks"], facts["child_left"], facts["rows_built"]) == (1, False, 0), stderr
        assert facts["wall"] < 1.0
        assert Path(facts["csv"]).read_bytes() == (tmp_path / "in-process.csv").read_bytes()

    @needs_two_cpus
    def test_a_refused_pipe_size_keeps_the_default_pipe(self, tmp_path):
        facts, stderr = _run_pinned(BYTES, tmp_path, json.dumps(PIPELINED["paper-s4"]), "pipe-size-refused")
        assert (facts["refused"], facts["forks"], facts["child_left"], facts["rows_built"]) == (1, 1, False, 0), stderr
        assert Path(facts["csv"]).read_bytes() == (tmp_path / "in-process.csv").read_bytes()

    # the writer builds the rows of a wide run per block of 16 steps it is
    # sent; the bytes are those of blocks of one step
    @needs_two_cpus
    def test_the_rows_do_not_depend_on_the_chunk_size(self, tmp_path):
        facts, stderr = _run_pinned(BYTES, tmp_path, json.dumps(PIPELINED["box-600x400-cq"]), "one-row-chunks")
        assert (facts["forks"], facts["child_left"], facts["threads"], facts["rows_built"]) == (1, False, 1, 0), stderr
        written = Path(facts["csv"]).read_bytes()
        assert written == (tmp_path / "in-process.csv").read_bytes()
        assert written.count(b"\n") == facts["steps"] + 2

    def test_a_short_run_is_written_in_process(self, tmp_path):
        cfg = {**S4, "schedule": {"preset": "paper-s4"}, "stepper": {"max_iter": 4000}}  # 56,014 values
        facts, stderr = _run_pinned(BYTES, tmp_path, json.dumps(cfg))
        assert (facts["forks"], facts["child_left"]) == (0, False), stderr
        assert Path(facts["csv"]).read_bytes() == (tmp_path / "in-process.csv").read_bytes()


class TestWriterErrors:
    # a CSV path that is a link is written through in process, however long the run
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("max_iter", [100, 5000])
    def test_a_full_disk_is_an_io_error(self, tmp_path, max_iter):
        (tmp_path / "full.csv").symlink_to("/dev/full")
        config = _write_config(tmp_path / "full.yaml", {**S4, "schedule": {"preset": "paper-s4"},
                                                        "stepper": {"max_iter": max_iter},
                                                        "output": {"csv": "full.csv"}})
        facts, stderr = _run_pinned(CLI_RUN, tmp_path, config, 2**16)
        assert (facts["code"], facts["forks"], facts["child_left"]) == (4, 0, False)
        assert stderr == "i/o error: [Errno 28] No space left on device\n"

    # in process and in the writer, a CSV that could not be written whole
    # leaves the CSV's path as it was, and no part file
    @pytest.mark.parametrize("max_iter, forks, left", [(100, 0, ["big.yaml"]),
                                                       pytest.param(5000, 1, ["big.yaml"], marks=needs_two_cpus)],
                             ids=["in-process", "forked"])
    def test_a_file_size_limit_is_an_io_error(self, tmp_path, max_iter, forks, left):
        config = _write_config(tmp_path / "big.yaml", {**S4, "schedule": {"preset": "paper-s4"},
                                                       "stepper": {"max_iter": max_iter},
                                                       "output": {"csv": "big.csv"}})
        facts, stderr = _run_pinned(CLI_RUN, tmp_path, config, 2**16, 2**14)
        assert (facts["code"], facts["forks"], facts["child_left"]) == (4, forks, False)
        assert stderr == "i/o error: [Errno 27] File too large\n"
        assert sorted(os.listdir(tmp_path)) == left

    # the writer's part file has a name whose length does not depend on the
    # CSV's, so a CSV name near NAME_MAX (255 on most file systems) fits it too
    @needs_two_cpus
    def test_a_long_csv_name_is_written_as_in_process(self, tmp_path):
        name = "r" * 246 + ".csv"
        written = []
        for fork_values, forks in ((2**16, 0), (1, 1)):
            out = tmp_path / str(forks)
            out.mkdir()
            config = _write_config(out / "long.yaml", {**S4, "schedule": {"preset": "paper-s4"},
                                                       "stepper": {"max_iter": 100}, "output": {"csv": name}})
            facts, stderr = _run_pinned(CLI_RUN, out, config, fork_values)
            assert (facts["code"], facts["forks"], facts["child_left"], facts["rows_built"]) == (1, forks, False,
                                                                                                1 - forks), stderr
            assert sorted(os.listdir(out)) == ["long.yaml", name]
            written.append((out / name).read_bytes())
        assert written[0] == written[1]

    # a writer that did not put the CSV in place leaves it to the parent,
    # which removes the killed writer's part file and writes the CSV itself
    @needs_two_cpus
    def test_a_killed_writer_leaves_the_csv_to_the_parent(self, tmp_path):
        written = []
        for fork_values, forks in ((2**30, 0), (1, 1)):  # the run has 70,014 values
            out = tmp_path / str(forks)
            out.mkdir()
            config = _write_config(out / "s4.yaml", {**S4, "schedule": {"preset": "paper-s4"},
                                                     "stepper": {"max_iter": 5000}, "output": {"csv": "s4.csv"}})
            facts, stderr = _run_pinned(CLI_RUN_ROW_FAULT, out, config, fork_values, "kill")
            assert (facts.get("code"), facts["forks"], facts["child_left"], facts["rows_built"]) == (1, forks, False,
                                                                                                    1), stderr
            assert stderr == ""
            assert sorted(os.listdir(out)) == ["s4.csv", "s4.yaml"]
            written.append((out / "s4.csv").read_bytes())
        assert written[0] == written[1]

    # the parent raises the error of its own write, so an exception keeps its
    # class even where it could not be sent from a writer as it is
    @needs_two_cpus
    def test_a_writer_error_keeps_its_class(self, tmp_path):
        config = _write_config(tmp_path / "s4.yaml", {**S4, "schedule": {"preset": "paper-s4"},
                                                      "stepper": {"max_iter": 5000}, "output": {"csv": "s4.csv"}})
        facts, stderr = _run_pinned(CLI_RUN_ROW_FAULT, tmp_path, config, 1, "odd")
        assert (facts.get("raised"), facts["forks"], facts["child_left"]) == ("Odd: odd 1 2", 1, False), stderr
        assert sorted(os.listdir(tmp_path)) == ["s4.yaml"]


class TestReplacedCsv:
    # both paths rename a new file over the CSV; it takes the old file's
    # permission bits, as a file written in place keeps them
    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
    @pytest.mark.parametrize("fork_values, forks", [(2**16, 0), pytest.param(1, 1, marks=needs_two_cpus)],
                             ids=["in-process", "forked"])
    def test_a_replaced_csv_keeps_its_mode(self, tmp_path, mode, fork_values, forks):
        csv = tmp_path / "s4.csv"
        csv.write_text("an earlier run's CSV\n")
        csv.chmod(mode)
        config = _write_config(tmp_path / "s4.yaml", {**S4, "schedule": {"preset": "paper-s4"},
                                                      "stepper": {"max_iter": 100},
                                                      "output": {"csv": "s4.csv"}})
        facts, stderr = _run_pinned(CLI_RUN, tmp_path, config, fork_values)
        assert (facts["code"], facts["forks"], facts["child_left"], facts["rows_built"]) == (1, forks, False,
                                                                                            1 - forks), stderr
        assert csv.read_text().count("\n") == 102
        assert stat.S_IMODE(csv.stat().st_mode) == mode
        assert sorted(os.listdir(tmp_path)) == ["s4.csv", "s4.yaml"]


class TestAbortedRun:
    # the run's one step goes from 0.5 to 2.0, outside [0, 1], where the CSV's
    # res_fix column calls the jump map
    @pytest.mark.parametrize("fork_values, forks", [(2**16, 0), pytest.param(1, 1, marks=needs_two_cpus)],
                             ids=["in-process", "forked"])
    def test_a_row_outside_the_maps_domain_keeps_the_earlier_csv(self, tmp_path, fork_values, forks):
        (tmp_path / "jump.csv").write_text("an earlier run's CSV\n")
        config = _write_config(tmp_path / "jump.yaml", {
            **JUMP_MAP, "problem": {**JUMP_MAP["problem"], "Q": {"kind": "singleton", "point": [2.0]}},
            "start": {"x1": [0.5]}, "stepper": {"max_iter": 1}, "output": {"csv": "jump.csv"}})
        facts, stderr = _run_pinned(CLI_RUN, tmp_path, config, fork_values)
        assert (facts["code"], facts["forks"], facts["child_left"]) == (2, forks, False)
        assert stderr == "error: jump map is defined on [0, 1]\n"
        assert sorted(os.listdir(tmp_path)) == ["jump.csv", "jump.yaml"]
        assert (tmp_path / "jump.csv").read_text() == "an earlier run's CSV\n"

    def test_a_map_outside_its_domain_leaves_no_csv(self, tmp_path):
        config = _write_config(tmp_path / "jump.yaml", {**JUMP_MAP, "output": {"csv": "jump.csv"}})
        facts, stderr = _run_pinned(CLI_RUN, tmp_path, config, 1)
        assert (facts["code"], facts["child_left"]) == (2, False)
        assert stderr == "error: jump map is defined on [0, 1]\n"
        assert not (tmp_path / "jump.csv").exists()

    @needs_two_cpus
    def test_a_run_that_raises_after_the_fork_keeps_the_earlier_csv(self, tmp_path):
        (tmp_path / "s4.csv").write_text("an earlier run's CSV\n")
        config = _write_config(tmp_path / "s4.yaml", {**S4, "schedule": {"preset": "paper-s4"},
                                                      "stepper": {"max_iter": 5000},
                                                      "output": {"csv": "s4.csv"}})
        facts, stderr = _run_pinned(CLI_RUN_FAILING, tmp_path, config, 1)
        assert (facts["code"], facts["forks"], facts["child_left"]) == (2, 1, False)
        assert stderr == "error: stopped after two blocks\n"
        assert sorted(os.listdir(tmp_path)) == ["s4.csv", "s4.yaml"]
        assert (tmp_path / "s4.csv").read_text() == "an earlier run's CSV\n"

    @needs_two_cpus
    def test_ctrl_c_after_the_fork_keeps_the_earlier_csv(self, tmp_path):
        (tmp_path / "s4.csv").write_text("an earlier run's CSV\n")
        config = _write_config(tmp_path / "s4.yaml", {**S4, "schedule": {"preset": "paper-s4"},
                                                      "stepper": {"max_iter": 200_000},
                                                      "output": {"csv": "s4.csv"}})
        command, env = _pinned(CLI_RUN_INTERRUPTED, tmp_path, config, 1)
        # a session of its own, so that Ctrl-C reaches the run and its writer as from a terminal
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob(".sfp-*.part")):  # the writer has begun its file
                assert proc.poll() is None and time.monotonic() < deadline, proc.stderr.read()
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            facts, stderr = _facts(*proc.communicate(timeout=60))
        assert (facts["interrupted"], facts["forks"], facts["child_left"]) == (True, 1, False), stderr
        assert sorted(os.listdir(tmp_path)) == ["s4.csv", "s4.yaml"]
        assert (tmp_path / "s4.csv").read_text() == "an earlier run's CSV\n"
