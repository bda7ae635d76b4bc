import subprocess
import sys

import pytest
import yaml

CLI = [sys.executable, "-m", "sfp"]

CQ_CONFIG = {
    "problem": {"example": "s4"},
    "schedule": {"preset": "cq"},
    "stepper": {"max_iter": 500},
    "output": {"csv": "cq.csv"},
}

DIVERGE_CONFIG = {
    "problem": {
        "A": [[1.0]],
        "C": {"kind": "whole_space", "dim": 1},
        "Q": {"kind": "singleton", "point": [1.0]},
        "S": "linear:[[3.0]]",
    },
    "schedule": {
        "alpha": 0.0, "beta": 0.0, "gamma": "complement", "delta": 0.9,
        "rho": 2.0, "epsilon": 0.0, "theta": 0.0, "lambda": 1.0,
    },
    "stepper": {"max_iter": 200},
    "start": {"x1": [2.0]},
    "output": {"csv": "diverge.csv"},
}

# the README's example list is shorter than the run, which stops at n = 4
SHORT_SCHEDULE_CONFIG = {
    "problem": {"example": "s4"},
    "schedule": {"preset": "paper-s4", "epsilon": [0.1, 0.05, 0.025]},
    "output": {"csv": "short_schedule.csv"},
}


def cli(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestRunCommand:
    def test_converged_run_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path / "cq.yaml", CQ_CONFIG)
        proc = cli("run", cfg, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "reason=residual_met" in proc.stdout
        assert (tmp_path / "cq.csv").exists()

    def test_max_iter_exits_one(self, tmp_path):
        cfg = dict(CQ_CONFIG, stepper={"max_iter": 3})
        path = write_config(tmp_path / "short.yaml", cfg)
        proc = cli("run", path, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "reason=max_iter" in proc.stdout

    def test_config_error_exits_two(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problem:\n  A: [[1.0]]\n  C: {kind: boxx}\n  Q: {kind: whole_space, dim: 1}\n")
        proc = cli("run", str(path), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_unknown_stepper_key_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "typo.yaml", dict(CQ_CONFIG, stepper={"max_iters": 3}))
        proc = cli("run", cfg, "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "config error: stepper: unknown key(s) ['max_iters']" in proc.stderr
        assert not (tmp_path / "cq.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("stepper: {max_iter: null}\n", "config error: stepper: "),
        ("start: {x1: [1, 2, 3, 4, x]}\n", "config error: start.x1: could not convert"),
        ("output: a.csv\n", "config error: output: must be a mapping"),
        ("schedule: {preset: cq, theta: null}\n", "config error: schedule.theta: "),
        ("schedule: {preset: paper-s4, theta: .nan}\n", "config error: schedule.theta: must be finite and >= 0"),
        ("schedule: {preset: paper-s4, theta: .inf}\n", "config error: schedule.theta: must be finite and >= 0"),
    ], ids=["stepper", "start", "output", "schedule", "theta=nan", "theta=inf"])
    def test_malformed_value_exits_two(self, tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {example: s4}\n" + text)
        proc = cli("run", str(path), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_divergence_exits_three_with_partial_csv(self, tmp_path):
        cfg = write_config(tmp_path / "div.yaml", DIVERGE_CONFIG)
        proc = cli("run", cfg, "--out", str(tmp_path))
        assert proc.returncode == 3
        assert (tmp_path / "diverge.csv").exists()
        rows = (tmp_path / "diverge.csv").read_text().strip().splitlines()
        assert len(rows) >= 2  # header plus the surviving iterates

    def test_schedule_violation_exits_two_with_partial_csv(self, tmp_path):
        cfg = write_config(tmp_path / "short.yaml", SHORT_SCHEDULE_CONFIG)
        proc = cli("run", cfg, "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "reason=schedule_violation steps=3 " in proc.stdout
        assert "error: explicit sequence exhausted at n = 4 (length 3)" in proc.stderr
        assert len((tmp_path / "short_schedule.csv").read_text().splitlines()) == 1 + 4

    def test_io_error_exits_four(self, tmp_path):
        cfg = write_config(tmp_path / "cq.yaml", CQ_CONFIG)
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        proc = cli("run", cfg, "--out", str(blocker))
        assert proc.returncode == 4
        assert "i/o error" in proc.stderr

    def test_output_env_var(self, tmp_path):
        import os

        cfg = write_config(tmp_path / "cq.yaml", CQ_CONFIG)
        out = tmp_path / "from_env"
        env = dict(os.environ, SFP_OUTPUT_DIR=str(out))
        proc = cli("run", cfg, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (out / "cq.csv").exists()


class TestExampleCommand:
    def test_cq_preset(self, tmp_path):
        proc = cli("example-s4", "--preset", "cq", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "example_s4_cq_proof.csv").exists()

    def test_svg_flag(self, tmp_path):
        proc = cli("example-s4", "--preset", "cq", "--svg", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "example_s4_cq_proof.svg").read_text().startswith("<svg")

    def test_mode_all_table1_prints_report(self, tmp_path):
        proc = cli("example-s4", "--preset", "table-1", "--mode", "all",
                   "--max-iter", "40", "--out", str(tmp_path))
        assert "max|dev|" in proc.stdout
        assert "all reference rows matched: False" in proc.stdout
        for mode in ("proof", "statement", "explore"):
            assert (tmp_path / f"example_s4_table-1_{mode}.csv").exists()


class TestCompareCommand:
    def test_compare_produced_csv(self, tmp_path):
        proc = cli("example-s4", "--preset", "table-1", "--max-iter", "40", "--out", str(tmp_path))
        csv = tmp_path / "example_s4_table-1_proof.csv"
        assert csv.exists(), proc.stdout + proc.stderr
        proc2 = cli("compare-table1", str(csv))
        assert proc2.returncode == 0, proc2.stderr
        assert "0.000000e+00" in proc2.stdout  # row 0 deviation


class TestValidateCommand:
    def test_reference_schedule(self, tmp_path):
        cfg = write_config(tmp_path / "ref.yaml", {"problem": {"example": "s4"},
                                                   "schedule": {"preset": "paper-s4"}})
        proc = cli("validate-schedule", cfg, "--horizon", "2000")
        assert proc.returncode == 0, proc.stderr
        assert "(c5): alpha + beta + gamma = 1" in proc.stdout

    def test_sum_violation_exits_one(self, tmp_path):
        cfg = write_config(tmp_path / "bad.yaml", {
            "problem": {"example": "s4"},
            "schedule": {"alpha": 0.5, "beta": 0.2, "gamma": 0.2, "delta": 0.5,
                         "rho": 2.0, "epsilon": 0.0},
        })
        proc = cli("validate-schedule", cfg, "--horizon", "10")
        assert proc.returncode == 1
        assert "fail" in proc.stdout


class TestPropsCommand:
    def test_small_sample_run(self):
        proc = cli("props", "--samples", "120", "--seed", "3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all property suites passed" in proc.stdout


class TestSweepCommand:
    def test_runs_every_config(self, tmp_path):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        write_config(sweep_dir / "a.yaml", CQ_CONFIG)
        short = dict(CQ_CONFIG, stepper={"max_iter": 3}, output={"csv": "short.csv"})
        write_config(sweep_dir / "b.yaml", short)
        out = tmp_path / "out"
        proc = cli("sweep", str(sweep_dir), "--out", str(out))
        assert proc.returncode == 1  # worst of {0, 1}
        assert (out / "cq.csv").exists() and (out / "short.csv").exists()

    def test_empty_dir_is_config_error(self, tmp_path):
        proc = cli("sweep", str(tmp_path))
        assert proc.returncode == 2
