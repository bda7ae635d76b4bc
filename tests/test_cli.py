import contextlib
import io
import subprocess
import sys

import numpy as np
import pytest
import yaml

from sfp import cli as sfp_cli
from sfp.bench import compare_to_table1, schedule_from_config
from sfp.solver import MODES, StepperConfig, run

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


# a power law whose n**power overflows (2000) or is 0 (-2000) at n = 2
POWER_LAW_CASES = pytest.mark.parametrize("power", [2000, -2000])


def power_law_config(power):
    return {
        "problem": {"example": "s4"},
        "schedule": {"preset": "cq", "alpha": {"rule": "power-law", "coeff": 0.1, "power": power}},
        "output": {"csv": "power_law.csv"},
    }


# an explicit 2-variable problem whose Q stanza is appended by each use
EXPLICIT_PROBLEM = "problem: {A: [[1.0, 0.0], [0.0, 1.0]], C: {kind: whole_space, dim: 2}, Q: "
# the start of the error for an S or g that is not a mapping name
MAPPING_FORMS = ("expected a mapping name (identity, zero, example-2.2, contraction-scale:<c> or "
                 "linear:<json matrix>), got ")

# Configs with one malformed value, each with the start of its error line;
# those without a problem section run on the reference example.
MALFORMED_VALUES = [
    pytest.param(text if text.startswith("problem:") else "problem: {example: s4}\n" + text, message, id=name)
    for name, text, message in [
        ("stepper", "stepper: {max_iter: null}\n", "config error: stepper: "),
        ("start", "start: {x1: [1, 2, 3, 4, x]}\n", "config error: start.x1: could not convert"),
        ("output", "output: a.csv\n", "config error: output: must be a mapping"),
        ("schedule", "schedule: {preset: cq, theta: null}\n", "config error: schedule.theta: "),
        ("theta=nan", "schedule: {preset: paper-s4, theta: .nan}\n",
         "config error: schedule.theta: must be finite and >= 0"),
        ("theta=inf", "schedule: {preset: paper-s4, theta: .inf}\n",
         "config error: schedule.theta: must be finite and >= 0"),
        ("grad_tol=nan", "stepper: {grad_tol: .nan, max_iter: 50}\n",
         "config error: stepper: stopping tolerances must be > 0"),
        ("residual_tol=nan", "stepper: {residual_tol: .nan, max_iter: 50}\n",
         "config error: stepper: stopping tolerances must be > 0"),
        ("fixed_step=nan", "stepper: {step_rule: fixed, fixed_step: .nan}\n",
         "config error: stepper: fixed step rule needs fixed_step > 0"),
        ("max_iter=1.9", "stepper: {max_iter: 1.9}\n", "config error: stepper: max_iter must be an integer, got 1.9"),
        ("fixed_step-with-adaptive", "schedule: {preset: cq}\nstepper: {fixed_step: 0.01, max_iter: 50}\n",
         "config error: stepper: fixed_step is read only by step_rule 'fixed'"),
        ("tau_numerator-with-fixed", "stepper: {step_rule: fixed, fixed_step: 0.01, tau_numerator: x}\n",
         "config error: stepper: tau_numerator 'x' is read only by step_rule 'adaptive'"),
        ("start=nan", "start: {x1: [.nan, 1, 1, 1, 1]}\n", "config error: start.x1: vector entries must all be finite"),
        ("halfspace-offset=nan", EXPLICIT_PROBLEM + "{kind: halfspace, normal: [1.0, 1.0], offset: .nan}}\n",
         "config error: problem.Q: halfspace offset must be finite, got nan"),
        ("hyperplane-offset=nan", EXPLICIT_PROBLEM + "{kind: hyperplane, normal: [1.0, 1.0], offset: .nan}}\n",
         "config error: problem.Q: hyperplane offset must be finite, got nan"),
        ("grad_tol=true", "stepper: {grad_tol: true}\n", "config error: stepper: grad_tol must be a number, got True"),
        ("A=mapping", "problem: {A: {a: 1}, C: {kind: whole_space, dim: 2}, Q: {kind: whole_space, dim: 2}}\n",
         "config error: problem.A: "),
        ("known_solution=mapping", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, known_solution: {a: 1}}\n",
         "config error: problem.known_solution: "),
        ("known_solution=[a]", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, known_solution: [a]}\n",
         "config error: problem.known_solution: could not convert string to float: 'a'"),
        ("known_solution=0", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, known_solution: 0}\n",
         "config error: problem.known_solution: expected a 1-D vector"),
        ("random=3", "problem: {random: 3}\n", "config error: problem.random: must be a mapping"),
        ("A=[[true]]", "problem: {A: [[true]], C: {kind: whole_space, dim: 1}, Q: {kind: whole_space, dim: 1}}\n",
         "config error: problem.A: matrix entries must be numbers, got True"),
        ("A=ragged", "problem: {A: [[1], [2, 3]], C: {kind: whole_space, dim: 1}, Q: {kind: whole_space, dim: 1}}\n",
         "config error: problem.A: matrix is a ragged list, not a 2-D matrix"),
        ("S-matrix=mapping", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, S: {matrix: {a: 1}}}\n",
         "config error: problem.S: "),
        ("S-name=3", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, S: {name: 3}}\n",
         "config error: problem.S: expected a mapping name"),
        ("S=contraction-scale", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, S: contraction-scale}\n",
         "config error: problem.S: unknown mapping name 'contraction-scale'"),
        ("S=0", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, S: 0}\n",
         "config error: problem.S: expected a mapping name"),
        *((f"S=linear:{literal}", EXPLICIT_PROBLEM + f"{{kind: whole_space, dim: 2}}, S: 'linear:{literal}'}}\n",
           "config error: problem.S: matrix entries must all be finite")
          for literal in ("[[NaN, 0], [0, 1]]", "[[1, 0], [0, Infinity]]")),
        ("csv=[a]", "output: {csv: [a]}\n", "config error: output.csv: must be a file name, got ['a']"),
        ("misspelled-problem-key", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, knwon_solution: [0, 0]}\n",
         "config error: problem: unknown key(s) ['knwon_solution']"),
        ("lowercase-s", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, s: identity}\n",
         "config error: problem: unknown key(s) ['s']"),
        ("example-and-random", "problem: {example: s4, random: 3}\n", "config error: problem: unknown key(s) ['random']"),
        ("example-and-A", "problem: {example: s4, A: [[1.0]]}\n", "config error: problem: unknown key(s) ['A']"),
        ("box-extra-key", "problem: {A: [[1.0, 0.0], [0.0, 1.0]], Q: {kind: whole_space, dim: 2}, "
         "C: {kind: box, lower: [-1, -1], upper: [1, 1], lowr: [5, 5]}}\n",
         "config error: problem.C: unknown key(s) ['lowr']"),
        ("ball-extra-key", EXPLICIT_PROBLEM + "{kind: ball, center: [0, 0], radius: 1.0, radus: 9}}\n",
         "config error: problem.Q: unknown key(s) ['radus']"),
        ("S-name-and-matrix", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, "
         "S: {name: identity, matrix: [[0.5, 0], [0, 0.5]]}}\n",
         f"config error: problem.S: {MAPPING_FORMS}{{'name': 'identity', 'matrix': [[0.5, 0], [0, 0.5]]}}"),
        ("S={}", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, S: {}}\n",
         f"config error: problem.S: {MAPPING_FORMS}{{}}"),
        ("g-extra-key", EXPLICIT_PROBLEM + "{kind: whole_space, dim: 2}, g: {name: zero, modulus: 0.5}}\n",
         f"config error: problem.g: {MAPPING_FORMS}{{'name': 'zero', 'modulus': 0.5}}"),
        ("random-and-Q", "problem: {random: {dim1: 3, dim2: 2}, Q: {kind: whole_space, dim: 2}}\n",
         "config error: problem: unknown key(s) ['Q']"),
    ]
]

# Documents that are not YAML: an unclosed flow sequence, a tab indent and a
# mapping value where none is allowed.
MALFORMED_YAML = ["problem: [1, 2\n", "problem:\n\texample: s4\n", "a: b: c\n"]


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

    @pytest.mark.parametrize("text, message", MALFORMED_VALUES)
    def test_malformed_value_exits_two(self, tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        proc = cli("run", str(path), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_fixed_step_with_close_top_singular_values(self, tmp_path):
        # ||A|| = 1 with a second singular value 0.99995, so the step 1.0 is inside (0, 2)
        path = tmp_path / "close.yaml"
        path.write_text(EXPLICIT_PROBLEM.replace("0.0], [0.0, 1.0]", "0.0], [0.0, 0.99995]")
                        + "{kind: singleton, point: [0.0, 0.0]}}\n"
                        "schedule: {preset: cq}\nstepper: {step_rule: fixed, fixed_step: 1.0, max_iter: 50}\n"
                        "start: {x1: [1, 1]}\n")
        proc = cli("run", str(path), "--out", str(tmp_path))
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_quoted_flag_exits_two(self, tmp_path):
        path = tmp_path / "flag.yaml"
        path.write_text('problem: {random: {dim1: 4, dim2: 3, include_fixed_point_map: "false"}}\n')
        proc = cli("run", str(path), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == ("config error: problem.random: include_fixed_point_map must be true or false, "
                               "got 'false'\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text", MALFORMED_YAML, ids=["unclosed", "tab", "nested-value"])
    def test_malformed_yaml_exits_two(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        proc = cli("run", str(path), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: config is not valid YAML")
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

    @POWER_LAW_CASES
    def test_power_law_without_a_value_exits_two_with_partial_csv(self, tmp_path, power):
        cfg = write_config(tmp_path / "power.yaml", power_law_config(power))
        proc = cli("run", cfg, "--out", str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "reason=schedule_violation steps=1 " in proc.stdout
        assert proc.stderr == f"error: power-law sequence has no value at n = 2 (2**{power}.0 overflows or is 0)\n"
        assert len((tmp_path / "power_law.csv").read_text().splitlines()) == 1 + 2

    @pytest.mark.parametrize("name", ["../up.csv", "sub/up.csv", "./up.csv", ".."])
    def test_csv_name_with_a_directory_part_exits_two(self, tmp_path, name):
        cfg = write_config(tmp_path / "escape.yaml", dict(CQ_CONFIG, output={"csv": name}))
        proc = cli("run", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == f"config error: output.csv: must be a file name, got {name!r}\n"
        assert not list(tmp_path.rglob("*.csv"))  # "../up.csv" would land in tmp_path

    def test_svg_over_the_csv_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "svg.yaml", dict(CQ_CONFIG, output={"csv": "run.svg"}))
        proc = cli("run", cfg, "--out", str(tmp_path), "--svg")
        assert proc.returncode == 2
        assert proc.stderr == "config error: output.csv: --svg would write its plot over the CSV 'run.svg'\n"
        assert (tmp_path / "run.svg").read_text().startswith("n,x1,")  # the CSV, kept

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

    def test_mode_all_table1_prints_report(self, table1_run, s4):
        # each mode's run prints its summary line, then the report of the CSV
        # it wrote, which runs to the table's last row (33 steps)
        assert table1_run.code == 1
        reports = table1_run.reports
        blocks = table1_run.stdout.split("example-s4 preset=table-1 mode=")[1:]
        assert len(blocks) == len(MODES) == len(reports)
        schedule = schedule_from_config({"preset": "table-1"})
        for mode, block in zip(MODES, blocks):
            assert block.startswith(f"{mode}: reason=max_iter steps=33 ")
            assert block.endswith(f"\n{reports[mode].text()}\nall reference rows matched: False\n")
            assert table1_run.csvs[mode].exists()
            # the same table as `sfp compare-table1` prints for that CSV
            compared = io.StringIO()
            with contextlib.redirect_stdout(compared):
                assert sfp_cli.main(["compare-table1", str(table1_run.csvs[mode])]) == 0
            assert block.endswith(f"\n{compared.getvalue()}all reference rows matched: False\n")
            # and the deviations of the solver's own iterates, not read back from a CSV
            history = run(s4, schedule, StepperConfig(mode=mode, max_iter=33), np.ones(5))
            assert history.steps == 33
            assert compare_to_table1(history.iterates).deviations == reports[mode].deviations


class TestCompareCommand:
    def test_compare_produced_csv(self, tmp_path):
        proc = cli("example-s4", "--preset", "table-1", "--max-iter", "40", "--out", str(tmp_path))
        csv = tmp_path / "example_s4_table-1_proof.csv"
        assert csv.exists(), proc.stdout + proc.stderr
        proc2 = cli("compare-table1", str(csv))
        assert proc2.returncode == 0, proc2.stderr
        assert "0.000000e+00" in proc2.stdout  # row 0 deviation

    @pytest.mark.parametrize("text, message", [
        ("", "error: empty CSV file '{}': no header row"),
        ("n,x1,x2,x3,x4,x5\n", "error: empty trajectory"),
    ], ids=["empty-file", "header-only"])
    def test_csv_without_iterates_exits_two(self, tmp_path, capsys, text, message):
        csv = tmp_path / "empty.csv"
        csv.write_text(text)
        assert sfp_cli.main(["compare-table1", str(csv)]) == 2
        assert capsys.readouterr().err == message.format(csv) + "\n"


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

    def test_exhausted_list_exits_one(self, tmp_path):
        cfg = write_config(tmp_path / "short.yaml", SHORT_SCHEDULE_CONFIG)
        proc = cli("validate-schedule", cfg, "--horizon", "10")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("schedule check over n = 1..3\n")
        assert "  [fail] length: explicit sequence exhausted at n = 4 (length 3)\n" in proc.stdout

    @POWER_LAW_CASES
    def test_power_law_without_a_value_exits_one(self, tmp_path, power):
        cfg = write_config(tmp_path / "power.yaml", power_law_config(power))
        proc = cli("validate-schedule", cfg, "--horizon", "10")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("schedule check over n = 1..1\n")
        message = f"power-law sequence has no value at n = 2 (2**{power}.0 overflows or is 0)"
        assert f"  [fail] length: {message}\n" in proc.stdout


class TestPropsCommand:
    def test_small_sample_run(self):
        proc = cli("props", "--samples", "120", "--seed", "3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all property suites passed" in proc.stdout

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, samples):
        proc = cli("props", "--samples", samples)
        assert proc.returncode == 2
        assert proc.stderr == "error: samples must be >= 1\n"

    def test_negative_seed_rejected(self):
        proc = cli("props", "--seed", "-1", "--samples", "5")
        assert proc.returncode == 2
        assert proc.stderr == "error: seed must be >= 0\n"


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


class TestMainInProcess:
    """``main`` reuses one parser per process; no call may see another's
    arguments."""

    def test_parser_is_built_once(self):
        assert sfp_cli.build_parser() is sfp_cli.build_parser()

    def test_svg_flag_does_not_carry_over(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cq.yaml", CQ_CONFIG)
        assert sfp_cli.main(["run", cfg, "--out", str(tmp_path / "a"), "--svg"]) == 0
        assert sfp_cli.main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "cq.svg").exists()
        assert (tmp_path / "b" / "cq.csv").exists() and not (tmp_path / "b" / "cq.svg").exists()
        assert capsys.readouterr().out.count("convergence curve:") == 1

    def test_horizon_falls_back_to_its_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "ref.yaml", {"problem": {"example": "s4"},
                                                   "schedule": {"preset": "cq"}})
        assert sfp_cli.main(["validate-schedule", cfg, "--horizon", "5"]) == 0
        assert "schedule check over n = 1..5\n" in capsys.readouterr().out
        assert sfp_cli.main(["validate-schedule", cfg]) == 0
        assert "schedule check over n = 1..10000\n" in capsys.readouterr().out

    def test_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            sfp_cli.main(["run"])
        assert exc.value.code == 2
        assert "the following arguments are required: config" in capsys.readouterr().err
        cfg = write_config(tmp_path / "cq.yaml", CQ_CONFIG)
        assert sfp_cli.main(["run", cfg, "--out", str(tmp_path)]) == 0
        assert "reason=residual_met" in capsys.readouterr().out
