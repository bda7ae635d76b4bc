import struct
import sys

import numpy as np
import pytest
import yaml

from sfp.bench import (
    TABLE1_ROWS,
    TABLE1_TOLERANCE,
    ConfigError,
    ExperimentResult,
    PRESETS,
    build_example_s4,
    build_from_config,
    canonical_text,
    compare_to_table1,
    config_fingerprint,
    emit_csv,
    generate_random_sfp,
    normalize_config,
    parse_config,
    preset_schedule,
    read_csv_iterates,
    run_experiment,
    run_property_suites,
    table1_mode_reports,
)
from sfp.linalg import norm
from sfp.mappings import fixed_point_residual
from sfp.sets import membership_residual
from sfp.solver import RunHistory, Seq, StepperConfig, StoppingRule, step

from test_cli import DIVERGE_CONFIG, SHORT_SCHEDULE_CONFIG


class TestExampleProblem:
    def test_solution_is_feasible(self, s4, x_star):
        assert membership_residual(s4.C, x_star) <= 1e-10
        assert membership_residual(s4.Q, s4.A.apply(x_star)) <= 1e-12
        assert np.array_equal(s4.known_solution, x_star)

    def test_matrix_shapes(self, s4):
        assert s4.A.rows == s4.A.cols == 5
        assert s4.S is not None and s4.S.dim == 5
        assert s4.g.name == "zero"

    def test_fixed_point_map_fixes_solution(self, s4, x_star):
        assert norm(s4.S(x_star) - x_star) <= 1e-15


class TestTable1Constants:
    def test_rows_present(self):
        assert set(TABLE1_ROWS) == set(range(16)) | {20, 32, 33}

    def test_row_zero_is_start(self):
        assert TABLE1_ROWS[0] == ("1", "1", "1", "1", "1")

    def test_final_row_is_solution_at_printed_precision(self, x_star):
        final = np.array([float(s) for s in TABLE1_ROWS[33]])
        assert np.max(np.abs(final - x_star)) <= TABLE1_TOLERANCE

    def test_every_row_has_five_entries_with_unit_tail(self):
        for n, row in TABLE1_ROWS.items():
            assert len(row) == 5
            assert row[4] == "1"

    def test_first_coordinate_decreases(self):
        firsts = [float(TABLE1_ROWS[n][0]) for n in sorted(TABLE1_ROWS)]
        assert all(a >= b for a, b in zip(firsts, firsts[1:]))


class TestRandomInstances:
    @pytest.mark.parametrize("family", ["box", "ball", "halfspace"])
    def test_planted_point_is_feasible(self, family):
        problem = generate_random_sfp(5, 3, family, seed=11)
        x_hat = problem.known_solution
        assert membership_residual(problem.C, x_hat) <= 1e-12
        assert membership_residual(problem.Q, problem.A.apply(x_hat)) <= 1e-12

    def test_same_seed_same_problem(self):
        p1 = generate_random_sfp(4, 4, "ball", seed=3)
        p2 = generate_random_sfp(4, 4, "ball", seed=3)
        assert np.array_equal(p1.A.matrix, p2.A.matrix)
        assert np.array_equal(p1.known_solution, p2.known_solution)
        assert p1.Q.radius == p2.Q.radius

    def test_different_seed_different_problem(self):
        p1 = generate_random_sfp(4, 4, "box", seed=3)
        p2 = generate_random_sfp(4, 4, "box", seed=4)
        assert not np.array_equal(p1.A.matrix, p2.A.matrix)

    def test_fixed_point_map_variant(self):
        problem = generate_random_sfp(4, 3, "box", seed=5, include_fixed_point_map=True)
        assert problem.S is not None
        x_hat = problem.known_solution
        assert norm(problem.S(x_hat) - x_hat) == 0.0
        assert problem.S.class_tag == "contraction"

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_random_sfp(0, 3, "box", seed=1)
        with pytest.raises(ValueError):
            generate_random_sfp(3, 3, "simplex", seed=1)


class TestPresets:
    def test_registry(self):
        assert set(PRESETS) == {"paper-s4", "table-1", "cq", "fast", "viscosity"}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_schedule("does-not-exist")

    def test_viscosity_preset_shape(self):
        schedule, kwargs = preset_schedule("viscosity")
        assert schedule.theta == 0.0
        assert schedule.lam == 1.0
        assert kwargs["mode"] == "statement"

    def test_all_presets_step_on_reference_problem(self, s4):
        for name in PRESETS:
            schedule, kwargs = preset_schedule(name)
            x = np.ones(5)
            x_next, _ = step(s4, schedule, StepperConfig(**kwargs), 1, x, x)
            assert np.isfinite(x_next).all()


BASE_CONFIG = """
problem:
  example: s4
schedule:
  preset: cq
stepper:
  max_iter: 1000
"""

EXPLICIT_SCHEDULE = {"alpha": 0.1, "beta": 0.2, "gamma": "complement", "delta": 0.5}


class TestConfig:
    def test_parse_and_build(self):
        raw = parse_config(BASE_CONFIG)
        built = build_from_config(raw)
        assert built.problem.dim == 5
        assert built.stepper.stopping.max_iter == 1000
        assert np.array_equal(built.x1, np.ones(5))

    def test_round_trip_is_semantically_stable(self):
        raw = parse_config(BASE_CONFIG)
        normalized = normalize_config(raw)
        rehydrated = normalize_config(parse_config(yaml.safe_dump(normalized)))
        assert rehydrated == normalized
        assert config_fingerprint(raw) == config_fingerprint(normalized)

    def test_fingerprint_ignores_formatting_but_not_content(self):
        noisy = "\n".join(reversed(BASE_CONFIG.strip().splitlines()))  # still valid: reorder sections
        fp1 = config_fingerprint(parse_config(BASE_CONFIG))
        fp3 = config_fingerprint(parse_config(BASE_CONFIG.replace("1000", "2000")))
        assert fp1 != fp3
        assert canonical_text(parse_config(BASE_CONFIG)) == canonical_text(
            {"problem": {"example": "s4"}, "schedule": {"preset": "cq"}, "stepper": {"max_iter": 1000}}
        )

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            normalize_config({"problem": {"example": "s4"}, "extras": {}})

    def test_missing_problem_rejected(self):
        with pytest.raises(ConfigError, match="problem"):
            build_from_config({"schedule": {"preset": "cq"}})

    def test_unknown_example(self):
        with pytest.raises(ConfigError, match="example"):
            build_from_config({"problem": {"example": "s5"}})

    def test_bad_set_kind_has_field_path(self):
        cfg = {
            "problem": {
                "A": [[1.0]],
                "C": {"kind": "mystery"},
                "Q": {"kind": "singleton", "point": [0.0]},
            }
        }
        with pytest.raises(ConfigError, match="problem.C.kind"):
            build_from_config(cfg)

    def test_explicit_problem_and_schedule(self):
        cfg = {
            "problem": {
                "A": [[1.0, 0.0], [0.0, 2.0]],
                "C": {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                "Q": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                "S": "identity",
                "g": "zero",
            },
            "schedule": {
                "alpha": {"rule": "power-law", "const": 0.0, "coeff": 0.1, "power": 1.0},
                "beta": 0.25,
                "gamma": "complement",
                "delta": 0.5,
                "rho": 2.0,
                "epsilon": [0.1, 0.05, 0.025],
                "theta": 0.2,
                "lambda": 0.5,
            },
            "stepper": {"max_iter": 3},
            "start": {"x1": [0.5, 0.5]},
        }
        built = build_from_config(cfg)
        assert built.schedule.at(2).beta == 0.25
        assert built.schedule.at(3).epsilon == 0.025
        result = run_experiment(cfg)
        assert result.history.steps <= 3

    def test_preset_overrides(self):
        cfg = {
            "problem": {"example": "s4"},
            "schedule": {"preset": "table-1", "lambda": 0.7, "theta": 0.1},
            "stepper": {"max_iter": 5},
        }
        built = build_from_config(cfg)
        assert built.schedule.lam == 0.7
        assert built.schedule.theta == 0.1
        assert built.schedule.at(1).delta == 1.0  # preset value kept

    def test_unknown_schedule_key(self):
        cfg = {"problem": {"example": "s4"}, "schedule": {"preset": "cq", "omega": 1.0}}
        with pytest.raises(ConfigError, match="omega"):
            build_from_config(cfg)

    @pytest.mark.parametrize("missing", ["alpha", "beta", "gamma", "delta"])
    def test_explicit_schedule_requires_sequences(self, missing):
        section = {k: v for k, v in EXPLICIT_SCHEDULE.items() if k != missing}
        with pytest.raises(ConfigError, match=rf"schedule\.{missing}: sequence is required"):
            build_from_config({"problem": {"example": "s4"}, "schedule": section})

    def test_explicit_schedule_defaults(self):
        schedule = build_from_config({"problem": {"example": "s4"}, "schedule": EXPLICIT_SCHEDULE}).schedule
        assert (schedule.rho, schedule.epsilon) == (Seq.constant(2.0), Seq.constant(0.0))
        assert (schedule.theta, schedule.lam) == (0.0, 0.5)

    @pytest.mark.parametrize("preset, gamma, expected", [
        ("paper-s4", "complement", None),
        ("cq", [1.0, 1.0], Seq.explicit([1.0, 1.0])),
    ])
    def test_preset_gamma_override(self, preset, gamma, expected):
        cfg = {"problem": {"example": "s4"}, "schedule": {"preset": preset, "gamma": gamma}}
        schedule = build_from_config(cfg).schedule
        assert schedule.gamma == expected
        assert schedule.alpha == preset_schedule(preset)[0].alpha

    def test_unknown_schedule_key_without_preset(self):
        cfg = {"problem": {"example": "s4"}, "schedule": {**EXPLICIT_SCHEDULE, "omega": 1.0}}
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['omega'\]"):
            build_from_config(cfg)

    @pytest.mark.parametrize("section, cfg, key", [
        ("stepper", {"problem": {"example": "s4"}, "stepper": {"max_iters": 10}}, "max_iters"),
        ("start", {"problem": {"example": "s4"}, "start": {"x_1": [0.0] * 5}}, "x_1"),
        ("output", {"problem": {"example": "s4"}, "output": {"csv_file": "a.csv"}}, "csv_file"),
        ("problem.random", {"problem": {"random": {"dim1": 4, "dim2": 3, "include_fixed_point": True}}},
         "include_fixed_point"),
    ], ids=["stepper", "start", "output", "problem.random"])
    def test_unknown_section_key(self, section, cfg, key):
        with pytest.raises(ConfigError, match=rf"^{section}: unknown key\(s\) \['{key}'\]$"):
            build_from_config(cfg)

    def test_fixed_step_coerced_to_float(self):
        # PyYAML reads 1e-2 (no dot) as the string "1e-2"
        cfg = parse_config("problem: {example: s4}\nstepper: {step_rule: fixed, fixed_step: 1e-2}\n")
        assert build_from_config(cfg).stepper.fixed_step == 0.01

    @pytest.mark.parametrize("stepper", [{"max_iter": None}, {"step_rule": "fixed", "fixed_step": [1]}],
                             ids=["max_iter", "fixed_step"])
    def test_wrongly_typed_stepper_value(self, stepper):
        with pytest.raises(ConfigError, match="^stepper: "):
            build_from_config({"problem": {"example": "s4"}, "stepper": stepper})

    @pytest.mark.parametrize("section, value", [
        ("schedule", "cq"), ("stepper", [1]), ("start", [1.0] * 5), ("output", "a.csv"),
    ], ids=["schedule", "stepper", "start", "output"])
    def test_section_must_be_a_mapping(self, section, value):
        with pytest.raises(ConfigError, match=f"^{section}: must be a mapping$"):
            normalize_config({"problem": {"example": "s4"}, section: value})

    @pytest.mark.parametrize("key", ["x0", "x1"])
    def test_bad_start_vector_names_its_field(self, key):
        cfg = {"problem": {"example": "s4"}, "start": {key: [1, 2, 3, 4, "x"]}}
        with pytest.raises(ConfigError, match=rf"^start\.{key}: could not convert"):
            build_from_config(cfg)

    @pytest.mark.parametrize("key, value, message", [
        ("theta", None, ""),
        ("alpha", {"rule": "constant"}, "rule 'constant' needs 'value'"),
        ("alpha", {"rule": "power-law", "coef": 0.1}, r"unknown key\(s\) \['coef'\] for rule 'power-law'"),
        ("gamma", {"rule": "linear"}, "unknown sequence rule 'linear'"),
        ("preset", ["cq"], "unknown preset"),
        ("theta", float("nan"), "must be finite and >= 0"),
        ("theta", float("inf"), "must be finite and >= 0"),
    ], ids=["theta=null", "constant-without-value", "misspelled-power-law-key", "unknown-rule", "unhashable-preset",
            "theta=nan", "theta=inf"])
    def test_malformed_schedule_value_names_its_key(self, key, value, message):
        with pytest.raises(ConfigError, match=rf"^schedule\.{key}: {message}"):
            build_from_config({"problem": {"example": "s4"}, "schedule": {"preset": "cq", key: value}})

    def test_start_dimension_checked(self):
        cfg = {"problem": {"example": "s4"}, "start": {"x1": [1.0, 2.0]}}
        with pytest.raises(ConfigError, match="start"):
            build_from_config(cfg)


class TestSingleSources:
    """Values pinned so that stepper defaults and run results keep one home."""

    def test_fingerprints(self):
        assert config_fingerprint({"problem": {"example": "s4"}}) == "b0ba8dba8583572e"
        assert config_fingerprint(parse_config(BASE_CONFIG)) == "ad709091c3ab6922"

    def test_config_stepper_is_library_default(self):
        built = build_from_config(parse_config(BASE_CONFIG))
        assert built.stepper == StepperConfig(stopping=StoppingRule(max_iter=1000))
        assert built.fingerprint == config_fingerprint(parse_config(BASE_CONFIG))

    @pytest.mark.parametrize("cfg, reason", [
        (parse_config(BASE_CONFIG), "residual_met"),
        (DIVERGE_CONFIG, "divergence"),
        (SHORT_SCHEDULE_CONFIG, "schedule_violation"),
    ])
    def test_result_read_from_history(self, cfg, reason):
        result = run_experiment(cfg)
        history = result.history
        assert result.termination_reason == history.termination_reason == reason
        xs = build_from_config(cfg).problem.known_solution
        if xs is None:
            assert np.isnan(result.final_error)
        else:
            assert result.final_error == float(np.max(np.abs(history.final - xs)))


class TestExperimentAndCsv:
    def test_row_count_is_steps_plus_one(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        result = run_experiment(cfg, out_dir=tmp_path)
        assert len(result.rows) == result.history.steps + 1
        text = result.csv_path.read_text().strip().splitlines()
        assert len(text) == len(result.rows) + 1  # header line
        assert text[0].startswith("n,x1,x2,x3,x4,x5,f,grad_norm,theta_n,tau_n,res_C,res_Q,res_fix,err_to_solution")

    def test_zero_iteration_run_has_one_row(self, tmp_path):
        cfg = {
            "problem": {"example": "s4"},
            "schedule": {"preset": "cq"},
            "start": {"x1": [0.0625, 0.125, 0.25, 0.5, 1.0]},
        }
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.termination_reason == "residual_met"
        assert len(result.rows) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        r1 = run_experiment(cfg, out_dir=tmp_path)
        first = r1.csv_path.read_bytes()
        r2 = run_experiment(cfg, out_dir=tmp_path)
        assert r2.csv_path.read_bytes() == first

    def test_csv_round_trip(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        result = run_experiment(cfg, out_dir=tmp_path)
        iterates = read_csv_iterates(result.csv_path)
        assert len(iterates) == len(result.history.iterates)
        for a, b in zip(iterates, result.history.iterates):
            assert np.max(np.abs(a - b)) <= 1e-15  # 17 significant digits round-trip

    def test_divergence_writes_partial_csv(self, tmp_path):
        cfg = {
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
        }
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.termination_reason == "divergence"
        assert result.csv_path.exists()
        assert len(result.rows) == result.history.steps + 1

    def test_emit_csv_uses_17_significant_digits(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        result = run_experiment(cfg, out_dir=tmp_path)
        line = result.csv_path.read_text().splitlines()[2]
        assert "0.0" != line.split(",")[1]
        value = float(line.split(",")[1])
        assert format(value, ".17g") == line.split(",")[1]

    def test_convergence_svg(self, tmp_path):
        from sfp.bench import emit_convergence_svg

        cfg = parse_config(BASE_CONFIG)
        result = run_experiment(cfg, out_dir=tmp_path)
        svg_path = tmp_path / "curve.svg"
        emit_convergence_svg(result, svg_path)
        text = svg_path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


def _reference_rows(problem, schedule, history):
    """The CSV rows evaluated afresh at every iterate."""
    t_lam = problem.averaged_map(schedule.lam)
    xs = problem.known_solution
    rows = []
    for k, x in enumerate(history.iterates):
        d = problem.residual(x)
        f_x = 0.5 * float(np.dot(d, d))
        grad_n = norm(problem.A.apply_adjoint(d))
        res_c = membership_residual(problem.C, x)
        res_q = norm(d)
        res_fix = fixed_point_residual(t_lam, x) if problem.S is not None else 0.0
        err = float(np.max(np.abs(x - xs))) if xs is not None else float("nan")
        theta_n = history.records[k - 1].theta if k >= 1 else 0.0
        tau_n = history.records[k - 1].tau if k >= 1 else 0.0
        rows.append([k, *x.tolist(), f_x, grad_n, theta_n, tau_n, res_c, res_q, res_fix, err])
    return rows


def _bits(rows):
    return [[type(v).__name__ + struct.pack("<d", v).hex() for v in row] for row in rows]


_SCALED = 2.0**500


def _tiny_residual_config(scale, x1):
    """cq on A = scale * I with Q = {0}: the residual A x is tiny but the gradient is not."""
    dim = len(x1)
    return {
        "problem": {"A": (scale * np.eye(dim)).tolist(), "C": {"kind": "whole_space", "dim": dim},
                    "Q": {"kind": "singleton", "point": [0.0] * dim}},
        "schedule": {"preset": "cq"},
        "stepper": {"max_iter": 5},
        "start": {"x1": x1},
    }


_BOX_WITH_S = {"random": {"dim1": 8, "dim2": 6, "family": "box", "seed": 3, "include_fixed_point_map": True}}
_ROW_CASES = {
    **{f"s4-{preset}": {"problem": {"example": "s4"}, "schedule": {"preset": preset},
                        "stepper": {"max_iter": 60}}
       for preset in ("cq", "table-1", "paper-s4", "fast")},
    **{f"box-{preset}": {"problem": _BOX_WITH_S, "schedule": {"preset": preset}, "stepper": {"max_iter": 60}}
       for preset in ("cq", "table-1", "paper-s4", "fast")},
    "residual-met": parse_config(BASE_CONFIG),
    "divergence": DIVERGE_CONFIG,
    # ||A x||^2 is subnormal, so 2 (||A x||^2 / 2) differs from it
    "subnormal": _tiny_residual_config(1e150, [1e-305]),
    # ||A x||^2 is the least subnormal, which halves to f = 0
    "halved-to-zero": _tiny_residual_config(_SCALED, [2e-162 / _SCALED]),
    # ||A x||^2 = 2 min - 2^-1074, which halves (ties to even) to f = min
    "halved-to-min": _tiny_residual_config(_SCALED, [2.1095373229725996e-154 / _SCALED, 2.0**-537 / _SCALED]),
}


class TestRowsFromRecords:
    @pytest.mark.parametrize("cfg", _ROW_CASES.values(), ids=_ROW_CASES.keys())
    def test_rows_equal_fresh_evaluation(self, cfg):
        built = build_from_config(cfg)
        result = run_experiment(cfg)
        reference = _reference_rows(built.problem, built.schedule, result.history)
        assert _bits(result.rows) == _bits(reference)

    def test_cases_reach_the_reuse_branches(self):
        thetas = {name: {r.theta == 0.0 for r in run_experiment(cfg).history.records}
                  for name, cfg in _ROW_CASES.items()}
        assert thetas["s4-cq"] == thetas["box-table-1"] == {True}
        assert thetas["s4-paper-s4"] == thetas["box-fast"] == {False}
        f_first = {name: run_experiment(_ROW_CASES[name]).history.records[0].f_u
                   for name in ("subnormal", "halved-to-zero", "halved-to-min")}
        assert 0.0 < f_first["subnormal"] < sys.float_info.min
        assert f_first["halved-to-zero"] == 0.0
        assert f_first["halved-to-min"] == sys.float_info.min


def _joined_csv(result) -> bytes:
    """The CSV as one string: ints with str, every other value with format(v, ".17g")."""
    lines = [",".join(result.header)]
    for row in result.rows:
        lines.append(",".join(str(v) if isinstance(v, int) else format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


class TestCsvBytes:
    def test_streamed_csv_equals_joined_format(self, tmp_path):
        header = ["n", "x1", "f", "grad_norm", "theta_n", "tau_n", "res_C", "res_Q", "res_fix", "err_to_solution"]
        rows = [
            [0, 1.0, 0.5, 2.0**-1074, 0.0, 0.0, -0.0, 1e308, 0.0, float("nan")],
            [1, -0.0, float("inf"), 0.1, 0.5, 1.0 / 3.0, 5e-324, float("-inf"), 1e-300, float("nan")],
            [123456, 2.5e-17, 1e16, 123456789.123, 1e-5, 7.0, 1.7976931348623157e308, 0.0, -1e308, float("nan")],
        ]
        result = ExperimentResult(RunHistory([], [], "max_iter"), rows, header, 0.0, "0" * 16, None)
        path = tmp_path / "rows.csv"
        emit_csv(result, path)
        assert path.read_bytes() == _joined_csv(result)
        assert b",nan\n" in path.read_bytes() and b",-0," in path.read_bytes()

    def test_experiment_csv_equals_joined_format(self, tmp_path):
        result = run_experiment(_ROW_CASES["box-paper-s4"], out_dir=tmp_path)
        assert result.csv_path.read_bytes() == _joined_csv(result)


class TestTable1Comparison:
    def test_self_comparison_is_exact(self):
        iterates = [np.zeros(5)] * 34
        iterates[0] = np.ones(5)
        for n, row in TABLE1_ROWS.items():
            iterates[n] = np.array([float(s) for s in row])
        report = compare_to_table1(iterates)
        assert report.all_matched
        assert report.row0_exact
        assert all(dev == 0.0 for dev in report.deviations.values())

    def test_requires_unit_start(self):
        with pytest.raises(ValueError, match="starts at"):
            compare_to_table1([np.zeros(5)])

    def test_requires_dimension_five(self):
        with pytest.raises(ValueError, match="5-dimensional"):
            compare_to_table1([np.ones(4)])

    def test_short_trajectories_report_available_rows(self):
        report = compare_to_table1([np.ones(5)])
        assert set(report.deviations) == {0}
        assert report.rows_available == 1

    def test_mode_sweep_reports(self):
        reports = table1_mode_reports()
        assert set(reports) == {"proof", "statement", "explore"}
        for mode, report in reports.items():
            assert report.row0_exact, mode
            assert set(report.deviations) == set(TABLE1_ROWS)
            # none of the documented compositions regenerates the printed rows
            assert not report.all_matched, mode

    def test_first_step_proof_mode_hand_computed(self, s4):
        # table-1 weights at n = 1: alpha = 0.1, gamma = 0.9, delta = 1, so the
        # update is 0.9 P_C(S_0.5 u) with u the all-ones start.  S_0.5 u =
        # (5/6, 5/6, 5/6, 5/6, 1); projecting on the line spanned by
        # v = (1, 2, 4, 8, 16) gives (<S_0.5 u, v>/||v||^2) v = (28.5/341) v.
        cfg = {
            "problem": {"example": "s4"},
            "schedule": {"preset": "table-1"},
            "stepper": {"max_iter": 1, "grad_tol": 1e-300, "residual_tol": 1e-300},
        }
        result = run_experiment(cfg)
        expected = 0.9 * (28.5 / 341.0) * np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        assert np.max(np.abs(result.history.iterates[1] - expected)) <= 1e-12


class TestPropertySuites:
    def test_small_run_passes(self):
        ok, text = run_property_suites(samples=150, seed=5)
        assert ok, text
        assert "PASS" in text


@pytest.mark.slow
def test_reference_preset_converges_end_to_end(s4, x_star):
    # the damping toward the null map's fixed point decays like 1/n, so the
    # documented reference schedule needs several hundred thousand steps to
    # reach 1e-6; driven through the public stepper to keep memory flat
    schedule, kwargs = preset_schedule("paper-s4")
    config = StepperConfig(**kwargs)
    x_prev = x = np.ones(5)
    reached = None
    for n in range(1, 700_001):
        x_new, _ = step(s4, schedule, config, n, x, x_prev)
        x_prev, x = x, x_new
        if np.max(np.abs(x - x_star)) <= 1e-6:
            reached = n
            break
    assert reached is not None, "no convergence to 1e-6 within 700k steps"
