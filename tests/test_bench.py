import numpy as np
import pytest
import yaml

from sfp.bench import (
    TABLE1_ROWS,
    TABLE1_TOLERANCE,
    ConfigError,
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
from sfp.sets import membership_residual
from sfp.solver import Seq, StepperConfig, StoppingRule, step

from test_cli import DIVERGE_CONFIG


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
