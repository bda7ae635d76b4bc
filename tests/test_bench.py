import dataclasses
import hashlib
import math
import re
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from sfp import bench, cli, linalg, mappings, sets, solver
from sfp.bench import (
    TABLE1_ROWS,
    TABLE1_TOLERANCE,
    ConfigError,
    PRESETS,
    build_example_s4,
    build_from_config,
    compare_to_table1,
    emit_csv,
    generate_random_sfp,
    gradient_property_suite,
    normalize_config,
    parse_config,
    projection_property_suite,
    read_csv_iterates,
    representative_sets,
    run_experiment,
    run_property_suites,
    schedule_from_config,
)
from sfp.linalg import DimensionMismatch, block_rows, norm
from sfp.mappings import average, fixed_point_residual
from sfp.sets import Ball, Halfspace, Hyperplane, WholeSpace, check_projection_characterization, membership_residual
from sfp.solver import Seq, StepperConfig, run

from test_cli import CQ_CONFIG, DIVERGE_CONFIG, MALFORMED_VALUES, MALFORMED_YAML, SHORT_SCHEDULE_CONFIG


class TestExampleProblem:
    def test_solution_is_feasible(self, s4, x_star):
        assert membership_residual(s4.C, x_star) <= 1e-10
        assert membership_residual(s4.Q, s4.A.apply(x_star)) <= 1e-12
        assert np.array_equal(s4.known_solution, x_star)

    def test_matrix_shapes(self, s4):
        assert s4.A.rows == s4.A.cols == 5
        assert s4.S is not None and s4.S.dim == 5
        assert s4.g.dim == 5 and np.array_equal(s4.g(np.ones(5)), np.zeros(5))

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
            schedule_from_config({"preset": "does-not-exist"})

    def test_viscosity_preset_shape(self):
        schedule, mode = schedule_from_config({"preset": "viscosity"}), PRESETS["viscosity"][1]
        assert schedule.theta == 0.0
        assert schedule.lam == 1.0
        assert mode == "statement"

    def test_all_presets_step_on_reference_problem(self, s4):
        for name in PRESETS:
            schedule, mode = schedule_from_config({"preset": name}), PRESETS[name][1]
            history = run(s4, schedule, StepperConfig(mode=mode, max_iter=1), np.ones(5))
            assert history.steps == 1 and np.isfinite(history.iterates[1]).all()


BASE_CONFIG = """
problem:
  example: s4
schedule:
  preset: cq
stepper:
  max_iter: 1000
"""

_RANDOM = {"dim1": 4, "dim2": 3, "family": "box"}
_LINE = {"kind": "whole_space", "dim": 1}
_KINDS = "('box', 'ball', 'halfspace', 'hyperplane', 'singleton', 'affine_nullspace', 'whole_space')"
# the start of the error for a schedule value in none of the three accepted forms
_SEQUENCE_FORMS = re.escape("expected a number, a list or {rule: power-law, const, coeff, power}, got ")
EXPLICIT_SCHEDULE = {"alpha": 0.1, "beta": 0.2, "gamma": "complement", "delta": 0.5}


class TestConfig:
    def test_parse_and_build(self):
        raw = parse_config(BASE_CONFIG)
        built = build_from_config(raw)
        assert built.problem.dim == 5
        assert built.stepper.max_iter == 1000
        assert np.array_equal(built.x1, np.ones(5))

    def test_round_trip_is_semantically_stable(self):
        raw = parse_config(BASE_CONFIG)
        normalized = normalize_config(raw)
        rehydrated = normalize_config(parse_config(yaml.safe_dump(normalized)))
        assert rehydrated == normalized
        assert build_from_config(raw).fingerprint == build_from_config(normalized).fingerprint

    def test_fingerprint_ignores_formatting_but_not_content(self):
        fp1 = build_from_config(parse_config(BASE_CONFIG)).fingerprint
        fp3 = build_from_config(parse_config(BASE_CONFIG.replace("1000", "2000"))).fingerprint
        assert fp1 != fp3
        assert fp1 == build_from_config(
            {"problem": {"example": "s4"}, "schedule": {"preset": "cq"}, "stepper": {"max_iter": 1000}}
        ).fingerprint
        assert fp1 != build_from_config(parse_config(BASE_CONFIG.replace("1000", "1000.0"))).fingerprint

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

    @pytest.mark.parametrize("stanza", [
        {"kind": "box", "lower": [-1.0], "upper": [1.0]},
        {"kind": "ball", "center": [0.0], "radius": 1.0},
        {"kind": "halfspace", "normal": [1.0], "offset": 0.0},
        {"kind": "hyperplane", "normal": [1.0], "offset": 0.0},
        {"kind": "singleton", "point": [0.0]},
        {"kind": "affine_nullspace", "matrix": [[0.0]]},
        {"kind": "whole_space", "dim": 1},
    ], ids=lambda stanza: stanza["kind"])
    def test_set_stanza_takes_only_its_kinds_keys(self, stanza):
        cfg = {"problem": {"A": [[1.0]], "C": stanza, "Q": {**stanza, "extra": 1}}}
        with pytest.raises(ConfigError, match=r"^problem\.Q: unknown key\(s\) \['extra'\]$"):
            build_from_config(cfg)
        cfg["problem"]["Q"] = stanza
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
        (_, beta, *_), (*_, epsilon) = built.schedule.at(2), built.schedule.at(3)
        assert (beta, epsilon) == (0.25, 0.025)
        result = run_experiment(cfg)
        assert result.history.steps <= 3
        without_s = {k: v for k, v in cfg["problem"].items() if k != "S"}
        for problem in (without_s, {**without_s, "S": None}):  # an absent or null S means none
            assert build_from_config({**cfg, "problem": problem}).problem.S is None

    def test_preset_overrides(self):
        cfg = {
            "problem": {"example": "s4"},
            "schedule": {"preset": "table-1", "lambda": 0.7, "theta": 0.1},
            "stepper": {"max_iter": 5},
        }
        built = build_from_config(cfg)
        assert built.schedule.lam == 0.7
        assert built.schedule.theta == 0.1
        _, _, _, delta, _, _ = built.schedule.at(1)
        assert delta == 1.0  # preset value kept

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
        assert schedule.alpha == schedule_from_config({"preset": preset}).alpha

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

    @pytest.mark.parametrize("stepper", [
        {"max_iter": 0, "mode": "bogus"},
        {"max_iter": 0, "step_rule": "fixed", "fixed_step": "abc"},
        {"max_iter": 0, "step_rule": "fixed", "fixed_step": True},
    ], ids=["mode", "fixed_step=abc", "fixed_step=true"])
    def test_stop_value_reported_before_other_stepper_values(self, stepper):
        with pytest.raises(ConfigError, match="^stepper: max_iter must be >= 1$"):
            build_from_config({"problem": {"example": "s4"}, "stepper": stepper})

    @pytest.mark.parametrize("stepper, message", [
        ({"grad_tol": float("nan")}, "stopping tolerances must be > 0"),
        ({"residual_tol": float("nan")}, "stopping tolerances must be > 0"),
        ({"step_rule": "fixed", "fixed_step": float("nan")}, "fixed step rule needs fixed_step > 0"),
    ], ids=["grad_tol", "residual_tol", "fixed_step"])
    def test_nan_stepper_value_rejected(self, stepper, message):
        with pytest.raises(ConfigError, match=f"^stepper: {message}$"):
            build_from_config({"problem": {"example": "s4"}, "stepper": stepper})

    @pytest.mark.parametrize("stepper, message", [
        ({"fixed_step": 0.01, "max_iter": 50}, "fixed_step is read only by step_rule 'fixed'"),
        ({"step_rule": "fixed", "fixed_step": 0.01, "tau_numerator": "x"},
         "tau_numerator 'x' is read only by step_rule 'adaptive'"),
    ], ids=["fixed_step-with-adaptive", "tau_numerator-with-fixed"])
    def test_stepper_value_the_step_rule_ignores_rejected(self, stepper, message):
        with pytest.raises(ConfigError, match=f"^stepper: {message}$"):
            build_from_config({"problem": {"example": "s4"}, "schedule": {"preset": "cq"}, "stepper": stepper})

    def test_infinite_stepper_values_kept(self):
        # an infinite tolerance stops at once; an infinite fixed step is left to run's (0, 2/||A||^2) check
        inf = float("inf")
        cfg = {"problem": {"example": "s4"}, "stepper": {"grad_tol": inf, "residual_tol": inf}}
        assert build_from_config(cfg).stepper.grad_tol == inf
        cfg = {"problem": {"example": "s4"}, "stepper": {"step_rule": "fixed", "fixed_step": inf}}
        with pytest.raises(ValueError, match=r"^fixed step inf outside \(0, 2/\|\|A\|\|\^2\)"):
            run_experiment(cfg)

    @pytest.mark.parametrize("section, value", [
        ("schedule", "cq"), ("stepper", [1]), ("start", [1.0] * 5), ("output", "a.csv"),
    ], ids=["schedule", "stepper", "start", "output"])
    def test_section_must_be_a_mapping(self, section, value):
        with pytest.raises(ConfigError, match=f"^{section}: must be a mapping$"):
            normalize_config({"problem": {"example": "s4"}, section: value})

    @pytest.mark.parametrize("value", [0, [], False, ""], ids=["0", "[]", "false", "empty-string"])
    @pytest.mark.parametrize("section", ["schedule", "stepper", "start", "output"])
    def test_falsy_section_is_not_the_default(self, section, value):
        with pytest.raises(ConfigError, match=f"^{section}: must be a mapping$"):
            normalize_config({"problem": {"example": "s4"}, section: value})

    @pytest.mark.parametrize("value", [None, {}], ids=["null", "{}"])
    @pytest.mark.parametrize("section", ["schedule", "stepper", "start", "output"])
    def test_null_or_empty_section_is_the_default(self, section, value):
        assert build_from_config({"problem": {"example": "s4"}, section: value}).fingerprint == "b0ba8dba8583572e"

    @pytest.mark.parametrize("section", [None, "schedule", "stepper", "start", "output"],
                             ids=["top-level", "schedule", "stepper", "start", "output"])
    def test_non_string_keys_are_named_as_strings(self, section):
        # YAML reads `1: 2` as an int key; the message lists it as '1', sorted with the others
        extra = {1: 2, "foo": 3}
        if section is None:
            cfg, message = {"problem": {"example": "s4"}, **extra}, "unknown top-level section(s):"
        else:
            cfg, message = {"problem": {"example": "s4"}, section: extra}, f"{section}: unknown key(s)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)} \\['1', 'foo'\\]$"):
            build_from_config(cfg)

    @pytest.mark.parametrize("name", ["../up.csv", "/abs/x.csv", "sub/x.csv", "x.csv/", ".", ".."])
    def test_csv_name_with_a_directory_part_rejected(self, name):
        cfg = {"problem": {"example": "s4"}, "output": {"csv": name}}
        with pytest.raises(ConfigError, match=f"^output\\.csv: must be a file name, got {re.escape(repr(name))}$"):
            build_from_config(cfg)

    @pytest.mark.parametrize("key", ["x0", "x1"])
    def test_bad_start_vector_names_its_field(self, key):
        cfg = {"problem": {"example": "s4"}, "start": {key: [1, 2, 3, 4, "x"]}}
        with pytest.raises(ConfigError, match=rf"^start\.{key}: could not convert"):
            build_from_config(cfg)

    @pytest.mark.parametrize("key, value, message", [
        ("theta", None, ""),
        ("alpha", {"rule": "constant"}, _SEQUENCE_FORMS + re.escape("{'rule': 'constant'}")),
        ("alpha", {"rule": "power-law", "coef": 0.1}, r"unknown key\(s\) \['coef'\] for rule 'power-law'"),
        ("gamma", {"rule": "linear"}, _SEQUENCE_FORMS + re.escape("{'rule': 'linear'}")),
        ("preset", ["cq"], "unknown preset"),
        ("theta", float("nan"), "must be finite and >= 0"),
        ("theta", float("inf"), "must be finite and >= 0"),
        ("theta", True, "theta must be a number, got True"),
        ("lambda", False, "lambda must be a number, got False"),
        ("delta", True, "value must be a number, got True"),
        ("beta", [True], "each value must be a number, got True"),
        ("alpha", {"rule": "power-law", "coeff": True}, "coeff must be a number, got True"),
        ("alpha", {"rule": "constant", "value": True}, _SEQUENCE_FORMS),
        ("beta", {"rule": "explicit", "values": [0.0, True]}, _SEQUENCE_FORMS),
        ("alpha", "abc", _SEQUENCE_FORMS + re.escape("'abc'")),
    ], ids=["theta=null", "constant-without-value", "misspelled-power-law-key", "unknown-rule", "unhashable-preset",
            "theta=nan", "theta=inf", "theta=true", "lambda=false", "delta=true", "beta=[true]",
            "power-law-coeff=true", "constant-value=true", "explicit-values=[0,true]", "alpha=abc"])
    def test_malformed_schedule_value_names_its_key(self, key, value, message):
        with pytest.raises(ConfigError, match=rf"^schedule\.{key}: {message}"):
            build_from_config({"problem": {"example": "s4"}, "schedule": {"preset": "cq", key: value}})

    @pytest.mark.parametrize("key, value", [("x0", float("nan")), ("x1", float("nan")), ("x1", float("-inf"))],
                             ids=["x0=nan", "x1=nan", "x1=-inf"])
    def test_non_finite_start_vector_names_its_field(self, key, value):
        cfg = {"problem": {"example": "s4"}, "start": {key: [value, 1.0, 1.0, 1.0, 1.0]}}
        with pytest.raises(ConfigError, match=rf"^start\.{key}: vector entries must all be finite$"):
            build_from_config(cfg)

    @pytest.mark.parametrize("literal", ["[[NaN]]", "[[Infinity]]"])
    def test_non_finite_linear_map_is_a_config_error(self, literal):
        # as for a non-finite A, not a run that diverges
        cfg = dict(DIVERGE_CONFIG, problem=dict(DIVERGE_CONFIG["problem"], S=f"linear:{literal}"))
        with pytest.raises(ConfigError, match=r"^problem\.S: matrix entries must all be finite$"):
            build_from_config(cfg)

    def test_exponent_without_a_dot_is_a_constant(self, tmp_path):
        # YAML leaves 1e-1 a string; as a constant it reads as 0.1 does, as it
        # already did in a list, for theta and for the power-law keys
        template = "problem: {{example: s4}}\nschedule: {{preset: cq, delta: {}}}\nstepper: {{max_iter: 20}}\n" \
                   "output: {{csv: {}.csv}}\n"
        csvs = [run_experiment(parse_config(template.format(value, name)), tmp_path).csv_path
                for value, name in (("1e-1", "exponent"), ("0.1", "decimal"))]
        assert csvs[0].read_bytes() == csvs[1].read_bytes()

    @pytest.mark.parametrize("section, key, text, number", [
        ("schedule", "delta", "1e-1", 0.1),
        ("schedule", "delta", ["1e-1", 0.2], [0.1, 0.2]),
        ("schedule", "alpha", {"rule": "power-law", "const": "0e0", "coeff": "1e-1", "power": "2"},
         {"rule": "power-law", "const": 0.0, "coeff": 0.1, "power": 2.0}),
        ("schedule", "theta", "5e-1", 0.5),
        ("schedule", "lambda", "5e-1", 0.5),
        ("stepper", "grad_tol", "1e-12", 1e-12),
        ("stepper", "residual_tol", "1e-9", 1e-9),
        ("stepper", "max_iter", "20", 20),
    ], ids=["scalar", "list", "power-law", "theta", "lambda", "grad_tol", "residual_tol", "max_iter"])
    def test_number_left_a_string_has_the_fingerprint_of_the_number(self, section, key, text, number):
        # YAML leaves 1e-1 a string; the run it spells is the run of 0.1, with one fingerprint
        def fingerprint(value):
            stanza = {"preset": "cq", key: value} if section == "schedule" else {key: value}
            return build_from_config({"problem": {"example": "s4"}, section: stanza}).fingerprint
        assert fingerprint(text) == fingerprint(number)

    def test_fixed_step_left_a_string_has_the_fingerprint_of_the_number(self):
        fixed = {"problem": {"example": "s4"}, "stepper": {"step_rule": "fixed", "fixed_step": 0.01}}
        assert build_from_config(fixed).fingerprint == build_from_config(
            parse_config("problem: {example: s4}\nstepper: {step_rule: fixed, fixed_step: 1e-2}\n")).fingerprint
        default = {"problem": {"example": "s4"}, "stepper": {"grad_tol": "1e-12"}}
        assert build_from_config(default).fingerprint == "b0ba8dba8583572e"

    @pytest.mark.parametrize("problem, stepper, message", [
        ({"random": {**_RANDOM, "include_fixed_point_map": "false"}}, {},
         "problem.random: include_fixed_point_map must be true or false, got 'false'"),
        ({"random": {**_RANDOM, "include_fixed_point_map": 1}}, {},
         "problem.random: include_fixed_point_map must be true or false, got 1"),
        ({"random": {**_RANDOM, "seed": 1.7}}, {}, "problem.random: seed must be an integer, got 1.7"),
        ({"random": {**_RANDOM, "dim1": True}}, {}, "problem.random: dim1 must be an integer, got True"),
        ({"random": {**_RANDOM, "dim2": 3.5}}, {}, "problem.random: dim2 must be an integer, got 3.5"),
        ({"A": [[1.0, 0.0]], "C": {"kind": "whole_space", "dim": 2.5}, "Q": {"kind": "singleton", "point": [0.0]}},
         {}, "problem.C: dim must be an integer, got 2.5"),
        ({"example": "s4"}, {"max_iter": 1.9}, "stepper: max_iter must be an integer, got 1.9"),
        ({"example": "s4"}, {"max_iter": True}, "stepper: max_iter must be an integer, got True"),
        ({"example": "s4"}, {"max_iter": float("inf")}, "stepper: max_iter must be an integer, got inf"),
        ({"example": "s4"}, {"grad_tol": True}, "stepper: grad_tol must be a number, got True"),
        ({"example": "s4"}, {"residual_tol": True}, "stepper: residual_tol must be a number, got True"),
        ({"example": "s4"}, {"step_rule": "fixed", "fixed_step": True},
         "stepper: fixed_step must be a number, got True"),
        ({"example": "s4"}, {"max_iter": "abc"}, "stepper: max_iter must be an integer, got 'abc'"),
        ({"example": "s4"}, {"grad_tol": [1]}, "stepper: grad_tol must be a number, got [1]"),
        ({"example": "s4"}, {"residual_tol": {}}, "stepper: residual_tol must be a number, got {}"),
        ({"example": "s4"}, {"step_rule": "fixed", "fixed_step": "abc"},
         "stepper: fixed_step must be a number, got 'abc'"),
        ({"A": [[1.0]], "C": {"kind": "whole_space", "dim": 1}, "Q": {"kind": "ball", "center": [0.0], "radius": True}},
         {}, "problem.Q: radius must be a number, got True"),
        ({"A": [[1.0]], "C": {"kind": "whole_space", "dim": 1}, "Q": {"kind": "halfspace", "normal": [1.0],
                                                                      "offset": True}},
         {}, "problem.Q: offset must be a number, got True"),
    ], ids=["flag=str", "flag=int", "seed=1.7", "dim1=true", "dim2=3.5", "whole_space.dim=2.5",
            "max_iter=1.9", "max_iter=true", "max_iter=inf", "grad_tol=true", "residual_tol=true", "fixed_step=true",
            "max_iter=abc", "grad_tol=[1]", "residual_tol={}", "fixed_step=abc", "ball.radius=true", "halfspace.offset=true"])
    def test_wrongly_typed_integer_or_flag(self, problem, stepper, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_from_config({"problem": problem, "stepper": stepper})

    def test_integral_values_accepted(self):
        built = build_from_config({"problem": {"random": {**_RANDOM, "dim1": 4.0, "seed": "7",
                                                          "include_fixed_point_map": True}},
                                   "stepper": {"max_iter": 2.0}})
        assert (built.problem.dim, built.stepper.max_iter) == (4, 2)
        assert np.array_equal(built.problem.A.matrix, generate_random_sfp(4, 3, "box", 7).A.matrix)
        assert built.problem.S is not None

    def test_start_dimension_checked(self):
        cfg = {"problem": {"example": "s4"}, "start": {"x1": [1.0, 2.0]}}
        with pytest.raises(ConfigError, match="start"):
            build_from_config(cfg)

    @pytest.mark.parametrize("stanza, message", [
        # the parameters are read in the kind's order, so a bad lower is reported before a missing upper
        ({"kind": "box", "lower": ["a"]}, "problem.C: could not convert string to float: 'a'"),
        ({"kind": "box", "upper": [1.0]}, "problem.C: missing parameter 'lower' for kind 'box'"),
        ({"kind": "ball", "radius": 1.0}, "problem.C: missing parameter 'center' for kind 'ball'"),
        ({"kind": "halfspace", "normal": [1.0]}, "problem.C: missing parameter 'offset' for kind 'halfspace'"),
        ({"kind": "hyperplane", "offset": 0.0}, "problem.C: missing parameter 'normal' for kind 'hyperplane'"),
        ({"kind": "singleton"}, "problem.C: missing parameter 'point' for kind 'singleton'"),
        ({"kind": "affine_nullspace"}, "problem.C: missing parameter 'matrix' for kind 'affine_nullspace'"),
        ({"kind": "whole_space"}, "problem.C: missing parameter 'dim' for kind 'whole_space'"),
        ({"kind": "ball", "center": [0.0], "radius": True}, "problem.C: radius must be a number, got True"),
        ({"kind": "whole_space", "dim": 2.5}, "problem.C: dim must be an integer, got 2.5"),
        ({"kind": "whole_space", "dim": 0}, "problem.C: dimension must be >= 1"),
        ({"kind": "cube"}, f"problem.C.kind: unknown set kind 'cube' (have {_KINDS})"),
        ({"kind": ["box"]}, f"problem.C.kind: unknown set kind ['box'] (have {_KINDS})"),
        ({"lower": [0.0]}, "problem.C: expected a mapping with a 'kind' key"),
        ([1, 2], "problem.C: expected a mapping with a 'kind' key"),
        # a bool entry is refused as a bool number is, and the message names the parameter
        ({"kind": "box", "lower": [True]}, "problem.C: lower entries must be numbers, got True"),
        ({"kind": "box", "lower": [0.0], "upper": [False]}, "problem.C: upper entries must be numbers, got False"),
        ({"kind": "ball", "center": [True], "radius": 2}, "problem.C: center entries must be numbers, got True"),
        ({"kind": "halfspace", "normal": [True], "offset": 0.0}, "problem.C: normal entries must be numbers, got True"),
        ({"kind": "hyperplane", "normal": [False], "offset": 0.0},
         "problem.C: normal entries must be numbers, got False"),
        ({"kind": "singleton", "point": [True]}, "problem.C: point entries must be numbers, got True"),
        ({"kind": "affine_nullspace", "matrix": [[True]]}, "problem.C: matrix entries must be numbers, got True"),
        ({"kind": "box", "lower": [0.0], "upper": [float("nan")]}, "problem.C: upper entries must all be finite"),
        # a ragged list is reported in the reader's words, with the parameter's name
        ({"kind": "ball", "center": [[1.0], 2.0], "radius": 2},
         "problem.C: center is a ragged list, not a 1-D vector with >= 1 entry"),
        ({"kind": "affine_nullspace", "matrix": [[1.0], [2.0, 3.0]]},
         "problem.C: matrix is a ragged list, not a 2-D matrix"),
    ], ids=["box-bad-lower-no-upper", "box-no-lower", "ball-no-center", "halfspace-no-offset",
            "hyperplane-no-normal", "singleton-no-point", "affine_nullspace-no-matrix", "whole_space-no-dim",
            "ball.radius=true", "whole_space.dim=2.5", "whole_space.dim=0", "kind=cube", "kind=[box]",
            "no-kind", "list", "box.lower=[true]-no-upper", "box.upper=[false]", "ball.center=[true]",
            "halfspace.normal=[true]", "hyperplane.normal=[false]", "singleton.point=[true]",
            "affine_nullspace.matrix=[[true]]", "box.upper=[nan]", "ball.center=ragged",
            "affine_nullspace.matrix=ragged"])
    def test_malformed_set_stanza_message(self, stanza, message):
        problem = {"A": [[1.0]], "C": stanza, "Q": {"kind": "whole_space", "dim": 1}}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_from_config({"problem": problem})

    @pytest.mark.parametrize("cfg, message", [
        ({"problem": {"example": 5}}, "problem.example: unknown example 5"),
        ({"problem": {"random": {**_RANDOM, "family": "cube"}}}, "problem.random: unknown set family 'cube'"),
        ({"problem": {"random": {**_RANDOM, "seed": -1}}},
         "problem.random: seed must be a non-negative integer, got -1"),
        ({"problem": {"random": {"dim2": 3}}}, "problem.random: missing parameter 'dim1'"),
        ({"problem": {"A": []}}, "problem.A: expected a 2-D matrix, got shape (0,)"),
        ({"problem": {"A": [[1.0]], "C": {"kind": "whole_space", "dim": 1}, "Q": {"kind": "whole_space", "dim": 1},
                      "known_solution": [0.0, 0.0]}},
         "problem.known_solution: expected a vector of dimension 1, got 2"),
        ({"problem": {"A": [[1.0]], "C": {"kind": "whole_space", "dim": 1}, "Q": {"kind": "whole_space", "dim": 2}}},
         "problem: Q has dimension 2, operator maps into 1"),
        ({"problem": {"example": "s4"}, "start": {"x1": 1.0}},
         "start.x1: expected a 1-D vector with >= 1 entry, got shape ()"),
        ({"problem": {"example": "s4"}, "stepper": {"mode": 3}},
         "stepper: mode must be one of ('proof', 'statement', 'explore'), got 3"),
        ({"problem": {"A": [[True]], "C": _LINE, "Q": _LINE}}, "problem.A: matrix entries must be numbers, got True"),
        ({"problem": {"A": [[1.0]], "C": _LINE, "Q": _LINE, "S": "linear:[[true]]"}},
         "problem.S: matrix entries must be numbers, got True"),
        ({"problem": {"A": [[1.0]], "C": _LINE, "Q": _LINE, "known_solution": [False]}},
         "problem.known_solution: vector entries must be numbers, got False"),
        ({"problem": {"example": "s4"}, "start": {"x0": [1.0, 1.0, 1.0, 1.0, True]}},
         "start.x0: vector entries must be numbers, got True"),
        ({"problem": {"example": "s4"}, "start": {"x1": [False, 1.0, 1.0, 1.0, 1.0]}},
         "start.x1: vector entries must be numbers, got False"),
        ({"problem": {"example": "s4"}, "start": {"x1": [1.0, 2.0]}},
         "start.x1: expected a vector of dimension 5, got 2"),
        ({"problem": {"example": "s4"}, "start": {"x0": [1.0, 2.0]}},
         "start.x0: expected a vector of dimension 5, got 2"),
        ({"problem": {"A": [[1.0], [2.0, 3.0]], "C": _LINE, "Q": _LINE}},
         "problem.A: matrix is a ragged list, not a 2-D matrix"),
        ({"problem": {"A": [[1.0]], "C": _LINE, "Q": _LINE, "S": "linear:[[1.0], [2.0, 3.0]]"}},
         "problem.S: matrix is a ragged list, not a 2-D matrix"),
        ({"problem": {"example": "s4"}, "start": {"x1": [1, [2], 3, 4, 5]}},
         "start.x1: vector is a ragged list, not a 1-D vector with >= 1 entry"),
    ], ids=["example=5", "family=cube", "seed=-1", "no-dim1", "A=[]", "known_solution-dim", "Q-dim", "x1=scalar", "mode=3",
            "A=[[true]]", "S=linear:[[true]]", "known_solution=[false]", "x0=[...,true]", "x1=[false,...]", "x1-dim",
            "x0-dim", "A=ragged", "S=linear:ragged", "x1=ragged"])
    def test_malformed_field_message(self, cfg, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_from_config(cfg)


def _schedule(**section):
    return {"problem": {"example": "s4"}, "schedule": {"preset": "cq", **section}}


def _stepper(**section):
    return {"problem": {"example": "s4"}, "stepper": section}


def _set(role, stanza):
    return {"problem": {"A": [[1.0]], "C": _LINE, "Q": _LINE, role: stanza}}


def _random(**spec):
    return {"problem": {"random": {**_RANDOM, **spec}}}


def _number_fields():
    """(library call, config, the config's path prefix, message, bad value)
    for each number that a library type holds and each of its bad values."""
    cq = schedule_from_config({"preset": "cq"})
    number, integer = (True, "abc"), (True, "abc", 2.5)
    fields = {
        # a config's string is not a sequence, so only the library gives Seq a string
        "Seq.constant": (Seq.constant, lambda v: _schedule(delta=v), "schedule.delta: ", "value must be a number",
                         (True,)),
        "Seq.values": (lambda v: Seq.explicit([0.0, v]), lambda v: _schedule(beta=[0.0, v]), "schedule.beta: ",
                       "each value must be a number", number),
        "theta": (lambda v: dataclasses.replace(cq, theta=v), lambda v: _schedule(theta=v), "schedule.",
                  "theta: theta must be a number", number),
        "lambda": (lambda v: dataclasses.replace(cq, lam=v), lambda v: _schedule(**{"lambda": v}), "schedule.",
                   "lambda: lambda must be a number", number),
        "fixed_step": (lambda v: StepperConfig(step_rule="fixed", fixed_step=v),
                       lambda v: _stepper(step_rule="fixed", fixed_step=v), "stepper: ",
                       "fixed_step must be a number", number),
        "Ball.radius": (lambda v: Ball([0.0], v), lambda v: _set("Q", {"kind": "ball", "center": [0.0], "radius": v}),
                        "problem.Q: ", "radius must be a number", number),
        "WholeSpace.dim": (lambda v: WholeSpace(v), lambda v: _set("C", {"kind": "whole_space", "dim": v}),
                           "problem.C: ", "dim must be an integer", integer),
        "dim1": (lambda v: generate_random_sfp(v, 3, "box", 0), lambda v: _random(dim1=v), "problem.random: ",
                 "dim1 must be an integer", integer),
        "dim2": (lambda v: generate_random_sfp(4, v, "box", 0), lambda v: _random(dim2=v), "problem.random: ",
                 "dim2 must be an integer", integer),
        "seed": (lambda v: generate_random_sfp(4, 3, "box", v), lambda v: _random(seed=v), "problem.random: ",
                 "seed must be an integer", integer),
        "include_fixed_point_map": (lambda v: generate_random_sfp(4, 3, "box", 0, v),
                                    lambda v: _random(include_fixed_point_map=v), "problem.random: ",
                                    "include_fixed_point_map must be true or false", (1, "false")),
    }
    for key in ("const", "coeff", "power"):
        fields[f"Seq.{key}"] = (lambda v, key=key: Seq("power-law", **{key: v}),
                                lambda v, key=key: _schedule(alpha={"rule": "power-law", key: v}),
                                "schedule.alpha: ", f"{key} must be a number", number)
    for key in ("grad_tol", "residual_tol", "max_iter"):
        fields[key] = (lambda v, key=key: StepperConfig(**{key: v}), lambda v, key=key: _stepper(**{key: v}),
                       "stepper: ", "max_iter must be an integer" if key == "max_iter" else f"{key} must be a number",
                       integer if key == "max_iter" else number)
    for kind in (Halfspace, Hyperplane):
        fields[f"{kind.__name__}.offset"] = (
            lambda v, kind=kind: kind([1.0], v),
            lambda v, kind=kind: _set("Q", {"kind": kind.kind, "normal": [1.0], "offset": v}),
            "problem.Q: ", "offset must be a number", number)
    return [pytest.param(make, config, prefix, f"{message}, got {value!r}", value, id=f"{name}={value!r}")
            for name, (make, config, prefix, message, values) in fields.items() for value in values]


class TestNumbersCheckedByTheirType:
    @pytest.mark.parametrize("make, config, prefix, message, value", _number_fields())
    def test_library_refuses_what_a_config_refuses(self, make, config, prefix, message, value):
        # the library's message is the config's after its field path
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(value)
        with pytest.raises(ConfigError, match=f"^{re.escape(prefix + message)}$"):
            build_from_config(config(value))

    @pytest.mark.parametrize("cfg, message", [
        (_schedule(delta=[]), "schedule.delta: explicit sequence needs at least one value"),
        (_stepper(step_rule="bogus"), "stepper: step_rule must be 'adaptive' or 'fixed'"),
        (_stepper(tau_numerator="v"), "stepper: tau_numerator must be 'u' or 'x'"),
        ({"problem": {"A": [[1.0, 0.0]], "C": {"kind": "whole_space", "dim": 2}, "Q": {"kind": "whole_space", "dim": 1},
                      "S": "linear:[[1.0]]"}}, "problem: fixed-point map S must act on the domain space"),
        ({"problem": {"A": [[1.0, 0.0]], "C": {"kind": "whole_space", "dim": 2}, "Q": {"kind": "whole_space", "dim": 1},
                      "g": "linear:[[0.5]]"}}, "problem: contraction g must act on the domain space"),
    ], ids=["delta=[]", "step_rule=bogus", "tau_numerator=v", "S-dim", "g-dim"])
    def test_library_check_through_a_config(self, cfg, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_from_config(cfg)

    @pytest.mark.parametrize("make, message", [
        (lambda: linalg.as_vector(np.array([True])), "vector entries must be numbers, got True"),
        (lambda: linalg.as_vector([np.bool_(True)]), "vector entries must be numbers, got True"),
        (lambda: linalg.LinearMap([[1.0, True]]), "matrix entries must be numbers, got True"),
        (lambda: linalg.LinearMap(np.zeros((2, 2), bool)), "matrix entries must be numbers, got False"),
        (lambda: mappings.linear_mapping([[np.False_]]), "matrix entries must be numbers, got False"),
        (lambda: sets.Box([True], [2.0]), "lower entries must be numbers, got True"),
        (lambda: Ball([0.0, True], 1.0), "center entries must be numbers, got True"),
        (lambda: Halfspace([True], 0.0), "normal entries must be numbers, got True"),
        (lambda: sets.Singleton([False]), "point entries must be numbers, got False"),
        (lambda: solver.SfpProblem(linalg.LinearMap([[1.0]]), WholeSpace(1), WholeSpace(1), known_solution=[True]),
         "vector entries must be numbers, got True"),
        (lambda: mappings.Mapping(lambda x: x, 1, known_fixed_points=([True],)),
         "vector entries must be numbers, got True"),
        (lambda: run(build_example_s4(), schedule_from_config({"preset": "cq"}), StepperConfig(), [True] * 5),
         "vector entries must be numbers, got True"),
        (lambda: run(build_example_s4(), schedule_from_config({"preset": "cq"}), StepperConfig(), np.ones(5),
                     np.ones(5, bool)), "vector entries must be numbers, got True"),
        (lambda: mappings.verify_quasi_nonexpansive(mappings.unit_interval_jump_map(), [0.875], [[True], [False]]),
         "points entries must be numbers, got True"),
        (lambda: mappings.estimate_demicontractive_modulus(mappings.unit_interval_jump_map(), [0.875],
                                                           np.array([[0.5], [True]], dtype=object)),
         "points entries must be numbers, got True"),
        (lambda: check_projection_characterization(Ball([0.0], 1.0), [True]), "x entries must be numbers, got True"),
    ], ids=["as_vector(bool-array)", "as_vector([np.bool_])", "LinearMap", "LinearMap(bool-array)", "linear_mapping",
            "Box", "Ball", "Halfspace", "Singleton", "SfpProblem.known_solution", "Mapping.known_fixed_points",
            "run-x0", "run-x1", "verify_quasi_nonexpansive", "estimate_demicontractive_modulus",
            "check_projection_characterization"])
    def test_library_refuses_a_bool_entry(self, make, message):
        # as a bool scalar is refused: the message a config prints after its field path
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_numbers_read_from_strings(self):
        # as a config reads them: an integral float or a string of a number
        assert WholeSpace(2.0).dim == 2 and Ball([0.0], "2").radius == 2.0 and Halfspace([1.0], "1").offset == 1.0
        assert np.array_equal(generate_random_sfp(4.0, "3", "box", "7").A.matrix,
                              generate_random_sfp(4, 3, "box", 7).A.matrix)


def _readme_block(heading: str, language: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"## {heading}\n\n```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_use_runs(capsys):
    namespace = {}
    exec(_readme_block("Library use", "python"), namespace)
    history = namespace["history"]
    assert (history.termination_reason, history.error) == ("residual_met", None)
    assert capsys.readouterr().out.startswith("residual_met [")


def _workload_configs() -> list:
    # each benchmark job as the benchmark writes it
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    return [yaml.safe_dump(job.config, sort_keys=True)
            for make in workloads["WORKLOADS"].values() for job in make(1).jobs]


def test_the_benchmark_tracer_installs_on_the_package():
    # the benchmark's tracer patches functions and methods of these modules by
    # name: a hook target that is gone or renamed fails here, not only in a
    # traced benchmark run
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
    tracer = spans["Tracer"]()
    try:
        tracer.install((linalg, sets, mappings, solver, bench, cli))
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert vars(owner)[attr].__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    assert patches and len({(id(owner), attr) for owner, attr, _ in patches}) == len(patches)
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)


# YAML features a config may use: non-finite floats, exponents without a dot
# (strings to YAML 1.1), other number forms, anchors, aliases, merge keys, a
# directive and an explicit document.
YAML_FEATURES = """\
%YAML 1.1
---
problem: &p {example: s4}
again: *p
schedule: &s
  preset: cq
  theta: .nan
  rho: .inf
  beta: -.Inf
merged: {<<: *s, preset: fast}
stepper: {grad_tol: 1e-12, residual_tol: 1.0e-9, max_iter: 0x1f, mode: ~, fixed_step: 1_000.5}
start: {x1: [0o17, 017, 0b11, +12, 1:30, true, no, null, 2001-12-14, "1e-3", !!float 1]}
output: {csv: 'a: b.csv'}
...
"""


class TestParseConfig:
    """``parse_config`` gives what ``yaml.safe_load`` gives, faster."""

    @pytest.mark.parametrize("text", [
        pytest.param(BASE_CONFIG, id="base"),
        pytest.param(yaml.safe_dump(normalize_config(parse_config(BASE_CONFIG))), id="base-normalized"),
        *(pytest.param(yaml.safe_dump(cfg), id=name) for name, cfg in
          [("cq", CQ_CONFIG), ("diverge", DIVERGE_CONFIG), ("short-schedule", SHORT_SCHEDULE_CONFIG)]),
        *(pytest.param(param.values[0], id=f"malformed-{param.id}") for param in MALFORMED_VALUES),
        pytest.param("problem: {example: s4}\nstepper: {step_rule: fixed, fixed_step: 1e-2}\n", id="fixed-step"),
        pytest.param("problem:\n  A: [[1.0]]\n  C: {kind: boxx}\n  Q: {kind: whole_space, dim: 1}\n",
                     id="bad-set-kind"),
        pytest.param(_readme_block("Config format", "yaml"), id="readme"),
        *(pytest.param(text, id=f"workload-{k:02d}") for k, text in enumerate(_workload_configs())),
        pytest.param(YAML_FEATURES, id="features"),
    ])
    def test_same_values_as_safe_load(self, text):
        parsed, expected = parse_config(text), yaml.safe_load(text)
        assert isinstance(parsed, dict)
        assert repr(parsed) == repr(expected)  # repr, not ==, so nan matches nan

    def test_feature_values(self):
        cfg = parse_config(YAML_FEATURES)
        assert cfg["again"] is cfg["problem"]
        assert math.isnan(cfg["schedule"]["theta"]) and cfg["schedule"]["rho"] == math.inf
        assert cfg["merged"] == {**cfg["schedule"], "preset": "fast"}
        assert cfg["stepper"]["grad_tol"] == "1e-12" and cfg["stepper"]["max_iter"] == 31
        assert cfg["start"]["x1"][:8] == ["0o17", 15, 3, 12, 90, True, False, None]

    @pytest.mark.parametrize("text", MALFORMED_YAML, ids=["unclosed", "tab", "nested-value"])
    def test_malformed_yaml_is_a_config_error(self, text):
        with pytest.raises(ConfigError, match="^config is not valid YAML") as exc:
            parse_config(text)
        assert isinstance(exc.value.__cause__, yaml.YAMLError)

    @pytest.mark.parametrize("text", ["", "- 1\n- 2\n", "just text\n"])
    def test_top_level_must_be_a_mapping(self, text):
        with pytest.raises(ConfigError, match="^config must be a mapping at the top level$"):
            parse_config(text)


class TestSingleSources:
    """Values pinned so that stepper defaults and run results keep one home."""

    def test_fingerprints(self):
        assert build_from_config({"problem": {"example": "s4"}}).fingerprint == "b0ba8dba8583572e"
        assert build_from_config(parse_config(BASE_CONFIG)).fingerprint == "ad709091c3ab6922"

    def test_config_stepper_is_library_default(self):
        built = build_from_config(parse_config(BASE_CONFIG))
        assert built.stepper == StepperConfig(max_iter=1000)

    @pytest.mark.parametrize("cfg, reason", [
        (parse_config(BASE_CONFIG), "residual_met"),
        (DIVERGE_CONFIG, "divergence"),
        (SHORT_SCHEDULE_CONFIG, "schedule_violation"),
    ])
    def test_result_read_from_history(self, cfg, reason):
        result = run_experiment(cfg)
        history = result.history
        assert history.termination_reason == reason
        assert (history.error is None) == (reason == "residual_met")
        assert not hasattr(result, "error") and not hasattr(result, "termination_reason")
        xs = build_from_config(cfg).problem.known_solution
        if xs is None:
            assert np.isnan(result.final_error)
        else:
            assert result.final_error == float(np.max(np.abs(history.final - xs)))


# starts at the solution, so the run stops before its first step with f = 0
ZERO_STEP_CONFIG = {
    "problem": {"example": "s4"},
    "schedule": {"preset": "cq"},
    "start": {"x1": [0.0625, 0.125, 0.25, 0.5, 1.0]},
}


class TestExperimentAndCsv:
    def test_row_count_is_steps_plus_one(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        result = run_experiment(cfg, out_dir=tmp_path)
        text = result.csv_path.read_text().strip().splitlines()
        assert len(text) == result.history.steps + 2  # header line
        assert text[0].startswith("n,x1,x2,x3,x4,x5,f,grad_norm,theta_n,tau_n,res_C,res_Q,res_fix,err_to_solution")

    def test_zero_iteration_run_has_one_row(self, tmp_path):
        result = run_experiment(ZERO_STEP_CONFIG, out_dir=tmp_path)
        assert result.history.termination_reason == "residual_met"
        assert len(result.csv_path.read_text().splitlines()) == 2  # header line

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        r1 = run_experiment(cfg, out_dir=tmp_path)
        first = r1.csv_path.read_bytes()
        r2 = run_experiment(cfg, out_dir=tmp_path)
        assert r2.csv_path.read_bytes() == first

    def test_csv_round_trip(self, tmp_path):
        several_blocks = {"problem": {"example": "s4"}, "schedule": {"preset": "paper-s4"},
                          "stepper": {"max_iter": 300}}
        for cfg in (parse_config(BASE_CONFIG), several_blocks):
            result = run_experiment(cfg, out_dir=tmp_path)
            iterates = read_csv_iterates(result.csv_path)
            assert type(iterates) is np.ndarray and iterates.dtype == np.float64
            assert iterates.shape == result.history.iterates.shape
            # 17 significant digits give back every float, bit for bit
            assert iterates.tobytes() == result.history.iterates.tobytes()
        header_only = tmp_path / "header.csv"
        header_only.write_text("n,x1,x2,x3,f,grad_norm\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_csv_iterates(header_only).shape == (0, 3)

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
        assert result.history.termination_reason == "divergence"
        assert len(result.csv_path.read_text().splitlines()) == result.history.steps + 2  # header line

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
        emit_convergence_svg(result.csv_path, svg_path)
        text = svg_path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match=f"^empty CSV file {re.escape(repr(str(empty)))}: no header row$"):
            emit_convergence_svg(empty, svg_path)
        header_only = tmp_path / "header-only.csv"
        header_only.write_text("n,x1,f\n")
        with pytest.raises(ValueError, match=f"^empty CSV file {re.escape(repr(str(header_only)))}: no data row$"):
            emit_convergence_svg(header_only, svg_path)
        assert svg_path.read_text() == text  # the curve written before is left as it was

    @pytest.mark.parametrize("cfg, steps, sha256", [
        (parse_config(BASE_CONFIG), 31, "8e5faa83fb9c9d0d293a95ef187c29ebb57217e4d6bf9d7c9aeb76aa258262af"),
        (DIVERGE_CONFIG, 27, "6f0614db8cc43718fc3aa10443d2058c8bf61eb32572725a331e18e48838600d"),
        (ZERO_STEP_CONFIG, 0, "0b6275e8a414bd41ee53a92d8feedb30bba7dbd694adc05db2e6f8719f000dcd"),
    ], ids=["residual-met", "divergence", "zero-step"])
    def test_convergence_svg_bytes(self, tmp_path, cfg, steps, sha256):
        from sfp.bench import emit_convergence_svg

        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.history.steps == steps
        svg_path = tmp_path / "curve.svg"
        emit_convergence_svg(result.csv_path, svg_path)
        assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == sha256

    def test_no_rows_without_an_output_directory(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("rows computed without a CSV to write")

        monkeypatch.setattr(bench, "_history_rows", no_rows)
        result = run_experiment(parse_config(BASE_CONFIG))
        assert result.csv_path is None and result.history.termination_reason == "residual_met"


def _csv_header(dim):
    return (["n"] + [f"x{i + 1}" for i in range(dim)]
            + ["f", "grad_norm", "theta_n", "tau_n", "res_C", "res_Q", "res_fix", "err_to_solution"])


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


_SET_STANZAS = {
    "box": {"kind": "box", "lower": [-0.5, -0.4, -0.3], "upper": [0.5, 0.2, 0.3]},
    "ball": {"kind": "ball", "center": [2.0, -1.0, 0.5], "radius": 0.5},
    "halfspace": {"kind": "halfspace", "normal": [1.0, -1.0, 0.5], "offset": -0.2},
    "hyperplane": {"kind": "hyperplane", "normal": [1.0, 2.0, -1.0], "offset": 0.3},
    "singleton": {"kind": "singleton", "point": [1.0, -2.0, 0.5]},
    "affine_nullspace": {"kind": "affine_nullspace", "matrix": [[1.0, -1.0, 0.0]]},
    "whole_space": {"kind": "whole_space", "dim": 3},
}


def _set_kind_config(c_stanza, q_stanza, preset, **problem):
    """A 3-variable explicit problem, run for more steps than two blocks hold (341 steps each)."""
    return {"problem": {"A": [[1.0, 0.5, 0.0], [0.0, 1.0, -0.5], [0.5, 0.0, 1.0]],
                        "C": c_stanza, "Q": q_stanza, **problem},
            "schedule": {"preset": preset}, "stepper": {"max_iter": 700}, "start": {"x1": [3.0, -3.0, 1.0]}}


_BOX_WITH_S = {"random": {"dim1": 8, "dim2": 6, "family": "box", "seed": 3, "include_fixed_point_map": True}}
_ROW_CASES = {
    # two blocks and a part of one where the run does not converge
    **{f"s4-{preset}": {"problem": {"example": "s4"}, "schedule": {"preset": preset},
                        "stepper": {"max_iter": 450}}
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
    **{f"C-{kind}": _set_kind_config(stanza, _SET_STANZAS["ball"], "table-1")
       for kind, stanza in _SET_STANZAS.items()},
    **{f"Q-{kind}": _set_kind_config(_SET_STANZAS["box"], stanza, "paper-s4")
       for kind, stanza in _SET_STANZAS.items()},
    **{f"S-{name}": _set_kind_config(_SET_STANZAS["box"], _SET_STANZAS["ball"], "fast", S=name)
       for name in ("identity", "zero", "linear:[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]")},
    # the jump map is defined on [0, 1] only, where C keeps every iterate; x1 = 1 is its jump
    "S-example-2.2": {"problem": {"A": [[1.0]], "C": {"kind": "box", "lower": [0.0], "upper": [1.0]},
                                  "Q": {"kind": "singleton", "point": [0.875]}, "S": "example-2.2"},
                      "schedule": {"preset": "cq", "lambda": 0.25}, "start": {"x1": [1.0]}},
    "schedule-violation": SHORT_SCHEDULE_CONFIG,
    # 204 steps to a block at dimension 5: four blocks and a part of one
    "s4-paper-s4-blocks": {"problem": {"example": "s4"}, "schedule": {"preset": "paper-s4"},
                           "stepper": {"max_iter": 900}},
    # 16 steps to a block at dimension 600: two blocks and a part of one,
    # with theta_n > 0 and with theta_n = 0
    "wide-blocks": {"problem": {"random": {"dim1": 600, "dim2": 12, "family": "ball", "seed": 5,
                                           "include_fixed_point_map": True}},
                    "schedule": {"preset": "paper-s4"}, "stepper": {"max_iter": 40}},
    "wide-blocks-cq": {"problem": {"random": {"dim1": 600, "dim2": 300, "family": "box", "seed": 5,
                                              "include_fixed_point_map": True}},
                       "schedule": {"preset": "cq"}, "stepper": {"max_iter": 40}},
    # a row of more than 2**17 values is a block of its own
    "one-row-blocks": {"problem": {"random": {"dim1": 2**17, "dim2": 2, "family": "ball", "seed": 5,
                                              "include_fixed_point_map": True}},
                       "schedule": {"preset": "fast"}, "stepper": {"max_iter": 3}},
}


class TestRowsFromRecords:
    @pytest.mark.parametrize("cfg", _ROW_CASES.values(), ids=_ROW_CASES.keys())
    def test_rows_equal_fresh_evaluation(self, cfg, tmp_path):
        built = build_from_config(cfg)
        result = run_experiment(cfg, out_dir=tmp_path)
        reference = _reference_rows(built.problem, built.schedule, result.history)
        assert result.csv_path.read_bytes() == _joined_csv(_csv_header(built.problem.dim), reference)

    def test_cases_reach_the_reuse_branches(self):
        histories = {name: run_experiment(cfg).history for name, cfg in _ROW_CASES.items()}
        thetas = {name: {r.theta == 0.0 for r in history.records} for name, history in histories.items()}
        assert thetas["s4-cq"] == thetas["box-table-1"] == thetas["C-ball"] == thetas["wide-blocks-cq"] == {True}
        assert thetas["s4-paper-s4"] == thetas["box-fast"] == thetas["Q-ball"] == thetas["S-zero"] == {False}
        assert thetas["wide-blocks"] == {False}
        f_first = {name: histories[name].records[0].f_u for name in ("subnormal", "halved-to-zero", "halved-to-min")}
        assert 0.0 < f_first["subnormal"] < sys.float_info.min
        assert f_first["halved-to-zero"] == 0.0
        assert f_first["halved-to-min"] == sys.float_info.min

    def test_cases_span_blocks(self):
        assert run_experiment(_ROW_CASES["s4-paper-s4-blocks"]).history.steps + 1 > 4 * block_rows(5) == 816
        assert run_experiment(_ROW_CASES["C-box"]).history.steps + 1 > 2 * block_rows(3) == 682
        for name in ("wide-blocks", "wide-blocks-cq"):
            assert run_experiment(_ROW_CASES[name]).history.steps + 1 > 2 * block_rows(600) == 32
        assert block_rows(2**17) == 1
        assert run_experiment(_ROW_CASES["schedule-violation"]).history.termination_reason == "schedule_violation"

    # theta_n > 0 and theta_n = 0, at dimension 5 and 600
    BLOCK_CASES = ["s4-paper-s4-blocks", "s4-table-1", "wide-blocks", "wide-blocks-cq"]

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_writing_the_csv_leaves_the_history_as_it_was(self, name, tmp_path):
        built = build_from_config(_ROW_CASES[name])
        plain = run(built.problem, built.schedule, built.stepper, built.x0, built.x1)
        written = run_experiment(_ROW_CASES[name], out_dir=tmp_path).history
        assert written.iterates.tobytes() == plain.iterates.tobytes()
        assert written.records.tobytes() == plain.records.tobytes()

    @pytest.mark.parametrize("to_a_block_end", [False, True], ids=["as-is", "ends-at-a-block"])
    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_the_rows_do_not_depend_on_how_the_blocks_fall(self, name, to_a_block_end):
        cfg = _ROW_CASES[name]
        built = build_from_config(cfg)
        if to_a_block_end:  # epsilon ends with the second block, so the run stops at the third's first step
            epsilon = built.schedule.epsilon.block(1, 2 * block_rows(built.problem.dim) + 1)
            cfg = {**cfg, "schedule": {**cfg["schedule"], "epsilon": epsilon}, "stepper": {"max_iter": 10**4}}
            built = build_from_config(cfg)
        handed = []
        history = run(built.problem, built.schedule, built.stepper, built.x0, built.x1,
                      on_block=lambda iterates, records: handed.append((iterates.copy(), records.copy())))
        assert len(handed) > 1
        if to_a_block_end:  # the third block, which finds no epsilon, is not handed on
            size = block_rows(built.problem.dim)
            assert history.termination_reason == "schedule_violation"
            assert [len(records) for _, records in handed] == [size, size]
        x, records = history.iterates[1:], history.records
        streams = {"whole": [(x.copy(), records.copy())], "handed": handed,
                   "one-row": [(x[i:i + 1].copy(), records[i:i + 1].copy()) for i in range(history.steps)]}
        rows = {how: [[float(v).hex() for v in row] for row in list(bench._history_rows(
                    built.problem, built.schedule, history.iterates[0], stream))[1:]]
                for how, stream in streams.items()}
        assert len(rows["whole"]) == history.steps + 1
        assert rows["handed"] == rows["whole"] and rows["one-row"] == rows["whole"]


def _joined_csv(header, rows) -> bytes:
    """The CSV as one string: ints with str, every other value with format(v, ".17g")."""
    lines = [",".join(header)]
    for row in rows:
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
        path = tmp_path / "rows.csv"
        emit_csv(iter([header, *rows]), path)
        assert path.read_bytes() == _joined_csv(header, rows)
        assert b",nan\n" in path.read_bytes() and b",-0," in path.read_bytes()

    def test_experiment_csv_equals_joined_format(self, tmp_path):
        cfg = _ROW_CASES["box-paper-s4"]
        built = build_from_config(cfg)
        result = run_experiment(cfg, out_dir=tmp_path)
        history = result.history
        header, *rows = bench._history_rows(built.problem, built.schedule, history.iterates[0],
                                            [(history.iterates[1:], history.records)])
        assert header == _csv_header(built.problem.dim)
        assert result.csv_path.read_bytes() == _joined_csv(header, rows)


class TestTable1Comparison:
    def test_self_comparison_is_exact(self):
        iterates = [np.zeros(5)] * 34
        iterates[0] = np.ones(5)
        for n, row in TABLE1_ROWS.items():
            iterates[n] = np.array([float(s) for s in row])
        report = compare_to_table1(iterates)
        assert report.all_matched
        assert report.deviations[0] == 0.0
        assert all(dev == 0.0 for dev in report.deviations.values())

    def test_requires_unit_start(self):
        with pytest.raises(ValueError, match="starts at"):
            compare_to_table1([np.zeros(5)])

    def test_requires_dimension_five(self):
        with pytest.raises(DimensionMismatch, match=re.escape(
                "trajectory must be a point of dimension 5 or a (k, 5) stack, got shape (1, 4)")):
            compare_to_table1([np.ones(4)])
        with pytest.raises(DimensionMismatch, match=re.escape(
                "trajectory must be a (k, 5) stack of iterates, got shape (5,)")):
            compare_to_table1(np.ones(5))

    @pytest.mark.parametrize("iterates, error, message", [
        ([], ValueError, "empty trajectory"),
        (np.empty((0, 5)), ValueError, "empty trajectory"),
        ([[True] * 5, [1.0] * 5], ValueError, "trajectory entries must be numbers, got True"),
        ([[1.0] * 5, 1.0], ValueError, "trajectory is a ragged list, not a point or stack of points"),
        ([np.ones(5), np.ones(4)], ValueError, "trajectory is a ragged list, not a point or stack of points"),
        (np.ones((2, 1, 5)), DimensionMismatch,
         "trajectory must be a point of dimension 5 or a (k, 5) stack, got shape (2, 1, 5)"),
        (np.float64(1), DimensionMismatch, "trajectory must be a point of dimension 5 or a (k, 5) stack, got shape ()"),
        (1.0, DimensionMismatch, "trajectory must be a point of dimension 5 or a (k, 5) stack, got shape ()"),
        (np.array(1.0), DimensionMismatch, "trajectory must be a point of dimension 5 or a (k, 5) stack, got shape ()"),
    ], ids=["empty-list", "empty-array", "bool-start", "ragged", "later-row-of-width-4", "3-D", "float64-scalar",
            "number", "0-D"])
    def test_a_trajectory_is_read_as_points_are(self, iterates, error, message):
        with pytest.raises(ValueError) as raised:
            compare_to_table1(iterates)
        assert type(raised.value) is error and str(raised.value) == message

    def test_short_trajectories_report_available_rows(self):
        report = compare_to_table1([np.ones(5)])
        assert set(report.deviations) == {0}
        assert report.rows_available == 1

    def test_mode_sweep_reports(self, table1_run):
        reports = table1_run.reports
        assert set(reports) == {"proof", "statement", "explore"}
        for mode, report in reports.items():
            assert report.deviations[0] == 0.0, mode
            assert set(report.deviations) == set(TABLE1_ROWS)
            # none of the documented compositions regenerates the printed rows
            assert not report.all_matched, mode

    @pytest.mark.parametrize("lam, matched", [(0.7, True), (0.69, False), (0.71, False)])
    def test_rows_are_the_picard_iteration_of_the_averaged_map(self, s4, lam, matched):
        # x_{n+1} = (1 - lam) x_n + lam S x_n from the all-ones start; only lam = 0.7 prints the table
        t_fn = average(s4.S, lam).fn
        iterates = [np.ones(5)]
        for _ in range(max(TABLE1_ROWS)):
            iterates.append(t_fn(iterates[-1]))
        assert compare_to_table1(iterates).all_matched is matched

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


def _reference_characterization(cset, x, samples, seed):
    """check_projection_characterization's maximum, one member at a time."""
    z = cset.project(x)
    rng = np.random.default_rng(seed)
    scale = 1.0 + norm(x)
    worst = -np.inf
    for _ in range(samples):
        y = cset.project(rng.standard_normal(cset.dim) * scale)
        worst = max(worst, float(np.dot(x - z, y - z)))
    return worst


def _reference_projection_suite(samples, seed):
    """projection_property_suite's four maxima per set, one pair at a time."""
    out = []
    for cset in representative_sets():
        rng = np.random.default_rng(seed)
        idem = nonexp = firm = -np.inf
        for _ in range(samples):
            x = 3.0 * rng.standard_normal(cset.dim)
            y = 3.0 * rng.standard_normal(cset.dim)
            px, py = cset.project(x), cset.project(y)
            idem = max(idem, norm(cset.project(px) - px))
            dproj = norm(px - py)
            nonexp = max(nonexp, dproj - norm(x - y))
            firm = max(firm, dproj**2 - float(np.dot(x - y, px - py)))
        x = 3.0 * np.random.default_rng(seed + 1).standard_normal(cset.dim)
        out += [idem, nonexp, firm, _reference_characterization(cset, x, samples, seed + 2)]
    return out


def _reference_gradient_suite(points, instances, seed):
    """gradient_property_suite's two maxima per instance, one point (and one
    coordinate) at a time."""
    out = []
    families = ["box", "ball", "halfspace"]
    for i in range(instances):
        problem = generate_random_sfp(4 + i % 3, 3 + i % 4, families[i % 3], seed=seed + 100 + i)
        rng = np.random.default_rng(seed + i)
        worst_rel = -np.inf
        for _ in range(points):
            x = 2.0 * rng.standard_normal(problem.dim)
            g = problem.grad_f(x)
            h = 1e-6 * (1.0 + norm(x))
            fd = np.empty_like(x)
            for j in range(x.size):
                e = np.zeros_like(x)
                e[j] = h
                fd[j] = (problem.f_value(x + e) - problem.f_value(x - e)) / (2.0 * h)
            worst_rel = max(worst_rel, norm(fd - g) / (1.0 + norm(g)))
        lip = problem.A.operator_norm() ** 2 + 1e-8
        worst_gap = -np.inf
        for _ in range(200):
            x = 2.0 * rng.standard_normal(problem.dim)
            y = 2.0 * rng.standard_normal(problem.dim)
            worst_gap = max(worst_gap, norm(problem.grad_f(x) - problem.grad_f(y)) - lip * norm(x - y))
        out += [worst_rel, worst_gap]
    return out


def _hex(values):
    return [float(v).hex() for v in values]


class TestPropertySuites:
    def test_small_run_passes(self):
        ok, text = run_property_suites(samples=150, seed=5)
        assert ok, text
        assert "PASS" in text

    # the suites evaluate their samples as stacks; every maximum must carry
    # the bits of the one-point-at-a-time loops above

    @pytest.mark.parametrize("seed", [0, 5])
    def test_projection_suite_is_the_per_pair_loop(self, seed):
        results = projection_property_suite(samples=400, seed=seed)
        assert _hex(r.max_violation for r in results) == _hex(_reference_projection_suite(400, seed))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gradient_suite_is_the_per_point_loop(self, seed):
        results = gradient_property_suite(points=100, instances=5, seed=seed)
        assert _hex(r.max_violation for r in results) == _hex(_reference_gradient_suite(100, 5, seed))

    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("dim", [3, 6])
    def test_characterization_is_the_per_member_loop(self, dim, seed):
        for cset in representative_sets(dim):
            x = 3.0 * np.random.default_rng(seed + 40).standard_normal(cset.dim)
            violation = check_projection_characterization(cset, x, samples=300, seed=seed)
            assert _hex([violation]) == _hex([_reference_characterization(cset, x, 300, seed)])


@pytest.mark.slow
def test_reference_preset_converges_end_to_end(s4, x_star):
    # the damping toward the null map's fixed point decays like 1/n, so the
    # documented reference schedule needs several hundred thousand steps to
    # reach 1e-6; driven through run's step loop one block of steps at a time,
    # keeping no history, so memory stays flat
    schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
    config = StepperConfig(mode=mode, max_iter=700_000)
    start = np.ones(5)
    steps, reached = 0, None
    for iterates, _, reason, _ in solver._blocks(s4, schedule, config, start, start):
        hits = np.flatnonzero(np.max(np.abs(iterates - x_star), axis=1) <= 1e-6)
        if hits.size:
            reached = steps + int(hits[0]) + 1
            break
        steps += len(iterates)
    assert reached is not None, f"no convergence to 1e-6 within 700k steps (run ended with {reason})"
