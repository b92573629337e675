import dataclasses
import json
import os

import pytest

from conftest import (
    FIXTURES,
    PROGRESSIVE_CONFIG,
    TOY_BENCH,
    make_problem,
    write_benchmark,
    write_problem,
)
from verimoa.cache import AgentPath
from verimoa.errors import (
    DuplicateProblemIdError,
    InvariantViolationError,
    MalformedIndexError,
    MissingFileError,
    SchemaError,
)
from verimoa.problems import (
    Benchmark,
    RunConfig,
    Sampling,
    config_from_json,
    default_mixture,
    load_benchmark,
    load_config,
    load_problem,
)
from verimoa.scoring import ScoreConstants
from verimoa.simulator import iverilog_config


class TestValidation:
    def test_blank_fields_rejected(self):
        for overrides in (
            {"id": ""}, {"description": ""}, {"testbench_source": ""},
            {"timeout_ms": 0},
        ):
            with pytest.raises(InvariantViolationError):
                make_problem(**overrides)

    def test_benchmark_needs_problems(self):
        with pytest.raises(InvariantViolationError):
            Benchmark(name="x", problems=())

    def test_benchmark_rejects_duplicate_ids(self):
        problems = (make_problem("a"), make_problem("a"))
        with pytest.raises(DuplicateProblemIdError):
            Benchmark(name="x", problems=problems)


class TestLoadProblem:
    def test_happy_path_with_support_files(self, tmp_path):
        meta = {
            "id": "p1", "top_module": "p1", "timeout_ms": 500,
            "pass_marker": "OK", "support_files": ["helper.v"],
        }
        pdir = write_problem(
            tmp_path, "p1", meta, extra_files=[("helper.v", "// helper")]
        )
        problem = load_problem(pdir, "p1")
        assert problem.description == "Build the thing."
        assert problem.pass_marker == "OK"
        assert problem.support_files == {"helper.v": "// helper"}

    def test_unknown_field(self, tmp_path):
        meta = {"id": "p1", "top_module": "p1", "timeout_ms": 500, "notes": "x"}
        pdir = write_problem(tmp_path, "p1", meta)
        with pytest.raises(MalformedIndexError, match="notes"):
            load_problem(pdir, "p1")

    @pytest.mark.parametrize("missing", ["id", "top_module", "timeout_ms"])
    def test_missing_required_field(self, tmp_path, missing):
        meta = {"id": "p1", "top_module": "p1", "timeout_ms": 500}
        del meta[missing]
        pdir = write_problem(tmp_path, "p1", meta)
        with pytest.raises(MalformedIndexError, match=missing):
            load_problem(pdir, "p1")

    def test_id_must_match_index(self, tmp_path):
        meta = {"id": "other", "top_module": "p1", "timeout_ms": 500}
        pdir = write_problem(tmp_path, "p1", meta)
        with pytest.raises(MalformedIndexError, match="other"):
            load_problem(pdir, "p1")

    @pytest.mark.parametrize("timeout", [True, "500", 0, -5, 1.5])
    def test_timeout_must_be_positive_integer(self, tmp_path, timeout):
        meta = {"id": "p1", "top_module": "p1", "timeout_ms": timeout}
        pdir = write_problem(tmp_path, "p1", meta)
        with pytest.raises(MalformedIndexError, match="timeout_ms"):
            load_problem(pdir, "p1")

    def test_empty_pass_marker_rejected(self, tmp_path):
        meta = {"id": "p1", "top_module": "p1", "timeout_ms": 5, "pass_marker": ""}
        pdir = write_problem(tmp_path, "p1", meta)
        with pytest.raises(MalformedIndexError, match="pass_marker"):
            load_problem(pdir, "p1")

    def test_support_files_must_be_names(self, tmp_path):
        meta = {
            "id": "p1", "top_module": "p1", "timeout_ms": 5,
            "support_files": {"helper.v": "inline"},
        }
        pdir = write_problem(tmp_path, "p1", meta)
        with pytest.raises(MalformedIndexError, match="support_files"):
            load_problem(pdir, "p1")

    def test_listed_support_file_must_exist(self, tmp_path):
        meta = {
            "id": "p1", "top_module": "p1", "timeout_ms": 5,
            "support_files": ["ghost.v"],
        }
        pdir = write_problem(tmp_path, "p1", meta)
        with pytest.raises(MissingFileError, match="ghost.v"):
            load_problem(pdir, "p1")

    @pytest.mark.parametrize("name", ["candidate.v", "testbench.v"])
    def test_support_file_may_not_shadow_a_simulator_source(self, tmp_path, name):
        # The simulator writes the candidate and the testbench under these
        # names; a support file of the same name would silently replace one.
        meta = {
            "id": "p1", "top_module": "p1", "timeout_ms": 5,
            "support_files": [name],
        }
        extra = [] if name == "testbench.v" else [(name, "// shadow")]
        pdir = write_problem(tmp_path, "p1", meta, extra_files=extra)
        with pytest.raises(SchemaError, match=name):
            load_problem(pdir, "p1")

    def test_support_files_may_not_share_a_base_name(self):
        with pytest.raises(SchemaError, match="lib.v"):
            make_problem(support_files={"a/lib.v": "// a", "b/lib.v": "// b"})

    def test_missing_spec(self, tmp_path):
        pdir = write_problem(tmp_path, "p1")
        os.remove(os.path.join(pdir, "spec.md"))
        with pytest.raises(MissingFileError, match="p1"):
            load_problem(pdir, "p1")

    def test_missing_testbench(self, tmp_path):
        pdir = write_problem(tmp_path, "p1")
        os.remove(os.path.join(pdir, "testbench.v"))
        with pytest.raises(MissingFileError):
            load_problem(pdir, "p1")

    def test_invalid_json(self, tmp_path):
        pdir = write_problem(tmp_path, "p1")
        with open(os.path.join(pdir, "problem.json"), "w") as fh:
            fh.write("{broken")
        with pytest.raises(MalformedIndexError, match="invalid JSON"):
            load_problem(pdir, "p1")

    def test_non_object_json(self, tmp_path):
        pdir = write_problem(tmp_path, "p1")
        with open(os.path.join(pdir, "problem.json"), "w") as fh:
            fh.write("[1, 2]")
        with pytest.raises(MalformedIndexError, match="object"):
            load_problem(pdir, "p1")


class TestLoadBenchmark:
    def test_bundled_toy_benchmark(self):
        bench = load_benchmark(TOY_BENCH)
        assert bench.name == "toy-bench"
        assert [p.id for p in bench.problems] == [
            "mux2", "and2", "xor2", "dff", "counter4",
        ]
        for problem in bench.problems:
            assert "ALL_TESTS_PASSED" in problem.testbench_source
            assert problem.top_module == problem.id

    def test_missing_index(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_benchmark(str(tmp_path))

    def test_bad_name(self, tmp_path):
        (tmp_path / "benchmark.json").write_text(
            json.dumps({"name": "", "problems": ["a"]}), encoding="utf-8"
        )
        with pytest.raises(MalformedIndexError, match="name"):
            load_benchmark(str(tmp_path))

    def test_empty_problem_list(self, tmp_path):
        (tmp_path / "benchmark.json").write_text(
            json.dumps({"name": "x", "problems": []}), encoding="utf-8"
        )
        with pytest.raises(MalformedIndexError, match="problems"):
            load_benchmark(str(tmp_path))

    def test_duplicate_listing(self, tmp_path):
        write_problem(tmp_path, "a")
        write_benchmark(tmp_path, ["a", "a"])
        with pytest.raises(DuplicateProblemIdError):
            load_benchmark(str(tmp_path))


class TestMixture:
    def test_balanced_thirds(self):
        assert default_mixture(6) == ("Base", "Base", "Cpp", "Cpp", "Py", "Py")

    def test_remainder_goes_to_earlier_paths(self):
        assert default_mixture(7) == ("Base",) * 3 + ("Cpp",) * 2 + ("Py",) * 2
        assert default_mixture(8) == ("Base",) * 3 + ("Cpp",) * 3 + ("Py",) * 2

    def test_tiny_widths(self):
        assert default_mixture(1) == ("Base",)
        assert default_mixture(2) == ("Base", "Cpp")

    @pytest.mark.parametrize("width", range(1, 20))
    def test_counts_within_one(self, width):
        mix = default_mixture(width)
        assert len(mix) == width
        counts = [mix.count(t) for t in ("Base", "Cpp", "Py")]
        assert max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.proposer_layers == 4
        assert config.layer_width == 6
        assert config.trials == 10
        assert config.sampling == Sampling(0.8, 0.95)
        assert config.mixture == default_mixture(6)
        assert not config.enable_sim_refinement

    def test_mixture_length_must_match_width(self):
        with pytest.raises(InvariantViolationError):
            RunConfig(layer_width=3, mixture=("Base",))

    def test_unknown_tag(self):
        with pytest.raises(InvariantViolationError):
            RunConfig(layer_width=1, mixture=("Rust",))

    def test_mixture_paths(self):
        config = RunConfig(layer_width=3, mixture=("Py", "Base", "Cpp"))
        assert config.mixture_paths() == (
            AgentPath.PY, AgentPath.BASE, AgentPath.CPP,
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"proposer_layers": 0},
            {"trials": 0},
            {"top_n_hdl": 0},
            {"top_k_intermediate": 0},
            {"max_sim_refine_rounds": -1},
            {"sampling": {"temperature": -1.0}},
            {"sampling": {"top_p": 0.0}},
        ],
    )
    def test_bounds(self, overrides):
        with pytest.raises(InvariantViolationError):
            # Sampling checks itself, so its cases are built here, not at collection.
            if "sampling" in overrides:
                overrides = {"sampling": Sampling(**overrides["sampling"])}
            RunConfig(**overrides)


@pytest.mark.parametrize(
    "build",
    [
        lambda: dataclasses.replace(RunConfig(), layer_width=0),
        lambda: iverilog_config(compile_cmd="iverilog"),
    ],
    ids=["replaced-run-config", "simulator-factory"],
)
def test_values_built_by_replace_or_a_factory_are_checked(build):
    # A value checks itself when built, whoever builds it.
    with pytest.raises(InvariantViolationError):
        build()


# One wrong-typed value per field of RunConfig, Sampling and ScoreConstants.
WRONG_TYPES = [
    ({"proposer_layers": True}, "config.proposer_layers"),
    ({"layer_width": False}, "config.layer_width"),
    ({"mixture": {"Base": 1}}, "config.mixture"),
    ({"top_n_hdl": True}, "config.top_n_hdl"),
    ({"top_k_intermediate": True}, "config.top_k_intermediate"),
    ({"trials": True}, "config.trials"),
    ({"sampling": ["temperature"]}, "config.sampling"),
    ({"enable_sim_refinement": 1}, "config.enable_sim_refinement"),
    ({"max_sim_refine_rounds": True}, "config.max_sim_refine_rounds"),
    ({"max_stage1_refine_rounds": False}, "config.max_stage1_refine_rounds"),
    ({"score_constants": [1.0]}, "config.score_constants"),
    ({"random_seed": True}, "config.random_seed"),
    ({"sampling": {"temperature": "hot"}}, "config.sampling.temperature"),
    ({"sampling": {"top_p": "0.9"}}, "config.sampling.top_p"),
    *(
        ({"score_constants": {name: "0.5"}}, "config.score_constants." + name)
        for name in (
            "q_perfect", "q_base", "cap_severe", "cap_moderate", "cap_minor",
            "cap_structure", "cap_logic", "cap_format", "fallback_tighten",
        )
    ),
    (
        {"score_constants": {"rule_weights": {"overlong_source": True}}},
        "config.score_constants.rule_weights",
    ),
]


class TestConfigFromJson:
    def test_empty_object_means_defaults(self):
        assert config_from_json({}) == RunConfig()

    def test_round_trip(self):
        config = RunConfig(
            proposer_layers=2,
            layer_width=3,
            mixture=("Base", "Cpp", "Py"),
            trials=2,
            enable_sim_refinement=True,
            max_sim_refine_rounds=2,
            random_seed=9,
        )
        assert config_from_json(config.to_json()) == config

    def test_unknown_field(self):
        with pytest.raises(SchemaError, match="layers"):
            config_from_json({"layers": 4})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            config_from_json({"trials": True})

    def test_refinement_flag_must_be_bool(self):
        with pytest.raises(SchemaError):
            config_from_json({"enable_sim_refinement": 1})

    def test_sampling_unknown_field(self):
        with pytest.raises(SchemaError, match="top_k"):
            config_from_json({"sampling": {"top_k": 40}})

    def test_mixture_strings_only(self):
        with pytest.raises(SchemaError):
            config_from_json({"mixture": ["Base", 3]})

    def test_nested_score_constants_checked(self):
        with pytest.raises(SchemaError):
            config_from_json({"score_constants": {"q_typo": 1.0}})

    def test_validation_applies_after_parse(self):
        with pytest.raises(InvariantViolationError):
            config_from_json({"layer_width": 2, "mixture": ["Base"]})

    @pytest.mark.parametrize("width", [10**400, 1001], ids=["400-digits", "1001"])
    def test_layer_width_beyond_the_cap_is_rejected(self, width):
        # Range-checked before any default mixture is built from it.
        with pytest.raises(InvariantViolationError, match="layer_width must be in 1..1000"):
            config_from_json({"layer_width": width})

    @pytest.mark.parametrize("blob, path", WRONG_TYPES, ids=[p for _, p in WRONG_TYPES])
    def test_wrong_type_names_its_path(self, blob, path):
        with pytest.raises(SchemaError, match="^%s: expected " % path.replace(".", r"\.")):
            config_from_json(blob)

    def test_wrong_type_table_covers_every_field(self):
        names = {"config." + f.name for f in dataclasses.fields(RunConfig)}
        names |= {"config.sampling." + f.name for f in dataclasses.fields(Sampling)}
        names |= {
            "config.score_constants." + f.name
            for f in dataclasses.fields(ScoreConstants)
        }
        assert {path for _, path in WRONG_TYPES} == names

    @pytest.mark.parametrize(
        "text",
        [
            '{"score_constants": {"rule_weights": {"multi_driven_signal": NaN}}}',
            '{"sampling": {"temperature": Infinity}}',
            '{"sampling": {"top_p": -Infinity}}',
            '{"score_constants": {"cap_severe": NaN}}',
            '{"score_constants": {"q_perfect": 1%s}}' % ("0" * 400),
        ],
        ids=["nan-weight", "inf-temperature", "minus-inf-top-p", "nan-cap", "past-float"],
    )
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(SchemaError, match="expected a (map of )?number"):
            config_from_json(json.loads(text))

    def test_full_config_serialises_to_the_golden_bytes(self):
        config = load_config(os.path.join(FIXTURES, "full.config.json"))
        with open(os.path.join(FIXTURES, "full.config.golden.json"), encoding="utf-8") as fh:
            golden = fh.read()
        assert json.dumps(config.to_json(), indent=2, sort_keys=True) + "\n" == golden
        assert config_from_json(config.to_json()) == config


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_config(str(tmp_path / "none.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_config(str(path))

    def test_bundled_fixture_config(self):
        config = load_config(PROGRESSIVE_CONFIG)
        assert config.proposer_layers == 2
        assert config.layer_width == 3
        assert config.trials == 2
        assert config.mixture == ("Base", "Cpp", "Py")
