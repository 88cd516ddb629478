from dataclasses import fields

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from distnav.config import (
    _SCALAR_KEYS,
    _SECTION_TYPES,
    ExperimentConfig,
    default_config_dict,
    dump_default_config,
    load_config,
)
from distnav.errors import ConfigError


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.seed == 0
        assert cfg.samples_per_agent == 100
        assert cfg.collision.sigma == 0.35
        assert cfg.thresholds.collision_dist == 0.21

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 7\ncollision:\n  sigma: 0.5\nscenario:\n  n_pedestrians: 9\n")
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.collision.sigma == 0.5
        assert cfg.scenario.n_pedestrians == 9
        assert cfg.collision.weight == 10.0  # untouched default

    def test_cli_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 7\n")
        cfg = load_config(path, {"seed": 9, "scenario.n_pedestrians": 2})
        assert cfg.seed == 9
        assert cfg.scenario.n_pedestrians == 2

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("plannerr:\n  dt: 0.4\n")
        with pytest.raises(ConfigError, match="plannerr"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelt key, and a key whose field is gone: its configs are refused
        path = tmp_path / "c.yaml"
        for section, key in [("collision", "sgma"), ("planner", "ped_waypoint_noise_var")]:
            path.write_text(f"{section}:\n  {key}: 0.5\n")
            with pytest.raises(ConfigError, match=key):
                load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("collision:\n  sigma: -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"seed": -1})

    def test_m_below_one_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"samples_per_agent": 0})

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.yaml"):
            load_config(tmp_path / "nope.yaml")

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("a: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_section_with_an_override_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("scenario:\n")
        with pytest.raises(ConfigError, match="scenario"):
            load_config(path, {"scenario.n_pedestrians": 2})

    @pytest.mark.parametrize(
        "text", ["samples_per_agent: 2.5\n", "scenario:\n  n_pedestrians: true\n", "seed: 1.0\n"]
    )
    def test_int_fields_refuse_floats_and_bools(self, tmp_path, text):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("planner:\n  obs_noise_var: x\n", "must be a number"),
            ("collision:\n  sigma: true\n", "must be a number"),
            ("out: 5\n", "must be a string"),
            ("out: 1.5\n", "must be a string"),
        ],
    )
    def test_float_and_str_fields_refuse_other_types(self, tmp_path, text, message):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_float_fields_take_ints(self):
        assert load_config(None, {"collision.sigma": 1}).collision.sigma == 1

    @pytest.mark.parametrize(
        "text",
        [
            "evolve1d:\n  means: [x, 0, 1]\n",
            "evolve1d:\n  means: [true, 0, 1]\n",
            "evolve1d:\n  sigmas: abc\n",
            "evolve1d:\n  sigmas: 0.5\n",
        ],
    )
    def test_list_fields_refuse_other_element_types(self, tmp_path, text):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="must be a list, each element a number"):
            load_config(path)

    def test_list_fields_take_ints(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("evolve1d:\n  means: [-1, 0, 1.5]\n")
        assert load_config(path).evolve1d.means == (-1, 0, 1.5)

    def test_dotted_override_into_a_scalar_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(None, {"seed": 3, "seed.x": 1})


_ACCEPTED = {int: (int,), float: (int, float), str: (str,)}


def _typed_fields(cls):
    """(name, accepted value types) of every int, float and str field."""
    return [(f.name, _ACCEPTED[type(f.default)]) for f in fields(cls) if type(f.default) in _ACCEPTED]


def _list_fields(cls):
    """(name, accepted element types) of every tuple field."""
    return [(f.name, _ACCEPTED[type(f.default[0])]) for f in fields(cls)
            if isinstance(f.default, tuple) and f.default]


_FIELD_NAMES = sorted({f.name for cls in _SECTION_TYPES.values() for f in fields(cls)})
_TOP_KEYS = list(_SECTION_TYPES) + list(_SCALAR_KEYS) + ["bogus"]
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**64),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 5), st.floats(-2, 2)), max_size=3),
    # as long as the default evolve1d lists, so that a bad element is the only fault
    st.lists(st.one_of(st.floats(0.1, 2), st.booleans(), st.text(max_size=2), st.none()),
             min_size=3, max_size=3),
)
_sections = st.one_of(
    st.dictionaries(st.one_of(st.sampled_from(_FIELD_NAMES + ["bogus"]), st.integers(0, 2)), _values, max_size=4),
    _values,
)
_dotted = st.builds(
    "{}.{}".format, st.sampled_from(_TOP_KEYS), st.sampled_from(_FIELD_NAMES + ["bogus"])
)
# every field under its own section's name, so that each can draw a string or a float
_own_fields = st.sampled_from(
    sorted(f"{name}.{f.name}" for name, cls in _SECTION_TYPES.items() for f in fields(cls))
    + list(_SCALAR_KEYS)
)
_list_keys = st.sampled_from(
    sorted(f"{name}.{f}" for name, cls in _SECTION_TYPES.items() for f, _ in _list_fields(cls))
)


class TestLoadConfigProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.dictionaries(
            st.one_of(st.sampled_from(_TOP_KEYS), st.integers(0, 2)),
            st.one_of(_sections, _values),
            max_size=4,
        ),
        overrides=st.dictionaries(
            st.one_of(st.sampled_from(_TOP_KEYS), _dotted, _own_fields, _list_keys), _values, max_size=4
        ),
    )
    def test_config_or_config_error(self, tmp_path_factory, data, overrides):
        path = tmp_path_factory.getbasetemp() / "property.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        try:
            cfg = load_config(path, overrides)
        except ConfigError:
            return
        for name, accepted in _typed_fields(ExperimentConfig):
            assert type(getattr(cfg, name)) in accepted
        for name, cls in _SECTION_TYPES.items():
            for field_name, accepted in _typed_fields(cls):
                assert type(getattr(getattr(cfg, name), field_name)) in accepted
            for field_name, accepted in _list_fields(cls):
                value = getattr(getattr(cfg, name), field_name)
                assert type(value) is tuple and all(type(v) in accepted for v in value)


class TestPlannerAssembly:
    def test_shared_sections_flow_into_planner(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            "samples_per_agent: 33\ngp:\n  length_scale: 2.5\ncollision:\n  weight: 4.0\n"
            "solver:\n  max_sweeps: 7\n"
        )
        pc = load_config(path).planner_config()
        assert pc.samples_per_agent == 33
        assert pc.kernel.length_scale == 2.5
        assert pc.collision.weight == 4.0
        assert pc.solver.max_sweeps == 7

    def test_sfm_flows_into_scenario(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("sfm:\n  desired_speed: 1.0\n")
        sc = load_config(path).scenario_config()
        assert sc.sfm.desired_speed == 1.0


class TestDefaultDump:
    def test_solver_schema(self):
        assert default_config_dict()["solver"] == {
            "epsilon": 1e-3,
            "max_sweeps": 30,
            "rtol": 1e-3,
            "critical_threshold": 0.01,
        }
        assert "  rtol: 0.001\n" in dump_default_config()

    def test_top_level_keys_keep_their_order(self):
        assert list(yaml.safe_load(dump_default_config())) == [
            "seed", "samples_per_agent", "out", "gp", "collision", "solver",
            "planner", "sfm", "scenario", "replay", "thresholds", "evolve1d",
        ]

    def test_dump_parses_and_round_trips(self):
        text = dump_default_config()
        data = yaml.safe_load(text)
        assert data == default_config_dict()

    def test_dump_is_loadable_config(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(dump_default_config())
        cfg = load_config(path)
        assert cfg == load_config(None)
