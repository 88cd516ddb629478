import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distnav.dataset import (
    PartialRun,
    TrajectoryDataset,
    arc_length,
    extract_partials,
    load_dataset,
)
from distnav.errors import ConfigError

from helpers import walk_at_bound


def write_dataset(tmp_path, lines, name="ds.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def straight_walker(ped_id, n_frames, step=0.52, y=0.0, start_frame=0):
    return [
        f"{start_frame + k} {ped_id} {k * step:.6f} {y}" for k in range(n_frames)
    ]


class TestLoadDataset:
    def test_whitespace_and_comma_formats(self, tmp_path):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0", "1,1,0.5,0.0", "2\t1\t1.0\t0.0"])
        ds = load_dataset(path)
        assert ds.pedestrians() == [1]
        frames, xy = ds.tracks[1]
        assert list(frames) == [0, 1, 2]
        assert xy[1][0] == 0.5

    def test_bad_record_reports_line_number(self, tmp_path):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0", "not a record"])
        with pytest.raises(ConfigError, match=":2"):
            load_dataset(path)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = write_dataset(tmp_path, ["0 1 0.0"])
        with pytest.raises(ConfigError, match=":1"):
            load_dataset(path)

    def test_empty_dataset_rejected(self, tmp_path):
        path = write_dataset(tmp_path, ["# only a comment"])
        with pytest.raises(ConfigError):
            load_dataset(path)

    def test_duplicate_frames_rejected(self, tmp_path):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0", "0 1 1.0 0.0"])
        with pytest.raises(ConfigError, match="duplicate"):
            load_dataset(path)

    def test_negative_pedestrian_id_names_file_and_id(self, tmp_path):
        # -1 is the robot's id in a replay
        lines = straight_walker(-1, 25) + straight_walker(2, 25, y=3.0)
        path = write_dataset(tmp_path, lines, name="two_walkers.txt")
        with pytest.raises(ConfigError, match=r"two_walkers\.txt:1: pedestrian id -1 "):
            load_dataset(path)

    def test_sidecar_frame_period(self, tmp_path):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0", "1 1 0.5 0.0"])
        (tmp_path / "ds.txt.meta.yaml").write_text("frame_period_s: 0.25\n")
        assert load_dataset(path).frame_period == 0.25

    def test_default_frame_period(self, tmp_path):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0"])
        assert load_dataset(path).frame_period == 0.4

    def test_explicit_period_overrides_sidecar(self, tmp_path):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0"])
        (tmp_path / "ds.txt.meta.yaml").write_text("frame_period_s: 0.25\n")
        assert load_dataset(path, frame_period=1.0).frame_period == 1.0


    def test_missing_file_and_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"nope\.txt: No such file"):
            load_dataset(tmp_path / "nope.txt")
        with pytest.raises(ConfigError, match="Is a directory"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("period", [0.0, -0.4, math.nan, math.inf])
    def test_bad_explicit_frame_period_rejected(self, tmp_path, period):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0"])
        with pytest.raises(ConfigError, match="frame period must be positive and finite"):
            load_dataset(path, frame_period=period)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("frame_period_s: 0\n", "frame period must be positive"),
            ("frame_period_s: -0.4\n", "frame period must be positive"),
            ("frame_period_s: .nan\n", "frame period must be positive"),
            ("frame_period_s: fast\n", "frame_period_s must be a number, got 'fast'"),
            ("- 0.4\n", "top level must be a mapping"),
            ("frame_period_s: [\n", "cannot parse"),
        ],
    )
    def test_bad_sidecar_rejected(self, tmp_path, text, message):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0"])
        (tmp_path / "ds.txt.meta.yaml").write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_dataset(path)


# an id as a dataset may write it: an integer, or a float such as 780.0 when exact
def written_ids(lo):
    ints = st.integers(lo, 2**63 - 1)
    exact = st.integers(max(lo, -(2**53)), 2**53).map(lambda v: (v, repr(float(v))))
    return st.one_of(ints.map(lambda v: (v, str(v))), exact)


# ids that are no finite whole number below 2^63 in magnitude, and non-numbers
BAD_IDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).filter(lambda v: not float(v).is_integer()).map(repr),
    st.floats(min_value=2.0**63).map(repr),
    st.integers(2**63, 2**80).flatmap(lambda v: st.sampled_from([str(v), str(-v)])),
    st.sampled_from(["inf", "-inf", "nan", "1e20", "1.5", "1e-400", "0x10", "1/2", "one"]),
)


@pytest.fixture(scope="module")
def id_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ids")


class TestRecordIds:
    def test_eth_style_float_ids_load(self, tmp_path):
        lines = ["780.0 1.0 8.46 3.59", "790.0 1.0 9.57 3.79", "790.0 2.0 1.5 2.0"]
        ds = load_dataset(write_dataset(tmp_path, lines))
        assert ds.pedestrians() == [1, 2]
        assert list(ds.tracks[1][0]) == [780, 790]
        assert ds.present_at(790) == [1, 2]

    @pytest.mark.parametrize(
        "record, message",
        [
            ("inf 2 0.0 0.0", "frame id inf"),
            ("1e20 2 0.0 0.0", "frame id 1e20"),
            ("1.5 2 0.0 0.0", "frame id 1.5"),  # once read as frame 1
            ("1 1.7 0.5 0.0", "pedestrian id 1.7"),  # once read as pedestrian 1
        ],
    )
    def test_an_id_that_is_not_whole_names_file_and_line(self, tmp_path, record, message):
        path = write_dataset(tmp_path, ["0 1 0.0 0.0", record])
        with pytest.raises(ConfigError, match=rf"ds\.txt:2: {message} is not a whole number"):
            load_dataset(path)

    def test_frames_at_both_ends_of_the_range_are_one_track(self, tmp_path):
        lines = [f"{-(2**63) + 1} 4 0.0 0.0", f"{2**63 - 1} 4 1.0 0.0"]
        frames, _ = load_dataset(write_dataset(tmp_path, lines)).tracks[4]
        assert frames.tolist() == [-(2**63) + 1, 2**63 - 1]

    @settings(max_examples=80, deadline=None)
    @given(frame=written_ids(-(2**63) + 1), ped=written_ids(0))
    def test_valid_ids_load_as_written(self, id_dir, frame, ped):
        path = id_dir / "valid.txt"
        path.write_text(f"{frame[1]} {ped[1]} 0.5 -1.0\n")
        ds = load_dataset(path)
        assert ds.pedestrians() == [ped[0]]
        assert ds.tracks[ped[0]][0].tolist() == [frame[0]]

    @settings(max_examples=80, deadline=None)
    @given(
        frames=st.lists(
            st.one_of(
                st.integers(-(2**63) + 1, -(2**63) + 2**20),
                st.integers(2**63 - 2**20, 2**63 - 1),
                st.integers(-(2**63) + 1, 2**63 - 1),
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    @example(frames=[-(2**63) + 1, 2**63 - 1])  # int64 steps once gave stride 2
    @example(frames=[-(2**63) + 1, 1, 2**63 - 1])
    def test_frame_stride_is_the_exact_gcd_of_the_steps(self, id_dir, frames):
        path = id_dir / "stride.txt"
        path.write_text("".join(f"{frame} {k} 0.0 0.0\n" for k, frame in enumerate(frames)))
        first, *rest = sorted(frames)
        assert load_dataset(path).frame_stride == (math.gcd(*(f - first for f in rest)) if rest else 1)

    @settings(max_examples=80, deadline=None)
    @given(bad=BAD_IDS, good=written_ids(0), frame_is_bad=st.booleans())
    def test_any_other_id_raises_config_error(self, id_dir, bad, good, frame_is_bad):
        path = id_dir / "invalid.txt"
        fields = (bad, good[1]) if frame_is_bad else (good[1], bad)
        path.write_text(f"0 0 0.0 0.0\n{fields[0]} {fields[1]} 0.5 -1.0\n")
        with pytest.raises(ConfigError, match=r"invalid\.txt:2: "):
            load_dataset(path)


class TestFrameIndex:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_peds=st.integers(1, 8),
        stride=st.sampled_from([1, 2, 10]),
        offset=st.integers(0, 9),
    )
    def test_matches_a_scan_of_every_track(self, seed, n_peds, stride, offset):
        rng = np.random.default_rng(seed)
        tracks = {}
        for ped in rng.choice(100, n_peds, replace=False):
            steps = np.unique(rng.integers(0, 30, rng.integers(1, 12)))
            frames = offset + stride * steps
            tracks[int(ped)] = (frames, rng.normal(size=(frames.size, 2)))
        ds = TrajectoryDataset(0.4, tracks)
        ids = np.unique(np.concatenate([f for f, _ in tracks.values()]))
        assert ds.frame_stride == (math.gcd(*np.diff(ids).tolist()) if ids.size > 1 else 1)
        assert ids.size == 1 or ds.frame_stride % stride == 0
        for frame in range(int(ids[0]) - 1, int(ids[-1]) + 2):
            scan = [p for p in ds.pedestrians() if ds.position_at(p, frame) is not None]
            assert ds.present_at(frame) == scan

    def test_stride_of_a_loaded_file(self, tmp_path):
        lines = [f"{10 * k} {ped} {0.52 * k} {y}" for k in range(5) for ped, y in ((1, 0.0), (2, 3.0))]
        ds = load_dataset(write_dataset(tmp_path, lines))
        assert ds.frame_stride == 10
        assert ds.present_at(20) == [1, 2]
        assert ds.present_at(25) == []


class TestArcLength:
    def test_single_point_is_zero(self):
        assert arc_length(np.array([[1.0, 2.0]])) == 0.0

    def test_open_unit_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert arc_length(pts) == pytest.approx(3.0)
        closed = np.vstack([pts, pts[:1]])
        assert arc_length(closed) == pytest.approx(4.0)


class TestExtractPartials:
    def test_thirty_meter_walk_gives_three_partials(self, tmp_path):
        path = write_dataset(tmp_path, straight_walker(1, 58))  # 57 * 0.52 = 29.64 m
        partials = extract_partials(load_dataset(path))
        assert len(partials) == 3
        for p in partials:
            assert 8.0 <= p.human_length <= 12.0

    def test_five_meter_walk_gives_none(self, tmp_path):
        path = write_dataset(tmp_path, straight_walker(1, 10))  # 4.7 m
        assert extract_partials(load_dataset(path)) == []

    def test_twelve_meter_walk_gives_one(self, tmp_path):
        path = write_dataset(tmp_path, straight_walker(1, 24))  # 11.96 m
        partials = extract_partials(load_dataset(path))
        assert len(partials) == 1

    def test_partials_are_non_overlapping_and_greedy(self, tmp_path):
        path = write_dataset(tmp_path, straight_walker(1, 58))
        partials = extract_partials(load_dataset(path))
        for a, b in zip(partials, partials[1:]):
            assert a.end_frame == b.start_frame

    def test_arc_consistency_with_path_arc_length(self, tmp_path):
        path = write_dataset(tmp_path, straight_walker(1, 58))
        for p in extract_partials(load_dataset(path)):
            assert p.human_length == arc_length(p.path)

    def test_empty_tracks_rejected(self):
        from distnav.dataset import TrajectoryDataset

        with pytest.raises(ConfigError):
            extract_partials(TrajectoryDataset(0.4, {}))

    def test_teleport_segment_dropped(self, tmp_path):
        # a 13 m jump makes the crossing segment land outside [8, 12]
        lines = ["0 1 0.0 0.0", "1 1 1.0 0.0", "2 1 2.0 0.0", "3 1 15.0 0.0"]
        lines += [f"{4 + k} 1 {15.0 + 0.52 * (k + 1):.4f} 0.0" for k in range(20)]
        path = write_dataset(tmp_path, lines)
        partials = extract_partials(load_dataset(path))
        assert len(partials) == 1  # only the clean post-jump stretch (10.4 m)
        assert partials[0].start_frame == 3

    @pytest.mark.parametrize("bound", [8.0, 12.0])
    def test_a_walk_whose_running_sum_lands_on_a_bound_is_kept_by_arc_length(self, bound):
        # the running sum says 8 or 12 m, arc_length says just outside
        xy = walk_at_bound(bound)
        ds = TrajectoryDataset(0.4, {1: (np.arange(len(xy)), xy)})
        partials = extract_partials(ds)
        assert all(8.0 <= arc_length(p.path) <= 12.0 for p in partials)
        assert partials == []

    def test_partial_run_validates_length(self):
        with pytest.raises(ValueError):
            PartialRun(1, 0, 1, np.array([[0.0, 0.0], [1.0, 0.0]]))
