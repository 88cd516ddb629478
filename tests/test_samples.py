import numpy as np
import pytest

from distnav.grids import TimeGrid
from distnav.samples import SampleSet

GRID = TimeGrid(0.0, 0.4, 3)


class TestSampleSetChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_trajectories_rejected(self, bad):
        states = np.zeros((4, GRID.steps, 2))
        states[2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet("a", GRID, states, np.ones(4))

    def test_one_dimensional_nan_sample_rejected(self):
        # such a sample once reached the solver and failed there, reported as
        # an underflow of every weight
        grid = TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet(0, grid, np.array([[[0.0]], [[np.nan]]]), np.ones(2))

