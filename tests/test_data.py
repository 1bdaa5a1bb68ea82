import numpy as np
import pytest

from ecrlab.data import Dataset


class TestDatasetOwnership:
    def test_caller_mutation_does_not_reach_dataset(self):
        a = np.array([3.0, 1.0, 2.0])
        d = Dataset(a)
        a[0] = -5.0
        assert d.values.tolist() == [3.0, 1.0, 2.0]
        assert d.sorted_values.tolist() == [1.0, 2.0, 3.0]

    def test_arrays_are_read_only(self):
        d = Dataset(np.array([3.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            d.values[0] = -5.0
        with pytest.raises(ValueError):
            d.sorted_values[0] = -5.0
