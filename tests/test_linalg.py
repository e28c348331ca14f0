import numpy as np
import pytest

import nosreg
from nosreg import modal, regulation
from nosreg.errors import DimensionMismatch
from nosreg.linalg import as_matrix, as_vector


def test_nan_entries_rejected():
    with pytest.raises(DimensionMismatch):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        as_vector([np.inf])


def test_traced_lu_solve_names_are_numpy_solve():
    # the benchmark tracer patches these names; the package defines no solver of its own
    assert modal.lu_solve is np.linalg.solve
    assert regulation.lu_solve is np.linalg.solve
    assert not hasattr(nosreg, "lu_solve")
