"""JSON encoding of reports."""

from fractions import Fraction

import numpy as np
import pytest

from aifs.linalg_exact import Matrix
from aifs.serialize import to_jsonable


@pytest.mark.parametrize(
    "value", [np.float32(0.5), {Fraction(1)}, Matrix([[Fraction(2)]])]
)
def test_types_reports_do_not_hold_are_refused(value):
    with pytest.raises(TypeError):
        to_jsonable(value)
