"""Every entry point that takes a lattice site, kernel offset, frequency,
scan center, source or (N, count) pair reads it by the one integer rule of
``qpdyn.lattice``: a non-integral coordinate raises ValueError instead of
being truncated, and a NumPy integer passes."""

import math

import numpy as np
import pytest

from oracles import combes_thomas_probe
from qpdyn.dynamics import amplitude_table_direct, amplitude_table_parseval
from qpdyn.greens import (
    ClassificationParams,
    bad_set,
    fit_sublinear_exponent,
    greens,
    scan_boxes,
)
from qpdyn.lattice import (
    ElementaryRegion,
    GeneralizedRegion,
    site,
    sup_norm,
    sup_norms,
)
from qpdyn.operators import (
    KernelSpec,
    PotentialSpec,
    StateVector,
    almost_mathieu,
    site_list,
)

AMO = almost_mathieu(3.0, (math.sqrt(5.0) - 1.0) / 2.0, 0.3)
PARAMS = ClassificationParams()
BOX = ElementaryRegion((0,), 4)
RESOLVENT = greens(AMO, BOX, 9.0)
TABLE = amplitude_table_direct(AMO, StateVector.delta((0,)), 5.0, 4)

# each call takes one coordinate c; at c = 1 every one of them is valid
ENTRY_POINTS = {
    "site": lambda c: site((0, c)),
    "sup_norm": lambda c: sup_norm((0, c)),
    "sup_norms": lambda c: sup_norms(np.array([[0, c]])),
    "ElementaryRegion.contains": lambda c: ElementaryRegion((0,), 1).contains((c,)),
    "GeneralizedRegion.contains":
        lambda c: GeneralizedRegion((0,), (1,)).contains((c,)),
    "KernelSpec-offsets": lambda c: KernelSpec(1, (((c,), 1.0), ((-c,), 1.0))),
    "PotentialSpec-frequencies": lambda c: PotentialSpec(1, cosine=(((c,), 1.0),)),
    "site_list": lambda c: site_list([(c,), (0,)]),
    "StateVector-keys": lambda c: StateVector({(c,): 1.0}),
    "bad_set-centers":
        lambda c: bad_set(AMO, 10, 2, 1e-3j, PARAMS, centers=[(0,), (c,)]),
    # the control: translating a shape to a center already read it
    "scan_boxes-centers":
        lambda c: scan_boxes(AMO, 10, 2, 1e-3j, PARAMS, centers=[(0,), (c,)]),
    "combes_thomas_probe-source":
        lambda c: combes_thomas_probe(AMO, 10, 9.0, source=(c,)),
    "amplitude_table_parseval-source":
        lambda c: amplitude_table_parseval(AMO, (c,), 5.0, 8),
    "GreensMatrix.entry": lambda c: RESOLVENT.entry((c,), (0,)),
    "AmplitudeTable.value_at": lambda c: TABLE.value_at((c,)),
    "fit_sublinear_exponent-N":
        lambda c: fit_sublinear_exponent([(9 + c, 2), (20, 3), (40, 5)]),
    "fit_sublinear_exponent-count":
        lambda c: fit_sublinear_exponent([(10, 1 + c), (20, 3), (40, 5)]),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_a_non_integral_coordinate_raises(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call(1.5)


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_a_numpy_integer_passes(call):
    call(np.int64(1))
