"""Every background read is guarded: each background has the two public
reads ``fields`` and ``x_fields``, and each raises ValueError at a point
outside the background's domain.  ``operator.covariant_grads``, the one
read of a section, reads the background first, so such a point is refused
before the section is evaluated.
"""

import numpy as np
import pytest

from kwlab import operator as op
from kwlab.backgrounds import (
    ModelBackground, NahmBackground, TorusTrigBackground, TrivialBackground,
)

TORUS_TERMS = [("A", 0, (0, 1, 0), 0.3, (0.0, 0.0, 0.2)),
               ("a", 2, (1, 0, 0), 0.0, (0.0, 0.0, 0.3))]
BACKGROUNDS = {
    "trivial": TrivialBackground(),
    "nahm": NahmBackground(),
    "model": ModelBackground(1),
    "torus": TorusTrigBackground(TORUS_TERMS),
}
# points outside each domain, with the message each raises: a last axis
# other than (t, x1, x2, x3) everywhere, t <= 0 for the pole and the model,
# and the model's axis disk
SHAPE = ([1.0, 0.5, 0.5], "shape")
OUTSIDE = {
    "trivial": [SHAPE],
    "nahm": [SHAPE, ([0.0, 0.5, 0.5, 0.1], "t > 0"), ([[1.0, 0.5, 0.5, 0.1],
                                                      [-1.0, 0.5, 0.5, 0.1]], "t > 0")],
    "model": [SHAPE, ([-1.0, 0.5, 0.5, 0.1], "t > 0"), ([1.0, 0.0, 0.0, 0.1], "axis disk"),
              ([[1.0, 0.5, 0.5, 0.1], [1.0, 1e-9, 0.0, 0.1]], "axis disk")],
    "torus": [SHAPE],
}
CASES = [(name, P, msg) for name, pts in OUTSIDE.items() for P, msg in pts]


def test_two_public_reads():
    for bg in BACKGROUNDS.values():
        public = {k for k in vars(type(bg)) if not k.startswith("_")}
        assert public - {"axis_exclusion"} == {"fields", "x_fields"}, type(bg).__name__


@pytest.mark.parametrize("read", ["fields", "x_fields"])
@pytest.mark.parametrize("name,P,msg", CASES)
def test_every_read_refuses_points_outside(name, P, msg, read):
    with pytest.raises(ValueError, match=msg):
        getattr(BACKGROUNDS[name], read)(np.array(P))


@pytest.mark.parametrize("name,P,msg", CASES)
def test_covariant_grads_refuses_before_the_section(name, P, msg):
    reads = []
    sec = op.FuncSection(lambda Q: reads.append(Q.shape) or np.zeros(Q.shape[:-1] + (8, 3)))
    for h in (1e-5, None):
        with pytest.raises(ValueError, match=msg):
            op.covariant_grads(BACKGROUNDS[name], sec, np.array(P), h)
    assert reads == []
