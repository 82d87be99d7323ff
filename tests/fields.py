"""Space-time fields ``fn(t, pts) -> (P,)`` shared by the test modules."""

import numpy as np


def const_field(c):
    def fn(t, pts):
        pts = np.atleast_2d(pts)
        return np.full(pts.shape[0], float(c))

    return fn


def zero_field(t, pts):
    pts = np.atleast_2d(pts)
    return np.zeros(pts.shape[0])
