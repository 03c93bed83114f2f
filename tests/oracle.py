"""The bitwise oracle of the differential suites: Algorithm 2
(:func:`repro.core.fbmpk.fbmpk_reference`) run on an operator's own row
ordering."""

import numpy as np

from repro.core.fbmpk import fbmpk_reference
from repro.reorder.permute import permute_vector, unpermute_vector


def reference_power(op, x, k):
    """``A^k x`` by Algorithm 2's row loops over ``op``'s partition,
    mapped through ``op``'s row permutation (if any)."""
    x = np.asarray(x, dtype=np.float64)
    perm = getattr(op, "perm", None)
    if perm is None:
        return fbmpk_reference(op.part, x, k)
    y = fbmpk_reference(op.part, permute_vector(x, perm), k)
    return unpermute_vector(y, perm)


def reference_block(op, X, k):
    """:func:`reference_power` column by column."""
    return np.stack([reference_power(op, X[:, j], k)
                     for j in range(X.shape[1])], axis=1)
