"""Point-to-set and Hausdorff distances on a finite space, as label loops.

The package reads these quantities from its index arrays (the validated
pair's ``gap`` table, the Kamran verifier's n x n masks); these loops are
the definitions the tests check those arrays against.
"""

from graphfix.errors import DomainError
from graphfix.metric import ClosedSet, FiniteMetricSpace


def _finite_members(Z) -> tuple[str, ...]:
    """Normalize a finite closed set given as ClosedSet or label iterable."""
    if isinstance(Z, ClosedSet):
        return Z.members
    members = tuple(dict.fromkeys(str(s) for s in Z))
    if not members:
        raise DomainError("closed set must be non-empty")
    return members


def point_to_set_distance(u: str, Z, space: FiniteMetricSpace) -> float:
    """min over members z of Z of d(u, z); zero exactly when u belongs to Z."""
    members = _finite_members(Z)
    return min(space.distance(u, z) for z in members)


def hausdorff_distance(Y, Z, space: FiniteMetricSpace) -> float:
    """max of the two directed suprema of point-to-set distances."""
    ym = _finite_members(Y)
    zm = _finite_members(Z)
    fwd = max(point_to_set_distance(u, zm, space) for u in ym)
    bwd = max(point_to_set_distance(v, ym, space) for v in zm)
    return max(fwd, bwd)
