"""Constant name spaces for the DAG renaming of Section 4.1.

Names ("colors", DAG identifiers) are drawn from a constant space ``γ``.
The paper uses ``|γ| = δ**6`` in the Herman-Tixeuil scheme it builds on but
argues ``δ**2`` "or even δ" suffices here; Section 5's simulations draw DAG
identifiers between 0 and ``δ**2``.  Local uniqueness requires
``|γ| > δ``, otherwise a node surrounded by ``δ`` distinct names may find
no free name to draw.
"""

from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng


class NameSpace:
    """The finite set ``γ = {0, 1, ..., size - 1}`` of DAG names."""

    def __init__(self, size):
        if size < 1:
            raise ConfigurationError(f"name space size must be >= 1, got {size}")
        self.size = int(size)

    def __contains__(self, name):
        return isinstance(name, int) and 0 <= name < self.size

    def __len__(self):
        return self.size

    def sample(self, rng, exclude=()):
        """``random(γ \\ exclude)``: uniform over the non-excluded names.

        One ``rng.integers(free)`` draw picks the index of the name among
        the free ones in increasing order; walking the sorted exclusions
        maps it to the name (each excluded name at or below the candidate
        moves it up by one), so a draw costs O(k log k) for ``k``
        exclusions rather than a scan of ``γ``.

        Raises :class:`ConfigurationError` when every name is excluded,
        which means the name space is too small for the local degree.
        """
        rng = as_rng(rng)
        forbidden = {name for name in exclude if name in self}
        free = self.size - len(forbidden)
        if free <= 0:
            raise ConfigurationError(
                f"name space of size {self.size} exhausted by "
                f"{len(forbidden)} excluded names; increase |γ| above δ")
        name = int(rng.integers(free))
        for excluded in sorted(forbidden):
            if excluded > name:
                break
            name += 1
        return name

    def __repr__(self):
        return f"NameSpace(size={self.size})"


def recommended_size(delta, exponent=2):
    """``|γ| = δ**exponent`` (Section 4.1; Section 5 uses exponent 2).

    Always returns at least ``delta + 2`` so a name is available even in
    the worst local configuration, and at least 2 overall.
    """
    if delta < 0:
        raise ConfigurationError(f"delta must be non-negative, got {delta}")
    if exponent < 1:
        raise ConfigurationError(f"exponent must be >= 1, got {exponent}")
    return max(delta ** exponent, delta + 2, 2)
