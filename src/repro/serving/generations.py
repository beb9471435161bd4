"""The pin name :meth:`ServingCoordinator.activate` takes for a store.

An index has one layout, the flat store at its root; the coordinator
still pins a store under a name, and the flat store's name is ``"."``.
"""

__all__ = ["FLAT_GENERATION"]

#: Pin name of the flat store layout.
FLAT_GENERATION = "."
