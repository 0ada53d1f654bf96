"""numpy, imported when a module first uses it.

The exact layers (building embeddings, the Ahern-Rudin identity) never touch
numpy, and importing it costs more than either command does.  A module that
needs numpy only inside its functions binds ``np = LazyNumpy(__name__)``
instead of ``import numpy as np``.  The first attribute read on that stand-in
imports numpy and rebinds the module's ``np`` to numpy itself, so every later
``np.<name>`` in that module is a plain global lookup with no extra cost.
"""

from __future__ import annotations

import sys


class LazyNumpy:
    """Stands in for numpy as module ``owner``'s ``np`` until first used."""

    __slots__ = ("_owner",)

    def __init__(self, owner: str):
        self._owner = owner

    def __getattr__(self, name: str):
        import numpy

        sys.modules[self._owner].np = numpy
        return getattr(numpy, name)

