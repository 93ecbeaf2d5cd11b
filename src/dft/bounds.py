"""Enumeration bounds.

The bounds are configuration, not logic: they cap how large a form the
desk-scale enumerations will touch.  Environment variables override the
defaults process-wide and must be integers of at least 1; individual
calls can pass explicit values.  One fixed bound, ``MAX_FORM_ORDER``, caps
the order of every form ``build_form`` realizes, before any table with
one entry per element is made; below it no bound limits what a form's
constructor certifies: its non-degeneracy certificate (``fqm``) runs at
every order.
"""

import os

from .errors import BoundExceeded, ValidityError

DEFAULT_SPAN_ORDER = 4096      # lift spans over prime-order isotropic subgroups
DEFAULT_ENUM_ORDER = 256       # full enumeration of all isotropic subgroups
DEFAULT_CYCLO_ORDER = 256      # exact Weil-matrix identity checks
# every form build: 2^20 elements take about 1.2 s and 370 MB in
# ``dft info``, 2^22 about 1.5 GB; far above every corpus and reach row
MAX_FORM_ORDER = 1 << 20


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValidityError(f"{name}={raw!r} is not an integer") from None
    if value < 1:
        raise ValidityError(f"{name}={raw!r} must be at least 1")
    return value


def max_span_order():
    return _env_int("DFT_MAX_SPAN_ORDER", DEFAULT_SPAN_ORDER)


def check_span_order(n: int, limit=None) -> None:
    """Raise ``BoundExceeded`` if |D| = n exceeds the span bound: ``limit``
    if given, else the process-wide one."""
    limit = max_span_order() if limit is None else limit
    if n > limit:
        raise BoundExceeded(f"|D| = {n} exceeds the span bound {limit}")


def check_form_order(n: int) -> None:
    """Raise ``BoundExceeded`` if |D| = n exceeds ``MAX_FORM_ORDER``."""
    if n > MAX_FORM_ORDER:
        raise BoundExceeded(f"|D| = {n} exceeds the form bound "
                            f"{MAX_FORM_ORDER}")


def max_enum_order():
    return _env_int("DFT_MAX_ENUM_ORDER", DEFAULT_ENUM_ORDER)


def max_cyclo_order():
    return _env_int("DFT_MAX_CYCLO_ORDER", DEFAULT_CYCLO_ORDER)
