"""A decorator for immutable value types that check their fields when made.

The package's value types are ``typing.NamedTuple`` classes: they need no
``dataclasses`` machinery at import time. A type that validates defines
``_check`` and is decorated with :func:`checked`.
"""


def checked(cls):
    """Run ``self._check()`` on every construction of the NamedTuple ``cls``.

    ``_check`` raises on an invalid value and otherwise returns None, or,
    for a type whose fields are converted when made (numbers to
    ``Decimal``, say), the converted copy, built with ``tuple.__new__``;
    the constructor then returns that copy. ``_make``, and ``_replace``
    through it, otherwise build the tuple with ``tuple.__new__`` and skip
    ``__new__``; here both go through the constructor, so a changed copy is
    checked like a new value.
    """
    make = cls.__new__

    def __new__(cls, *args, **kwargs):
        self = make(cls, *args, **kwargs)
        converted = self._check()
        return self if converted is None else converted

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls
