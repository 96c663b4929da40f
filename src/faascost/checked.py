"""A base for immutable value types that check their fields when made.

The simulator and profiler types are ``typing.NamedTuple`` classes: they
need no ``dataclasses`` machinery at import time. A type that validates puts
:class:`Checked` before its NamedTuple base and defines ``_check``.
"""


class Checked:
    """Runs ``self._check()`` on every construction of the NamedTuple
    subclass that lists it first.

    ``_make``, and ``_replace`` through it, otherwise build the tuple with
    ``tuple.__new__`` and skip ``__new__``; here both go through the
    constructor, so a changed copy is checked like a new value.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _check(self) -> None:
        raise NotImplementedError
