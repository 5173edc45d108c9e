"""The base of socmine's value classes that cannot be NamedTuples, because
they check their fields or act as containers."""


class Record:
    """Equality, hash, repr and immutability from the fields a subclass
    names in __slots__, in order; its __init__ stores them with _set. A
    subclass that needs a __dict__, for a cached_property, lists it last."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name != "__dict__")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
