"""The base of the package's validated value types."""

from operator import attrgetter


class Value:
    """An immutable record whose fields are the __slots__ of its class.  A
    subclass's __init__ checks its arguments, then stores each field with
    object.__setattr__.

    Two values are equal only if they have the same type and equal fields, so
    a value never equals a tuple, or a value of another type, that holds the
    same numbers.  The hash is that of the fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        # all fields in one read: a tuple, or the field itself if it is alone
        cls._key = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, field):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a value through its checks
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
