"""The immutable value objects of the package.

A record class names its fields in __slots__ and sets each one once, in its
constructor.  Record gives it the rest of a value object: equality with a
record of the same class and equal fields, the hash of the field tuple,
the repr Name(field=value, ...), refusal of assignment and deletion, and
pickling, copying and replace through the constructor, so that every check
the constructor makes holds for every record.  Nothing is generated: the
classes cost no more to import than any other class.
"""

from operator import attrgetter

# sets a field of a record under construction; Record.__setattr__ refuses
set_field = object.__setattr__


class Record:
    """Base of the value objects: fields in __slots__, set by __init__."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__["__slots__"]
        get = attrgetter(*fields)
        cls._fields = fields
        cls._astuple = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple(self)

    def replace(self, **changes):
        """A record of the same class with the named fields changed, made by
        the constructor, so that its checks run again."""
        return type(self)(**dict(zip(self._fields, self._astuple(self)), **changes))
