"""The frozen-record base of ipdyn's value types.

``dataclasses`` writes each decorated class's methods as source text and
compiles it with ``exec`` whenever the module is imported, and loads
``inspect`` to do it, so every CLI process would pay for both at start.
Here the methods are defined once, on the base, and read the fields
each class lists in ``_fields``.
"""

from __future__ import annotations


class Record:
    """An immutable record whose fields are its class annotations, in
    order; a class attribute of a field's name is that field's default.

    ``Name(*values, **by_name)`` binds the fields like a signature, sets
    them and then calls ``__post_init__``, which may check them or store
    normalized values with ``object.__setattr__``.  Records compare
    equal only to records of the same class with equal field tuples,
    hash as that tuple, print as ``Name(field=value, ...)`` and raise
    AttributeError on assignment or deletion.  The fields live in the
    instance ``__dict__``, so copy and pickle need nothing more.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = (*cls._fields, *own)
        cls._defaults = {
            **cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}
        }

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, for a call that is not one
        positional value per field; raises TypeError as a call that does
        not match a signature does."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        values = {**cls._defaults, **dict(zip(fields, args))}
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[f] for f in fields]

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def ordering(op):
    """A rich comparison for a record class: ``op`` on the field tuples
    of two records of that class, NotImplemented for anything else."""

    def compare(self: Record, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._values(), other._values())

    return compare
