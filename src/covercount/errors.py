"""Shared exception types, which the CLI maps to exit codes, ``Record``, the
frozen base class of the library's value records, and ``as_int``, the check
on their integer fields."""


class DomainError(ValueError):
    """Invalid input data (bad covering spec, out-of-domain argument)."""


class BudgetExceeded(RuntimeError):
    """A search or table was refused because it exceeds the configured budget."""


class ConsistencyError(AssertionError):
    """Two independent exact routes disagreed; this falsifies an identity
    the artifact relies on and is never recoverable."""


def as_int(x) -> int:
    """x itself if it is an int; anything else, bools and floats too, raises TypeError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"not an int: {x!r}")


class Record:
    """An immutable value.  Its fields are the annotated names of its class and
    of the records it derives from, a base's fields first, each in annotation
    order; a class attribute of the same name is a field's default.  Fields
    are given by position or keyword, then ``_validate`` runs.  Equality holds
    only within one class, hash and repr follow the fields, and assignment or
    deletion raises AttributeError.  Hashing a record that holds a dict
    raises TypeError, as hashing the dict does.  The plain ``__dict__`` keeps
    pickle and deepcopy working.

    A subclass that normalises its input defines its own ``__init__`` and
    stores each field with ``object.__setattr__``, without calling this
    ``__init__``: the generic argument matching would add about half to the
    cost of building a ``TruncatedSeries`` (3.6 -> 5.3 us, Python 3.11 on a
    shared Xeon), and series arithmetic builds one per operation."""

    _fields = ()

    def __init_subclass__(cls):
        mro = reversed(cls.__mro__)  # a base's fields first
        names = (f for k in mro for f in vars(k).get("__annotations__", ()))
        cls._fields = tuple(dict.fromkeys(names))

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        values = dict(zip(fields, args))
        for name in fields[len(args) :]:
            if name in kwargs or hasattr(cls, name):
                values[name] = kwargs.pop(name, getattr(cls, name, None))
        missing = [name for name in fields if name not in values]
        extra = [*map(repr, args[len(fields) :]), *kwargs]
        if missing or extra:
            raise TypeError(f"{cls.__name__}: missing fields {missing}, unexpected {extra}")
        self.__dict__.update(values)
        self._validate()

    def _validate(self):
        """Checks on the constructed value; raise to reject it."""

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__
