"""Frozen value records, built without generated code.

``record`` makes a class with annotated fields into an immutable record:
construction by position or keyword with the class-level defaults, an
optional ``__post_init__`` check, a ``Name(field=value, ...)`` repr, and
equality and hash over the fields with records of the same class only.
With ``eq=False`` a record keeps identity equality and hash.
"""


def record(cls=None, *, eq: bool = True):
    """Class decorator; the fields are the class's own annotations."""
    if cls is None:
        return lambda c: record(c, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = "__post_init__" in cls.__dict__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument "
                                f"{name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or "
                            f"repeated argument {next(iter(kwargs))!r}")
        if post_init:
            self.__post_init__()

    def values(self) -> tuple:
        state = self.__dict__
        return tuple(state[n] for n in names)

    def __repr__(self):
        state = self.__dict__
        fields = ", ".join(f"{n}={state[n]!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = [__init__, __repr__, __setattr__, __delattr__]
    if eq:
        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self):
            return hash(values(self))

        methods += [__eq__, __hash__]
    for method in methods:
        setattr(cls, method.__name__, method)
    return cls
