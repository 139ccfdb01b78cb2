"""Frozen records without the dataclasses module.

dataclasses imports inspect, and the two took about a quarter of the
time to import qcstar from source.  Record gives the package's immutable
value types what they used from a frozen dataclass, and nothing more.
"""


class Record:
    """Base of an immutable record whose fields are its annotations.

    A subclass declares its fields as annotations, in order, with
    optional class-level defaults.  As for a frozen dataclass:
    construction is by position or keyword, the fields are set in
    declaration order and then __post_init__ runs if the class has one
    (it may set a field with object.__setattr__); equality and hashing
    go by class and field values; assignment and deletion raise
    AttributeError; repr is Name(field=value, ...).
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", {}))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own
                                             if f in cls.__dict__}}
        # an __init__ that takes the fields as parameters, written out as
        # dataclasses write theirs: Python binds the arguments and raises
        # the TypeErrors, and a call costs what a dataclass's does
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults
                           else f for f in cls._fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in cls._fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {"_set": object.__setattr__, "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}):\n{body or '    pass'}\n",
             namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
                + ")")
