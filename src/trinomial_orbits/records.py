"""Value records: the part of dataclasses this package uses, built from
closures instead of generated source, so importing the package loads
neither dataclasses nor inspect.

@record reads a class's own annotations, in order, as its fields, and gives
it __init__, __repr__ and __eq__ as dataclass would: arguments by position
or keyword, defaults and default factories, repr "Name(f=value, ...)", and
equality only between instances of one class, over the fields compared.
@record(frozen=True) also refuses assignment and hashes the compared
fields; a __hash__ written in the class body is kept.  Mutable records are
unhashable.  Inheritance between records is not supported.
"""

from operator import attrgetter

MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Field:
    __slots__ = ("name", "default", "default_factory", "compare")

    def __init__(self, default=MISSING, default_factory=MISSING, compare=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.compare = compare


def field(*, default=MISSING, default_factory=MISSING, compare=True) -> Field:
    return Field(default, default_factory, compare)


def fields(record_or_class) -> tuple:
    """The Field objects of a record class or instance, in order."""
    return record_or_class.__record_fields__


def record(cls=None, /, *, frozen=False):
    def wrap(cls):
        return _build(cls, frozen)

    return wrap if cls is None else wrap(cls)


def _build(cls, frozen):
    specs = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, MISSING)
        if not isinstance(spec, Field):
            spec = Field(default=spec)
        spec.name = name
        if spec.default is MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        specs.append(spec)
    names = tuple(f.name for f in specs)
    __eq__, __hash__ = _eq_hash(tuple(f.name for f in specs if f.compare))

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({body})"

    cls.__record_fields__ = tuple(specs)
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    if names:
        cls.__init__ = _init(cls.__qualname__, specs)
    if "__hash__" not in cls.__dict__:
        cls.__hash__ = __hash__ if frozen else None
    if frozen:
        cls.__setattr__ = _refuse_assign
        cls.__delattr__ = _refuse_delete
    return cls


def _refuse_assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _eq_hash(names):
    """__eq__ and __hash__ over the tuple of the compared fields, as
    dataclass builds them (a 1-tuple for one field, () for none)."""
    if len(names) > 1:
        key = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

    elif names:
        get = attrgetter(names[0])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),))

    else:
        empty = hash(())

        def __eq__(self, other):
            return True if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self):
            return empty

    return __eq__, __hash__


def _init(qualname, specs):
    """__init__ storing each field through object.__setattr__, as the
    dataclass one does (a frozen record's own __setattr__ refuses), which
    keeps the attributes in the instance's inline values rather than
    materializing its __dict__.  Records of one to three fields, the hot
    constructors, take their positional arguments and plain defaults
    without argument packing; keywords, factories and errors go through
    bind, as every call to a larger record does."""
    names = tuple(f.name for f in specs)
    defaults = tuple(f.default for f in specs)
    fills = tuple(zip(names, defaults, (f.default_factory for f in specs)))
    put = object.__setattr__

    def bind(self, args, kwargs):
        """The positional arguments up to the first MISSING slot, then
        keywords, defaults and factories; kwargs is this call's own dict."""
        if len(args) > len(names):
            raise TypeError(
                f"{qualname}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        given = 0
        for value in args:
            if value is MISSING:
                break
            put(self, names[given], value)
            given += 1
        for name, default, factory in fills[given:]:
            value = kwargs.pop(name, default) if kwargs else default
            if value is MISSING:
                if factory is MISSING:
                    raise TypeError(f"{qualname}() missing required argument {name!r}")
                value = factory()
            put(self, name, value)
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{qualname}() got {problem} argument {name!r}")

    # Without keywords, a slot left MISSING takes its field's plain default;
    # one still MISSING (a required or factory field) goes to bind.
    if len(names) == 1:
        (n0,), (d0,) = names, defaults

        def __init__(self, a=MISSING, /, *more, **kwargs):
            if a is MISSING and not kwargs:
                a = d0
            if a is MISSING or more or kwargs:
                return bind(self, (a, *more), kwargs)
            put(self, n0, a)

    elif len(names) == 2:
        (n0, n1), (d0, d1) = names, defaults

        def __init__(self, a=MISSING, b=MISSING, /, *more, **kwargs):
            if b is MISSING and not kwargs:
                b = d1
                if a is MISSING:
                    a = d0
            if a is MISSING or b is MISSING or more or kwargs:
                return bind(self, (a, b, *more), kwargs)
            put(self, n0, a)
            put(self, n1, b)

    elif len(names) == 3:
        (n0, n1, n2), (d0, d1, d2) = names, defaults

        def __init__(self, a=MISSING, b=MISSING, c=MISSING, /, *more, **kwargs):
            if c is MISSING and not kwargs:
                c = d2
                if b is MISSING:
                    b = d1
                    if a is MISSING:
                        a = d0
            if a is MISSING or b is MISSING or c is MISSING or more or kwargs:
                return bind(self, (a, b, c, *more), kwargs)
            put(self, n0, a)
            put(self, n1, b)
            put(self, n2, c)

    else:

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                return bind(self, args, kwargs)
            for name, value in zip(names, args):
                put(self, name, value)

    return __init__
