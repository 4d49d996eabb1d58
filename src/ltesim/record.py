"""One slotted base for the simulator's records, in place of dataclasses.

A record lists its own fields (none are inherited) as annotations with
optional defaults or `Field`s. It gets `__slots__`, one generated
`__init__` that ends by calling any `__post_init__`, equality by exact
type and field values, a `repr` naming the fields, and `__reduce__` for
copy and pickle. A frozen record, the default, refuses assignment and
computes its hash once; `frozen=False` makes a mutable, unhashable one.
"""

import operator

MISSING = object()


class Field:
    """A default or a factory for one, and metadata for a class's own tooling."""

    def __init__(self, default=MISSING, factory=None, **meta):
        self.default, self.factory, self.meta = default, factory, meta


class _RecordType(type):
    def __new__(mcls, name, bases, ns, /, frozen=True, **kw):
        names = tuple(ns.get("__annotations__", ()))
        fields = [v if isinstance(v, Field) else Field(v) for v in [ns.pop(n, MISSING) for n in names]]
        get = operator.attrgetter(*names) if names else lambda rec: ()
        ns.update(_fields=dict(zip(names, fields)), _values=(lambda rec: (get(rec),)) if len(names) == 1 else get)
        ns["__slots__"] = names if bases else ("_hash",)  # the root's slot caches a frozen record's hash
        if not frozen:
            ns.update(__setattr__=object.__setattr__, __delattr__=object.__delattr__, __hash__=None)
        cls = super().__new__(mcls, name, bases, ns, **kw)  # runs any __init_subclass__
        env, params, body = {"MISSING": MISSING, "set__hash": cls._hash.__set__}, [], ["set__hash(self, None)"] * frozen
        for n, f in cls._fields.items():
            params.append(f"{n}=_{n}" if f.factory or f.default is not MISSING else n)
            env.update({"_" + n: f.default, "new_" + n: f.factory, "set_" + n: vars(cls)[n].__set__})
            body += [f"if {n} is MISSING: {n} = new_{n}()"] * bool(f.factory)
            body.append(f"set_{n}(self, {n})" if frozen else f"self.{n} = {n}")  # set_ skips __setattr__
        body += ["self.__post_init__()"] * hasattr(cls, "__post_init__")
        if body:
            exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body), env)
            cls.__init__ = env["__init__"]
        return cls


class Record(metaclass=_RecordType):
    def __eq__(self, other):
        cls = type(self)
        return cls._values(self) == cls._values(other) if type(other) is cls else NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(type(self)._values(self))
            _set_hash(self, h)
        return h

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set {name!r}")

    __delattr__ = __setattr__  # `value` has a default so that this serves `del` too

    def __repr__(self) -> str:
        pairs = zip(self._fields, type(self)._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __reduce__(self):
        return type(self), type(self)._values(self)


_set_hash = Record._hash.__set__
