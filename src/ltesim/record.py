"""One slotted base for every record the simulator keeps.

A record lists its fields as annotations with optional defaults or
`Field`s. A subclass of a record that has fields inherits them, ahead of
its own, and takes its own by keyword only. A record gets `__slots__`,
one generated `__init__` that ends by calling any `__post_init__`,
equality by exact type and field values, a `repr` naming the fields, and
`__reduce__` for copy and pickle. A frozen record, the default, refuses
assignment and computes its hash once; `frozen=False` makes a mutable,
unhashable one.
"""

import operator

MISSING = object()


class Field:
    """A default or a factory for one, and metadata for a class's own tooling."""

    def __init__(self, default=MISSING, factory=None, **meta):
        self.default, self.factory, self.meta = default, factory, meta


class _RecordType(type):
    def __new__(mcls, name, bases, ns, /, frozen=True, **kw):
        own = tuple(ns.get("__annotations__", ()))
        inherited = bases[0]._fields if bases else {}
        fields = [v if isinstance(v, Field) else Field(v) for v in [ns.pop(n, MISSING) for n in own]]
        fields = {**inherited, **dict(zip(own, fields))}
        get = operator.attrgetter(*fields) if fields else lambda rec: ()
        ns.update(_fields=fields, _values=(lambda rec: (get(rec),)) if len(fields) == 1 else get)
        ns["__slots__"] = own if bases else ("_hash",)  # the root's slot caches a frozen record's hash
        if not frozen:
            ns.update(__setattr__=object.__setattr__, __delattr__=object.__delattr__, __hash__=None)
        cls = super().__new__(mcls, name, bases, ns, **kw)  # runs any __init_subclass__
        env, params, body = {"MISSING": MISSING, "set__hash": cls._hash.__set__}, [], ["set__hash(self, None)"] * frozen
        for n, f in fields.items():
            params.append(f"{n}=_{n}" if f.factory or f.default is not MISSING else n)
            env.update({"_" + n: f.default, "new_" + n: f.factory, "set_" + n: getattr(cls, n).__set__})
            body += [f"if {n} is MISSING: {n} = new_{n}()"] * bool(f.factory)
            body.append(f"set_{n}(self, {n})" if frozen else f"self.{n} = {n}")  # set_ skips __setattr__
        if inherited and own:
            params.insert(len(inherited), "*")
        body += ["self.__post_init__()"] * hasattr(cls, "__post_init__")
        if body:
            exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body), env)
            cls.__init__ = env["__init__"]
        return cls


def _rebuild(cls, values):
    return cls(**dict(zip(cls._fields, values)))


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
        return _rebuild, (type(self), type(self)._values(self))  # by keyword, for keyword-only fields


_set_hash = Record._hash.__set__
