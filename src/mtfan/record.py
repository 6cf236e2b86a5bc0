"""Record: the base of the value classes that hold a memo.

Module, Submodule, Cone, Polytope and MTFFan are immutable values like the
named tuples beside them, but each also keeps memos (its hash, a
`cached_property`) in the instance dict, which a tuple has no room for.  A
subclass names its fields, in constructor order, in `_fields` and sets them
in its own `__init__` through `vars(self)`; equality, hashing and the repr
read the fields and nothing else, so a memo never changes a value.
"""
from operator import attrgetter


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one C-level getter per class: the memos compare and hash records
        # many thousands of times per run (every field list has two or more
        # names, so the getter returns a tuple)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        # computed once per instance; it lives in the instance dict, beside
        # the cached properties, and takes no part in equality
        try:
            return self._hash
        except AttributeError:
            vars(self)["_hash"] = h = hash(self._values(self))
            return h

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"

    def __setattr__(self, name, value=None):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}"
        )

    __delattr__ = __setattr__
