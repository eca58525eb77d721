"""Value semantics for textmask's small record classes.

Each record class lists its fields, in constructor order, as
``__match_args__`` and assigns them in an explicit ``__init__``; most also
make that tuple their ``__slots__``. ``Record`` gives them ``==`` over the
fields (``NotImplemented`` against any other class), the
``Name(field=value, ...)`` repr, no hash, positional ``match`` patterns,
and pickling and ``copy.deepcopy`` at every protocol. Plain classes keep
every command from loading the standard library's class generator, which
imports ``inspect`` and with it ``ast``, ``dis`` and ``tokenize``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # Records hold lists and dicts, so equal ones need not stay equal: no hash.
    __hash__ = None

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    # A slotted class pickles at protocols 0 and 1 only with its own
    # __getstate__. A field dict is also what an instance __dict__ pickles
    # as, so such a pickle of the same class loads too.
    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__match_args__}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
