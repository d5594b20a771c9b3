"""What `import msfam` loads, and the value classes that keep it small.

Each value class of params.frozen is checked against a
dataclasses.dataclass(frozen=True) twin built from the class's own
annotations and defaults; the import and a forked pass are checked for the
modules they add, in a fresh interpreter.
"""

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
from functools import lru_cache
from itertools import product

import pytest

from msfam import (
    CoeffPropertyReport, CoeffTable, LemmaReport, MultisetFamily, ParameterError, Params,
    SetFamily, TheoremReport, UNBOUNDED, VerificationResults, build_ekr, build_hm_shadow,
    build_star, canonical, check_coeff_properties, coeff_table, run_verification,
)

VALUE_CLASSES = (Params, SetFamily, CoeffTable, CoeffPropertyReport, MultisetFamily,
                 TheoremReport, LemmaReport, VerificationResults)
# what msfam once imported for a handful of names, and a workers=2 pass imported on top
HEAVY_MODULES = {"dataclasses", "inspect", "multiprocessing", "_hashlib", "csv"}


@lru_cache(maxsize=None)
def _samples() -> dict:
    """Two unequal instances of each value class, as msfam makes them."""
    first = run_verification(6, [Params(6, 4, 3), Params(6, 4, UNBOUNDED)], [Params(6, 4, 2)])
    second = run_verification(5, [Params(5, 4, UNBOUNDED)], [Params(5, 4, UNBOUNDED)])
    return {
        Params: [Params(6, 4, 2), Params(6, 4, UNBOUNDED)],
        SetFamily: [build_star(4), build_hm_shadow(Params(6, 4, 2))],
        CoeffTable: [coeff_table(4, 2), coeff_table(5, UNBOUNDED)],
        CoeffPropertyReport: [check_coeff_properties(4, 2, 6), check_coeff_properties(4, 2, 4)],
        MultisetFamily: [build_ekr(Params(4, 3, 2)), build_ekr(Params(4, 3, UNBOUNDED))],
        TheoremReport: list(first.theorem_reports),
        LemmaReport: list(first.lemma_bundles[0].values())[:2],
        VerificationResults: [first, second],
    }


def _fields(cls) -> tuple[str, ...]:
    return tuple(cls.__dict__["__annotations__"])


def _twin(cls):
    """dataclass(frozen=True) over cls's own annotations, defaults and
    __post_init__, under cls's name, so that the two reprs compare."""
    namespace = {"__annotations__": dict(cls.__dict__["__annotations__"]),
                 "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    namespace.update((name, cls.__dict__[name]) for name in _fields(cls) if name in cls.__dict__)
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:  # a field holds a dict or a list
        return TypeError


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_agrees_with_its_dataclass_twin(cls):
    twin, fields = _twin(cls), _fields(cls)
    ours = _samples()[cls]
    values = [tuple(getattr(obj, name) for name in fields) for obj in ours]
    theirs = [twin(*v) for v in values]
    for obj, other, v in zip(ours, theirs, values):
        assert repr(obj) == repr(other)
        assert cls(*v) == obj and cls(**dict(zip(fields, v))) == obj
        assert _hash_or_error(obj) == _hash_or_error(other)
        assert obj != other and other != obj  # the class is part of equality
        for target, name in product((obj, other), fields + ("unknown",)):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is cls and back == obj and repr(back) == repr(obj)
        ours_reduced = obj.__reduce_ex__(pickle.DEFAULT_PROTOCOL)
        twin_reduced = other.__reduce_ex__(pickle.DEFAULT_PROTOCOL)
        assert ours_reduced[0] is twin_reduced[0] and ours_reduced[2] == twin_reduced[2]
    for i, j in product(range(len(ours)), repeat=2):
        assert (ours[i] == ours[j]) == (theirs[i] == theirs[j]) == (i == j)
        assert (ours[i] != ours[j]) == (theirs[i] != theirs[j]) == (i != j)
    required = sum(name not in cls.__dict__ for name in fields)
    v = values[0]
    assert repr(cls(*v[:required])) == repr(twin(*v[:required]))  # the defaults
    for make in (cls, twin):
        with pytest.raises(TypeError):
            make(*v[:required - 1])
        with pytest.raises(TypeError):
            make(*v, None)
        with pytest.raises(TypeError):
            make(*v, unknown=None)
        with pytest.raises(TypeError):
            make(*v, **{fields[0]: v[0]})


def test_params_validates_and_caches():
    for bad in ((0, 4, 2), (6, 0, 2), (6, 4, 0), (6.0, 4, 2), (6, 4, "2"),
                (True, 4, 2), (6, True, 2), (6, 4, True)):
        with pytest.raises(ParameterError):
            Params(*bad)
        with pytest.raises(ParameterError):
            _twin(Params)(*bad)
    with pytest.raises(ParameterError):
        Params(n=6, k=4, m=-1)
    p = Params(6, 4, 2)
    assert p.h_set == frozenset({3, 4, 5, 6}) and p.h_set is p.h_set
    assert p.h_mask == 0b111100 and Params(4, 4, 2).h_set is None
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p) and back.h_set == p.h_set
    with pytest.raises(AttributeError):
        p.h_set = frozenset()
    with pytest.raises(AttributeError):
        del p.h_mask


def test_canonical_digest_is_hashlibs_blake2b():
    assert canonical.blake2b is hashlib.blake2b


def _fresh_modules(code: str) -> list[list[str]]:
    """Run code in a fresh `python -s` on this msfam; each line it prints,
    split into words."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(canonical.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-s", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return [line.split() for line in out.splitlines()]


def test_import_msfam_loads_no_heavy_module():
    [added] = _fresh_modules("""
import sys
before = set(sys.modules)
import msfam
print(*sorted(set(sys.modules) - before))
""")
    assert "msfam.search" in added
    assert not HEAVY_MODULES & set(added)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers > 1 are forked")
def test_forked_pass_imports_no_module():
    [[families], added] = _fresh_modules("""
import sys
from msfam import Params, UNBOUNDED, run_verification
before = set(sys.modules)
results = run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=2)
print(results.families_total)
print(*sorted(set(sys.modules) - before))
""")
    assert families == "81" and added == []
