"""The `Record` contract, checked on one instance of every record class the
package defines, and the equality and hashing that the caches key on."""
import copy
import inspect
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from wrapsurg import (
    MontesinosTangle,
    NotAKnotError,
    Slope,
    SurgeryClassification,
    WrappedKnot,
    ZeroZeroError,
    analysis_of,
    equivalent,
    normalize,
    parse_knot,
    parse_tangle,
    pretzel_surgery_link,
    trace_closure,
    twist,
)
from wrapsurg.slopes import Record

# Records are built, compared, pickled and copied through their classes' slot
# descriptors and the copy and pickle protocols, whose details differ between
# versions.
pytestmark = pytest.mark.version_sensitive


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("wrapsurg."):
            yield sub
        yield from _record_classes(sub)


def _first_instances():
    """The first record of each class reached from a few answers, by walking
    record fields, tuples, lists and mappings."""
    knot = parse_knot("K1[-1/2,1/3]")
    analysis = analysis_of(knot)
    roots = [
        analysis,
        analysis.classify(Slope(6, 1)),
        analysis.predict(Slope(6, 1)),
        analysis.surgeries_in_s3(Slope(7, 1), range(4, 5)),
        normalize(parse_tangle("[3/7]")),
        equivalent(parse_tangle("[1/3,1/2]"), parse_tangle("[-1/2,4/3]")),
        twist(knot, 1),
        pretzel_surgery_link(4, 7),
        trace_closure(knot.tangle.entries, knot.a),
    ]
    found = {}
    while roots:
        value = roots.pop()
        if isinstance(value, Record):
            found.setdefault(type(value), value)
            roots.extend(getattr(value, name) for name in type(value).__slots__)
        elif isinstance(value, (tuple, list)):
            roots.extend(value)
        elif isinstance(value, MappingProxyType):
            roots.extend(value.items())
    return found


RECORDS = _first_instances()


def test_every_record_class_has_an_instance():
    missing = {cls.__qualname__ for cls in _record_classes()} - {
        cls.__qualname__ for cls in RECORDS
    }
    assert not missing, f"add an answer that holds {sorted(missing)} to _first_instances"


@pytest.mark.parametrize("record", list(RECORDS.values()), ids=lambda r: type(r).__qualname__)
def test_record_contract(record):
    cls = type(record)
    values = [getattr(record, name) for name in cls.__slots__]
    # A mappingproxy (an analysis's table) neither hashes nor pickles.
    proxied = any(isinstance(value, MappingProxyType) for value in values)
    assert repr(record).startswith(f"{cls.__qualname__}(")
    for name, value in zip(cls.__slots__, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in cls.__slots__] == values

    assert copy.copy(record) == record
    if proxied:
        for fails in (hash, pickle.dumps, copy.deepcopy):
            with pytest.raises(TypeError, match="mappingproxy"):
                fails(record)
    else:
        assert isinstance(hash(record), int)
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert twin == record and hash(twin) == hash(record)

    # A record of another class with the same fields is a different value.
    other = type("Other", (Record,), {"__slots__": cls.__slots__})
    stranger = object.__new__(other)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(stranger, name, value)
    assert record != stranger and stranger != record


def _writes_its_constructor(cls):
    """Whether the class's body defines `__init__`; `Record.__init__` builds
    every other record class."""
    return "__init__" in vars(cls)


def _parameters(cls):
    """The names of the values a record is built from: its own constructor's
    parameters, or else its fields."""
    if _writes_its_constructor(cls):
        return tuple(inspect.signature(cls).parameters)
    return cls.__slots__


def test_normalizing_and_cold_path_records_define_a_constructor():
    """`Slope`, `MontesinosTangle` and `WrappedKnot` normalize or validate
    their input.  `NormalForm`, `LengthOneCanonical`, `Analysis` and
    `SurgeryClassification` are built for every cold knot or answer: CPython
    calls a constructor of fixed arity without building the tuple of values
    that `Record.__init__` packs, counts and unpacks."""
    own = {cls.__qualname__ for cls in _record_classes() if _writes_its_constructor(cls)}
    assert own == {"Slope", "MontesinosTangle", "WrappedKnot", "NormalForm",
                   "LengthOneCanonical", "Analysis", "SurgeryClassification"}


def test_every_other_record_is_built_by_the_record_constructor():
    shared = [cls for cls in _record_classes() if not _writes_its_constructor(cls)]
    assert {cls.__qualname__ for cls in shared} == {
        "Move", "Closure", "TwistedImage", "MontesinosLink", "SeifertInvariants", "SFSClass",
        "ToroidalCertificate", "FamilyPrediction", "SlopeMap"}
    for cls in shared:
        assert cls.__init__ is Record.__init__, cls.__qualname__


def _wrong_count(cls, count):
    """The TypeError text of `Record.__init__` given `count` values."""
    return (f"{cls.__qualname__} takes the values of ({', '.join(cls.__slots__)}),"
            f" the last {len(cls._defaults)} optional; got {count}")


def _check_copies(cls, built):
    """Each record built pickles and copies to an equal record of `cls`."""
    for record in built:
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert type(twin) is cls and twin == record and hash(twin) == hash(record)


def _check_record_constructor(cls, values):
    """`cls(*values)` sets the fields in slot order; each shorter call down
    to the shortest fills the omitted fields from `_defaults`; one value too
    few or too many raises the contract's TypeError; the records built pickle
    and copy to equal records."""
    assert cls.__init__ is Record.__init__
    defaults = cls._defaults
    built = [cls(*values)]
    assert tuple(getattr(built[0], name) for name in cls.__slots__) == values
    for omitted in range(1, len(defaults) + 1):
        built.append(cls(*values[:-omitted]))
        expected = values[:-omitted] + defaults[-omitted:]
        assert tuple(getattr(built[-1], name) for name in cls.__slots__) == expected
    shortest = len(values) - len(defaults)
    for count in (shortest - 1, len(values) + 1):
        if count >= 0:
            with pytest.raises(TypeError) as raised:
                cls(*(values + (None,))[:count])
            assert str(raised.value) == _wrong_count(cls, count)
    _check_copies(cls, built)


def _check_own_constructor(cls, values):
    """A written constructor takes the values of leading fields, in slot
    order (a knot's winding is computed); `cls(*values)` keeps them, one
    value too many raises TypeError, and the record pickles and copies."""
    names = _parameters(cls)
    assert names == cls.__slots__[:len(names)]
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    with pytest.raises(TypeError):
        cls(*values, None)
    _check_copies(cls, [record])


@pytest.mark.parametrize("record", list(RECORDS.values()), ids=lambda r: type(r).__qualname__)
def test_record_is_built_from_its_fields_in_slot_order(record):
    cls = type(record)
    values = tuple(getattr(record, name) for name in _parameters(cls))
    assert cls(*values) == record
    if any(isinstance(value, MappingProxyType) for value in values):
        # An analysis's table neither hashes nor pickles: check the
        # constructor on a stand-in table with the same entries.
        values = tuple(tuple(value.items()) if isinstance(value, MappingProxyType) else value
                       for value in values)
    if _writes_its_constructor(cls):
        _check_own_constructor(cls, values)
    else:
        _check_record_constructor(cls, values)


def test_a_classification_fills_its_optional_fields():
    answer = RECORDS[SurgeryClassification]
    assert answer.certificate is not None
    bare = SurgeryClassification(answer.type, answer.slope)
    certified = SurgeryClassification(answer.type, answer.slope, answer.certificate)
    assert (bare.certificate, bare.seifert_indices, bare.notes) == (None, None, ())
    assert (certified.certificate, certified.seifert_indices, certified.notes) == (
        answer.certificate, None, ())


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__qualname__)
def test_no_record_takes_keywords(cls):
    record, names = RECORDS[cls], _parameters(cls)
    values = [getattr(record, name) for name in names]
    for count in range(len(names)):
        with pytest.raises(TypeError):
            cls(*values[:count], **dict(zip(names[count:], values[count:])))


# A record class of each arity from 1 to 9, with 0 to 3 optional fields, at
# module level so that its records pickle: `Record.__init__` builds each one
# from its setters and `_defaults`.
_ARITY_CLASSES = []
for _arity in range(1, 10):
    for _optional in range(min(_arity, 3) + 1):
        _name = f"_Fields{_arity}Optional{_optional}"
        _cls = type(_name, (Record,), {
            "__slots__": tuple(f"f{i}" for i in range(_arity)),
            "_defaults": tuple(f"default {i}" for i in range(_arity - _optional, _arity)),
            "__module__": __name__,
        })
        globals()[_name] = _cls
        _ARITY_CLASSES.append(_cls)


@pytest.mark.parametrize("cls", _ARITY_CLASSES, ids=lambda cls: cls.__qualname__)
def test_a_fitted_constructor_of_each_arity(cls):
    _check_record_constructor(cls, tuple(range(len(cls.__slots__))))


_big = st.integers(-(10**30), 10**30)


@given(_big, _big)
@example(5, 0)
@example(-7, 0)
@example(0, -3)
@example(0, 0)
def test_slope_is_the_fraction_in_lowest_terms(p, q):
    if q:
        f = Fraction(p, q)
        s, t = Slope(p, q), Slope(f.numerator, f.denominator)
        assert (s.p, s.q) == (f.numerator, f.denominator)
        assert s == t and hash(s) == hash(t)
    elif p:
        assert Slope(p, q) == Slope(1, 0)
        assert (Slope(p, q).p, Slope(p, q).q) == (1, 0)
    else:
        with pytest.raises(ZeroZeroError):
            Slope(p, q)


@given(
    st.integers(0, 1),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30), st.integers(1, 5)),
             min_size=1, max_size=3),
)
@example(0, [(2, 1, 2)])  # K0[2] and K0[4/2]
@example(1, [(-1, 2, 2), (1, 3, 1)])  # K1[-1/2,1/3] and K1[-2/4,1/3]
def test_knots_of_equal_value_are_one_cache_key(a, entries):
    reduced = ",".join(str(Slope(p, q)) for p, q, _ in entries)
    scaled = ",".join(f"{p * m}/{q * m}" for p, q, m in entries)
    try:
        knot = parse_knot(f"K{a}[{reduced}]")
    except NotAKnotError:
        reject()
    same = parse_knot(f"K{a}[{scaled}]")
    assert same == knot and hash(same) == hash(knot)
    assert analysis_of(same) == analysis_of(knot)


def test_a_tangle_given_a_list_keeps_a_tuple():
    # The entries are stored as a tuple however they are given, so that the
    # tangle and a knot of it hash and equal the one built from a tuple.
    listed = MontesinosTangle([Slope(-1, 2), Slope(1, 3)])
    assert listed.entries == (Slope(-1, 2), Slope(1, 3))
    assert listed == MontesinosTangle.from_slopes([Slope(-1, 2), Slope(1, 3)])
    tangle, knot = parse_tangle("[-1/2,1/3]"), parse_knot("K1[-1/2,1/3]")
    assert listed == tangle and hash(listed) == hash(tangle)
    assert WrappedKnot(1, listed) == knot and hash(WrappedKnot(1, listed)) == hash(knot)
