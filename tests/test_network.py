"""Network model, serialization, and structural operations."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util_instances as gen
from rcckit import RCC5, RCC8, Network, Relation
from rcckit.algebra import Subalgebra
from rcckit.errors import (
    ConverseConflictError,
    InconsistentNetworkError,
    MaskError,
    NetworkFormatError,
    NetworkShapeError,
    RccError,
)
from rcckit.geometry import regions_from_json
from rcckit.network import (
    MAX_VARS,
    amalgamate,
    from_json,
    load,
    loads,
    refines,
    remove_constraint,
    restrict,
    save,
    to_json,
    to_rcc5,
)
from rcckit.reasoning import a_closure


def test_new_network_is_universal_with_eq_diagonal():
    net = Network(RCC8, 3)
    net.validate()
    assert net[0, 1].is_universal
    assert str(net[1, 1]) == "EQ"
    assert net.labels == ("v1", "v2", "v3")


def test_setitem_mirrors_converse():
    net = Network(RCC5, 2)
    net[1, 0] = "PPi"
    assert str(net[0, 1]) == "PP"
    net.validate()


def test_diagonal_is_locked():
    net = Network(RCC5, 2)
    with pytest.raises(NetworkShapeError):
        net[0, 0] = "DR"
    net[0, 0] = "EQ"  # no-op is fine


@pytest.mark.parametrize("i,j", [(-1, 2), (2, -1), (-1, 0), (0, 3), (3, 0),
                                 (-1, 3), (0, 7)])
def test_entry_access_rejects_indices_out_of_range(i, j):
    net = Network(RCC8, 3)
    before = net.matrix.copy()
    dc = RCC8.parse("DC")
    for access in (lambda: net.mask(i, j), lambda: net.entry(i, j),
                   lambda: net[i, j], lambda: net.set_mask(i, j, dc),
                   lambda: net.__setitem__((i, j), "DC"),
                   lambda: remove_constraint(net, i, j)):
        with pytest.raises(NetworkShapeError, match="out of range"):
            access()
    assert np.array_equal(net.matrix, before)
    net.validate()


@pytest.mark.parametrize("bad", [256, -1, 1 << 20, 2.7, 3.9, True,
                                 np.int64(256)], ids=repr)
def test_a_mask_outside_the_calculus_is_rejected_before_any_write(bad):
    net = Network(RCC8, 3)
    net[1, 2] = "PO"
    before = net.matrix.copy()
    for enter in (lambda: net.set_mask(0, 1, bad),
                  lambda: net.set_mask(1, 2, bad),
                  lambda: net.set_mask(2, 2, bad),
                  lambda: net.__setitem__((0, 2), bad),
                  lambda: Relation(RCC8, bad),
                  lambda: RCC8.relation(bad),
                  lambda: Subalgebra(RCC8, [bad])):
        with pytest.raises(MaskError, match="not an integer in 0..255"):
            enter()
        assert np.array_equal(net.matrix, before)
    net.validate()
    assert issubclass(MaskError, (ValueError, RccError))


def test_numpy_integer_masks_are_masks():
    net = Network(RCC8, 3)
    net.set_mask(0, 1, np.uint16(RCC8.parse("PO")))
    net[1, 2] = np.int64(RCC8.parse("DC"))
    assert str(net[0, 1]) == "PO" and str(net[2, 1]) == "DC"
    assert type(net.mask(0, 1)) is int
    assert RCC8.relation(np.uint8(3)) == Relation(RCC8, 3)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, np.bool_(True),
                                 np.float64(1), None, "1"], ids=repr)
def test_entry_access_rejects_non_integer_indices(bad):
    net = Network(RCC8, 3)
    before = net.matrix.copy()
    dc = RCC8.parse("DC")
    for i, j in ((bad, 0), (0, bad)):
        for access in (lambda: net.mask(i, j), lambda: net[i, j],
                       lambda: net.set_mask(i, j, dc),
                       lambda: net.__setitem__((i, j), "DC")):
            with pytest.raises(NetworkShapeError, match="not an integer"):
                access()
    assert np.array_equal(net.matrix, before)
    net.set_mask(np.int64(0), np.uint16(2), dc)
    assert net.mask(0, 2) == net[np.int32(0), 2].mask == dc


def test_load_normalizes_and_round_trips():
    text = "calculus RCC5\nvars 2\n1 2 PP\n"
    net = loads(text)
    assert str(net[1, 0]) == "PPi"
    assert save(net) == text
    assert save(loads(save(net))) == save(net)


def test_load_comments_gaps_and_universal():
    net = loads("""
# header comment
calculus RCC8
vars 3
1 2 DC|EC   # trailing comment
2 3 *
""")
    assert str(net[0, 1]) == "DC|EC"
    assert net[1, 2].is_universal
    assert net[0, 2].is_universal
    assert net.constraint_count() == 1


def test_load_labels():
    net = loads("calculus RCC8\nvars 2\nlabels A B\n1 2 EC\n")
    assert net.labels == ("A", "B")
    assert "labels A B" in save(net)


def test_load_errors_carry_line_numbers():
    with pytest.raises(NetworkFormatError) as err:
        loads("calculus RCC5\nvars 2\n1 2 WONKY\n")
    assert "line 3" in str(err.value)
    with pytest.raises(NetworkFormatError):
        loads("vars 2\n1 2 PP\n")
    with pytest.raises(NetworkFormatError):
        loads("calculus RCC5\nvars 2\n1 9 PP\n")
    with pytest.raises(NetworkFormatError) as err:
        loads("calculus RCC5\nvars 2\n1 1 DR\n")
    assert "diagonal" in str(err.value)
    loads("calculus RCC5\nvars 2\n1 1 EQ\n")  # diagonal EQ is accepted


def test_load_of_a_file_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.net"
    path.write_bytes(b"calculus RCC5\nvars 2\n1 2 PP # caf\xe9\n")
    with pytest.raises(NetworkFormatError, match="not UTF-8"):
        load(path)


def test_converse_conflict_detection():
    with pytest.raises(ConverseConflictError):
        loads("calculus RCC5\nvars 2\n1 2 PP\n2 1 PP\n")
    # converse-consistent duplicate is fine
    net = loads("calculus RCC5\nvars 2\n1 2 PP\n2 1 PPi\n")
    assert str(net[0, 1]) == "PP"
    with pytest.raises(ConverseConflictError):
        loads("calculus RCC5\nvars 2\n1 2 PP\n1 2 PO\n")


def test_from_json_converse_conflicts():
    def doc(*constraints):
        return {"calculus": "RCC5", "vars": 2,
                "constraints": [list(c) for c in constraints]}

    for bad in ([(1, 2, "PP"), (1, 2, "DR")], [(1, 2, "PP"), (2, 1, "DR")],
                [(1, 2, "PP"), (2, 1, "PP")]):
        with pytest.raises(ConverseConflictError):
            from_json(doc(*bad))
    for same in ([(1, 2, "PP"), (1, 2, "PP")], [(1, 2, "PP"), (2, 1, "PPi")]):
        assert str(from_json(doc(*same))[0, 1]) == "PP"


def test_index_of_rejects_non_integers():
    net = Network(RCC5, 3, ["a", "b", "c"])
    for bad in (1.7, 1.0, True, False, np.bool_(True), np.float64(1), None):
        with pytest.raises(NetworkShapeError):
            net.index_of(bad)
    assert net.index_of(1) == net.index_of(np.int64(1)) == 1
    assert net.index_of(np.uint16(2)) == net.index_of("c") == 2


def test_save_is_sorted_and_stable(example1):
    text = save(example1)
    lines = [l for l in text.splitlines() if l[0].isdigit()]
    assert lines == sorted(lines, key=lambda l: tuple(map(int, l.split()[:2])))
    assert save(loads(text)) == text


def test_json_round_trip(example1):
    doc = to_json(example1)
    assert doc["schema"] == 1
    assert from_json(doc) == example1
    assert from_json(json.loads(json.dumps(doc))) == example1


@pytest.mark.parametrize("doc", [
    {"calculus": "RCC8"},
    {"calculus": "RCC8", "vars": 2.5},
    {"calculus": "RCC8", "vars": 99999999},
    {"calculus": "IA", "vars": 2},
    {"calculus": 5, "vars": 2},
    {"calculus": "RCC5", "vars": 2, "labels": [1, 2]},
    {"calculus": "RCC5", "vars": 2, "constraints": [[0, 2, "PP"]]},
    {"calculus": "RCC5", "vars": 2, "constraints": [[1.5, 2, "PP"]]},
    {"calculus": "RCC5", "vars": 2, "constraints": [[1, 2, "FOO"]]},
    {"calculus": "RCC5", "vars": 2, "constraints": [[1, 2]]},
    ["calculus", "RCC5"],
])
def test_from_json_rejects_malformed_documents(doc):
    with pytest.raises(RccError):
        from_json(doc)


def test_vars_is_capped_before_allocation():
    for count in (0, MAX_VARS + 1, 99999999, "9" * 5000):
        with pytest.raises(NetworkFormatError):
            loads(f"calculus RCC5\nvars {count}\n")
    with pytest.raises(NetworkFormatError):
        loads("calculus RCC5\nvars 3\nvars 2\n")
    with pytest.raises(NetworkFormatError):
        loads("calculus RCC5\nvars 3\ncalculus RCC8\n")
    assert loads("calculus RCC5\nvars 3\n").n == 3


_LINES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["calculus RCC5", "calculus RCC8", "calculus IA",
                     "vars 3", "vars 0", "vars x", "labels a b c",
                     "labels a a", "# note"]),
    st.builds("{} {} {}".format, st.integers(-1, 4), st.integers(-1, 4),
              st.sampled_from(["PP", "PPi", "EQ", "DC|EC", "*", "0", "FOO",
                               "PP|", "TPP"])))

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(-3, 5)
    | st.text(max_size=6) | st.sampled_from(["RCC5", "RCC8", "PP", "*"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=16)

_NETWORK_DOC = st.dictionaries(
    st.sampled_from(["calculus", "vars", "labels", "constraints", "schema"]),
    _JSON, max_size=5)

_REGION_DOC = st.fixed_dictionaries({"regions": st.lists(
    st.fixed_dictionaries({"id": _JSON, "ring": st.lists(
        st.lists(st.one_of(st.integers(-3, 3), st.floats(-3, 3)),
                 max_size=3) | _JSON, max_size=5) | _JSON}),
    max_size=3)}) | _JSON


@settings(max_examples=100, deadline=None)
@given(st.lists(_LINES, max_size=8).map("\n".join))
def test_loads_raises_only_rcc_errors(text):
    try:
        loads(text).validate()
    except RccError:
        pass


@settings(max_examples=100, deadline=None)
@given(_NETWORK_DOC | _JSON)
def test_from_json_raises_only_rcc_errors(doc):
    try:
        from_json(doc).validate()
    except RccError:
        pass


@settings(max_examples=100, deadline=None)
@given(_REGION_DOC.map(json.dumps) | st.text(max_size=40))
def test_regions_from_json_raises_only_rcc_errors(text):
    try:
        regions_from_json(text)
    except RccError:
        pass


@st.composite
def _any_networks(draw):
    """A 2-12-variable RCC5 or RCC8 network with arbitrary entries, empty
    and universal ones included, and sometimes its own labels: any
    nonempty text without whitespace or '#' is a valid label."""
    calc = draw(st.sampled_from([RCC5, RCC8]))
    n = draw(st.integers(2, 12))
    label = (st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True)
             | st.text(min_size=1, max_size=5).filter(
                 lambda s: "#" not in s and not any(c.isspace() for c in s)))
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n,
                                       unique=True))
    net = Network(calc, n, labels)
    entry = st.sampled_from([0, calc.universal]) | st.integers(0, calc.universal)
    for i in range(n):
        for j in range(i + 1, n):
            net.set_mask(i, j, draw(entry))
    return net


@pytest.mark.parametrize("calc", [RCC5, RCC8], ids=["RCC5", "RCC8"])
def test_format_parse_round_trip(calc):
    # every mask, the empty and universal ones included
    for mask in range(calc.universal + 1):
        assert calc.parse(calc.format(mask)) == mask


@settings(max_examples=100, deadline=None)
@given(_any_networks())
def test_save_loads_round_trip(net):
    assert loads(save(net)) == net


@settings(max_examples=100, deadline=None)
@given(_any_networks())
def test_json_round_trip_property(net):
    assert from_json(json.loads(json.dumps(to_json(net)))) == net


def _loop_constraint_pairs(net):
    """The per-pair loop that listed constraint pairs before
    ``_upper_pairs``, kept as the reference."""
    star = net.calculus.universal
    for i in range(net.n):
        for j in range(i + 1, net.n):
            if net.matrix[i, j] != star:
                yield (i, j)


@settings(max_examples=100, deadline=None)
@given(gen.networks())
def test_constraint_pairs_match_the_pair_loop(net):
    pairs = list(net.constraint_pairs())
    assert pairs == list(_loop_constraint_pairs(net))
    assert net.constraint_count() == len(pairs)
    assert all(type(i) is int and type(j) is int for i, j in pairs)


def test_refines():
    star = Network(RCC5, 3)
    net = Network(RCC5, 3)
    net[0, 1] = "PP"
    assert refines(net, star)
    assert not refines(star, net)
    assert refines(net, net)
    with pytest.raises(NetworkShapeError):
        refines(net, Network(RCC5, 4))
    with pytest.raises(NetworkShapeError):
        refines(net, Network(RCC8, 3))


def test_scenario_refines_source(example1):
    from rcckit.reasoning import solve

    scenario = solve(example1)
    assert scenario.is_scenario
    assert refines(scenario, example1)


def test_aclosure_refines_input(example1):
    closed = a_closure(example1).network
    assert refines(closed, example1)


def test_restrict():
    net = Network(RCC5, 3, ["a", "b", "c"])
    net[0, 1] = "PP"
    one = restrict(net, ["b"])
    assert one.n == 1 and str(one[0, 0]) == "EQ"
    two = restrict(net, ["a", "b"])
    assert str(two[0, 1]) == "PP" and two.labels == ("a", "b")
    again = restrict(restrict(net, ["a", "b"]), ["a"])
    assert again == restrict(net, ["a"])
    with pytest.raises(NetworkShapeError):
        restrict(net, ["nope"])
    with pytest.raises(NetworkShapeError):
        restrict(net, [])


def test_restrict_example1(example1):
    sub = restrict(example1, [0, 1])
    assert str(sub[0, 1]) == "PP"


def test_remove_constraint(example1):
    out = remove_constraint(example1, 0, 1)
    assert out[0, 1].is_universal and out[1, 0].is_universal
    assert example1[0, 1].mask == RCC5.parse("PP")  # input untouched
    assert remove_constraint(out, 0, 1) == out  # idempotent
    star = Network(RCC5, 2)
    assert remove_constraint(star, 0, 1) == star  # universal: no-op
    with pytest.raises(NetworkShapeError):
        remove_constraint(example1, 2, 2)


def test_amalgamate_example2(example2):
    merged = amalgamate(example2, [[0, 1, 2], [3]])
    assert merged.n == 2
    assert str(merged[0, 1]) == "PO"
    assert merged.labels == ("v1", "v4")


def test_amalgamate_singletons_is_identity(example1):
    merged = amalgamate(example1, [[i] for i in range(example1.n)])
    assert merged == example1


def test_amalgamate_dr_pair_is_inconsistent():
    net = Network(RCC5, 2)
    net[0, 1] = "DR"
    with pytest.raises(InconsistentNetworkError):
        amalgamate(net, [[0, 1]])


def test_amalgamate_requires_entailed_equality():
    net = Network(RCC5, 2)
    net[0, 1] = "PP|EQ"
    with pytest.raises(NetworkShapeError):
        amalgamate(net, [[0, 1]])


def test_amalgamate_rejects_partial_partition(example2):
    with pytest.raises(NetworkShapeError):
        amalgamate(example2, [[0, 1], [3]])
    with pytest.raises(NetworkShapeError):
        amalgamate(example2, [[0, 1, 2], [1, 3]])


def test_amalgamate_rejects_uncovered_equalities(example2):
    # v1=v2=v3 is entailed, so splitting them across classes must fail
    with pytest.raises(NetworkShapeError):
        amalgamate(example2, [[0, 1], [2], [3]])


def test_to_rcc5_coarsening():
    net = Network(RCC8, 3)
    net[0, 1] = "DC|EC"
    net[1, 2] = "TPP|NTPP"
    five = to_rcc5(net)
    assert five.calculus is RCC5
    assert str(five[0, 1]) == "DR"
    assert str(five[1, 2]) == "PP"
    assert str(five[2, 1]) == "PPi"
    assert five[0, 2].is_universal


def test_validate_catches_broken_invariants():
    net = Network(RCC5, 2)
    net.matrix[0, 1] = RCC5.parse("PP")
    net.matrix[1, 0] = RCC5.parse("PP")  # should be PPi
    with pytest.raises(NetworkShapeError):
        net.validate()
    net2 = Network(RCC5, 2)
    net2.matrix[0, 0] = RCC5.parse("DR")
    with pytest.raises(NetworkShapeError):
        net2.validate()


def test_digest_is_stable(example1):
    assert example1.digest() == example1.copy().digest()
    other = remove_constraint(example1, 0, 1)
    assert other.digest() != example1.digest()


def test_labels_must_be_unique():
    with pytest.raises(NetworkShapeError):
        Network(RCC5, 2, ["x", "x"])
    with pytest.raises(NetworkShapeError):
        Network(RCC5, 2, ["x"])


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "#", "d#e", "x\n",
                                   "\ud800", 1])
def test_labels_must_survive_save_and_loads(label):
    with pytest.raises(NetworkShapeError):
        Network(RCC5, 2, ["ok", label])
    with pytest.raises(RccError):
        from_json({"calculus": "RCC5", "vars": 2, "labels": ["ok", label]})


def test_copy_keeps_the_labels_and_owns_its_matrix():
    net = Network(RCC5, 2, ["a", "b"])
    twin = net.copy()
    assert twin == net
    twin[0, 1] = "PP"
    assert twin.labels == ("a", "b") and net.mask(0, 1) == RCC5.universal


def test_a_second_labels_line_is_rejected():
    with pytest.raises(NetworkFormatError) as err:
        loads("calculus RCC5\nvars 2\nlabels a b\nlabels c d\n")
    assert err.value.line == 4


def test_from_json_labels_must_be_a_list():
    with pytest.raises(NetworkFormatError):
        from_json({"calculus": "RCC8", "vars": 2, "labels": "ab"})
    net = from_json({"calculus": "RCC8", "vars": 2, "labels": ["a", "b"]})
    assert net.labels == ("a", "b")


def test_equality_includes_labels():
    a = Network(RCC5, 2, ["a", "b"])
    b = Network(RCC5, 2)
    assert a != b
    assert np.array_equal(a.matrix, b.matrix)
