"""Document round-trips and strict rejection of malformed input."""

import numpy as np
import pytest

from mixednorm import (
    Axis,
    NormSpec,
    ProductSpace,
    Tensor,
    ValidationError,
    space_from_doc,
    space_to_doc,
    tensor_from_csv,
    tensor_from_doc,
    tensor_to_doc,
)


@pytest.fixture
def space():
    return ProductSpace((Axis("x1", (1.0, 2.0)), Axis("x2", (0.5, 0.5, 3.0))))


def test_space_round_trip(space):
    assert space_from_doc(space_to_doc(space)) == space


@pytest.mark.parametrize(
    "doc",
    [
        None,
        {},
        {"axes": []},
        {"axes": [{"id": "a"}]},
        {"axes": [{"id": "a", "weights": "1,2"}]},
        {"axes": [{"id": "a", "weights": [1.0, -1.0]}]},
        {"axes": [{"id": "a", "weights": ["1", "2"]}]},
        {"axes": [{"id": "a", "weights": [True, 2]}]},
        {"axes": [{"id": "a", "weights": [1.0]}, {"id": "a", "weights": [1.0]}]},
        {"axes": [{"id": f"x{i}", "weights": [1.0]} for i in range(63)]},  # over 62 axes
    ],
)
def test_space_from_doc_rejects(doc):
    with pytest.raises(ValidationError):
        space_from_doc(doc)


def test_tensor_round_trip(space):
    t = Tensor.from_flat(space, range(1, 7))
    doc = tensor_to_doc(t)
    back = tensor_from_doc(doc)
    assert back.space == space
    assert np.array_equal(back.values, t.values)
    # without the inline space an explicit one is required
    bare = tensor_to_doc(t, inline_space=False)
    assert "space" not in bare
    with pytest.raises(ValidationError, match="inline space"):
        tensor_from_doc(bare)
    again = tensor_from_doc(bare, space)
    assert np.array_equal(again.values, t.values)


def test_inline_space_must_match_provided(space):
    t = Tensor.from_flat(space, range(1, 7))
    doc = tensor_to_doc(t)
    other = ProductSpace((Axis("x1", (9.0, 2.0)), Axis("x2", (0.5, 0.5, 3.0))))
    with pytest.raises(ValidationError, match="disagrees"):
        tensor_from_doc(doc, other)


def test_tensor_doc_validation(space):
    good = tensor_to_doc(Tensor.from_flat(space, range(1, 7)))
    wrong_shape = dict(good, shape=[3, 2])
    with pytest.raises(ValidationError, match="shape"):
        tensor_from_doc(wrong_shape)
    short = dict(good, values=good["values"][:-1])
    with pytest.raises(ValidationError, match="expected 6"):
        tensor_from_doc(short)
    bad_value = dict(good, values=good["values"][:-1] + ["x"])
    with pytest.raises(ValidationError, match="flat index 5"):
        tensor_from_doc(bad_value)
    negative = dict(good, values=[-1.0] + good["values"][1:])
    with pytest.raises(ValidationError, match="flat index 0"):
        tensor_from_doc(negative)


def test_csv_tensor(space):
    text = "# shape: 2,3\n1, 2, 3\n4 5 6\n"
    t = tensor_from_csv(text, space)
    assert t.values[1, 2] == 6.0
    assert np.array_equal(t.values, np.arange(1.0, 7.0).reshape(2, 3))
    # the same text goes through tensor_from_doc
    t2 = tensor_from_doc(text, space)
    assert np.array_equal(t2.values, t.values)


def test_csv_rejections(space):
    with pytest.raises(ValidationError, match="shape"):
        tensor_from_csv("1,2,3\n4,5,6\n", space)
    with pytest.raises(ValidationError, match="does not match"):
        tensor_from_csv("# shape: 3,2\n1,2,3\n4,5,6\n", space)
    with pytest.raises(ValidationError, match="expected 6"):
        tensor_from_csv("# shape: 2,3\n1,2,3\n", space)
    with pytest.raises(ValidationError, match="bad CSV value"):
        tensor_from_csv("# shape: 2,3\n1,2,3\n4,5,x\n", space)
    with pytest.raises(ValidationError, match="explicit space"):
        tensor_from_doc("# shape: 2,3\n1,2,3\n4,5,6\n")


def test_load_validated(space):
    sdoc = space_to_doc(space)
    tdoc = tensor_to_doc(Tensor.from_flat(space, range(1, 7)), inline_space=False)
    got = tensor_from_doc(tdoc, space_from_doc(sdoc))
    assert got.space == space
    assert got.values[0, 1] == 2.0


def test_norm_spec_doc_round_trip():
    spec = NormSpec((("4/3", "a"), ("inf", "b"), (2, "c")))
    assert NormSpec.from_doc(spec.to_doc()) == spec
    with pytest.raises(ValidationError):
        NormSpec.from_doc({"columns": [{"p": "2"}]})
    with pytest.raises(ValidationError):
        NormSpec.from_doc({"cols": []})
