"""External document formats.

Space documents:   {"axes": [{"id": "x1", "weights": [1.0, 2.0]}, ...]}
Tensor documents:  {"space": <inline space or name>, "shape": [...], "values": [...]}
                   or CSV text whose first line is '# shape: d1,d2,...' followed
                   by the values in row-major order.
Documents are rejected, never repaired; messages name the offending entry.
"""

from __future__ import annotations

from .errors import ValidationError, as_count
from .spaces import Tensor
from .specs import Axis, ProductSpace


def space_to_doc(space: ProductSpace) -> dict:
    return {"axes": [{"id": a.id, "weights": list(a.weights)} for a in space.axes]}


def space_from_doc(doc) -> ProductSpace:
    if not isinstance(doc, dict) or "axes" not in doc:
        raise ValidationError("space document must be an object with an 'axes' list")
    axes_doc = doc["axes"]
    if not isinstance(axes_doc, list) or not axes_doc:
        raise ValidationError("space document 'axes' must be a nonempty list")
    axes = []
    for i, a in enumerate(axes_doc):
        if not isinstance(a, dict) or "id" not in a or "weights" not in a:
            raise ValidationError(f"axis entry {i} must have 'id' and 'weights'")
        if not isinstance(a["weights"], list):
            raise ValidationError(f"axis {a.get('id')!r}: 'weights' must be a list")
        axes.append(Axis(a["id"], tuple(a["weights"])))
    return ProductSpace(tuple(axes))


def tensor_to_doc(t: Tensor, inline_space: bool = True) -> dict:
    doc = {
        "shape": list(t.space.shape),
        "values": t.values.reshape(-1).tolist(),
    }
    if inline_space:
        doc["space"] = space_to_doc(t.space)
    return doc


def tensor_from_csv(text: str, space: ProductSpace) -> Tensor:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValidationError("CSV tensor must start with a '# shape: d1,d2,...' line")
    header = lines[0].lstrip("#").strip()
    if not header.lower().startswith("shape:"):
        raise ValidationError("CSV tensor must start with a '# shape: d1,d2,...' line")
    try:
        shape = tuple(int(tok) for tok in header.split(":", 1)[1].split(","))
    except ValueError as exc:
        raise ValidationError(f"bad CSV shape header: {header!r}") from exc
    if shape != space.shape:
        raise ValidationError(f"CSV shape {shape} does not match space shape {space.shape}")
    values = []
    for ln in lines[1:]:
        for tok in ln.replace(",", " ").split():
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise ValidationError(f"bad CSV value {tok!r}") from exc
    return Tensor.from_flat(space, values)


def tensor_from_doc(doc, space: ProductSpace | None = None) -> Tensor:
    """Build a Tensor from a JSON document or CSV text, validating everything."""
    if isinstance(doc, str):
        if space is None:
            raise ValidationError("CSV tensors need an explicit space document")
        return tensor_from_csv(doc, space)
    if not isinstance(doc, dict):
        raise ValidationError("tensor document must be an object or CSV text")
    inline = doc.get("space")
    if isinstance(inline, dict):
        inline_space = space_from_doc(inline)
        if space is not None and inline_space != space:
            raise ValidationError("tensor's inline space disagrees with the provided space")
        space = inline_space if space is None else space
    elif space is None:
        raise ValidationError(
            "tensor document has no inline space; provide a space document"
        )
    if "shape" not in doc or "values" not in doc:
        raise ValidationError("tensor document must have 'shape' and 'values'")
    if not isinstance(doc["shape"], list) or not isinstance(doc["values"], list):
        raise ValidationError("tensor 'shape' and 'values' must be lists")
    shape = tuple(as_count(d, "tensor shape entry") for d in doc["shape"])
    if shape != space.shape:
        raise ValidationError(f"tensor shape {shape} does not match space shape {space.shape}")
    return Tensor.from_flat(space, doc["values"])
