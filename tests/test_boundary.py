"""One boundary between field elements and plain numbers: each domain in
`scalars.py` converts its own coefficient lists (``plain_list``,
``from_plain``).  Outside that module only the wire format,
``harness.encode_scalar``, reads an element's residue, and none of the
per-kernel converters the domains replaced is defined again.  Nor is the
element polynomial route the root engine's one list arithmetic replaced: it
lives on in ``tests/test_roots.py`` as the oracle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "taucubic"

CONVERTERS = {"_plain", "_plain_form", "_modulus", "cleared", "_residues", "_elements"}
ELEMENT_ROUTE = {"divmod_poly", "scale", "derivative"}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_residues_are_read_only_in_scalars_and_the_wire_format():
    readers = {(name, getattr(node, "name", f"line {node.lineno}"))
               for name, tree in _modules().items() if name != "scalars.py"
               for node in tree.body
               if any(isinstance(n, ast.Attribute) and n.attr == "residue"
                      for n in ast.walk(node))}
    assert readers == {("harness.py", "encode_scalar")}


def test_no_per_kernel_converter_is_defined():
    modules = _modules()
    defined = {(name, node.name) for name, tree in modules.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in CONVERTERS}
    defined |= {(name, t.id) for name, tree in modules.items() for node in tree.body
                if isinstance(node, ast.Assign) for t in node.targets
                if isinstance(t, ast.Name) and t.id in CONVERTERS}
    assert not defined


def test_no_element_polynomial_route_is_defined():
    # module level only: ``Form.scale``, a form times a scalar, is another job
    defined = {(name, node.name) for name, tree in _modules().items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ELEMENT_ROUTE}
    defined |= {(name, t.id) for name, tree in _modules().items() for node in tree.body
                if isinstance(node, ast.Assign) for t in node.targets
                if isinstance(t, ast.Name) and t.id in ELEMENT_ROUTE}
    assert not defined
