"""Every top-level public function and class in `src/taucubic` is used by the
package itself, apart from a short list of references that tests compare
against.  `__init__.py` only re-exports, so it neither defines nor uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "taucubic"

# name -> why it stays although nothing in src/ calls it
KEPT = {
    "has_common_projective_zero": "brute-force reference for the Macaulay resultant (criterion 13)",
    "tau_form": "invariance oracle of the tau tests",
    "exact_divide": "factorization oracle of criteria 2 and 13",
    "encode_instance": "writes the instance wire format the frozen fixtures use",
    "surface_points": "completeness reference for the fibre walk",
}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _definitions(modules):
    return {node.name: (stem, node) for stem, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _names_read(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _orphans():
    """The public names read nowhere in the package outside their own definition."""
    modules = _modules()
    reads = [(node, _names_read(node)) for tree in modules.values() for node in tree.body]
    return {name: stem for name, (stem, own) in _definitions(modules).items()
            if not any(name in names for node, names in reads if node is not own)}


def test_no_orphans_outside_the_kept_list():
    unexpected = {name: stem for name, stem in _orphans().items() if name not in KEPT}
    assert not unexpected, f"public names nothing in src/ uses: {unexpected}"


def test_kept_list_is_current():
    # a kept name that is gone, or that src/ now uses, comes off the list
    assert set(KEPT) <= set(_definitions(_modules()))
    assert set(KEPT) == set(_orphans())
