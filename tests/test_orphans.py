"""Every top-level public function and class in `src/taucubic`, and every
public method and property of a public class, is used by the package itself,
apart from a short list of references that tests compare against.
`__init__.py` only re-exports, so it neither defines nor uses."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "taucubic"

# name or "Class.method" -> why it stays although nothing in src/ reads it
KEPT = {
    "has_common_projective_zero": "brute-force reference for the Macaulay resultant (criterion 13)",
    "tau_form": "invariance oracle of the tau tests",
    "exact_divide": "factorization oracle of criteria 2 and 13",
    "encode_instance": "writes the instance wire format the frozen fixtures use",
    "surface_points": "completeness reference for the fibre walk",
    "VerificationReport.canonical_text": "the text the report digests hash",
}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _definitions(modules):
    """name -> (module, node) of every public top-level function and class, and
    "Class.method" -> (module, node) of every public method of a public class."""
    out = {}
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = (stem, node)
                for meth in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_"):
                        out[f"{node.name}.{meth.name}"] = (stem, meth)
    return out


def _reads(node):
    """How often each name or attribute is read in ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _orphans():
    """The public names read nowhere in the package outside their own
    definition; a method counts as read wherever an attribute of its name is."""
    modules = _modules()
    everywhere = sum(map(_reads, modules.values()), Counter())
    out = {}
    for name, (stem, own) in _definitions(modules).items():
        read = name.rsplit(".", 1)[-1]
        if everywhere[read] == _reads(own)[read]:
            out[name] = stem
    return out


def test_no_orphans_outside_the_kept_list():
    unexpected = {name: stem for name, stem in _orphans().items() if name not in KEPT}
    assert not unexpected, f"public names nothing in src/ uses: {unexpected}"


def test_kept_list_is_current():
    # a kept name that is gone, or that src/ now uses, comes off the list
    assert set(KEPT) <= set(_definitions(_modules()))
    assert set(KEPT) == set(_orphans())


# "function" or "Class.method" -> {defaulted parameter: why it stays although
# no call in src/ sets it}
KEPT_PARAMS = {
    "canonical_instance": {"domain": "tests and fixtures build the canonical instance over F_p"},
    "sample_instance": {"retries": "tests exhaust the gate in a few draws"},
    "has_common_projective_zero": {
        "max_ext_degree": "a reference only tests call (KEPT above); they set it"},
    "main": {"argv": "argparse idiom: None reads sys.argv, a list drives the CLI in-process"},
}


def _public_signatures(modules):
    """(qualified name, name calls use, positional offset, FunctionDef) of every
    public function and public method of a public class; ``__init__`` is
    called by its class name, and a method's first parameter is bound."""
    for tree in modules.values():
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield node.name, node.name, 0, node
            elif isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if not isinstance(meth, ast.FunctionDef):
                        continue
                    if meth.name == "__init__":
                        yield f"{node.name}.__init__", node.name, 1, meth
                    elif not meth.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in meth.decorator_list)
                        yield f"{node.name}.{meth.name}", meth.name, 0 if static else 1, meth


def _defaulted(fn):
    """(position or None for keyword-only, name) of each parameter with a default."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    out = [(i, a.arg) for i, a in enumerate(args) if i >= first]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _calls(modules):
    """Per called name (a bare name or the attribute of a method call): the
    keywords some call passes, the most positional arguments any call passes,
    and whether a call splats ``*args`` or ``**kwargs``."""
    seen = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            kw, npos, splat = seen.get(name, (set(), 0, False))
            kw = kw | {k.arg for k in node.keywords if k.arg}
            splat = splat or any(k.arg is None for k in node.keywords) \
                or any(isinstance(a, ast.Starred) for a in node.args)
            seen[name] = (kw, max(npos, len(node.args)), splat)
    return seen


def _unset_parameters():
    """{qualified name: [defaulted parameters no call in src/ sets]}.  Calls
    are matched by bare name, so a parameter set through a same-named callee
    counts as set: the check can miss a knob, never invent one."""
    modules = _modules()
    calls = _calls(modules)
    out = {}
    for qual, called, offset, fn in _public_signatures(modules):
        kw, npos, splat = calls.get(called, (set(), 0, False))
        unset = [name for pos, name in _defaulted(fn)
                 if not splat and name not in kw and (pos is None or pos - offset >= npos)]
        if unset:
            out[qual] = unset
    return out


def test_no_unset_parameters():
    # a default that no caller in src/ overrides is a constant, not a parameter
    unexpected = {qual: [p for p in params if p not in KEPT_PARAMS.get(qual, {})]
                  for qual, params in _unset_parameters().items()}
    unexpected = {qual: params for qual, params in unexpected.items() if params}
    assert not unexpected, f"defaulted parameters no call in src/ sets: {unexpected}"


def test_kept_params_are_current():
    # a kept parameter that is gone, or that src/ now sets, comes off the list
    unset = _unset_parameters()
    assert {(q, p) for q, ps in KEPT_PARAMS.items() for p in ps} == \
        {(q, p) for q, ps in unset.items() for p in ps if p in KEPT_PARAMS.get(q, {})}
