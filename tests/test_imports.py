"""Every name a glie module imports is used in that module, every private
top-level name of glie is read somewhere in glie, the main pipelines import
no numpy submodule lazily, only the expression interpreter dispatches
on expression node types, the gradings and identities layers leave GF(q)
arithmetic to the field layer, and the algebra layer keeps one prime-field
path of its own, in batch_bracket.

An import left behind when the code that used it is deleted keeps a
dependency alive that nothing needs, and hides from a reader that the
module no longer relies on it; a private helper left behind when its last
caller is deleted is dead code in the same way.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glie"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_imports():
    source = ("import random\n"
              "import numpy as np\n"
              "from .errors import TheoremViolation, SpecError\n"
              "def f(m: np.ndarray):\n"
              "    \"\"\"TheoremViolation is named only here.\"\"\"\n"
              "    raise SpecError(m)\n")
    assert unused_imports(source) == [(1, "random"), (3, "TheoremViolation")]


def test_src_modules_use_every_import():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: unused for name, unused in found.items() if unused} == {}


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) of each private top-level function, class or
    assignment of the modules (name -> source) that no module reads, by
    name, as an attribute or in an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found.extend((module, n) for n in names
                         if n.startswith("_") and not n.startswith("__") and n not in read)
    return sorted(found)


def test_scan_finds_unreferenced_private_names():
    sources = {"a.py": ("_LIMIT = 3\n"
                        "_unused: int = 4\n"
                        "_KEY = 5\n"
                        "def _helper():\n"
                        "    return _LIMIT\n"
                        "def _dead():\n"
                        "    return _helper()\n"
                        "class _Gone:\n"
                        "    pass\n"),
               "b.py": ("from . import a\n"
                        "from .a import _helper\n"
                        "x = _helper() + a._KEY\n")}
    assert unreferenced_private_names(sources) == [
        ("a.py", "_Gone"), ("a.py", "_dead"), ("a.py", "_unused")]


def test_src_private_names_are_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert unreferenced_private_names(sources) == []


def test_pipelines_do_not_import_numpy_ma():
    """A plain np.unique(a) asks np.ma.is_masked, which imports numpy.ma on
    first use: about 15 ms, as long as a whole q = 7 basis check.  Neither
    the q = 5 basis check nor the p = 5 gradings pipeline may do that."""
    code = (
        "import sys\n"
        "from glie import gradings\n"
        "from glie.algebra import sl2\n"
        "from glie.fields import FieldSpec\n"
        "from glie.freelie import set_s\n"
        "from glie.identities import basis_check, default_sl2_windows\n"
        "spec = FieldSpec.prime(5)\n"
        "assert basis_check(sl2(spec), set_s(5), default_sl2_windows(5)).ok\n"
        "for target, check in (('sl2_lie', gradings.natural_characterization),\n"
        "                      ('m2_assoc', gradings.unit_component_check)):\n"
        "    descriptors = gradings.enumerate_z2_gradings(target, spec)\n"
        "    gradings.classify_up_to_iso(descriptors)\n"
        "    for d in descriptors:\n"
        "        check(d)\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


NODE_TYPES = {"Var", "Sum", "Scale", "Ad"}


def top_level_defs(tree: ast.Module) -> list:
    """The top-level functions and the methods of top-level classes."""
    return [node for top in tree.body
            for node in ([top] + (top.body if isinstance(top, ast.ClassDef) else []))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def node_dispatchers(source: str) -> set:
    """Names of the top-level functions and methods that test isinstance
    against an expression node type, nested functions counting as theirs."""
    found = set()
    for fn in top_level_defs(ast.parse(source)):
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                    & NODE_TYPES):
                found.add(fn.name)
    return found


def test_scan_finds_node_dispatch():
    source = ("def walk(e):\n"
              "    def inner(n):\n"
              "        return isinstance(n, (Var, Sum))\n"
              "    return inner(e)\n"
              "class K:\n"
              "    def m(self, e):\n"
              "        return isinstance(e, Ad)\n"
              "def other(e):\n"
              "    return isinstance(e, LiePolynomial)\n")
    assert node_dispatchers(source) == {"walk", "m"}


def test_only_the_interpreter_dispatches_on_node_types():
    """Variables, parity, degree forms and residues are backends of
    freelie._interpret; a walker of its own would repeat its dispatch."""
    found = {path.name: node_dispatchers(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("freelie.py") == {"_children", "_interpret", "replace"}
    assert {name: fns for name, fns in found.items() if fns} == {}


def field_attribute_reads(source: str) -> list:
    """(line, attribute) of each read of an attribute named p or k: the
    characteristic and the degree of a FieldSpec or BatchField, which only
    code that does its own mod-p arithmetic needs."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("p", "k"))


def field_attribute_readers(source: str) -> set:
    """Names of the top-level functions and methods that read an attribute
    named p or k, nested functions counting as theirs, and "<module>" if a
    read lies outside them."""
    tree = ast.parse(source)

    def reads(node):
        return {n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr in ("p", "k")}

    defs = top_level_defs(tree)
    found = {fn.name for fn in defs if reads(fn)}
    return found | ({"<module>"} if reads(tree) - set().union(*map(reads, defs)) else set())


def test_scan_finds_field_attribute_reads():
    source = ("def f(spec, a, bf):\n"
              "    q = spec.q\n"
              "    if spec.k != 1:\n"
              "        return a % spec.p\n"
              "    return bf.mul(a, a), q\n")
    assert field_attribute_reads(source) == [(3, "k"), (4, "p")]


def test_gradings_and_identities_do_no_field_arithmetic():
    """GF(q) is computed in fields and linalg (BatchField, matmul_codes,
    rref_codes, rref_stack) and in the algebra and freelie kernels; a layer
    above them that reads spec.p or spec.k would have a prime-only path."""
    found = {name: field_attribute_reads((SRC / name).read_text())
             for name in ("gradings.py", "identities.py")}
    assert found == {"gradings.py": [], "identities.py": []}


def test_scan_finds_field_attribute_readers():
    source = ("P = spec.p\n"
              "def f(spec):\n"
              "    return spec.q\n"
              "class K:\n"
              "    def m(self):\n"
              "        def inner():\n"
              "            return self.spec.k\n"
              "        return inner()\n"
              "    def n(self, bf):\n"
              "        return bf.mul(self.q, 1)\n"
              "def g(bf, a):\n"
              "    return a % bf.p\n")
    assert field_attribute_readers(source) == {"<module>", "m", "g"}
    assert field_attribute_readers("def f(spec):\n    return spec.q\n") == set()


def test_algebra_keeps_one_prime_field_path():
    """batch_ad_powers and _ad_power_matrices compute in GF(q) through
    matmul_codes alone.  Only batch_bracket keeps a prime-field path of its
    own, an int64 sum reduced mod p once, which is faster on the rows of a
    check than a product through matmul_codes."""
    assert field_attribute_readers((SRC / "algebra.py").read_text()) == {"batch_bracket"}
