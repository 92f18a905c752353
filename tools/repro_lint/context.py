"""Per-file analysis context shared by all rules.

One :class:`FileContext` is built per linted file.  It owns the parsed
AST plus the derived indexes every rule wants — import aliases, a
child→parent node map, and the repo-relative posix path used for
path-scoped rules (e.g. RL006 only applies inside ``repro/`` solver
modules).  Building these once per file keeps each rule a small, pure
AST walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Set


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: str  # as passed on the command line (for reports)
    rel_path: str  # posix path relative to the lint root (for scoping)
    source: str
    tree: ast.Module
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(
        default=None, repr=False
    )
    _numpy_aliases: Optional[Set[str]] = field(default=None, repr=False)
    _module_imports: Optional[Set[str]] = field(default=None, repr=False)
    _from_imports: Optional[Dict[str, str]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent map over the whole tree (built lazily)."""
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module)."""
        return self.parents.get(node)

    # ------------------------------------------------------------------
    def _index_imports(self) -> None:
        numpy_aliases: Set[str] = set()
        modules: Set[str] = set()
        from_imports: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    modules.add(alias.asname or alias.name)
                    if alias.name in ("numpy", "numpy.random"):
                        numpy_aliases.add(name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    from_imports[local] = f"{node.module}.{alias.name}"
        self._numpy_aliases = numpy_aliases
        self._module_imports = modules
        self._from_imports = from_imports

    @property
    def numpy_aliases(self) -> Set[str]:
        """Local names bound to the numpy module (``np``, ``numpy``, …)."""
        if self._numpy_aliases is None:
            self._index_imports()
        assert self._numpy_aliases is not None
        return self._numpy_aliases

    @property
    def module_imports(self) -> Set[str]:
        """Module names imported with ``import X`` / ``import X as Y``."""
        if self._module_imports is None:
            self._index_imports()
        assert self._module_imports is not None
        return self._module_imports

    @property
    def from_imports(self) -> Dict[str, str]:
        """``from M import N [as A]`` bindings: local name → ``M.N``."""
        if self._from_imports is None:
            self._index_imports()
        assert self._from_imports is not None
        return self._from_imports

    # ------------------------------------------------------------------
    def imports_module(self, name: str) -> bool:
        """True when the file does ``import <name>`` (any alias)."""
        return name in self.module_imports

    def in_repro_package(self) -> bool:
        """True when the file lives under a ``repro/`` package dir."""
        return "repro" in self.rel_path.split("/")

    def repro_subpath(self) -> Optional[str]:
        """Path below the ``repro/`` package root, or None.

        ``src/repro/ising/gibbs.py`` → ``ising/gibbs.py``.
        """
        parts = self.rel_path.split("/")
        if "repro" not in parts:
            return None
        idx = parts.index("repro")
        return "/".join(parts[idx + 1 :])
