"""Workflow specifications: modules, connections, and the dataflow graph.

A workflow is a directed acyclic graph whose nodes are *module instances* and
whose edges are *connections* between typed ports.  The specification is pure
data — executable behaviour lives in the module registry — which is exactly
what the paper calls **prospective provenance**: the recipe that, together with
inputs and parameters, derives a class of data products.

Workflows are deliberately mutable: the evolution subsystem
(:mod:`repro.evolution`) records every mutation as a change action, following
the VisTrails change-based provenance model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.identity import canonical_json, content_hash, new_id
from repro.workflow.errors import CycleError, SpecError

__all__ = ["Module", "Connection", "Workflow"]


@dataclass
class Module:
    """One module instance placed in a workflow.

    Attributes:
        id: unique instance identifier (``mod-...``).
        type_name: name of the module definition in the registry.
        name: user-facing label (defaults to the type name).
        parameters: per-instance parameter overrides.
        position: (x, y) layout hint, kept for diff/analogy visualization.
    """

    type_name: str
    id: str = field(default_factory=lambda: new_id("mod"))
    name: str = ""
    parameters: Dict[str, Any] = field(default_factory=dict)
    position: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.type_name

    def copy(self) -> "Module":
        """Return an independent copy (same id)."""
        return Module(type_name=self.type_name, id=self.id, name=self.name,
                      parameters=dict(self.parameters), position=self.position)


@dataclass(frozen=True)
class Connection:
    """A dataflow edge from an output port to an input port."""

    source_module: str
    source_port: str
    target_module: str
    target_port: str
    id: str = field(default_factory=lambda: new_id("conn"))

    def endpoints(self) -> Tuple[str, str]:
        """Return (source_module, target_module)."""
        return (self.source_module, self.target_module)


class _TrackedDict(dict):
    """A dict that flags direct writes, so its :class:`Workflow` knows when
    the derived indexes are stale.

    The workflow's own mutators write through the plain ``dict`` methods,
    which leave the flag alone, and update the indexes in step.  Any other
    write (``workflow.connections[key] = ...``, ``del``, ``pop``,
    ``update``, ...) sets ``stale``, and the next structure query rebuilds
    the indexes in one pass.  Reads are ordinary dict reads.
    """

    __slots__ = ("stale",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.stale = True

    def __setitem__(self, key: Any, value: Any) -> None:
        self.stale = True
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        self.stale = True
        super().__delitem__(key)

    def __ior__(self, other: Any) -> "_TrackedDict":
        self.stale = True
        return super().__ior__(other)

    def pop(self, *args: Any) -> Any:
        self.stale = True
        return super().pop(*args)

    def popitem(self) -> Tuple[Any, Any]:
        self.stale = True
        return super().popitem()

    def clear(self) -> None:
        self.stale = True
        super().clear()

    def update(self, *args: Any, **kwargs: Any) -> None:
        self.stale = True
        super().update(*args, **kwargs)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self.stale = True
        return super().setdefault(key, default)


def _tracked(mapping: Dict[str, Any]) -> _TrackedDict:
    """A stale tracked copy of ``mapping`` (keeping a tracked subclass)."""
    kind = type(mapping) if isinstance(mapping, _TrackedDict) else _TrackedDict
    return kind(mapping)


#: Index entry of a module no connection touches.
_NO_EDGES: Mapping[str, Connection] = MappingProxyType({})


class Workflow:
    """A mutable dataflow graph of module instances and connections.

    All mutators raise :class:`SpecError` when they would leave the graph
    referentially inconsistent (dangling connections, duplicate ids).  Static
    semantic checks (types, cycles, unbound mandatory ports) live in
    :mod:`repro.workflow.validation`.

    Structure queries cost time proportional to the module's degree, not to
    the workflow's size: an index maps each module id to the connections
    touching it (in insertion order, so in- and out-edges and bound target
    ports are all read from it).  The mutators keep the index up to date;
    writing to :attr:`modules` or :attr:`connections` directly, or assigning
    either (which stores a copy of the assigned mapping), marks it stale and
    the next query rebuilds it in O(V+E).  The Kahn order and the
    dependents table derived from it are computed once and kept until the
    structure changes.
    """

    def __init__(self, name: str = "workflow",
                 workflow_id: Optional[str] = None) -> None:
        self.id = workflow_id or new_id("wf")
        self.name = name
        #: cached (topological order, dependents); None until computed
        self._plan: Optional[Tuple[List[str], Dict[str, List[str]]]] = None
        #: module id -> {connection id: connection} touching that module
        self._edges: Dict[str, Dict[str, Connection]] = {}
        self.modules = {}
        self.connections = {}

    @property
    def modules(self) -> Dict[str, Module]:
        """Module instances by id."""
        return self._modules

    @modules.setter
    def modules(self, mapping: Dict[str, Module]) -> None:
        self._modules = _tracked(mapping)
        self._plan = None

    @property
    def connections(self) -> Dict[str, Connection]:
        """Connections by id."""
        return self._connections

    @connections.setter
    def connections(self, mapping: Dict[str, Connection]) -> None:
        self._connections = _tracked(mapping)
        self._edges = {}
        self._plan = None

    def __getstate__(self) -> Dict[str, Any]:
        # the indexes are derived; pickles carry plain dicts only
        state = dict(self.__dict__)
        del state["_edges"], state["_plan"]
        state["_modules"] = dict(self._modules)
        state["_connections"] = dict(self._connections)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state = dict(state)
        modules = state.pop("_modules")
        connections = state.pop("_connections")
        self.__dict__.update(state)
        self.modules = modules
        self.connections = connections

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _index(self) -> Dict[str, Dict[str, Connection]]:
        """Connections touching each module id, rebuilt here if stale."""
        connections = self._connections
        if connections.stale:
            edges: Dict[str, Dict[str, Connection]] = {}
            for connection in connections.values():
                _link(edges, connection)
            self._edges = edges
            self._plan = None
            connections.stale = False
        return self._edges

    def _touching(self, module_id: str):
        return self._index().get(module_id, _NO_EDGES).values()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_module(self, module: Module) -> Module:
        """Insert ``module``; its id must be fresh within this workflow."""
        if module.id in self._modules:
            raise SpecError(f"duplicate module id: {module.id}")
        dict.__setitem__(self._modules, module.id, module)
        self._plan = None
        return module

    def remove_module(self, module_id: str) -> Module:
        """Remove a module that has no attached connections."""
        module = self._require_module(module_id)
        attached = list(self._index().get(module_id, _NO_EDGES))
        if attached:
            raise SpecError(
                f"module {module_id} still has connections: {attached}")
        dict.__delitem__(self._modules, module_id)
        self._plan = None
        return module

    def remove_module_cascade(self, module_id: str
                              ) -> Tuple[Module, List[Connection]]:
        """Remove a module and all its connections; return what was removed."""
        self._require_module(module_id)
        edges = self._index()
        removed = list(edges.get(module_id, _NO_EDGES).values())
        for connection in removed:
            dict.__delitem__(self._connections, connection.id)
            _unlink(edges, connection)
        module = dict.pop(self._modules, module_id)
        self._plan = None
        return module, removed

    def add_connection(self, connection: Connection) -> Connection:
        """Insert ``connection``; both endpoint modules must exist."""
        if connection.id in self._connections:
            raise SpecError(f"duplicate connection id: {connection.id}")
        self._require_module(connection.source_module)
        self._require_module(connection.target_module)
        for existing in self._touching(connection.target_module):
            if (existing.target_module == connection.target_module
                    and existing.target_port == connection.target_port):
                raise SpecError(
                    "input port already bound: "
                    f"{connection.target_module}.{connection.target_port}")
        dict.__setitem__(self._connections, connection.id, connection)
        _link(self._edges, connection)
        self._plan = None
        return connection

    def remove_connection(self, connection_id: str) -> Connection:
        """Remove the connection with ``connection_id`` and return it."""
        if connection_id not in self._connections:
            raise SpecError(f"no such connection: {connection_id}")
        edges = self._index()
        connection = dict.pop(self._connections, connection_id)
        _unlink(edges, connection)
        self._plan = None
        return connection

    def connect(self, source_module: str, source_port: str,
                target_module: str, target_port: str) -> Connection:
        """Convenience wrapper building and adding a :class:`Connection`."""
        return self.add_connection(Connection(
            source_module=source_module, source_port=source_port,
            target_module=target_module, target_port=target_port))

    def set_parameter(self, module_id: str, name: str, value: Any) -> None:
        """Set a parameter override on a module instance."""
        self._require_module(module_id).parameters[name] = value

    def unset_parameter(self, module_id: str, name: str) -> Any:
        """Remove a parameter override, returning the previous value."""
        module = self._require_module(module_id)
        if name not in module.parameters:
            raise SpecError(
                f"module {module_id} has no parameter override {name!r}")
        return module.parameters.pop(name)

    def rename_module(self, module_id: str, name: str) -> None:
        """Change the user-facing label of a module."""
        self._require_module(module_id).name = name

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def _require_module(self, module_id: str) -> Module:
        if module_id not in self._modules:
            raise SpecError(f"no such module: {module_id}")
        return self._modules[module_id]

    def incoming(self, module_id: str) -> List[Connection]:
        """Connections whose target is ``module_id``, sorted by port name."""
        found = [c for c in self._touching(module_id)
                 if c.target_module == module_id]
        return sorted(found, key=lambda c: c.target_port)

    def outgoing(self, module_id: str) -> List[Connection]:
        """Connections whose source is ``module_id``, sorted by port name."""
        found = [c for c in self._touching(module_id)
                 if c.source_module == module_id]
        return sorted(found, key=lambda c: (c.source_port, c.target_module))

    def predecessors(self, module_id: str) -> List[str]:
        """Distinct upstream neighbour module ids (sorted)."""
        return sorted({c.source_module for c in self._touching(module_id)
                       if c.target_module == module_id})

    def successors(self, module_id: str) -> List[str]:
        """Distinct downstream neighbour module ids (sorted)."""
        return sorted({c.target_module for c in self._touching(module_id)
                       if c.source_module == module_id})

    def sources(self) -> List[str]:
        """Module ids with no incoming connections (sorted)."""
        targets = {c.target_module for c in self.connections.values()}
        return sorted(m for m in self.modules if m not in targets)

    def sinks(self) -> List[str]:
        """Module ids with no outgoing connections (sorted)."""
        origins = {c.source_module for c in self.connections.values()}
        return sorted(m for m in self.modules if m not in origins)

    def topological_order(self) -> List[str]:
        """Kahn topological order of module ids, deterministic by id.

        Raises :class:`CycleError` when the graph has a cycle.
        """
        return list(self._kahn()[0])

    def dependents(self) -> Dict[str, List[str]]:
        """Distinct downstream neighbours of every module (sorted lists).

        Comes from the same cached pass as :meth:`topological_order` (so it
        raises :class:`CycleError` likewise) and is shared: callers must
        not mutate it.
        """
        return self._kahn()[1]

    def _kahn(self) -> Tuple[List[str], Dict[str, List[str]]]:
        self._index()
        if self._modules.stale:
            self._modules.stale = False
            self._plan = None
        plan = self._plan
        if plan is not None:
            return plan
        # in-degree counts distinct predecessors: two connections between
        # the same module pair (e.g. image + header) are one dependency
        in_degree = {module_id: len(self.predecessors(module_id))
                     for module_id in self._modules}
        # a heap pops the smallest ready id, as a sorted ready list would
        ready = [m for m, d in in_degree.items() if d == 0]
        heapq.heapify(ready)
        order: List[str] = []
        dependents: Dict[str, List[str]] = {}
        while ready:
            current = heapq.heappop(ready)
            order.append(current)
            dependents[current] = following = self.successors(current)
            for successor in following:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    heapq.heappush(ready, successor)
        if len(order) != len(self._modules):
            stuck = sorted(m for m, d in in_degree.items() if d > 0)
            raise CycleError(f"workflow contains a cycle through: {stuck}")
        self._plan = plan = (order, dependents)
        return plan

    def upstream_modules(self, module_id: str) -> List[str]:
        """All transitive predecessors of ``module_id`` (sorted)."""
        return self._closure(module_id, self.predecessors)

    def downstream_modules(self, module_id: str) -> List[str]:
        """All transitive successors of ``module_id`` (sorted)."""
        return self._closure(module_id, self.successors)

    def _closure(self, start: str, step) -> List[str]:
        self._require_module(start)
        seen: set = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in step(current):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return sorted(seen)

    # ------------------------------------------------------------------
    # identity and copying
    # ------------------------------------------------------------------
    def structure_dict(self) -> Dict[str, Any]:
        """A canonical, id-independent description of the graph structure.

        Module ids are replaced with stable indexes assigned in topological
        order (ties broken by type then name) so that two structurally equal
        workflows built independently hash identically.
        """
        ordered = sorted(
            self.modules.values(),
            key=lambda m: (m.type_name, m.name, canonical_json(m.parameters),
                           m.id))
        index = {module.id: position for position, module
                 in enumerate(ordered)}
        return {
            "modules": [
                {"type": m.type_name, "name": m.name,
                 "parameters": m.parameters}
                for m in ordered
            ],
            "connections": sorted(
                [index[c.source_module], c.source_port,
                 index[c.target_module], c.target_port]
                for c in self.connections.values()
            ),
        }

    def signature(self) -> str:
        """Content hash identifying this workflow's structure."""
        return content_hash(canonical_json(self.structure_dict())
                            .encode("utf-8"))

    def copy(self, new_id_: Optional[str] = None) -> "Workflow":
        """Deep-copy the workflow (same module/connection ids)."""
        duplicate = Workflow(name=self.name,
                             workflow_id=new_id_ or new_id("wf"))
        duplicate.modules = {module_id: module.copy()
                             for module_id, module in self.modules.items()}
        duplicate.connections = self.connections
        return duplicate

    def __len__(self) -> int:
        return len(self.modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules.values())

    def __repr__(self) -> str:
        return (f"Workflow({self.name!r}, modules={len(self.modules)}, "
                f"connections={len(self.connections)})")


def _link(edges: Dict[str, Dict[str, Connection]],
          connection: Connection) -> None:
    edges.setdefault(connection.source_module, {})[connection.id] = connection
    edges.setdefault(connection.target_module, {})[connection.id] = connection


def _unlink(edges: Dict[str, Dict[str, Connection]],
            connection: Connection) -> None:
    for module_id in (connection.source_module, connection.target_module):
        touching = edges.get(module_id)
        if touching is not None:
            touching.pop(connection.id, None)
            if not touching:
                del edges[module_id]
