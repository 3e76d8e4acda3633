"""The Workflow adjacency index: parity with a brute-force scan, and scaling.

``Workflow`` answers structure queries from an index of the connections
touching each module.  These tests hold it to the answers a full scan of
``connections`` gives, through every way the graph can change (mutators,
direct dict writes, wholesale reassignment, ``copy()`` and pickling), and
count full scans of the connection mapping to show that one execution does
a fixed number of them whatever the workflow's size.
"""

from __future__ import annotations

import pickle

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core import ProvenanceCapture
from repro.workflow import Executor, Module, Workflow
from repro.workflow.errors import CycleError, SpecError
from repro.workflow.spec import Connection, _TrackedDict
from repro.workloads import chain_workflow

MODULE_IDS = [f"mod-{index}" for index in range(6)]
PORTS = ["a", "b"]


# ----------------------------------------------------------------------
# brute-force reference: every answer from one scan of all connections
# ----------------------------------------------------------------------
def ref_incoming(workflow, module_id):
    found = [c for c in list(workflow.connections.values())
             if c.target_module == module_id]
    return sorted(found, key=lambda c: c.target_port)


def ref_outgoing(workflow, module_id):
    found = [c for c in list(workflow.connections.values())
             if c.source_module == module_id]
    return sorted(found, key=lambda c: (c.source_port, c.target_module))


def ref_order(workflow):
    """Kahn order with a sorted ready list, or the exception it raises."""
    modules = list(workflow.modules)

    def successors(module_id):
        return sorted({c.target_module for c in ref_outgoing(workflow,
                                                             module_id)})

    in_degree = {m: len({c.source_module
                         for c in ref_incoming(workflow, m)})
                 for m in modules}
    ready = sorted(m for m, d in in_degree.items() if d == 0)
    order = []
    try:
        while ready:
            current = ready.pop(0)
            order.append(current)
            for successor in successors(current):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready = sorted(ready + [successor])
    except KeyError as exc:
        return ("KeyError", str(exc))
    if len(order) != len(modules):
        stuck = sorted(m for m, d in in_degree.items() if d > 0)
        return ("CycleError", f"workflow contains a cycle through: {stuck}")
    return order


def outcome(call):
    try:
        return call()
    except (CycleError, KeyError) as exc:
        return (type(exc).__name__, str(exc))


class IndexParity(RuleBasedStateMachine):
    """Random edits; after each one the index must match a full scan."""

    @initialize()
    def start(self):
        self.workflow = Workflow("parity", workflow_id="wf-parity")
        self.serial = 0

    def fresh_connection_id(self):
        self.serial += 1
        return f"conn-{self.serial}"

    # -- mutators --------------------------------------------------------
    @rule(module_id=st.sampled_from(MODULE_IDS))
    def add_module(self, module_id):
        expect_error = module_id in self.workflow.modules
        try:
            self.workflow.add_module(Module("Constant", id=module_id))
        except SpecError:
            assert expect_error
        else:
            assert not expect_error

    @rule(module_id=st.sampled_from(MODULE_IDS))
    def remove_module(self, module_id):
        attached = [c.id for c in list(self.workflow.connections.values())
                    if module_id in c.endpoints()]
        expect_error = module_id not in self.workflow.modules or attached
        try:
            self.workflow.remove_module(module_id)
        except SpecError as exc:
            assert expect_error
            if attached and "still has connections" in str(exc):
                assert str(attached) in str(exc)
        else:
            assert not expect_error

    @rule(module_id=st.sampled_from(MODULE_IDS))
    def remove_module_cascade(self, module_id):
        attached = [c for c in list(self.workflow.connections.values())
                    if module_id in c.endpoints()]
        if module_id not in self.workflow.modules:
            try:
                self.workflow.remove_module_cascade(module_id)
            except SpecError:
                return
            raise AssertionError("cascade removed a missing module")
        _, removed = self.workflow.remove_module_cascade(module_id)
        assert removed == attached

    @rule(source=st.sampled_from(MODULE_IDS),
          source_port=st.sampled_from(PORTS),
          destination=st.sampled_from(MODULE_IDS),
          target_port=st.sampled_from(PORTS),
          reuse_id=st.booleans())
    def add_connection(self, source, source_port, destination, target_port,
                       reuse_id):
        existing = list(self.workflow.connections)
        connection_id = (existing[0] if reuse_id and existing
                         else self.fresh_connection_id())
        modules = self.workflow.modules
        bound = any(c.target_module == destination
                    and c.target_port == target_port
                    for c in list(self.workflow.connections.values()))
        expect = ("duplicate" if connection_id in self.workflow.connections
                  else "missing" if source not in modules
                  or destination not in modules
                  else "bound" if bound else None)
        try:
            self.workflow.add_connection(Connection(
                source, source_port, destination, target_port,
                id=connection_id))
        except SpecError as exc:
            assert expect is not None
            assert (str(exc).startswith("input port already bound")
                    == (expect == "bound"))
        else:
            assert expect is None

    @rule(data=st.data())
    def remove_connection(self, data):
        choices = list(self.workflow.connections) + ["conn-missing"]
        connection_id = data.draw(st.sampled_from(choices))
        try:
            removed = self.workflow.remove_connection(connection_id)
        except SpecError:
            assert connection_id == "conn-missing"
        else:
            assert removed.id == connection_id

    # -- writes that bypass the mutators -----------------------------------
    @rule(source=st.sampled_from(MODULE_IDS),
          destination=st.sampled_from(MODULE_IDS),
          target_port=st.sampled_from(PORTS),
          replace=st.booleans())
    def write_connection_directly(self, source, destination, target_port,
                                  replace):
        # unchecked: may bind a port twice, add a cycle or dangle
        existing = list(self.workflow.connections)
        connection_id = (existing[-1] if replace and existing
                         else self.fresh_connection_id())
        self.workflow.connections[connection_id] = Connection(
            source, "a", destination, target_port, id=connection_id)

    @rule(data=st.data())
    def delete_connection_directly(self, data):
        if self.workflow.connections:
            connection_id = data.draw(st.sampled_from(
                list(self.workflow.connections)))
            del self.workflow.connections[connection_id]

    @rule(module_id=st.sampled_from(MODULE_IDS))
    def write_module_directly(self, module_id):
        if module_id in self.workflow.modules:
            del self.workflow.modules[module_id]
        else:
            self.workflow.modules[module_id] = Module("Constant",
                                                      id=module_id)

    @rule(data=st.data())
    def reassign(self, data):
        connections = list(self.workflow.connections.items())
        kept = data.draw(st.lists(st.sampled_from(connections), unique=True)
                         if connections else st.just([]))
        self.workflow.connections = dict(kept)
        self.workflow.modules = dict(
            sorted(self.workflow.modules.items(), reverse=True))

    @rule()
    def copy(self):
        self.workflow = self.workflow.copy(new_id_="wf-parity")

    @rule()
    def pickle_round_trip(self):
        self.workflow = pickle.loads(pickle.dumps(self.workflow))

    # -- the invariant -----------------------------------------------------
    @invariant()
    def matches_a_full_scan(self):
        workflow = self.workflow
        for module_id in MODULE_IDS + ["mod-absent"]:
            incoming = ref_incoming(workflow, module_id)
            outgoing = ref_outgoing(workflow, module_id)
            assert workflow.incoming(module_id) == incoming
            assert workflow.outgoing(module_id) == outgoing
            assert workflow.predecessors(module_id) == sorted(
                {c.source_module for c in incoming})
            assert workflow.successors(module_id) == sorted(
                {c.target_module for c in outgoing})
        connections = list(workflow.connections.values())
        assert workflow.sources() == sorted(
            m for m in workflow.modules
            if all(c.target_module != m for c in connections))
        assert workflow.sinks() == sorted(
            m for m in workflow.modules
            if all(c.source_module != m for c in connections))
        order = ref_order(workflow)
        assert outcome(workflow.topological_order) == order
        if isinstance(order, list):
            assert workflow.dependents() == {
                m: sorted({c.target_module for c in ref_outgoing(workflow, m)})
                for m in workflow.modules}


TestIndexParity = IndexParity.TestCase
TestIndexParity.settings = settings(max_examples=150,
                                    stateful_step_count=40,
                                    deadline=None)


# ----------------------------------------------------------------------
# scaling, by counting full scans of the connection mapping
# ----------------------------------------------------------------------
class ScanCountingDict(_TrackedDict):
    """A connection mapping that counts full iterations over itself."""

    __slots__ = ()
    scans = 0

    def __iter__(self):
        ScanCountingDict.scans += 1
        return super().__iter__()

    def keys(self):
        ScanCountingDict.scans += 1
        return super().keys()

    def values(self):
        ScanCountingDict.scans += 1
        return super().values()

    def items(self):
        ScanCountingDict.scans += 1
        return super().items()


def counting_chain(length):
    """An ``length``-stage chain whose connections count their scans."""
    workflow = chain_workflow(length, work=0)
    workflow.connections = ScanCountingDict(workflow.connections)
    return workflow


def scans_during(call):
    ScanCountingDict.scans = 0
    call()
    return ScanCountingDict.scans


class TestScansDoNotGrowWithSize:
    def test_execute_does_a_fixed_number_of_scans(self, registry):
        def execute(length):
            workflow = counting_chain(length)
            executor = Executor(registry, listeners=[
                ProvenanceCapture(registry=registry)])
            return scans_during(lambda: executor.execute(workflow))

        small, large = execute(50), execute(200)
        assert small == large
        assert small > 0  # the counter does see the scans that remain

    def test_add_connection_scans_nothing(self):
        workflow = Workflow("built")
        workflow.connections = ScanCountingDict()
        workflow.incoming("mod-none")  # index the fresh mapping once
        modules = [workflow.add_module(Module("SpinCompute"))
                   for _ in range(200)]

        def connect_all():
            for upstream, downstream in zip(modules, modules[1:]):
                workflow.connect(upstream.id, "value", downstream.id,
                                 "value")

        assert scans_during(connect_all) == 0
        assert scans_during(workflow.topological_order) == 0
