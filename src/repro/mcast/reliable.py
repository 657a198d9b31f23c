"""Reliable multicast simulation over lossy channels (extension, [12]).

:class:`ReliableMulticastSimulator` runs
:class:`~repro.nic.reliable.ReliableFPFSInterface` NIs, makes every
channel lossy by installing a seeded
:class:`~repro.nic.reliable.BernoulliLoss` behind each NI's fault gate,
and installs the tree-parent map each NI needs to address its NACKs.
Every run is verified complete by the base collector (all destinations
hold all packets), so a failed recovery protocol cannot masquerade as
a fast one — the run would error out instead.
"""

from __future__ import annotations

from typing import Optional

from ..core.trees import MulticastTree
from ..network.topology import Topology
from ..nic.interface import NICRegistry
from ..nic.packets import Message
from ..nic.reliable import BernoulliLoss, ReliableFPFSInterface
from ..params import PAPER_PARAMS, SystemParams
from .simulator import MulticastSimulator

__all__ = ["ReliableMulticastSimulator"]


class ReliableMulticastSimulator(MulticastSimulator):
    """Multicast simulation with packet loss and NACK recovery.

    Accepts every :class:`~repro.mcast.simulator.MulticastSimulator`
    keyword except ``ni_class`` (always the reliable NI).

    Parameters
    ----------
    loss_rate:
        Probability a transmitted data packet is dropped at the
        receiver (control packets are never dropped).
    loss_seed:
        Seed for the loss draws (deterministic runs).
    """

    def __init__(
        self,
        topology: Topology,
        router,
        params: SystemParams = PAPER_PARAMS,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        **kwargs,
    ) -> None:
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        super().__init__(
            topology, router, params=params, ni_class=ReliableFPFSInterface, **kwargs
        )
        self.loss_rate = loss_rate
        self.loss_seed = loss_seed
        # Loss model of the most recent run (None before the first run).
        self._loss: Optional[BernoulliLoss] = None

    @property
    def last_dropped(self) -> Optional[int]:
        """Dropped-packet count of the most recent run."""
        return self._loss.dropped if self._loss is not None else None

    def _make_loss(self) -> BernoulliLoss:
        """A fresh loss model per run, so repeated runs replay exactly."""
        return BernoulliLoss(self.loss_rate, seed=self.loss_seed)

    def _post_build(self, env, registry: NICRegistry, pool) -> None:
        # Imported here, not at module level: importing repro.faults
        # loads its chaos harness, which no plain multicast run needs.
        from ..faults.inject import LinkFaultState, NIFaultGate

        self._loss = self._make_loss()
        links = LinkFaultState(loss=self._loss)
        for ni in registry:
            ni.fault_gate = NIFaultGate(env, ni, links)

    def _install_extras(
        self, registry: NICRegistry, tree: MulticastTree, message: Message
    ) -> None:
        for node in tree.nodes():
            if node == tree.root:
                continue
            ni = registry.lookup(node)
            assert isinstance(ni, ReliableFPFSInterface)
            ni.register_parent(message.msg_id, tree.parent(node))
