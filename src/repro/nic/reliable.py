"""Reliable FPFS multicast over lossy channels (related work [12]).

The paper cites Verstoep, Langendoen & Bal (ICPP'96), who build a
*reliable* packetized multicast layer on the Myrinet NI.  This module
reproduces that layer's essence on our NI model and shows the synergy
the paper's §2.5 buffering implies: because a smart NI already holds
multicast packets for replication, **recovery is parent-local** — a
lost packet is retransmitted by the child's parent NI from its
forwarding buffer, never by the source host.

The reliable NI is one more forwarding discipline on the base NI's
send and receive engines, not a second engine: it hooks what the
coprocessor does with a packet.

* Loss itself happens outside the NI, at the send engine's
  post-transmit drop point: :class:`~repro.mcast.ReliableMulticastSimulator`
  installs a seeded :class:`BernoulliLoss` behind every NI's
  ``fault_gate.link_gate``, which drops each transmitted data packet
  with probability ``loss_rate`` (control packets — NACKs — are never
  dropped, standard for tiny control traffic).
* :meth:`ReliableFPFSInterface.on_packet` retains every packet of a
  message in a retransmission buffer keyed by ``(msg_id, index)``,
  checks for a *gap* (packet ``j`` arrives while ``i < j`` is missing)
  and NACKs its parent for the missing indices; because wormhole
  routes are fixed, per-message arrivals are otherwise in-order.
* Tail losses (the last packets of a message) produce no gap, so each
  receiver arms a quiet-period timer after every arrival; if the
  message is incomplete when the timer fires, it NACKs all missing
  indices and re-arms.
* A NACK is a control payload: the receive engine hands it to
  :meth:`~ReliableFPFSInterface.on_control`, which retransmits from the
  retention buffer.  A duplicate arrival (a retransmission race) goes
  to :meth:`~ReliableFPFSInterface.on_duplicate`, which drops it.

The ``bench_ext_reliable`` benchmark measures the latency cost of
reliability as the loss rate grows; delivery remains exactly-once at
every destination (asserted by the simulator's completion check).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Set, Tuple

from ..network.topology import Node
from .fpfs import FPFSInterface
from .interface import SendJob
from .packets import Message, Packet, packetize

__all__ = ["BernoulliLoss", "Nack", "ReliableFPFSInterface"]


class BernoulliLoss:
    """Seeded loss of data packets: one draw per transmitted packet.

    The draw is per transmission (the packet is corrupted and dropped
    at the receiving NI), not per channel hop, which matches the
    link-level CRC-drop behaviour [12] recovers from.  Control payloads
    such as NACKs are never dropped and cost no draw.  ``rate`` is
    validated by the caller (it must lie in ``[0, 1)``).
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        self.rate = rate
        self._rng = random.Random(seed)
        self.dropped = 0

    def drops(self, payload) -> bool:
        """One loss draw for ``payload``; True if it is lost."""
        if not isinstance(payload, Packet):
            return False
        if self._rng.random() < self.rate:
            self.dropped += 1
            return True
        return False


@dataclass(frozen=True)
class Nack:
    """Control packet: 'resend these indices of message msg_id to me'."""

    msg_id: int
    indices: Tuple[int, ...]
    requester: Node


class ReliableFPFSInterface(FPFSInterface):
    """FPFS NI with NACK-based parent-local loss recovery.

    Without a loss source it degenerates to plain FPFS (plus idle
    timers).
    """

    #: Quiet period (µs) before an incomplete message triggers NACKs.
    NACK_TIMEOUT = 40.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Retransmission store: everything this NI has seen or injected.
        self._retain: Dict[Tuple[int, int], Packet] = {}
        # Timer generation per message: bumping it cancels older timers.
        self._timer_generation: Dict[int, int] = {}
        self._nacked_once: Set[Tuple[int, int]] = set()
        # msg_id -> the tree parent that forwards this message to us.
        self._tree_parents: Dict[int, Node] = {}

    # -- discipline hooks -------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        self._retain[(packet.message.msg_id, packet.index)] = packet
        self._check_gap(packet)
        self._arm_timer(packet.message)
        super().on_packet(packet)

    def on_control(self, nack: Nack) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "retransmit",
                self.obs_track,
                cat="ni",
                args={"msg": nack.msg_id, "indices": nack.indices},
            )
        for index in nack.indices:
            packet = self._retain.get((nack.msg_id, index))
            if packet is None:
                # Not here yet (we lost it too): our own recovery will
                # fetch it, and the child's timer will re-ask.
                continue
            self.send_queue.put(SendJob(packet, nack.requester))

    def on_duplicate(self, packet: Packet) -> None:
        """A retransmission race delivered a packet twice: drop it."""

    def inject_multicast(self, tree, message: Message):
        """Source side: also populate the retransmission store."""
        for packet in packetize(message):
            self._retain[(message.msg_id, packet.index)] = packet
        result = yield from super().inject_multicast(tree, message)
        return result

    # -- loss recovery ------------------------------------------------------------
    def _missing_indices(self, message: Message, below: int) -> Tuple[int, ...]:
        return tuple(
            i
            for i in range(below)
            if (message.msg_id, i) not in self.received_at
        )

    def _parent_of(self, msg_id: int) -> Node:
        """The node that forwards this message to us (tree parent)."""
        ni_parent = self._tree_parents.get(msg_id)
        if ni_parent is None:
            raise RuntimeError(f"no parent registered for message {msg_id} at {self.host!r}")
        return ni_parent

    def register_parent(self, msg_id: int, parent: Node) -> None:
        """Installed by the reliable simulator alongside ``forwarding``."""
        self._tree_parents[msg_id] = parent

    def _check_gap(self, packet: Packet) -> None:
        missing = self._missing_indices(packet.message, packet.index)
        fresh = [
            i for i in missing if (packet.message.msg_id, i) not in self._nacked_once
        ]
        if fresh:
            for i in fresh:
                self._nacked_once.add((packet.message.msg_id, i))
            self._send_nack(packet.message.msg_id, tuple(fresh))

    def _arm_timer(self, message: Message) -> None:
        if self.message_complete(message):
            return
        gen = self._timer_generation.get(message.msg_id, 0) + 1
        self._timer_generation[message.msg_id] = gen
        self.env.process(
            self._timeout_watch(message, gen), name=f"nack-timer@{self.host}"
        )

    def _timeout_watch(self, message: Message, generation: int):
        yield self.env.timeout(self.NACK_TIMEOUT)
        if self._timer_generation.get(message.msg_id) != generation:
            return  # superseded by a newer arrival
        if self.message_complete(message):
            return
        missing = self._missing_indices(message, message.num_packets)
        if missing:
            self._send_nack(message.msg_id, missing)
            self._arm_timer(message)

    def _send_nack(self, msg_id: int, indices: Tuple[int, ...]) -> None:
        parent = self._parent_of(msg_id)
        if self.tracer.enabled:
            self.tracer.instant(
                "nack", self.obs_track, cat="ni", args={"msg": msg_id, "indices": indices}
            )
        self.send_queue.put(SendJob(Nack(msg_id, indices, self.host), parent))
