"""Network interface models: conventional, smart-FCFS, smart-FPFS, reliable.

The :class:`~repro.nic.interface.NetworkInterface` subclasses
differ only in their forwarding discipline:

=====================  =============================================
class                  forwarding
=====================  =============================================
ConventionalInterface  host CPU store-and-forward per child (§2.3)
FCFSInterface          NI coprocessor, child-major order (§3.1)
FPFSInterface          NI coprocessor, packet-major order (§3.2)
ReliableFPFSInterface  FPFS plus NACK recovery from parent NIs ([12])
=====================  =============================================
"""

from .conventional import ConventionalInterface
from .fcfs import FCFSInterface
from .fpfs import FPFSInterface
from .interface import NetworkInterface, NICRegistry, SendJob
from .packets import Message, Packet, packetize
from .reliable import BernoulliLoss, Nack, ReliableFPFSInterface

__all__ = [
    "BernoulliLoss",
    "ConventionalInterface",
    "FCFSInterface",
    "FPFSInterface",
    "Message",
    "NICRegistry",
    "Nack",
    "NetworkInterface",
    "Packet",
    "ReliableFPFSInterface",
    "SendJob",
    "packetize",
]
