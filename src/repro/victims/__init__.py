"""Victim and monitor programs (Figures 4-8 of the paper)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.victims.common import PIVOT, REPLAY_HANDLE, TRANSMIT
    from repro.victims.control_flow import (
        ControlFlowVictim,
        build_control_flow_program,
        setup_control_flow_victim,
    )
    from repro.victims.loop_secret import (
        LoopSecretVictim,
        build_loop_secret_program,
        setup_loop_secret_victim,
    )
    from repro.victims.monitor import (
        PortContentionMonitor,
        build_port_contention_monitor,
        setup_port_contention_monitor,
    )
    from repro.victims.single_secret import (
        NUM_SECRETS,
        SingleSecretVictim,
        build_single_secret_program,
        setup_single_secret_victim,
    )
    from repro.victims.aes_round import (
        AESVictim,
        build_aes_decrypt_program,
        setup_aes_victim,
    )
    from repro.victims.integrity import (
        RdrandVictim,
        TSXVictim,
        setup_rdrand_victim,
        setup_tsx_victim,
    )
    from repro.victims.rsa import (
        MULT_BUFFER_LINES,
        ModExpVictim,
        build_modexp_program,
        setup_modexp_victim,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.victims.common": ("PIVOT", "REPLAY_HANDLE", "TRANSMIT"),
    "repro.victims.control_flow": (
        "ControlFlowVictim", "build_control_flow_program",
        "setup_control_flow_victim"),
    "repro.victims.loop_secret": (
        "LoopSecretVictim", "build_loop_secret_program",
        "setup_loop_secret_victim"),
    "repro.victims.monitor": (
        "PortContentionMonitor", "build_port_contention_monitor",
        "setup_port_contention_monitor"),
    "repro.victims.single_secret": (
        "NUM_SECRETS", "SingleSecretVictim", "build_single_secret_program",
        "setup_single_secret_victim"),
    "repro.victims.aes_round": (
        "AESVictim", "build_aes_decrypt_program", "setup_aes_victim"),
    "repro.victims.integrity": (
        "RdrandVictim", "TSXVictim", "setup_rdrand_victim",
        "setup_tsx_victim"),
    "repro.victims.rsa": (
        "MULT_BUFFER_LINES", "ModExpVictim", "build_modexp_program",
        "setup_modexp_victim"),
})

__all__ = [
    "PIVOT",
    "REPLAY_HANDLE",
    "TRANSMIT",
    "ControlFlowVictim",
    "build_control_flow_program",
    "setup_control_flow_victim",
    "LoopSecretVictim",
    "build_loop_secret_program",
    "setup_loop_secret_victim",
    "PortContentionMonitor",
    "build_port_contention_monitor",
    "setup_port_contention_monitor",
    "NUM_SECRETS",
    "SingleSecretVictim",
    "build_single_secret_program",
    "setup_single_secret_victim",
    "AESVictim",
    "build_aes_decrypt_program",
    "setup_aes_victim",
    "RdrandVictim",
    "TSXVictim",
    "setup_rdrand_victim",
    "setup_tsx_victim",
    "MULT_BUFFER_LINES",
    "ModExpVictim",
    "build_modexp_program",
    "setup_modexp_victim",
]
