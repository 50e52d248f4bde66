"""Compiler core: reduce sigma-z-string propagators to native instructions.

The n-spin propagator exp(-i*(pi/2)*J*T*sz_1...sz_n) is peeled down to a
single two-spin coupling block conjugated by fixed three/four-pulse blocks
(P1 and its exact inverse P2).  Every compile self-verifies against the
ideal propagator up to global phase and raises if the check fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .molecule import SpinSystem
from .paulis import PauliString, equal_up_to_global_phase, pauli_exponential
from .refocus import refocus_block
from .sequence import (
    CouplingBlock,
    Gradient,
    PulseSequence,
    Rotation,
    sequence_duration,
    sequence_propagator,
)


class DecompositionError(ValueError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class FourBodyTarget:
    spins: tuple = (1, 2, 3, 4)
    j_eff: float = 1.0       # Hz
    duration: float = 1.0    # seconds

    def __post_init__(self):
        if len(self.spins) != 4 or len(set(self.spins)) != 4:
            raise DecompositionError("target needs 4 distinct spins")
        if not np.isfinite(self.j_eff * self.duration):
            raise DecompositionError("J_eff * T must be finite")


@dataclass(frozen=True)
class DecompositionReport:
    target: str
    sequence: PulseSequence
    deviation: float
    global_phase: float
    ok: bool                 # deviation <= tol; false on NaN
    duration: float = 0.0

    def to_json(self) -> str:
        from .sequence import format_sequence
        return json.dumps(
            {
                "target": self.target,
                "deviation": self.deviation,
                "global_phase": self.global_phase,
                # fixed file-format keys: verification never rewrites a program
                "corrected": False,
                "notes": "",
                "duration_s": self.duration,
                "sequence": format_sequence(self.sequence).splitlines(),
            },
            indent=2,
        )


def _conj_block(sys: SpinSystem, k: int, l: int, angle: float) -> CouplingBlock:
    """Ideal zz block of fixed angle, with tau resolved when J_kl is nonzero."""
    j = sys.coupling(k, l)
    tau = angle / (0.5 * np.pi * j) if j != 0 else None
    return CouplingBlock((k, l), tau=tau, angle=angle)


def p1_block(l: int, sys: SpinSystem = None, spins=None) -> PulseSequence:
    """Conjugation block mapping sz_{l+1} -> sz_l sz_{l+1} (temporal order)."""
    a, b = _map_pair(l, spins)
    block = _conj_block(sys, a, b, np.pi / 4) if sys else CouplingBlock((a, b), angle=np.pi / 4)
    return PulseSequence(
        [
            Rotation((b,), "y", np.pi / 2),
            block,
            Rotation((b,), "x", np.pi / 2),
        ],
        name=f"P1({l})",
    )


def p2_block(l: int, sys: SpinSystem = None, spins=None) -> PulseSequence:
    """Exact inverse of p1_block(l), in temporal order."""
    a, b = _map_pair(l, spins)
    block = _conj_block(sys, a, b, np.pi / 4) if sys else CouplingBlock((a, b), angle=np.pi / 4)
    return PulseSequence(
        [
            Rotation((b,), "-x", np.pi / 2),
            Rotation((b,), "-y", np.pi),
            block,
            Rotation((b,), "y", np.pi / 2),
        ],
        name=f"P2({l})",
    )


def _map_pair(l: int, spins):
    if l < 1:
        raise DecompositionError(f"block index {l} out of range")
    if spins is None:
        return l, l + 1
    if l + 1 > len(spins):
        raise DecompositionError(f"block index {l} out of range for {len(spins)} spins")
    return spins[l - 1], spins[l]


def verify_decomposition(seq: PulseSequence, ideal: np.ndarray, sys: SpinSystem,
                         tol: float = 1e-10, target: str = "") -> DecompositionReport:
    """Evaluate a sequence and compare with the ideal unitary up to global phase."""
    u = sequence_propagator(seq, sys)
    verdict = equal_up_to_global_phase(u, ideal, tol)
    return DecompositionReport(
        target=target or "custom unitary",
        sequence=seq,
        deviation=verdict.deviation,
        global_phase=verdict.phase,
        ok=verdict.equal,
        duration=sequence_duration(seq),
    )


def _verified(seq, ideal, sys, tol, target):
    report = verify_decomposition(seq, ideal, sys, tol, target=target)
    if not report.ok:
        raise DecompositionError(
            f"decomposition verification failed: deviation {report.deviation:.3e} > {tol:.1e}",
            report=report,
        )
    return report


def decompose_chain(sys: SpinSystem, spins, j_eff: float, duration: float,
                    tol: float = 1e-10) -> DecompositionReport:
    """Compile exp(-i*(pi/2)*J_eff*T*sz-string) over the given spins.

    Emits P1(1)..P1(n-2), the core block on the last pair, then the inverse
    blocks in descending order; 7*(n-2)+1 instructions total.
    """
    spins = tuple(spins)
    n = len(spins)
    if n < 2:
        raise DecompositionError("chain decomposition needs at least 2 spins")
    if len(set(spins)) != n:
        raise DecompositionError("spins must be distinct")
    for s in spins:
        sys._check_spin(s)
    core_angle = 0.5 * np.pi * j_eff * duration
    core_pair = (spins[n - 2], spins[n - 1])
    j_core = sys.coupling(*core_pair)
    core_tau = j_eff * duration / j_core if j_core != 0 else None
    instructions = []
    for l in range(1, n - 1):
        instructions.extend(p1_block(l, sys, spins).instructions)
    instructions.append(CouplingBlock(core_pair, tau=core_tau, angle=core_angle))
    for l in range(n - 2, 0, -1):
        instructions.extend(p2_block(l, sys, spins).instructions)
    seq = PulseSequence(
        instructions,
        name=f"zz-chain-{n}",
        description=f"exp(-i*(pi/2)*J*T*sz^{{{','.join(map(str, spins))}}}), J*T={j_eff * duration!r}",
    )
    ideal = pauli_exponential(PauliString.z_string(sys.n, spins), core_angle, sys.n)
    target = f"U_z{'z' * (n - 1)} on spins {spins}, (pi/2)J*T={core_angle!r}"
    return _verified(seq, ideal, sys, tol, target)


def _eq12_program(sys, target: FourBodyTarget, variant: str):
    s1, s2, s3, s4 = target.spins
    jt = target.j_eff * target.duration
    if variant == "A":
        conj_pairs = ((s1, s2), (s2, s3))
        core_pair = (s3, s4)
    elif variant == "B":
        conj_pairs = ((s1, s2), (s2, s3))
        core_pair = (s2, s4)
    else:
        raise DecompositionError(f"unknown variant {variant!r}")
    j_core = sys.coupling(*core_pair)
    if j_core == 0:
        raise DecompositionError(f"zero coupling on required pair {core_pair}")
    for p in conj_pairs:
        if sys.coupling(*p) == 0:
            raise DecompositionError(f"zero coupling on required pair {p}")
    core_tau = jt / j_core
    if core_tau < 0:
        raise DecompositionError(
            "negative core duration; choose variant A or negate J_eff"
        )
    core = CouplingBlock(core_pair, tau=core_tau, angle=0.5 * np.pi * jt)
    if variant == "A":
        # the published 15-instruction pulse program, in temporal order
        instructions = [
            Rotation((s2,), "x", np.pi / 2),
            Rotation((s2,), "y", np.pi),
            _conj_block(sys, s1, s2, np.pi / 4),
            Rotation((s2,), "-y", np.pi / 2),
            Rotation((s3,), "x", np.pi / 2),
            Rotation((s3,), "y", np.pi),
            _conj_block(sys, s2, s3, np.pi / 4),
            Rotation((s3,), "-y", np.pi / 2),
            core,
            Rotation((s3,), "-y", np.pi / 2),
            _conj_block(sys, s2, s3, np.pi / 4),
            Rotation((s3,), "-x", np.pi / 2),
            Rotation((s2,), "-y", np.pi / 2),
            _conj_block(sys, s1, s2, np.pi / 4),
            Rotation((s2,), "-x", np.pi / 2),
        ]
    else:
        # variant with every pulse on spin 2 and the core block on (2,4)
        instructions = [
            Rotation((s2,), "-x", np.pi / 2),
            Rotation((s2,), "-y", np.pi),
            _conj_block(sys, s1, s2, np.pi / 4),
            Rotation((s2,), "y", np.pi / 2),
            Rotation((s2,), "-x", np.pi / 2),
            Rotation((s2,), "-y", np.pi),
            _conj_block(sys, s2, s3, np.pi / 4),
            Rotation((s2,), "y", np.pi),
            Rotation((s2,), "-y", np.pi / 2),
            core,
            Rotation((s2,), "y", np.pi / 2),
            _conj_block(sys, s2, s3, np.pi / 4),
            Rotation((s2,), "x", np.pi / 2),
            Rotation((s2,), "y", np.pi / 2),
            _conj_block(sys, s1, s2, np.pi / 4),
            Rotation((s2,), "x", np.pi / 2),
        ]
    return instructions


def _refocus_expand(sys, instructions, m: int = 8):
    out = []
    for instr in instructions:
        if isinstance(instr, CouplingBlock):
            if instr.tau is None:
                raise DecompositionError(
                    f"cannot refocus block on pair {instr.pair}: zero coupling"
                )
            if instr.tau == 0:
                continue  # zero-duration block is the identity
            if instr.tau < 0:
                raise DecompositionError(
                    f"cannot refocus negative-duration block on pair {instr.pair}"
                )
            out.extend(refocus_block(sys, instr.pair, instr.tau, m).instructions)
        else:
            out.append(instr)
    return out


def compile_four_body(sys: SpinSystem, target: FourBodyTarget, variant: str = "A",
                      realization: str = "ideal", tol: float = 1e-10,
                      segments: int = 8) -> DecompositionReport:
    """Compile the four-spin propagator exp(-i*(pi/2)*J_eff*T*szszszsz)."""
    if realization not in ("ideal", "refocused"):
        raise DecompositionError(f"unknown realization {realization!r}")
    instructions = _eq12_program(sys, target, variant)
    if realization == "refocused":
        instructions = _refocus_expand(sys, instructions, segments)
    jt = target.j_eff * target.duration
    seq = PulseSequence(
        instructions,
        name=f"four-body-{variant}-{realization}",
        description=f"U_zzzz on spins {target.spins}, pi*J_eff*T={np.pi * jt!r}",
    )
    ideal = pauli_exponential(
        PauliString.z_string(sys.n, target.spins), 0.5 * np.pi * jt, sys.n
    )
    desc = f"U_zzzz on spins {target.spins}, (pi/2)J_eff*T={0.5 * np.pi * jt!r}"
    return _verified(seq, ideal, sys, tol, desc)


def prepare_sequence(sys: SpinSystem, target_spin: int = 3) -> PulseSequence:
    """State-preparation program: [pi/2]_y on all other spins, crusher, [pi/2]_y on target."""
    sys._check_spin(target_spin)
    others = tuple(s for s in range(1, sys.n + 1) if s != target_spin)
    instructions = []
    if others:
        instructions.append(Rotation(others, "y", np.pi / 2))
    instructions.extend([Gradient(), Rotation((target_spin,), "y", np.pi / 2)])
    return PulseSequence(
        instructions,
        name=f"prepare-sx{target_spin}",
        description=f"thermal state -> transverse magnetization on spin {target_spin}",
    )
