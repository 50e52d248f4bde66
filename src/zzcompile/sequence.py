"""Native instruction set and pulse-program representation.

Rotation convention: the bracket angle theta of "[theta]_a^k" generates
exp(-i*(theta/2)*sigma_a^k); a negative axis (e.g. "-y") negates the
generator.  Pulses are instantaneous by default; the duration field exists
for time accounting only.

A CouplingBlock carries the evolution [tau_kl] = exp(-i*(pi/2)*J_kl*tau*
sz_k*sz_l).  Either tau or the effective angle (pi/2)*J_kl*tau may be given
at construction; the other is resolved against a SpinSystem when possible.
Ideal blocks tolerate negative tau (a signed-evolution abstraction used by
the chain decomposer); physically realizable emission paths reject it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .molecule import SpinSystem, hamiltonian, z_eigenvalues
from .paulis import _SINGLE

AXES = ("x", "y", "z", "-x", "-y", "-z")


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class Rotation:
    spins: tuple           # 1-based, sorted
    axis: str
    angle: float           # bracket angle, radians
    duration: float = 0.0

    def __post_init__(self):
        if self.axis not in AXES:
            raise SequenceError(f"unknown axis {self.axis!r}")
        if not np.isfinite(self.angle):
            raise SequenceError("rotation angle must be finite")
        if not self.spins:
            raise SequenceError("rotation needs at least one spin")
        object.__setattr__(self, "spins", tuple(sorted(self.spins)))


@dataclass(frozen=True)
class CouplingBlock:
    pair: tuple
    tau: float = None       # seconds; may be None when only the angle is known
    angle: float = None     # (pi/2) * J_kl * tau, radians

    def __post_init__(self):
        if len(self.pair) != 2:
            raise SequenceError("coupling block needs exactly two spins")
        k, l = self.pair
        if k == l:
            raise SequenceError("coupling pair indices must be distinct")
        object.__setattr__(self, "pair", (min(k, l), max(k, l)))
        if self.tau is None and self.angle is None:
            raise SequenceError("coupling block needs tau or angle")
        for value in (self.tau, self.angle):
            if value is not None and not np.isfinite(value):
                raise SequenceError("coupling tau and angle must be finite")

    def effective_angle(self, sys: SpinSystem) -> float:
        if self.angle is not None:
            return self.angle
        return 0.5 * np.pi * sys.coupling(*self.pair) * self.tau


@dataclass(frozen=True)
class FreeDelay:
    tau: float

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise SequenceError("delay must be finite")
        if self.tau < 0:
            raise SequenceError("delay must be non-negative")


@dataclass(frozen=True)
class Gradient:
    """z-axis crusher; non-unitary, admissible only in state propagation."""

    duration: float = 0.0


Instruction = (Rotation, CouplingBlock, FreeDelay, Gradient)


@dataclass(frozen=True)
class PulseSequence:
    instructions: tuple
    name: str = ""
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __add__(self, other: "PulseSequence") -> "PulseSequence":
        return PulseSequence(self.instructions + other.instructions,
                             name=self.name, description=self.description)


_AXIS_SIGN = {"x": 1, "y": 1, "z": 1, "-x": -1, "-y": -1, "-z": -1}


# --------------------------------------------------------------------------
# Propagation kernel.  Every unitary instruction is either diagonal
# (CouplingBlock, FreeDelay), applied as a phase vector over the 2^n basis
# states, or a product of one-spin rotations, applied as a 2x2 factor on the
# tensor axis of each listed spin (spin 1 is the most significant axis).  No
# dense 2^n x 2^n matrix is built per instruction.
# --------------------------------------------------------------------------

def _actions(instructions, sys: SpinSystem):
    """Yield each instruction's action, in order.

    A diagonal instruction yields its phase vector (a 1-d array), a rotation
    a list of (spin, 2x2 factor) pairs, and a Gradient None.  The energy
    diagonal is computed once per walk, at the first FreeDelay.
    """
    z = z_eigenvalues(sys.n)
    energies = None
    for instr in instructions:
        if isinstance(instr, Rotation):
            for s in instr.spins:
                sys._check_spin(s)
            # exp(-i*(theta/2)*sigma_a), the same 2x2 factor on every listed spin
            phi = _AXIS_SIGN[instr.axis] * instr.angle / 2
            sigma = _SINGLE[instr.axis.lstrip("-").upper()]
            factor = np.cos(phi) * _SINGLE["I"] - 1j * np.sin(phi) * sigma
            yield [(s, factor) for s in instr.spins]
        elif isinstance(instr, CouplingBlock):
            k, l = instr.pair
            sys._check_spin(k)
            sys._check_spin(l)
            theta = instr.effective_angle(sys)
            yield np.cos(theta) - 1j * np.sin(theta) * (z[k - 1] * z[l - 1])
        elif isinstance(instr, FreeDelay):
            if energies is None:
                energies = np.diag(hamiltonian(sys)).real
            yield np.exp(-1j * energies * instr.tau)
        elif isinstance(instr, Gradient):
            yield None
        else:
            raise SequenceError(f"unknown instruction {instr!r}")


def _on_axis(t: np.ndarray, factor: np.ndarray, axis: int) -> np.ndarray:
    """Contract a 2x2 factor with tensor axis `axis` of t, read as 2 x 2 x ... (C order)."""
    return (factor @ t.reshape(2 ** axis, 2, -1)).reshape(t.shape)


def _left(t: np.ndarray, action) -> np.ndarray:
    """U @ t for one action's unitary U; t has 2^n rows and any number of columns."""
    if isinstance(action, np.ndarray):
        return action[:, None] * t
    for s, factor in action:
        t = _on_axis(t, factor, s - 1)
    return t


def _conjugate(m: np.ndarray, action, n: int) -> np.ndarray:
    """U @ m @ U^dagger for one action's unitary U on a 2^n x 2^n matrix m.

    Read row-major, m is a vector over 2n spin axes (rows first), on which
    U m U^dagger acts as U on the row axes and conj(U) on the column axes.
    """
    if isinstance(action, np.ndarray):
        return action[:, None] * m * action.conj()
    for s, factor in action:
        m = _on_axis(m, factor, s - 1)
        m = _on_axis(m, factor.conj(), n + s - 1)
    return m


def sequence_propagator(seq: PulseSequence, sys: SpinSystem) -> np.ndarray:
    """Product of instruction propagators, first instruction applied first."""
    if any(isinstance(i, Gradient) for i in seq):
        raise SequenceError("non-unitary sequence; simulate on a state instead")
    u = np.eye(2 ** sys.n, dtype=complex)
    for action in _actions(seq, sys):
        u = _left(u, action)
    return u


def sequence_duration(seq: PulseSequence) -> float:
    parts = []
    for instr in seq:
        if isinstance(instr, Rotation):
            parts.append(instr.duration)
        elif isinstance(instr, CouplingBlock):
            parts.append(instr.tau if instr.tau is not None else 0.0)
        elif isinstance(instr, FreeDelay):
            parts.append(instr.tau)
        elif isinstance(instr, Gradient):
            parts.append(instr.duration)
    return math.fsum(parts)


def reversed_inverse(seq: PulseSequence) -> PulseSequence:
    """Order-reversed sequence with every generator negated (exact inverse)."""
    out = []
    for instr in reversed(seq.instructions):
        if isinstance(instr, Rotation):
            axis = instr.axis[1:] if instr.axis.startswith("-") else "-" + instr.axis
            out.append(replace(instr, axis=axis))
        elif isinstance(instr, CouplingBlock):
            tau = -instr.tau if instr.tau is not None else None
            angle = -instr.angle if instr.angle is not None else None
            out.append(CouplingBlock(instr.pair, tau=tau, angle=angle))
        else:
            raise SequenceError(f"cannot invert {instr!r}")
    return PulseSequence(out, name=seq.name + "-inverse")


# --------------------------------------------------------------------------
# Text form.  One instruction per line:
#   ROT spins=1,2,4 axis=-y angle=pi/2 [dur=1e-5]
#   CPL pair=1,2 tau=6.906e-3 mode=ideal [angle=pi/4]   (mode is optional;
#       "ideal" is the only mode: echo refocusing is spelled out as pulses)
#   DELAY tau=1e-3
#   GRAD [dur=1e-3]
# Header comments carry metadata: "# name: ...", "# description: ...".
# --------------------------------------------------------------------------

def format_angle(angle: float) -> str:
    """Render exact small multiples of pi as tokens like 'pi/2' or '-3pi/4'."""
    frac = Fraction(angle / np.pi).limit_denominator(96)
    if frac != 0 and abs(float(frac) * np.pi - angle) < 1e-14:
        sign = "-" if frac < 0 else ""
        num = abs(frac.numerator)
        head = "pi" if num == 1 else f"{num}pi"
        tail = "" if frac.denominator == 1 else f"/{frac.denominator}"
        return f"{sign}{head}{tail}"
    return repr(float(angle))


_ANGLE_RE = re.compile(r"^(-?)(?:(\d+)\s*\*?\s*)?pi(?:/(\d+))?$")


def parse_angle(token: str) -> float:
    token = token.strip()
    m = _ANGLE_RE.match(token)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        return sign * num * np.pi / den
    try:
        return float(token)
    except ValueError:
        raise SequenceError(f"cannot parse angle {token!r}") from None


def format_instruction(instr) -> str:
    if isinstance(instr, Rotation):
        parts = [
            "ROT",
            "spins=" + ",".join(str(s) for s in instr.spins),
            f"axis={instr.axis}",
            f"angle={format_angle(instr.angle)}",
        ]
        if instr.duration:
            parts.append(f"dur={instr.duration!r}")
        return " ".join(parts)
    if isinstance(instr, CouplingBlock):
        parts = ["CPL", "pair={},{}".format(*instr.pair)]
        if instr.tau is not None:
            parts.append(f"tau={instr.tau!r}")
        if instr.angle is not None:
            parts.append(f"angle={format_angle(instr.angle)}")
        parts.append("mode=ideal")
        return " ".join(parts)
    if isinstance(instr, FreeDelay):
        return f"DELAY tau={instr.tau!r}"
    if isinstance(instr, Gradient):
        return "GRAD" + (f" dur={instr.duration!r}" if instr.duration else "")
    raise SequenceError(f"unknown instruction {instr!r}")


def format_sequence(seq: PulseSequence) -> str:
    lines = []
    if seq.name:
        lines.append(f"# name: {seq.name}")
    if seq.description:
        lines.append(f"# description: {seq.description}")
    lines.extend(format_instruction(i) for i in seq)
    return "\n".join(lines) + "\n"


def _fields(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SequenceError(f"malformed field {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


def parse_spins(text: str) -> tuple:
    """Comma-separated 1-based spin indices such as '1,2,4'."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise SequenceError(f"spins must be comma-separated integers, got {text!r}") from None


def parse_number(token: str) -> float:
    """A decimal number such as '6.906e-3'."""
    try:
        return float(token)
    except ValueError:
        raise SequenceError(f"cannot parse number {token!r}") from None


def parse_instruction(line: str):
    tokens = line.split()
    head, fields = tokens[0], _fields(tokens[1:])
    try:
        if head == "ROT":
            return Rotation(
                spins=parse_spins(fields["spins"]),
                axis=fields["axis"],
                angle=parse_angle(fields["angle"]),
                duration=parse_number(fields.get("dur", "0")),
            )
        if head == "CPL":
            if fields.get("mode", "ideal") != "ideal":
                raise SequenceError(f"unknown coupling mode {fields['mode']!r}")
            return CouplingBlock(
                pair=parse_spins(fields["pair"]),
                tau=parse_number(fields["tau"]) if "tau" in fields else None,
                angle=parse_angle(fields["angle"]) if "angle" in fields else None,
            )
        if head == "DELAY":
            return FreeDelay(tau=parse_number(fields["tau"]))
        if head == "GRAD":
            return Gradient(duration=parse_number(fields.get("dur", "0")))
    except KeyError as exc:
        raise SequenceError(f"{head} line is missing field {exc.args[0]!r}") from None
    raise SequenceError(f"unknown instruction {head!r}")


def parse_sequence(text: str) -> PulseSequence:
    name = ""
    description = ""
    instructions = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:"):
                name = body[len("name:"):].strip()
            elif body.startswith("description:"):
                description = body[len("description:"):].strip()
            continue
        instructions.append(parse_instruction(line))
    return PulseSequence(instructions, name=name, description=description)
