"""VCD export: value-change dump of the key handshake signals.

The tracer's ``signals`` are (cycle, value) transitions of the
control/handshake signals along the reconfiguration path — RP decouple
and AXIS switch select (recorded with ``signal()``), DMA busy, ICAP
session and interrupt pending lines (mirrored from their spans).  This
module serializes them as a Value Change Dump any waveform viewer
(GTKWave, Surfer) opens, one timescale tick per SoC clock cycle.

The header contains no timestamps or host information: identical runs
produce byte-identical files.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.tracer import SpanTracer

#: printable VCD identifier characters (short codes for signals)
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    if index < len(_ID_CHARS):
        return _ID_CHARS[index]
    out = []
    while index:
        index, digit = divmod(index, len(_ID_CHARS))
        out.append(_ID_CHARS[digit])
    return "".join(reversed(out))


def _format_value(value: int, width: int, ident: str) -> str:
    if width == 1:
        return f"{value & 1}{ident}"
    return f"b{value:b} {ident}"


def vcd_dump(tracer: SpanTracer, freq_hz: float = 100e6) -> str:
    """Serialize the recorded signal changes as a VCD document."""
    period_ns = 1e9 / freq_hz
    timescale = (f"{period_ns:.0f} ns" if period_ns >= 1
                 else f"{period_ns * 1000:.0f} ps")
    signals = tracer.signals
    names = sorted(signals)
    widths: Dict[str, int] = {}
    idents: Dict[str, str] = {}
    for index, name in enumerate(names):
        peak = max((value for _c, value in signals[name]), default=0)
        widths[name] = max(1, int(peak).bit_length())
        idents[name] = _identifier(index)

    lines: List[str] = [
        "$comment repro.obs signal dump (cycle-accurate simulation) $end",
        f"$timescale {timescale} $end",
        "$scope module soc $end",
    ]
    for name in names:
        width = widths[name]
        lines.append(f"$var wire {width} {idents[name]} {name} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # initial values at time 0, then merged time-ordered changes
    changes: List[Tuple[int, int, str]] = []  # (cycle, order, formatted)
    initial: Dict[str, int] = {}
    for order, name in enumerate(names):
        series = signals[name]
        if series and series[0][0] == 0:
            initial[name] = series[0][1]
            series = series[1:]
        else:
            initial[name] = 0
        for cycle, value in series:
            changes.append((cycle, order,
                            _format_value(value, widths[name], idents[name])))
    lines.append("$dumpvars")
    for name in names:
        lines.append(_format_value(initial[name], widths[name], idents[name]))
    lines.append("$end")

    current_time = None
    for cycle, _order, formatted in sorted(changes, key=lambda c: c[:2]):
        if cycle != current_time:
            lines.append(f"#{cycle}")
            current_time = cycle
        lines.append(formatted)
    return "\n".join(lines) + "\n"


def parse_vcd(text: str) -> Dict[str, List[Tuple[int, int]]]:
    """Re-import a :func:`vcd_dump` document into change lists.

    Returns ``{signal name: [(cycle, value), ...]}`` with the time-0
    ``$dumpvars`` section included as cycle-0 entries — the inverse of
    the exporter for round-trip tests and external tooling.  Raises
    :class:`ValueError` on a document this exporter could not have
    produced.
    """
    names_by_ident: Dict[str, str] = {}
    out: Dict[str, List[Tuple[int, int]]] = {}
    current_time = 0
    in_header = True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if in_header:
            if line.startswith("$var"):
                parts = line.split()
                # $var wire <width> <ident> <name> $end
                if len(parts) < 6 or parts[-1] != "$end":
                    raise ValueError(f"malformed $var line: {line!r}")
                names_by_ident[parts[3]] = parts[4]
                out[parts[4]] = []
            elif line == "$enddefinitions $end":
                in_header = False
            continue
        if line in ("$dumpvars", "$end") or line.startswith("$comment"):
            continue
        if line.startswith("#"):
            current_time = int(line[1:])
            continue
        if line.startswith("b"):
            value_text, ident = line[1:].split()
            value = int(value_text, 2)
        else:
            value, ident = int(line[0]), line[1:]
        name = names_by_ident.get(ident)
        if name is None:
            raise ValueError(f"value change for unknown identifier {line!r}")
        out[name].append((current_time, value))
    return out
