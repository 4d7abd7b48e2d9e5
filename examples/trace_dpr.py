#!/usr/bin/env python3
"""Observability walkthrough: trace one DPR and export every artifact.

Attaches the span tracer + metrics registry to the reference SoC, runs
one dynamic partial reconfiguration through the full driver stack, then
shows what the observability layer captured:

* the span tree of the driver's Listing-1 flow (decision, decouple,
  Tr window with kick/transfer/isr children, recouple);
* the Tr latency-breakdown report, whose phase cycle sum equals the
  end-to-end window exactly;
* metric instruments (DMA burst-latency histogram, ICAP word counters,
  PLIC service-latency histogram, crossbar contention counters);
* file exports: Chrome-trace JSON (load it at https://ui.perfetto.dev),
  a VCD signal dump (gtkwave), Prometheus text and a JSON snapshot.

Run:  python examples/trace_dpr.py [output-dir]
"""

import sys
from pathlib import Path

from repro import ReconfigurationManager, build_soc
from repro.obs import build_tr_breakdown, render_tr_breakdown


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    print("building the reference SoC and attaching observability...")
    soc = build_soc()
    obs = soc.attach_observability()

    manager = ReconfigurationManager(soc)
    manager.provision_sdcard()
    manager.init_rmodules()

    print("running one DPR (sobel) with the tracer attached...\n")
    result = manager.load_module("sobel")
    assert result is not None

    # --- the span tree ------------------------------------------------
    print("driver span tree (cycle timestamps):")
    spans = {s.span_id: s for s in obs.tracer.spans}

    def depth(span) -> int:
        d = 0
        while span.parent_id is not None:
            span = spans[span.parent_id]
            d += 1
        return d

    for span in obs.tracer.spans:
        if span.track != "driver" or span.end_cycle is None:
            continue
        indent = "  " * depth(span)
        print(f"  {indent}{span.name:<12} [{span.start_cycle:>8}, "
              f"{span.end_cycle:>8}]  {span.duration:>7} cyc  {span.args}")

    # --- the latency breakdown ---------------------------------------
    breakdown = build_tr_breakdown(obs.tracer, soc.sim.freq_hz,
                                   tr_reported_us=result.tr_us)
    print()
    print(render_tr_breakdown(breakdown))
    assert breakdown.consistent, "phase sum must equal the Tr window"

    # --- a few metrics ------------------------------------------------
    print("\nselected metrics:")
    snapshot = obs.metrics.snapshot()
    wanted = ("dma_mm2s_burst_latency_cycles", "icap_words_total",
              "plic_irq_service_cycles", "driver_tr_cycles",
              "axi_wait_cycles_total")
    for key in sorted(snapshot):
        if key.startswith(wanted):
            print(f"  {key}: {snapshot[key]}")

    # --- file exports -------------------------------------------------
    artifacts = {
        "dpr_trace.json": obs.chrome_trace(soc.sim.freq_hz),
        "dpr_trace.vcd": obs.vcd(soc.sim.freq_hz),
        "dpr_metrics.prom": obs.prometheus(),
        "dpr_metrics.json": obs.json_metrics(),
    }
    print()
    for file_name, text in artifacts.items():
        path = out_dir / file_name
        path.write_text(text)
        print(f"wrote {path}  ({len(text)} bytes)")
    print("\nopen dpr_trace.json at https://ui.perfetto.dev to see the "
          "DMA/ICAP/driver timeline.")


if __name__ == "__main__":
    main()
