"""Radiotap and pcap codec.

A from-scratch, pure-Python implementation of:

* the Radiotap capture header (http://www.radiotap.org/) — parsing and
  generation with correct per-field natural alignment and ``present``
  bitmap chaining (:mod:`repro.radiotap.fields`, ``parser``, ``writer``);
* the 802.11 MAC header wire format for the frame subtypes the model
  uses (:mod:`repro.radiotap.dot11_codec`);
* the Prism (wlan-ng) monitoring header (:mod:`repro.radiotap.prism`);
* the classic libpcap file format with ``LINKTYPE_IEEE802_11_RADIOTAP``
  or ``LINKTYPE_PRISM_HEADER``, read by one decoder
  (:mod:`repro.radiotap.pcap`).

Together these let the library ingest real monitor-mode captures and
persist simulated traces as standard ``.pcap`` files, exactly like the
paper's pcap-based tool (Section V-C).
"""

from repro.radiotap.dot11_codec import decode_dot11, encode_dot11
from repro.radiotap.fields import RadiotapField
from repro.radiotap.parser import RadiotapHeader, parse_radiotap
from repro.radiotap.pcap import (
    PcapReader,
    PcapWriter,
    read_trace_pcap,
    write_trace_pcap,
    write_trace_pcap_prism,
)
from repro.radiotap.prism import PrismHeader, build_prism, parse_prism
from repro.radiotap.writer import build_radiotap

__all__ = [
    "PcapReader",
    "PcapWriter",
    "PrismHeader",
    "RadiotapField",
    "RadiotapHeader",
    "build_prism",
    "build_radiotap",
    "decode_dot11",
    "encode_dot11",
    "parse_prism",
    "parse_radiotap",
    "read_trace_pcap",
    "write_trace_pcap",
    "write_trace_pcap_prism",
]
