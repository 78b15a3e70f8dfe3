// Convenience bundle wiring the whole Appendix-A processing pipeline
// together from the public-data equivalents an experiment has available.
#pragma once

#include <cstdint>
#include <memory>

#include "topology/builder.h"
#include "tracemap/alias.h"
#include "tracemap/geolocate.h"
#include "tracemap/ip2as.h"
#include "tracemap/patch.h"
#include "tracemap/processed.h"

namespace rrr::tracemap {

struct PipelineParams {
  // Fraction of IXP interface assignments present in the PeeringDB-like
  // dump (unknown IXP interfaces stay unmapped).
  double ixp_interface_coverage = 0.85;
  AliasParams alias;
  GeoParams geo;
  std::uint64_t seed = 29;
};

// Builds the IP-to-AS mapper from announced prefixes (what collector RIBs
// carry) plus IXP LAN/interface data (what a PeeringDB dump carries).
Ip2As build_ip2as(const topo::Topology& topology,
                  double ixp_interface_coverage, std::uint64_t seed);

// Owns every processing component plus a TraceProcessor bound to them.
class ProcessingContext {
 public:
  ProcessingContext(const topo::Topology& topology,
                    const PipelineParams& params)
      : ip2as_(build_ip2as(topology, params.ixp_interface_coverage,
                           params.seed)),
        aliases_(topology, params.alias),
        geo_(topology, params.geo),
        annotator_(topology, ip2as_, aliases_, geo_),
        processor_(annotator_, &patcher_) {}

  const Ip2As& ip2as() const { return ip2as_; }
  const AliasResolver& aliases() const { return aliases_; }
  const Geolocator& geo() const { return geo_; }
  const HopAnnotator& annotator() const { return annotator_; }
  HopPatcher& patcher() { return patcher_; }

  // Learns patch triples from a measurement, then processes it.
  ProcessedTrace ingest(const tr::Traceroute& trace) {
    patcher_.observe(trace);
    return processor_.process(trace);
  }
  // Processes without learning (e.g. replaying archived data).
  ProcessedTrace process(const tr::Traceroute& trace) const {
    return processor_.process(trace);
  }

 private:
  Ip2As ip2as_;
  AliasResolver aliases_;
  Geolocator geo_;
  HopAnnotator annotator_;
  HopPatcher patcher_;
  TraceProcessor processor_;
};

}  // namespace rrr::tracemap
