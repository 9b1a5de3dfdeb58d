// The server's result returns, read back from its tracer. Two runs that
// apply the same returns at the same times in the same order have equal
// streams, which pins the order as well as every receipt time.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"

namespace hcmd::tests {

/// Tracer options that keep every workunit lifecycle event and nothing
/// else.
inline obs::Tracer::Options workunit_trace() {
  obs::Tracer::Options o;
  o.sample_every = {};
  o.sample_every[static_cast<std::size_t>(obs::TraceCat::kWorkunit)] = 1;
  return o;
}

/// (time, result id, final ResultState) of one return.
using WuReturn = std::tuple<double, std::uint32_t, std::uint16_t>;

/// The kWuReturn events the tracer retained, in the order they happened.
inline std::vector<WuReturn> wu_returns(const obs::Tracer& tracer) {
  std::vector<WuReturn> out;
  for (const obs::TraceEvent& e : tracer.snapshot())
    if (e.ev == static_cast<std::uint8_t>(obs::TraceEv::kWuReturn))
      out.emplace_back(e.t, e.id, e.extra);
  return out;
}

}  // namespace hcmd::tests
