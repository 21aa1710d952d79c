#include "agent/counters.h"

namespace pingmesh::agent {

CounterSnapshot PerfCounters::peek(SimTime now) const {
  CounterSnapshot s = cur_;
  s.window_end = now;
  return s;
}

CounterSnapshot PerfCounters::collect(SimTime now) {
  CounterSnapshot s = peek(now);
  cur_.clear();
  cur_.window_start = now;
  return s;
}

}  // namespace pingmesh::agent
