// The benchmark's own output check, keyed per subscription.
//
// Scenario::report() and metrics::check_exactly_once key duplicates by
// notification id per *client*, while Client delivers once per matching
// *subscription*: a client with two overlapping filters shows every
// shared notification as a duplicate there. This check keys everything
// by (client, subscription, notification) instead:
//
//   missing     a publication matching a static subscription that was
//               never delivered to that subscription;
//   duplicates  deliveries of a (client, sub, notification) beyond the
//               first;
//   spurious    deliveries to a subscription whose filter the
//               notification does not match;
//   fifo        deliveries whose producer sequence number does not
//               exceed the previous one of the same (client, sub,
//               producer) — sender-FIFO per subscription.
#ifndef PERFBENCH_CHECK_HPP
#define PERFBENCH_CHECK_HPP

#include <cstdint>

#include "perfbench/src/workloads.hpp"
#include "src/scenario/scenario.hpp"

namespace perfbench {

struct CheckResult {
  std::uint64_t expected = 0;  // (client, sub, notification) triples
  std::uint64_t delivered = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t spurious = 0;
  std::uint64_t fifo_violations = 0;
  /// Clients the scenario report marks with duplicates although this
  /// check found none for them (the report's per-client keying defect).
  std::uint64_t report_only_duplicate_clients = 0;

  [[nodiscard]] std::uint64_t failed() const {
    return missing + duplicates + spurious + fifo_violations;
  }
};

CheckResult check_deliveries(const Workload& w,
                             rebeca::scenario::Scenario& s,
                             const rebeca::scenario::ScenarioReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_HPP
