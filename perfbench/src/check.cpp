#include "perfbench/src/check.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace perfbench {

CheckResult check_deliveries(const Workload& w,
                             rebeca::scenario::Scenario& s,
                             const rebeca::scenario::ScenarioReport& report) {
  const std::vector<rebeca::filter::Notification>& pubs = s.publications();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(pubs.size());
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    by_id.emplace(pubs[i].id().value(), i);
  }

  CheckResult r;
  std::vector<std::uint32_t> times_delivered(pubs.size());
  for (const ConsumerDecl& c : w.consumers) {
    const auto& log = s.client(c.name).deliveries();
    std::uint64_t client_duplicates = 0;
    for (std::size_t k = 0; k < c.filters.size(); ++k) {
      const auto sub = static_cast<std::uint32_t>(k + 1);
      const rebeca::filter::Filter& f = c.filters[k];
      std::fill(times_delivered.begin(), times_delivered.end(), 0);
      std::map<std::uint32_t, std::uint64_t> last_seq;  // per producer
      for (const rebeca::metrics::Delivery& d : log) {
        if (d.sub != sub) continue;
        ++r.delivered;
        const auto it = by_id.find(d.notification.id().value());
        if (it == by_id.end() || !f.matches(pubs[it->second])) {
          ++r.spurious;
          continue;
        }
        if (times_delivered[it->second]++ > 0) {
          ++r.duplicates;
          ++client_duplicates;
          continue;
        }
        std::uint64_t& prev = last_seq[d.notification.producer().value()];
        if (d.notification.producer_seq() <= prev) ++r.fifo_violations;
        prev = d.notification.producer_seq();
      }
      for (std::size_t i = 0; i < pubs.size(); ++i) {
        if (!f.matches(pubs[i])) continue;
        ++r.expected;
        if (times_delivered[i] == 0) ++r.missing;
      }
    }
    if (client_duplicates == 0 && report.client(c.name).duplicates > 0) {
      ++r.report_only_duplicate_clients;
    }
  }
  return r;
}

}  // namespace perfbench
