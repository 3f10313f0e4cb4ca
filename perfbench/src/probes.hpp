// Per-layer unit-cost probes: each drives one layer's public functions
// directly, fed with the workload's own filters, publications and
// delivery stream, and reports a median cost per operation.
#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <string>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/metrics/delivery.hpp"
#include "src/util/domain_ids.hpp"

namespace perfbench {

/// Ordered (name, value, unit) triples, printed as the metrics object.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back(Item{std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] double get(const std::string& name) const {
    for (const Item& i : items_) {
      if (i.name == name) return i.value;
    }
    return 0;
  }
  /// {"name": {"value": v, "unit": "u"}, ...}
  [[nodiscard]] std::string json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

struct ProbeInputs {
  /// A stride sample of the consumer subscriptions, tagged with their
  /// keys, as large as one broker's tables are on average in the run:
  /// the routing probes then cost what a broker's query costs.
  std::vector<rebeca::filter::Filter> filters;
  std::vector<rebeca::SubKey> keys;
  /// Indices into filters/keys of the roaming clients' subscriptions
  /// (the sample's first few when it holds none).
  std::vector<std::size_t> roamer_subs;
  /// A prefix of the run's publication log.
  std::vector<rebeca::filter::Notification> publications;
  /// The busiest consumer's subscriptions and captured delivery log.
  rebeca::ClientId consumer;
  std::vector<rebeca::filter::Filter> consumer_filters;
  std::vector<rebeca::metrics::Delivery> consumer_log;
  /// Pending events to hold in the queue while probing the kernel.
  std::size_t queue_depth = 0;
};

/// Runs the net, sim, routing, filter and client probes; adds
/// net.link_send_ns, sim.event_ns, routing.*, filter.* and
/// client.deliver_ns to `out`. Each probe spends about `budget_s`.
void run_probes(const ProbeInputs& in, double budget_s, MetricSet& out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP
