#include "perfbench/src/probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "perfbench/src/trace.hpp"
#include "src/client/client.hpp"
#include "src/net/endpoint.hpp"
#include "src/net/link.hpp"
#include "src/routing/cover_index.hpp"
#include "src/routing/match_index.hpp"
#include "src/routing/strategy.hpp"
#include "src/sim/simulation.hpp"

namespace perfbench {

using rebeca::filter::Filter;
using rebeca::filter::Notification;
namespace net = rebeca::net;
namespace routing = rebeca::routing;
namespace sim = rebeca::sim;

std::string MetricSet::json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const double v = std::isfinite(items_[i].value) ? items_[i].value : 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    os << (i ? ", " : "") << "\"" << items_[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << items_[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

namespace {

/// Keeps probe results observable so the optimizer cannot drop the work.
std::uint64_t g_sink = 0;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Repeats `batch` (which returns its own per-op nanoseconds) at least
/// five times and until `budget_s` has passed; returns the median.
double per_op(double budget_s, const std::function<double()>& batch) {
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < 5 ||
         (now_s() - start < budget_s && samples.size() < 1000)) {
    samples.push_back(batch());
  }
  return median(std::move(samples));
}

double ns_per(double t0, double t1, std::size_t ops) {
  return ops == 0 ? 0 : (t1 - t0) * 1e9 / static_cast<double>(ops);
}

class StubEndpoint final : public net::Endpoint {
 public:
  void handle_message(net::Link&, const net::Message&) override { ++received; }
  [[nodiscard]] std::string endpoint_name() const override { return "stub"; }
  std::uint64_t received = 0;
};

void probe_net(const ProbeInputs& in, double budget, MetricSet& out) {
  std::vector<net::Message> msgs;
  for (std::size_t i = 0; i < in.publications.size() && i < 1024; ++i) {
    msgs.emplace_back(net::DeliverMsg{
        rebeca::SubKey{rebeca::ClientId(1), 1},
        net::StampedNotification{in.publications[i], i + 1}});
  }
  sim::Simulation s(1);
  StubEndpoint a, b;
  rebeca::metrics::MessageCounters counters;
  net::Link link(rebeca::LinkId(1), s, a, b,
                 sim::DelayModel::fixed(sim::millis(1)), &counters);
  out.add("net.link_send_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (const net::Message& m : msgs) link.send(a, m);
            const double t1 = now_s();
            s.run_all();
            return ns_per(t0, t1, msgs.size());
          }),
          "ns");
  g_sink += b.received;
}

void probe_sim(const ProbeInputs& in, double budget, MetricSet& out) {
  sim::Simulation s(1);
  const sim::TimePoint far = sim::seconds(1e6);
  for (std::size_t i = 0; i < in.queue_depth; ++i) {
    s.post_at(far + static_cast<sim::TimePoint>(i), [] {});
  }
  std::uint64_t ran = 0;
  constexpr std::size_t kEvents = 4096;
  out.add("sim.event_ns", per_op(budget, [&] {
            const sim::TimePoint base = s.now();
            const double t0 = now_s();
            for (std::size_t i = 0; i < kEvents; ++i) {
              s.post_at(base + 1 + static_cast<sim::TimePoint>(i),
                        [&ran] { ++ran; });
            }
            s.run_until(base + static_cast<sim::TimePoint>(kEvents));
            return ns_per(t0, now_s(), kEvents);
          }),
          "ns");
  g_sink += ran;
}

void probe_routing(const ProbeInputs& in, double budget, MetricSet& out) {
  // Data plane: one counting index over every subscription against the
  // four-scan reference (Matcher::index / Matcher::linear).
  routing::MatchIndex index;
  for (std::size_t i = 0; i < in.filters.size(); ++i) {
    index.upsert_local(in.keys[i], in.filters[i]);
  }
  const std::size_t queries = std::min<std::size_t>(in.publications.size(), 512);
  routing::MatchHits hits;
  std::uint64_t hit_total = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    index.collect(in.publications[q], hits);
    hit_total += hits.locals.size();
  }
  out.add("routing.match_collect_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t q = 0; q < queries; ++q) {
              index.collect(in.publications[q], hits);
              g_sink += hits.locals.size();
            }
            return ns_per(t0, now_s(), queries);
          }),
          "ns");
  out.add("routing.match_linear_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t q = 0; q < queries; ++q) {
              for (const Filter& f : in.filters) {
                g_sink += f.matches(in.publications[q]);
              }
            }
            return ns_per(t0, now_s(), queries);
          }),
          "ns");
  out.add("routing.match_hits",
          queries ? static_cast<double>(hit_total) / static_cast<double>(queries) : 0,
          "count");

  // Admin plane: the covering collapse over every subscription
  // (AdminIndex::index / AdminIndex::linear).
  std::vector<routing::ForwardInput> inputs;
  for (std::size_t i = 0; i < in.filters.size(); ++i) {
    inputs.push_back(routing::ForwardInput{in.filters[i], {in.keys[i]}});
  }
  const auto strategy = routing::Strategy::covering;
  const routing::ForwardSet hop = routing::compute_forward_set(strategy, inputs);
  out.add("routing.forward_set_ns", per_op(budget, [&] {
            const double t0 = now_s();
            g_sink += routing::compute_forward_set(strategy, inputs,
                                                   routing::AdminIndex::index)
                          .size();
            return ns_per(t0, now_s(), 1);
          }),
          "ns");
  out.add("routing.forward_set_linear_ns", per_op(budget, [&] {
            const double t0 = now_s();
            g_sink += routing::compute_forward_set(strategy, inputs,
                                                   routing::AdminIndex::linear)
                          .size();
            return ns_per(t0, now_s(), 1);
          }),
          "ns");
  out.add("routing.forward_set_ratio",
          inputs.empty() ? 0
                         : static_cast<double>(hop.size()) /
                               static_cast<double>(inputs.size()),
          "ratio");

  // Moveout planning of each roaming subscription out of the collapsed
  // table: the keyed table walk against the CoverIndex candidates.
  routing::CoverIndex cover;
  const rebeca::LinkId link(1);
  for (const auto& [f, tags] : hop) cover.upsert_remote(link, f, tags);
  out.add("routing.moveout_plan_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t i : in.roamer_subs) {
              g_sink += routing::plan_moveout(strategy, in.keys[i], hop).steps.size();
            }
            return ns_per(t0, now_s(), in.roamer_subs.size());
          }),
          "ns");
  out.add("routing.moveout_plan_index_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t i : in.roamer_subs) {
              g_sink += routing::plan_moveout(
                            strategy, cover.tagged_filters(link, in.keys[i]))
                            .steps.size();
            }
            return ns_per(t0, now_s(), in.roamer_subs.size());
          }),
          "ns");

  // Covered-by queries for each roaming filter over the identity-collapsed
  // inputs: the linear reference against CoverIndex::covered_inputs.
  const routing::ForwardSet identity =
      routing::compute_forward_set(routing::Strategy::identity, inputs);
  routing::CoverIndex locals;
  for (std::size_t i = 0; i < in.filters.size(); ++i) {
    locals.upsert_local(in.keys[i], in.filters[i], false);
  }
  out.add("routing.covered_by_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t i : in.roamer_subs) {
              g_sink += routing::covered_by(in.filters[i], identity).size();
            }
            return ns_per(t0, now_s(), in.roamer_subs.size());
          }),
          "ns");
  out.add("routing.covered_by_index_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t i : in.roamer_subs) {
              g_sink += locals.covered_inputs(in.filters[i], rebeca::LinkId()).size();
            }
            return ns_per(t0, now_s(), in.roamer_subs.size());
          }),
          "ns");
}

void probe_filter(const ProbeInputs& in, double budget, MetricSet& out) {
  const std::size_t nf = std::min<std::size_t>(in.filters.size(), 256);
  const std::size_t pairs = nf * nf;
  out.add("filter.covers_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t i = 0; i < nf; ++i) {
              for (std::size_t j = 0; j < nf; ++j) {
                g_sink += in.filters[i].covers(in.filters[j]);
              }
            }
            return ns_per(t0, now_s(), pairs);
          }),
          "ns");
  out.add("filter.order_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t i = 0; i < nf; ++i) {
              for (std::size_t j = 0; j < nf; ++j) {
                g_sink += in.filters[i] < in.filters[j];
              }
            }
            return ns_per(t0, now_s(), pairs);
          }),
          "ns");
  const std::size_t np = std::min<std::size_t>(in.publications.size(), 256);
  out.add("filter.matches_ns", per_op(budget, [&] {
            const double t0 = now_s();
            for (std::size_t p = 0; p < np; ++p) {
              for (std::size_t i = 0; i < nf; ++i) {
                g_sink += in.filters[i].matches(in.publications[p]);
              }
            }
            return ns_per(t0, now_s(), np * nf);
          }),
          "ns");
}

void probe_client(const ProbeInputs& in, double budget, MetricSet& out) {
  std::vector<net::Message> stream;
  stream.reserve(in.consumer_log.size());
  for (const rebeca::metrics::Delivery& d : in.consumer_log) {
    stream.emplace_back(net::DeliverMsg{
        rebeca::SubKey{in.consumer, d.sub},
        net::StampedNotification{d.notification, d.seq}});
  }
  out.add("client.deliver_ns", per_op(budget, [&] {
            sim::Simulation s(1);
            rebeca::client::ClientConfig config;
            config.id = in.consumer;
            rebeca::client::Client c(s, config);
            for (const Filter& f : in.consumer_filters) c.subscribe(f);
            StubEndpoint broker;
            net::Link link(rebeca::LinkId(1), s, c, broker,
                           sim::DelayModel::fixed(sim::millis(1)));
            const double t0 = now_s();
            for (const net::Message& m : stream) c.handle_message(link, m);
            const double t1 = now_s();
            g_sink += c.deliveries().size();
            return ns_per(t0, t1, stream.size());
          }),
          "ns");
}

}  // namespace

void run_probes(const ProbeInputs& in, double budget_s, MetricSet& out) {
  probe_net(in, budget_s, out);
  probe_sim(in, budget_s, out);
  probe_routing(in, budget_s, out);
  probe_filter(in, budget_s, out);
  probe_client(in, budget_s, out);
  if (g_sink == 42) std::fputs("", stderr);
}

}  // namespace perfbench
