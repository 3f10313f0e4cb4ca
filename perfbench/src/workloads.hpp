// Seeded workload declarations for the repo benchmark.
//
// Every workload runs on the same 13-broker balanced_tree(2,3) with
// covering routing and jittered link delays. A Workload holds the
// ScenarioBuilder declaration plus what the benchmark needs to check and
// probe the run: each client's static filters and which clients roam.
// Publications come from the benchmark's own open-loop Poisson generator
// (varying content per publication), started on entry to the "traffic"
// phase and stopped at its end; the scenario's publication log records
// them like any other publish.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/scenario/scenario.hpp"

namespace perfbench {

struct ConsumerDecl {
  std::string name;
  std::vector<rebeca::filter::Filter> filters;  // sub ids 1..n in order
  bool roams = false;
};

struct ProducerDecl {
  std::string name;
  rebeca::sim::Duration mean_interval = 0;
  std::uint64_t seed = 0;
};

/// Content shape of the generated publications.
struct ContentSpec {
  std::size_t symbols = 0;   // "sym" drawn from S0..S{symbols-1}; 0 = none
  std::int64_t px_max = 0;   // "px" uniform in [0, px_max)
  std::size_t zones = 0;     // "zone" drawn from 0..zones-1; 0 = none
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<ConsumerDecl> consumers;
  std::vector<ProducerDecl> producers;
  ContentSpec content;
  rebeca::sim::Duration settle = 0;
  rebeca::sim::Duration traffic = 0;
  rebeca::sim::Duration drain = 0;
  std::size_t shards = 0;
  rebeca::scenario::ScenarioBuilder builder;
};

/// Builds the named workload's declaration from `seed`; null for an
/// unknown name. The same seed always yields the same declaration.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
